import re
import warnings
from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vinebc.dataset import (
    ALL_CHUNK_KEYS,
    Chunk,
    ChunkKey,
    ClimateTable,
    VariableSpec,
    chunk_key_of,
    chunk_manifest,
    extend_overlap,
    load_table,
    make_chunks,
)
from vinebc.errors import SchemaError, TableFormatError

SCHEMA5 = [
    VariableSpec("d", "interval", "degC"),
    VariableSpec("p", "zero_inflated", "kg/m2"),
    VariableSpec("r", "zero_inflated", "W/m2"),
    VariableSpec("w", "nonnegative", "m/s"),
    VariableSpec("t", "interval", "degC"),
]


def write_csv(path, rows, header="timestamp,member,d,p,r,w,t"):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(c) for c in row) + "\n")


def hourly_rows(n, start="2019-01-01T00:00:00", member=1):
    ts = np.datetime64(start) + np.arange(n) * np.timedelta64(3, "h")
    return [[str(t), member, 1.0, 0.0, 2.0, 3.0, 4.0] for t in ts]


def full_year_table(members=(1,), seed=0):
    rng = np.random.default_rng(seed)
    steps = 365 * 8
    grid = np.datetime64("2019-01-01T00:00:00") + np.arange(steps) * np.timedelta64(3, "h")
    ts, mem, vals = [], [], []
    for m in members:
        ts.append(grid)
        mem.append(np.full(steps, m))
        vals.append(np.abs(rng.normal(size=(steps, 5))))
    return ClimateTable(SCHEMA5, np.concatenate(ts), np.concatenate(mem), np.vstack(vals))


# -- loading ---------------------------------------------------------------------


def test_load_table_parses_csv(tmp_path):
    path = tmp_path / "in.csv"
    write_csv(path, hourly_rows(10))
    table = load_table(path, SCHEMA5)
    assert len(table) == 10
    assert table.d == 5
    assert table.var_names == ["d", "p", "r", "w", "t"]
    assert table.values[0, 4] == 4.0


def test_load_table_missing_column_names_it(tmp_path):
    path = tmp_path / "in.csv"
    rows = [r[:4] + r[5:] for r in hourly_rows(3)]
    write_csv(path, rows, header="timestamp,member,d,p,w,t")
    with pytest.raises(SchemaError, match="'r'"):
        load_table(path, SCHEMA5)


def test_load_table_bad_cell_cites_row(tmp_path):
    path = tmp_path / "in.csv"
    rows = hourly_rows(10)
    rows[6][3] = "abc"
    write_csv(path, rows)
    with pytest.raises(TableFormatError, match="row 7"):
        load_table(path, SCHEMA5)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_load_table_non_finite_cell_cites_column_and_row(tmp_path, cell):
    path = tmp_path / "in.csv"
    rows = hourly_rows(10)
    rows[4][5] = cell
    write_csv(path, rows)
    with pytest.raises(TableFormatError, match=r"column 'w', row 5"):
        load_table(path, SCHEMA5)


def test_load_table_error_rows_count_blank_lines(tmp_path):
    path = tmp_path / "in.csv"
    lines = [",".join(str(c) for c in r) for r in hourly_rows(6)]
    lines[4] = lines[4].replace(",3.0,", ",x,")
    path.write_text("timestamp,member,d,p,r,w,t\n" + "\n".join(
        lines[:2] + ["", " , ,", "   "] + lines[2:]) + "\n")
    with pytest.raises(TableFormatError) as err:
        load_table(path, SCHEMA5)
    assert str(err.value) == (f"{path}: non-numeric cell in row 8: "
                              "could not convert string to float: 'x'")


# (row index, column index, cell) edits of hourly_rows(8), and the expected
# message; the first bad row in file order wins, and within a row the
# timestamp, then the member, then the variables in schema order
LOAD_ERRORS = {
    "bad timestamp": ([(3, 0, "2019-13-01T00:00:00")],
                      "cannot parse timestamp '2019-13-01T00:00:00' in row 4"),
    "bad member": ([(2, 1, "x")],
                   "non-numeric cell in row 3: invalid literal for int() with base 10: 'x'"),
    "non-numeric cell": ([(5, 3, "abc")],
                         "non-numeric cell in row 6: could not convert string to float: 'abc'"),
    "non-finite after an earlier bad row": ([(2, 4, "?"), (5, 5, "nan")],
                                            "non-numeric cell in row 3: could not convert "
                                            "string to float: '?'"),
    "bad cell after an earlier non-finite one": ([(1, 6, "inf"), (4, 2, "?")],
                                                 "non-finite value inf in column 't', row 2"),
    "bad timestamp before a bad cell in the same row": (
        [(3, 0, "x"), (3, 2, "?")], "cannot parse timestamp 'x' in row 4"),
    "bad member before a bad cell in the same row": (
        [(3, 1, "1.5"), (3, 2, "?")],
        "non-numeric cell in row 4: invalid literal for int() with base 10: '1.5'"),
    "cells in schema order": ([(3, 6, "?"), (3, 3, "!")],
                              "non-numeric cell in row 4: could not convert string to float: '!'"),
    "bad cell before non-finite in the same row": (
        [(3, 3, "-inf"), (3, 6, "?")],
        "non-numeric cell in row 4: could not convert string to float: '?'"),
    "non-finite cells in schema order": ([(3, 6, "nan"), (3, 3, "-inf")],
                                         "non-finite value -inf in column 'p', row 4"),
    "bad timestamp after an earlier bad cell": ([(5, 0, "x"), (2, 6, "?")],
                                                "non-numeric cell in row 3: could not convert "
                                                "string to float: '?'"),
    "member beyond int64": ([(2, 1, 2**63), (5, 3, "?")],
                            f"member out of range in row 3: '{2**63}'"),
}


@pytest.mark.parametrize("edits, message", LOAD_ERRORS.values(), ids=list(LOAD_ERRORS))
def test_load_table_error_messages(tmp_path, edits, message):
    path = tmp_path / "in.csv"
    rows = hourly_rows(8)
    for i, j, cell in edits:
        rows[i][j] = cell
    write_csv(path, rows)
    with pytest.raises(TableFormatError) as err:
        load_table(path, SCHEMA5)
    assert str(err.value) == f"{path}: {message}"


SHORT_ROWS = {
    "short of the timestamp": ("member,t,timestamp", ["1,3.0,2000-01-01T00:00:00", "1,3.0"],
                               "row 2 has 2 cells, the header has 3"),
    "short of the member": ("timestamp,t,member", ["2000-01-01T00:00:00,3.0"],
                            "row 1 has 2 cells, the header has 3"),
    "short of a variable": ("timestamp,member,t", ["2000-01-01T00:00:00,1,3.0", "",
                                                   "2000-01-01T03:00:00,1"],
                            "row 3 has 2 cells, the header has 3"),
    "before a later bad cell": ("timestamp,member,t", ["2000-01-01T00:00:00", "x,y,z"],
                                "row 1 has 1 cells, the header has 3"),
    "after an earlier bad cell": ("timestamp,member,t", ["2000-01-01T00:00:00,1,x", "y"],
                                  "non-numeric cell in row 1: could not convert string to "
                                  "float: 'x'"),
}


@pytest.mark.parametrize("header, lines, message", SHORT_ROWS.values(), ids=list(SHORT_ROWS))
def test_load_table_short_row_names_row_and_cell_counts(tmp_path, header, lines, message):
    path = tmp_path / "in.csv"
    path.write_text("\n".join([header] + lines) + "\n")
    with pytest.raises(TableFormatError) as err:
        load_table(path, [VariableSpec("t", "interval")])
    assert str(err.value) == f"{path}: {message}"


# the cell faults the property test below places, each as (the columns it may
# hit, its cells, the rank of its check within a row less its column, its
# message for a cell in column j at a 1-based row number); a short row ranks 0
CELL_FAULTS = [
    ([0], ["x", "2019-13-01T00:00:00"], 1,
     lambda cell, j, row_no: f"cannot parse timestamp {cell!r} in row {row_no}"),
    ([1], ["x", "1.5"], 1,
     lambda cell, j, row_no: (f"non-numeric cell in row {row_no}: "
                              f"invalid literal for int() with base 10: {cell!r}")),
    ([1], [str(2**63), str(-2**63 - 1)], 1,
     lambda cell, j, row_no: f"member out of range in row {row_no}: {cell!r}"),
    (range(2, 7), ["?", "abc"], 1,
     lambda cell, j, row_no: (f"non-numeric cell in row {row_no}: "
                              f"could not convert string to float: {cell!r}")),
    (range(2, 7), ["nan", "inf", "-inf"], 6,
     lambda cell, j, row_no: (f"non-finite value {float(cell)} in column "
                              f"{SCHEMA5[j - 2].name!r}, row {row_no}")),
]


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_load_table_reports_first_fault_in_row_and_check_order(tmp_path_factory, data):
    """With 1-3 faults anywhere in a table with blank lines, the error is the
    fault of the smallest (row number, check): the row's length, the
    timestamp, the member, each variable in schema order, then each
    variable's finiteness in schema order."""
    n = data.draw(st.integers(8, 40), label="rows")
    rows = [[str(c) for c in row] for row in hourly_rows(n)]
    cells, short = {}, {}  # (row, column) -> (fault, cell); row -> cells kept
    # most faults share one row, so that the order of checks within a row counts
    hot = data.draw(st.integers(0, n - 1), label="shared row")
    for _ in range(data.draw(st.integers(1, 3), label="faults")):
        i = hot if data.draw(st.integers(0, 3)) else data.draw(st.integers(0, n - 1), label="row")
        j = data.draw(st.integers(-1, 6), label="column")  # -1 cuts the row short
        if j < 0:
            short[i] = min(short.get(i, 6), data.draw(st.integers(1, 6), label="kept"))
        else:
            fault = data.draw(st.sampled_from([f for f in CELL_FAULTS if j in f[0]]), label="fault")
            cells[i, j] = fault, data.draw(st.sampled_from(fault[1]), label="cell")
    for (i, j), (_, cell) in cells.items():
        rows[i][j] = cell
    for i, kept in short.items():
        rows[i] = rows[i][:kept]
    blanks = data.draw(st.lists(st.tuples(st.integers(0, n), st.sampled_from(["", " , ,", "   "])),
                                max_size=6), label="blanks")
    lines, row_nos = [], []
    for i in range(n + 1):
        lines += [blank for at, blank in blanks if at == i]
        if i < n:
            lines.append(",".join(rows[i]))
            row_nos.append(len(lines))

    found = [(row_nos[i], 0, f"row {row_nos[i]} has {kept} cells, the header has 7")
             for i, kept in short.items()]
    found += [(row_nos[i], rank + j, message(cell, j, row_nos[i]))
              for (i, j), ((_, _, rank, message), cell) in cells.items()
              if j < short.get(i, 7)]
    path = tmp_path_factory.mktemp("faults") / "in.csv"
    path.write_text("\n".join(["timestamp,member,d,p,r,w,t"] + lines) + "\n")
    with pytest.raises(TableFormatError) as err:
        load_table(path, SCHEMA5)
    assert str(err.value) == f"{path}: {min(found)[2]}"


def test_load_table_empty_schema_is_a_schema_error(tmp_path):
    path = tmp_path / "in.csv"
    write_csv(path, hourly_rows(3))
    with pytest.raises(SchemaError, match="at least one variable"):
        load_table(path, [])


def test_load_table_ignores_missing_extra_cells(tmp_path):
    """A row may end before the columns the schema does not need."""
    path = tmp_path / "in.csv"
    path.write_text("timestamp,member,t,note\n2000-01-01T00:00:00,1,3.0\n")
    table = load_table(path, [VariableSpec("t", "interval")])
    assert table.values.tolist() == [[3.0]]


def _fromisoformat_s(cell):
    """A timestamp cell's value as parsed one cell at a time."""
    return np.datetime64(datetime.fromisoformat(cell.strip()), "s")


@pytest.mark.parametrize("form", [
    "2000-01-01T03:00:00", " 2000-01-01T03:00:00 ", "2000-01-01 03:00:00",
    "2000-01-01T03:00:00+01:00", "2000-01-01T03:00:00.7", "2000-01-01T03",
    "20000101T030000", "NaT", "now", "0000-01-01T03:00:00", "10000-01-01T03:00:00",
    "2000-01-01T24:00:00", "2000-02-30T03:00:00", "2000-01-01T03:00:00Z",
])
def test_load_table_timestamp_forms_match_fromisoformat(tmp_path, form):
    """Every form parses to what ``datetime.fromisoformat`` gives on this Python,
    and a form it rejects is a data error."""
    path = tmp_path / "in.csv"
    rows = hourly_rows(3, start="1999-12-31T21:00:00")
    rows[2][0] = "2000-01-01T06:00:00"
    rows[1][0] = form
    write_csv(path, rows)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # numpy warns on a timezone offset
        try:
            expected = [_fromisoformat_s(r[0]) for r in rows]
        except ValueError:
            expected = None
        if expected is None:
            message = re.escape(f"cannot parse timestamp {form!r} in row 2")
            with pytest.raises(TableFormatError, match=message):
                load_table(path, SCHEMA5)
        else:
            table = load_table(path, SCHEMA5)
            assert table.timestamps.dtype == np.dtype("datetime64[s]")
            assert table.timestamps.tolist() == [e.item() for e in expected]


@pytest.mark.parametrize("form, utc", [
    ("2000-01-01T03:00:00+01:00", "2000-01-01T02:00:00"),
    ("2000-01-01T00:30:00-02:00", "2000-01-01T02:30:00"),
    ("2000-01-01T03:00:00Z", "2000-01-01T03:00:00"),
])
def test_load_table_utc_offset_loads_as_utc_without_warning(tmp_path, form, utc):
    path = tmp_path / "in.csv"
    rows = hourly_rows(3, start="1999-12-31T21:00:00")
    rows[2][0] = "2000-01-01T06:00:00"
    rows[1][0] = form
    write_csv(path, rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = load_table(path, SCHEMA5)
    assert table.timestamps[1] == np.datetime64(utc)


def test_load_table_non_monotone_timestamps(tmp_path):
    path = tmp_path / "in.csv"
    rows = hourly_rows(5)
    rows[3][0], rows[1][0] = rows[1][0], rows[3][0]
    write_csv(path, rows)
    with pytest.raises(TableFormatError, match="increasing"):
        load_table(path, SCHEMA5)


def test_table_rejects_negative_bounded_values():
    ts = [np.datetime64("2019-01-01T00:00:00"), np.datetime64("2019-01-01T03:00:00")]
    vals = np.ones((2, 5))
    vals[1, 1] = -0.5
    with pytest.raises(TableFormatError, match="'p'"):
        ClimateTable(SCHEMA5, ts, [1, 1], vals)


# -- chunking --------------------------------------------------------------------


def test_chunk_key_examples():
    assert chunk_key_of("2019-12-15T03:00") == ChunkKey("DJF", "night")
    assert chunk_key_of("2019-07-01T12:00") == ChunkKey("JJA", "day")
    assert chunk_key_of("2019-03-05T06:00") == ChunkKey("MAM", "day")
    assert chunk_key_of("2019-03-05T18:00") == ChunkKey("MAM", "night")


def test_chunk_keys_exactly_eight():
    assert len(ALL_CHUNK_KEYS) == 8
    assert len(set(ALL_CHUNK_KEYS)) == 8


def test_make_chunks_partitions_exactly(tmp_path):
    table = full_year_table(members=(1, 2))
    chunks = make_chunks(table)
    all_rows = np.concatenate([c.core_rows for c in chunks.values()])
    assert all_rows.size == len(table)
    assert np.unique(all_rows).size == len(table)
    for key, chunk in chunks.items():
        for i in chunk.core_rows[:20]:
            assert chunk_key_of(table.timestamps[i]) == key


def test_chunk_core_rows_must_be_estimation_rows():
    key = ChunkKey("DJF", "day")
    Chunk(key, [1, 3], [0, 1, 2, 3])
    Chunk(key, [], [5])
    with pytest.raises(ValueError, match="subset"):
        Chunk(key, [1, 4], [0, 1, 2, 3])


def test_make_chunks_pure_function_of_timestamp():
    table = full_year_table()
    chunks1 = make_chunks(table)
    chunks2 = make_chunks(table)
    for key in chunks1:
        assert np.array_equal(chunks1[key].core_rows, chunks2[key].core_rows)


# -- overlap extension --------------------------------------------------------------


def test_extend_overlap_counts():
    # 2019 DJF-night has 90*4 = 360 core rows per member; fraction 0.25 -> +90
    table = full_year_table(members=(1,))
    chunks = make_chunks(table)
    key = ChunkKey("DJF", "night")
    chunk = chunks[key]
    out = extend_overlap(chunk, table, 0.25, seed=1)
    assert out.estimation_rows.size == chunk.core_rows.size + round(0.25 * chunk.core_rows.size)
    assert np.array_equal(out.core_rows, chunk.core_rows)
    # added rows come from adjacent months in-window or border slots in-season
    extra = np.setdiff1d(out.estimation_rows, out.core_rows)
    months = table.months()[extra]
    hours = table.hours()[extra]
    for m, h in zip(months, hours):
        ok_adjacent = m in (11, 3) and h in (18, 21, 0, 3)
        ok_border = m in (12, 1, 2) and h in (15, 6)
        assert ok_adjacent or ok_border


def test_extend_overlap_4000_core_gives_5000_estimation():
    # 10 members, 400 winter-night rows each, with an ample adjacent pool
    grid = np.datetime64("2019-01-01T00:00:00") + np.arange(2 * 2920) * np.timedelta64(3, "h")
    months = (grid.astype("datetime64[M]").astype(int) % 12) + 1
    hours = (grid - grid.astype("datetime64[D]")).astype("timedelta64[h]").astype(int)
    night = (hours >= 18) | (hours < 6)
    djf_night = np.flatnonzero(np.isin(months, (12, 1, 2)) & night)[:400]
    pool_rows = np.flatnonzero(np.isin(months, (11, 3)) & night)
    keep = np.sort(np.concatenate([djf_night, pool_rows]))
    rng = np.random.default_rng(9)
    ts, mem, vals = [], [], []
    for m in range(10):
        ts.append(grid[keep])
        mem.append(np.full(keep.size, m))
        vals.append(np.abs(rng.normal(size=(keep.size, 5))))
    table = ClimateTable(SCHEMA5, np.concatenate(ts), np.concatenate(mem), np.vstack(vals))
    chunk = make_chunks(table)[ChunkKey("DJF", "night")]
    assert chunk.core_rows.size == 4000
    out = extend_overlap(chunk, table, 0.25, seed=5)
    assert out.estimation_rows.size == 5000


def test_extend_overlap_fraction_zero_identity():
    table = full_year_table()
    chunk = make_chunks(table)[ChunkKey("JJA", "day")]
    out = extend_overlap(chunk, table, 0.0, seed=3)
    assert np.array_equal(out.estimation_rows, chunk.core_rows)


def test_extend_overlap_seeded_determinism():
    table = full_year_table(members=(1, 2))
    chunk = make_chunks(table)[ChunkKey("MAM", "day")]
    a = extend_overlap(chunk, table, 0.2, seed=7)
    b = extend_overlap(chunk, table, 0.2, seed=7)
    c = extend_overlap(chunk, table, 0.2, seed=8)
    assert np.array_equal(a.estimation_rows, b.estimation_rows)
    assert not np.array_equal(a.estimation_rows, c.estimation_rows)


def test_extend_overlap_small_pool_takes_all_and_warns():
    # summer-only table: the calendar-adjacent months are absent, so the pool
    # is just the two border slots inside the season
    rng = np.random.default_rng(4)
    steps = 92 * 8
    grid = np.datetime64("2019-06-01T00:00:00") + np.arange(steps) * np.timedelta64(3, "h")
    table = ClimateTable(SCHEMA5, grid, np.ones(steps, dtype=int),
                         np.abs(rng.normal(size=(steps, 5))))
    chunk = make_chunks(table)[ChunkKey("JJA", "day")]
    with pytest.warns(UserWarning, match="pool"):
        out = extend_overlap(chunk, table, 1.0, seed=2)
    pool_size = out.estimation_rows.size - chunk.core_rows.size
    assert 0 < pool_size < chunk.core_rows.size


def test_chunk_manifest_round_trips_json():
    import json

    table = full_year_table()
    chunks = make_chunks(table)
    manifest = chunk_manifest(chunks)
    blob = json.loads(json.dumps(manifest))
    assert set(blob) == {k.label for k in ALL_CHUNK_KEYS}
    assert sum(v["n_core"] for v in blob.values()) == len(table)
    assert not any(isinstance(x, list) for v in blob.values() for x in v.values())
