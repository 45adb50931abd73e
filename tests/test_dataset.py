import csv
import io
import re
import sys
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
    # int() and float() take these, numpy's reader does not
    "underscore in the member": ([(2, 1, "1_000"), (5, 3, "?")],
                                 "non-numeric cell in row 3: not an ASCII number without "
                                 "underscores: '1_000'"),
    "non-ASCII digit in the member": ([(2, 1, "\u0661")],
                                      "non-numeric cell in row 3: not an ASCII number without "
                                      "underscores: '\u0661'"),
    "underscore in a variable": ([(4, 5, "2_5.0"), (6, 3, "?")],
                                 "non-numeric cell in row 5: not an ASCII number without "
                                 "underscores: '2_5.0'"),
    "non-ASCII digit in a variable": ([(4, 3, " \uff11.5")],
                                      "non-numeric cell in row 5: not an ASCII number without "
                                      "underscores: ' \uff11.5'"),
    # numpy's string arrays drop trailing NULs; Python 3.10's csv reader
    # rejects a line holding one
    "NUL after a timestamp": ([(3, 0, "2019-01-01T09:00:00\x00")],
                              f"cannot parse timestamp {'2019-01-01T09:00:00' + chr(0)!r} in row 4"
                              if sys.version_info >= (3, 11) else "row 4: line contains NUL"),
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
    ([1], ["1_000", "\u0661"], 1,
     lambda cell, j, row_no: (f"non-numeric cell in row {row_no}: "
                              f"not an ASCII number without underscores: {cell!r}")),
    (range(2, 7), ["2_5.0", "\uff11"], 1,
     lambda cell, j, row_no: (f"non-numeric cell in row {row_no}: "
                              f"not an ASCII number without underscores: {cell!r}")),
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


@pytest.mark.parametrize("header, name", [("timestamp,member,t,t", "t"),
                                          ("timestamp,member,timestamp,t", "timestamp"),
                                          ("member,timestamp,t,member", "member")])
def test_load_table_duplicate_needed_column_is_a_schema_error(tmp_path, header, name):
    path = tmp_path / "in.csv"
    path.write_text(header + "\n2000-01-01T00:00:00,1,3.0,9.0\n")
    with pytest.raises(SchemaError) as err:
        load_table(path, [VariableSpec("t", "interval")])
    assert str(err.value) == f"{path}: duplicate column {name!r}"


def test_load_table_allows_duplicate_ignored_columns(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text("note,timestamp,member,t,note\nx,2000-01-01T00:00:00,1,3.0,y\n")
    table = load_table(path, [VariableSpec("t", "interval")])
    assert table.values.tolist() == [[3.0]]


def test_load_table_row_of_quoted_empty_cells_is_not_blank(tmp_path):
    """A blank row is a line of commas and whitespace; quotes make a row."""
    path = tmp_path / "in.csv"
    path.write_text('timestamp,member,t\n2000-01-01T00:00:00,1,3.0\n"",""\n')
    with pytest.raises(TableFormatError) as err:
        load_table(path, [VariableSpec("t", "interval")])
    assert str(err.value) == f"{path}: row 2 has 2 cells, the header has 3"


def test_load_table_nul_in_an_ignored_column(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text("timestamp,member,t,note\n2000-01-01T00:00:00,1,3.0,a\x00\n")
    if sys.version_info >= (3, 11):
        assert load_table(path, [VariableSpec("t", "interval")]).values.tolist() == [[3.0]]
    else:
        with pytest.raises(TableFormatError, match="row 1: line contains NUL"):
            load_table(path, [VariableSpec("t", "interval")])


@pytest.mark.parametrize("text, message", [
    ("timestamp,member,t,no\x00te\n2000-01-01T00:00:00,1,3.0,a\n", "header: line contains NUL"),
    ("timestamp,member,t,note\n2000-01-01T00:00:00,1,3.0,a\n\n2000-01-01T03:00:00,1,3.0,b\x00\n",
     "row 3: line contains NUL"),
])
def test_load_table_reports_a_nul_line_the_csv_reader_rejects(tmp_path, monkeypatch, text, message):
    """Python 3.10's csv reader, emulated here, raises csv.Error on a line
    holding NUL (3.11 reads it); that is a data error, not a traceback."""
    reader = csv.reader

    def reader_rejecting_nul(lines, *args, **kwargs):
        def check(line):
            if "\x00" in line:
                raise csv.Error("line contains NUL")
            return line
        return reader(map(check, lines), *args, **kwargs)

    monkeypatch.setattr(csv, "reader", reader_rejecting_nul)
    path = tmp_path / "in.csv"
    path.write_text(text)
    with pytest.raises(TableFormatError) as err:
        load_table(path, [VariableSpec("t", "interval")])
    assert str(err.value) == f"{path}: {message}"


def test_load_table_member_read_through_float_is_a_data_error(tmp_path, monkeypatch):
    """numpy's reader has read an integer cell such as 1.5 through float with
    only a DeprecationWarning (emulated here); the row scan reports the cell."""
    loadtxt = np.loadtxt

    def loadtxt_int_via_float(lines, dtype, **kwargs):
        if np.dtype(dtype).names:  # the pass over the member and the variables
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning)
            lines = [line.replace(",1.5,", ",1,") for line in lines]
        return loadtxt(lines, dtype=dtype, **kwargs)

    monkeypatch.setattr(np, "loadtxt", loadtxt_int_via_float)
    path = tmp_path / "in.csv"
    rows = hourly_rows(4)
    rows[2][1] = "1.5"
    write_csv(path, rows)
    with pytest.raises(TableFormatError) as err:
        load_table(path, SCHEMA5)
    assert str(err.value) == (f"{path}: non-numeric cell in row 3: "
                              "invalid literal for int() with base 10: '1.5'")


def _fromisoformat_s(cell):
    """A timestamp cell's value as parsed one cell at a time."""
    return np.datetime64(datetime.fromisoformat(cell.strip()), "s")


@pytest.mark.parametrize("form", [
    "2000-01-01T03:00:00", " 2000-01-01T03:00:00 ", "2000-01-01 03:00:00",
    "2000-01-01T03:00:00+01:00", "2000-01-01T03:00:00.7", "2000-01-01T03",
    "20000101T030000", "NaT", "now", "0000-01-01T03:00:00", "10000-01-01T03:00:00",
    "2000-01-01T24:00:00", "2000-02-30T03:00:00", "2000-01-01T03:00:00Z",
    "2000-00-01T03:00:00", "2000-01-00T03:00:00", "2000-01-32T03:00:00",
    "2000-01-01T03:60:00", "2000-01-01T03:00:60",
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


def _oracle_load(text, names):
    """What ``load_table`` reads from ``text``, one row at a time: ``csv``
    cells, ``datetime.fromisoformat``, ``int`` and ``float``; raises
    TableFormatError, ValueError or IndexError where a row is bad."""
    header, *rows = csv.reader(io.StringIO(text, newline=""))
    header = [h.strip() for h in header]
    cols = [header.index(name) for name in ["timestamp", "member"] + names]
    stamps, members, values = [], [], []
    for row in rows:
        if not "".join(row).strip():
            continue
        ts, member, *cells = [row[c] for c in cols]  # IndexError on a short row
        stamps.append(np.datetime64(datetime.fromisoformat(ts.strip()), "s"))
        members.append(int(member))
        values.append([float(c) for c in cells])
    if not np.isfinite(values).all():
        raise TableFormatError("a non-finite value")
    return ClimateTable([VariableSpec(n, "interval") for n in names], stamps, members, values)


# number cells as repr gives them and in the other forms float() reads: -0,
# subnormals, overflow to inf, long decimals, a bare point, a sign, an E
NUMBER_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["-0.0", "-0", "5e-324", "2.225073858507201e-308", "1e400", "-1e400",
                     "1.", ".5", "+1.5", "1E5", "-2.5e-3"]),
    st.from_regex(r"\A-?[0-9]\.[0-9]{40,60}\Z"),
)
MEMBER_CELLS = st.one_of(st.integers(-2**63, 2**63 - 1).map(str),
                         st.sampled_from(["+7", "007", "-0"]))
# canonical timestamps of years 1-9999; the day may not exist in its month
# (Feb 29 of a year that is not a leap year, Apr 31), which fromisoformat rejects
TIMESTAMP_CELLS = st.one_of(
    st.tuples(st.integers(1, 9999), st.integers(1, 12), st.integers(1, 31),
              st.integers(0, 23), st.integers(0, 59), st.integers(0, 59)),
    st.tuples(st.sampled_from([4, 1600, 1900, 2000, 2023, 2024, 2100, 9996, 9999]), st.just(2),
              st.integers(28, 29), st.integers(0, 23), st.integers(0, 59), st.integers(0, 59)),
).map(lambda f: "{:04d}-{:02d}-{:02d}T{:02d}:{:02d}:{:02d}".format(*f))
# cells of columns the schema does not name, with quoted commas and line breaks
EXTRA_CELLS = st.sampled_from(["x", "", "DJF-day", '"a,b"', '"line\nbreak"', '"q""uote"',
                               '"\r\n, ,\n"'])


@st.composite
def _tables(draw):
    """The text of a random table and the names of its variables."""
    names = [f"v{j}" for j in range(draw(st.integers(1, 3), label="variables"))]
    extras = [f"e{j}" for j in range(draw(st.integers(0, 2), label="extra columns"))]
    columns = draw(st.permutations(["timestamp", "member"] + names + extras), label="order")
    last = max(columns.index(c) for c in ["timestamp", "member"] + names)
    stamps = sorted(draw(st.lists(TIMESTAMP_CELLS, min_size=1, max_size=10, unique=True),
                         label="timestamps"))
    newline = draw(st.sampled_from(["\n", "\r\n"]), label="line end")

    def dress(cell):  # pad a cell with spaces and maybe quote it
        cell = " " * draw(st.integers(0, 2)) + cell + " " * draw(st.integers(0, 2))
        return f'"{cell}"' if draw(st.booleans()) else cell

    lines = [",".join(columns)]
    for stamp in stamps:
        lines += draw(st.lists(st.sampled_from(["", " , ,", "   "]), max_size=1), label="blank")
        cells = {"timestamp": stamp, "member": draw(MEMBER_CELLS)}
        cells.update({n: draw(NUMBER_CELLS) for n in names})
        row = [dress(cells[c]) if c in cells else draw(EXTRA_CELLS) for c in columns]
        lines.append(",".join(row[:draw(st.integers(last + 1, len(row)), label="cells")]))
    return newline.join(lines) + newline, names


@settings(deadline=None, max_examples=300)
@given(_tables())
def test_load_table_matches_row_by_row_parse(tmp_path_factory, table):
    """numpy's reader gives, bit for bit, what csv, fromisoformat, int and
    float give one row at a time, and fails where they fail."""
    text, names = table
    path = tmp_path_factory.mktemp("oracle") / "in.csv"
    path.write_text(text, newline="")
    specs = [VariableSpec(n, "interval") for n in names]
    try:
        expected = _oracle_load(text, names)
    except (TableFormatError, ValueError, IndexError):
        with pytest.raises(TableFormatError):
            load_table(path, specs)
        return
    table = load_table(path, specs)
    assert table.timestamps.dtype == expected.timestamps.dtype
    assert table.timestamps.view(np.int64).tolist() == expected.timestamps.view(np.int64).tolist()
    assert table.members.tolist() == expected.members.tolist()
    assert table.values.tobytes() == expected.values.tobytes()


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


def test_extend_overlap_member_pool_below_quota_takes_it_all_and_warns():
    # both members hold the 2019 winter nights, only member 1 the November and
    # March nights: the pool exceeds the draw, but member 2's part of it is empty
    grid = np.datetime64("2019-01-01T00:00:00") + np.arange(2920) * np.timedelta64(3, "h")
    months = (grid.astype("datetime64[M]").astype(int) % 12) + 1
    hours = (grid - grid.astype("datetime64[D]")).astype("timedelta64[h]").astype(int)
    night = (hours >= 18) | (hours < 6)
    core = np.isin(months, (12, 1, 2)) & night
    rows = {1: np.flatnonzero(core | (np.isin(months, (11, 3)) & night)), 2: np.flatnonzero(core)}
    rng = np.random.default_rng(8)
    table = ClimateTable(SCHEMA5, np.concatenate([grid[r] for r in rows.values()]),
                         np.repeat(list(rows), [r.size for r in rows.values()]),
                         np.abs(rng.normal(size=(sum(r.size for r in rows.values()), 5))))
    chunk = make_chunks(table)[ChunkKey("DJF", "night")]
    assert chunk.core_rows.size == 720
    with pytest.warns(UserWarning, match=r"member 2: pool \(0\) smaller than quota \(90\)"):
        out = extend_overlap(chunk, table, 0.25, seed=3)
    extra = np.setdiff1d(out.estimation_rows, chunk.core_rows)
    assert extra.size == 90 and (table.members[extra] == 1).all()


def _whole_pool(table, key):
    """The overlap pool ``extend_overlap`` draws for chunk ``key``: with every
    row of the table as core rows, it draws the whole pool, and each pool row
    appears twice among the estimation rows."""
    everything = np.arange(len(table))
    with pytest.warns(UserWarning, match="pool"):
        out = extend_overlap(Chunk(key, everything, everything), table, 1.0, seed=0)
    return np.flatnonzero(np.bincount(out.estimation_rows) == 2)


def test_calendar_matches_the_month_and_hour_tables():
    """The chunk calendar as literal tables, against ``make_chunks`` and the
    overlap pool of ``extend_overlap`` on a 3-hourly year."""
    season_months = {"DJF": (12, 1, 2), "MAM": (3, 4, 5), "JJA": (6, 7, 8), "SON": (9, 10, 11)}
    adjacent_months = {"DJF": (11, 3), "MAM": (2, 6), "JJA": (5, 9), "SON": (8, 12)}
    diurnal_hours = {"day": (6, 9, 12, 15), "night": (18, 21, 0, 3)}
    border_hours = {"day": (3, 18), "night": (15, 6)}
    table = full_year_table()
    months, hours = table.months(), table.hours()
    chunks = make_chunks(table)
    for key in ALL_CHUNK_KEYS:
        in_season = np.isin(months, season_months[key.season])
        in_window = np.isin(hours, diurnal_hours[key.diurnal])
        pool = ((np.isin(months, adjacent_months[key.season]) & in_window)
                | (in_season & np.isin(hours, border_hours[key.diurnal])))
        assert np.array_equal(chunks[key].core_rows, np.flatnonzero(in_season & in_window)), key
        assert np.array_equal(_whole_pool(table, key), np.flatnonzero(pool)), key


def test_overlap_pool_reads_off_grid_hours_by_their_3_hour_slot():
    """On an hourly year, 07:00 is daytime for ``make_chunks``, so 07:00 in
    November and March is in DJF-day's pool; the pool is the day hours of the
    adjacent months and the slots [03:00, 06:00) and [18:00, 21:00) of DJF."""
    grid = np.datetime64("2019-01-01T00:00:00") + np.arange(365 * 24) * np.timedelta64(1, "h")
    table = ClimateTable(SCHEMA5, grid, np.ones(grid.size, dtype=int), np.ones((grid.size, 5)))
    months, hours = table.months(), table.hours()
    key = ChunkKey("DJF", "day")
    assert np.isin(np.flatnonzero(np.isin(months, (12, 1, 2)) & (hours == 7)),
                   make_chunks(table)[key].core_rows).all()
    pool = _whole_pool(table, key)
    assert np.isin(np.flatnonzero(np.isin(months, (11, 3)) & (hours == 7)), pool).all()
    day = (hours >= 6) & (hours < 18)
    border = ((hours >= 3) & (hours < 6)) | ((hours >= 18) & (hours < 21))
    want = (np.isin(months, (11, 3)) & day) | (np.isin(months, (12, 1, 2)) & border)
    assert np.array_equal(pool, np.flatnonzero(want))


def test_chunk_manifest_round_trips_json():
    import json

    table = full_year_table()
    chunks = make_chunks(table)
    manifest = chunk_manifest(chunks)
    blob = json.loads(json.dumps(manifest))
    assert set(blob) == {k.label for k in ALL_CHUNK_KEYS}
    assert sum(v["n_core"] for v in blob.values()) == len(table)
    assert not any(isinstance(x, list) for v in blob.values() for x in v.values())
