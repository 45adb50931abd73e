import numpy as np
import pytest

from vinebc.dataset import (
    ALL_CHUNK_KEYS,
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
