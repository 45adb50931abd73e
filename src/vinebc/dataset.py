"""Ingest timestamped multivariate ensemble tables and chunk them.

Tables are CSV files with a header row, ISO-8601 timestamps on a 3-hourly
grid, an integer member column and one column per variable.  Chunking
partitions rows into the eight season x diurnal cells; the estimation set of
a chunk can be extended with rows sampled from the temporally adjacent
months and the 3-hour slots bordering the diurnal window.
"""
from __future__ import annotations

import csv
import hashlib
import math
import warnings
from dataclasses import dataclass
from datetime import datetime
from operator import itemgetter

import numpy as np

from ._util import subseed
from .errors import SchemaError, TableFormatError
from .marginal import normalize_kind

SEASONS = ("DJF", "MAM", "JJA", "SON")
DIURNALS = ("day", "night")

_SEASON_OF_MONTH = {
    12: "DJF", 1: "DJF", 2: "DJF",
    3: "MAM", 4: "MAM", 5: "MAM",
    6: "JJA", 7: "JJA", 8: "JJA",
    9: "SON", 10: "SON", 11: "SON",
}
# the index in SEASONS of each month's season, indexed by month number
_SEASON_NO_OF_MONTH = np.array([-1] + [SEASONS.index(_SEASON_OF_MONTH[m]) for m in range(1, 13)])
_SEASON_MONTHS = {
    "DJF": (12, 1, 2),
    "MAM": (3, 4, 5),
    "JJA": (6, 7, 8),
    "SON": (9, 10, 11),
}
# calendar months bordering each season
_ADJACENT_MONTHS = {
    "DJF": (11, 3),
    "MAM": (2, 6),
    "JJA": (5, 9),
    "SON": (8, 12),
}
_DIURNAL_HOURS = {
    "day": (6, 9, 12, 15),
    "night": (18, 21, 0, 3),
}
# 3-hour slots bordering each diurnal window
_BORDER_HOURS = {
    "day": (3, 18),
    "night": (15, 6),
}


@dataclass(frozen=True)
class VariableSpec:
    name: str
    kind: str
    units: str = ""

    def __post_init__(self):
        object.__setattr__(self, "kind", normalize_kind(self.kind))


@dataclass(frozen=True)
class ChunkKey:
    season: str
    diurnal: str

    def __post_init__(self):
        if self.season not in SEASONS or self.diurnal not in DIURNALS:
            raise ValueError(f"invalid chunk key ({self.season}, {self.diurnal})")

    @property
    def label(self) -> str:
        return f"{self.season}-{self.diurnal}"


ALL_CHUNK_KEYS = tuple(ChunkKey(s, w) for s in SEASONS for w in DIURNALS)


@dataclass
class Chunk:
    key: ChunkKey
    core_rows: np.ndarray
    estimation_rows: np.ndarray

    def __post_init__(self):
        self.core_rows = np.asarray(self.core_rows, dtype=int)
        self.estimation_rows = np.asarray(self.estimation_rows, dtype=int)
        if not np.isin(self.core_rows, self.estimation_rows).all():
            raise ValueError("core rows must be a subset of the estimation rows")


class ClimateTable:
    """Immutable timestamped multi-member multivariate series."""

    def __init__(self, variables, timestamps, members, values):
        self.variables = list(variables)
        ts = np.asarray(timestamps, dtype="datetime64[s]")
        mem = np.asarray(members, dtype=int)
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 2 or vals.shape[1] != len(self.variables):
            raise TableFormatError(
                f"values must be n x {len(self.variables)}, got shape {vals.shape}"
            )
        if len(self.variables) < 1:
            raise TableFormatError("need at least one variable")
        if ts.shape[0] != vals.shape[0] or mem.shape[0] != vals.shape[0]:
            raise TableFormatError("timestamps, members and values must align")
        for m in np.unique(mem):
            sel = ts[mem == m]
            if np.any(np.diff(sel.astype("int64")) <= 0):
                raise TableFormatError(f"timestamps of member {m} are not strictly increasing")
        for j, var in enumerate(self.variables):
            if var.kind != "interval" and np.any(vals[:, j] < 0):
                raise TableFormatError(f"variable {var.name!r} ({var.kind}) has negative values")
        self.timestamps = ts
        self.members = mem
        self.values = vals
        self._months = self._hours = None

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return len(self.variables)

    @property
    def kinds(self) -> list:
        return [v.kind for v in self.variables]

    @property
    def var_names(self) -> list:
        return [v.name for v in self.variables]

    def months(self) -> np.ndarray:
        """The calendar month (1-12) of each row, computed once per table; read-only."""
        if self._months is None:
            self._months = (self.timestamps.astype("datetime64[M]").astype(int) % 12) + 1
            self._months.flags.writeable = False
        return self._months

    def hours(self) -> np.ndarray:
        """The hour of day (0-23) of each row, computed once per table; read-only."""
        if self._hours is None:
            day = self.timestamps.astype("datetime64[D]")
            self._hours = (self.timestamps - day).astype("timedelta64[h]").astype(int)
            self._hours.flags.writeable = False
        return self._hours


def load_table(path, schema) -> ClimateTable:
    """Parse a CSV against variable descriptors.

    The header must contain ``timestamp``, ``member`` and every schema name;
    extra columns are ignored.  The columns are parsed whole; only if that
    fails or finds a non-finite value does ``_first_row_error`` scan the rows
    in file order for the 1-based data row (blank rows count) to report.
    """
    specs = list(schema)
    if not specs:
        raise SchemaError("need at least one variable")
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise TableFormatError(f"{path}: cannot open: {exc.strerror}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TableFormatError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        col = {name: i for i, name in enumerate(header)}
        for required in ["timestamp", "member"] + [v.name for v in specs]:
            if required not in col:
                raise SchemaError(f"{path}: missing column {required!r}")
        rows = list(reader)
    data = [row for row in rows if "".join(row).strip()]
    if not data:
        raise TableFormatError(f"{path}: no data rows")
    needed = [col["timestamp"], col["member"]] + [col[v.name] for v in specs]
    try:
        ts_cells, member_cells, *value_cells = zip(*map(itemgetter(*needed), data))
        timestamps = _parse_timestamps(list(map(str.strip, ts_cells)))
        members = np.fromiter(map(int, member_cells), dtype=int, count=len(data))
        values = np.column_stack(
            [np.fromiter(map(float, cells), dtype=float, count=len(data)) for cells in value_cells])
    except (IndexError, ValueError, OverflowError):
        values = None
    if values is None or not np.isfinite(values).all():
        raise TableFormatError(f"{path}: {_first_row_error(rows, needed, len(header), specs)}")
    return ClimateTable(specs, timestamps, members, values)


def _first_row_error(rows, needed, n_header, specs) -> str:
    """The error of the first bad row in file order (blank rows count), and of
    the first check it fails: its length, the timestamp, the member, each
    variable in ``specs``, then each one's finiteness.  ``needed`` holds the
    columns of the timestamp, the member and the variables.
    """
    ts_col, member_col, *value_cols = needed
    last = max(needed)
    for row_no, row in enumerate(rows, start=1):
        if not "".join(row).strip():
            continue
        if len(row) <= last:
            return f"row {row_no} has {len(row)} cells, the header has {n_header}"
        try:
            datetime.fromisoformat(row[ts_col].strip())
        except ValueError:
            return f"cannot parse timestamp {row[ts_col]!r} in row {row_no}"
        try:
            if not -2**63 <= int(row[member_col]) < 2**63:  # numpy's int64 range
                return f"member out of range in row {row_no}: {row[member_col]!r}"
            values = [float(row[j]) for j in value_cols]
        except ValueError as exc:
            return f"non-numeric cell in row {row_no}: {exc}"
        for spec, value in zip(specs, values):
            if not math.isfinite(value):
                return f"non-finite value {value} in column {spec.name!r}, row {row_no}"
    raise AssertionError("the columnar parse failed on rows that each parse")


# the canonical timestamp form as UCS4 code points, a 0 for each digit
_ISO_TEMPLATE = np.array(["0000-00-00T00:00:00"]).view(np.uint32)
_ISO_DIGIT = _ISO_TEMPLATE == ord("0")
_ISO_FIRST = np.datetime64("0001-01-01T00:00:00", "s")


def _parse_timestamps(cells):
    """``datetime64[s]`` values of stripped timestamp cells; a cell that does
    not parse raises ValueError.

    Cells in the canonical ``YYYY-MM-DDTHH:MM:SS`` form, which
    ``write_table_csv`` writes, take numpy's vectorised parse; every other
    cell goes through ``datetime.fromisoformat``, which decides what is
    accepted.  (Sending every cell through ``fromisoformat`` is one path, but
    numpy converts the resulting ``datetime`` objects one by one, about 1.5 us
    each on a 2-vCPU Xeon, which made ``correct``'s UBC stage 12% slower on
    ``ensemble_d3``.)
    """
    n, width = len(cells), _ISO_TEMPLATE.size
    text = np.array(cells, dtype=str)
    canonical = np.fromiter(map(len, cells), dtype=np.intp, count=n) == width
    out = np.empty(n, dtype="datetime64[s]")
    if text.dtype.itemsize >= _ISO_TEMPLATE.nbytes and canonical.any():
        codes = text.view(np.uint32).reshape(n, -1)[:, :width]
        canonical &= np.where(_ISO_DIGIT, codes - ord("0") < 10, codes == _ISO_TEMPLATE).all(axis=1)
        try:
            out[canonical] = text[canonical].astype("datetime64[s]")
            # numpy takes year 0, which fromisoformat does not
            canonical[canonical] = out[canonical] >= _ISO_FIRST
        except ValueError:  # a field out of range; fromisoformat finds the row
            canonical[:] = False
    for k in np.flatnonzero(~canonical):
        stamp = datetime.fromisoformat(cells[k])
        out[k] = np.datetime64(stamp.replace(tzinfo=None), "s")
        offset = stamp.utcoffset()
        if offset:
            # UTC as numpy gives it for an aware datetime (the offset in whole
            # minutes), without numpy's timezone warning; numpy's arithmetic,
            # unlike datetime's, reaches past years 1 and 9999
            out[k] -= np.timedelta64(int(offset.total_seconds() / 60), "m")
    return out


def chunk_key_of(timestamp) -> ChunkKey:
    """Chunk assignment is a pure function of the wall-clock timestamp."""
    ts = np.datetime64(timestamp, "s")
    month = int(ts.astype("datetime64[M]").astype(int) % 12) + 1
    hour = int((ts - ts.astype("datetime64[D]")).astype("timedelta64[h]").astype(int))
    diurnal = "day" if 6 <= hour < 18 else "night"
    return ChunkKey(_SEASON_OF_MONTH[month], diurnal)


def make_chunks(table: ClimateTable) -> dict:
    """Partition the table into the eight season x diurnal chunks.

    Daytime is the half-open window [06:00, 18:00). Empty chunks are kept.
    """
    if len(table) == 0:
        raise TableFormatError("table is empty")
    months = table.months()
    hours = table.hours()
    season = _SEASON_NO_OF_MONTH[months]
    is_day = (hours >= 6) & (hours < 18)
    chunks = {}
    for key in ALL_CHUNK_KEYS:
        in_window = is_day if key.diurnal == "day" else ~is_day
        idx = np.flatnonzero((season == SEASONS.index(key.season)) & in_window)
        chunks[key] = Chunk(key=key, core_rows=idx, estimation_rows=idx.copy())
    return chunks


def extend_overlap(chunk: Chunk, table: ClimateTable, fraction: float, seed: int) -> Chunk:
    """Extend the estimation rows with seeded draws from the adjacent pool.

    The pool holds rows from the calendar-adjacent months inside the chunk's
    diurnal window plus rows of the chunk's months in the bordering 3-hour
    slots.  Draws are uniform without replacement, allocated per member in
    proportion to the member's core rows.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    k = int(round(fraction * chunk.core_rows.size))
    if k == 0:
        return Chunk(chunk.key, chunk.core_rows.copy(), chunk.core_rows.copy())
    months = table.months()
    hours = table.hours()
    season_months = _SEASON_MONTHS[chunk.key.season]
    adj_months = _ADJACENT_MONTHS[chunk.key.season]
    window = _DIURNAL_HOURS[chunk.key.diurnal]
    border = _BORDER_HOURS[chunk.key.diurnal]
    pool_mask = (np.isin(months, adj_months) & np.isin(hours, window)) | (
        np.isin(months, season_months) & np.isin(hours, border)
    )
    pool = np.flatnonzero(pool_mask)
    if pool.size <= k:
        if pool.size < k:
            warnings.warn(
                f"adjacent pool ({pool.size}) smaller than requested overlap ({k}); "
                "taking the entire pool"
            )
        extra = pool
    else:
        core_members = table.members[chunk.core_rows]
        member_ids, core_counts = np.unique(core_members, return_counts=True)
        quota = core_counts * (k / chunk.core_rows.size)
        base = np.floor(quota).astype(int)
        remainder = k - base.sum()
        # largest fractional parts get the leftover draws; ties resolve by member id
        order = np.lexsort((member_ids, -(quota - base)))
        base[order[:remainder]] += 1
        parts = []
        for m, want in zip(member_ids, base):
            pool_m = pool[table.members[pool] == m]
            if pool_m.size < want:
                warnings.warn(f"member {m}: pool ({pool_m.size}) smaller than quota ({want})")
                parts.append(pool_m)
                continue
            rng = np.random.default_rng(subseed(seed, int(m)))
            parts.append(rng.choice(pool_m, size=want, replace=False))
        extra = np.concatenate(parts) if parts else np.empty(0, dtype=int)
    estimation = np.sort(np.concatenate([chunk.core_rows, extra]))
    return Chunk(chunk.key, chunk.core_rows.copy(), estimation)


def _rows_digest(rows: np.ndarray) -> str:
    return hashlib.sha256(rows.astype("<i8").tobytes()).hexdigest()


def chunk_manifest(chunks: dict) -> dict:
    """JSON-ready audit record of the chunk partition: row counts, and a
    SHA-256 of each row-index array (little-endian int64) in place of the rows."""
    return {
        key.label: {
            "season": key.season,
            "diurnal": key.diurnal,
            "n_core": int(chunk.core_rows.size),
            "n_estimation": int(chunk.estimation_rows.size),
            "core_rows_sha256": _rows_digest(chunk.core_rows),
            "estimation_rows_sha256": _rows_digest(chunk.estimation_rows),
        }
        for key, chunk in chunks.items()
    }
