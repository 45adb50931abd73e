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
import re
import warnings
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from ._util import Stream, subseed
from .errors import SchemaError, TableFormatError
from .marginal import normalize_kind

SEASONS = ("DJF", "MAM", "JJA", "SON")
DIURNALS = ("day", "night")

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


# numpy's reader set to read CSV the way ``csv.reader`` does
_CSV = {"delimiter": ",", "quotechar": '"', "comments": None, "ndmin": 1}
# a blank line holds only commas and whitespace (``\s`` is ``str.isspace``)
_BLANK_LINE = re.compile(r"[\s,]*").fullmatch


def load_table(path, schema) -> ClimateTable:
    """Parse a CSV against variable descriptors.

    The header must contain ``timestamp``, ``member`` and every schema name,
    each once; extra columns are ignored.  Blank lines are skipped, and
    numpy's reader parses the member and the variables in one pass and the
    timestamps in another.  If that fails, finds a non-finite value or meets
    a table holding a NUL character, ``_first_row_error`` scans the rows in
    file order for the 1-based data row (blank rows count) to report.
    """
    specs = list(schema)
    if not specs:
        raise SchemaError("need at least one variable")
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise TableFormatError(f"{path}: cannot open: {exc.strerror}") from None
    with fh:
        lines = fh.readlines()
    # the header is one record, which a quoted name may spread over lines;
    # csv.reader counts the lines it took
    reader = csv.reader(lines)
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise TableFormatError(f"{path}: empty file") from None
    except csv.Error as exc:  # Python 3.10's reader rejects a line holding NUL
        raise TableFormatError(f"{path}: header: {exc}") from None
    names = ["timestamp", "member"] + [v.name for v in specs]
    for name in names:
        count = header.count(name)
        if count != 1:
            raise SchemaError(f"{path}: {'duplicate' if count else 'missing'} column {name!r}")
    lines = lines[reader.line_num:]
    data = [line for line in lines if not _BLANK_LINE(line)]
    if not data:
        raise TableFormatError(f"{path}: no data rows")
    needed = [header.index(name) for name in names]
    numbers = np.dtype([("member", np.int64), ("values", np.float64, len(specs))])
    try:
        with warnings.catch_warnings():
            # numpy's reader from 1.23 on reads an integer cell such as 1.5
            # through float with only a DeprecationWarning, until a release
            # ends the deprecation (2.4 rejects the cell)
            warnings.simplefilter("error", DeprecationWarning)
            columns = np.loadtxt(data, dtype=numbers, usecols=needed[1:], **_CSV)
        timestamps = _parse_timestamps(np.loadtxt(data, dtype=str, usecols=needed[0], **_CSV))
    except (ValueError, DeprecationWarning):
        columns = None
    parsed = columns is not None and np.isfinite(columns["values"]).all()
    # numpy's string arrays drop a timestamp cell's trailing NULs, so the row
    # scan reads the cells of a table holding a NUL
    if not parsed or "\x00" in "".join(data):
        error = _first_row_error(lines, needed, len(header), specs)
        if error is not None:
            raise TableFormatError(f"{path}: {error}")
        if not parsed:
            raise AssertionError("numpy's reader failed on rows that each parse")
    # contiguous arrays of their own, not views into the interleaved records
    return ClimateTable(specs, timestamps, np.ascontiguousarray(columns["member"]),
                        np.ascontiguousarray(columns["values"]))


def _first_row_error(lines, needed, n_header, specs):
    """The error of the first bad row in file order (blank rows count), and of
    the first check it fails: its length, the timestamp, the member, each
    variable in ``specs``, then each one's finiteness; None if every row
    passes.  ``lines`` are the lines after the header and ``needed`` holds the
    columns of the timestamp, the member and the variables.

    Each check accepts what numpy's reader accepts.  A blank line is read as
    an empty line, which is a row of no cells or adds nothing to a quoted
    cell, as ``load_table`` leaves it out of what numpy's reader reads.
    """
    ts_col, member_col, *value_cols = needed
    last = max(needed)
    rows = csv.reader("" if _BLANK_LINE(line) else line for line in lines)
    row_no = 0
    try:
        for row_no, row in enumerate(rows, start=1):
            if not row:
                continue
            if len(row) <= last:
                return f"row {row_no} has {len(row)} cells, the header has {n_header}"
            try:
                # fromisoformat rejects a NUL, which numpy's string array
                # drops from the end of a cell
                if "\x00" in row[ts_col]:
                    raise ValueError("NUL character")
                _parse_timestamps(np.array([row[ts_col]]))
            except ValueError:
                return f"cannot parse timestamp {row[ts_col]!r} in row {row_no}"
            try:
                if not -2**63 <= _number(int, row[member_col]) < 2**63:  # numpy's int64 range
                    return f"member out of range in row {row_no}: {row[member_col]!r}"
                values = [_number(float, row[j]) for j in value_cols]
            except ValueError as exc:
                return f"non-numeric cell in row {row_no}: {exc}"
            for spec, value in zip(specs, values):
                if not math.isfinite(value):
                    return f"non-finite value {value} in column {spec.name!r}, row {row_no}"
    except csv.Error as exc:  # Python 3.10's reader rejects a line holding NUL
        return f"row {row_no + 1}: {exc}"
    return None


def _number(parse, cell):
    """``parse(cell)``, for ``int`` or ``float``, in the grammar of numpy's
    reader: Python's, less underscores and non-ASCII digits."""
    value = parse(cell)
    text = cell.strip()
    if "_" in text or not text.isascii():
        raise ValueError(f"not an ASCII number without underscores: {cell!r}")
    return value


# the canonical timestamp form as UCS4 code points: each character's lowest
# code, and how far above it the character may go (9 for a digit, 0 otherwise)
_ISO_LOW = np.array(["0000-00-00T00:00:00"]).view(np.uint32)
_ISO_SPAN = 9 * (_ISO_LOW == ord("0")).astype(np.uint32)
_ISO_FIRST = np.datetime64("0001-01-01T00:00:00", "s")


def _parse_timestamps(cells):
    """``datetime64[s]`` values of a numpy string array of timestamp cells,
    stripped here; a cell that does not parse raises ValueError.

    Cells in the canonical ``YYYY-MM-DDTHH:MM:SS`` form, which
    ``write_table_csv`` writes, take numpy's vectorised parse; every other
    cell goes through ``datetime.fromisoformat``, which decides what is
    accepted.  (Sending every cell through ``fromisoformat`` is one path, but
    numpy converts the resulting ``datetime`` objects one by one, about 1.5 us
    each on a 2-vCPU Xeon, which made ``correct``'s UBC stage 12% slower on
    ``ensemble_d3``.)
    """
    text = np.strings.strip(cells)
    n, width = text.size, _ISO_LOW.size
    out = np.empty(n, dtype="datetime64[s]")
    canonical = np.zeros(n, dtype=bool)
    if text.dtype.itemsize >= _ISO_LOW.nbytes:
        above = text.view(np.uint32).reshape(n, -1)[:, :width] - _ISO_LOW
        canonical = (np.strings.str_len(text) == width) & (above <= _ISO_SPAN).all(axis=1)
        try:
            out[canonical] = text[canonical].astype("datetime64[s]")
            # numpy takes year 0, which fromisoformat does not
            canonical[canonical] = out[canonical] >= _ISO_FIRST
        except ValueError:  # a field out of range; fromisoformat finds the row
            canonical[:] = False
    for k in np.flatnonzero(~canonical):
        stamp = datetime.fromisoformat(text[k])
        out[k] = np.datetime64(stamp.replace(tzinfo=None), "s")
        offset = stamp.utcoffset()
        if offset:
            # UTC as numpy gives it for an aware datetime (the offset in whole
            # minutes), without numpy's timezone warning; numpy's arithmetic,
            # unlike datetime's, reaches past years 1 and 9999
            out[k] -= np.timedelta64(int(offset.total_seconds() / 60), "m")
    return out


# The calendar of the chunks is one rule.  A season is three months counted
# from December, SEASONS[(month % 12) // 3].  A diurnal window is four 3-hour
# slots of the day (hour // 3), slots 2-5 (06:00-18:00) by day and 6-1 by
# night.  A chunk's overlap pool borrows the month on either side of its
# season and the slot on either side of its window.


def _window(position, first: int, length: int, period: int) -> tuple:
    """Masks of the positions (on a cycle of ``period``) inside the window of
    ``length`` positions from ``first``, and of those on either side of it."""
    offset = (position - first) % period
    return offset < length, (offset == length) | (offset == period - 1)


def _calendar(key, table) -> tuple:
    """((in season, adjacent month), (in diurnal window, bordering slot)): the
    masks of the table's rows for the chunk ``key``."""
    return (_window(table.months() % 12, 3 * SEASONS.index(key.season), 3, 12),
            _window(table.hours() // 3, 2 + 4 * DIURNALS.index(key.diurnal), 4, 8))


def chunk_key_of(timestamp) -> ChunkKey:
    """Chunk assignment is a pure function of the wall-clock timestamp."""
    ts = np.datetime64(timestamp, "s")
    month = int(ts.astype("datetime64[M]").astype(int) % 12) + 1
    hour = int((ts - ts.astype("datetime64[D]")).astype("timedelta64[h]").astype(int))
    diurnal = "day" if 6 <= hour < 18 else "night"
    return ChunkKey(SEASONS[(month % 12) // 3], diurnal)


def make_chunks(table: ClimateTable) -> dict:
    """Partition the table into the eight season x diurnal chunks.

    Daytime is the half-open window [06:00, 18:00). Empty chunks are kept.
    """
    if len(table) == 0:
        raise TableFormatError("table is empty")
    chunks = {}
    for key in ALL_CHUNK_KEYS:
        (in_season, _), (in_window, _) = _calendar(key, table)
        idx = np.flatnonzero(in_season & in_window)
        chunks[key] = Chunk(key=key, core_rows=idx, estimation_rows=idx.copy())
    return chunks


def extend_overlap(chunk: Chunk, table: ClimateTable, fraction: float, seed: int) -> Chunk:
    """Extend the estimation rows with seeded draws from the adjacent pool.

    The pool holds rows from the calendar-adjacent months inside the chunk's
    diurnal window plus rows of the chunk's months in the bordering 3-hour
    slots.  Draws are uniform without replacement, allocated per member in
    proportion to the member's core rows; member m draws from
    ``subseed(seed, Stream.OVERLAP_MEMBER, m)``.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    k = int(round(fraction * chunk.core_rows.size))
    if k == 0:
        return Chunk(chunk.key, chunk.core_rows.copy(), chunk.core_rows.copy())
    (in_season, adjacent), (in_window, border) = _calendar(chunk.key, table)
    pool = np.flatnonzero((adjacent & in_window) | (in_season & border))
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
            rng = np.random.default_rng(subseed(seed, Stream.OVERLAP_MEMBER, m))
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
