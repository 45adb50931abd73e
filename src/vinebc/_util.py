"""Small shared helpers (the seed plan, scalar/array plumbing, array records)."""
from __future__ import annotations

import base64
import enum
import operator

import numpy as np

# subseed takes parts in [0, SEED_PART_LIMIT): SeedSequence reads a larger int
# as two 32-bit words, so 2**32 + 5 would equal the parts 5, 1
SEED_PART_LIMIT = 1 << 32


@enum.unique
class Stream(enum.IntEnum):
    """The seed plan: the tag of every random stream, one per purpose.

    A stream's seed is ``subseed(parent seed, tag, *indices)``, and each tag
    has one call site, which passes the indices listed here.  Two streams
    thus hash different part lists and are disjoint by construction.  The
    library tags (11, 12, 13 and 202) keep their values: a new value would
    move the output of ``fit_vine``, ``vbc_correct`` and ``ubc_correct`` for
    a given seed.
    """

    UNIT = 1               # (chunk index, member) of the master seed: a unit's seed
    OVERLAP_MP = 2         # (chunk index,) of the master seed: the chunk's overlap
    OVERLAP_RC = 3         # draws from the model projection, reference calibration
    OVERLAP_MC = 4         # and model calibration table
    OVERLAP_MEMBER = 5     # (member,) of an overlap seed: the member's draws
    REFERENCE = 6          # (chunk index,) of the master seed: the chunk's reference fit
    NOISE = 11             # () of a correction seed: the Rosenblatt noise
    PROJECTION_VINE = 12   # () of a correction seed: the projection vine's fit
    REFERENCE_VINE = 13    # () of a correction seed: the reference vine's fit
    SIMULATE = 21          # (table index,) of the master seed: a simulated table
    SIMULATE_MEMBER = 22   # (member,) of a table seed: the member's rows
    W2_REPEAT = 31         # (repeat,) of a metric seed: W2's subsample draw
    PIT_JITTER = 32        # (sample index,) of a metric seed: copula IW2's PIT jitter
    PAIR_JITTER = 202      # (tree, i, j) of a vine seed: a candidate pair's jitter


def subseed(seed: int, tag: Stream, *indices: int) -> int:
    """The seed of stream ``tag`` under ``seed``, stable across runs and
    platforms: numpy's ``SeedSequence`` hash of the parts.

    TypeError for a tag that is not a ``Stream``; ValueError for a part
    outside [0, 2**32), which the hash would alias with other parts.
    """
    if not isinstance(tag, Stream):
        raise TypeError(f"a stream tag must be a Stream member, not {tag!r}")
    parts = [operator.index(p) for p in (seed, tag, *indices)]
    for p in parts:
        if not 0 <= p < SEED_PART_LIMIT:
            raise ValueError(f"seed part {p} is outside [0, 2**32)")
    return int(np.random.SeedSequence(parts).generate_state(1)[0])


def as_float_array(x) -> np.ndarray:
    return np.atleast_1d(np.asarray(x, dtype=float))


def maybe_scalar(out: np.ndarray, *inputs):
    """Return a Python float when every input was scalar, else the array."""
    if all(np.isscalar(v) or np.ndim(v) == 0 for v in inputs):
        return float(out[0]) if out.ndim else float(out)
    return out


# the version of model and margin records: 2 since their arrays are encode_f8 text
RECORD_VERSION = 2


def check_record_version(record: dict) -> None:
    """ValueError unless ``record`` is of ``RECORD_VERSION``."""
    version = record.get("version")
    if version != RECORD_VERSION:
        raise ValueError(f"version {version!r} is not {RECORD_VERSION}; "
                         "re-run `vinebc fit` to write the model again")


def encode_f8(a) -> str:
    """An array's values, in C order, as base64 text of their little-endian
    float64 bytes: a model record's one encoding of a float array."""
    return base64.b64encode(np.ascontiguousarray(a, dtype="<f8").tobytes()).decode("ascii")


def decode_f8(text) -> np.ndarray:
    """The 1-d float64 array ``encode_f8`` wrote, bit for bit; ValueError for
    anything but base64 text of a multiple of 8 bytes."""
    try:
        raw = base64.b64decode(text, validate=True)
    except (TypeError, ValueError):  # not text, not ASCII, or not base64
        raise ValueError("an array field must be base64 text of float64 bytes") from None
    if len(raw) % 8:
        raise ValueError(f"an array field holds {len(raw)} bytes, not a multiple of 8")
    return np.frombuffer(raw, dtype="<f8").astype(float)
