"""Small shared helpers (seed derivation, scalar/array plumbing, array records)."""
from __future__ import annotations

import base64

import numpy as np


def subseed(*parts: int) -> int:
    """Derive a child seed from integer parts, stable across runs and platforms."""
    ss = np.random.SeedSequence([int(p) & 0xFFFFFFFF for p in parts])
    return int(ss.generate_state(1)[0])


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
