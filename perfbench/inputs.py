"""Seeded benchmark inputs, built from numpy/scipy only.

Nothing here calls into ``vinebc``, so a change to the program cannot change
the data it is measured on.  The generators follow the ground truths of the
test suite: the three-variable set-up of ``tests/test_cli.py`` and the
five-variable ``GroundTruth5`` of ``tests/conftest.py``.

Run as a script, this module is the benchmark's timed set-up step: it imports
the program, then generates (and for the CLI workloads writes) the inputs of
one workload.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np
from scipy import stats

STEPS_PER_YEAR = 2920  # 3-hourly steps in a 365-day year

# Three-variable set-up of tests/test_cli.py: dewpoint-like, zero-inflated
# precipitation, temperature.
D3_VARIABLES = [
    {"name": "d", "kind": "interval", "units": "degC"},
    {"name": "p", "kind": "zero_inflated", "units": "kg/m2"},
    {"name": "t", "kind": "interval", "units": "degC"},
]
D3_TAU = np.array([[0.0, 0.2, 0.5], [0.2, 0.0, 0.35], [0.5, 0.35, 0.0]])

# Five-variable set-up of tests/conftest.py (the paper's case).
KINDS5 = ("interval", "zero_inflated", "zero_inflated", "nonnegative", "interval")
TAU5 = np.array(
    [
        [0.0, 0.20, 0.15, 0.10, 0.55],
        [0.20, 0.0, 0.30, 0.25, 0.35],
        [0.15, 0.30, 0.0, 0.10, 0.20],
        [0.10, 0.25, 0.10, 0.0, 0.15],
        [0.55, 0.35, 0.20, 0.15, 0.0],
    ]
)

# table name -> (tag, start, reference?)
D3_TABLES = {
    "reference_calibration": (1, "2001-01-01T00:00:00", True),
    "reference_projection": (2, "2011-01-01T00:00:00", True),
    "model_calibration": (3, "2001-01-01T00:00:00", False),
    "model_projection": (4, "2011-01-01T00:00:00", False),
}


def child_seed(*parts: int) -> int:
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


def nearest_correlation(tau: np.ndarray) -> np.ndarray:
    """Gaussian-copula correlation matching pairwise Kendall targets."""
    r = np.sin(np.pi * np.asarray(tau, dtype=float) / 2.0)
    np.fill_diagonal(r, 1.0)
    w, v = np.linalg.eigh(r)
    if w.min() < 1e-10:
        w = np.maximum(w, 1e-10)
        r = v @ np.diag(w) @ v.T
        s = np.sqrt(np.diag(r))
        r = r / np.outer(s, s)
    return r


def _gaussian_uniforms(corr: np.ndarray, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    z = rng.multivariate_normal(np.zeros(corr.shape[0]), corr, size=n, method="cholesky")
    return np.clip(stats.norm.cdf(z), 1e-12, 1 - 1e-12)


def _zero_inflated_expon(u: np.ndarray, p0: float, scale: float) -> np.ndarray:
    return np.where(u <= p0, 0.0, -scale * np.log1p(-(np.maximum(u, p0) - p0) / (1.0 - p0)))


def sample_d3(n: int, seed: int, biased: bool) -> np.ndarray:
    """Reference, or model with t shifted by +2, p inflation 0.5 and tau halved."""
    corr = nearest_correlation(D3_TAU * (0.5 if biased else 1.0))
    u = _gaussian_uniforms(corr, n, seed)
    x = np.empty((n, 3))
    x[:, 0] = 5.0 + 3.0 * stats.norm.ppf(u[:, 0])
    x[:, 1] = _zero_inflated_expon(u[:, 1], 0.5 if biased else 0.3, 1.5)
    x[:, 2] = 10.0 + (2.0 if biased else 0.0) + 4.0 * stats.norm.ppf(u[:, 2])
    return x


def sample_d5(n: int, seed: int, biased: bool) -> np.ndarray:
    """``GroundTruth5(TAU5)`` or ``GroundTruth5(TAU5 * 0.5, 2.0, 1.3, 0.5)``."""
    corr = nearest_correlation(TAU5 * (0.5 if biased else 1.0))
    u = _gaussian_uniforms(corr, n, seed)
    x = np.empty((n, 5))
    x[:, 0] = 5.0 + 2.0 * stats.norm.ppf(u[:, 0])
    x[:, 1] = _zero_inflated_expon(u[:, 1], 0.5 if biased else 0.3, 1.5)
    x[:, 2] = _zero_inflated_expon(u[:, 2], 0.55, 40.0)
    x[:, 3] = np.exp(0.5 + 0.5 * (1.3 if biased else 1.0) * stats.norm.ppf(u[:, 3]))
    x[:, 4] = 10.0 + (2.0 if biased else 0.0) + 4.0 * stats.norm.ppf(u[:, 4])
    return x


def d3_tables(seed: int, members: int, years: int) -> dict:
    """The four CLI input tables: name -> (timestamps, member ids, values)."""
    steps = years * STEPS_PER_YEAR
    out = {}
    for name, (tag, start, reference) in D3_TABLES.items():
        grid = np.datetime64(start, "s") + np.arange(steps) * np.timedelta64(3, "h")
        ids = [0] if reference else list(range(1, members + 1))
        values = [sample_d3(steps, child_seed(seed, tag, m), biased=not reference) for m in ids]
        out[name] = (
            np.tile(grid, len(ids)),
            np.repeat(np.array(ids), steps),
            np.vstack(values),
        )
    return out


def write_csv(path: str, timestamps: np.ndarray, members: np.ndarray, values: np.ndarray) -> None:
    names = [v["name"] for v in D3_VARIABLES]
    ts = timestamps.astype("datetime64[s]").astype(str)
    with open(path, "w") as fh:
        fh.write(",".join(["timestamp", "member"] + names) + "\n")
        for t, m, row in zip(ts, members.tolist(), values.tolist()):
            fh.write(f"{t},{m}," + ",".join(repr(v) for v in row) + "\n")


def write_d3_inputs(out_dir: str, seed: int, members: int, years: int) -> dict:
    """Write the CLI input CSVs; returns table name -> path."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for name, (ts, mem, vals) in d3_tables(seed, members, years).items():
        paths[name] = os.path.join(out_dir, f"{name}.csv")
        write_csv(paths[name], ts, mem, vals)
    return paths


def d5_units(seed: int, units: int, n: int) -> list:
    """Per unit: reference calibration/projection and model calibration/projection."""
    return [
        {
            "x_rc": sample_d5(n, child_seed(seed, 5, k, 1), biased=False),
            "x_rp": sample_d5(n, child_seed(seed, 5, k, 2), biased=False),
            "x_mp": sample_d5(n, child_seed(seed, 5, k, 3), biased=True),
            "x_mc": sample_d5(n, child_seed(seed, 5, k, 4), biased=True),
        }
        for k in range(units)
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description="timed set-up of one benchmark workload")
    parser.add_argument("--src", required=True, help="directory holding the vinebc package")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    import vinebc.cli  # noqa: F401  -- the program's import time is part of set-up

    from workloads import WORKLOADS

    spec = WORKLOADS[args.workload]
    if spec["kind"] == "cli":
        write_d3_inputs(args.out, args.seed, spec["members"], spec["years"])
    else:
        d5_units(args.seed, spec["units"], spec["n"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
