"""Synthetic ensemble generator for pipeline testing.

Draws from a Gaussian copula with analytic mixture margins, then applies a
configurable bias (per-margin shift and scale, changed zero inflation,
damped dependence) to produce matching "model" ensembles.  Used by the
``simulate`` command to create reproducible ground-truth fixtures.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from ._util import Stream, subseed
from .dataset import ClimateTable
from .errors import ConfigError

# the sampler's uniform levels lie in [LEVEL_CLIP, 1 - LEVEL_CLIP]
LEVEL_CLIP = 1e-12


@dataclass
class MarginSpec:
    """Analytic margin: normal, lognormal, or zero-inflated exponential."""

    kind: str
    loc: float = 0.0
    scale: float = 1.0
    inflation: float = 0.0

    def quantile(self, u: np.ndarray) -> np.ndarray:
        if self.kind == "interval":
            return self.loc + self.scale * stats.norm.ppf(u)
        if self.kind == "nonnegative":
            return np.exp(self.loc + self.scale * stats.norm.ppf(u))
        if self.kind == "zero_inflated":
            p = self.inflation
            out = np.zeros_like(u)
            pos = u > p
            out[pos] = -self.scale * np.log1p(-(u[pos] - p) / (1.0 - p))
            return out
        raise ConfigError(f"unknown margin kind {self.kind!r}")

    def draws_finite(self) -> bool:
        """Whether every draw is finite: the quantile, nondecreasing, is
        finite at both clip levels.  The check itself warns of nothing."""
        with np.errstate(all="ignore"):
            ends = self.quantile(np.array([LEVEL_CLIP, 1.0 - LEVEL_CLIP]))
        return bool(np.isfinite(ends).all())


@dataclass
class GroundTruth:
    margins: list
    tau: np.ndarray  # pairwise Kendall's tau targets

    def __post_init__(self):
        self.tau = np.asarray(self.tau, dtype=float)
        d = len(self.margins)
        if self.tau.shape != (d, d):
            raise ConfigError(f"tau matrix must be {d}x{d}")

    def correlation(self) -> np.ndarray:
        r = np.sin(np.pi * self.tau / 2.0)
        np.fill_diagonal(r, 1.0)
        # clip tiny negative eigenvalues so Cholesky succeeds
        w, v = np.linalg.eigh(r)
        if w.min() < 1e-10:
            w = np.maximum(w, 1e-10)
            r = v @ np.diag(w) @ v.T
            s = np.sqrt(np.diag(r))
            r = r / np.outer(s, s)
        return r

    def sample(self, n: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        z = rng.multivariate_normal(np.zeros(len(self.margins)), self.correlation(), size=n,
                                    method="cholesky")
        u = np.clip(stats.norm.cdf(z), LEVEL_CLIP, 1.0 - LEVEL_CLIP)
        return np.column_stack([m.quantile(u[:, j]) for j, m in enumerate(self.margins)])


@dataclass
class BiasSpec:
    shift: dict = field(default_factory=dict)      # variable index -> additive offset
    scale: dict = field(default_factory=dict)      # variable index -> multiplicative factor
    inflation: dict = field(default_factory=dict)  # variable index -> new inflation share
    dependence_scale: float = 1.0                  # tau damping factor

    def apply(self, truth: GroundTruth) -> GroundTruth:
        margins = []
        for j, m in enumerate(truth.margins):
            margins.append(
                MarginSpec(
                    kind=m.kind,
                    loc=m.loc + float(self.shift.get(j, 0.0)),
                    scale=m.scale * float(self.scale.get(j, 1.0)),
                    inflation=float(self.inflation.get(j, m.inflation)),
                )
            )
        return GroundTruth(margins=margins, tau=truth.tau * self.dependence_scale)


def three_hour_grid(start: str, steps: int) -> np.ndarray:
    t0 = np.datetime64(start, "s")
    return t0 + np.arange(steps) * np.timedelta64(3, "h")


def make_ensemble_table(truth: GroundTruth, variables, start: str, steps: int,
                        members, seed: int) -> ClimateTable:
    """One table with the same timestamp grid repeated per member."""
    grid = three_hour_grid(start, steps)
    ts, mem, vals = [], [], []
    for m in members:
        ts.append(grid)
        mem.append(np.full(steps, m, dtype=int))
        vals.append(truth.sample(steps, seed=subseed(seed, Stream.SIMULATE_MEMBER, m)))
    return ClimateTable(
        variables,
        np.concatenate(ts),
        np.concatenate(mem),
        np.vstack(vals),
    )
