"""Synthetic ensemble generator for pipeline testing.

Draws from a Gaussian copula with analytic margins (normal, lognormal or
zero-inflated exponential) and writes the draws as a table on a 3-hourly
grid per member.  The ``simulate`` command checks its config block and
builds the reference and the biased "model" ground truths from it; this
module only generates.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

from ._util import Stream, subseed
from .dataset import ClimateTable

# the sampler's uniform levels lie in [LEVEL_CLIP, 1 - LEVEL_CLIP]
LEVEL_CLIP = 1e-12


@dataclass
class MarginSpec:
    """Analytic margin of a variable kind: normal (interval), lognormal
    (nonnegative) or zero-inflated exponential."""

    kind: str
    loc: float = 0.0
    scale: float = 1.0
    inflation: float = 0.0

    def quantile(self, u: np.ndarray) -> np.ndarray:
        if self.kind == "interval":
            return self.loc + self.scale * stats.norm.ppf(u)
        if self.kind == "nonnegative":
            return np.exp(self.loc + self.scale * stats.norm.ppf(u))
        p = self.inflation
        out = np.zeros_like(u)
        pos = u > p
        out[pos] = -self.scale * np.log1p(-(u[pos] - p) / (1.0 - p))
        return out

    def draws_finite(self) -> bool:
        """Whether every draw is finite: the quantile, nondecreasing, is
        finite at both clip levels.  The check itself warns of nothing."""
        with np.errstate(all="ignore"):
            ends = self.quantile(np.array([LEVEL_CLIP, 1.0 - LEVEL_CLIP]))
        return bool(np.isfinite(ends).all())


@dataclass
class GroundTruth:
    margins: list
    tau: np.ndarray  # d x d float array of pairwise Kendall's tau targets

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


def make_ensemble_table(truth: GroundTruth, variables, start: str, steps: int,
                        members, seed: int) -> ClimateTable:
    """One table with the same 3-hourly timestamp grid from ``start`` repeated
    per member; member m draws from ``subseed(seed, Stream.SIMULATE_MEMBER, m)``."""
    grid = np.datetime64(start, "s") + np.arange(steps) * np.timedelta64(3, "h")
    values = [truth.sample(steps, seed=subseed(seed, Stream.SIMULATE_MEMBER, m)) for m in members]
    return ClimateTable(variables, np.tile(grid, len(members)), np.repeat(members, steps),
                        np.vstack(values))
