"""Shared test helpers: analytic margins and an independent ground-truth generator.

Everything here is built from numpy/scipy only, so tests compare package
output against machinery that does not share code with the package.
"""
import numpy as np
import pytest
from scipy import stats

from vinebc.marginal import MixtureMarginal


class FrozenContinuous:
    """Adapter exposing a frozen scipy distribution as a continuous component."""

    def __init__(self, dist):
        self.dist = dist

    def cdf(self, x):
        return self.dist.cdf(x)

    def pdf(self, x):
        return self.dist.pdf(x)

    def quantile(self, q):
        return self.dist.ppf(q)


def analytic_zi_expon(p0=0.4, scale=1.0) -> MixtureMarginal:
    """Exact zero-inflated exponential: p0 at zero plus (1-p0) Exp(scale)."""
    return MixtureMarginal(
        atoms=[(0.0, p0)],
        continuous=FrozenContinuous(stats.expon(scale=scale)),
        kind="zero_inflated",
    )


def analytic_uniform(lo, hi, kind="interval") -> MixtureMarginal:
    return MixtureMarginal(
        atoms=[], continuous=FrozenContinuous(stats.uniform(lo, hi - lo)), kind=kind
    )


def sample_zi_expon(n, p0=0.4, scale=1.0, seed=0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = rng.exponential(scale, size=n)
    x[rng.uniform(size=n) < p0] = 0.0
    return x


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


class GroundTruth5:
    """Five-variable ground truth: Gaussian copula, analytic mixture margins.

    Margins mimic dewpoint (normal), precipitation (zero-inflated
    exponential), radiation (zero-inflated heavy exponential), wind speed
    (lognormal) and temperature (normal).
    """

    KINDS = ("interval", "zero_inflated", "zero_inflated", "nonnegative", "interval")

    def __init__(self, tau, shift_t=0.0, scale_w=1.0, inflation_p=0.3):
        self.corr = nearest_correlation(tau)
        self.shift_t = shift_t
        self.scale_w = scale_w
        self.inflation_p = inflation_p

    def sample(self, n, seed):
        rng = np.random.default_rng(seed)
        z = rng.multivariate_normal(np.zeros(5), self.corr, size=n, method="cholesky")
        u = np.clip(stats.norm.cdf(z), 1e-12, 1 - 1e-12)
        x = np.empty((n, 5))
        x[:, 0] = 5.0 + 2.0 * stats.norm.ppf(u[:, 0])
        p = self.inflation_p
        x[:, 1] = np.where(u[:, 1] <= p, 0.0, -1.5 * np.log1p(-(u[:, 1] - p) / (1.0 - p)))
        q = 0.55
        x[:, 2] = np.where(u[:, 2] <= q, 0.0, -40.0 * np.log1p(-(u[:, 2] - q) / (1.0 - q)))
        x[:, 3] = np.exp(0.5 + 0.5 * self.scale_w * stats.norm.ppf(u[:, 3]))
        x[:, 4] = 10.0 + self.shift_t + 4.0 * stats.norm.ppf(u[:, 4])
        return x


TAU5 = np.array(
    [
        [0.0, 0.20, 0.15, 0.10, 0.55],
        [0.20, 0.0, 0.30, 0.25, 0.35],
        [0.15, 0.30, 0.0, 0.10, 0.20],
        [0.10, 0.25, 0.10, 0.0, 0.15],
        [0.55, 0.35, 0.20, 0.15, 0.0],
    ]
)

PARAMETRIC_FAMILIES = ("independence", "gaussian", "clayton", "gumbel", "frank")


@pytest.fixture(scope="session")
def truth5():
    return GroundTruth5(TAU5)


@pytest.fixture(scope="session")
def biased5():
    return GroundTruth5(TAU5 * 0.5, shift_t=2.0, scale_w=1.3, inflation_p=0.5)


def json_paths(node, path=()):
    """The path of every field of a JSON document, each key of an object and
    each index of an array, at any depth."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from json_paths(child, path + (key,))
