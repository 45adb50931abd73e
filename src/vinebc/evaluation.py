"""Correction quality metrics.

Second Wasserstein distance with reference standardization (exact quantile
formula in one dimension, exact assignment on seeded equal-size subsamples
in higher dimensions), the improvement IW2 = W2(model, ref) - W2(corrected,
ref), per-margin and copula-level variants, empirical joint non-exceedance
probability (an exact dominance count through per-column ranks and packed
bitsets), and the model-correction inconsistency (MCI).

Each assignment is warm-started: the solver is given the squared-distance
cost minus row and column potentials taken from the Gaussian fits of the two
samples (the Kantorovich potential of their linear Monge map, tightened by one
c-transform pair).  Subtracting potentials adds the same constant to every
permutation's total, so the optimal assignment is unchanged and W2 is read
from the unshifted cost; only the solver's augmenting paths get shorter.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from ._util import Stream, subseed
from .marginal import PseudoObs

OT_SUBSAMPLE = 512
OT_REPEATS = 4
MCI_THRESHOLD = 0.05


def _w2_exact_1d(a: np.ndarray, b: np.ndarray) -> float:
    a = np.sort(a)
    b = np.sort(b)
    n, m = a.size, b.size
    qa = np.arange(1, n + 1) / n
    qb = np.arange(1, m + 1) / m
    edges = np.union1d(qa, qb)
    widths = np.diff(np.concatenate(([0.0], edges)))
    mids = np.concatenate(([0.0], edges))[:-1] + widths / 2.0
    ia = np.searchsorted(qa, mids, side="left")
    ib = np.searchsorted(qb, mids, side="left")
    return float(np.sqrt(np.sum(widths * (a[ia] - b[ib]) ** 2)))


def _gaussian_potential(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row potential u(x) = |x|^2 - (x - m_a)' A (x - m_a) - 2 m_b . x at each row of ``a``.

    u is the squared-Euclidean Kantorovich potential of the linear Monge map
    x -> m_b + A (x - m_a) between the Gaussian fits of the two samples, with
    A = S_a^-1/2 (S_a^1/2 S_b S_a^1/2)^1/2 S_a^-1/2 (Dowson & Landau 1982;
    Givens & Shortt 1984).  The quadratic form is evaluated on the whitened
    rows z = S_a^-1/2 (x - m_a), as z' (S_a^1/2 S_b S_a^1/2)^1/2 z, so no
    entry of A is formed.  x is measured from the midpoint of the two means,
    which moves u by a constant and keeps it of the size of the costs.  Zero
    when n <= d, when S_a is not numerically positive definite (matrix_rank's
    tolerance), or when u is not finite.
    """
    n, d = a.shape
    zero = np.zeros(n)
    if n <= d:
        return zero
    ma, mb = a.mean(axis=0), b.mean(axis=0)
    ya, yb = a - ma, b - mb
    w, vec = np.linalg.eigh(ya.T @ ya / n)
    if not w[0] > w[-1] * d * np.finfo(float).eps:
        return zero
    sa_half = (vec * np.sqrt(w)) @ vec.T
    wm, vm = np.linalg.eigh(sa_half @ (yb.T @ yb / b.shape[0]) @ sa_half)
    m_half = (vm * np.sqrt(np.maximum(wm, 0.0))) @ vm.T
    z = ya @ ((vec / np.sqrt(w)) @ vec.T)
    x = a - 0.5 * (ma + mb)
    u = np.einsum("ij,ij->i", x, x) - np.einsum("ij,ij->i", z @ m_half, z) - (x @ (mb - ma))
    return u if np.all(np.isfinite(u)) else zero


def _w2_assignment(a: np.ndarray, b: np.ndarray) -> float:
    """Exact W2 of two equal-size samples, through a warm-started assignment.

    The solver sees the reduced cost C - u_i - v_j, where u is the Gaussian
    potential followed by one c-transform pair (v = min_i C - u, then
    u = min_j C - v), so the reduced cost is nonnegative with a zero in every
    row and column.  Any finite potentials add the same constant to every
    permutation's total, so the optimal assignment is that of C; W2 is read
    from the unshifted C.
    """
    cost = cdist(a, b, metric="sqeuclidean")
    if not np.isfinite(cost).all():
        raise ValueError("samples must be finite")
    reduced = cost - _gaussian_potential(a, b)[:, None]
    v = reduced.min(axis=0)
    np.subtract(cost, v, out=reduced)
    reduced -= reduced.min(axis=1)[:, None]
    rows, cols = linear_sum_assignment(reduced)
    return float(np.sqrt(cost[rows, cols].mean()))


def wasserstein2(a, b, standardize: bool = True, seed: int = 0) -> float:
    """Second Wasserstein distance between two empirical samples.

    Both samples are standardized per coordinate by the location and scale
    of ``b`` (the reference) unless disabled.  One-dimensional inputs use the
    exact quantile formula; otherwise exact optimal transport runs on seeded
    subsamples of at most ``OT_SUBSAMPLE`` points and the distances of
    ``OT_REPEATS`` repetitions are averaged.  Each transport is an exact
    assignment solve, warm-started with Gaussian-map potentials; potentials
    shift every permutation's cost by the same constant, so the optimum is
    that of the plain solve.  A non-finite sample raises ``ValueError``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if b.ndim == 1:
        b = b.reshape(-1, 1)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError("samples must be 2-d with matching variable count")
    if a.shape[0] < 1 or b.shape[0] < 1:
        raise ValueError("samples must be nonempty")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("samples must be finite")
    if standardize:
        mu = b.mean(axis=0)
        sd = b.std(axis=0)
        zero = sd == 0.0
        if np.any(zero):
            warnings.warn("zero variance in a reference coordinate; centering only")
            sd = np.where(zero, 1.0, sd)
        a = (a - mu) / sd
        b = (b - mu) / sd
    d = a.shape[1]
    if d == 1:
        return _w2_exact_1d(a[:, 0], b[:, 0])
    n, m = a.shape[0], b.shape[0]
    s = min(OT_SUBSAMPLE, n, m)
    if n == m and n <= OT_SUBSAMPLE:
        return _w2_assignment(a, b)
    vals = []
    for r in range(OT_REPEATS):
        rng = np.random.default_rng(subseed(seed, Stream.W2_REPEAT, r))
        ia = rng.choice(n, size=s, replace=False)
        ib = rng.choice(m, size=s, replace=False)
        vals.append(_w2_assignment(a[ia], b[ib]))
    return float(np.mean(vals))


def improvement_iw2(corrected, model, reference, standardize: bool = True, seed: int = 0) -> float:
    """W2(model, reference) minus W2(corrected, reference); positive is better."""
    w2_model = wasserstein2(model, reference, standardize=standardize, seed=seed)
    w2_corr = wasserstein2(corrected, reference, standardize=standardize, seed=seed)
    return w2_model - w2_corr


def per_margin_iw2(corrected, model, reference) -> np.ndarray:
    """Univariate IW2 per margin; no standardization (scales are comparable)."""
    c, m, r = (np.asarray(x, dtype=float) for x in (corrected, model, reference))
    return np.array([improvement_iw2(c[:, j], m[:, j], r[:, j], standardize=False)
                     for j in range(c.shape[1])])


def empirical_randomized_pit(x, seed: int = 0) -> np.ndarray:
    """Per-column empirical PIT with one seeded jitter across each tie block."""
    x = np.asarray(x, dtype=float)
    n, d = x.shape
    rng = np.random.default_rng(seed)
    u = np.empty_like(x)
    for j in range(d):
        col = x[:, j]
        srt = np.sort(col)
        hi = np.searchsorted(srt, col, side="right") / n
        lo = np.searchsorted(srt, col, side="left") / n
        u[:, j] = PseudoObs(hi, lo).randomized(rng.uniform(size=n))
    return u


def copula_iw2(corrected, model, reference, seed: int = 0) -> float:
    """IW2 between each sample's own empirical-PIT pseudo-observations."""
    pit_c, pit_m, pit_r = (
        empirical_randomized_pit(np.asarray(x, float), seed=subseed(seed, Stream.PIT_JITTER, k))
        for k, x in enumerate((corrected, model, reference)))
    return improvement_iw2(pit_c, pit_m, pit_r, standardize=False, seed=seed)


def empirical_joint_cdf(data, x):
    """Fraction of rows componentwise <= x (non-exceedance includes ties).

    A dominance count by ranks and bitsets: row k lies at or below ``x[j]`` in
    column j exactly when its rank in that column is below the number of
    column values <= ``x[j]``.  Each column's test is packed into bitsets
    over the rows, for a block of query points at a time; the bitsets are
    ANDed across columns and popcounted.  The counts are integers, so the
    result is exact.
    """
    data = np.atleast_2d(np.asarray(data, dtype=float))
    xq = np.asarray(x, dtype=float)
    single = xq.ndim == 1
    xq = np.atleast_2d(xq)
    if xq.shape[1] != data.shape[1]:
        raise ValueError("query points must match the data dimension")
    n, d = data.shape
    width = -(-n // 64) * 64  # rows padded to whole 64-bit words
    dtype = np.min_scalar_type(n)
    order = np.argsort(data, axis=0, kind="stable")
    ranks = np.full((d, width), n, dtype=dtype)  # a padding rank never counts
    below = np.empty((d, xq.shape[0]), dtype=dtype)
    for j in range(d):
        ranks[j, order[:, j]] = np.arange(n, dtype=dtype)
        below[j] = np.searchsorted(data[order[:, j], j], xq[:, j], side="right")
    below[np.isnan(xq).T] = 0  # no value is <= NaN
    counts = np.empty(xq.shape[0], dtype=np.int64)
    block = max(1, 2**22 // max(1, width))  # query rows per 4 MB comparison
    for start in range(0, xq.shape[0], block):
        q = below[:, start : start + block, None]
        hit = np.packbits(ranks[0] < q[0], axis=1).view(np.uint64)
        for j in range(1, d):
            hit &= np.packbits(ranks[j] < q[j], axis=1).view(np.uint64)
        counts[start : start + block] = np.bitwise_count(hit).sum(axis=1)
    out = counts / n
    return float(out[0]) if single else out


def mci(model_rows, corrected_rows):
    """Model-correction inconsistency series and its mean.

    Each time step compares the model row's non-exceedance probability under
    the model's own empirical joint CDF with the corrected row's probability
    under the corrected set's empirical joint CDF.
    """
    model_rows = np.atleast_2d(np.asarray(model_rows, dtype=float))
    corrected_rows = np.atleast_2d(np.asarray(corrected_rows, dtype=float))
    if model_rows.shape != corrected_rows.shape:
        raise ValueError(
            f"row-count mismatch: model {model_rows.shape} vs corrected {corrected_rows.shape}"
        )
    f_model = empirical_joint_cdf(model_rows, model_rows)
    f_corr = empirical_joint_cdf(corrected_rows, corrected_rows)
    series = np.abs(np.atleast_1d(f_model) - np.atleast_1d(f_corr))
    return series, float(series.mean())


@dataclass
class UnitMetrics:
    """Metrics for one (chunk, member) correction unit."""

    chunk: str
    member: int
    method: str
    w2_model: float
    w2_corrected: float
    mci_mean: float
    copula_iw2: float
    margin_iw2: dict
    seed: int = 0

    @property
    def iw2(self) -> float:
        return self.w2_model - self.w2_corrected

    @property
    def non_invasive(self) -> bool:
        return self.mci_mean < MCI_THRESHOLD


@dataclass
class MetricReport:
    units: list = field(default_factory=list)

    def add(self, unit: UnitMetrics) -> None:
        self.units.append(unit)

    def sorted_units(self) -> list:
        return sorted(self.units, key=lambda u: (u.method, u.chunk, u.member))

    def aggregates(self) -> dict:
        out = {}
        methods = sorted({u.method for u in self.units})
        for method in methods:
            rows = [u for u in self.units if u.method == method]
            iw2 = np.array([u.iw2 for u in rows])
            mci_means = np.array([u.mci_mean for u in rows])
            cop = np.array([u.copula_iw2 for u in rows])
            out[method] = {
                "n_units": len(rows),
                "iw2_median": float(np.median(iw2)),
                "iw2_q25": float(np.percentile(iw2, 25)),
                "iw2_q75": float(np.percentile(iw2, 75)),
                "share_improved": float((iw2 > 0).mean()),
                "copula_iw2_median": float(np.median(cop)),
                "mci_median": float(np.median(mci_means)),
                "mci_q25": float(np.percentile(mci_means, 25)),
                "mci_q75": float(np.percentile(mci_means, 75)),
                "share_non_invasive": float((mci_means < MCI_THRESHOLD).mean()),
            }
        return out
