"""Correction quality metrics.

Second Wasserstein distance with reference standardization (exact quantile
formula in one dimension, exact assignment on seeded equal-size subsamples
in higher dimensions), the improvement IW2 = W2(model, ref) - W2(corrected,
ref), per-margin and copula-level variants, empirical joint non-exceedance
probability (an exact dominance count: per-column prefix bitsets of the rows
in rank order, ANDed across columns and popcounted), and the
model-correction inconsistency (MCI).

Each assignment is warm-started: the solver is given the squared-distance
cost minus row and column potentials taken from the Gaussian fits of the two
samples (the Kantorovich potential of their linear Monge map, tightened by one
c-transform pair), all subtracted in place from the one cost buffer.
Subtracting potentials adds the same constant to every permutation's total, so
the optimal assignment is unchanged; W2 is read from the matched pairs, with
the bits of their unshifted costs.  Only the solver's augmenting paths get
shorter.
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
    """W2 between the quantile functions of two samples, summed over the union grid.

    With n == m the two quantile grids are one grid, so the order statistics
    pair off in turn; the grid widths are the same expression either way.  A
    squared gap that overflows raises ``ValueError``.
    """
    a = np.sort(a)
    b = np.sort(b)
    n, m = a.size, b.size
    qa = np.arange(1, n + 1) / n
    if n == m:
        widths = np.diff(np.concatenate(([0.0], qa)))
    else:
        qb = np.arange(1, m + 1) / m
        edges = np.union1d(qa, qb)
        widths = np.diff(np.concatenate(([0.0], edges)))
        mids = np.concatenate(([0.0], edges))[:-1] + widths / 2.0
        a = a[np.searchsorted(qa, mids, side="left")]
        b = b[np.searchsorted(qb, mids, side="left")]
    with np.errstate(over="ignore", invalid="ignore"):
        w2 = np.sum(widths * (a - b) ** 2)
    if not np.isfinite(w2):
        raise ValueError("samples must be finite")
    return float(np.sqrt(w2))


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
    potential followed by one c-transform pair (the column minima v of C - u,
    then the row minima of C - u - v), so the reduced cost is nonnegative with
    a zero in every row and column.  All three are subtracted in place from
    the one cost buffer.  Any finite potentials add the same constant to every
    permutation's total, so the optimal assignment is that of C.  W2 is read
    from the matched pairs, whose squares are added in column order as cdist
    adds them, so each matched cost has the bits of its cell of C.
    """
    reduced = cdist(a, b, metric="sqeuclidean")
    if not np.isfinite(reduced.max()):  # every cost is >= 0, so the max alone shows inf or NaN
        raise ValueError("samples must be finite")
    reduced -= _gaussian_potential(a, b)[:, None]
    reduced -= reduced.min(axis=0)
    reduced -= reduced.min(axis=1)[:, None]
    rows, cols = linear_sum_assignment(reduced)
    return float(np.sqrt(np.cumsum((a[rows] - b[cols]) ** 2, axis=1)[:, -1].mean()))


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
        with np.errstate(over="ignore", invalid="ignore"):
            mu = b.mean(axis=0)
            sd = b.std(axis=0)
        overflow = ~(np.isfinite(mu) & np.isfinite(sd))
        if np.any(overflow):
            raise ValueError(f"reference coordinate {int(np.argmax(overflow))}: "
                             "its mean or standard deviation overflows")
        zero = sd == 0.0
        if np.any(zero):
            warnings.warn("zero variance in a reference coordinate; centering only")
            sd = np.where(zero, 1.0, sd)
        with np.errstate(over="ignore"):  # an overflow leaves inf, which the routes below reject
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
    """Per-column empirical PIT with one seeded jitter across each tie block.

    A value's jump is [#{< x}, #{<= x}] / n: the start and end of its tie run
    in the column's stable sort.  NaNs sort last and form one run.
    """
    x = np.asarray(x, dtype=float)
    n, d = x.shape
    rng = np.random.default_rng(seed)
    u = np.empty_like(x)
    for j in range(d):
        order = np.argsort(x[:, j], kind="stable")
        srt = x[order, j]
        new_run = srt[1:] != srt[:-1]
        new_run[np.isnan(srt[:-1])] = False  # NaN != NaN, but a NaN is followed only by NaNs
        cuts = np.flatnonzero(new_run) + 1
        starts, ends = np.concatenate(([0], cuts)), np.concatenate((cuts, [n]))
        hi, lo = np.empty(n), np.empty(n)
        hi[order] = np.repeat(ends, ends - starts) / n
        lo[order] = np.repeat(starts, ends - starts) / n
        u[:, j] = PseudoObs(hi, lo).randomized(rng.uniform(size=n))
    return u


def copula_iw2(corrected, model, reference, seed: int = 0) -> float:
    """IW2 between each sample's own empirical-PIT pseudo-observations.

    Its two W2 calls take ``seed``, so when the sample sizes match they draw
    the same subsamples as full-level W2 calls with the same seed, as the
    evaluation of one unit makes them: the unit's full and copula IW2 are
    not independent estimates.
    """
    pit_c, pit_m, pit_r = (
        empirical_randomized_pit(np.asarray(x, float), seed=subseed(seed, Stream.PIT_JITTER, k))
        for k, x in enumerate((corrected, model, reference)))
    return improvement_iw2(pit_c, pit_m, pit_r, standardize=False, seed=seed)


def empirical_joint_cdf(data, x):
    """Fraction of rows componentwise <= x (non-exceedance includes ties).

    A dominance count by ranks and prefix bitsets: row k lies at or below
    ``x[j]`` in column j exactly when its rank in that column is below the
    number of column values <= ``x[j]``.  For each column, the distinct
    numbers t_0 < t_1 < ... that the queries give are the rows of one table,
    whose row i is the bitset of the rows ranked below t_i: each data row's
    bit is set in the first row whose t_i exceeds its rank, and one
    OR-accumulate down the table completes the prefixes.  A query's bitsets
    are ANDed across columns and popcounted.  The row words are taken in
    blocks, so that no table exceeds 4 MB.  The counts are integers, so the
    result is exact.
    """
    data = np.atleast_2d(np.asarray(data, dtype=float))
    xq = np.asarray(x, dtype=float)
    single = xq.ndim == 1
    xq = np.atleast_2d(xq)
    if xq.shape[1] != data.shape[1]:
        raise ValueError("query points must match the data dimension")
    n, d = data.shape
    nq = xq.shape[0]
    order = np.argsort(data, axis=0, kind="stable")
    word, bit = order >> 6, np.uint64(1) << (order & 63).astype(np.uint64)
    first = np.empty((n, d), dtype=np.intp)  # the table row where each rank's bit is set
    slot = np.empty((d, nq), dtype=np.intp)  # the table row each query reads
    height = np.empty(d, dtype=np.intp)
    for j in range(d):
        below = np.searchsorted(data[order[:, j], j], xq[:, j], side="right")
        below[np.isnan(xq[:, j])] = 0  # no value is <= NaN
        seen = np.zeros(n + 1, dtype=np.intp)
        seen[below] = 1
        tally = np.cumsum(seen)  # tally[r] = #{t_i <= r}
        first[:, j], slot[j], height[j] = tally[:-1], tally[below] - 1, tally[-1]
    words = -(-n // 64)
    block = max(1, 2**19 // max(1, nq))  # 64-bit words per row of a 4 MB table
    counts = np.zeros(nq, dtype=np.int64)
    for w0 in range(0, words, block):
        hit = np.full((nq, min(block, words - w0)), ~np.uint64(0))
        for j in range(d):
            rank = np.flatnonzero((word[:, j] >= w0) & (word[:, j] < w0 + block)
                                  & (first[:, j] < height[j]))
            table = np.zeros((height[j], hit.shape[1]), dtype=np.uint64)
            # two rows never share a bit, so adding bits into a word ORs them
            np.add.at(table.reshape(-1), first[rank, j] * table.shape[1] + word[rank, j] - w0,
                      bit[rank, j])
            np.bitwise_or.accumulate(table, axis=0, out=table)
            hit &= table[slot[j]]
        counts += np.bitwise_count(hit).sum(axis=1, dtype=np.int64)
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
