import json
import math
import warnings

import numpy as np
import pytest
from scipy import stats

from conftest import analytic_zi_expon, sample_zi_expon
from vinebc.errors import DomainError, EstimationError
from vinebc.marginal import (
    GRID_SIZE,
    GridDensity,
    MixtureMarginal,
    _kde_on_grid,
    _reference_bandwidth,
    fit_marginal,
    randomized_pit,
)
from vinebc.vine import VineModel, VineStructure, rosenblatt_forward

LN2 = np.log(2.0)


def mixture_cdf_oracle(x, p0=0.4, scale=1.0):
    """Analytic CDF of p0*delta_0 + (1-p0)*Exp(scale)."""
    x = np.asarray(x, dtype=float)
    return np.where(x < 0, 0.0, p0 + (1.0 - p0) * (1.0 - np.exp(-x / scale)))


# -- fitting ------------------------------------------------------------------


def test_fit_detects_zero_atom_share_exactly():
    rng = np.random.default_rng(1)
    x = rng.exponential(1.0, size=1000)
    x[rng.permutation(1000)[:300]] = 0.0
    m = fit_marginal(x, "zero_inflated")
    assert m.atom_values.tolist() == [0.0]
    assert m.atom_masses[0] == pytest.approx(0.300, abs=1e-12)


def test_fit_all_distinct_interval_has_no_atoms():
    x = np.random.default_rng(2).normal(size=500)
    m = fit_marginal(x, "interval")
    assert m.atom_values.size == 0
    assert m.continuous_mass == 1.0


def test_fit_repeated_value_atom_interval():
    rng = np.random.default_rng(3)
    x = rng.normal(size=1000)
    x[:50] = 2.5
    m = fit_marginal(x, "interval")
    assert 2.5 in m.atom_values
    assert m.atom_masses[list(m.atom_values).index(2.5)] == pytest.approx(0.05)


def test_fitted_mixture_cdf_anchors():
    x = sample_zi_expon(10_000, seed=11)
    m = fit_marginal(x, "zero_inflated")
    assert float(m.cdf(0.0)) == pytest.approx(0.40, abs=0.02)
    assert float(m.cdf(LN2)) == pytest.approx(0.70, abs=0.02)


def test_fitted_cdf_error_bound_large_sample():
    x = sample_zi_expon(100_000, seed=12)
    m = fit_marginal(x, "zero_inflated")
    grid = np.linspace(0.0, 8.0, 400)
    err = np.abs(np.asarray(m.cdf(grid)) - mixture_cdf_oracle(grid))
    assert err.max() <= 0.02


def exact_kde_on_grid(z, knots, bw):
    """The Gaussian KDE summed over every (knot, point) pair."""
    d = (knots[:, None] - z[None, :]) / bw
    return np.exp(-0.5 * d * d).sum(axis=1) / (bw * math.sqrt(2.0 * math.pi) * z.size)


@pytest.mark.parametrize(
    "kind, n, tol",
    [(kind, n, 1e-4) for kind in ("interval", "nonnegative", "zero_inflated")
     for n in (30, 365, 730, 3_600, 11_000)]
    + [("t3", n, 1e-3) for n in (365, 3_600, 11_000)],
)
def test_binned_kde_matches_exact_sum(kind, n, tol):
    """The linearly binned KDE's CDF stays within ``tol`` of the exact sum's,
    on a grid spanning the knots +- 3 bandwidths (the tails included)."""
    rng = np.random.default_rng(n)
    if kind == "interval":
        z = rng.normal(size=n)
    elif kind == "nonnegative":
        z = np.log(rng.gamma(2.0, size=n))
    elif kind == "zero_inflated":
        x = sample_zi_expon(n, seed=n)
        z = np.log(x[x > 0])
    else:  # heavy tails spread the knots: spacing up to about half a bandwidth here
        z = rng.standard_t(3, size=n)
    bw = _reference_bandwidth(z)
    knots = np.linspace(z.min() - 4.0 * bw, z.max() + 4.0 * bw, GRID_SIZE)
    binned = GridDensity(knots, _kde_on_grid(z, knots, bw), bw, bw)
    exact = GridDensity(knots, exact_kde_on_grid(z, knots, bw), bw, bw)
    grid = np.linspace(knots[0] - 3.0 * bw, knots[-1] + 3.0 * bw, 4_001)
    assert np.abs(binned.cdf(grid) - exact.cdf(grid)).max() <= tol


def test_fit_rejects_small_and_negative_samples():
    with pytest.raises(EstimationError):
        fit_marginal(np.arange(10.0), "interval")
    bad = np.concatenate([np.full(20, -1.0), np.arange(30.0)])
    with pytest.raises(EstimationError):
        fit_marginal(bad, "nonnegative")


def test_fit_degenerate_all_atomic():
    x = np.zeros(100)
    m = fit_marginal(x, "zero_inflated")
    assert m.continuous is None
    assert m.continuous_mass == 0.0
    assert m.atom_masses.sum() == pytest.approx(1.0)


def test_fit_of_a_spread_whose_std_underflows_takes_the_bandwidth_floor():
    # a ptp of 8.6e-315, but np.std underflows to 0.0: the spread is floored at 1e-6
    x = 1e-300 * (1.0 + np.arange(40) * 2.2e-16)
    assert np.std(x) == 0.0 < np.ptp(x)
    assert _reference_bandwidth(x) == 1.06 * 1e-6 * 40 ** -0.2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = fit_marginal(x, "interval")
        q = m.quantile(np.array([0.1, 0.5, 0.9]))
    assert m.continuous is not None and m.atom_values.size == 0
    assert np.isfinite(q).all() and q[0] < q[1] < q[2]


@pytest.mark.parametrize("kind, x, atoms", [
    # zeros, and a positive remainder of one value, which has no spread to smooth
    ("zero_inflated", np.repeat([0.0, 2.0], [60, 40]), [(0.0, 0.6), (2.0, 0.4)]),
    # a value seen once is below the atom rule, but it is all that is left
    ("interval", np.append(np.full(99, 1.0), 5.0), [(1.0, 0.99), (5.0, 0.01)]),
], ids=["zero_inflated", "interval"])
def test_fit_constant_remainder_becomes_an_atom(kind, x, atoms):
    m = fit_marginal(x, kind)
    assert m.continuous is None
    assert list(zip(m.atom_values.tolist(), m.atom_masses.tolist())) == pytest.approx(atoms)


def test_fit_nonnegative_drops_sub_threshold_zeros_with_a_warning():
    # 2 zeros in 300 rows are below the 1% atom share, so they stay with the
    # continuous part, whose log-scale fit cannot take them
    x = np.concatenate([[0.0, 0.0], np.random.default_rng(6).lognormal(size=298)])
    with pytest.warns(UserWarning, match="dropping 2 sub-threshold zero values"):
        m = fit_marginal(x, "nonnegative")
    assert m.atom_values.size == 0 and m.continuous_mass == 1.0
    assert m.cdf(0.0) == 0.0 and 0.0 < m.cdf(np.median(x)) < 1.0


# -- evaluation ---------------------------------------------------------------


def test_eval_analytic_mixture_at_atom_and_continuous_point():
    m = analytic_zi_expon()
    assert m.cdf(0.0) == pytest.approx(0.4, abs=1e-12)
    assert m.cdf_left(0.0) == pytest.approx(0.0, abs=1e-12)
    assert m.density(0.0) == pytest.approx(0.4, abs=1e-12)
    assert m.cdf(LN2) == pytest.approx(0.7, abs=1e-12)
    assert m.cdf_left(LN2) == pytest.approx(0.7, abs=1e-12)
    assert m.density(LN2) == pytest.approx(0.6 * 0.5, abs=1e-12)


def test_quantile_jump_interval_and_continuous():
    m = analytic_zi_expon()
    assert m.quantile(0.2) == 0.0
    assert m.quantile(0.7) == pytest.approx(LN2, abs=1e-12)
    assert m.quantile(0.4) == 0.0  # closed right end of the jump


def test_quantile_cdf_roundtrip_on_fitted_margin():
    x = sample_zi_expon(5000, seed=4)
    m = fit_marginal(x, "zero_inflated")
    v = np.linspace(0.45, 0.999, 200)
    xs = np.asarray(m.quantile(v))
    back = np.asarray(m.cdf(xs))
    assert np.abs(back - v).max() < 1e-6


def test_quantile_galois_property():
    x = sample_zi_expon(3000, seed=5)
    m = fit_marginal(x, "zero_inflated")
    vs = np.linspace(0.01, 0.99, 37)
    xs = np.linspace(-0.5, 6.0, 41)
    for v in vs:
        for xx in xs:
            lhs = float(np.asarray(m.quantile(v))) <= xx
            rhs = v <= float(np.asarray(m.cdf(xx)))
            assert lhs == rhs


def test_monotone_cdf_left_limits_and_jumps():
    x = sample_zi_expon(4000, seed=6)
    m = fit_marginal(x, "zero_inflated")
    grid = np.linspace(-1.0, 10.0, 1000)
    f = np.asarray(m.cdf(grid))
    fl = np.asarray(m.cdf_left(grid))
    assert np.all(np.diff(f) >= -1e-13)
    assert np.all(fl <= f + 1e-13)
    for value, mass in zip(m.atom_values, m.atom_masses):
        jump = float(np.asarray(m.cdf(value))) - float(np.asarray(m.cdf_left(value)))
        assert jump == pytest.approx(mass, abs=1e-12)


def test_normalization_by_quadrature():
    x = sample_zi_expon(4000, seed=7)
    m = fit_marginal(x, "zero_inflated")
    lo = float(np.asarray(m.quantile(1e-9)))
    hi = float(np.asarray(m.quantile(1.0 - 1e-9)))
    grid = np.linspace(max(lo, 1e-12), hi, 200_001)
    dens = np.asarray(m.density(grid))
    dens[np.isin(grid, m.atom_values)] = 0.0
    total = np.trapezoid(dens, grid) + m.atom_masses.sum()
    assert total == pytest.approx(1.0, abs=1e-4)


# -- randomized PIT ------------------------------------------------------------


def test_randomized_pit_formula():
    m = analytic_zi_expon()
    assert randomized_pit(m, 0.0, 0.25) == pytest.approx(0.25 * 0.4, abs=1e-12)
    for w in (0.0, 0.3, 1.0):
        assert randomized_pit(m, LN2, w) == pytest.approx(0.7, abs=1e-12)


def test_randomized_pit_uniformity():
    m = analytic_zi_expon()
    rng = np.random.default_rng(8)
    x = sample_zi_expon(100_000, seed=9)
    v = randomized_pit(m, x, rng.uniform(size=x.size))
    assert stats.kstest(v, "uniform").statistic < 0.01


def test_randomized_pit_is_exact_and_matches_forward_d1():
    m = fit_marginal(sample_zi_expon(3000, seed=11), "zero_inflated")
    x = sample_zi_expon(4000, seed=12)
    w = np.random.default_rng(13).uniform(size=x.size)
    w[:2] = (0.0, 1.0)
    x[:4] = (0.0, 0.0, 0.7, 0.7)
    v = randomized_pit(m, x, w)
    off_atom = ~np.isin(x, m.atom_values)
    assert off_atom.sum() > 2000 and (~off_atom).sum() > 1000
    assert np.array_equal(v[off_atom], np.asarray(m.cdf(x[off_atom])))
    model = VineModel(margins=[m], structure=VineStructure(d=1, trees=[]))
    assert np.array_equal(v, rosenblatt_forward(model, x[:, None], w[:, None])[:, 0])


@pytest.mark.parametrize("kind", ["interval", "zero_inflated", "atoms only"])
def test_margin_is_nan_at_nan(kind):
    rng = np.random.default_rng(15)
    if kind == "atoms only":
        m = MixtureMarginal([(0.0, 0.5), (1.0, 0.5)], None, "interval")
    else:
        x = sample_zi_expon(500, seed=16) if kind == "zero_inflated" else rng.normal(size=500)
        m = fit_marginal(x, kind)
    for f in (m.quantile, m.cdf, m.cdf_left, m.density):
        assert math.isnan(f(np.nan))
        got = np.asarray(f(np.array([0.25, np.nan, 0.75])))
        assert np.isnan(got[1])
        assert np.array_equal(got[[0, 2]], np.asarray(f(np.array([0.25, 0.75]))))
    if m.continuous is not None:
        for f in (m.continuous.quantile, m.continuous.cdf, m.continuous.pdf):
            assert np.isnan(f(np.array([np.nan]))).all()
    with pytest.raises(DomainError):
        randomized_pit(m, 0.5, np.nan)


# -- serialization ---------------------------------------------------------------


def test_serialization_roundtrip_bit_exact():
    x = sample_zi_expon(2000, seed=10)
    m = fit_marginal(x, "zero_inflated")
    blob = json.dumps(m.to_dict())
    m2 = MixtureMarginal.from_dict(json.loads(blob))
    assert np.array_equal(m.atom_values, m2.atom_values)
    assert np.array_equal(m.atom_masses, m2.atom_masses)
    assert np.array_equal(m.continuous.knots, m2.continuous.knots)
    assert np.array_equal(m.continuous.pdf_values, m2.continuous.pdf_values)
    pts = np.linspace(-1, 8, 50)
    assert np.array_equal(np.asarray(m.cdf(pts)), np.asarray(m2.cdf(pts)))


def _roundtrip_margins():
    rng = np.random.default_rng(14)
    interval = rng.normal(2.0, 1.0, size=1500)
    interval[::10] = 1.5  # a repeated value: an atom
    return {
        "interval with an atom": fit_marginal(interval, "interval"),
        "nonnegative": fit_marginal(rng.gamma(2.0, size=1500), "nonnegative"),
        "zero-inflated": fit_marginal(sample_zi_expon(1500, seed=15), "zero_inflated"),
        "fully atomic": fit_marginal(np.repeat([0.0, 1.0, 2.5], 40), "interval"),
    }


@pytest.mark.parametrize("name", list(_roundtrip_margins()))
def test_grid_margin_roundtrip_byte_for_byte(name):
    m = _roundtrip_margins()[name]
    blob = json.dumps(m.to_dict())
    m2 = MixtureMarginal.from_dict(json.loads(blob))
    assert json.dumps(m2.to_dict()) == blob
    if m.continuous is not None:
        assert list(m.to_dict()["continuous"]) == ["transform", "knots", "pdf",
                                                   "tail_scale_lo", "tail_scale_hi"]
    pts = np.concatenate([np.linspace(-3.0, 12.0, 301), m.atom_values, [0.0]])
    for f in ("cdf", "cdf_left", "density"):
        assert np.array_equal(getattr(m, f)(pts), getattr(m2, f)(pts)), f
    q = np.concatenate([np.linspace(0.0, 1.0, 301), [1e-12, 1.0 - 1e-12]])
    assert np.array_equal(m.quantile(q), m2.quantile(q))


@pytest.mark.parametrize("name", ["interval with an atom", "nonnegative", "zero-inflated"])
def test_density_far_outside_the_grid_warns_nothing(name):
    m = _roundtrip_margins()[name]
    g = m.continuous
    k = g.knots
    z = np.linspace(k[0], k[-1], 2001)
    inside = np.exp(z) if g.log_scale else z
    far = np.array([1e-300, 1e-200, 1e200, 1e300])
    if not g.log_scale:
        far[:2] = -far[2:]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d_far = m.density(far)
        d_in = m.density(inside)
    assert np.all(np.isfinite(d_far)) and np.all(d_far >= 0.0)
    # in the grid the density is the linear interpolant of the knot values,
    # bit for bit as before the tails were masked
    z_in = np.log(inside) if g.log_scale else inside
    pdf = np.interp(z_in, k, g.pdf_values)
    expected = m.continuous_mass * (pdf / inside if g.log_scale else pdf)
    hit = np.isin(inside, m.atom_values)
    assert np.array_equal(d_in[~hit], expected[~hit])


def test_analytic_margin_not_serializable():
    with pytest.raises(TypeError):
        analytic_zi_expon().to_dict()
