import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

import vinebc.evaluation as evaluation
from vinebc.evaluation import (
    MetricReport,
    UnitMetrics,
    _gaussian_potential,
    _w2_assignment,
    _w2_exact_1d,
    copula_iw2,
    empirical_joint_cdf,
    empirical_randomized_pit,
    improvement_iw2,
    mci,
    per_margin_iw2,
    wasserstein2,
)


# -- W2 ---------------------------------------------------------------------------


def test_w2_identical_sets_zero():
    a = np.random.default_rng(0).normal(size=(300, 3))
    assert wasserstein2(a, a.copy(), standardize=False) == 0.0


def test_w2_point_masses_unit_distance():
    assert wasserstein2(np.array([[0.0]]), np.array([[1.0]]), standardize=False) == 1.0


def test_w2_gaussian_mean_shift_anchor():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(5000, 2))
    b = rng.normal(size=(5000, 2)) + np.array([0.6, 0.8])
    assert wasserstein2(a, b, standardize=False, seed=2) == pytest.approx(1.0, abs=0.1)


def test_w2_one_dim_exact_and_symmetric():
    rng = np.random.default_rng(3)
    a = rng.normal(size=801)
    b = rng.normal(loc=1.5, size=499)
    d1 = wasserstein2(a, b, standardize=False)
    d2 = wasserstein2(b, a, standardize=False)
    assert d1 == pytest.approx(d2, rel=1e-12)
    assert d1 == pytest.approx(1.5, abs=0.15)


def union_grid_w2(a, b):
    """The oracle: W2 of two quantile functions summed over the union of their grids."""
    a, b = np.sort(a), np.sort(b)
    qa, qb = np.arange(1, a.size + 1) / a.size, np.arange(1, b.size + 1) / b.size
    edges = np.union1d(qa, qb)
    widths = np.diff(np.concatenate(([0.0], edges)))
    mids = np.concatenate(([0.0], edges))[:-1] + widths / 2.0
    ia = np.searchsorted(qa, mids, side="left")
    ib = np.searchsorted(qb, mids, side="left")
    return float(np.sqrt(np.sum(widths * (a[ia] - b[ib]) ** 2)))


def test_w2_one_dim_equal_sizes_bit_identical_to_union_grid():
    rng = np.random.default_rng(30)
    for n in [*range(1, 130), 365, 730, 3600, 4099, 10_007]:
        a = rng.normal(size=n)
        b = np.round(rng.gamma(2.0, size=n), 1)  # ties
        b[rng.uniform(size=n) < 0.3] = 0.0  # an atom
        assert _w2_exact_1d(a, b) == union_grid_w2(a, b), n
    # and through wasserstein2, which standardizes both by the reference b
    mu, sd = b.mean(), b.std()
    assert wasserstein2(a, b) == union_grid_w2((a - mu) / sd, (b - mu) / sd)


def test_w2_one_dim_triangle_inequality_spot_checks():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a = rng.normal(size=rng.integers(20, 80))
        b = rng.normal(loc=rng.normal(), size=rng.integers(20, 80))
        c = rng.normal(loc=rng.normal(), scale=2.0, size=rng.integers(20, 80))
        dab = wasserstein2(a, b, standardize=False)
        dbc = wasserstein2(b, c, standardize=False)
        dac = wasserstein2(a, c, standardize=False)
        assert dac <= dab + dbc + 1e-12


def test_w2_multivariate_symmetry_within_noise():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(800, 2))
    b = rng.normal(loc=0.5, size=(900, 2))
    d1 = wasserstein2(a, b, standardize=False, seed=7)
    d2 = wasserstein2(b, a, standardize=False, seed=7)
    assert d1 == pytest.approx(d2, abs=0.05)


def test_w2_standardizes_by_reference():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(2000, 1)) * 100.0
    b = rng.normal(size=(2000, 1)) * 100.0
    raw = wasserstein2(a, b, standardize=False)
    std = wasserstein2(a, b, standardize=True)
    assert std < raw / 10.0


def test_w2_zero_variance_reference_warns():
    a = np.column_stack([np.arange(10.0), np.arange(10.0)])
    b = np.column_stack([np.arange(10.0), np.full(10, 3.0)])
    with pytest.warns(UserWarning, match="variance"):
        wasserstein2(a, b)


def plain_assignment_mean_cost(a, b):
    """The oracle: mean optimal cost of scipy's assignment on the raw squared distances."""
    cost = cdist(a, b, "sqeuclidean")
    rows, cols = linear_sum_assignment(cost)
    return cost[rows, cols].mean()


def plain_w2_assignment(a, b):
    return float(np.sqrt(plain_assignment_mean_cost(a, b)))


SHAPES = ("plain", "duplicated rows", "40% atom", "constant column")


def shaped_sample(rng, n, d, shape):
    x = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0, size=d) + rng.uniform(-50.0, 50.0, size=d)
    if shape == "duplicated rows":
        x[n // 2:] = x[: n - n // 2]
    elif shape == "40% atom":
        x[rng.uniform(size=n) < 0.4, d - 1] = 0.0
    elif shape == "constant column":
        x[:, 0] = 3.0
    return x


@settings(deadline=None, max_examples=150)
@example(d=3, n=1, shape="plain", seed=0)  # one row
@example(d=4, n=4, shape="duplicated rows", seed=1)  # n == d: zero potential
@given(d=st.integers(2, 5), n=st.integers(1, 64), shape=st.sampled_from(SHAPES),
       seed=st.integers(0, 2**32 - 1))
def test_w2_warm_start_optimal_cost_equals_plain_solve(d, n, shape, seed):
    rng = np.random.default_rng(seed)
    a = shaped_sample(rng, n, d, shape)
    b = shaped_sample(rng, n, d, shape) + rng.normal(size=d)
    oracle = plain_assignment_mean_cost(a, b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warm = _w2_assignment(a, b) ** 2
    assert warm == pytest.approx(oracle, rel=1e-12, abs=0.0)


def test_w2_assignment_reads_cdist_bits_at_any_dimension():
    # numpy sums 8 or more terms pairwise, while cdist adds the squares in turn;
    # with two rows a differing last bit of one cost shows in W2
    rng = np.random.default_rng(31)
    for d in (2, 7, 8, 9, 20):
        for _ in range(50):
            a, b = rng.normal(size=(2, d)), rng.normal(loc=0.3, size=(2, d))
            assert _w2_assignment(a, b) == plain_w2_assignment(a, b), d


def test_w2_rejects_non_finite_samples():
    a = np.random.default_rng(22).normal(size=(20, 2))
    for bad in (np.nan, np.inf):
        b = a.copy()
        b[4, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            wasserstein2(a, b, standardize=False)


def test_w2_rejects_non_finite_samples_in_one_dimension():
    # the quantile route used to sort a NaN to the end and return nan
    a = np.arange(10.0)
    b = a.copy()
    b[3] = np.nan
    for x, y in ((a, b), (b, a)):
        with pytest.raises(ValueError, match="finite"):
            wasserstein2(x, y)
    with pytest.raises(ValueError, match="finite"):
        per_margin_iw2(a[:, None], a[:, None], b[:, None])


def test_w2_rejects_finite_samples_whose_squared_cost_overflows():
    a = np.random.default_rng(23).normal(size=(20, 2))
    with pytest.raises(ValueError, match="finite"):
        wasserstein2(a * 1e200, -a * 1e200, standardize=False)


def test_w2_rejects_one_dimensional_samples_whose_squared_gap_overflows():
    # the quantile route used to return inf with only an overflow warning
    a = np.random.default_rng(23).normal(size=20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            wasserstein2(a * 1e200, -a * 1e200, standardize=False)
        with pytest.raises(ValueError, match="finite"):
            per_margin_iw2(a[:, None], a[:, None] * 1e200, -a[:, None] * 1e200)
        with pytest.raises(ValueError, match="finite"):  # standardizing overflows
            wasserstein2(np.full(5, 1e308), np.array([-1.0, 1.0, 0.5, 0.0, 0.2]))


def test_w2_rejects_a_reference_whose_scale_overflows():
    # both samples used to be divided by an infinite scale, which gave W2 = 0
    a = np.random.default_rng(24).normal(size=(20, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="reference coordinate 0"):
            wasserstein2(a * 1e200, -a * 1e200 + 1e199)
        with pytest.raises(ValueError, match="reference coordinate 1"):
            wasserstein2(a, a * np.array([1.0, 1e200]) - np.array([0.0, 1e199]))
        with pytest.raises(ValueError, match="reference coordinate 0"):
            wasserstein2(a[:, 0], -a[:, 0] * 1e200 + 1e199)


def test_gaussian_potential_is_tight_for_a_linear_monge_map():
    # b = L a + t with L symmetric positive definite is the optimal map, and the
    # Gaussian fits recover A = L, so after one c-transform every reduced cost
    # on the identity assignment is zero up to rounding
    rng = np.random.default_rng(24)
    a = rng.normal(size=(200, 3)) @ np.array([[1.0, 0.0, 0.0], [0.5, 1.0, 0.0], [0.2, -0.3, 2.0]])
    lin = np.array([[2.0, 0.4, 0.1], [0.4, 1.0, -0.2], [0.1, -0.2, 0.5]])
    b = a @ lin + np.array([3.0, -1.0, 0.5])
    cost = cdist(a, b, "sqeuclidean")
    u = _gaussian_potential(a, b)
    v = (cost - u[:, None]).min(axis=0)
    assert np.abs(np.diag(cost) - u - v).max() < 1e-9 * cost.mean()


def _zero_inflated_d3(rng, n, shift):
    z = rng.multivariate_normal([0.0, 0.0, 0.0], [[1, 0.6, 0.3], [0.6, 1, 0.4], [0.3, 0.4, 1]],
                                size=n)
    x = z + shift
    x[:, 2] = np.where(z[:, 2] < -0.25, 0.0, np.exp(z[:, 2]))  # about 40% zeros
    return x


def _gaussian_d5(rng, n, rho, shift):
    cov = np.full((5, 5), rho) + (1.0 - rho) * np.eye(5)
    return rng.multivariate_normal(np.full(5, shift), cov, size=n)


@pytest.mark.parametrize("route", ["subsample, d=3, n=730", "n == m <= 512, d=5, n=400"])
def test_w2_and_copula_iw2_bit_identical_to_plain_solve(route, monkeypatch):
    rng = np.random.default_rng(23)
    if route.startswith("subsample"):
        ref, model, corr = (_zero_inflated_d3(rng, 730, s) for s in (0.0, 0.7, 0.1))
    else:
        ref, model, corr = (_gaussian_d5(rng, 400, r, s) for r, s in ((0.5, 0.0), (0.1, 0.6),
                                                                     (0.45, 0.05)))
    warm = [wasserstein2(model, ref, seed=5), wasserstein2(corr, ref, seed=5),
            copula_iw2(corr, model, ref, seed=5)]
    monkeypatch.setattr(evaluation, "_w2_assignment", plain_w2_assignment)
    plain = [wasserstein2(model, ref, seed=5), wasserstein2(corr, ref, seed=5),
             copula_iw2(corr, model, ref, seed=5)]
    assert warm == plain


# -- IW2 ---------------------------------------------------------------------------


def test_iw2_is_plain_subtraction():
    assert 1.59 - 0.62 == pytest.approx(0.97)
    rng = np.random.default_rng(8)
    model = rng.normal(loc=2.0, size=(400, 2))
    ref = rng.normal(size=(400, 2))
    assert improvement_iw2(model, model, ref, seed=1) == 0.0
    # correcting onto the reference itself recovers the full model distance
    iw = improvement_iw2(ref, model, ref, seed=1)
    assert iw == wasserstein2(model, ref, seed=1)
    assert iw >= 0.0


def test_per_margin_iw2_unstandardized():
    rng = np.random.default_rng(9)
    model = np.column_stack([rng.normal(loc=3.0, size=800), rng.normal(size=800)])
    ref = rng.normal(size=(800, 2))
    corrected = rng.normal(size=(800, 2))
    out = per_margin_iw2(corrected, model, ref)
    assert out[0] > 2.0  # shifted margin improves by roughly the shift
    assert abs(out[1]) < 0.3


def test_copula_iw2_detects_dependence_fix():
    rng = np.random.default_rng(10)
    n = 1500
    z = rng.multivariate_normal([0, 0], [[1, 0.8], [0.8, 1]], size=n)
    ref = z.copy()
    model = np.column_stack([z[:, 0], rng.normal(size=n)])  # dependence destroyed
    corrected = rng.multivariate_normal([0, 0], [[1, 0.8], [0.8, 1]], size=n)
    assert copula_iw2(corrected, model, ref, seed=11) > 0.05


def test_empirical_randomized_pit_uniform_margins():
    rng = np.random.default_rng(12)
    x = np.column_stack([rng.exponential(size=3000), np.round(rng.uniform(size=3000), 1)])
    u = empirical_randomized_pit(x, seed=13)
    from scipy import stats

    assert stats.kstest(u[:, 0], "uniform").statistic < 0.03
    assert stats.kstest(u[:, 1], "uniform").statistic < 0.03  # ties jittered


# -- empirical joint CDF --------------------------------------------------------------


def test_joint_cdf_extremes():
    rng = np.random.default_rng(14)
    d = rng.normal(size=(40, 3))
    assert empirical_joint_cdf(d, d.min(axis=0) - 1.0) == 0.0
    assert empirical_joint_cdf(d, d.max(axis=0)) == 1.0


def test_joint_cdf_one_dim_order_statistics():
    d = np.sort(np.random.default_rng(15).normal(size=25)).reshape(-1, 1)
    for k in (1, 10, 25):
        assert empirical_joint_cdf(d, d[k - 1]) == pytest.approx(k / 25)


def test_joint_cdf_matches_brute_force():
    rng = np.random.default_rng(16)
    d = rng.normal(size=(50, 3))
    x = rng.normal(size=3)
    brute = sum(all(d[i, k] <= x[k] for k in range(3)) for i in range(50)) / 50
    assert empirical_joint_cdf(d, x) == brute


# -- MCI -------------------------------------------------------------------------------


def test_mci_identity_zero():
    d = np.random.default_rng(17).normal(size=(200, 4))
    series, mean = mci(d, d.copy())
    assert np.all(series == 0.0)
    assert mean == 0.0


def test_mci_hand_computed_two_rows():
    series, mean = mci(np.array([[1.0], [2.0]]), np.array([[2.0], [1.0]]))
    assert series.tolist() == [0.5, 0.5]
    assert mean == 0.5


def test_mci_bounded_on_random_pairs():
    rng = np.random.default_rng(18)
    a = rng.normal(size=(2000, 3))
    b = rng.normal(loc=1.0, scale=2.0, size=(2000, 3))
    series, mean = mci(a, b)
    assert np.all((series >= 0.0) & (series <= 1.0))
    assert 0.0 <= mean <= 1.0


def test_mci_row_count_mismatch():
    with pytest.raises(ValueError):
        mci(np.zeros((3, 2)), np.zeros((4, 2)))


# -- report ------------------------------------------------------------------------------


def _unit(method, chunk, member, iw2=0.5, m=0.01):
    return UnitMetrics(
        chunk=chunk,
        member=member,
        method=method,
        w2_model=1.0,
        w2_corrected=1.0 - iw2,
        mci_mean=m,
        copula_iw2=0.1,
        margin_iw2={"a": 0.2},
    )


def test_report_invariants_and_aggregates():
    rep = MetricReport()
    rep.add(_unit("vbc", "DJF-day", 1, iw2=0.5, m=0.01))
    rep.add(_unit("vbc", "DJF-day", 2, iw2=-0.1, m=0.08))
    rep.add(_unit("ubc", "DJF-day", 1, iw2=0.2, m=0.02))
    for u in rep.units:
        assert u.iw2 == u.w2_model - u.w2_corrected
    agg = rep.aggregates()
    assert agg["vbc"]["n_units"] == 2
    assert agg["vbc"]["share_improved"] == 0.5
    assert agg["vbc"]["share_non_invasive"] == 0.5
    assert agg["ubc"]["share_improved"] == 1.0
    assert _unit("x", "c", 1, m=0.049).non_invasive
    assert not _unit("x", "c", 1, m=0.051).non_invasive
