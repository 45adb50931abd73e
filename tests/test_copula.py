import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from vinebc.copula import (
    CheckerboardCopula,
    ClaytonCopula,
    FrankCopula,
    GaussianCopula,
    GumbelCopula,
    THETA_CAP_FRANK,
    IndependenceCopula,
    PseudoObs,
    _frank_tau,
    copula_from_dict,
    fit_pair,
    gen_density,
    hfunc,
    hfunc_inverse,
    jitter_pair,
    kendall_tau,
    tau_independence_test,
)
from vinebc.errors import DomainError, EstimationError


def all_test_copulas():
    rng = np.random.default_rng(99)
    u = rng.uniform(size=(800, 2))
    return [
        IndependenceCopula(),
        GaussianCopula(0.5),
        GaussianCopula(-0.7),
        ClaytonCopula(2.0),
        ClaytonCopula(1.5, rotation=90),
        ClaytonCopula(2.5, rotation=180),
        ClaytonCopula(0.8, rotation=270),
        GumbelCopula(2.0),
        GumbelCopula(3.0, rotation=180),
        FrankCopula(4.0),
        FrankCopula(-6.0),
        CheckerboardCopula.fit(u[:, 0], u[:, 1], resolution=16),
    ]


# -- kendall tau ----------------------------------------------------------------


def test_tau_monotone_pairings():
    x = np.arange(50.0)
    assert kendall_tau(x, 2.0 * x + 1.0) == 1.0
    assert kendall_tau(x, -x) == -1.0


def test_tau_gaussian_analytic_relation():
    rng = np.random.default_rng(10)
    z = rng.multivariate_normal([0, 0], [[1, 0.5], [0.5, 1]], size=10_000)
    assert kendall_tau(z[:, 0], z[:, 1]) == pytest.approx(2.0 / np.pi * np.arcsin(0.5), abs=0.02)


def test_tau_degenerate_input_warns_and_returns_zero():
    with pytest.warns(UserWarning):
        assert kendall_tau(np.ones(10), np.arange(10.0)) == 0.0


def _warned(fn, *args):
    """fn(*args) and the messages of the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, [str(w.message) for w in caught]


def _zero_inflated_pseudo(rng, n):
    """Pseudo-observations of a margin with an atom at zero on a random share
    of rows: each zero row is the jump [0, p], every other row lies above p."""
    p = rng.uniform(0.1, 0.7)
    zero = rng.uniform(size=n) < p
    u = np.where(zero, p, p + (1.0 - p) * rng.uniform(size=n))
    return PseudoObs(u, np.where(zero, 0.0, u))


def _tau_sample(kind: str, n: int, seed: int):
    rng = np.random.default_rng(seed)
    if kind == "jittered zero-inflated":
        a = _zero_inflated_pseudo(rng, n)
        b = _zero_inflated_pseudo(rng, n) if rng.uniform() < 0.5 else PseudoObs(rng.uniform(size=n))
        x, y, _ = jitter_pair(a, b, seed)
        return x, y
    x = rng.normal(size=n)
    y = rng.uniform(-1.0, 1.0) * x + rng.normal(size=n)
    if kind == "rounded":  # heavy ties, down to a few distinct values
        x, y = np.round(x, int(rng.integers(0, 2))), np.round(2.0 * y) / 2.0
    elif kind == "NaN":
        (x, y)[int(rng.integers(0, 2))][rng.integers(0, n)] = np.nan
    return x, y


@settings(deadline=None, max_examples=150)
@given(kind=st.sampled_from(["continuous", "rounded", "jittered zero-inflated", "NaN"]),
       n=st.integers(2, 3000), seed=st.integers(0, 2**32 - 1))
def test_tau_is_scipys_public_tau_bit_for_bit(kind, n, seed):
    """kendall_tau calls SciPy's tau past its argument-handling decorator, and
    still returns the public function's float, bit for bit, with the public
    call's warnings; where the public tau is NaN it returns 0 and says why."""
    x, y = _tau_sample(kind, n, seed)
    ours, ours_warned = _warned(kendall_tau, x, y)
    public, public_warned = _warned(lambda: float(stats.kendalltau(x, y).statistic))
    if np.isnan(public):
        assert ours == 0.0
        assert ours_warned and all(m.endswith("returning 0") for m in ours_warned)
    else:
        assert np.float64(ours).tobytes() == np.float64(public).tobytes()
        assert ours_warned == public_warned


@pytest.mark.parametrize("nan_in", ["x", "y"])
def test_tau_of_input_with_nan_warns_and_returns_zero(nan_in):
    """The public tau of this sample is NaN, but SciPy's undecorated count
    returns a number for it (0.2), so only kendall_tau's own check gives 0."""
    x = np.array([0.1, 0.5, np.nan, 0.3, 0.9])
    y = np.array([0.2, 0.1, 0.4, 0.8, 0.3])
    if nan_in == "y":
        x, y = y, x
    assert np.isnan(stats.kendalltau(x, y).statistic)
    with pytest.warns(UserWarning, match="kendall tau undefined"):
        assert kendall_tau(x, y) == 0.0


# -- fitting ----------------------------------------------------------------------


def test_fit_pair_iid_uniform_selects_independence():
    rng = np.random.default_rng(11)
    u = rng.uniform(size=(2000, 2))
    cop = fit_pair(PseudoObs(u[:, 0]), PseudoObs(u[:, 1]))
    assert isinstance(cop, IndependenceCopula)


def test_independence_test_rejection_rate_near_level():
    rng = np.random.default_rng(12)
    n, reps = 400, 300
    rejections = 0
    for _ in range(reps):
        u = rng.uniform(size=(n, 2))
        tau = stats.kendalltau(u[:, 0], u[:, 1]).statistic
        rejections += tau_independence_test(tau, n, level=0.05)
    rate = rejections / reps
    assert 0.01 <= rate <= 0.10


def test_fit_pair_comonotone_caps_gaussian_rho():
    u = np.random.default_rng(13).uniform(size=1500)
    cop = fit_pair(PseudoObs(u), PseudoObs(u), family_set=("gaussian",))
    assert isinstance(cop, GaussianCopula)
    assert cop.rho == pytest.approx(0.999)


def test_fit_pair_clayton_tau_inversion_recovery():
    # tau-inversion oracle: theta=2 gives tau = theta/(theta+2) = 0.5
    rng = np.random.default_rng(14)
    theta = 2.0
    u1 = rng.uniform(size=5000)
    w = rng.uniform(size=5000)
    u2 = ((w ** (-theta / (1 + theta)) - 1.0) * u1 ** (-theta) + 1.0) ** (-1.0 / theta)
    cop = fit_pair(PseudoObs(u1), PseudoObs(u2), family_set=("clayton",))
    assert isinstance(cop, ClaytonCopula)
    assert cop.rotation == 0
    assert cop.theta == pytest.approx(2.0, abs=0.2)


def test_fit_pair_permutation_invariance_with_atoms():
    rng = np.random.default_rng(15)
    n = 600
    u = rng.uniform(size=(n, 2))
    # coordinate 1 discrete on 40% of rows: jump intervals [0, 0.35]
    disc = rng.uniform(size=n) < 0.4
    ul = u[:, 0].copy()
    uu = u[:, 0].copy()
    ul[disc] = 0.0
    uu[disc] = 0.35
    a = PseudoObs(uu, ul)
    b = PseudoObs(u[:, 1])
    cop1 = fit_pair(a, b, seed=3)
    perm = rng.permutation(n)
    cop2 = fit_pair(a[perm], b[perm], seed=3)
    assert cop1.to_dict() == cop2.to_dict()


def test_fit_pair_requires_minimum_sample():
    u = np.random.default_rng(16).uniform(size=(10, 2))
    with pytest.raises(EstimationError):
        fit_pair(PseudoObs(u[:, 0]), PseudoObs(u[:, 1]))


def test_fit_pair_length_mismatch_has_its_own_message():
    u = np.random.default_rng(17).uniform(size=100)
    with pytest.raises(EstimationError, match="differ in length: 100 and 50"):
        fit_pair(PseudoObs(u), PseudoObs(u[:50]))


@pytest.mark.parametrize("family_set", [("gaussian", "bogus"), "gaussian"],
                         ids=["unknown", "bare_string"])
def test_fit_pair_rejects_bad_family_set(family_set):
    u = np.random.default_rng(18).uniform(size=(100, 2))
    with pytest.raises(ValueError, match="family_set must list families among"):
        fit_pair(PseudoObs(u[:, 0]), PseudoObs(u[:, 1]), family_set=family_set)


def test_frank_tau_inversion_consistency():
    theta = FrankCopula.tau_to_param(0.4)
    assert _frank_tau(theta) == pytest.approx(0.4, abs=1e-6)
    assert FrankCopula.tau_to_param(-0.4) == pytest.approx(-theta)


def test_frank_tau_at_or_beyond_the_cap_gives_the_capped_theta():
    cap = _frank_tau(THETA_CAP_FRANK)
    for tau in (cap, np.nextafter(cap, 1.0), 0.99):
        assert FrankCopula.tau_to_param(tau) == THETA_CAP_FRANK
        assert FrankCopula.tau_to_param(-tau) == -THETA_CAP_FRANK


# -- generalized density ------------------------------------------------------------


@pytest.mark.parametrize(
    "a,b",
    [
        (PseudoObs(0.4, 0.0), PseudoObs(0.3, 0.0)),
        (PseudoObs(0.4, 0.0), PseudoObs(0.3)),
        (PseudoObs(0.4), PseudoObs(0.3, 0.0)),
        (PseudoObs(0.4), PseudoObs(0.3)),
    ],
)
def test_gen_density_independence_all_patterns(a, b):
    assert gen_density(IndependenceCopula(), a, b) == pytest.approx(1.0, abs=1e-12)


def test_gen_density_gaussian_rectangle_vs_scipy_oracle():
    rho = 0.5
    cop = GaussianCopula(rho)
    a = PseudoObs(0.4, 0.0)
    b = PseudoObs(0.3, 0.0)
    got = gen_density(cop, a, b)[0]
    mvn = stats.multivariate_normal(mean=[0, 0], cov=[[1, rho], [rho, 1]])
    rect = mvn.cdf([stats.norm.ppf(0.4), stats.norm.ppf(0.3)])
    assert got == pytest.approx(rect / (0.4 * 0.3), rel=1e-9)


def test_gen_density_gaussian_continuous_closed_form():
    cop = GaussianCopula(0.5)
    got = gen_density(cop, PseudoObs(0.5), PseudoObs(0.5))[0]
    assert got == pytest.approx(1.0 / np.sqrt(1.0 - 0.25), rel=1e-12)


def test_gen_density_mixed_branch_vs_finite_difference():
    cop = GaussianCopula(0.5)
    a = PseudoObs(0.4, 0.1)
    b = PseudoObs(0.65)
    got = gen_density(cop, a, b)[0]
    eps = 1e-7
    num = (
        (cop.cdf(0.4, 0.65 + eps) - cop.cdf(0.4, 0.65 - eps))
        - (cop.cdf(0.1, 0.65 + eps) - cop.cdf(0.1, 0.65 - eps))
    ) / (2 * eps * 0.3)
    assert got == pytest.approx(num, rel=1e-5)


def test_gen_density_tiny_mass_raises():
    cop = GaussianCopula(0.5)
    with pytest.raises(DomainError):
        gen_density(cop, PseudoObs(0.4, 0.4 - 1e-13), PseudoObs(0.3))


# -- h-functions ------------------------------------------------------------------


def test_hfunc_independence_returns_target():
    ind = IndependenceCopula()
    assert hfunc(ind, 1, 0.3, PseudoObs(0.8))[0] == pytest.approx(0.3, abs=1e-12)
    assert hfunc(ind, 1, 0.3, PseudoObs(0.8, 0.2))[0] == pytest.approx(0.3, abs=1e-12)


def test_hfunc_clayton_closed_form_value():
    cop = ClaytonCopula(2.0)
    got = hfunc(cop, 2, 0.5, PseudoObs(0.5))[0]
    assert got == pytest.approx(8.0 * 7.0 ** (-1.5), rel=1e-10)


def test_hfunc_discrete_conditioner_matches_cdf_differencing():
    cop = GaussianCopula(0.5)
    got = hfunc(cop, 1, 0.5, PseudoObs(0.4, 0.0))[0]
    num = (cop.cdf(0.5, 0.4) - cop.cdf(0.5, 0.0))[0] / 0.4
    assert got == pytest.approx(num, rel=1e-12)
    # against finite-difference quotient of the CDF with a tiny step
    step = 1e-6
    cond = PseudoObs(0.4, 0.4 - step)
    got2 = hfunc(cop, 1, 0.5, cond)[0]
    num2 = (cop.cdf(0.5, 0.4) - cop.cdf(0.5, 0.4 - step))[0] / step
    assert got2 == pytest.approx(num2, rel=1e-9)


def test_hfunc_difference_quotient_converges_to_derivative():
    cop = GaussianCopula(0.5)
    target, c = 0.35, 0.6
    deriv = hfunc(cop, 1, target, PseudoObs(c))[0]
    errs = []
    for jump in (1e-2, 1e-4, 1e-6):
        got = hfunc(cop, 1, target, PseudoObs(c + jump / 2, c - jump / 2))[0]
        errs.append(abs(got - deriv))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-4


def test_hfunc_bounds_and_monotone_in_target():
    t = np.linspace(0.0, 1.0, 41)
    for cop in all_test_copulas():
        for cond in (PseudoObs(np.full(41, 0.55)), PseudoObs(np.full(41, 0.55), np.full(41, 0.25))):
            h = hfunc(cop, 1, t, cond)
            assert np.all((h >= 0.0) & (h <= 1.0))
            assert np.all(np.diff(h) >= -1e-9)


def test_hfunc_inverse_independence_identity():
    v = np.linspace(0.01, 0.99, 11)
    got = hfunc_inverse(IndependenceCopula(), 1, v, PseudoObs(np.full(11, 0.4)))
    assert np.array_equal(got, v)


def test_hfunc_inverse_clayton_roundtrip():
    cop = ClaytonCopula(2.0)
    cond = PseudoObs(0.6)
    v = hfunc(cop, 1, 0.3, cond)
    back = hfunc_inverse(cop, 1, v, cond)[0]
    assert back == pytest.approx(0.3, abs=1e-8)


def test_hfunc_inverse_monotone_in_level():
    cop = GumbelCopula(2.5)
    cond = PseudoObs(np.full(21, 0.35), np.full(21, 0.15))
    v = np.linspace(0.02, 0.98, 21)
    out = hfunc_inverse(cop, 2, v, cond)
    assert np.all(np.diff(out) >= -1e-12)


def test_hfunc_inverse_flat_h_raises_diagnostic():
    from vinebc.copula import BivariateCopula
    from vinebc.errors import NumericsError

    class FlatH(BivariateCopula):
        family = "flat"

        def _du0(self, u, v):
            return np.full_like(u, 0.5)  # not a valid conditional CDF

        def _pdf0(self, u, v):
            return np.zeros_like(u)

    with pytest.raises(NumericsError, match="monotone"):
        hfunc_inverse(FlatH(), 1, 0.9, PseudoObs(0.4))


def test_hfunc_inverse_roundtrip_discrete_conditioner():
    cop = FrankCopula(5.0)
    cond = PseudoObs(np.full(9, 0.45), np.full(9, 0.2))
    targets = np.linspace(0.1, 0.9, 9)
    v = hfunc(cop, 1, targets, cond)
    back = hfunc_inverse(cop, 1, v, cond)
    assert np.abs(back - targets).max() < 1e-8


def test_hfunc_inverse_independence_broadcasts_and_checks_jumps():
    # a scalar level with a 5-row conditioner gives 5 rows, as for every family
    cond = PseudoObs(np.linspace(0.1, 0.9, 5))
    for cop in (IndependenceCopula(), GaussianCopula(0.5)):
        assert hfunc_inverse(cop, 1, 0.3, cond).shape == (5,)
        assert hfunc(cop, 1, 0.3, cond).shape == (5,)
    # a jump too small to difference raises for every family
    tiny = PseudoObs(0.5 + 1e-13, 0.5)
    for cop in all_test_copulas():
        with pytest.raises(DomainError):
            hfunc_inverse(cop, 1, 0.3, tiny)


def _bisection_inverse(copula, direction, v, conditioner):
    """The 34-round bisection that hfunc_inverse used before its closed forms."""
    v = np.clip(np.atleast_1d(np.asarray(v, dtype=float)), 0.0, 1.0)
    v_b, cu, cl = np.broadcast_arrays(v, conditioner.u, conditioner.u_left)
    cond = PseudoObs(cu, cl)
    lo = np.zeros_like(v_b)
    hi = np.ones_like(v_b)
    for _ in range(34):
        mid = 0.5 * (lo + hi)
        go_up = hfunc(copula, direction, mid, cond) < v_b
        lo = np.where(go_up, mid, lo)
        hi = np.where(go_up, hi, mid)
    out = 0.5 * (lo + hi)
    out = np.where(v_b <= 0.0, 0.0, out)
    return np.where(v_b >= 1.0, 1.0, out)


def _target_density(copula, direction, t, cond):
    """Slope of the h-function in its target: the generalized density at (t, cond)."""
    target = PseudoObs(t)
    return gen_density(copula, target, cond) if direction == 1 else gen_density(copula, cond, target)


ORACLE_COPULAS = [
    IndependenceCopula(),
    *(GaussianCopula(r) for r in (0.3, -0.8, 0.99)),
    *(ClaytonCopula(th, rotation=r) for th in (0.5, 5.0, 40.0) for r in (0, 90, 180, 270)),
    *(GumbelCopula(th, rotation=r) for th in (1.5, 8.0, 40.0) for r in (0, 90, 180, 270)),
    *(FrankCopula(th) for th in (3.0, -8.0, 30.0, -35.0)),
    all_test_copulas()[-1],  # a fitted 16 x 16 checkerboard
]
ORACLE_CONDITIONERS = [
    *(PseudoObs(u) for u in (0.03, 0.5, 0.97)),
    *(PseudoObs(right, left) for left, right in ((0.0, 0.3), (0.45, 0.46), (0.85, 1.0),
                                                 (0.2, 0.201))),
]


@pytest.mark.parametrize("cop", ORACLE_COPULAS, ids=repr)
def test_hfunc_inverse_no_less_accurate_than_bisection(cop):
    v = np.concatenate([[1e-6, 1e-3], np.linspace(0.02, 0.98, 25), [1.0 - 1e-3, 1.0 - 1e-6]])
    for cond in ORACLE_CONDITIONERS:
        cond = PseudoObs(np.full(v.shape, cond.u[0]), np.full(v.shape, cond.u_left[0]))
        for direction in (1, 2):
            t = hfunc_inverse(cop, direction, v, cond)
            t_old = _bisection_inverse(cop, direction, v, cond)
            resid = np.abs(hfunc(cop, direction, t, cond) - v)
            resid_old = np.abs(hfunc(cop, direction, t_old, cond) - v)
            assert np.all(resid <= resid_old + 1e-12)
            steep = _target_density(cop, direction, t_old, cond) >= 1e-2
            assert np.all(np.abs(t - t_old)[steep] <= 2.0**-33)


def test_checkerboard_inverse_takes_left_end_of_flat_stretch():
    # row and column 1 hold mass only in cells 0 and 2, so with the conditioner
    # in cell 1 the h-function is flat at 1/2 for targets in [1/4, 1/2]
    cop = CheckerboardCopula(np.array([[0.5, 0.5, 0.0, 0.0],
                                       [0.5, 0.0, 0.5, 0.0],
                                       [0.0, 0.5, 0.0, 0.5],
                                       [0.0, 0.0, 0.5, 0.5]]) / 4.0)
    cond = PseudoObs(0.3)
    for direction in (1, 2):
        assert hfunc(cop, direction, np.array([0.25, 0.4, 0.5]), cond) == pytest.approx(0.5)
        assert hfunc_inverse(cop, direction, 0.5, cond)[0] == 0.25
        assert _bisection_inverse(cop, direction, 0.5, cond)[0] == pytest.approx(0.25, abs=2.0**-33)


def test_hfunc_inverse_closed_forms_call_hfunc_once(monkeypatch):
    # with continuous conditioners every family but Gumbel solves in closed form:
    # one hfunc call (the residual check) and no Newton iteration
    from vinebc import copula as copula_module

    calls = {"hfunc": 0, "newton": 0}
    hfunc_real = copula_module.hfunc
    newton_real = copula_module._safeguarded_newton

    def counted_hfunc(*args, **kwargs):
        calls["hfunc"] += 1
        return hfunc_real(*args, **kwargs)

    def counted_newton(*args, **kwargs):
        calls["newton"] += 1
        return newton_real(*args, **kwargs)

    monkeypatch.setattr(copula_module, "hfunc", counted_hfunc)
    monkeypatch.setattr(copula_module, "_safeguarded_newton", counted_newton)
    cond = PseudoObs(np.linspace(0.05, 0.95, 7))
    v = np.linspace(0.1, 0.9, 7)
    for cop in ORACLE_COPULAS:
        if isinstance(cop, GumbelCopula):
            continue
        for direction in (1, 2):
            calls.update(hfunc=0, newton=0)
            hfunc_inverse(cop, direction, v, cond)
            assert calls == {"hfunc": 1, "newton": 0}, repr(cop)


# -- copula CDF properties -----------------------------------------------------------


def test_cdf_uniform_margins_and_two_increasing():
    grid = np.linspace(0.0, 1.0, 21)
    for cop in all_test_copulas():
        u, v = np.meshgrid(grid, grid, indexing="ij")
        c = cop.cdf(u.ravel(), v.ravel()).reshape(21, 21)
        assert np.abs(c[:, -1] - grid).max() < 1e-9
        assert np.abs(c[-1, :] - grid).max() < 1e-9
        assert np.all(np.diff(c, axis=0) >= -1e-10)
        assert np.all(np.diff(c, axis=1) >= -1e-10)
        rect = c[1:, 1:] - c[:-1, 1:] - c[1:, :-1] + c[:-1, :-1]
        assert rect.min() >= -1e-10


def test_checkerboard_is_doubly_stochastic():
    rng = np.random.default_rng(17)
    u = rng.uniform(size=(500, 2))
    cop = CheckerboardCopula.fit(u[:, 0], u[:, 1], resolution=32)
    assert np.abs(cop.weights.sum(axis=0) - 1.0 / 32).max() < 1e-9
    assert np.abs(cop.weights.sum(axis=1) - 1.0 / 32).max() < 1e-9
    assert repr(cop) == "CheckerboardCopula(m=32)"  # not its 1,024 masses


def test_serialization_all_families():
    for cop in all_test_copulas():
        clone = copula_from_dict(cop.to_dict())
        pts = np.random.default_rng(18).uniform(0.05, 0.95, size=(20, 2))
        assert np.array_equal(cop.cdf(pts[:, 0], pts[:, 1]), clone.cdf(pts[:, 0], pts[:, 1]))


def test_pseudo_obs_validation():
    with pytest.raises(DomainError):
        PseudoObs(0.3, 0.5)
    po = PseudoObs([0.5, 0.4], [0.5, 0.1])
    assert po.discrete.tolist() == [False, True]
