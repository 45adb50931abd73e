"""Property tests for the pair-copula layer, the fitted margins and the
empirical joint CDF.

Pair-copula strategies are bounded to these parameter ranges:

* Gaussian rho in [-0.999, 0.999], Clayton theta in [0.05, 50], Gumbel theta
  in [1, 50] (the fitted ranges), Frank theta in [-35, -0.1] or [0.1, 35];
  checkerboards of 2 to 32 cells a side fitted to 300 draws of a Gaussian
  copula with rho in [-0.95, 0.95].
* Continuous conditioners u in [0.01, 0.99].  Discrete conditioners have a
  jump in [1e-3, 0.3] (well above ``MIN_DISCRETE_MASS``) placed anywhere in
  [0, 1].
* Targets v and evaluation points in [1e-6, 1 - 1e-6].

Margin samples have 30 to 4,000 draws of a normal (interval) or a gamma(2)
(nonnegative and zero-inflated) variable, of which a share in [0, 0.7] is set
to the atoms: -1 and 0.5 (interval), 1.25 (nonnegative) or 0 (zero-inflated).

Joint-CDF samples have 1 to 70 rows of 1 to 5 columns, drawn from a few
repeated values (0 among them, as an atom), floats in [-3, 3] and NaN.
"""
import json

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from vinebc.copula import (
    CheckerboardCopula,
    ClaytonCopula,
    FrankCopula,
    GaussianCopula,
    GumbelCopula,
    IndependenceCopula,
    PseudoObs,
    copula_from_dict,
    hfunc,
    hfunc_inverse,
)
from vinebc.evaluation import empirical_joint_cdf
from vinebc.marginal import fit_marginal

ROTATIONS = (0, 90, 180, 270)
PROPERTY_SETTINGS = settings(deadline=None, max_examples=100)

unit = st.floats(1e-6, 1.0 - 1e-6)
levels = st.lists(unit, min_size=1, max_size=16).map(
    lambda vs: np.array(vs + [1e-6, 1.0 - 1e-6])
)


def fitted_checkerboard(rho, seed, resolution):
    """Checkerboard fitted to 300 draws of a Gaussian copula."""
    rng = np.random.default_rng(seed)
    u = stats.norm.cdf(rng.multivariate_normal([0.0, 0.0], [[1.0, rho], [rho, 1.0]], size=300))
    return CheckerboardCopula.fit(u[:, 0], u[:, 1], resolution=resolution)


rotations = st.sampled_from(ROTATIONS)
claytons = st.builds(ClaytonCopula, st.floats(0.05, 50.0), rotations)
gumbels = st.builds(GumbelCopula, st.floats(1.0, 50.0), rotations)
copulas = st.one_of(
    st.just(IndependenceCopula()),
    st.builds(GaussianCopula, st.floats(-0.999, 0.999)),
    claytons,
    gumbels,
    st.builds(FrankCopula, st.floats(0.1, 35.0) | st.floats(-35.0, -0.1)),
    st.builds(fitted_checkerboard, st.floats(-0.95, 0.95), st.integers(0, 2**32 - 1),
              st.integers(2, 32)),
)


@st.composite
def conditioners(draw):
    """A continuous or a discrete conditioner, as a one-point PseudoObs."""
    if draw(st.booleans()):
        return PseudoObs(draw(st.floats(0.01, 0.99)))
    jump = draw(st.floats(1e-3, 0.3))
    left = draw(st.floats(0.0, 1.0 - jump))
    return PseudoObs(left + jump, left)


@PROPERTY_SETTINGS
@given(copulas, st.sampled_from((1, 2)), conditioners(), levels)
def test_hfunc_inverts_hfunc_inverse(cop, direction, cond, v):
    cond = PseudoObs(np.full(v.shape, cond.u[0]), np.full(v.shape, cond.u_left[0]))
    t = hfunc_inverse(cop, direction, v, cond)
    assert np.abs(hfunc(cop, direction, t, cond) - v).max() <= 1e-6


def test_frank_inverse_holds_at_large_theta():
    # near (1, 1) the textbook Frank h cancels to ~1e-11; at theta 30 its
    # inverse used to raise NumericsError
    cond = PseudoObs(np.full(2, 0.9895661040119913))
    v = np.array([0.5, 1.0 - 1e-6])
    for theta in (26.0, 30.0, 35.0):
        cop = FrankCopula(theta)
        for direction in (1, 2):
            t = hfunc_inverse(cop, direction, v, cond)
            assert np.abs(hfunc(cop, direction, t, cond) - v).max() <= 1e-6


def test_frank_inverse_holds_with_discrete_conditioner_at_large_theta():
    # the discrete h is a difference quotient of the Frank CDF, whose textbook
    # form cancels near (1, 1); at theta 33 its inverse used to raise NumericsError
    v = np.array([1e-6, 0.25, 0.5, 0.75, 1.0 - 1e-6])
    for theta in (29.0, 33.0, 35.0):
        cop = FrankCopula(theta)
        for left in (0.7, 0.8, 0.9):
            for jump in (0.01, 0.05, 0.1):
                cond = PseudoObs(np.full(v.shape, left + jump), np.full(v.shape, left))
                for direction in (1, 2):
                    t = hfunc_inverse(cop, direction, v, cond)
                    assert np.abs(hfunc(cop, direction, t, cond) - v).max() <= 1e-6


def _rotation_identities(base, u, v):
    """The rotated CDF, partial derivatives and density from the unrotated copula."""
    return {
        90: {
            "cdf": v - base.cdf(1.0 - u, v),
            "du": base.du(1.0 - u, v),
            "dv": 1.0 - base.dv(1.0 - u, v),
            "pdf": base.pdf(1.0 - u, v),
        },
        180: {
            "cdf": u + v - 1.0 + base.cdf(1.0 - u, 1.0 - v),
            "du": 1.0 - base.du(1.0 - u, 1.0 - v),
            "dv": 1.0 - base.dv(1.0 - u, 1.0 - v),
            "pdf": base.pdf(1.0 - u, 1.0 - v),
        },
        270: {
            "cdf": u - base.cdf(u, 1.0 - v),
            "du": 1.0 - base.du(u, 1.0 - v),
            "dv": base.dv(u, 1.0 - v),
            "pdf": base.pdf(u, 1.0 - v),
        },
    }


@PROPERTY_SETTINGS
@given(st.one_of(claytons, gumbels).filter(lambda c: c.rotation != 0),
       st.lists(st.tuples(unit, unit), min_size=1, max_size=16))
def test_rotations_follow_textbook_identities(cop, points):
    u, v = np.array(points).T
    base = type(cop)(cop.theta)
    expected = _rotation_identities(base, u, v)[cop.rotation]
    for method, want in expected.items():
        np.testing.assert_allclose(getattr(cop, method)(u, v), want, rtol=0, atol=1e-12,
                                   err_msg=f"{cop!r}.{method}")


@PROPERTY_SETTINGS
@given(copulas, st.lists(st.tuples(unit, unit), min_size=1, max_size=16))
# a fit whose weights changed in the last bits when reloaded with renormalization
@example(fitted_checkerboard(0.5, 30, 32), [(p, 1.0 - p) for p in np.linspace(0.01, 0.99, 50)])
def test_serialization_round_trip_is_exact(cop, points):
    u, v = np.array(points).T
    clone = copula_from_dict(json.loads(json.dumps(cop.to_dict())))
    assert type(clone) is type(cop) and clone.rotation == cop.rotation
    for method in ("cdf", "du", "dv"):
        assert np.array_equal(getattr(clone, method)(u, v), getattr(cop, method)(u, v))


def brute_joint_cdf(data, x):
    """Share of the rows of ``data`` componentwise <= each row of ``x``, by broadcasting."""
    return np.array([(data <= q).all(axis=1).mean() for q in x])


joint_values = st.sampled_from([0.0, 0.0, 0.5, 1.0, -1.0]) | st.floats(-3.0, 3.0) | st.just(np.nan)


@st.composite
def joint_samples(draw):
    """Data with ties and an atom at 0, and query points on and off its rows."""
    n, d = draw(st.integers(1, 70)), draw(st.integers(1, 5))
    data = draw(arrays(float, (n, d), elements=joint_values))
    on = data[draw(st.lists(st.integers(0, n - 1), max_size=20))].reshape(-1, d)
    off = draw(arrays(float, (draw(st.integers(0, 20)), d), elements=joint_values))
    return data, np.vstack([on, off])


@PROPERTY_SETTINGS
@given(joint_samples())
def test_empirical_joint_cdf_equals_brute_force(sample):
    data, x = sample
    assert (empirical_joint_cdf(data, x) == brute_joint_cdf(data, x)).all()


def test_empirical_joint_cdf_equals_brute_force_across_query_blocks():
    # 5,003 rows: about 830 query points per 4 MB block, so 2,000 span three
    rng = np.random.default_rng(17)
    data = np.round(rng.normal(size=(5003, 3)), 1)
    data[data[:, 1] < 0.3, 1] = 0.0
    x = np.vstack([data[:1000], np.round(rng.normal(size=(1000, 3)), 2)])
    assert (empirical_joint_cdf(data, x) == brute_joint_cdf(data, x)).all()


MARGIN_ATOMS = {"interval": (-1.0, 0.5), "nonnegative": (1.25,), "zero_inflated": (0.0,)}


@st.composite
def margin_samples(draw):
    """A kind and a sample of it with atoms at the kind's atom values."""
    kind = draw(st.sampled_from(sorted(MARGIN_ATOMS)))
    n, share = draw(st.integers(30, 4_000)), draw(st.floats(0.0, 0.7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=n) if kind == "interval" else rng.gamma(2.0, size=n)
    atoms = MARGIN_ATOMS[kind]
    hit = rng.uniform(size=n) < share
    x[hit] = rng.choice(atoms, size=int(hit.sum()))
    return kind, x


@PROPERTY_SETTINGS
@given(margin_samples(), st.lists(unit, max_size=16))
def test_fitted_margin_quantile_inverts_cdf(sample, extra_levels):
    kind, x = sample
    m = fit_marginal(x, kind)
    jump_lo, jump_hi = np.asarray(m.cdf_left(m.atom_values)), np.asarray(m.cdf(m.atom_values))

    # F(Q(v)) = v off the atoms' jumps [F-(a), F(a)]
    v = np.concatenate([np.linspace(0.0, 1.0, 1_001)[1:-1], extra_levels])
    off = ~((v[:, None] >= jump_lo) & (v[:, None] <= jump_hi)).any(axis=1)
    assert np.abs(np.asarray(m.cdf(m.quantile(v[off]))) - v[off]).max(initial=0.0) <= 1e-12

    # Q(v) = a on each jump (F-(a), F(a)]
    for a, lo, hi in zip(m.atom_values, jump_lo, jump_hi):
        on = np.array([np.nextafter(lo, 1.0), 0.5 * (lo + hi), hi])
        assert (np.asarray(m.quantile(on)) == a).all()

    # Q(F(x)) <= x where 0 < F(x) < 1 (below the support Q(0) is the lowest
    # atom or -inf, and Q(1) is +inf), up to the x-resolution of the rounded
    # F, one float step of F over the density
    xs = np.concatenate([x, np.linspace(x.min() - 1.0, x.max() + 1.0, 501)])
    f = np.asarray(m.cdf(xs))
    xs, f = xs[(f > 0.0) & (f < 1.0)], f[(f > 0.0) & (f < 1.0)]
    with np.errstate(divide="ignore"):
        slack = 1e-12 * (1.0 + np.abs(xs)) + 1e-15 / np.asarray(m.density(xs))
    assert (np.asarray(m.quantile(f)) <= xs + slack).all()
