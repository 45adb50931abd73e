"""Property tests for the pair-copula layer, the fitted margins, the
empirical joint CDF and the CSV round trip of a table.

Pair-copula strategies are bounded to these parameter ranges:

* Gaussian rho in [-0.999, 0.999], Clayton theta in [0.05, 50], Gumbel theta
  in [1, 50] (the fitted ranges), Frank theta in [-35, -0.1] or [0.1, 35];
  checkerboards of 2 to 32 cells a side fitted to 300 draws of a Gaussian
  copula with rho in [-0.95, 0.95].
* Continuous conditioners u in [0.01, 0.99].  Discrete conditioners have a
  jump in [1e-3, 0.3] (well above ``MIN_DISCRETE_MASS``) placed anywhere in
  [0, 1].
* Targets v and evaluation points in [1e-6, 1 - 1e-6].
* Generalized-density points hold every discreteness pattern of (a, b); a
  continuous coordinate lies in [1e-6, 1 - 1e-6], a discrete one has a jump
  in [1e-6, 0.3] placed anywhere in [0, 1].
* Rows against the un-skipped evaluation of a jump's zero left end are
  continuous in [1e-6, 1 - 1e-6], discrete with a jump in [1e-3, 0.3] and a
  left end in [0, 0.7], or discrete with u_left = 0 and u in [1e-3, 0.6].
  Jittered pairs have 2 to 24 rows drawn from five continuous values, a
  continuous value of the row's own in [0.06, 0.94] and, on a side that
  holds atoms, five jumps, one of them starting at 0; the least value (0.05)
  and the greatest (0.95) each hold a continuous row and a jump.

Randomized-PIT samples have 5 to 27 rows of an interval margin with an atom
of mass [0.01, 0.6] at 0.5 inside its support (a normal on 13 knots), with
noise in [0, 1] that includes 0 and 1.

Margin samples have 30 to 4,000 draws of a normal (interval) or a gamma(2)
(nonnegative and zero-inflated) variable, of which a share in [0, 0.7] is set
to the atoms: -1 and 0.5 (interval), 1.25 (nonnegative) or 0 (zero-inflated).

Joint-CDF samples have 1 to 70 rows of 1 to 5 columns, drawn from a few
repeated values (0 among them, as an atom), floats in [-3, 3] and NaN.

Points where a copula and its transpose are compared have coordinates in
[1e-6, 1 - 1e-6] or at 0 or 1, and levels in [1e-6, 1 - 1e-6].

Float64 arrays written as model-record text have 0 to 40 values of any bit
pattern (every NaN payload, both infinities, -0.0 and the subnormals among
them), in 1 or 2 dimensions.

Climate tables written to CSV and read back have 1 to 3 interval variables
holding any finite float (-0.0, the smallest subnormal and the largest float
among them), 1 to 3 members and timestamps anywhere in years 1 to 9999.
"""
import base64
import json
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
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
    _h_jump,
    _oriented,
    _safeguarded_newton,
    copula_from_dict,
    gen_density,
    hfunc,
    hfunc_inverse,
    randomize_pseudo,
)
from vinebc._util import decode_f8, encode_f8
from vinebc.cli import write_table_csv
from vinebc.dataset import ALL_CHUNK_KEYS, ClimateTable, VariableSpec, load_table
from vinebc.evaluation import empirical_joint_cdf, empirical_randomized_pit
from vinebc.marginal import GridDensity, MixtureMarginal, fit_marginal, randomized_pit
from vinebc.vine import VineModel, VineStructure, rosenblatt_forward

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
    assert np.abs(hfunc(cop, direction, t, cond) - v).max() <= 1e-9


def test_frank_inverse_holds_at_large_theta():
    # near (1, 1) the textbook Frank h cancels to ~1e-11; at theta 30 its
    # inverse used to raise NumericsError
    cond = PseudoObs(np.full(2, 0.9895661040119913))
    v = np.array([0.5, 1.0 - 1e-6])
    for theta in (26.0, 30.0, 35.0):
        cop = FrankCopula(theta)
        for direction in (1, 2):
            t = hfunc_inverse(cop, direction, v, cond)
            assert np.abs(hfunc(cop, direction, t, cond) - v).max() <= 1e-9


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
                    assert np.abs(hfunc(cop, direction, t, cond) - v).max() <= 1e-9


@st.composite
def coordinates(draw, discrete):
    """One coordinate as (u, u_left): continuous, or a jump of at least 1e-6."""
    if not discrete:
        u = draw(unit)
        return u, u
    jump = draw(st.floats(1e-6, 0.3))
    left = draw(st.floats(0.0, 1.0 - jump))
    return left + jump, left


@st.composite
def mixed_pairs(draw):
    """Points (a, b) holding every discreteness pattern at least once."""
    pairs = [(draw(coordinates(da)), draw(coordinates(db)))
             for da in (False, True) for db in (False, True)]
    pairs += draw(st.lists(st.tuples(coordinates(True) | coordinates(False),
                                     coordinates(True) | coordinates(False)), max_size=12))
    (au, al), (bu, bl) = (np.array(c).T for c in zip(*pairs))
    return PseudoObs(au, al), PseudoObs(bu, bl)


def four_branch_density(cop, a, b):
    """The generalized density by discreteness pattern: the rectangle
    probability over both jumps, a differenced partial derivative over one
    jump, or the copula density.  The rectangle is summed as two differences
    of neighbouring CDF values, each exact in floating point."""
    ga, gb = a.u - a.u_left, b.u - b.u_left
    da, db = ga > 0.0, gb > 0.0
    ga, gb = np.where(da, ga, 1.0), np.where(db, gb, 1.0)
    rect = ((cop.cdf(a.u, b.u) - cop.cdf(a.u, b.u_left))
            - (cop.cdf(a.u_left, b.u) - cop.cdf(a.u_left, b.u_left)))
    return np.select(
        [da & db, da, db],
        [rect / (ga * gb), (cop.dv(a.u, b.u) - cop.dv(a.u_left, b.u)) / ga,
         (cop.du(a.u, b.u) - cop.du(a.u, b.u_left)) / gb],
        cop.pdf(a.u, b.u))


@PROPERTY_SETTINGS
@given(copulas, mixed_pairs())
def test_gen_density_is_the_jump_of_h_over_the_discrete_coordinate(cop, pair):
    a, b = pair
    got = gen_density(cop, a, b)
    assert np.all(got >= 0.0)
    want = np.maximum(four_branch_density(cop, a, b), 0.0)
    # Both forms divide differences of the same CDF values (or partial
    # derivatives) by the jumps, so they can differ by the rounding of those
    # values, 4 ulps of 1 for each of four, over the product of the jumps: at
    # two jumps of 1e-6 that floor is 3.5e-3, and near-flat rectangles there
    # come out as 0 in one form and 8e-10 in the other.
    ga, gb = (np.where(p.discrete, p.u - p.u_left, 1.0) for p in (a, b))
    floor = 16.0 * np.finfo(float).eps / (ga * gb)
    assert np.all(np.abs(got - want) <= 1e-9 * np.abs(want) + 1e-12 + floor)


@st.composite
def jump_rows(draw, min_size=1):
    """Rows (u, u_left) that are continuous, discrete anywhere in [0, 1], or
    discrete with u_left = 0 (an atom at the bottom of the support)."""
    continuous = unit.map(lambda u: (u, u))
    anywhere = st.tuples(st.floats(1e-3, 0.3), st.floats(0.0, 0.7)).map(
        lambda p: (p[1] + p[0], p[1]))
    at_zero = st.floats(1e-3, 0.6).map(lambda j: (j, 0.0))
    rows = draw(st.lists(continuous | anywhere | at_zero, min_size=min_size, max_size=16))
    u, u_left = np.array(rows).T
    return PseudoObs(u, u_left)


def full_hfunc(cop, direction, t, cond):
    """``hfunc`` with every term evaluated: the copula CDF at both ends of every
    discrete conditioner's jump, at a zero left end too."""
    cdf, h, _, _ = _oriented(cop, direction)
    t, cu, cl = np.broadcast_arrays(np.clip(t, 0.0, 1.0), cond.u, cond.u_left)
    gap = cu - cl
    disc = gap > 0.0
    out = np.empty_like(t)
    if np.any(~disc):
        out[~disc] = h(t[~disc], cu[~disc])
    if np.any(disc):
        out[disc] = (cdf(t[disc], cu[disc]) - cdf(t[disc], cl[disc])) / gap[disc]
    out = np.where(t <= 0.0, 0.0, out)
    out = np.where(t >= 1.0, 1.0, out)
    return np.clip(out, 0.0, 1.0)


@PROPERTY_SETTINGS
@given(copulas, st.sampled_from((1, 2)), st.data())
def test_skipped_zero_ends_leave_h_and_its_inverse_bit_identical(cop, direction, data):
    target = data.draw(jump_rows())
    n = len(target)
    cond = data.draw(jump_rows(min_size=n).map(lambda c: c[:n]))
    assert np.array_equal(hfunc(cop, direction, target.u, cond),
                          full_hfunc(cop, direction, target.u, cond))

    # h at both ends of the target's jump, a zero left end evaluated too
    got = _h_jump(cop, direction, target, cond)
    want_u = full_hfunc(cop, direction, target.u, cond)
    want_ul = np.where(target.discrete, full_hfunc(cop, direction, target.u_left, cond), want_u)
    assert np.array_equal(got.u, want_u)
    assert np.array_equal(got.u_left, np.minimum(want_ul, want_u))

    # the inverse: the same Newton on the fully evaluated difference quotient
    cdf, _, slope, h_inverse = _oriented(cop, direction)

    def full_h_and_slope(t, cu, cl):
        gap = cu - cl
        return (cdf(t, cu) - cdf(t, cl)) / gap, (slope(t, cu) - slope(t, cl)) / gap

    v = np.clip(target.u, 1e-6, 1.0 - 1e-6)
    cu, cl = cond.u, cond.u_left
    disc = cond.discrete
    want = np.empty_like(v)
    want[~disc] = h_inverse(v[~disc], cu[~disc])
    if np.any(disc):
        mid = 0.5 * (cu[disc] + cl[disc])
        want[disc] = _safeguarded_newton(full_h_and_slope, v[disc], h_inverse(v[disc], mid),
                                         0.0, 1.0, cu[disc], cl[disc])
    assert np.array_equal(hfunc_inverse(cop, direction, v, cond), want)


class FixedNoise:
    """Stands in for a numpy Generator whose ``uniform`` returns the given noise."""

    def __init__(self, noise):
        self.noise = noise

    def uniform(self, size):
        assert np.shape(self.noise) == tuple(np.atleast_1d(size))
        return self.noise


@st.composite
def tied_pairs(draw):
    """Pairs of 2 to 24 rows whose values repeat: each side is all continuous
    or holds discrete rows, some of them with u_left = 0.  A run of equal u
    holds continuous rows, discrete rows or both (one u, different u_left),
    also at the least and the greatest u; other rows take a value of their own."""
    n = draw(st.integers(2, 24))

    def side():
        values = [(u, u) for u in (0.05, 0.2, 0.5, 0.7, 0.95)]
        if draw(st.booleans()):
            values += [(0.05, 0.0), (0.3, 0.0), (0.5, 0.3), (0.9, 0.7), (0.95, 0.6)]
        own = st.floats(0.06, 0.94).map(lambda u: (u, u))
        rows = draw(st.lists(st.sampled_from(values) | own, min_size=n, max_size=n))
        u, u_left = np.array(rows).T
        return PseudoObs(u, u_left)

    return side(), side()


@PROPERTY_SETTINGS
@given(tied_pairs())
# runs of a.u at the first and the last sorted positions, each mixing
# continuous and discrete rows, around a continuous run and a lone row
@example((PseudoObs([0.95, 0.05, 0.4, 0.05, 0.95, 0.4, 0.6, 0.05, 0.95],
                    [0.6, 0.05, 0.4, 0.0, 0.95, 0.4, 0.6, 0.05, 0.6]),
          PseudoObs([0.5, 0.5, 0.2, 0.5, 0.5, 0.2, 0.9, 0.3, 0.5],
                    [0.3, 0.5, 0.2, 0.0, 0.3, 0.2, 0.7, 0.0, 0.5])))
@example((PseudoObs([0.7, 0.7, 0.2, 0.2], [0.7, 0.7, 0.2, 0.2]),
          PseudoObs([0.9, 0.3, 0.9, 0.3], [0.7, 0.0, 0.9, 0.3])))
def test_jitter_follows_the_four_key_order(pair):
    a, b = pair
    noise = np.linspace(0.01, 0.99, 2 * len(a)).reshape(2, -1)
    order = np.lexsort((b.u_left, b.u, a.u_left, a.u))
    by_row = np.empty_like(noise)
    by_row[:, order] = noise
    x, y = randomize_pseudo(a, b, FixedNoise(noise))
    assert np.array_equal(x, a.randomized(by_row[0]))
    assert np.array_equal(y, b.randomized(by_row[1]))


def _normal_grid_density():
    knots = np.linspace(-3.0, 3.0, 13)
    return GridDensity(knots, stats.norm.pdf(knots), 0.5, 0.5)


@st.composite
def atom_rows_and_noise(draw):
    """Rows of an interval margin with an interior atom at 0.5, some of them
    on the atom, and noise in [0, 1] that includes 0 and 1."""
    mass = draw(st.floats(0.01, 0.6))
    margin = MixtureMarginal([(0.5, mass)], _normal_grid_density(), "interval")
    off = st.floats(-5.0, 5.0).filter(lambda v: v != 0.5)
    x = draw(st.lists(st.just(0.5) | off, min_size=2, max_size=24))
    x = np.array(x + [0.5, 0.5, 0.0])
    noise = draw(st.lists(st.floats(0.0, 1.0), min_size=x.size - 2, max_size=x.size - 2))
    return margin, x, np.array(noise + [0.0, 1.0])


@PROPERTY_SETTINGS
@given(atom_rows_and_noise())
def test_every_randomized_pit_is_the_pseudo_obs_one(sample):
    margin, x, w = sample
    po = margin.pseudo_obs(x)
    assert np.all(po.u_left[x == 0.5] > 0.0)  # the atom lies inside the support
    want = po.randomized(w)
    assert np.all((po.u_left <= want) & (want <= po.u))
    assert np.array_equal(want[~po.discrete], po.u[~po.discrete])

    assert np.array_equal(randomized_pit(margin, x, w), want)
    model = VineModel(margins=[margin], structure=VineStructure(d=1, trees=[]))
    assert np.array_equal(rosenblatt_forward(model, x[:, None], w[:, None])[:, 0], want)

    # randomize_pseudo hands out its noise in lexicographic order of the rows
    other = PseudoObs(po.u[::-1], po.u_left[::-1])
    noise = np.stack([w, w[::-1]])
    order = np.lexsort((other.u_left, other.u, po.u_left, po.u))
    by_row = np.empty_like(noise)
    by_row[:, order] = noise
    x_j, y_j = randomize_pseudo(po, other, FixedNoise(noise))
    assert np.array_equal(x_j, po.randomized(by_row[0]))
    assert np.array_equal(y_j, other.randomized(by_row[1]))

    # the empirical PIT of a column: its jump is [#{< x}, #{<= x}] / n
    col = np.round(x, 1)
    n = col.size
    emp = PseudoObs((col[None, :] <= col[:, None]).sum(axis=1) / n,
                    (col[None, :] < col[:, None]).sum(axis=1) / n)
    with mock.patch.object(np.random, "default_rng", return_value=FixedNoise(w)):
        pit = empirical_randomized_pit(col[:, None], seed=0)[:, 0]
    assert np.array_equal(pit, emp.randomized(w))
    assert np.all((emp.u_left <= pit) & (pit <= emp.u))


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


def _transpose(cop):
    """The copula of (V, U), whose CDF at (u, v) is cop's at (v, u)."""
    if isinstance(cop, CheckerboardCopula):
        return CheckerboardCopula(cop.weights.T)
    if isinstance(cop, (ClaytonCopula, GumbelCopula)):
        return type(cop)(cop.theta, rotation={90: 270, 270: 90}.get(cop.rotation, cop.rotation))
    return cop  # the exchangeable families


@PROPERTY_SETTINGS
@given(copulas, st.lists(st.tuples(st.sampled_from((0.0, 1.0)) | unit,
                                   st.sampled_from((0.0, 1.0)) | unit, unit),
                         min_size=1, max_size=16))
def test_transposing_a_copula_swaps_its_partials_bit_for_bit(cop, points):
    u, v, w = np.array(points).T
    t = _transpose(cop)
    pairs = {"dv": (cop.dv(u, v), t.du(v, u)), "du": (cop.du(u, v), t.dv(v, u)),
             "dv_inverse": (cop.dv_inverse(v, w), t.du_inverse(v, w)),
             "du_inverse": (cop.du_inverse(u, w), t.dv_inverse(u, w))}
    for name, (got, want) in pairs.items():
        assert got.tobytes() == want.tobytes(), f"{cop!r}.{name}"


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


float64_bits = arrays(np.uint64, st.one_of(st.integers(0, 40), st.tuples(st.integers(0, 6),
                                                                        st.integers(0, 6))),
                     elements=st.integers(0, 2**64 - 1))


@PROPERTY_SETTINGS
@given(float64_bits)
@example(np.array([0x8000000000000000, 1, 0x000FFFFFFFFFFFFF, 0x7FF0000000000000,
                   0xFFF0000000000000, 0x7FF8000000000000, 0x7FF0000000000001,
                   0xFFFFFFFFFFFFFFFF], dtype=np.uint64))
def test_array_text_round_trips_bit_for_bit(bits):
    """Bits: -0.0, the least subnormal, the greatest subnormal, +inf, -inf, the
    quiet NaN, a signalling NaN and a negative NaN with every payload bit set."""
    a = bits.view(np.float64)
    text = encode_f8(a)
    assert isinstance(text, str)
    back = decode_f8(json.loads(json.dumps(text)))
    assert back.dtype == np.float64 and back.shape == (a.size,)
    assert np.array_equal(back.view(np.uint64), bits.ravel())


def test_array_text_rejects_what_it_cannot_have_written():
    for bad in ("not base64!", "AAAA=AAA", "é", ["AAAAAAAAAAA="], None):
        with pytest.raises(ValueError, match="base64"):
            decode_f8(bad)
    with pytest.raises(ValueError, match="multiple of 8"):
        decode_f8(base64.b64encode(bytes(12)).decode("ascii"))
    record = {"family": "checkerboard", "weights": encode_f8(np.full(5, 0.2))}
    with pytest.raises(ValueError, match="square"):
        copula_from_dict(record)


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


def test_empirical_joint_cdf_equals_brute_force_across_row_word_blocks():
    # 6,000 rows take 94 row words, and a 4 MB table with a row for each of
    # the 6,000 queries holds 87, so every column's rows span two word blocks
    rng = np.random.default_rng(18)
    data = rng.normal(size=(6000, 3))
    data[:, 1] = np.round(data[:, 1], 1)  # ties
    data[data[:, 2] < 0.2, 2] = 0.0  # an atom
    x = data.copy()
    x[::97, 1] = np.nan
    assert (empirical_joint_cdf(data, x) == brute_joint_cdf(data, x)).all()


def searchsorted_pit(x, seed):
    """The oracle: each column's jump from one sort and two searchsorted calls."""
    n, d = x.shape
    rng = np.random.default_rng(seed)
    u = np.empty_like(x)
    for j in range(d):
        srt = np.sort(x[:, j])
        hi = np.searchsorted(srt, x[:, j], side="right") / n
        lo = np.searchsorted(srt, x[:, j], side="left") / n
        u[:, j] = PseudoObs(hi, lo).randomized(rng.uniform(size=n))
    return u


@PROPERTY_SETTINGS
@given(st.integers(1, 300).flatmap(lambda n: arrays(float, (n, 2), elements=joint_values)),
       st.integers(0, 2**32 - 1))
def test_empirical_randomized_pit_equals_searchsorted_formula(x, seed):
    assert np.array_equal(empirical_randomized_pit(x, seed=seed), searchsorted_pit(x, seed))


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


FIRST_SECOND = int(np.datetime64("0001-01-01T00:00:00", "s").astype(np.int64))
LAST_SECOND = int(np.datetime64("9999-12-31T23:59:59", "s").astype(np.int64))
EDGE_FLOATS = (-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308)


@st.composite
def climate_tables(draw):
    """A table of 1 to 3 interval variables and 1 to 3 members, each with 1 to 12
    distinct timestamps anywhere in years 1 to 9999, with provenance columns."""
    d = draw(st.integers(1, 3))
    members = draw(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=3, unique=True))
    seconds = [sorted(draw(st.lists(st.integers(FIRST_SECOND, LAST_SECOND), min_size=1,
                                    max_size=12, unique=True))) for _ in members]
    n = sum(map(len, seconds))
    cells = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
    values = draw(arrays(float, (n, d), elements=cells))
    table = ClimateTable([VariableSpec(f"v{j}", "interval") for j in range(d)],
                         np.concatenate(seconds).astype("datetime64[s]"),
                         np.repeat(members, list(map(len, seconds))), values)
    extra = {"chunk": np.array(draw(st.lists(st.sampled_from([k.label for k in ALL_CHUNK_KEYS]),
                                             min_size=n, max_size=n)), dtype=object),
             "method": np.full(n, "vbc", dtype=object),
             "unit_seed": np.array(draw(st.lists(st.integers(0, 2**63 - 1), min_size=n,
                                                 max_size=n)), dtype=np.int64)}
    return table, extra


@PROPERTY_SETTINGS
@given(climate_tables())
def test_written_table_loads_bit_identical(sample):
    table, extra = sample
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.csv")
        write_table_csv(path, table, extra)
        loaded = load_table(path, table.variables)
    assert loaded.timestamps.dtype == table.timestamps.dtype
    assert np.array_equal(loaded.timestamps, table.timestamps)
    assert np.array_equal(loaded.members, table.members)
    assert np.array_equal(loaded.values.view(np.uint64), table.values.view(np.uint64))
