import numpy as np
import pytest
from scipy import stats

from conftest import PARAMETRIC_FAMILIES, analytic_uniform, analytic_zi_expon
from vinebc.correction import (
    CorrectionConfig,
    apply_correction,
    delta_map,
    fit_reference,
    ubc_correct,
    vbc_correct,
)
from vinebc.errors import EstimationError, SchemaError
from vinebc.evaluation import improvement_iw2, mci
from vinebc.marginal import fit_marginal

KINDS5 = ["interval", "zero_inflated", "zero_inflated", "nonnegative", "interval"]
CFG = CorrectionConfig(family_set=PARAMETRIC_FAMILIES, seed=0)


@pytest.mark.parametrize("family_set", [("gaussian", "bogus"), "gaussian", [], {"gaussian": 1}],
                         ids=["unknown", "bare_string", "empty", "mapping"])
def test_config_rejects_bad_family_set(family_set):
    with pytest.raises(ValueError, match="family_set must list families among"):
        CorrectionConfig(family_set=family_set)


@pytest.mark.parametrize("fraction", [True, "0.5", None, 1.5, float("nan")])
def test_config_rejects_bad_overlap_fraction(fraction):
    with pytest.raises(ValueError, match="overlap_fraction must be a number in"):
        CorrectionConfig(overlap_fraction=fraction)


def test_config_stores_family_set_as_tuple():
    assert CorrectionConfig(family_set=["gaussian", "frank"]).family_set == ("gaussian", "frank")


# -- delta mapping --------------------------------------------------------------


def test_delta_map_radiation_example_forces_additive():
    # projection quantile 200 vs calibration quantile 10: ratio 20, offset 190
    m_mp = analytic_uniform(0.0, 2000.0, kind="nonnegative")  # F_mp(200) = 0.1
    m_mc = analytic_uniform(0.0, 100.0, kind="nonnegative")   # Q_mc(0.1) = 10
    q = float(np.asarray(m_mc.quantile(np.asarray(m_mp.cdf(200.0)))))
    assert q == pytest.approx(10.0, abs=1e-9)
    assert 200.0 / q == pytest.approx(20.0)          # multiplicative discrepancy
    assert 200.0 - q == pytest.approx(190.0)         # additive discrepancy
    out = delta_map(100.0, 200.0, m_mc, m_mp, nonnegative=True)
    assert out == pytest.approx(100.0 + 190.0)       # ratio >= 1 forces additive


def test_delta_map_multiplicative_branch():
    m_mp = analytic_uniform(0.0, 200.0, kind="nonnegative")   # F_mp(50) = 0.25
    m_mc = analytic_uniform(0.0, 400.0, kind="nonnegative")   # Q_mc(0.25) = 100
    out = delta_map(40.0, 50.0, m_mc, m_mp, nonnegative=True)
    assert out == pytest.approx(40.0 * 0.5)


def test_delta_map_interval_always_additive():
    m_mp = analytic_uniform(0.0, 1.0)
    m_mc = analytic_uniform(0.0, 1.6)
    out = delta_map(1.0, 0.5, m_mc, m_mp, nonnegative=False)
    assert out == pytest.approx(0.7)  # 1.0 + (0.5 - 0.8)


def test_delta_map_zero_denominator_forces_additive():
    m_mp = analytic_zi_expon(0.5)
    m_mc = analytic_zi_expon(0.6)
    # x_mp = 0: atom maps into the calibration atom; discrepancy is zero
    assert delta_map(0.7, 0.0, m_mc, m_mp, nonnegative=True) == pytest.approx(0.7)


def test_delta_map_multiplicative_never_negative_bulk():
    rng = np.random.default_rng(5)
    m_mp = analytic_zi_expon(0.3, scale=2.0)
    m_mc = analytic_zi_expon(0.4, scale=1.0)
    x_hat = rng.exponential(size=100_000)
    x_mp = np.where(rng.uniform(size=100_000) < 0.3, 0.0, rng.exponential(2.0, size=100_000))
    out = delta_map(x_hat, x_mp, m_mc, m_mp, nonnegative=True)
    assert np.all(out >= 0.0)


# -- fixtures ---------------------------------------------------------------------


def _null_data(truth5, seed, n=4000):
    return (
        truth5.sample(n, seed * 10 + 3),
        truth5.sample(n, seed * 10 + 1),
        truth5.sample(n, seed * 10 + 4),
    )


# -- vbc -------------------------------------------------------------------------


def test_vbc_null_bias_two_sample_and_mci(truth5):
    x_mp, x_rc, x_mc = _null_data(truth5, seed=1)
    corr = vbc_correct(x_mp, x_rc, x_mc, KINDS5, CFG.with_seed(1))
    assert corr.values.shape == x_mp.shape
    for j in range(5):
        ks = stats.ks_2samp(corr.values[:, j], x_rc[:, j]).statistic
        assert ks < 0.05, f"margin {j}: KS {ks:.3f}"
    _, m = mci(x_mp, corr.values)
    assert m < 0.05


def test_vbc_synthetic_bias_improves(truth5, biased5):
    x_rc = truth5.sample(4000, 11)
    x_rp = truth5.sample(4000, 12)
    x_mp = biased5.sample(4000, 13)
    x_mc = biased5.sample(4000, 14)
    corr = vbc_correct(x_mp, x_rc, x_mc, KINDS5, CFG.with_seed(2))
    assert improvement_iw2(corr.values, x_mp, x_rp, seed=3) > 0
    share = (corr.values[:, 1] == 0.0).mean()
    ref_share = (x_rc[:, 1] == 0.0).mean()
    assert share == pytest.approx(ref_share, abs=0.02)


def test_vbc_alignment_nonnegativity_determinism(truth5, biased5):
    x_rc = truth5.sample(2000, 21)
    x_mp = biased5.sample(2000, 22)
    x_mc = biased5.sample(2000, 23)
    a = vbc_correct(x_mp, x_rc, x_mc, KINDS5, CFG.with_seed(9))
    b = vbc_correct(x_mp, x_rc, x_mc, KINDS5, CFG.with_seed(9))
    c = vbc_correct(x_mp, x_rc, x_mc, KINDS5, CFG.with_seed(10))
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert len(a) == len(x_mp)
    for j, kind in enumerate(KINDS5):
        if kind != "interval":
            assert np.all(a.values[:, j] >= 0.0)


def test_vbc_schema_mismatch_raises(truth5):
    x = truth5.sample(500, 31)
    with pytest.raises(SchemaError):
        vbc_correct(x, x[:, :4], x, KINDS5, CFG)


@pytest.mark.parametrize("which", ["projection", "reference", "calibration"])
@pytest.mark.parametrize("corrector", [vbc_correct, ubc_correct], ids=["vbc", "ubc"])
def test_correctors_reject_one_dimensional_rows(corrector, which):
    x = np.random.default_rng(44).normal(size=(200, 2))
    rows = {"projection": x, "reference": x, "calibration": x, which: x[:, 0]}
    with pytest.raises(SchemaError, match=f"{which} rows must be a 2-d array"):
        corrector(rows["projection"], rows["reference"], rows["calibration"],
                  ["interval"] * 2, CFG)


@pytest.mark.parametrize("shape", ["one_dimensional", "wrong_width"])
@pytest.mark.parametrize("corrector", [vbc_correct, ubc_correct], ids=["vbc", "ubc"])
def test_correctors_check_the_projection_before_any_fit(monkeypatch, corrector, shape):
    import vinebc.correction

    def no_fit(*args, **kwargs):
        raise AssertionError("fitted before the projection rows were checked")

    monkeypatch.setattr(vinebc.correction, "fit_vine", no_fit)
    monkeypatch.setattr(vinebc.correction, "fit_marginal", no_fit)
    x = np.random.default_rng(45).normal(size=(200, 2))
    x_mp = {"one_dimensional": x[:, 0], "wrong_width": np.column_stack([x, x[:, 0]])}[shape]
    with pytest.raises(SchemaError, match="projection"):
        corrector(x_mp, x, x, ["interval"] * 2, CFG)


@pytest.mark.parametrize("method, corrector", [("vbc", vbc_correct), ("ubc", ubc_correct)])
def test_correctors_are_the_two_steps(truth5, biased5, method, corrector):
    """A corrector gives bit for bit what its two steps give by hand, and one
    reference fit serves several projection sets, as it serves every member of
    a chunk in ``vinebc correct``."""
    x_rc, x_mc, x_mp = truth5.sample(1500, 51), biased5.sample(1500, 52), biased5.sample(1200, 53)
    cfg = CFG.with_seed(4)
    reference = fit_reference(method, x_rc, x_mc, KINDS5, cfg)
    for rows in (slice(0, 600), slice(600, 1200)):
        by_hand = apply_correction(x_mp[rows], reference, cfg)
        whole = corrector(x_mp[rows], x_rc, x_mc, KINDS5, cfg).values
        assert by_hand.tobytes() == whole.tobytes()
    with pytest.raises(SchemaError):
        apply_correction(x_mp[:, :4], reference, cfg)
    with pytest.raises(ValueError, match="unknown method"):
        fit_reference("qm", x_rc, x_mc, KINDS5, cfg)


def test_apply_correction_corrects_the_rows_at_the_given_positions(truth5, biased5):
    """The projection model is fitted to every row of ``x_fit``, and only the
    rows at ``rows`` are corrected, in that order."""
    x_rc, x_mc, x_fit = truth5.sample(1200, 54), biased5.sample(1200, 55), biased5.sample(900, 56)
    cfg = CFG.with_seed(5)
    # UBC corrects each row on its own, so a subset is the whole correction's rows
    ubc = fit_reference("ubc", x_rc, x_mc, KINDS5, cfg)
    rows = np.array([899, 4, 4, 300, 0, 517, 300])
    subset = apply_correction(x_fit, ubc, cfg, rows=rows)
    assert subset.tobytes() == apply_correction(x_fit, ubc, cfg)[rows].tobytes()
    # VBC draws one noise row per corrected row: every position, in order, is
    # the default
    vbc = fit_reference("vbc", x_rc, x_mc, KINDS5, cfg)
    every = apply_correction(x_fit, vbc, cfg, rows=np.arange(len(x_fit)))
    assert every.tobytes() == apply_correction(x_fit, vbc, cfg).tobytes()


@pytest.mark.parametrize("rows", [None, np.array([0, 1, 2])], ids=["all", "without_it"])
def test_vbc_rejects_non_finite_projection_rows(truth5, biased5, rows):
    # the projection vine is fitted to every row, so a non-finite row fails the
    # fit whether or not it is among the corrected rows
    reference = fit_reference("vbc", truth5.sample(800, 61), biased5.sample(800, 62), KINDS5, CFG)
    bad = biased5.sample(600, 63)
    bad[5, 0] = np.nan
    with pytest.raises(EstimationError, match="sample contains non-finite values"):
        apply_correction(bad, reference, CFG, rows=rows)


# -- ubc -------------------------------------------------------------------------


def test_ubc_rank_preservation_exact_and_identity():
    rng = np.random.default_rng(41)
    n = 2000
    x_mp = rng.normal(size=(n, 1)) * 3.0 + 2.0
    x_rc = rng.normal(size=(n, 1)) * 1.5 - 1.0
    corr = ubc_correct(x_mp, x_rc, x_mp, ["interval"], CFG)
    assert np.array_equal(stats.rankdata(x_mp[:, 0]), stats.rankdata(corr.values[:, 0]))
    # quantile-matching identity off atoms
    m_rc = fit_marginal(x_rc[:, 0], "interval")
    m_mp = fit_marginal(x_mp[:, 0], "interval")
    u = np.asarray(m_mp.cdf(x_mp[:, 0]))
    x_hat = np.asarray(m_rc.quantile(u))
    assert np.abs(np.asarray(m_rc.cdf(x_hat)) - u).max() < 1e-6


def test_ubc_null_bias_margins_close(truth5):
    x_mp, x_rc, x_mc = _null_data(truth5, seed=5)
    corr = ubc_correct(x_mp, x_rc, x_mc, KINDS5, CFG.with_seed(5))
    for j in range(5):
        ks = stats.ks_2samp(corr.values[:, j], x_rc[:, j]).statistic
        assert ks < 0.05, f"margin {j}: KS {ks:.3f}"


def test_ubc_preserves_ranks_through_delta_on_zero_inflated(truth5):
    x_mp, x_rc, _ = _null_data(truth5, seed=6, n=1500)
    corr = ubc_correct(x_mp, x_rc, x_mp, KINDS5, CFG.with_seed(6))
    j = 1  # zero-inflated margin: ranks preserved off the atom
    pos = x_mp[:, j] > 0
    rho = stats.spearmanr(x_mp[pos, j], corr.values[pos, j]).statistic
    assert rho == pytest.approx(1.0, abs=1e-12)


# -- vbc/ubc equivalence under forced independence -----------------------------------


def test_vbc_independence_vines_match_ubc_off_atoms(truth5):
    x_mp, x_rc, x_mc = _null_data(truth5, seed=7, n=2000)
    cfg = CorrectionConfig(family_set=("independence",), seed=3)
    v = vbc_correct(x_mp, x_rc, x_mc, KINDS5, cfg)
    u = ubc_correct(x_mp, x_rc, x_mc, KINDS5, cfg)
    for j, kind in enumerate(KINDS5):
        rows = x_mp[:, j] > 0 if kind != "interval" else np.ones(len(x_mp), bool)
        assert np.abs(v.values[rows, j] - u.values[rows, j]).max() < 1e-6
