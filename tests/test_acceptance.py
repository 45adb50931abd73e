"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
per-criterion lines and timings inline).
"""
import hashlib
import json
import time

import numpy as np
import pytest
from scipy import stats

from conftest import PARAMETRIC_FAMILIES, GroundTruth5, TAU5, analytic_uniform, analytic_zi_expon
from test_vine import _count_vines_by_enumeration
from vinebc.cli import EXIT_OK, run_pipeline
from vinebc.copula import (
    CheckerboardCopula,
    ClaytonCopula,
    GaussianCopula,
    PseudoObs,
    gen_density,
    hfunc,
)
from vinebc.correction import CorrectionConfig, delta_map, ubc_correct, vbc_correct
from vinebc.evaluation import copula_iw2, improvement_iw2, mci, wasserstein2
from vinebc.marginal import fit_marginal
from vinebc.vine import (
    count_structures,
    fit_vine,
    rosenblatt_forward,
    rosenblatt_inverse,
    vine_sample,
)

KINDS5 = list(GroundTruth5.KINDS)


def _report(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# -- criterion 1: generalized-density normalization ---------------------------------


def _mixture_mass_by_quadrature(copula, n_nodes=200):
    """Atom terms plus tensor quadrature of the mixed density f1*f2*c.

    Margins are 0.4*delta_0 + 0.6*Exp(1).  Substituting each continuous
    coordinate by its quantile removes the marginal densities from the
    integrand, leaving plain averages of the generalized copula density over
    quantile space.
    """
    m1 = analytic_zi_expon(0.4)
    m2 = analytic_zi_expon(0.4)
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    s = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    p1 = 0.4
    c1 = 0.6

    def pseudo_cont(m, sq):
        x = m.continuous.quantile(sq)
        return PseudoObs(np.asarray(m.cdf(x)))

    atom1 = PseudoObs(np.full(n_nodes, p1), np.zeros(n_nodes))
    atom2 = PseudoObs(np.full(n_nodes, p1), np.zeros(n_nodes))
    po1 = pseudo_cont(m1, s)
    po2 = pseudo_cont(m2, s)

    # atom x atom
    total = p1 * p1 * gen_density(copula, PseudoObs(p1, 0.0), PseudoObs(p1, 0.0))[0]
    # atom x continuous strips
    total += p1 * c1 * float(np.sum(w * gen_density(copula, atom1, po2)))
    total += c1 * p1 * float(np.sum(w * gen_density(copula, po1, atom2)))
    # continuous x continuous block
    uu = PseudoObs(np.repeat(po1.u, n_nodes))
    vv = PseudoObs(np.tile(po2.u, n_nodes))
    dens = gen_density(copula, uu, vv).reshape(n_nodes, n_nodes)
    total += c1 * c1 * float(w @ dens @ w)
    return total


def test_criterion_01_generalized_density_normalization():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    u = rng.uniform(size=(2000, 2))
    cases = {
        "gaussian rho=0": GaussianCopula(0.0),
        "gaussian rho=+0.5": GaussianCopula(0.5),
        "gaussian rho=-0.5": GaussianCopula(-0.5),
        "clayton theta=2": ClaytonCopula(2.0),
        "checkerboard m=32": CheckerboardCopula.fit(u[:, 0], u[:, 1], resolution=32),
    }
    details = []
    for name, cop in cases.items():
        total = _mixture_mass_by_quadrature(cop)
        details.append(f"{name}: {total:.5f}")
        assert total == pytest.approx(1.0, abs=1e-2), f"{name}: mass {total}"
    elapsed = time.perf_counter() - t0
    _report("criterion 1 (normalization)", elapsed < 10.0, f"{'; '.join(details)}; {elapsed:.1f}s")


# -- criterion 2: vine recursion vs direct bivariate formula --------------------------


def test_criterion_02_vine_matches_direct_bivariate():
    from vinebc.vine import Edge, VineModel, VineStructure
    from vinebc.vine import vine_log_density

    m1 = analytic_zi_expon(0.4)
    m2 = analytic_zi_expon(0.3, scale=2.0)
    cop = GaussianCopula(0.5)
    model = VineModel(
        margins=[m1, m2],
        structure=VineStructure(d=2, trees=[[Edge(a=0, b=1, cond=frozenset(), copula=cop)]]),
    )
    rng = np.random.default_rng(1)
    cont = rng.exponential(size=(100, 2))
    zeros = rng.uniform(size=(100, 2)) < 0.45
    pts = np.where(zeros, 0.0, cont)
    patterns = {(bool(a), bool(b)) for a, b in zeros}
    assert len(patterns) == 4, "need all four discreteness patterns"
    got = vine_log_density(model, pts)
    direct = np.empty(100)
    for i, (x1, x2) in enumerate(pts):
        a = PseudoObs(m1.cdf(x1), m1.cdf_left(x1))
        b = PseudoObs(m2.cdf(x2), m2.cdf_left(x2))
        direct[i] = (
            np.log(float(np.asarray(m1.density(x1))))
            + np.log(float(np.asarray(m2.density(x2))))
            + np.log(gen_density(cop, a, b)[0])
        )
    err = np.abs(got - direct).max()
    _report("criterion 2 (vine vs direct, 4 patterns)", err < 1e-10, f"max err {err:.2e}")


# -- criterion 3: h-function branch consistency ---------------------------------------


def test_criterion_03_h_difference_quotient_convergence():
    cop = GaussianCopula(0.5)
    target, c = 0.35, 0.6
    deriv = hfunc(cop, 1, target, PseudoObs(c))[0]
    errs = []
    for jump in (1e-2, 1e-4, 1e-6):
        got = hfunc(cop, 1, target, PseudoObs(c + jump, c))[0]
        errs.append(abs(got - deriv))
    ok = errs[0] > errs[1] > errs[2] and errs[2] < 1e-4
    _report("criterion 3 (h-function oracle)", ok,
            "errors " + " > ".join(f"{e:.2e}" for e in errs))


# -- criterion 4: randomized Rosenblatt uniformity ------------------------------------


def test_criterion_04_rosenblatt_uniformity_d5():
    t0 = time.perf_counter()
    truth = GroundTruth5(TAU5)
    x = truth.sample(6000, seed=40)
    model = fit_vine(x, KINDS5, family_set=PARAMETRIC_FAMILIES, seed=41)
    samp = vine_sample(model, 10_000, seed=42)
    noise = np.random.default_rng(43).uniform(size=samp.shape)
    v = rosenblatt_forward(model, samp, noise)
    ks = [stats.kstest(v[:, j], "uniform").statistic for j in range(5)]
    taus = [
        abs(stats.kendalltau(v[:, a], v[:, b]).statistic)
        for a in range(5)
        for b in range(a + 1, 5)
    ]
    elapsed = time.perf_counter() - t0
    ok = max(ks) < 0.015 and max(taus) < 0.03 and elapsed < 60.0
    _report(
        "criterion 4 (Rosenblatt uniformity)",
        ok,
        f"max KS {max(ks):.4f}, max |tau| {max(taus):.4f}, {elapsed:.1f}s",
    )


# -- criterion 5: forward/inverse round trip ------------------------------------------


def test_criterion_05_roundtrip_continuous():
    rng = np.random.default_rng(50)
    tau = np.array([[0.0, 0.5, 0.3], [0.5, 0.0, 0.4], [0.3, 0.4, 0.0]])
    r = np.sin(np.pi * tau / 2.0)
    np.fill_diagonal(r, 1.0)
    z = rng.multivariate_normal(np.zeros(3), r, size=4000)
    x = np.column_stack([z[:, 0], np.exp(0.5 * z[:, 1]), 2.0 * z[:, 2] + 1.0])
    model = fit_vine(x, ["interval", "nonnegative", "interval"],
                     family_set=PARAMETRIC_FAMILIES, seed=51)
    pts = x[:1000]
    w = rng.uniform(size=pts.shape)
    v = rosenblatt_forward(model, pts, w)
    back = rosenblatt_inverse(model, np.clip(v, 1e-12, 1.0 - 1e-12))
    err = np.abs(back - pts).max()
    _report("criterion 5 (round trip)", err < 1e-6, f"max err {err:.2e} on 1000 points")


# -- criterion 6: structure counting ---------------------------------------------------


def test_criterion_06_structure_counts():
    ok = count_structures(5) == 480
    enum4 = _count_vines_by_enumeration(4)
    ok = ok and count_structures(4) == 24 and enum4 == 24
    _report("criterion 6 (structure count)", ok,
            f"count(5)={count_structures(5)}, count(4)={count_structures(4)}, enumerated(4)={enum4}")


# -- criterion 7: delta mapping --------------------------------------------------------


def test_criterion_07_delta_mapping():
    m_mp = analytic_uniform(0.0, 2000.0, kind="nonnegative")
    m_mc = analytic_uniform(0.0, 100.0, kind="nonnegative")
    q = float(np.asarray(m_mc.quantile(np.asarray(m_mp.cdf(200.0)))))
    ratio, offset = 200.0 / q, 200.0 - q
    exact = ratio == pytest.approx(20.0, abs=1e-9) and offset == pytest.approx(190.0, abs=1e-9)
    additive = delta_map(100.0, 200.0, m_mc, m_mp, nonnegative=True) == pytest.approx(290.0)

    rng = np.random.default_rng(70)
    n = 100_000
    m_mp2 = analytic_zi_expon(0.3, scale=2.0)
    m_mc2 = analytic_zi_expon(0.45, scale=1.3)
    x_hat = rng.exponential(size=n)
    x_mp = np.where(rng.uniform(size=n) < 0.3, 0.0, rng.exponential(2.0, size=n))
    out = delta_map(x_hat, x_mp, m_mc2, m_mp2, nonnegative=True)
    nonneg = bool(np.all(out >= 0.0))
    _report(
        "criterion 7 (delta mapping)",
        exact and additive and nonneg,
        f"ratio={ratio:.1f}, offset={offset:.1f}, min corrected {out.min():.3g} over {n} cases",
    )


# -- criterion 8: end-to-end synthetic bias --------------------------------------------


@pytest.mark.slow
def test_criterion_08_synthetic_bias_end_to_end():
    t0 = time.perf_counter()
    truth = GroundTruth5(TAU5)
    biased = GroundTruth5(TAU5 * 0.5, shift_t=2.0, scale_w=1.3, inflation_p=0.5)
    n, n_seeds = 4000, 100
    iw2_pos = share_ok = copula_wins = 0
    for seed in range(n_seeds):
        cfg = CorrectionConfig(family_set=PARAMETRIC_FAMILIES, seed=seed)
        x_rc = truth.sample(n, seed * 10 + 1)
        x_rp = truth.sample(n, seed * 10 + 2)
        x_mp = biased.sample(n, seed * 10 + 3)
        x_mc = biased.sample(n, seed * 10 + 4)
        corr = vbc_correct(x_mp, x_rc, x_mc, KINDS5, cfg)
        ucorr = ubc_correct(x_mp, x_rc, x_mc, KINDS5, cfg)
        iw2_pos += improvement_iw2(corr.values, x_mp, x_rp, seed=seed) > 0.0
        share = (corr.values[:, 1] == 0.0).mean()
        share_ok += abs(share - (x_rc[:, 1] == 0.0).mean()) <= 0.02
        cop_v = copula_iw2(corr.values, x_mp, x_rp, seed=seed)
        cop_u = copula_iw2(ucorr.values, x_mp, x_rp, seed=seed)
        copula_wins += cop_v > cop_u
    elapsed = time.perf_counter() - t0
    ok = (
        iw2_pos >= 0.95 * n_seeds
        and share_ok >= 0.95 * n_seeds
        and copula_wins >= 0.90 * n_seeds
        and elapsed < 900.0
    )
    _report(
        "criterion 8 (synthetic bias, 100 seeds)",
        ok,
        f"IW2>0 in {iw2_pos}/{n_seeds}, share ok in {share_ok}/{n_seeds}, "
        f"copula VBC>UBC in {copula_wins}/{n_seeds}, {elapsed:.0f}s",
    )


# -- criterion 9: UBC rank preservation -------------------------------------------------


def test_criterion_09_ubc_rank_preservation():
    rng = np.random.default_rng(90)
    n = 3000
    x_mp = np.column_stack([rng.normal(2.0, 3.0, size=n), rng.exponential(2.0, size=n)])
    x_rc = np.column_stack([rng.normal(-1.0, 1.5, size=n), rng.exponential(0.7, size=n)])
    cfg = CorrectionConfig(seed=9)
    corr = ubc_correct(x_mp, x_rc, x_mp, ["interval", "nonnegative"], cfg)
    # Spearman from the exact rank-difference formula; identical ranks give 1.0
    rhos = []
    for j in range(2):
        d_ranks = stats.rankdata(x_mp[:, j]) - stats.rankdata(corr.values[:, j])
        rhos.append(1.0 - 6.0 * float(np.sum(d_ranks**2)) / (n * (n * n - 1.0)))
    m_rc = fit_marginal(x_rc[:, 0], "interval")
    m_mp = fit_marginal(x_mp[:, 0], "interval")
    u = np.asarray(m_mp.cdf(x_mp[:, 0]))
    ident = np.abs(np.asarray(m_rc.cdf(np.asarray(m_rc.quantile(u)))) - u).max()
    ok = rhos[0] == 1.0 and rhos[1] == 1.0 and ident < 1e-6
    _report("criterion 9 (UBC rank preservation)", ok,
            f"spearman {rhos}, identity err {ident:.2e}")


# -- criterion 10: MCI -------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_10_mci():
    d = np.random.default_rng(100).normal(size=(500, 3))
    series, mean = mci(d, d.copy())
    ident_ok = mean == 0.0 and np.all(series == 0.0)

    series2, mean2 = mci(np.array([[1.0], [2.0]]), np.array([[2.0], [1.0]]))
    hand_ok = mean2 == 0.5 and series2.tolist() == [0.5, 0.5]

    rng = np.random.default_rng(101)
    a = rng.normal(size=(10_000, 3))
    b = rng.normal(loc=0.5, scale=1.5, size=(10_000, 3))
    series3, mean3 = mci(a, b)
    bound_ok = bool(np.all((series3 >= 0.0) & (series3 <= 1.0)) and 0.0 <= mean3 <= 1.0)

    truth = GroundTruth5(TAU5)
    n_seeds, good = 100, 0
    for seed in range(n_seeds):
        cfg = CorrectionConfig(family_set=PARAMETRIC_FAMILIES, seed=seed)
        x_rc = truth.sample(4000, seed * 10 + 1)
        x_mp = truth.sample(4000, seed * 10 + 3)
        x_mc = truth.sample(4000, seed * 10 + 4)
        corr = vbc_correct(x_mp, x_rc, x_mc, KINDS5, cfg)
        good += mci(x_mp, corr.values)[1] < 0.05
    ok = ident_ok and hand_ok and bound_ok and good >= 0.90 * n_seeds
    _report(
        "criterion 10 (MCI)",
        ok,
        f"identity {ident_ok}, hand-case {hand_ok}, bounds {bound_ok}, "
        f"null-bias non-invasive in {good}/{n_seeds}",
    )


# -- criterion 11: W2 anchors -------------------------------------------------------------


def test_criterion_11_w2_anchors():
    a = np.random.default_rng(110).normal(size=(400, 2))
    zero_ok = wasserstein2(a, a.copy(), standardize=False) == 0.0
    unit_ok = wasserstein2(np.array([[0.0]]), np.array([[1.0]]), standardize=False) == 1.0
    rng = np.random.default_rng(111)
    x = rng.normal(size=(5000, 2))
    y = rng.normal(size=(5000, 2)) + np.array([0.8, 0.6])
    shift = wasserstein2(x, y, standardize=False, seed=112)
    shift_ok = abs(shift - 1.0) <= 0.1
    _report("criterion 11 (W2 anchors)", zero_ok and unit_ok and shift_ok,
            f"W2(A,A)=0 {zero_ok}, unit {unit_ok}, shift {shift:.3f}")


# -- criterion 12: pipeline determinism ----------------------------------------------------


def _digest(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def test_criterion_12_pipeline_determinism(tmp_path, monkeypatch):
    cfg = {
        "seed": 7,
        "workers": 1,
        "variables": [
            {"name": "d", "kind": "interval"},
            {"name": "p", "kind": "zero_inflated"},
            {"name": "t", "kind": "interval"},
        ],
        "correction": {"family_set": list(PARAMETRIC_FAMILIES), "overlap_fraction": 0.25},
        "simulate": {
            "start": "2001-01-01T00:00:00",
            "projection_start": "2011-01-01T00:00:00",
            "steps_per_member": 2920,
            "members": [1, 2],
            "margins": [
                {"loc": 5.0, "scale": 3.0},
                {"scale": 1.5, "inflation": 0.3},
                {"loc": 10.0, "scale": 4.0},
            ],
            "tau": [[0.0, 0.2, 0.5], [0.2, 0.0, 0.35], [0.5, 0.35, 0.0]],
            "bias": {"shift": {"t": 2.0}, "inflation": {"p": 0.5}},
        },
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    sim = tmp_path / "sim"
    assert run_pipeline("simulate", str(cfg_path), out_dir=str(sim)) == EXIT_OK
    io = dict(
        method="vbc",
        mp_path=str(sim / "model_projection.csv"),
        rc_path=str(sim / "reference_calibration.csv"),
        mc_path=str(sim / "model_calibration.csv"),
    )
    digests = []
    for label, workers in (("serial-1", "1"), ("serial-2", "1"), ("parallel", "3")):
        out = tmp_path / label
        monkeypatch.setenv("VINEBC_WORKERS", workers)
        assert run_pipeline("correct", str(cfg_path), out_dir=str(out), **io) == EXIT_OK
        digests.append(_digest(out / "corrected_vbc.csv"))
    eval_digests = []
    for label in ("serial-1", "serial-2"):
        out = tmp_path / f"eval-{label}"
        assert (
            run_pipeline(
                "evaluate",
                str(cfg_path),
                model_path=io["mp_path"],
                corrected_path=str(tmp_path / label / "corrected_vbc.csv"),
                ref_path=str(sim / "reference_projection.csv"),
                out_dir=str(out),
            )
            == EXIT_OK
        )
        eval_digests.append((_digest(out / "report.csv"), _digest(out / "report.json")))
    ok = len(set(digests)) == 1 and eval_digests[0] == eval_digests[1]
    _report("criterion 12 (determinism)", ok,
            f"corrected digests equal: {len(set(digests)) == 1}; reports equal: "
            f"{eval_digests[0] == eval_digests[1]}")
