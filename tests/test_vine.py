import copy
import functools
import itertools
import json
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import vinebc.copula
import vinebc.vine
from conftest import (
    PARAMETRIC_FAMILIES,
    TAU5,
    FrozenContinuous,
    GroundTruth5,
    analytic_zi_expon,
    at_cap,
    json_paths,
    nearest_correlation,
)
from vinebc.copula import (
    CheckerboardCopula,
    GaussianCopula,
    IndependenceCopula,
    PseudoObs,
    _frank_tau,
    gen_density,
    kendall_tau,
)
from vinebc._util import decode_f8, encode_f8
from vinebc.errors import EstimationError
from vinebc.marginal import MixtureMarginal, fit_marginal
from vinebc.vine import (
    Edge,
    VineModel,
    VineStructure,
    _build_vine,
    _edge_store,
    count_structures,
    fit_vine,
    rosenblatt_forward,
    rosenblatt_forward_from_fit,
    rosenblatt_inverse,
    vine_log_density,
    vine_sample,
)

# -- structure counting -------------------------------------------------------


def _all_labeled_trees(nodes):
    """All labeled spanning trees on the node list, via Prufer sequences."""
    n = len(nodes)
    if n == 1:
        return [[]]
    if n == 2:
        return [[(nodes[0], nodes[1])]]
    trees = []
    for seq in itertools.product(range(n), repeat=n - 2):
        degree = [1] * n
        for s in seq:
            degree[s] += 1
        edges = []
        seq_list = list(seq)
        leaves = sorted(i for i in range(n) if degree[i] == 1)
        for s in seq_list:
            leaf = leaves.pop(0)
            edges.append((nodes[leaf], nodes[s]))
            degree[s] -= 1
            if degree[s] == 1:
                # insert keeping the leaf list sorted
                import bisect

                bisect.insort(leaves, s)
        edges.append((nodes[leaves[0]], nodes[leaves[1]]))
        trees.append(edges)
    return trees


def _spanning_trees_brute(nodes, allowed_edges):
    """All spanning trees of a small graph by brute-force edge subsets."""
    n = len(nodes)
    out = []
    for subset in itertools.combinations(allowed_edges, n - 1):
        parent = {v: v for v in nodes}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        ok = True
        for a, b in subset:
            ra, rb = find(a), find(b)
            if ra == rb:
                ok = False
                break
            parent[ra] = rb
        if ok:
            out.append(list(subset))
    return out


def _count_vines_by_enumeration(d):
    """Independent oracle: enumerate all regular-vine tree sequences."""

    def constraint(edge_history, edge):
        return edge[0] | edge[1]

    def expand(prev_edges):
        # prev_edges: list of frozenset constraint sets paired with node ids
        if len(prev_edges) == 1:
            return 1
        nodes = list(range(len(prev_edges)))
        allowed = []
        for i, j in itertools.combinations(nodes, 2):
            shared_ok = bool(prev_edges[i]["nodes"] & prev_edges[j]["nodes"])
            if shared_ok and len(prev_edges[i]["constraint"] ^ prev_edges[j]["constraint"]) == 2:
                allowed.append((i, j))
        total = 0
        for tree in _spanning_trees_brute(nodes, allowed):
            new_edges = [
                {
                    "nodes": frozenset({i, j}),
                    "constraint": prev_edges[i]["constraint"] | prev_edges[j]["constraint"],
                }
                for i, j in tree
            ]
            total += expand(new_edges)
        return total

    total = 0
    for t1 in _all_labeled_trees(list(range(d))):
        edges = [{"nodes": frozenset(e), "constraint": frozenset(e)} for e in t1]
        total += expand(edges)
    return total


def test_count_structures_formula_values():
    assert count_structures(2) == 1
    assert count_structures(3) == 3
    assert count_structures(4) == 24
    assert count_structures(5) == 480


def test_count_structures_matches_enumeration():
    assert _count_vines_by_enumeration(3) == count_structures(3)
    assert _count_vines_by_enumeration(4) == count_structures(4)


# -- structure selection --------------------------------------------------------


def _gaussian_copula_uniforms(tau, n, seed):
    r = nearest_correlation(tau)
    rng = np.random.default_rng(seed)
    z = rng.multivariate_normal(np.zeros(len(r)), r, size=n, method="cholesky")
    return np.clip(stats.norm.cdf(z), 1e-12, 1 - 1e-12)


def test_structure_three_vars_forced_mst():
    tau = np.array([[0.0, 0.8, 0.3], [0.8, 0.0, 0.6], [0.3, 0.6, 0.0]])
    u = _gaussian_copula_uniforms(tau, 3000, seed=20)
    structure = fit_vine(u, ["interval"] * 3, family_set=PARAMETRIC_FAMILIES, seed=1).structure
    t1 = {frozenset((e.a, e.b)) for e in structure.trees[0]}
    assert t1 == {frozenset((0, 1)), frozenset((1, 2))}


def test_structure_two_vars():
    u = np.random.default_rng(21).uniform(size=(200, 2))
    structure = fit_vine(u, ["interval"] * 2, seed=0, family_set=PARAMETRIC_FAMILIES).structure
    assert len(structure.trees) == 1
    assert {structure.trees[0][0].a, structure.trees[0][0].b} == {0, 1}


def test_structure_star_dominant_first_tree():
    # variables: d=0, t=1, p=2, r=3, w=4; tau(d,t), tau(t,p), tau(p,r), tau(p,w) dominate
    tau = np.full((5, 5), 0.05)
    np.fill_diagonal(tau, 0.0)
    tau[0, 1] = tau[1, 0] = 0.65
    tau[1, 2] = tau[2, 1] = 0.60
    tau[2, 3] = tau[3, 2] = 0.55
    tau[2, 4] = tau[4, 2] = 0.50
    u = _gaussian_copula_uniforms(tau, 4000, seed=22)
    structure = fit_vine(u, ["interval"] * 5, family_set=PARAMETRIC_FAMILIES, seed=2).structure
    t1 = {frozenset((e.a, e.b)) for e in structure.trees[0]}
    assert t1 == {frozenset((0, 1)), frozenset((1, 2)), frozenset((2, 3)), frozenset((2, 4))}


@pytest.mark.parametrize("sample_seed", [2, 7, 13])
def test_structure_and_pair_copulas_ignore_row_order(sample_seed):
    # the margins are held fixed: only the pairing of tied atom rows could move
    x = GroundTruth5(TAU5).sample(730, seed=sample_seed)
    margins = [fit_marginal(x[:, j], kind) for j, kind in enumerate(GroundTruth5.KINDS)]
    perm = np.random.default_rng(sample_seed).permutation(len(x))

    def edges(rows):
        trees = _build_vine(_edge_store(margins, [], rows), PARAMETRIC_FAMILIES, 3, None)
        return [[(e.a, e.b, e.cond, e.child_a, e.child_b, e.copula.to_dict()) for e in tree]
                for tree in trees]

    assert edges(x[perm]) == edges(x)


def test_fit_vine_d3_jitters_and_taus_each_candidate_pair_once(monkeypatch):
    calls = {"kendall_tau": 0, "randomize_pseudo": 0}
    for name in calls:
        original = getattr(vinebc.copula, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(vinebc.copula, name, counted)
    u = _gaussian_copula_uniforms(np.full((3, 3), 0.4), 500, seed=19)
    fit_vine(u, ["interval"] * 3, seed=0)
    # three tree-0 candidates and the one tree-1 candidate
    assert calls == {"kendall_tau": 4, "randomize_pseudo": 4}


# -- fitting ---------------------------------------------------------------------


def test_fit_vine_independent_data_all_independence():
    rng = np.random.default_rng(23)
    x = rng.uniform(size=(2000, 3))
    model = fit_vine(x, ["interval"] * 3, family_set=PARAMETRIC_FAMILIES, seed=3)
    for tree in model.structure.trees:
        for e in tree:
            assert isinstance(e.copula, IndependenceCopula)
    pts = x[:50]
    expected = sum(
        np.log(np.asarray(model.margins[j].density(pts[:, j]))) for j in range(3)
    )
    assert np.abs(vine_log_density(model, pts) - expected).max() < 1e-12


def test_fit_vine_recovers_generator_taus():
    tau = np.array([[0.0, 0.6, 0.45], [0.6, 0.0, 0.4], [0.45, 0.4, 0.0]])
    u = _gaussian_copula_uniforms(tau, 5000, seed=24)
    x = stats.norm.ppf(u)
    model = fit_vine(x, ["interval"] * 3, family_set=("gaussian",), seed=4)
    for e in model.structure.trees[0]:
        expected = tau[e.a, e.b]
        got = 2.0 / np.pi * np.arcsin(e.copula.rho)
        assert got == pytest.approx(expected, abs=0.05)


def test_fit_vine_simulation_round_trip_with_partial_dependence():
    # generator: tree-1 Gaussian pairs rho=0.6 and 0.4, tree-2 partial rho=0.2
    margins = [
        MixtureMarginal(atoms=[], continuous=FrozenContinuous(stats.norm()), kind="interval")
        for _ in range(3)
    ]
    trees = [
        [
            Edge(a=0, b=1, cond=frozenset(), copula=GaussianCopula(0.6)),
            Edge(a=1, b=2, cond=frozenset(), copula=GaussianCopula(0.4)),
        ],
        [Edge(a=0, b=2, cond=frozenset({1}), child_a=0, child_b=1, copula=GaussianCopula(0.2))],
    ]
    generator = VineModel(margins=margins, structure=VineStructure(d=3, trees=trees))
    x = vine_sample(generator, 5000, seed=77)
    fitted = fit_vine(x, ["interval"] * 3, family_set=("gaussian",), seed=78)

    def edge_taus(model):
        return {
            (frozenset((e.a, e.b)), e.cond): 2 / np.pi * np.arcsin(e.copula.rho)
            for tree in model.structure.trees
            for e in tree
        }

    want = edge_taus(generator)
    got = edge_taus(fitted)
    assert set(got) == set(want)  # same structure recovered
    for key, tau in want.items():
        assert got[key] == pytest.approx(tau, abs=0.05)


def test_fit_vine_edge_count_d5():
    rng = np.random.default_rng(25)
    x = rng.normal(size=(400, 5))
    model = fit_vine(x, ["interval"] * 5, family_set=PARAMETRIC_FAMILIES, seed=5)
    assert model.structure.n_edges() == 10
    model.structure.validate()


def test_fit_vine_checkerboard_family_round_trips():
    rng = np.random.default_rng(88)
    z = rng.multivariate_normal([0, 0], [[1, 0.7], [0.7, 1]], size=2000)
    x = np.column_stack([z[:, 0], np.exp(z[:, 1])])
    model = fit_vine(x, ["interval", "nonnegative"], family_set=("checkerboard",), seed=11)
    cop = model.structure.trees[0][0].copula
    assert cop.family == "checkerboard"
    # oracle: sample the fitted mass grid directly (cell choice + uniform in cell)
    m = cop.m
    flat = cop.weights.ravel()
    idx = rng.choice(flat.size, size=20_000, p=flat)
    cell_u = (idx // m + rng.uniform(size=20_000)) / m
    cell_v = (idx % m + rng.uniform(size=20_000)) / m
    tau_oracle = stats.kendalltau(cell_u, cell_v).statistic
    samp = vine_sample(model, 20_000, seed=12)
    tau_out = stats.kendalltau(samp[:, 0], samp[:, 1]).statistic
    assert tau_out == pytest.approx(tau_oracle, abs=0.03)
    pts = x[:300]
    w = rng.uniform(size=pts.shape)
    v = rosenblatt_forward(model, pts, w)
    back = rosenblatt_inverse(model, np.clip(v, 1e-12, 1 - 1e-12))
    assert np.abs(back - pts).max() < 1e-6


def test_fit_vine_truncation_sets_independence():
    rng = np.random.default_rng(26)
    x = rng.normal(size=(300, 4)) @ np.linalg.cholesky(nearest_correlation(np.full((4, 4), 0.4))).T
    model = fit_vine(x, ["interval"] * 4, family_set=PARAMETRIC_FAMILIES, seed=6, truncation=1)
    assert all(isinstance(e.copula, IndependenceCopula) for t in model.structure.trees[1:] for e in t)
    assert model.structure.n_edges() == 6


@pytest.mark.parametrize("family_set", [("bogus",), "gaussian"], ids=["unknown", "bare_string"])
def test_fit_vine_rejects_bad_family_set(family_set):
    x = np.random.default_rng(0).normal(size=(100, 2))
    with pytest.raises(ValueError, match=r"family_set must list families among \['independence'"):
        fit_vine(x, ["interval"] * 2, family_set=family_set, truncation=0)


def test_fit_vine_fits_an_all_atom_margin():
    # precip is zero in every row: its margin is the atom alone, with the
    # jump [0, 1], and every row the inverse transform or the sampler gives
    # holds the atom
    rng = np.random.default_rng(0)
    x = rng.normal(size=(200, 2)) @ np.linalg.cholesky([[1.0, 0.6], [0.6, 1.0]]).T
    x = np.column_stack([x[:, 0], np.zeros(200), x[:, 1]])
    model = fit_vine(x, ["interval", "zero_inflated", "interval"],
                     var_names=["temp", "precip", "wind"], seed=3)
    assert model.margins[1].continuous is None
    assert model.margins[1].atom_values.tolist() == [0.0]
    v = rosenblatt_forward(model, x, rng.uniform(size=x.shape))
    assert np.isfinite(v).all() and ((v >= 0.0) & (v <= 1.0)).all()
    back = rosenblatt_inverse(model, rng.uniform(1e-9, 1.0 - 1e-9, size=(500, 3)))
    assert np.isfinite(back).all() and (back[:, 1] == 0.0).all()
    assert (vine_sample(model, 500, seed=4)[:, 1] == 0.0).all()
    loaded = VineModel.from_dict(json.loads(json.dumps(model.to_dict())))
    assert (rosenblatt_inverse(loaded, v)[:, 1] == 0.0).all()


@pytest.mark.parametrize("n", [456, 3600])
def test_fit_vine_joins_two_columns_of_one_ranking_by_a_capped_copula(n):
    x, z = np.random.default_rng(n).normal(size=(2, n, 1))
    assert kendall_tau(x[:, 0], 3 * x[:, 0]) == 1.0
    model = fit_vine(np.hstack([x, 3 * x, z]), ["interval"] * 3)
    edge = next(e for e in model.structure.trees[0] if {e.a, e.b} == {0, 1})
    assert at_cap(edge.copula)


def test_fit_vine_rejects_data_without_variables():
    with pytest.raises(EstimationError, match="no variables"):
        fit_vine(np.empty((50, 0)), [])


# -- log density ---------------------------------------------------------------------


def _manual_two_var_model(copula, margins):
    structure = VineStructure(d=2, trees=[[Edge(a=0, b=1, cond=frozenset(), copula=copula)]])
    return VineModel(margins=list(margins), structure=structure)


def test_log_density_d2_continuous_gaussian_closed_form():
    m = MixtureMarginal(atoms=[], continuous=FrozenContinuous(stats.norm()), kind="interval")
    model = _manual_two_var_model(GaussianCopula(0.5), [m, m])
    pts = np.array([[0.3, -0.2], [1.0, 1.5], [-2.0, 0.5]])
    got = vine_log_density(model, pts)
    u = stats.norm.cdf(pts)
    expected = (
        stats.norm.logpdf(pts[:, 0])
        + stats.norm.logpdf(pts[:, 1])
        + np.log(GaussianCopula(0.5).pdf(u[:, 0], u[:, 1]))
    )
    assert np.abs(got - expected).max() < 1e-12


def test_log_density_d2_zero_inflated_at_origin():
    m1 = analytic_zi_expon(0.4)
    m2 = analytic_zi_expon(0.3)
    cop = GaussianCopula(0.5)
    model = _manual_two_var_model(cop, [m1, m2])
    got = vine_log_density(model, np.array([[0.0, 0.0]]))[0]
    rect = cop.cdf(0.4, 0.3)[0]  # lower-left rectangle against both left limits of zero
    expected = np.log(0.4) + np.log(0.3) + np.log(rect / (0.4 * 0.3))
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(np.log(rect), abs=1e-12)


def test_log_density_d2_vine_matches_direct_all_patterns():
    m1 = analytic_zi_expon(0.4)
    m2 = analytic_zi_expon(0.3)
    cop = GaussianCopula(-0.4)
    model = _manual_two_var_model(cop, [m1, m2])
    rng = np.random.default_rng(27)
    cont = rng.exponential(size=(100, 2))
    zero_mask = rng.uniform(size=(100, 2)) < 0.4
    pts = np.where(zero_mask, 0.0, cont)
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
    assert np.abs(got - direct).max() < 1e-10


def test_log_density_reads_each_edge_from_the_edge_store(mixed_model, monkeypatch):
    x = vine_sample(mixed_model, 600, seed=5)
    assert 0 < (x[:, 0] == 0.0).sum() < 600
    # the density as it was computed before the store was read: every edge's
    # generalized density evaluates its own h-jumps again
    want = sum(np.log(np.asarray(m.density(x[:, j]))) for j, m in enumerate(mixed_model.margins))
    store = _edge_store(mixed_model.margins, mixed_model.structure.trees, x)
    log_c = 0.0
    for t, tree in enumerate(mixed_model.structure.trees):
        for i, e in enumerate(tree):
            log_c = log_c + np.log(gen_density(e.copula, store[(t, i)].input(e.a),
                                               store[(t, i)].input(e.b)))
    want = want + log_c

    calls = []
    hfunc = vinebc.copula.hfunc
    monkeypatch.setattr(vinebc.copula, "hfunc", lambda *a: calls.append(1) or hfunc(*a))
    # a walk that reads every edge output once
    store = _edge_store(mixed_model.margins, mixed_model.structure.trees, x)
    for t, tree in enumerate(mixed_model.structure.trees):
        for i, e in enumerate(tree):
            store[(t, i)][e.a], store[(t, i)][e.b]
    n_walk = len(calls)
    calls.clear()
    got = vine_log_density(mixed_model, x)
    assert np.array_equal(got, want)
    assert n_walk > 0 and len(calls) == n_walk


def test_log_density_zero_returns_neg_inf():
    m = MixtureMarginal(atoms=[], continuous=FrozenContinuous(stats.uniform(0, 1)), kind="interval")
    model = _manual_two_var_model(IndependenceCopula(), [m, m])
    with pytest.warns(UserWarning):
        out = vine_log_density(model, np.array([[2.0, 0.5]]))
    assert out[0] == -np.inf


# -- Rosenblatt transforms ----------------------------------------------------------


def test_forward_d1_is_randomized_pit():
    x = np.random.default_rng(28).exponential(size=(40, 1)) + 0.1
    m = analytic_zi_expon(0.4)
    model = VineModel(margins=[m], structure=VineStructure(d=1, trees=[]))
    w = np.random.default_rng(29).uniform(size=(40, 1))
    v = rosenblatt_forward(model, x, w)
    assert np.array_equal(v[:, 0], np.asarray(m.cdf(x[:, 0])))  # continuous: noise ignored
    x0 = np.zeros((5, 1))
    w0 = np.full((5, 1), 0.25)
    assert rosenblatt_forward(model, x0, w0)[0, 0] == pytest.approx(0.1)


def test_forward_independence_vine_collapses_to_marginal_pit():
    m1 = analytic_zi_expon(0.4)
    m2 = MixtureMarginal(atoms=[], continuous=FrozenContinuous(stats.norm()), kind="interval")
    model = _manual_two_var_model(IndependenceCopula(), [m1, m2])
    x = np.column_stack([[0.0, 1.2, 0.0], [0.5, -0.3, 1.1]])
    w = np.random.default_rng(30).uniform(size=x.shape)
    v = rosenblatt_forward(model, x, w)
    exp0 = w[:, 0] * np.asarray(m1.cdf(x[:, 0])) + (1 - w[:, 0]) * np.asarray(m1.cdf_left(x[:, 0]))
    assert np.abs(v[:, 0] - exp0).max() < 1e-12
    assert np.abs(v[:, 1] - stats.norm.cdf(x[:, 1])).max() < 1e-12


def test_roundtrip_continuous_three_dims():
    tau = np.array([[0.0, 0.5, 0.3], [0.5, 0.0, 0.4], [0.3, 0.4, 0.0]])
    u = _gaussian_copula_uniforms(tau, 3000, seed=31)
    x = np.column_stack([stats.norm.ppf(u[:, 0]), np.exp(stats.norm.ppf(u[:, 1])), 3 * u[:, 2]])
    model = fit_vine(x, ["interval", "nonnegative", "interval"],
                     family_set=PARAMETRIC_FAMILIES, seed=7)
    pts = x[:500]
    w = np.random.default_rng(32).uniform(size=pts.shape)
    v = rosenblatt_forward(model, pts, w)
    back = rosenblatt_inverse(model, np.clip(v, 1e-12, 1 - 1e-12))
    assert np.abs(back - pts).max() < 1e-6


def test_inverse_independence_vine_is_marginal_quantile():
    m1 = analytic_zi_expon(0.4)
    m2 = MixtureMarginal(atoms=[], continuous=FrozenContinuous(stats.norm()), kind="interval")
    model = _manual_two_var_model(IndependenceCopula(), [m1, m2])
    v = np.array([[0.2, 0.75], [0.9, 0.1]])
    x = rosenblatt_inverse(model, v)
    assert x[0, 0] == 0.0
    assert x[0, 1] == pytest.approx(stats.norm.ppf(0.75))
    assert x[1, 0] == pytest.approx(float(np.asarray(m1.quantile(0.9))))


def test_transforms_reject_nan(mixed_model):
    x = vine_sample(mixed_model, 4, seed=6)
    w = np.full(x.shape, 0.5)
    w_nan = w.copy()
    w_nan[1, 0] = np.nan
    with pytest.raises(ValueError, match="noise"):
        rosenblatt_forward(mixed_model, x, w_nan)
    for bad in (np.nan, np.inf):
        x_bad = x.copy()
        x_bad[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            rosenblatt_forward(mixed_model, x_bad, w)
    v = np.full(x.shape, 0.5)
    v[0, 2] = np.nan
    with pytest.raises(ValueError, match="inside"):
        rosenblatt_inverse(mixed_model, v)


def test_forward_rejects_a_column_count_other_than_d(mixed_model):
    x = vine_sample(mixed_model, 4, seed=7)
    for cols in (x[:, :2], np.hstack([x, x[:, :1]])):
        with pytest.raises(ValueError, match="expected 3 columns"):
            rosenblatt_forward(mixed_model, cols, np.full(cols.shape, 0.5))


def _zero_inflated_rows(n, seed):
    """Rows of a zero-inflated, an interval and a nonnegative variable, dependent."""
    rng = np.random.default_rng(seed)
    z = rng.multivariate_normal(np.zeros(3), nearest_correlation(np.full((3, 3), 0.4)), size=n)
    return np.column_stack([np.where(z[:, 0] < -0.3, 0.0, z[:, 0] + 0.3), z[:, 1], np.exp(z[:, 2])])


@pytest.fixture(scope="module")
def fit_with_store():
    """A vine fitted to rows that repeat some rows, with the edge store of the fit."""
    base = _zero_inflated_rows(800, 41)
    x_fit = np.vstack([base, base[[3, 3, 17, 250]]])
    store = {}
    model = fit_vine(x_fit, ["zero_inflated", "interval", "nonnegative"],
                     family_set=PARAMETRIC_FAMILIES, seed=5, store=store)
    return model, x_fit, store


def _walks(monkeypatch):
    """Record the row count of every edge walk of the forward transform."""
    rows, edge_store = [], vinebc.vine._edge_store

    def counted(margins, trees, x=None):
        if x is not None:
            rows.append(len(x))
        return edge_store(margins, trees, x)

    monkeypatch.setattr(vinebc.vine, "_edge_store", counted)
    return rows


def test_fit_store_is_the_edge_walk_of_the_fit_rows(fit_with_store):
    model, x_fit, store = fit_with_store
    walked = _edge_store(model.margins, model.structure.trees, x_fit)
    assert store.keys() == walked.keys()
    trees = model.structure.trees
    for (t, i), outputs in walked.items():
        for var in (i,) if t < 0 else (trees[t][i].a, trees[t][i].b):
            assert outputs[var].u.tobytes() == store[(t, i)][var].u.tobytes()
            assert outputs[var].u_left.tobytes() == store[(t, i)][var].u_left.tobytes()


@pytest.fixture(scope="module")
def rows5():
    """Rows of the d=5 ground truth, two of its margins zero-inflated."""
    return GroundTruth5(TAU5).sample(730, seed=3)


def test_edge_store_computes_each_output_once_and_only_when_read(rows5, monkeypatch):
    # each computed h-output as (copula, direction, target, conditioner),
    # held so that no id is reused
    computed, h_jump = [], vinebc.vine._h_jump
    monkeypatch.setattr(vinebc.vine, "_h_jump",
                        lambda *args: computed.append(args) or h_jump(*args))
    store = {}
    model = fit_vine(rows5, GroundTruth5.KINDS, family_set=PARAMETRIC_FAMILIES, seed=4,
                     store=store)
    assert 0 < len(computed) < 2 * model.structure.n_edges()
    w = np.random.default_rng(8).uniform(size=rows5.shape)
    v = np.clip(rosenblatt_forward_from_fit(model, store, w), 1e-9, 1.0 - 1e-9)
    rosenblatt_inverse(model, v)
    keys = [tuple(map(id, args)) for args in computed]
    assert len(set(keys)) == len(keys)


def test_fit_sorts_each_pseudo_obs_at_most_once(rows5, monkeypatch):
    firsts, sorted_arrays = [], []
    randomize, argsort = vinebc.copula.randomize_pseudo, np.argsort
    monkeypatch.setattr(vinebc.copula, "randomize_pseudo",
                        lambda a, b, rng: firsts.append(a) or randomize(a, b, rng))
    monkeypatch.setattr(np, "argsort",
                        lambda x, *args, **kw: sorted_arrays.append(x) or argsort(x, *args, **kw))
    fit_vine(rows5, GroundTruth5.KINDS, family_set=PARAMETRIC_FAMILIES, seed=4)
    distinct = list({id(a): a for a in firsts}.values())
    assert len(distinct) < len(firsts)
    sorts = [sum(x is a.u for x in sorted_arrays) for a in distinct]
    assert max(sorts) == 1


def test_forward_from_fit_reads_the_fit_rows(fit_with_store, monkeypatch):
    model, x_fit, store = fit_with_store
    w = np.random.default_rng(42).uniform(size=x_fit.shape)
    # every fit row; a scattered subset, out of order; and positions that
    # repeat, some of them at rows that x_fit itself holds twice
    cases = [(None, w), (np.array([802, 3, 799, 0, 17, 250, 801, 560, 800]), w[:9]),
             (np.array([17, 3, 17, 801, 3, 800, 3]), w[:7])]
    wants = [rosenblatt_forward(model, x_fit if rows is None else x_fit[rows], noise)
             for rows, noise in cases]
    walks = _walks(monkeypatch)
    for (rows, noise), want in zip(cases, wants):
        assert rosenblatt_forward_from_fit(model, store, noise, rows).tobytes() == want.tobytes()
    assert walks == []


def test_forward_from_fit_checks_the_noise(fit_with_store):
    model, x_fit, store = fit_with_store
    rows = np.array([10, 5, 7])
    w = np.full((3, 3), 0.5)
    w[0, 0] = 1.5
    with pytest.raises(ValueError, match="noise must lie in"):
        rosenblatt_forward_from_fit(model, store, w, rows)
    for at, shape in ((rows, (2, 3)), (rows, (3, 2)), (None, (len(x_fit) - 1, 3))):
        with pytest.raises(ValueError, match="noise must match"):
            rosenblatt_forward_from_fit(model, store, np.full(shape, 0.5), at)
    x = x_fit[rows]
    x[0, 2] = np.inf
    with pytest.raises(ValueError, match="finite"):
        rosenblatt_forward(model, x, np.full(x.shape, 0.5))


def test_inverse_then_forward_reproduces_uniforms():
    rng = np.random.default_rng(33)
    x = rng.multivariate_normal(np.zeros(3), nearest_correlation(np.full((3, 3), 0.4)), size=2000)
    model = fit_vine(x, ["interval"] * 3, family_set=("gaussian",), seed=8)
    v0 = np.clip(rng.uniform(size=(400, 3)), 1e-9, 1 - 1e-9)
    samp = rosenblatt_inverse(model, v0)
    w = rng.uniform(size=samp.shape)
    v1 = rosenblatt_forward(model, samp, w)  # continuous model: noise has no effect
    assert np.abs(v1 - v0).max() < 1e-7


# -- sampling --------------------------------------------------------------------


@pytest.fixture(scope="module")
def mixed_model():
    rng = np.random.default_rng(34)
    n = 4000
    r = nearest_correlation(np.array([[0.0, 0.35, 0.2], [0.35, 0.0, 0.3], [0.2, 0.3, 0.0]]))
    z = rng.multivariate_normal(np.zeros(3), r, size=n)
    u = stats.norm.cdf(z)
    p = 0.4
    x = np.column_stack(
        [
            np.where(u[:, 0] <= p, 0.0, -np.log1p(-(u[:, 0] - p) / (1 - p))),
            5 + 2 * stats.norm.ppf(u[:, 1]),
            np.exp(stats.norm.ppf(u[:, 2])),
        ]
    )
    return fit_vine(x, ["zero_inflated", "interval", "nonnegative"],
                    family_set=PARAMETRIC_FAMILIES, seed=9)


def test_sample_deterministic_with_seed(mixed_model):
    a = vine_sample(mixed_model, 200, seed=42)
    b = vine_sample(mixed_model, 200, seed=42)
    assert np.array_equal(a, b)
    c = vine_sample(mixed_model, 200, seed=43)
    assert not np.array_equal(a, c)


def test_sample_reproduces_atom_share(mixed_model):
    samp = vine_sample(mixed_model, 10_000, seed=44)
    fitted_share = mixed_model.margins[0].atom_masses[0]
    assert (samp[:, 0] == 0.0).mean() == pytest.approx(fitted_share, abs=0.02)


def _copula_tau(cop):
    """Kendall's tau of a parametric pair copula, from its parameter."""
    if cop.family == "independence":
        return 0.0
    if cop.family == "gaussian":
        return 2 / np.pi * np.arcsin(cop.rho)
    if cop.family == "frank":
        return _frank_tau(cop.theta)
    sign = -1.0 if cop.rotation in (90, 270) else 1.0
    if cop.family == "clayton":
        return sign * cop.theta / (cop.theta + 2.0)
    if cop.family == "gumbel":
        return sign * (1.0 - 1.0 / cop.theta)
    raise ValueError(f"no tau formula for {cop.family}")


def test_sample_reproduces_pairwise_taus(mixed_model):
    samp = vine_sample(mixed_model, 10_000, seed=45)
    fit2 = fit_vine(samp, ["zero_inflated", "interval", "nonnegative"],
                    family_set=("gaussian",), seed=10)
    tau_model = {}
    tau_samp = {}
    for e in mixed_model.structure.trees[0]:
        tau_model[frozenset((e.a, e.b))] = _copula_tau(e.copula)
    for e in fit2.structure.trees[0]:
        tau_samp[frozenset((e.a, e.b))] = 2 / np.pi * np.arcsin(e.copula.rho)
    shared = set(tau_model) & set(tau_samp)
    assert shared
    for k in shared:
        assert tau_samp[k] == pytest.approx(tau_model[k], abs=0.03)


# -- serialization ---------------------------------------------------------------


@pytest.fixture(scope="module")
def checkerboard_model():
    """A default-family fit of a zero-inflated, an interval and a nonnegative variable,
    whose dependent edges are checkerboards."""
    rng = np.random.default_rng(35)
    z = rng.multivariate_normal(np.zeros(3), nearest_correlation(np.full((3, 3), 0.6)), size=3000)
    x = np.column_stack([np.maximum(z[:, 0] - 0.3, 0.0), z[:, 1], np.exp(z[:, 2])])
    return fit_vine(x, ["zero_inflated", "interval", "nonnegative"], seed=9)


def _array_fields(record):
    """The float-array fields of a model record: grid knots and pdf, checkerboard weights."""
    for m in record["margins"]:
        if m["continuous"] is not None:
            yield m["continuous"]["knots"]
            yield m["continuous"]["pdf"]
    for tree in record["trees"]:
        for e in tree:
            if e["copula"]["family"] == "checkerboard":
                yield e["copula"]["weights"]


@pytest.mark.parametrize("fixture", ["mixed_model", "checkerboard_model"])
def test_model_save_load_bit_exact(tmp_path, request, fixture):
    model = request.getfixturevalue(fixture)
    path = tmp_path / "model.json"
    model.save(path)
    clone = VineModel.load(path)
    assert clone.order == model.order
    x = vine_sample(model, 100, seed=46)
    assert np.array_equal(vine_log_density(clone, x), vine_log_density(model, x))
    assert np.array_equal(vine_sample(clone, 50, seed=47), vine_sample(model, 50, seed=47))
    blob1 = json.dumps(model.to_dict(), sort_keys=True)
    blob2 = json.dumps(clone.to_dict(), sort_keys=True)
    assert blob1 == blob2
    record = json.loads(path.read_text())
    fields = list(_array_fields(record))
    assert fields and all(isinstance(f, str) for f in fields)
    if fixture == "checkerboard_model":
        assert model.margins[0].atom_values.tolist() == [0.0]
        families = {e.copula.family for tree in model.structure.trees for e in tree}
        assert "checkerboard" in families


def _as_d4(r):
    """Make r, in place, a valid d=4 record: r's margins and a copy of its
    second, joined by a D-vine 0-1-2-3 of independence copulas."""
    def edge(a, b, cond=(), children=(None, None)):
        return {"a": a, "b": b, "cond": list(cond), "child_a": children[0],
                "child_b": children[1], "copula": {"family": "independence", "rotation": 0}}

    r.update(d=4, var_names=None, margins=r["margins"] + [copy.deepcopy(r["margins"][1])], trees=[
        [edge(0, 1), edge(1, 2), edge(2, 3)],
        [edge(0, 2, [1], (0, 1)), edge(1, 3, [2], (1, 2))],
        [edge(0, 3, [1, 2], (0, 1))]])
    return r


def _set_array(r, path, change):
    """Replace the float array at ``path`` in r by ``change`` of it."""
    *to_parent, key = path
    parent = functools.reduce(operator.getitem, to_parent, r)
    parent[key] = encode_f8(change(decode_f8(parent[key])))


def _checkerboard(weights):
    return {"family": "checkerboard", "rotation": 0, "weights": encode_f8(np.array(weights))}


def test_d4_record_of_the_corruptions_loads(mixed_model):
    record = _as_d4(json.loads(json.dumps(mixed_model.to_dict())))
    assert VineModel.from_dict(record).structure.d == 4


# corruptions of a saved d=3 model record (or of the d=4 record _as_d4 makes of it)
MODEL_CORRUPTIONS = {
    "tree-1 edge with one child twice": lambda r: r["trees"][1][0].update(
        child_b=r["trees"][1][0]["child_a"]),
    "tree-0 edge joining a node to itself": lambda r: r["trees"][0][0].update(
        b=r["trees"][0][0]["a"]),
    "tree-0 edge dropped": lambda r: r["trees"][0].pop(),
    "margin dropped": lambda r: r["margins"].pop(),
    "tree-0 edge naming node 5": lambda r: r["trees"][0][0].update(a=5),
    "tree-1 edge naming child 4": lambda r: r["trees"][1][0].update(child_a=4),
    "tree-1 edge naming child -2 for child 0": lambda r: r["trees"][1][0].update(
        {k: -2 for k in ("child_a", "child_b") if r["trees"][1][0][k] == 0}),
    "one variable name for three variables": lambda r: r.update(var_names=["a"]),
    "model version 7": lambda r: r.update(version=7),
    "margin version 99": lambda r: r["margins"][0].update(version=99),
    # a nonnegative margin relabelled interval keeps its log grid
    "log-grid margin of kind interval": lambda r: r["margins"][2].update(kind="interval"),
    "checkerboard copula without weights": lambda r: r["trees"][0][0].update(
        copula={"family": "checkerboard", "rotation": 0}),
    "gaussian copula without rho": lambda r: r["trees"][0][1]["copula"].pop("rho"),
    "gaussian copula with an unknown nu": lambda r: r["trees"][0][1]["copula"].update(nu=4),
    "margin without continuous": lambda r: r["margins"][1].pop("continuous"),
    "margin without kind": lambda r: r["margins"][1].pop("kind"),
    "atom [0.0]": lambda r: r["margins"][0].update(atoms=[[0.0]]),
    "edge without copula": lambda r: r["trees"][1][0].pop("copula"),
    "record without trees": lambda r: r.pop("trees"),
    "variable names that are numbers": lambda r: r.update(var_names=[1, 2, 3]),
    "variable names as one string": lambda r: r.update(var_names="abc"),
    # the tree-1 edge is a 180-degree Clayton: a falsy rotation would load unrotated
    "clayton rotation null": lambda r: r["trees"][1][0]["copula"].update(rotation=None),
    "clayton rotation false": lambda r: r["trees"][1][0]["copula"].update(rotation=False),
    "clayton rotation 270.0": lambda r: r["trees"][1][0]["copula"].update(rotation=270.0),
    "tree-1 edge with a float a": lambda r: r["trees"][1][0].update(a=float(r["trees"][1][0]["a"])),
    "tree-1 edge with a float cond entry": lambda r: r["trees"][1][0].update(
        cond=[float(c) for c in r["trees"][1][0]["cond"]]),
    "tree-1 edge with a bool b": lambda r: r["trees"][1][0].update(b=True),
    "record of no variables": lambda r: r.update(d=0, margins=[], trees=[]),
    "record with a bool d": lambda r: r.update(d=True, margins=r["margins"][:1], trees=[]),
    # the tree-0 edge is a Frank copula and the tree-1 edge a Clayton
    "checkerboard with a negative weight": lambda r: r["trees"][0][0].update(
        copula=_checkerboard([[0.75, -0.25], [-0.25, 0.75]])),
    "checkerboard weights summing to 2": lambda r: r["trees"][0][0].update(
        copula=_checkerboard([[0.5, 0.5], [0.5, 0.5]])),
    "checkerboard weights not doubly stochastic": lambda r: r["trees"][0][0].update(
        copula=_checkerboard([[0.5, 0.0], [0.25, 0.25]])),
    "clayton theta 0": lambda r: r["trees"][1][0]["copula"].update(theta=0.0),
    "gumbel theta 0.5": lambda r: r["trees"][1][0].update(
        copula={"family": "gumbel", "rotation": 180, "theta": 0.5}),
    "frank theta 0": lambda r: r["trees"][0][0]["copula"].update(theta=0.0),
    "grid pdf one value short": lambda r: _set_array(
        r, ("margins", 1, "continuous", "pdf"), lambda a: a[:-1]),
    "grid knots decreasing": lambda r: _set_array(
        r, ("margins", 1, "continuous", "knots"), lambda a: a[::-1]),
    "grid pdf with a negative value": lambda r: _set_array(
        r, ("margins", 1, "continuous", "pdf"), lambda a: np.concatenate(([-1.0], a[1:]))),
    "grid pdf all zero": lambda r: _set_array(
        r, ("margins", 1, "continuous", "pdf"), np.zeros_like),
    "two atoms at 0.0": lambda r: r["margins"][0].update(atoms=[[0.0, 0.2], [0.0, 0.2]]),
    "atom of mass 0": lambda r: r["margins"][0].update(atoms=[[0.0, 0.0]]),
    "atom of mass 1.5": lambda r: r["margins"][0].update(atoms=[[0.0, 1.5]]),
    "atom masses summing to 1.2": lambda r: r["margins"][0].update(
        atoms=[[0.0, 0.6], [1.0, 0.6]]),
    "atoms below mass 1 without continuous": lambda r: r["margins"][0].update(continuous=None),
    "tree-1 edge whose cond is not its children's shared variable": lambda r: r["trees"][1][0].update(
        b=1, cond=[2]),
    "d=4 tree-1 edge its children do not span": lambda r: _as_d4(r)["trees"][1][0].update(b=3),
}


@pytest.mark.parametrize("corrupt", MODEL_CORRUPTIONS.values(), ids=list(MODEL_CORRUPTIONS))
def test_model_load_rejects_malformed_record(tmp_path, mixed_model, corrupt):
    record = mixed_model.to_dict()
    corrupt(record)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(record))
    with pytest.raises(ValueError):
        VineModel.load(path)


@pytest.mark.parametrize("corruption, field", [
    ("checkerboard copula without weights", "weights"),
    ("gaussian copula without rho", "rho"),
    ("gaussian copula with an unknown nu", "nu"),
    ("margin without continuous", "continuous"),
    ("margin without kind", "kind"),
    ("atom [0.0]", "atoms"),
    ("edge without copula", "copula"),
    ("record without trees", "trees"),
    ("variable names as one string", "var_names"),
    ("clayton rotation null", "rotation"),
    ("clayton rotation false", "rotation"),
    ("clayton rotation 270.0", "rotation"),
    ("tree-1 edge with a float a", "tree 1 names variable 0.0"),
    ("tree-1 edge with a float cond entry", "tree 1 names variable 1.0"),
    ("tree-1 edge with a bool b", "tree 1 names variable True"),
    ("record of no variables", "d must be an integer >= 1, got 0"),
    ("record with a bool d", "d must be an integer >= 1, got True"),
    ("checkerboard with a negative weight", "weights must be nonnegative"),
    ("checkerboard weights summing to 2", "weights must sum to one"),
    ("checkerboard weights not doubly stochastic", "doubly stochastic"),
    ("clayton theta 0", r"theta must be in \(0, 50"),
    ("gumbel theta 0.5", r"theta must be in \[1, 50"),
    ("frank theta 0", "theta must be nonzero"),
    ("grid pdf one value short", "equal length"),
    ("grid knots decreasing", "strictly increasing"),
    ("grid pdf with a negative value", "finite and nonnegative"),
    ("grid pdf all zero", "zero total mass"),
    ("two atoms at 0.0", "atom values must be finite and distinct"),
    ("atom of mass 0", r"atom masses must be in \(0, 1\]"),
    ("atom of mass 1.5", r"atom masses must be in \(0, 1\]"),
    ("atom masses summing to 1.2", "sum to at most 1"),
    ("atoms below mass 1 without continuous", "continuous component required"),
    ("tree-1 edge whose cond is not its children's shared variable",
     "children do not intersect to the conditioning set of 0,1|2"),
    ("d=4 tree-1 edge its children do not span", "children do not span edge 0,3|1"),
])
def test_model_load_names_the_malformed_field(mixed_model, corruption, field):
    record = json.loads(json.dumps(mixed_model.to_dict()))
    MODEL_CORRUPTIONS[corruption](record)
    with pytest.raises(ValueError, match=field):
        VineModel.from_dict(record)


@pytest.fixture(scope="module")
def every_family_record(mixed_model):
    """mixed_model's record, as JSON reads it back, with a 4 x 4 checkerboard
    on its frank edge: it holds a checkerboard, a Gaussian, a rotated Clayton,
    an atom, and grids in x and in log(x)."""
    record = json.loads(json.dumps(mixed_model.to_dict()))
    u = np.random.default_rng(35).uniform(size=(2, 200))
    record["trees"][0][0]["copula"] = CheckerboardCopula.fit(*u, resolution=4).to_dict()
    VineModel.from_dict(record)
    return record


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_model_from_dict_raises_only_value_error(every_family_record, data):
    """Drop one field of a valid record, or give it any JSON value (NaN, the
    infinities and integers beyond float64 among them): ``from_dict`` builds
    a model or raises ValueError, and raises nothing else.  (Some changes
    leave a valid record, such as a dropped ``var_names``.)"""
    record = copy.deepcopy(every_family_record)
    *to_parent, key = data.draw(st.sampled_from(list(json_paths(record))))
    parent = functools.reduce(operator.getitem, to_parent, record)
    if data.draw(st.booleans(), label="drop"):
        del parent[key]
    else:
        parent[key] = data.draw(JSON_VALUES, label="value")
    try:
        VineModel.from_dict(record)
    except ValueError:
        pass


def test_model_load_asks_to_refit_a_version_1_record(tmp_path, mixed_model):
    """Version 1 wrote each array as a JSON list of floats."""
    record = mixed_model.to_dict()
    record["version"] = 1
    for m, margin in zip(record["margins"], mixed_model.margins):
        m["version"] = 1
        m["continuous"].update(knots=margin.continuous.knots.tolist(),
                               pdf=margin.continuous.pdf_values.tolist())
    path = tmp_path / "model.json"
    path.write_text(json.dumps(record))
    with pytest.raises(ValueError, match="re-run `vinebc fit`"):
        VineModel.load(path)
