"""Regular vine models over discrete-continuous mixture margins.

The vine couples fitted margins with a tree sequence of pair copulas.  All
conditional pseudo-observations are propagated as ``PseudoObs`` (u, u_left),
built once per edge output: an edge maps each conditioned variable's jump
[u_left, u] to the h-function at both of its ends (``copula._h_jump``), so the
generalized density and the randomized Rosenblatt transform stay exact for
atoms at every tree depth.  Structure selection follows the tree-by-tree
maximum spanning tree on absolute Kendall's tau.  Each candidate pair is
jittered once, jointly, across its atoms' jumps; its tau and, if the pair is
chosen, its copula fit share that one draw, so the structure does not depend
on the order of the rows.

An edge store computes each h-output the first time a reader asks for it, so
an output that no tree, density or transform reads is never computed.  The
forward Rosenblatt transform is read from an edge store: that of a fresh
edge walk, or the one a fit built on its own rows, so rows of the fit, named
by their positions in it, are transformed without a second walk
(``rosenblatt_forward_from_fit``).
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._util import RECORD_VERSION, Stream, check_record_version, subseed
from .copula import (
    DEFAULT_FAMILY_SET,
    BivariateCopula,
    IndependenceCopula,
    _h_jump,
    check_family_set,
    copula_from_dict,
    fit_jittered,
    gen_density,
    hfunc_inverse,
    jitter_pair,
)
from .errors import EstimationError
from .marginal import MixtureMarginal, PseudoObs, fit_marginal, normalize_kind


def count_structures(d: int) -> int:
    """Number of labeled regular-vine tree sequences on d variables."""
    if d < 2:
        raise ValueError("need at least two variables")
    if d == 2:
        return 1
    exponent = (d - 2) * (d - 3) // 2 - 1
    f = math.factorial(d)
    return f << exponent if exponent >= 0 else f >> (-exponent)


@dataclass
class Edge:
    """One pair-copula edge: conditioned pair (a, b) given the set ``cond``.

    ``child_a``/``child_b`` index the previous-tree edges supplying the
    conditional pseudo-observations of a and b; both are None in tree 0.
    """

    a: int
    b: int
    cond: frozenset = field(default_factory=frozenset)
    child_a: int | None = None
    child_b: int | None = None
    copula: BivariateCopula | None = None

    @property
    def constraint(self) -> frozenset:
        return self.cond | {self.a, self.b}

    def label(self) -> str:
        if self.cond:
            return f"{self.a},{self.b}|{','.join(map(str, sorted(self.cond)))}"
        return f"{self.a},{self.b}"


@dataclass
class VineStructure:
    d: int
    trees: list  # list of list[Edge]

    def validate(self) -> None:
        """Assert tree sizes, acyclicity, and the proximity condition."""
        if isinstance(self.d, bool) or not isinstance(self.d, int) or self.d < 1:
            raise ValueError(f"d must be an integer >= 1, got {self.d!r}")
        if len(self.trees) != self.d - 1:
            raise ValueError(f"expected {self.d - 1} trees, got {len(self.trees)}")
        for t, tree in enumerate(self.trees):
            if len(tree) != self.d - 1 - t:
                raise ValueError(f"tree {t} must have {self.d - 1 - t} edges")
            for e in tree:
                for i in (e.a, e.b, *e.cond):
                    if not _is_index(i, self.d):
                        raise ValueError(f"edge {e.label()} in tree {t} names variable {i!r}, "
                                         f"not one of the {self.d} variables")
            # acyclic + spanning via union-find over this tree's node set
            if t == 0:
                nodes, n_nodes = [(e.a, e.b) for e in tree], self.d
            else:
                nodes, n_nodes = [(e.child_a, e.child_b) for e in tree], len(self.trees[t - 1])
                for e, pair in zip(tree, nodes):
                    for i in pair:
                        if not _is_index(i, n_nodes):
                            raise ValueError(f"edge {e.label()} in tree {t} names node {i!r}, "
                                             f"not one of the {n_nodes} nodes of that tree")
            parent = list(range(n_nodes))

            def find(i):
                while parent[i] != i:
                    parent[i] = parent[parent[i]]
                    i = parent[i]
                return i

            for i, j in nodes:
                ri, rj = find(i), find(j)
                if ri == rj:
                    raise ValueError(f"cycle in tree {t}")
                parent[ri] = rj
            for e in tree:
                if len(e.constraint) != t + 2 or len(e.cond) != t:
                    raise ValueError(f"bad constraint size for edge {e.label()} in tree {t}")
                if t > 0:
                    f1 = self.trees[t - 1][e.child_a]
                    f2 = self.trees[t - 1][e.child_b]
                    if f1.constraint | f2.constraint != e.constraint:
                        raise ValueError(f"children do not span edge {e.label()}")
                    if f1.constraint & f2.constraint != e.cond:
                        raise ValueError(f"children do not intersect to the conditioning set of {e.label()}")
                    if not _proximal(t, f1, f2):
                        raise ValueError(f"proximity violated at edge {e.label()} in tree {t}")

    def n_edges(self) -> int:
        return sum(len(tree) for tree in self.trees)


def _is_index(i, n: int) -> bool:
    """Whether ``i`` is an int index into n items; bool is an int, and a
    negative index would alias a real item."""
    return isinstance(i, int) and not isinstance(i, bool) and 0 <= i < n


def _proximal(t: int, f1: Edge, f2: Edge) -> bool:
    """Proximity condition: edges f1, f2 of tree t - 1 share a node of that tree."""
    if t == 1:
        return bool({f1.a, f1.b} & {f2.a, f2.b})
    return bool({f1.child_a, f1.child_b} & {f2.child_a, f2.child_b})


def _max_spanning_tree(weights: np.ndarray) -> list[tuple[int, int]]:
    """Prim's algorithm maximizing total weight; -inf marks forbidden pairs."""
    n = weights.shape[0]
    if n == 1:
        return []
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best = weights[0].copy()
    best_from = np.zeros(n, dtype=int)
    edges = []
    for _ in range(n - 1):
        cand = np.where(in_tree, -np.inf, best)
        j = int(np.argmax(cand))
        if not np.isfinite(cand[j]):
            raise EstimationError("proximity graph is disconnected")
        edges.append((int(best_from[j]), j))
        in_tree[j] = True
        improve = weights[j] > best
        best = np.where(improve, weights[j], best)
        best_from = np.where(improve, j, best_from)
    return edges


@dataclass
class VineModel:
    """Margins, tree structure and one pair copula per edge."""

    margins: list
    structure: VineStructure
    var_names: list | None = None

    def __post_init__(self):
        self._steps = _diagonal_order(self.structure)

    @property
    def d(self) -> int:
        return self.structure.d

    @property
    def order(self) -> list:
        """Diagonal variable order used by the Rosenblatt transforms."""
        return [var for var, _ in self._steps]

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format": "vinebc-model",
            "version": RECORD_VERSION,
            "d": self.d,
            "var_names": self.var_names,
            "margins": [m.to_dict() for m in self.margins],
            "trees": [
                [
                    {
                        "a": e.a,
                        "b": e.b,
                        "cond": sorted(e.cond),
                        "child_a": e.child_a,
                        "child_b": e.child_b,
                        "copula": e.copula.to_dict(),
                    }
                    for e in tree
                ]
                for tree in self.structure.trees
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "VineModel":
        """The model of a ``to_dict`` record.  A malformed record raises a
        ValueError that names the part at fault, and nothing else."""
        return _read("model record", cls._from_record, d)

    @classmethod
    def _from_record(cls, d: dict) -> "VineModel":
        if d.get("format") != "vinebc-model":
            raise ValueError("format is not 'vinebc-model'")
        check_record_version(d)
        margins = [_read(f"margins[{j}]", MixtureMarginal.from_dict, m)
                   for j, m in enumerate(d["margins"])]
        trees = [[_read(f"trees[{t}][{i}]", _edge_from_dict, e) for i, e in enumerate(tree)]
                 for t, tree in enumerate(d["trees"])]
        structure = VineStructure(d=d["d"], trees=trees)
        structure.validate()
        if len(margins) != structure.d:
            raise ValueError(f"expected {structure.d} margins, got {len(margins)}")
        var_names = d.get("var_names")
        if var_names is not None and not (isinstance(var_names, list) and len(var_names) == structure.d
                                          and all(isinstance(n, str) for n in var_names)):
            raise ValueError(f"var_names: not null or a list of {structure.d} names")
        return cls(margins=margins, structure=structure, var_names=var_names)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            # json.dumps takes the C encoder; json.dump always runs the Python one
            fh.write(json.dumps(self.to_dict()))

    @classmethod
    def load(cls, path) -> "VineModel":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _read(where: str, read, record):
    """``read(record)``, raising what a malformed part of a model record throws
    (a missing field, a value of the wrong type or out of range) as a
    ValueError whose message starts with ``where``."""
    try:
        return read(record)
    except KeyError as exc:
        raise ValueError(f"{where}: missing field {exc}") from None
    except (TypeError, ValueError, AttributeError, ArithmeticError) as exc:
        raise ValueError(f"{where}: {exc}") from None


def _edge_from_dict(e: dict) -> Edge:
    return Edge(a=e["a"], b=e["b"], cond=frozenset(e["cond"]), child_a=e["child_a"],
                child_b=e["child_b"], copula=_read("copula", copula_from_dict, e["copula"]))


# -- diagonal order ----------------------------------------------------------


def _diagonal_order(structure: VineStructure):
    """Peel the structure into the steps of a sampling order.

    Step j is (var, chain): var is the variable assigned at step j; chain
    lists the edges, deepest first, whose h-functions condition var on all
    earlier variables (the first edge outputs that conditional CDF, and their
    h-inverses carry a level down to var's margin).  The inverse transform's
    edge store computes an edge output when a chain first reads it; by then
    every variable of the edge's constraint set is assigned.
    """
    d = structure.d
    if d == 1:
        return [(0, [])]
    trees = structure.trees
    sigma = []
    diag = {}
    t = len(trees) - 1
    edge_idx = 0
    var = trees[t][edge_idx].a
    sigma.append(var)
    diag[var] = (t, edge_idx)
    while t > 0:
        e = trees[t][edge_idx]
        edge_idx = e.child_b if var == e.a else e.child_a
        t -= 1
        var = trees[t][edge_idx].a
        sigma.append(var)
        diag[var] = (t, edge_idx)
    sigma.append(trees[0][edge_idx].b)
    sigma.reverse()

    steps = []
    for var in sigma:
        chain = []
        t, i = diag.get(var, (-1, None))  # order[0] is conditioned on nothing
        while t >= 0:
            chain.append((t, i))
            e = trees[t][i]
            i = e.child_a if e.a == var else e.child_b
            t -= 1
        steps.append((var, chain))
    return steps


# -- conditional pseudo-observation recursion ---------------------------------
#
# A store maps (tree, edge index) to {variable: PseudoObs}: the conditional
# pseudo-observations an edge outputs for its two conditioned variables.  Key
# (-1, j) holds the margin pseudo-observations of variable j, so the edges of
# tree t read their inputs from the keys of tree t - 1.  An edge's entry finds
# its two input entries and computes each of its two outputs when first read
# (``_EdgeOutputs``).


class _EdgeOutputs(dict):
    """The h-outputs {variable: PseudoObs} of edge ``edge`` of tree t, each
    computed when first read.  Edge (t, i) reads var from ``store[(t - 1, var
    if t == 0 else child)]``, child being the edge of tree t - 1 that outputs
    var; those entries are older, so the store holds no reference cycle."""

    __slots__ = ("edge", "in_a", "in_b")

    def __init__(self, store: dict, t: int, edge: Edge):
        super().__init__()
        self.edge = edge
        self.in_a = store[(t - 1, edge.a if t == 0 else edge.child_a)]
        self.in_b = store[(t - 1, edge.b if t == 0 else edge.child_b)]

    def input(self, var) -> PseudoObs:
        """The pseudo-observations of conditioned variable var given the edge's cond."""
        return self.in_a[var] if var == self.edge.a else self.in_b[var]

    def __missing__(self, var) -> PseudoObs:
        e = self.edge
        if var == e.a:
            out = _h_jump(e.copula, 1, self.input(e.a), self.input(e.b))
        elif var == e.b:
            out = _h_jump(e.copula, 2, self.input(e.b), self.input(e.a))
        else:
            raise KeyError(var)
        self[var] = out
        return out


def _edge_store(margins, trees, x: np.ndarray | None = None) -> dict:
    """The store of the trees on rows x: margin entries from x's columns (empty
    ones for the caller to fill when x is None) and one entry per edge."""
    store = {(-1, j): {} if x is None else {j: m.pseudo_obs(x[:, j])} for j, m in enumerate(margins)}
    for t, tree in enumerate(trees):
        for i, e in enumerate(tree):
            store[(t, i)] = _EdgeOutputs(store, t, e)
    return store


# -- structure selection and fitting ------------------------------------------


def _build_vine(store, family_set, seed, truncation):
    """Dissmann-style sequential construction; returns list-of-trees of Edges.

    ``store`` holds the tree-0 inputs and gains each chosen edge's entry, whose
    outputs are computed when a candidate pair of the next tree first reads them.
    Each candidate pair is jittered once; its tau weighs it in the maximum
    spanning tree and, if chosen, its jittered sample and tau fit its copula.
    """
    trees = []
    constraints = [frozenset([j]) for j in range(len(store))]  # of the nodes of tree t
    for t in range(len(store) - 1):
        k = len(constraints)
        weights = np.full((k, k), -np.inf)
        candidates = {}
        for i in range(k):
            for j in range(i + 1, k):
                ci, cj = constraints[i], constraints[j]
                if t > 0 and not _proximal(t, trees[t - 1][i], trees[t - 1][j]):
                    continue
                sym = ci ^ cj
                if len(sym) != 2:
                    continue
                edge = Edge(a=next(iter(sym & ci)), b=next(iter(sym & cj)), cond=ci & cj,
                            child_a=i if t > 0 else None, child_b=j if t > 0 else None)
                entry = _EdgeOutputs(store, t, edge)
                jittered = jitter_pair(entry.input(edge.a), entry.input(edge.b),
                                       subseed(seed, Stream.PAIR_JITTER, t, i, j))
                weights[i, j] = weights[j, i] = abs(jittered[2])
                candidates[(i, j)] = (entry, jittered)
        mst = _max_spanning_tree(weights)
        tree = []
        truncated = truncation is not None and t >= truncation
        for e_idx, (i, j) in enumerate(sorted(tuple(sorted(p)) for p in mst)):
            entry, jittered = candidates[(i, j)]
            entry.edge.copula = IndependenceCopula() if truncated else fit_jittered(*jittered, family_set)
            store[(t, e_idx)] = entry
            tree.append(entry.edge)
        trees.append(tree)
        constraints = [e.constraint for e in tree]
    return trees


def fit_vine(
    data,
    kinds,
    family_set=DEFAULT_FAMILY_SET,
    seed: int = 0,
    truncation: int | None = None,
    var_names=None,
    *,
    store: dict | None = None,
) -> VineModel:
    """Fit margins, select the structure and estimate all pair copulas.

    A dict passed as ``store`` receives the fit's edge store on ``data``,
    from which ``rosenblatt_forward_from_fit`` reads the forward transform of
    the rows of ``data`` at given positions.
    """
    family_set = check_family_set(family_set)
    x = np.asarray(data, dtype=float)
    if x.ndim != 2:
        raise EstimationError("data must be a 2-d array (rows x variables)")
    d = x.shape[1]
    if d == 0:
        raise EstimationError("data has no variables")
    kinds = [normalize_kind(k) for k in kinds]
    if len(kinds) != d:
        raise EstimationError(f"got {len(kinds)} kinds for {d} variables")
    margins = [fit_marginal(x[:, j], kind) for j, kind in enumerate(kinds)]
    edges = _edge_store(margins, [], x)
    structure = VineStructure(d=d, trees=_build_vine(edges, family_set, seed, truncation))
    structure.validate()
    if store is not None:
        store.update(edges)
    return VineModel(margins=margins, structure=structure, var_names=list(var_names) if var_names else None)


# -- density ------------------------------------------------------------------


def vine_log_density(model: VineModel, x) -> np.ndarray:
    """Log density: marginal mixed densities plus all edge generalized densities.

    Points of zero density return -inf.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != model.d:
        raise ValueError(f"expected {model.d} columns, got {x.shape[1]}")
    with np.errstate(divide="ignore"):
        log_f = sum(
            np.log(np.asarray(m.density(x[:, j])))
            for j, m in enumerate(model.margins)
        )
    if model.structure.trees:
        store = _edge_store(model.margins, model.structure.trees, x)
        log_c = 0.0
        for t, tree in enumerate(model.structure.trees):
            for i, e in enumerate(tree):
                h = store[(t, i)]
                h_jumps = (h[e.a], h[e.b])  # computed outside the errstate below
                with np.errstate(divide="ignore"):
                    log_c = log_c + np.log(gen_density(e.copula, h.input(e.a), h.input(e.b),
                                                       h_jumps))
        log_f = log_f + log_c
    if np.any(~np.isfinite(log_f)):
        warnings.warn("density is zero at some evaluation points; returning -inf there")
    return log_f


# -- Rosenblatt transforms ------------------------------------------------------


def rosenblatt_forward(model: VineModel, x, noise) -> np.ndarray:
    """Randomized forward Rosenblatt transform along the vine.

    Column j of the output carries the randomized conditional CDF of
    variable j given the variables that precede it in the diagonal order:
    V = F_left + W * (F - F_left), with the supplied noise W in [0, 1], and
    V = F exactly where F_left = F (``PseudoObs.randomized``), read from the
    store of an edge walk on x.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != model.d:
        raise ValueError(f"expected {model.d} columns, got {x.shape[1]}")
    if not np.isfinite(x).all():
        raise ValueError("data must be finite")
    return rosenblatt_forward_from_fit(model, _edge_store(model.margins, model.structure.trees, x), noise)


def rosenblatt_forward_from_fit(model: VineModel, store: dict, noise, rows=None) -> np.ndarray:
    """``rosenblatt_forward(model, x_fit[rows], noise)``, read from the edge
    store of x_fit without a walk.

    ``store`` is the edge store of the rows x_fit, as ``fit_vine(x_fit, ...,
    store=store)`` fills it for the rows it fits; ``rows`` are positions in
    x_fit, in any order and with repeats, or every row when None.  Each
    h-output depends on its own row alone, so the store read at those
    positions is what a fresh edge walk gives.  ``noise`` holds one row per
    row read and lies in [0, 1].
    """
    rows = slice(None) if rows is None else rows
    w = np.atleast_2d(np.asarray(noise, dtype=float))
    if w.shape != (len(store[(-1, 0)][0].u[rows]), model.d):
        raise ValueError("noise must match the data shape")
    if not np.all((w >= 0) & (w <= 1)):
        raise ValueError("noise must lie in [0, 1]")
    v = np.empty_like(w)
    for var, chain in model._steps:
        v[:, var] = store[chain[0] if chain else (-1, var)][var][rows].randomized(w[:, var])
    return v


def rosenblatt_inverse(model: VineModel, v) -> np.ndarray:
    """Inverse Rosenblatt transform: i.i.d. uniforms to model samples.

    Levels landing inside an atom's conditional jump produce the atom value
    through the generalized marginal quantile.  The edge store starts with an
    empty entry per margin, filled as each variable is assigned; an edge
    output is computed once, when a later step's chain first reads it.
    """
    v = np.atleast_2d(np.asarray(v, dtype=float))
    if v.shape[1] != model.d:
        raise ValueError(f"expected {model.d} columns, got {v.shape[1]}")
    if not np.all((v > 0.0) & (v < 1.0)):
        raise ValueError("uniform levels must lie strictly inside (0, 1)")
    trees = model.structure.trees
    x = np.empty_like(v)
    store = _edge_store(model.margins, trees)
    for var, chain in model._steps:
        target = v[:, var]
        for t, i in chain:
            e = trees[t][i]
            direction, other = (1, e.b) if e.a == var else (2, e.a)
            target = hfunc_inverse(e.copula, direction, target, store[(t, i)].input(other))
        x[:, var] = np.asarray(model.margins[var].quantile(target))
        store[(-1, var)][var] = model.margins[var].pseudo_obs(x[:, var])
    return x


def vine_sample(model: VineModel, n: int, seed: int = 0) -> np.ndarray:
    """Draw n rows by inverse Rosenblatt of seeded i.i.d. uniforms."""
    if n < 1:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    v = np.clip(rng.uniform(size=(n, model.d)), 1e-12, 1.0 - 1e-12)
    return rosenblatt_inverse(model, v)
