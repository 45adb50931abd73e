"""In-memory span tracer that wraps the public functions of ``vinebc``.

Each wrapped call records a span (id, parent, name, start, end, counts).  A
function is patched where it is defined and in every ``vinebc`` module that
imported it by name, so calls between modules are seen too.  Self time is a
span's duration minus the time covered by its child spans.
"""
from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

import numpy as np

# span name -> (defining module, function name or Class.method)
TRACED = {
    "cli.run_pipeline": ("vinebc.cli", "run_pipeline"),
    "cli.write_table_csv": ("vinebc.cli", "write_table_csv"),
    "dataset.load_table": ("vinebc.dataset", "load_table"),
    "dataset.make_chunks": ("vinebc.dataset", "make_chunks"),
    "dataset.extend_overlap": ("vinebc.dataset", "extend_overlap"),
    "marginal.fit_marginal": ("vinebc.marginal", "fit_marginal"),
    "correction.vbc_correct": ("vinebc.correction", "vbc_correct"),
    "correction.ubc_correct": ("vinebc.correction", "ubc_correct"),
    "correction.delta_map": ("vinebc.correction", "delta_map"),
    "vine.fit_vine": ("vinebc.vine", "fit_vine"),
    "vine.VineModel.save": ("vinebc.vine", "VineModel.save"),
    "vine.rosenblatt_forward": ("vinebc.vine", "rosenblatt_forward"),
    "vine.rosenblatt_inverse": ("vinebc.vine", "rosenblatt_inverse"),
    "copula.fit_pair": ("vinebc.copula", "fit_pair"),
    "copula.kendall_tau": ("vinebc.copula", "kendall_tau"),
    "copula.hfunc": ("vinebc.copula", "hfunc"),
    "copula.hfunc_inverse": ("vinebc.copula", "hfunc_inverse"),
    "evaluation.wasserstein2": ("vinebc.evaluation", "wasserstein2"),
    "evaluation.copula_iw2": ("vinebc.evaluation", "copula_iw2"),
    "evaluation.mci": ("vinebc.evaluation", "mci"),
}

GRID_SIZE = 512  # knots of every margin KDE (vinebc.marginal.GRID_SIZE)
OT_SUBSAMPLE = 512  # vinebc.evaluation.OT_SUBSAMPLE
OT_REPEATS = 4  # vinebc.evaluation.OT_REPEATS


def _kernel_evals(args, kwargs, result) -> dict:
    """Computed: continuous (non-atom) sample points x grid knots."""
    n_cont = round(np.asarray(args[0]).size * result.continuous_mass)
    return {"kernel_evals": n_cont * kwargs.get("grid_size", GRID_SIZE)}


def _assignment(args, kwargs, result) -> dict:
    """Computed: assignment solves and cost-matrix cells (s^2 per solve)."""
    a, b = (np.asarray(x) for x in args[:2])
    if a.ndim == 1 or a.shape[1] == 1:
        return {"assignment_solves": 0, "assignment_points": 0}
    n, m = a.shape[0], b.shape[0]
    subsample = kwargs.get("subsample", OT_SUBSAMPLE)
    if n == m and n <= subsample:
        return {"assignment_solves": 1, "assignment_points": n * n}
    s = min(subsample, n, m)
    repeats = kwargs.get("repeats", OT_REPEATS)
    return {"assignment_solves": repeats, "assignment_points": repeats * s * s}


def _comparisons(args, kwargs, result) -> dict:
    """Computed: two empirical joint CDFs of n points over n rows and d columns."""
    n, d = np.atleast_2d(np.asarray(args[0])).shape
    return {"comparisons": 2 * n * n * d}


# Counts the benchmark computes from call arguments, not measures.
COMPUTED = {
    "marginal.fit_marginal.kernel_evals": "sum over fits of continuous points x 512 knots",
    "evaluation.wasserstein2.assignment_solves": "4 per subsampled call, 1 when n = m <= 512",
    "evaluation.wasserstein2.assignment_points": "sum over solves of s^2 cost cells",
    "evaluation.mci.comparisons": "sum over calls of 2 n^2 d",
    "copula.hfunc_inverse.hfunc_calls_per_call": "hfunc calls inside hfunc_inverse / its calls",
}

COUNTERS = {
    "dataset.load_table": lambda args, kwargs, result: {"rows": len(result)},
    "cli.write_table_csv": lambda args, kwargs, result: {"rows": len(args[1])},
    "marginal.fit_marginal": _kernel_evals,
    "evaluation.wasserstein2": _assignment,
    "evaluation.mci": _comparisons,
}


class Tracer:
    """Records spans in memory; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans = []  # [id, parent, name, start, end, counts]
        self._stack = []
        self._patched = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _open(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        rec = [len(self.spans), parent, name, time.perf_counter(), None, None]
        self.spans.append(rec)
        self._stack.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[4] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if counter is not None:
                rec[5] = counter(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "vinebc" or n.startswith("vinebc.")]
        for name, (mod_name, attr) in TRACED.items():
            cls_name, _, method = attr.rpartition(".")
            if cls_name:  # a method is patched on its class only
                cls = getattr(sys.modules[mod_name], cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, self._wrap(name, original))
                self._patched.append((cls, method, original))
                continue
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def dump(self, path: str) -> None:
        keys = ("id", "parent", "name", "start", "end", "counts")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def summarize(spans: list) -> dict:
    """Per span name: calls, inclusive seconds, self seconds, durations, counts.

    Inclusive seconds count only the outermost span of a name, so a function
    that reaches itself again is not counted twice.  ``calls_under`` counts
    calls by the name of the calling span.
    """
    by_id = {s[0]: s for s in spans}
    child_time = {}
    for s in spans:
        if s[1] is not None:
            child_time[s[1]] = child_time.get(s[1], 0.0) + (s[4] - s[3])
    out = {}
    for s in spans:
        dur = s[4] - s[3]
        agg = out.setdefault(s[2], {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": [],
                                    "counts": {}, "calls_under": {}})
        agg["calls"] += 1
        agg["self_s"] += dur - child_time.get(s[0], 0.0)
        agg["durations"].append(dur)
        anc = s[1]
        while anc is not None and by_id[anc][2] != s[2]:
            anc = by_id[anc][1]
        if anc is None:
            agg["s"] += dur
        for k, v in (s[5] or {}).items():
            agg["counts"][k] = agg["counts"].get(k, 0) + v
        caller = by_id[s[1]][2] if s[1] is not None else None
        agg["calls_under"][caller] = agg["calls_under"].get(caller, 0) + 1
    return out


def subtree_self_time(spans: list, root_id: int) -> dict:
    """Self seconds by span name over a span and all its descendants."""
    kids = {}
    for s in spans:
        if s[1] is not None:
            kids.setdefault(s[1], []).append(s)
    out = {}
    todo = [spans[root_id]]
    while todo:
        s = todo.pop()
        children = kids.get(s[0], [])
        own = (s[4] - s[3]) - sum(c[4] - c[3] for c in children)
        out[s[2]] = out.get(s[2], 0.0) + own
        todo.extend(children)
    return out
