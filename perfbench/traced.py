"""The traced run: per-layer metrics of one workload.

An untraced iteration at the workload's own worker count gives the pool
figures (and the base wall time); the traced iteration runs at ``workers=1``
so every span stays in this process.  When the workload's worker count is
not 1, an untraced ``workers=1`` iteration gives the base for the tracing
overhead, and equal output digests across the iterations show that the
worker count does not change the output.
"""
from __future__ import annotations

import numpy as np

from spans import TRACED, Tracer, subtree_self_time, summarize
from workloads import CheckError, as_metrics, metric_units

# Largest share of a stage's traced wall time that may fall outside every
# traced layer: the stage span's own self time plus ``cli.run_pipeline``'s.
UNCLAIMED_MAX = 1 / 3

_EMPTY = {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": [], "counts": {}, "calls_under": {}}


def layer_metrics(spans: list, names) -> dict:
    """Per-layer values of ``names`` that the spans of one traced iteration give."""
    agg = summarize(spans)
    out = {}
    for name in names:
        layer, _, field = name.rpartition(".")
        a = agg.get(layer, _EMPTY)
        if field in ("calls", "s", "self_s"):
            out[name] = a[field]
        elif field in ("unit_s_p50", "unit_s_p90"):
            q = 50 if field.endswith("50") else 90
            out[name] = float(np.percentile(a["durations"], q)) if a["durations"] else 0.0
        elif field == "hfunc_calls_per_call":
            inside = agg.get("copula.hfunc", _EMPTY)["calls_under"].get(layer, 0)
            out[name] = inside / a["calls"] if a["calls"] else 0.0
        elif field in a["counts"]:
            out[name] = a["counts"][field]
        elif layer in TRACED:  # counted layer not called in this workload
            out[name] = 0
    for s in spans:
        if s[2].startswith("stage."):
            out[f"{s[2]}.traced_s"] = s[4] - s[3]
    return out


def self_time_by_stage(spans: list) -> tuple:
    """Self seconds of each layer per stage, and the largest unclaimed share.

    The unclaimed share of a stage is the part of its traced wall time that no
    layer below ``cli.run_pipeline`` claims; more than ``UNCLAIMED_MAX`` means
    the traced functions no longer cover where the stage spends its time.
    """
    out, worst = {}, 0.0
    for s in spans:
        if not s[2].startswith("stage."):
            continue
        wall = s[4] - s[3]
        selfs = subtree_self_time(spans, s[0])
        unclaimed = (selfs.get(s[2], 0.0) + selfs.get("cli.run_pipeline", 0.0)) / wall
        if unclaimed > UNCLAIMED_MAX:
            raise CheckError(f"{s[2]}: {unclaimed:.0%} of the traced wall time is in no traced "
                             f"layer (at most {UNCLAIMED_MAX:.0%})")
        worst = max(worst, unclaimed)
        out[s[2]] = dict(sorted(selfs.items(), key=lambda kv: -kv[1]))
    return out, worst


def run(wl, trace_path: str) -> tuple:
    """Untraced and traced iterations.

    Returns the iterations, the per-layer metrics and the self seconds of
    each layer per stage.
    """
    iters = [wl.iterate()]
    pool = iters[0]
    workers = pool.get("workers", 1)
    correct_wall = sum(wall for stage in ("correct_vbc", "correct_ubc")
                       for wall, _ in pool["times"][stage])
    if workers != 1:
        iters.append(wl.iterate(workers=1))
    base_wall = iters[-1]["wall_s"]

    tracer = Tracer()
    tracer.install()
    try:
        iters.append(wl.iterate(workers=1, tracer=tracer))
    finally:
        tracer.uninstall()
    tracer.dump(trace_path)

    by_stage, unclaimed = self_time_by_stage(tracer.spans)
    values = layer_metrics(tracer.spans, metric_units("per_layer"))
    values["cli.pool.worker_cpu_s"] = pool["pool_cpu_s"] if workers > 1 else 0.0
    values["cli.pool.utilisation"] = (
        pool["pool_cpu_s"] / (workers * correct_wall) if workers > 1 else 0.0
    )
    values["trace.overhead_share"] = iters[-1]["wall_s"] / base_wall
    values["trace.unclaimed_share"] = unclaimed
    return iters, as_metrics(values, "per_layer"), by_stage
