"""Run every workload on seeds 101-110, plus one traced run each, and summarise.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Each run is ``perfbench/run.py`` in its own process, with the workloads and
the run length of ``BENCHMARK.json``.  For every end-to-end metric and
workload the summary gives the median, the quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of the
median, next to the metric's bound.  The traced run (seed 101) adds the
per-layer numbers and must give the same output digests as the timed run of
that seed.  Run from the root of a source checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = range(101, 111)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if res.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {res.returncode}:\n{res.stderr}")
    lines = res.stdout.strip().splitlines()
    info = next(json.loads(ln)["info"] for ln in lines if ln.startswith('{"info"'))
    return {"result": json.loads(lines[-1]), "info": info}


def summarise(values: list, bound: float) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "bound": bound,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="write the summary here as JSON")
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for w in (wl["name"] for wl in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            runs.append(run_once(w, seed, bench["run_seconds"], 0))
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in runs[-1]["result"]["metrics"].items()),
                file=sys.stderr, flush=True)
        metrics = {k: summarise([r["result"]["metrics"][k]["value"] for r in runs], bounds[k])
                   for k in bounds}
        traced = run_once(w, SEEDS[0], bench["run_seconds"], 1)
        if traced["info"]["digests"] != runs[0]["info"]["digests"]:
            raise SystemExit(f"{w}: traced outputs differ from the timed run's")
        summary["workloads"][w] = {
            "end_to_end": metrics,
            "iterations": [r["info"]["iterations"] for r in runs],
            "digests": {r["info"]["seed"]: r["info"]["digests"] for r in runs},
            "machine": runs[0]["info"]["machine"],
            "per_layer": {k: v["value"] for k, v in traced["result"]["metrics"].items()},
            "self_s_by_stage": traced["info"]["self_s_by_stage"],
        }
        for k, m in metrics.items():
            flag = "" if m["spread"] <= m["bound"] / 3 else "  > bound/3"
            print(f"{w:18s} {k:24s} median {m['median']:.5g}  spread {m['spread']:.4f}"
                  f"  bound {m['bound']}{flag}")
    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
