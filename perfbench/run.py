"""vinebc benchmark: time fit -> correct -> evaluate on one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the run sets up the inputs three times (each in
a fresh process, so imports count), then repeats whole pipeline iterations
for about ``--seconds`` seconds and reports the median of each stage's run
times (``fit`` runs three times per iteration).  Set-up and stage times are
scaled to the host's speed around each of them (``hostspeed.py``).
With ``--trace 1`` it makes one untraced and one traced iteration and reports
per-layer numbers.  Every iteration checks its outputs.  The last line of
standard output is the JSON result.
"""
from __future__ import annotations

import os

# Pinned before numpy loads; inherited by the set-up and pool processes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# The benchmark's config files fix the seed and the worker count.
for _var in ("VINEBC_SEED", "VINEBC_WORKERS"):
    os.environ.pop(_var, None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3
MIN_ITERATIONS = 3  # so that every stage median has at least three samples
# Back-to-back runs of a stage in each timed iteration.  ``fit`` is the
# shortest stage (about a tenth of an iteration); with three or four samples
# a run its median followed the host's speed swings, with nine or more it
# does much less.
TIMED_REPEATS = {"fit": 3}


def machine_info() -> dict:
    """Hardware, software versions and commit of this run."""
    import numpy
    import scipy

    info = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": None, "cache": {},
            "mem_total_kb": None, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "commit": None}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu_model"] = next((ln.split(":", 1)[1].strip() for ln in fh
                                      if ln.startswith("model name")), None)
        with open("/proc/meminfo") as fh:
            info["mem_total_kb"] = int(next(ln.split()[1] for ln in fh
                                            if ln.startswith("MemTotal")))
    except OSError:
        pass
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(cache_dir):
        for entry in sorted(os.listdir(cache_dir)):
            try:
                with open(os.path.join(cache_dir, entry, "level")) as fh:
                    level = fh.read().strip()
                with open(os.path.join(cache_dir, entry, "type")) as fh:
                    kind = fh.read().strip()
                with open(os.path.join(cache_dir, entry, "size")) as fh:
                    size = fh.read().strip()
            except OSError:
                continue
            if level in ("2", "3") and kind in ("Unified", "Data"):
                info["cache"][f"L{level}"] = size
    if os.path.exists(os.path.join(ROOT, ".git")):  # an exported checkout has no commit
        try:
            res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
            if res.returncode == 0:
                info["commit"] = res.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return info


def timed_setup(workload: str, seed: int, run_dir: str, repeats: int, clock) -> list:
    """``clock``'s ``(wall_s, scaled_s)`` of each fresh-process set-up (imports
    plus inputs)."""
    cmd = [sys.executable, os.path.join(HERE, "inputs.py"), "--src", SRC,
           "--workload", workload, "--seed", str(seed), "--out", os.path.join(run_dir, "inputs")]
    samples = []
    for _ in range(repeats):
        with clock.timed(samples):
            subprocess.run(cmd, check=True, timeout=170)
    return samples


def run_timed(wl, seconds: float, clock) -> list:
    """``MIN_ITERATIONS`` whole iterations, then more while the next would end
    less than half of one past ``seconds``."""
    iters = []
    t0 = time.perf_counter()
    while True:
        iters.append(wl.iterate(repeats=TIMED_REPEATS, clock=clock))
        if (len(iters) >= MIN_ITERATIONS
                and time.perf_counter() - t0 + iters[-1]["wall_s"] / 2 > seconds):
            return iters


def end_to_end(iters: list, setup: list, clock) -> dict:
    """Stage times are medians of the scaled times.  Set-up is scaled by the
    median reference time of the whole run, because a reference taken right
    after a set-up process ends reads slow."""
    from workloads import as_metrics, peak_rss_mb

    med = {s: statistics.median(scaled for it in iters for _, scaled in it["times"][s])
           for s in iters[0]["times"]}
    report = iters[0]["report"]
    attempted = sum(it["attempted"] for it in iters)
    failed = sum(it["failed"] for it in iters)
    values = {
        "setup_s": clock.scale_by_run(statistics.median(wall for wall, _ in setup)),
        "fit_s": med["fit"],
        "correct_vbc_s": med["correct_vbc"],
        "correct_ubc_s": med["correct_ubc"],
        "evaluate_s": med["evaluate"],
        "peak_rss_mb": peak_rss_mb(),
        "unit_ok_share": (attempted - failed) / attempted,
        "vbc_iw2_median": report["iw2_median"],
        "vbc_copula_iw2_median": report["copula_iw2_median"],
        "vbc_mci_median": report["mci_median"],
    }
    return as_metrics(values, "end_to_end")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(SRC, "vinebc", "__init__.py")):
        print(f"no vinebc sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import vinebc

    if not os.path.abspath(vinebc.__file__).startswith(SRC + os.sep):
        print(f"vinebc imported from {vinebc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import traced
    from spans import COMPUTED
    from hostspeed import HostClock
    from workloads import WORKLOADS, CheckError, Workload

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")

    run_dir = os.path.join(ROOT, ".perfbench", f"run-{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        clock = HostClock(scaled=not args.trace)
        # the traced run reports no set-up time, so it sets up once
        setup = timed_setup(args.workload, args.seed, run_dir,
                            1 if args.trace else SETUP_REPEATS, HostClock(scaled=False))
        wl = Workload(args.workload, args.seed, run_dir)
        wl.load_inputs()
        if args.trace:
            trace_path = os.path.join(ROOT, ".perfbench",
                                      f"trace-{args.workload}-{args.seed}.json")
            iters, metrics, extra = traced.run(wl, trace_path)
            extra = {"self_s_by_stage": extra, "computed_counts": COMPUTED}
        else:
            iters = run_timed(wl, args.seconds, clock)
            metrics = end_to_end(iters, setup, clock)
            extra = {"setup_s": setup, "reference_s": clock.ref_s}
        digests = iters[0]["digests"]
        for it in iters[1:]:
            if it["digests"] != digests:
                raise CheckError(f"outputs differ between iterations: {it['digests']} vs {digests}")
    except CheckError as exc:
        print(f"output check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "iterations": len(iters), "machine": machine_info(), "digests": digests,
            "stage_s": [it["times"] for it in iters], **extra}
    print(json.dumps({"info": info}))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": True,
        "attempted": sum(it["attempted"] for it in iters),
        "failed": sum(it["failed"] for it in iters),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
