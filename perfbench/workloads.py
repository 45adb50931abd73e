"""The benchmark workloads: one pipeline iteration, its output checks and metrics.

An iteration runs fit -> correct (VBC) -> correct (UBC) -> evaluate, each
stage starting when the previous one returns (closed loop, one client).  The
CLI workloads go through ``vinebc.cli.run_pipeline`` on CSV files; ``unit_d5``
calls the library directly.  Program functions are looked up on their module
at call time, so the tracer's patches take effect.
"""
from __future__ import annotations

import csv
import hashlib
import json
import os
import resource
import time
from contextlib import nullcontext

import numpy as np

import vinebc
import vinebc.cli

from hostspeed import HostClock
from inputs import D3_TABLES, D3_VARIABLES, KINDS5, d5_units

HERE = os.path.dirname(os.path.abspath(__file__))

PARAMETRIC_FAMILIES = ("independence", "gaussian", "clayton", "gumbel", "frank")
N_CHUNKS = 8  # season x diurnal cells
STAGES = ("fit", "correct_vbc", "correct_ubc", "evaluate")
# Only VBC is checked for exact zeros: its forward transform is randomized
# across atoms.  UBC quantile-maps every model zero through F(0); when the
# model has more zeros than the reference, that level lies above the
# reference atom and UBC returns no zeros at all.
KEEPS_ATOMS = ("vbc",)

# Sizes keep the contrasts the workloads exist for: CLI units above 512 rows
# (W2 subsample path) against at most 512 (exact path), one member against
# several (calibration margins refit once per member), default families
# against parametric ones, CLI against library.  They are small enough that
# a 30 s run holds three or more iterations.
WORKLOADS = {
    "ensemble_d3": {"kind": "cli", "members": 1, "years": 2, "workers": 1},
    "unit_d5": {"kind": "lib", "units": 3, "n": 3600},
    "ensemble_many_w2": {"kind": "cli", "members": 4, "years": 1, "workers": 2},
}


class CheckError(Exception):
    """A benchmark output check failed."""


def metric_units(kind: str) -> dict:
    """Name -> unit of the ``kind`` metrics (``end_to_end`` or ``per_layer``) of BENCHMARK.json."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def as_metrics(values: dict, kind: str) -> dict:
    """``values`` with their units, in BENCHMARK.json's order; the names must match it."""
    units = metric_units(kind)
    if set(values) != set(units):
        raise ValueError(f"{kind} metrics differ from BENCHMARK.json: "
                         f"{sorted(set(values) ^ set(units))}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def check(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def peak_rss_mb() -> float:
    """Peak RSS of this process or its largest reaped child (ru_maxrss is KiB on Linux)."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def stage_span(tracer, stage: str):
    return nullcontext() if tracer is None else tracer.span(f"stage.{stage}")


def _read_rows(path: str):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def _check_corrected_csv(path: str, mp_rows: list, keeps_atoms: bool) -> None:
    """Row-aligned with the projection input, finite, p >= 0 (with exact zeros)."""
    header, rows = _read_rows(path)
    names = [v["name"] for v in D3_VARIABLES]
    check(header[:2 + len(names)] == ["timestamp", "member"] + names, f"{path}: header {header}")
    check(len(rows) == len(mp_rows), f"{path}: {len(rows)} rows for {len(mp_rows)} input rows")
    check(all(r[:2] == m[:2] for r, m in zip(rows, mp_rows)),
          f"{path}: rows not aligned with the projection input")
    values = np.array([r[2:2 + len(names)] for r in rows], dtype=float)
    check(bool(np.isfinite(values).all()), f"{path}: non-finite corrected values")
    for j, v in enumerate(D3_VARIABLES):
        if v["kind"] != "interval":
            check(bool((values[:, j] >= 0.0).all()), f"{path}: negative {v['name']}")
        if keeps_atoms and v["kind"] == "zero_inflated":
            check(bool((values[:, j] == 0.0).any()), f"{path}: {v['name']} lost its zeros")


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def write_cli_config(path: str, seed: int, workers: int) -> None:
    """Default family set, overlap 0.25: the configuration users run."""
    cfg = {"seed": seed, "workers": workers, "variables": D3_VARIABLES,
           "correction": {"overlap_fraction": 0.25}}
    with open(path, "w") as fh:
        json.dump(cfg, fh)


def cli_iteration(spec: dict, inputs: dict, cfg_path: str, out_dir: str, repeats: dict,
                  clock: HostClock, tracer=None) -> dict:
    """One closed-loop pass through the CLI entry point, checked.

    ``repeats`` maps a stage to how many times it runs back to back (default
    once); ``times`` holds each stage's list of ``(wall_s, scaled_s)`` from
    ``clock``.
    """
    io = {
        "fit": dict(input_path=inputs["model_calibration"], out_dir=os.path.join(out_dir, "fit")),
        "correct_vbc": dict(method="vbc", mp_path=inputs["model_projection"],
                            rc_path=inputs["reference_calibration"],
                            mc_path=inputs["model_calibration"],
                            out_dir=os.path.join(out_dir, "correct")),
        "correct_ubc": dict(method="ubc", mp_path=inputs["model_projection"],
                            rc_path=inputs["reference_calibration"],
                            mc_path=inputs["model_calibration"],
                            out_dir=os.path.join(out_dir, "correct")),
        "evaluate": dict(model_path=inputs["model_projection"],
                         corrected_path=os.path.join(out_dir, "correct", "corrected_vbc.csv"),
                         ref_path=inputs["reference_projection"],
                         out_dir=os.path.join(out_dir, "evaluate")),
    }
    times, pool_cpu = {}, 0.0
    for stage in STAGES:
        command = stage.split("_")[0]
        times[stage] = []
        for _ in range(repeats.get(stage, 1)):
            cpu0 = children_cpu_s()
            with clock.timed(times[stage]), stage_span(tracer, stage):
                code = vinebc.cli.run_pipeline(command, cfg_path, **io[stage])
            check(code == vinebc.cli.EXIT_OK, f"{stage}: exit status {code}")
            if command == "correct":
                pool_cpu += children_cpu_s() - cpu0

    expected_units = N_CHUNKS * spec["members"]
    fit_manifest = _load_json(os.path.join(out_dir, "fit", "manifest_fit.json"))
    attempted = N_CHUNKS
    failed = len(fit_manifest["failures"])
    check(len(fit_manifest["outputs"]) == N_CHUNKS,
          f"fit wrote {len(fit_manifest['outputs'])} models, expected {N_CHUNKS}")
    _, mp_rows = _read_rows(inputs["model_projection"])
    digests = {}
    for method in ("vbc", "ubc"):
        manifest = _load_json(os.path.join(out_dir, "correct", f"manifest_correct_{method}.json"))
        attempted += len(manifest["unit_seeds"])
        failed += len(manifest["failures"])
        check(len(manifest["unit_seeds"]) == expected_units,
              f"{method}: {len(manifest['unit_seeds'])} units, expected {expected_units}")
        path = os.path.join(out_dir, "correct", f"corrected_{method}.csv")
        _check_corrected_csv(path, mp_rows, keeps_atoms=method in KEEPS_ATOMS)
        digests[f"corrected_{method}.csv"] = sha256_file(path)
    report_path = os.path.join(out_dir, "evaluate", "report.json")
    report = _load_json(report_path)["corrected"]
    digests["report.json"] = sha256_file(report_path)
    attempted += expected_units
    failed += expected_units - report["n_units"]
    check(report["n_units"] == expected_units,
          f"report has {report['n_units']} units, expected {expected_units}")
    check(failed == 0, f"{failed} unit(s) failed")
    return {"times": times, "report": report, "digests": digests, "attempted": attempted,
            "failed": failed, "pool_cpu_s": pool_cpu}


def lib_iteration(units: list, seed: int, repeats: dict, clock: HostClock, tracer=None) -> dict:
    """One closed-loop pass of library calls over the d=5 units, checked
    (``repeats`` and ``times`` as in ``cli_iteration``)."""
    configs = [vinebc.CorrectionConfig(family_set=PARAMETRIC_FAMILIES, seed=seed + k)
               for k in range(len(units))]
    out = {}

    def fit():
        return [vinebc.fit_vine(u["x_rc"], KINDS5, family_set=PARAMETRIC_FAMILIES, seed=c.seed)
                for u, c in zip(units, configs)]

    def correct(fn):
        return [fn(u["x_mp"], u["x_rc"], u["x_mc"], KINDS5, c).values
                for u, c in zip(units, configs)]

    def evaluate():
        # the per-unit calls cmd_evaluate makes
        report = vinebc.MetricReport()
        for k, (u, c) in enumerate(zip(units, configs)):
            x_m, x_c, x_ref = u["x_mp"], out["correct_vbc"][k], u["x_rp"]
            _, mci_mean = vinebc.mci(x_m, x_c)
            report.add(vinebc.UnitMetrics(
                chunk="unit", member=k, method="corrected",
                w2_model=vinebc.wasserstein2(x_m, x_ref, standardize=True, seed=c.seed),
                w2_corrected=vinebc.wasserstein2(x_c, x_ref, standardize=True, seed=c.seed),
                mci_mean=mci_mean,
                copula_iw2=vinebc.copula_iw2(x_c, x_m, x_ref, seed=c.seed),
                margin_iw2=dict(enumerate(vinebc.per_margin_iw2(x_c, x_m, x_ref).tolist())),
                seed=c.seed,
            ))
        return report.aggregates()["corrected"]

    runners = {"fit": fit, "correct_vbc": lambda: correct(vinebc.vbc_correct),
               "correct_ubc": lambda: correct(vinebc.ubc_correct), "evaluate": evaluate}
    times = {}
    for stage in STAGES:
        times[stage] = []
        for _ in range(repeats.get(stage, 1)):
            with clock.timed(times[stage]), stage_span(tracer, stage):
                out[stage] = runners[stage]()

    digests = {}
    for method in ("vbc", "ubc"):
        h = hashlib.sha256()
        for u, x in zip(units, out[f"correct_{method}"]):
            check(x.shape == u["x_mp"].shape, f"{method}: shape {x.shape} for {u['x_mp'].shape}")
            check(bool(np.isfinite(x).all()), f"{method}: non-finite corrected values")
            for j, kind in enumerate(KINDS5):
                if kind != "interval":
                    check(bool((x[:, j] >= 0.0).all()), f"{method}: negative column {j}")
                if method in KEEPS_ATOMS and kind == "zero_inflated":
                    check(bool((x[:, j] == 0.0).any()), f"{method}: column {j} lost its zeros")
            h.update(np.ascontiguousarray(x).tobytes())
        digests[f"corrected_{method}"] = h.hexdigest()
    report = out["evaluate"]
    digests["report"] = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    n = len(units)
    check(report["n_units"] == n, f"report has {report['n_units']} units, expected {n}")
    return {"times": times, "report": report, "digests": digests, "attempted": 4 * n,
            "failed": 0, "pool_cpu_s": 0.0}


class Workload:
    """Inputs of one workload in one run directory, and its iterations."""

    def __init__(self, name: str, seed: int, run_dir: str):
        self.name = name
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.run_dir = run_dir
        self.inputs = None
        self.units = None
        self._count = 0

    def load_inputs(self) -> None:
        """Pick up what the timed set-up wrote; library inputs are regenerated (same seed)."""
        if self.spec["kind"] == "cli":
            self.inputs = {n: os.path.join(self.run_dir, "inputs", f"{n}.csv") for n in D3_TABLES}
        else:
            self.units = d5_units(self.seed, self.spec["units"], self.spec["n"])

    def iterate(self, workers: int | None = None, repeats: dict | None = None,
                clock: HostClock | None = None, tracer=None) -> dict:
        repeats = repeats or {}
        clock = clock or HostClock(scaled=False)
        self._count += 1
        if self.spec["kind"] == "lib":
            t0 = time.perf_counter()
            res = lib_iteration(self.units, self.seed, repeats, clock, tracer)
        else:
            workers = workers or self.spec["workers"]
            cfg_path = os.path.join(self.run_dir, f"config_w{workers}.json")
            write_cli_config(cfg_path, self.seed, workers)
            out_dir = os.path.join(self.run_dir, f"iter{self._count}")
            t0 = time.perf_counter()
            res = cli_iteration(self.spec, self.inputs, cfg_path, out_dir, repeats, clock,
                                tracer)
            res["workers"] = workers
        res["wall_s"] = time.perf_counter() - t0
        return res
