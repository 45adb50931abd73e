"""Batch front-end: fit, correct, evaluate and simulate commands.

A single JSON config file drives every command; environment variables
``VINEBC_SEED`` and ``VINEBC_WORKERS`` override only the master seed and the
parallelism degree.  Correction and evaluation units (one per chunk and
member) carry seeds derived from (master seed, chunk, member), and
``workers`` > 1 runs them on a process pool; outputs are byte-identical at
any parallelism degree.  Exit codes: 0 success, 1 config error, 2 data
error, 3 partial unit failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from ._util import subseed
from .correction import CorrectionConfig, ubc_correct, vbc_correct
from .dataset import (
    ALL_CHUNK_KEYS,
    ClimateTable,
    VariableSpec,
    chunk_manifest,
    extend_overlap,
    load_table,
    make_chunks,
)
from .errors import ConfigError, VinebcError
from .evaluation import (
    MetricReport,
    UnitMetrics,
    copula_iw2,
    mci,
    per_margin_iw2,
    wasserstein2,
)
from .marginal import normalize_kind
from .synthetic import BiasSpec, GroundTruth, MarginSpec, make_ensemble_table
from .vine import fit_vine

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_PARTIAL = 3

# the config file's "correction" block; the seed comes from the top level
_CORRECTION_FIELDS = tuple(f.name for f in dataclasses.fields(CorrectionConfig) if f.name != "seed")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _checked_int(cfg: dict, key: str, env: str, least: int) -> None:
    """Apply the environment override of ``cfg[key]``, then check the value."""
    source = key
    if env in os.environ:
        source = env
        try:
            cfg[key] = int(os.environ[env])
        except ValueError:
            raise ConfigError(f"{env}: not an integer: {os.environ[env]!r}") from None
    value = cfg.get(key, least)
    if not _is_int(value) or value < least:
        raise ConfigError(f"{source}: must be a {'nonnegative' if least == 0 else 'positive'} integer")


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    if "variables" not in cfg or not isinstance(cfg["variables"], list) or not cfg["variables"]:
        raise ConfigError("variables: required non-empty list")
    for i, v in enumerate(cfg["variables"]):
        if not isinstance(v, dict) or "name" not in v or "kind" not in v:
            raise ConfigError(f"variables[{i}]: need name and kind")
        try:
            normalize_kind(v["kind"])
        except ValueError as exc:
            raise ConfigError(f"variables[{i}].kind: {exc}") from None
    _checked_int(cfg, "seed", "VINEBC_SEED", 0)
    _checked_int(cfg, "workers", "VINEBC_WORKERS", 1)
    correction = cfg.get("correction", {})
    if not isinstance(correction, dict):
        raise ConfigError("correction: must be a JSON object")
    unknown = set(correction) - set(_CORRECTION_FIELDS)
    if unknown:
        raise ConfigError(f"correction: unknown fields {sorted(unknown)}")
    return cfg


def _variable_specs(cfg: dict) -> list:
    return [VariableSpec(v["name"], v["kind"], v.get("units", "")) for v in cfg["variables"]]


def _correction_config(cfg: dict) -> CorrectionConfig:
    try:
        return CorrectionConfig(seed=cfg.get("seed", 0), **cfg.get("correction", {}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"correction: {exc}") from None


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _fmt(x: float) -> str:
    return repr(float(x))


def write_table_csv(path: str, table: ClimateTable, extra: dict | None = None) -> None:
    extra = extra or {}
    with open(path, "w") as fh:
        cols = ["timestamp", "member"] + table.var_names + list(extra)
        fh.write(",".join(cols) + "\n")
        ts = table.timestamps.astype("datetime64[s]").astype(str)
        for i in range(len(table)):
            row = [ts[i], str(int(table.members[i]))]
            row += [_fmt(v) for v in table.values[i]]
            row += [str(extra[k][i]) for k in extra]
            fh.write(",".join(row) + "\n")


def _write_manifest(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _exit_status(failures: dict) -> int:
    """Name the failed units on stderr; the exit status of a run with these failures."""
    if not failures:
        return EXIT_OK
    print(f"{len(failures)} unit(s) failed:", file=sys.stderr)
    for unit, err in sorted(failures.items()):
        print(f"  {unit}: {err}", file=sys.stderr)
    return EXIT_PARTIAL


def _units(table: ClimateTable, chunks: dict, seed: int):
    """The (chunk, member) units in output order, empty ones included.

    Yields (chunk key, member, unit seed, the member's core rows of the
    chunk); the unit seed depends on (master seed, chunk, member) only.
    """
    members = sorted(int(m) for m in np.unique(table.members))
    for ci, key in enumerate(ALL_CHUNK_KEYS):
        core = chunks[key].core_rows
        for member in members:
            yield key, member, subseed(seed, ci, member), core[table.members[core] == member]


def _map_units(fn, tasks: list, workers: int) -> list:
    """``fn`` of each unit task, in task order; on a process pool when ``workers`` > 1."""
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


# -- correct -----------------------------------------------------------------


def _correct_unit(task: tuple):
    """Run one (chunk, member) correction unit; returns the corrected rows or an error."""
    corrector, x_mp, x_rc, x_mc, kinds, config, mp_fit = task
    try:
        return corrector(x_mp, x_rc, x_mc, kinds, config, mp_fit=mp_fit).values
    except VinebcError as exc:
        return f"{type(exc).__name__}: {exc}"


def _config_as_dict(config: CorrectionConfig) -> dict:
    return {name: getattr(config, name) for name in _CORRECTION_FIELDS}


def _extended_chunks(table: ClimateTable, overlap_fraction: float, seed: int, tag: int) -> dict:
    """The table's chunks with overlap-extended estimation sets, seeded per (tag, chunk)."""
    return {k: extend_overlap(c, table, overlap_fraction, subseed(seed, tag, i))
            for i, (k, c) in enumerate(make_chunks(table).items())}


def cmd_correct(cfg: dict, method: str, mp_path: str, rc_path: str, mc_path: str,
                out_dir: str) -> int:
    specs = _variable_specs(cfg)
    config = _correction_config(cfg)
    seed = cfg.get("seed", 0)
    corrector = {"vbc": vbc_correct, "ubc": ubc_correct}.get(method)
    if corrector is None:
        raise ConfigError(f"unknown method {method!r}")
    mp = load_table(mp_path, specs)
    rc = load_table(rc_path, specs)
    mc = load_table(mc_path, specs)

    mp_chunks = _extended_chunks(mp, config.overlap_fraction, seed, 1)
    rc_chunks = _extended_chunks(rc, config.overlap_fraction, seed, 2)
    mc_chunks = _extended_chunks(mc, config.overlap_fraction, seed, 3)

    unit_seeds, plan, tasks = {}, [], []
    for key, member, unit_seed, rows in _units(mp, mp_chunks, seed):
        unit = f"{key.label}/m{member}"
        unit_seeds[unit] = unit_seed
        if rows.size == 0:
            continue
        est_rows = mp_chunks[key].estimation_rows
        mp_fit = mp.values[est_rows[mp.members[est_rows] == member]]
        plan.append((unit, key, unit_seed, rows))
        tasks.append((corrector, mp.values[rows], rc.values[rc_chunks[key].estimation_rows],
                      mc.values[mc_chunks[key].estimation_rows], mp.kinds,
                      config.with_seed(unit_seed), mp_fit))

    results = _map_units(_correct_unit, tasks, cfg.get("workers", 1))

    corrected = np.full_like(mp.values, np.nan)
    chunk_col = np.empty(len(mp), dtype=object)
    seed_col = np.zeros(len(mp), dtype=np.int64)
    failures = {}
    for (unit, key, unit_seed, rows), res in zip(plan, results):
        if isinstance(res, str):
            failures[unit] = res
            continue
        corrected[rows] = res
        chunk_col[rows] = key.label
        seed_col[rows] = unit_seed

    os.makedirs(out_dir, exist_ok=True)
    ok_rows = ~np.isnan(corrected).any(axis=1)
    out_table = ClimateTable(
        specs, mp.timestamps[ok_rows], mp.members[ok_rows], corrected[ok_rows]
    )
    out_csv = os.path.join(out_dir, f"corrected_{method}.csv")
    write_table_csv(
        out_csv,
        out_table,
        extra={
            "chunk": chunk_col[ok_rows],
            "method": np.full(int(ok_rows.sum()), method, dtype=object),
            "unit_seed": seed_col[ok_rows],
        },
    )
    manifest = {
        "command": "correct",
        "method": method,
        "version": __version__,
        "config": {**cfg, "correction": _config_as_dict(config)},
        "inputs": {p: _digest(p) for p in (mp_path, rc_path, mc_path)},
        "master_seed": seed,
        "unit_seeds": {u: int(s) for u, s in unit_seeds.items()},
        "failures": failures,
        "outputs": [out_csv],
        "chunks": {k.label: len(v.core_rows) for k, v in mp_chunks.items()},
    }
    _write_manifest(os.path.join(out_dir, f"manifest_correct_{method}.json"), manifest)
    return _exit_status(failures)


# -- evaluate ----------------------------------------------------------------


def _evaluate_unit(task: tuple) -> tuple:
    """Metrics of one (chunk, member) unit: W2 of the model and of the corrected
    rows against the reference, per-margin IW2, copula IW2, the MCI series and
    its mean."""
    x_m, x_c, x_ref, seed = task
    return (wasserstein2(x_m, x_ref, standardize=True, seed=seed),
            wasserstein2(x_c, x_ref, standardize=True, seed=seed),
            per_margin_iw2(x_c, x_m, x_ref),
            copula_iw2(x_c, x_m, x_ref, seed=seed),
            *mci(x_m, x_c))


def cmd_evaluate(cfg: dict, model_path: str, corrected_path: str, ref_path: str,
                 out_dir: str) -> int:
    specs = _variable_specs(cfg)
    seed = cfg.get("seed", 0)
    model = load_table(model_path, specs)
    corrected = load_table(corrected_path, specs)
    ref = load_table(ref_path, specs)
    if len(model) != len(corrected) or np.any(model.members != corrected.members) or np.any(
        model.timestamps != corrected.timestamps
    ):
        raise VinebcError("model and corrected tables are not row-aligned")

    method = "corrected"
    ref_chunks = make_chunks(ref)
    plan, tasks = [], []
    for key, member, unit_seed, rows in _units(model, make_chunks(model), seed):
        ref_rows = ref_chunks[key].core_rows
        if rows.size == 0 or ref_rows.size == 0:
            continue
        plan.append((key, member, unit_seed, rows))
        tasks.append((model.values[rows], corrected.values[rows], ref.values[ref_rows], unit_seed))

    report = MetricReport()
    series_rows = []
    results = _map_units(_evaluate_unit, tasks, cfg.get("workers", 1))
    for (key, member, unit_seed, rows), res in zip(plan, results):
        w2_model, w2_corr, margin, cop, series, mci_mean = res
        report.add(
            UnitMetrics(
                chunk=key.label,
                member=member,
                method=method,
                w2_model=w2_model,
                w2_corrected=w2_corr,
                mci_mean=mci_mean,
                copula_iw2=cop,
                margin_iw2={n: float(v) for n, v in zip(model.var_names, margin)},
                seed=unit_seed,
            )
        )
        ts = model.timestamps[rows].astype("datetime64[s]").astype(str)
        series_rows.extend((method, key.label, member, t, _fmt(v)) for t, v in zip(ts, series))

    os.makedirs(out_dir, exist_ok=True)
    paths = emit_report(report, out_dir)
    series_path = os.path.join(out_dir, "mci_series.csv")
    with open(series_path, "w") as fh:
        fh.write("method,chunk,member,timestamp,mci\n")
        for row in series_rows:
            fh.write(",".join(str(c) for c in row) + "\n")
    manifest = {
        "command": "evaluate",
        "version": __version__,
        "config": cfg,
        "inputs": {p: _digest(p) for p in (model_path, corrected_path, ref_path)},
        "master_seed": seed,
        "outputs": paths + [series_path],
    }
    _write_manifest(os.path.join(out_dir, "manifest_evaluate.json"), manifest)
    return EXIT_OK


def emit_report(report: MetricReport, out_dir: str) -> list:
    """Write the metric report as long-format CSV rows and a JSON aggregate."""
    csv_path = os.path.join(out_dir, "report.csv")
    with open(csv_path, "w") as fh:
        fh.write("method,chunk,member,metric,value\n")
        for u in report.sorted_units():
            base = f"{u.method},{u.chunk},{u.member}"
            fh.write(f"{base},w2_model,{_fmt(u.w2_model)}\n")
            fh.write(f"{base},w2_corrected,{_fmt(u.w2_corrected)}\n")
            fh.write(f"{base},iw2,{_fmt(u.iw2)}\n")
            fh.write(f"{base},copula_iw2,{_fmt(u.copula_iw2)}\n")
            fh.write(f"{base},mci_mean,{_fmt(u.mci_mean)}\n")
            fh.write(f"{base},non_invasive,{int(u.non_invasive)}\n")
            for name, val in u.margin_iw2.items():
                fh.write(f"{base},iw2_margin_{name},{_fmt(val)}\n")
    json_path = os.path.join(out_dir, "report.json")
    with open(json_path, "w") as fh:
        json.dump(report.aggregates(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return [csv_path, json_path]


# -- fit ----------------------------------------------------------------------


def cmd_fit(cfg: dict, input_path: str, out_dir: str) -> int:
    specs = _variable_specs(cfg)
    config = _correction_config(cfg)
    seed = cfg.get("seed", 0)
    table = load_table(input_path, specs)
    chunks = _extended_chunks(table, config.overlap_fraction, seed, 1)
    os.makedirs(out_dir, exist_ok=True)
    outputs = []
    failures = {}
    for ci, key in enumerate(ALL_CHUNK_KEYS):
        rows = chunks[key].estimation_rows
        if rows.size == 0:
            continue
        try:
            model = fit_vine(
                table.values[rows],
                table.kinds,
                seed=subseed(seed, 4, ci),
                var_names=table.var_names,
                **config.vine_kwargs(),
            )
        except VinebcError as exc:
            failures[key.label] = f"{type(exc).__name__}: {exc}"
            continue
        path = os.path.join(out_dir, f"model_{key.label}.json")
        model.save(path)
        outputs.append(path)
    manifest = {
        "command": "fit",
        "version": __version__,
        "config": {**cfg, "correction": _config_as_dict(config)},
        "inputs": {input_path: _digest(input_path)},
        "master_seed": seed,
        "chunks": chunk_manifest(chunks),
        "failures": failures,
        "outputs": outputs,
    }
    _write_manifest(os.path.join(out_dir, "manifest_fit.json"), manifest)
    return _exit_status(failures)


# -- simulate -------------------------------------------------------------------


def _simulate_spec(cfg: dict):
    sim = cfg.get("simulate")
    if not isinstance(sim, dict):
        raise ConfigError("simulate: required object for the simulate command")
    specs = _variable_specs(cfg)
    names = [s.name for s in specs]
    margins_cfg = sim.get("margins")
    if not isinstance(margins_cfg, list) or len(margins_cfg) != len(specs):
        raise ConfigError("simulate.margins: need one margin spec per variable")
    margins = []
    for i, (m, s) in enumerate(zip(margins_cfg, specs)):
        try:
            margins.append(
                MarginSpec(
                    kind=s.kind,
                    loc=float(m.get("loc", 0.0)),
                    scale=float(m.get("scale", 1.0)),
                    inflation=float(m.get("inflation", 0.0)),
                )
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"simulate.margins[{i}]: {exc}") from None
    tau = np.asarray(sim.get("tau", np.zeros((len(specs), len(specs)))), dtype=float)
    if tau.shape != (len(specs), len(specs)):
        raise ConfigError(f"simulate.tau: must be a {len(specs)}x{len(specs)} matrix")
    truth = GroundTruth(margins=margins, tau=tau)
    bias_cfg = sim.get("bias", {})

    def named(d):
        out = {}
        for k, v in d.items():
            if k not in names:
                raise ConfigError(f"simulate.bias: unknown variable {k!r}")
            out[names.index(k)] = float(v)
        return out

    bias = BiasSpec(
        shift=named(bias_cfg.get("shift", {})),
        scale=named(bias_cfg.get("scale", {})),
        inflation=named(bias_cfg.get("inflation", {})),
        dependence_scale=float(bias_cfg.get("dependence_scale", 1.0)),
    )
    members = sim.get("members", [1])
    if not isinstance(members, list) or not members or not all(map(_is_int, members)):
        raise ConfigError("simulate.members: must be a non-empty list of integers")
    steps = sim.get("steps_per_member", 2920)
    if not _is_int(steps) or steps < 1:
        raise ConfigError("simulate.steps_per_member: must be a positive integer")
    start_c = sim.get("start", "2001-01-01T00:00:00")
    start_p = sim.get("projection_start", "2011-01-01T00:00:00")
    return specs, truth, bias, members, steps, start_c, start_p


def cmd_simulate(cfg: dict, out_dir: str) -> int:
    specs, truth, bias, members, steps, start_c, start_p = _simulate_spec(cfg)
    seed = cfg.get("seed", 0)
    biased = bias.apply(truth)
    os.makedirs(out_dir, exist_ok=True)
    tables = {
        "reference_calibration": make_ensemble_table(truth, specs, start_c, steps, [0],
                                                     seed=subseed(seed, 21)),
        "reference_projection": make_ensemble_table(truth, specs, start_p, steps, [0],
                                                    seed=subseed(seed, 22)),
        "model_calibration": make_ensemble_table(biased, specs, start_c, steps, members,
                                                 seed=subseed(seed, 23)),
        "model_projection": make_ensemble_table(biased, specs, start_p, steps, members,
                                                seed=subseed(seed, 24)),
    }
    outputs = []
    for name, table in tables.items():
        path = os.path.join(out_dir, f"{name}.csv")
        write_table_csv(path, table)
        outputs.append(path)
    manifest = {
        "command": "simulate",
        "version": __version__,
        "config": cfg,
        "master_seed": seed,
        "outputs": outputs,
    }
    _write_manifest(os.path.join(out_dir, "manifest_simulate.json"), manifest)
    return EXIT_OK


# -- entry points ----------------------------------------------------------------

# command -> handler; each handler takes the loaded config plus the command's
# keyword arguments of ``run_pipeline``
_COMMANDS = {"simulate": cmd_simulate, "fit": cmd_fit, "correct": cmd_correct,
             "evaluate": cmd_evaluate}


def run_pipeline(command: str, config_path: str, **io) -> int:
    """Library entry point mirroring the CLI; returns the exit status."""
    try:
        cfg = _load_config(config_path)
        if command not in _COMMANDS:
            raise ConfigError(f"unknown command {command!r}")
        return _COMMANDS[command](cfg, **io)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except VinebcError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="vinebc",
                                     description="Vine-copula bias correction pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, help, *inputs):
        """A subcommand whose flags store under the ``run_pipeline`` keywords."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", dest="config_path", required=True)
        for flag, dest in inputs:
            p.add_argument(flag, dest=dest, required=True)
        p.add_argument("--output-dir", dest="out_dir", required=True)
        return p

    add_command("simulate", "generate synthetic biased ensembles")
    add_command("fit", "fit one vine model per chunk", ("--input", "input_path"))
    p = add_command("correct", "bias-correct a projection ensemble",
                    ("--model-projection", "mp_path"), ("--reference", "rc_path"),
                    ("--model-calibration", "mc_path"))
    p.add_argument("--method", choices=("vbc", "ubc"), default="vbc")
    add_command("evaluate", "metric report for a corrected ensemble",
                ("--model", "model_path"), ("--corrected", "corrected_path"),
                ("--reference", "ref_path"))

    io = vars(parser.parse_args(argv))
    return run_pipeline(io.pop("command"), io.pop("config_path"), **io)


if __name__ == "__main__":
    sys.exit(main())
