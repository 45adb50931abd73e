"""Batch front-end: fit, correct, evaluate and simulate commands.

A single JSON config file drives every command; environment variables
``VINEBC_SEED`` and ``VINEBC_WORKERS`` override only the master seed and the
parallelism degree.  The reference fits (one per chunk, which ``fit`` saves
and ``correct`` corrects against) and correction and evaluation units (one
per chunk and member) carry seeds derived from the master seed, and all of
them run through one runner (``_map_units``): ``workers`` > 1 runs them on a
process pool, and a unit that fails on bad data fails alone.  Outputs are
byte-identical at any parallelism degree.
Exit codes: 0 success, 1 config error, 2 data error, 3 partial unit failure.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from itertools import chain, repeat

import numpy as np

from . import __version__
from ._util import SEED_PART_LIMIT, Stream, subseed
from .correction import CorrectionConfig, apply_correction, fit_reference, fit_reference_vine
from .dataset import (
    ALL_CHUNK_KEYS,
    ClimateTable,
    VariableSpec,
    chunk_manifest,
    extend_overlap,
    load_table,
    make_chunks,
)
from .errors import ConfigError, TableFormatError, VinebcError
from .evaluation import (
    MetricReport,
    UnitMetrics,
    copula_iw2,
    mci,
    per_margin_iw2,
    wasserstein2,
)
from .marginal import normalize_kind
from .synthetic import LEVEL_CLIP, GroundTruth, MarginSpec, make_ensemble_table

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_PARTIAL = 3

# the config file's "correction" block; the seed comes from the top level
_CORRECTION_FIELDS = tuple(f.name for f in dataclasses.fields(CorrectionConfig) if f.name != "seed")
# CSV columns besides the variables; no variable may take one of these names
_RESERVED_COLUMNS = ("timestamp", "member", "chunk", "method", "unit_seed")
# a unit that raises one of these fails alone (ValueError covers numpy's
# LinAlgError); any other exception is a programming error and propagates
_UNIT_ERRORS = (VinebcError, ValueError, ArithmeticError)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _checked_int(cfg: dict, key: str, env: str, least: int, below: int | None = None) -> None:
    """Apply the environment override of ``cfg[key]``, then check that the
    value is an integer of at least ``least`` and below ``below``."""
    source = key
    if env in os.environ:
        source = env
        try:
            cfg[key] = int(os.environ[env])
        except ValueError:
            raise ConfigError(f"{env}: not an integer: {os.environ[env]!r}") from None
    value = cfg.get(key, least)
    if not _is_int(value) or value < least or (below is not None and value >= below):
        raise ConfigError(f"{source}: must be a {'nonnegative' if least == 0 else 'positive'} "
                          f"integer{'' if below is None else f' below {below}'}")


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
    names = set()
    for i, v in enumerate(cfg["variables"]):
        if not isinstance(v, dict) or "name" not in v or "kind" not in v:
            raise ConfigError(f"variables[{i}]: need name and kind")
        name = v["name"]
        if not isinstance(name, str) or not name or any(c in name for c in ',"\'\r\n'):
            raise ConfigError(f"variables[{i}].name: must be a non-empty string without "
                              "commas, quotes or line breaks")
        if name in _RESERVED_COLUMNS or name in names:
            raise ConfigError(f"variables[{i}].name: {name!r} is reserved or already taken")
        names.add(name)
        try:
            normalize_kind(v["kind"])
        except ValueError as exc:
            raise ConfigError(f"variables[{i}].kind: {exc}") from None
    _checked_int(cfg, "seed", "VINEBC_SEED", 0, SEED_PART_LIMIT)
    _checked_int(cfg, "workers", "VINEBC_WORKERS", 1)
    correction = cfg.get("correction", {})
    if not isinstance(correction, dict):
        raise ConfigError("correction: must be a JSON object")
    unknown = set(correction) - set(_CORRECTION_FIELDS)
    if unknown:
        raise ConfigError(f"correction: unknown fields {sorted(unknown)}")
    for key, value in correction.items():
        try:
            CorrectionConfig(**{key: value})
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"correction.{key}: {exc}") from None
    return cfg


def _variable_specs(cfg: dict) -> list:
    return [VariableSpec(v["name"], v["kind"], v.get("units", "")) for v in cfg["variables"]]


def _correction_config(cfg: dict) -> CorrectionConfig:
    """The correction config of a config that ``_load_config`` checked."""
    return CorrectionConfig(seed=cfg.get("seed", 0), **cfg.get("correction", {}))


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _fmt(x: float) -> str:
    return repr(float(x))


def _cells(column) -> list:
    """The CSV cells of an array column.  ``str`` of a Python float is its
    ``repr``, the shortest string that reads back to the same float."""
    return list(map(str, np.asarray(column).tolist()))


def _write_csv(path: str, header: list, rows) -> None:
    """Write a CSV file of the header and the rows, each a sequence of cell strings."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)


def write_table_csv(path: str, table: ClimateTable, extra: dict | None = None) -> None:
    extra = extra or {}
    columns = [_cells(table.timestamps.astype(str)), _cells(table.members)]
    columns += [_cells(column) for column in table.values.T]
    columns += [_cells(v) for v in extra.values()]
    _write_csv(path, ["timestamp", "member"] + table.var_names + list(extra), zip(*columns))


def _write_manifest(path: str, command: str, cfg: dict, inputs: tuple, outputs: list,
                    config: CorrectionConfig | None = None, **extra) -> None:
    """Write a command's manifest: the keys every command shares, plus ``extra``.

    The config snapshot takes its correction block from ``config`` when one is
    given; input digests are recorded when the command reads inputs.
    """
    manifest = {"command": command, "version": __version__, "config": cfg,
                "master_seed": cfg.get("seed", 0), "outputs": outputs, **extra}
    if config is not None:
        manifest["config"] = {**cfg, "correction": {f: getattr(config, f) for f in _CORRECTION_FIELDS}}
    if inputs:
        manifest["inputs"] = {p: _digest(p) for p in inputs}
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
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

    Yields (unit name, chunk key, member, unit seed, the member's core rows of
    the chunk); the unit seed depends on (master seed, chunk, member) only.
    """
    members = sorted(int(m) for m in np.unique(table.members))
    for ci, key in enumerate(ALL_CHUNK_KEYS):
        core = chunks[key].core_rows
        for member in members:
            yield (f"{key.label}/m{member}", key, member, subseed(seed, Stream.UNIT, ci, member),
                   core[table.members[core] == member])


def _run_unit(task) -> tuple:
    """(True, the task's result), or (False, the error a failing unit raised)."""
    try:
        return True, task()
    except _UNIT_ERRORS as exc:
        return False, f"{type(exc).__name__}: {exc}"


@contextlib.contextmanager
def _unit_pool(workers: int, n_tasks: int):
    """A process pool of at most ``workers`` processes and one per task, or
    None when the tasks run in this process."""
    n = min(workers, n_tasks)
    if n > 1:
        with ProcessPoolExecutor(max_workers=n) as pool:
            yield pool
    else:
        yield None


def _map_units(tasks: dict, workers: int, pool=None) -> tuple:
    """Run every unit's task, a picklable callable of no arguments.

    With ``workers`` > 1 the tasks run on ``pool``, an open ``_unit_pool``
    that a command shares between its stages, or else on a pool of their own.
    Returns ({unit: result}, {unit: error message}), each in task order.
    """
    if pool is None and min(workers, len(tasks)) > 1:
        with _unit_pool(workers, len(tasks)) as pool:
            return _map_units(tasks, workers, pool)
    outcomes = list((map if pool is None else pool.map)(_run_unit, tasks.values()))
    results, failures = {}, {}
    for unit, (ok, value) in zip(tasks, outcomes):
        (results if ok else failures)[unit] = value
    return results, failures


# -- correct -----------------------------------------------------------------


def _read_table(path: str, specs: list) -> ClimateTable:
    """``load_table``, with each member id checked as a seed part: a data
    error unless it lies in [0, 2**32)."""
    table = load_table(path, specs)
    bad = (table.members < 0) | (table.members >= SEED_PART_LIMIT)
    if bad.any():
        raise TableFormatError(f"{path}: member {table.members[bad][0]} is outside [0, 2**32)")
    return table


def _extended_chunks(table: ClimateTable, overlap_fraction: float, seed: int,
                     tag: Stream) -> dict:
    """The table's chunks with overlap-extended estimation sets, the one of
    chunk index i seeded by ``subseed(seed, tag, i)``."""
    return {k: extend_overlap(c, table, overlap_fraction, subseed(seed, tag, i))
            for i, (k, c) in enumerate(make_chunks(table).items())}


def _reference_estimation(table: ClimateTable, overlap_fraction: float, seed: int) -> tuple:
    """Each chunk's reference estimation, one for ``fit`` and ``correct``:
    ({key: chunk whose estimation rows the reference fit takes}, {key: the
    fit's seed, subseed(seed, Stream.REFERENCE, chunk index)})."""
    seeds = {key: subseed(seed, Stream.REFERENCE, ci) for ci, key in enumerate(ALL_CHUNK_KEYS)}
    return _extended_chunks(table, overlap_fraction, seed, Stream.OVERLAP_RC), seeds


def cmd_correct(cfg: dict, method: str, mp_path: str, rc_path: str, mc_path: str,
                out_dir: str) -> int:
    """Correct in two stages: fit each chunk's reference once (``fit_reference``),
    then correct each (chunk, member) unit against it (``apply_correction``).

    A chunk whose reference fit fails fails each of its units with that error.
    """
    specs = _variable_specs(cfg)
    config = _correction_config(cfg)
    seed = cfg.get("seed", 0)
    workers = cfg.get("workers", 1)
    if method not in ("vbc", "ubc"):
        raise ConfigError(f"unknown method {method!r}")
    mp = _read_table(mp_path, specs)
    rc = _read_table(rc_path, specs)
    mc = _read_table(mc_path, specs)

    mp_chunks = _extended_chunks(mp, config.overlap_fraction, seed, Stream.OVERLAP_MP)
    rc_chunks, rc_seeds = _reference_estimation(rc, config.overlap_fraction, seed)
    mc_chunks = _extended_chunks(mc, config.overlap_fraction, seed, Stream.OVERLAP_MC)

    unit_seeds, plan = {}, {}
    for unit, key, member, unit_seed, rows in _units(mp, mp_chunks, seed):
        unit_seeds[unit] = unit_seed
        if rows.size:
            plan[unit] = (key, member, unit_seed, rows)

    planned = {key for key, *_ in plan.values()}
    reference_seeds, reference_tasks = {}, {}
    for key in ALL_CHUNK_KEYS:
        if key in planned:
            reference_seeds[key.label] = rc_seeds[key]
            reference_tasks[key.label] = partial(
                fit_reference, method, rc.values[rc_chunks[key].estimation_rows],
                mc.values[mc_chunks[key].estimation_rows], mp.kinds,
                config.with_seed(reference_seeds[key.label]))
    # one pool serves both stages: with a pool per stage, the second pool start
    # ate what UBC saves by sharing its reference fits
    with _unit_pool(workers, len(plan)) as pool:
        references, reference_failures = _map_units(reference_tasks, workers, pool)
        tasks, unit_failures = {}, {}
        for unit, (key, member, unit_seed, rows) in plan.items():
            if key.label in reference_failures:
                unit_failures[unit] = reference_failures[key.label]
                continue
            # both row lists are sorted and the core rows lie among the
            # estimation rows, so a core row's position is its rank there
            est_rows = mp_chunks[key].estimation_rows
            fit_rows = est_rows[mp.members[est_rows] == member]
            tasks[unit] = partial(apply_correction, mp.values[fit_rows], references[key.label],
                                  config.with_seed(unit_seed),
                                  rows=np.searchsorted(fit_rows, rows))
        results, failures = _map_units(tasks, workers, pool)
    failures.update(unit_failures)

    corrected = np.full_like(mp.values, np.nan)
    chunk_col = np.empty(len(mp), dtype=object)
    seed_col = np.zeros(len(mp), dtype=np.int64)
    for unit, values in results.items():
        key, _, unit_seed, rows = plan[unit]
        corrected[rows] = values
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
    _write_manifest(os.path.join(out_dir, f"manifest_correct_{method}.json"), "correct", cfg,
                    (mp_path, rc_path, mc_path), [out_csv], config, method=method,
                    unit_seeds={u: int(s) for u, s in unit_seeds.items()},
                    reference_seeds=reference_seeds, failures=failures,
                    chunks={k.label: len(v.core_rows) for k, v in mp_chunks.items()})
    return _exit_status(failures)


# -- evaluate ----------------------------------------------------------------


def _evaluate_unit(x_m, x_c, x_ref, seed: int) -> tuple:
    """Metrics of one (chunk, member) unit: W2 of the model and of the corrected
    rows against the reference, per-margin IW2, copula IW2, the MCI series and
    its mean."""
    return (wasserstein2(x_m, x_ref, standardize=True, seed=seed),
            wasserstein2(x_c, x_ref, standardize=True, seed=seed),
            per_margin_iw2(x_c, x_m, x_ref),
            copula_iw2(x_c, x_m, x_ref, seed=seed),
            *mci(x_m, x_c))


def _match_rows(model: ClimateTable, corrected: ClimateTable) -> np.ndarray:
    """The model row of each corrected row, matched on (timestamp, member).

    Both tables' (member, timestamp) pairs are numbered densely into one int64
    key, and each corrected key is looked up among the sorted model keys.
    """
    n = len(model)
    _, ts_ids = np.unique(np.concatenate([model.timestamps, corrected.timestamps]),
                          return_inverse=True)
    _, member_ids = np.unique(np.concatenate([model.members, corrected.members]),
                              return_inverse=True)
    keys = member_ids.astype(np.int64) * (int(ts_ids.max()) + 1) + ts_ids
    model_keys, corrected_keys = keys[:n], keys[n:]
    order = np.argsort(model_keys)
    rows = order[np.minimum(np.searchsorted(model_keys, corrected_keys, sorter=order), n - 1)]
    missing = np.flatnonzero(model_keys[rows] != corrected_keys)
    if missing.size:
        first = missing[0]
        raise VinebcError(f"{missing.size} corrected row(s) are not in the model table, the "
                          f"first at {corrected.timestamps[first].item().isoformat()} for "
                          f"member {int(corrected.members[first])}")
    return rows


def cmd_evaluate(cfg: dict, model_path: str, corrected_path: str, ref_path: str,
                 out_dir: str) -> int:
    specs = _variable_specs(cfg)
    seed = cfg.get("seed", 0)
    model = _read_table(model_path, specs)
    corrected = _read_table(corrected_path, specs)
    ref = _read_table(ref_path, specs)
    model_rows = _match_rows(model, corrected)
    present = np.zeros(len(model), dtype=bool)
    present[model_rows] = True
    corrected_values = np.full_like(model.values, np.nan)
    corrected_values[model_rows] = corrected.values

    method = "corrected"
    ref_chunks = make_chunks(ref)
    plan, tasks, unit_failures = {}, {}, {}
    for unit, key, member, unit_seed, rows in _units(model, make_chunks(model), seed):
        if rows.size == 0:
            continue
        n_present = int(present[rows].sum())
        if n_present == 0:
            unit_failures[unit] = "not corrected: the corrected table has none of its rows"
            continue
        if n_present < rows.size:
            raise VinebcError(f"unit {unit} is only partly corrected: the corrected table has "
                              f"{n_present} of its {rows.size} rows")
        ref_rows = ref_chunks[key].core_rows
        if ref_rows.size == 0:
            unit_failures[unit] = (f"not evaluated: the reference table has no rows "
                                   f"in chunk {key.label}")
            continue
        plan[unit] = (key, member, unit_seed, rows)
        tasks[unit] = partial(_evaluate_unit, model.values[rows], corrected_values[rows],
                              ref.values[ref_rows], unit_seed)

    report = MetricReport()
    series_rows = []
    results, failures = _map_units(tasks, cfg.get("workers", 1))
    failures.update(unit_failures)
    for unit, (w2_model, w2_corr, margin, cop, series, mci_mean) in results.items():
        key, member, unit_seed, rows = plan[unit]
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
        series_rows.append(zip(repeat(method), repeat(key.label), repeat(str(member)),
                               _cells(model.timestamps[rows].astype(str)), _cells(series)))

    os.makedirs(out_dir, exist_ok=True)
    paths = emit_report(report, out_dir)
    series_path = os.path.join(out_dir, "mci_series.csv")
    _write_csv(series_path, ["method", "chunk", "member", "timestamp", "mci"],
               chain.from_iterable(series_rows))
    _write_manifest(os.path.join(out_dir, "manifest_evaluate.json"), "evaluate", cfg,
                    (model_path, corrected_path, ref_path), paths + [series_path],
                    failures=failures)
    return _exit_status(failures)


def emit_report(report: MetricReport, out_dir: str) -> list:
    """Write the metric report as long-format CSV rows and a JSON aggregate."""
    csv_path = os.path.join(out_dir, "report.csv")
    rows = []
    for u in report.sorted_units():
        metrics = [("w2_model", _fmt(u.w2_model)), ("w2_corrected", _fmt(u.w2_corrected)),
                   ("iw2", _fmt(u.iw2)), ("copula_iw2", _fmt(u.copula_iw2)),
                   ("mci_mean", _fmt(u.mci_mean)), ("non_invasive", str(int(u.non_invasive)))]
        metrics += [(f"iw2_margin_{name}", _fmt(val)) for name, val in u.margin_iw2.items()]
        rows += [(u.method, u.chunk, str(u.member), name, value) for name, value in metrics]
    _write_csv(csv_path, ["method", "chunk", "member", "metric", "value"], rows)
    json_path = os.path.join(out_dir, "report.json")
    with open(json_path, "w") as fh:
        json.dump(report.aggregates(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return [csv_path, json_path]


# -- fit ----------------------------------------------------------------------


def cmd_fit(cfg: dict, input_path: str, out_dir: str) -> int:
    """Fit and save each chunk's reference vine: with the same config, the
    vines that ``correct --method vbc`` fits to this reference table."""
    specs = _variable_specs(cfg)
    config = _correction_config(cfg)
    table = _read_table(input_path, specs)
    chunks, seeds = _reference_estimation(table, config.overlap_fraction, cfg.get("seed", 0))
    reference_seeds, tasks = {}, {}
    for key, chunk in chunks.items():
        if chunk.estimation_rows.size:
            reference_seeds[key.label] = seeds[key]
            tasks[key.label] = partial(fit_reference_vine, table.values[chunk.estimation_rows],
                                       table.kinds, config.with_seed(seeds[key]), table.var_names)
    models, failures = _map_units(tasks, cfg.get("workers", 1))
    os.makedirs(out_dir, exist_ok=True)
    outputs = []
    for label, model in models.items():
        path = os.path.join(out_dir, f"model_{label}.json")
        model.save(path)
        outputs.append(path)
    _write_manifest(os.path.join(out_dir, "manifest_fit.json"), "fit", cfg, (input_path,),
                    outputs, config, chunks=chunk_manifest(chunks),
                    reference_seeds=reference_seeds, failures=failures)
    return _exit_status(failures)


# -- simulate -------------------------------------------------------------------


# the rules of a simulate number: (test of the float value, what it must be)
_FINITE = (math.isfinite, "a finite number")
_POSITIVE = (lambda v: 0.0 < v < math.inf, "a finite positive number")
_SHARE = (lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]")
# the first and the last 3-hourly timestamp that the table reader reads back
_FIRST_TIMESTAMP = np.datetime64("0001-01-01T00:00:00", "s")
_LAST_TIMESTAMP = np.datetime64("9999-12-31T21:00:00", "s")


def _config_float(value, where: str, rule=_FINITE) -> float:
    """``value`` as a float that passes ``rule``; otherwise a config error
    naming ``where``."""
    try:
        out = float(value)
    except (TypeError, ValueError, OverflowError):
        out = math.nan
    test, what = rule
    if not test(out):
        raise ConfigError(f"{where}: must be {what}, got {value!r}")
    return out


def _config_timestamp(sim: dict, key: str, default: str) -> str:
    """``sim[key]`` when it is a timestamp string of years 1 to 9999, so that
    the tables read back; otherwise a config error.  numpy's relative words
    are refused: the tables would depend on the run date."""
    value = sim.get(key, default)
    try:
        stamp = (np.datetime64(value, "s")
                 if isinstance(value, str) and value.lower() not in ("now", "today") else None)
    except ValueError:
        stamp = None
    if stamp is None or np.isnat(stamp) or not _FIRST_TIMESTAMP <= stamp <= _LAST_TIMESTAMP:
        raise ConfigError(f"simulate.{key}: must be a timestamp of years 1 to 9999 such as "
                          f"{default!r}, got {value!r}")
    return value


def _simulate_spec(cfg: dict):
    sim = cfg.get("simulate")
    if not isinstance(sim, dict):
        raise ConfigError("simulate: required object for the simulate command")
    specs = _variable_specs(cfg)
    names = [s.name for s in specs]
    d = len(specs)
    margins_cfg = sim.get("margins")
    if not isinstance(margins_cfg, list) or len(margins_cfg) != d:
        raise ConfigError("simulate.margins: need one margin spec per variable")
    margins = []
    for i, (m, s) in enumerate(zip(margins_cfg, specs)):
        if not isinstance(m, dict):
            raise ConfigError(f"simulate.margins[{i}]: must be a JSON object")
        margins.append(MarginSpec(kind=s.kind, **{
            key: _config_float(m.get(key, default), f"simulate.margins[{i}].{key}", rule)
            for key, default, rule in (("loc", 0.0, _FINITE), ("scale", 1.0, _POSITIVE),
                                       ("inflation", 0.0, _SHARE))}))
    try:
        tau = np.asarray(sim.get("tau", np.zeros((d, d))), dtype=float)
    except (TypeError, ValueError, OverflowError):
        tau = None
    if tau is None or tau.shape != (d, d):
        raise ConfigError(f"simulate.tau: must be a {d}x{d} matrix")
    if not (np.all(np.abs(tau) <= 1.0) and np.array_equal(tau, tau.T)):
        raise ConfigError("simulate.tau: must be symmetric, with every entry in [-1, 1]")
    bias_cfg = sim.get("bias", {})
    if not isinstance(bias_cfg, dict):
        raise ConfigError("simulate.bias: must be a JSON object")

    def named(key, rule):
        values = bias_cfg.get(key, {})
        if not isinstance(values, dict):
            raise ConfigError(f"simulate.bias.{key}: must be a JSON object of variable names")
        out = {}
        for k, v in values.items():
            if k not in names:
                raise ConfigError(f"simulate.bias.{key}: unknown variable {k!r}")
            out[names.index(k)] = _config_float(v, f"simulate.bias.{key}.{k}", rule)
        return out

    # variable index -> the bias value of each field
    bias = {key: named(key, rule)
            for key, rule in (("shift", _FINITE), ("scale", _POSITIVE), ("inflation", _SHARE))}
    dependence_scale = _config_float(bias_cfg.get("dependence_scale", 1.0),
                                     "simulate.bias.dependence_scale")
    if np.any(np.abs(tau * dependence_scale) > 1.0):
        raise ConfigError("simulate.bias.dependence_scale: takes a tau outside [-1, 1]")
    biased_margins = []
    for j, m in enumerate(margins):
        b = MarginSpec(m.kind, m.loc + bias["shift"].get(j, 0.0),
                       m.scale * bias["scale"].get(j, 1.0), bias["inflation"].get(j, m.inflation))
        fields = [f"simulate.bias.{key}.{names[j]}" for key in ("shift", "scale") if j in bias[key]]
        for where, spec in ((f"simulate.margins[{j}]", m), (" and ".join(fields), b)):
            if not spec.draws_finite():
                raise ConfigError(f"{where}: gives draws beyond the float range at levels "
                                  f"{LEVEL_CLIP:g} and 1 - {LEVEL_CLIP:g}")
        biased_margins.append(b)
    members = sim.get("members", [1])
    if (not isinstance(members, list) or not members or not all(map(_is_int, members))
            or not all(0 <= m < SEED_PART_LIMIT for m in members)
            or len(set(members)) < len(members)):
        raise ConfigError("simulate.members: must be a non-empty list of distinct integers "
                          "in [0, 2**32)")
    start_c = _config_timestamp(sim, "start", "2001-01-01T00:00:00")
    start_p = _config_timestamp(sim, "projection_start", "2011-01-01T00:00:00")
    # each table's 3-hourly grid must end by the last timestamp the reader reads
    room = min((_LAST_TIMESTAMP - np.datetime64(t, "s")) // np.timedelta64(3, "h")
               for t in (start_c, start_p))
    steps = sim.get("steps_per_member", 2920)
    if not _is_int(steps) or not 1 <= steps <= int(room) + 1:
        raise ConfigError("simulate.steps_per_member: must be a positive integer, and the "
                          "3-hourly grids from start and projection_start must end by year 9999")
    return (specs, GroundTruth(margins, tau), GroundTruth(biased_margins, tau * dependence_scale),
            members, steps, start_c, start_p)


def cmd_simulate(cfg: dict, out_dir: str) -> int:
    specs, truth, biased, members, steps, start_c, start_p = _simulate_spec(cfg)
    seed = cfg.get("seed", 0)
    os.makedirs(out_dir, exist_ok=True)
    # name -> (ground truth, start, members) of each table
    tables = {"reference_calibration": (truth, start_c, [0]),
              "reference_projection": (truth, start_p, [0]),
              "model_calibration": (biased, start_c, members),
              "model_projection": (biased, start_p, members)}
    outputs = []
    for i, (name, (source, start, ids)) in enumerate(tables.items()):
        path = os.path.join(out_dir, f"{name}.csv")
        write_table_csv(path, make_ensemble_table(source, specs, start, steps, ids,
                                                  seed=subseed(seed, Stream.SIMULATE, i)))
        outputs.append(path)
    _write_manifest(os.path.join(out_dir, "manifest_simulate.json"), "simulate", cfg, (), outputs)
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
