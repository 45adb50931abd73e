import copy
import csv
import dataclasses
import functools
import hashlib
import json
import math
import operator
import os
import re
import tempfile
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vinebc.cli
import vinebc.correction
from conftest import json_paths
from vinebc._util import Stream, subseed
from vinebc.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, EXIT_PARTIAL, emit_report, main, run_pipeline
from vinebc.correction import CorrectionConfig, fit_reference
from vinebc.dataset import ALL_CHUNK_KEYS, VariableSpec, load_table
from vinebc.errors import NumericsError, VinebcError
from vinebc.evaluation import MetricReport, UnitMetrics
from vinebc.vine import VineModel

CONFIG = {
    "seed": 7,
    "workers": 1,
    "variables": [
        {"name": "d", "kind": "interval", "units": "degC"},
        {"name": "p", "kind": "zero_inflated", "units": "kg/m2"},
        {"name": "t", "kind": "interval", "units": "degC"},
    ],
    "correction": {
        "family_set": ["independence", "gaussian", "clayton", "gumbel", "frank"],
        "overlap_fraction": 0.25,
    },
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
        "bias": {"shift": {"t": 2.0}, "inflation": {"p": 0.5}, "dependence_scale": 0.5},
    },
}


def _digest(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pipeline")
    cfg_path = tmp / "config.json"
    cfg_path.write_text(json.dumps(CONFIG))
    out = tmp / "sim"
    assert run_pipeline("simulate", str(cfg_path), out_dir=str(out)) == EXIT_OK
    return {"tmp": tmp, "cfg": str(cfg_path), "sim": out}


def _specs():
    return [VariableSpec(v["name"], v["kind"], v["units"]) for v in CONFIG["variables"]]


def _correct(sim_dir, method, out):
    return run_pipeline("correct", sim_dir["cfg"], method=method,
                        mp_path=str(sim_dir["sim"] / "model_projection.csv"),
                        rc_path=str(sim_dir["sim"] / "reference_calibration.csv"),
                        mc_path=str(sim_dir["sim"] / "model_calibration.csv"),
                        out_dir=str(out))


def test_simulate_outputs_are_loadable(sim_dir):
    for name in (
        "reference_calibration",
        "reference_projection",
        "model_calibration",
        "model_projection",
    ):
        table = load_table(sim_dir["sim"] / f"{name}.csv", _specs())
        assert table.d == 3
    mp = load_table(sim_dir["sim"] / "model_projection.csv", _specs())
    assert len(mp) == 2 * 2920
    assert (mp.values[:, 1] == 0.0).mean() == pytest.approx(0.5, abs=0.05)


@pytest.fixture(scope="module")
def corrected_dir(sim_dir):
    out = sim_dir["tmp"] / "out"
    status = run_pipeline(
        "correct",
        sim_dir["cfg"],
        method="vbc",
        mp_path=str(sim_dir["sim"] / "model_projection.csv"),
        rc_path=str(sim_dir["sim"] / "reference_calibration.csv"),
        mc_path=str(sim_dir["sim"] / "model_calibration.csv"),
        out_dir=str(out),
    )
    assert status == EXIT_OK
    return out


def test_correct_row_count_and_alignment(sim_dir, corrected_dir):
    mp = load_table(sim_dir["sim"] / "model_projection.csv", _specs())
    corr = load_table(corrected_dir / "corrected_vbc.csv", _specs())
    assert len(corr) == len(mp)
    assert np.array_equal(corr.timestamps, mp.timestamps)
    assert np.array_equal(corr.members, mp.members)
    assert np.all(corr.values[:, 1] >= 0.0)
    with open(corrected_dir / "corrected_vbc.csv") as fh:
        header = fh.readline().strip().split(",")
    assert header == ["timestamp", "member", "d", "p", "t", "chunk", "method", "unit_seed"]


def test_correct_does_not_mutate_inputs(sim_dir, corrected_dir):
    manifest = json.load(open(corrected_dir / "manifest_correct_vbc.json"))
    for path, digest in manifest["inputs"].items():
        assert _digest(path) == digest


def test_correct_rerun_is_byte_identical(sim_dir, corrected_dir):
    out2 = sim_dir["tmp"] / "out2"
    assert (
        run_pipeline(
            "correct",
            sim_dir["cfg"],
            method="vbc",
            mp_path=str(sim_dir["sim"] / "model_projection.csv"),
            rc_path=str(sim_dir["sim"] / "reference_calibration.csv"),
            mc_path=str(sim_dir["sim"] / "model_calibration.csv"),
            out_dir=str(out2),
        )
        == EXIT_OK
    )
    assert _digest(corrected_dir / "corrected_vbc.csv") == _digest(out2 / "corrected_vbc.csv")


def test_correct_parallel_matches_serial(sim_dir, corrected_dir, monkeypatch):
    out2 = sim_dir["tmp"] / "out_par"
    monkeypatch.setenv("VINEBC_WORKERS", "2")
    assert (
        run_pipeline(
            "correct",
            sim_dir["cfg"],
            method="vbc",
            mp_path=str(sim_dir["sim"] / "model_projection.csv"),
            rc_path=str(sim_dir["sim"] / "reference_calibration.csv"),
            mc_path=str(sim_dir["sim"] / "model_calibration.csv"),
            out_dir=str(out2),
        )
        == EXIT_OK
    )
    assert _digest(corrected_dir / "corrected_vbc.csv") == _digest(out2 / "corrected_vbc.csv")


def test_evaluate_report(sim_dir, corrected_dir):
    out = sim_dir["tmp"] / "eval"
    status = run_pipeline(
        "evaluate",
        sim_dir["cfg"],
        model_path=str(sim_dir["sim"] / "model_projection.csv"),
        corrected_path=str(corrected_dir / "corrected_vbc.csv"),
        ref_path=str(sim_dir["sim"] / "reference_projection.csv"),
        out_dir=str(out),
    )
    assert status == EXIT_OK
    rows = list(csv.DictReader(open(out / "report.csv")))
    metrics = {r["metric"] for r in rows}
    assert {"iw2", "mci_mean", "w2_model", "w2_corrected", "copula_iw2"} <= metrics
    # 8 chunks x 2 members
    units = {(r["chunk"], r["member"]) for r in rows}
    assert len(units) == 16
    # JSON aggregates match recomputation from the CSV rows
    agg = json.load(open(out / "report.json"))
    iw2 = sorted(float(r["value"]) for r in rows if r["metric"] == "iw2")
    assert agg["corrected"]["iw2_median"] == pytest.approx(np.median(iw2), rel=1e-12)
    assert agg["corrected"]["share_improved"] == pytest.approx(np.mean(np.array(iw2) > 0))
    assert os.path.exists(out / "mci_series.csv")
    # the simulated bias shifted margin t; its univariate improvement is positive
    t_iw2 = [float(r["value"]) for r in rows if r["metric"] == "iw2_margin_t"]
    assert np.median(t_iw2) > 0.0


def test_evaluate_parallel_matches_serial(sim_dir, corrected_dir, monkeypatch):
    outputs = {}
    for workers in ("1", "2"):
        monkeypatch.setenv("VINEBC_WORKERS", workers)
        out = sim_dir["tmp"] / f"eval_w{workers}"
        status = run_pipeline(
            "evaluate",
            sim_dir["cfg"],
            model_path=str(sim_dir["sim"] / "model_projection.csv"),
            corrected_path=str(corrected_dir / "corrected_vbc.csv"),
            ref_path=str(sim_dir["sim"] / "reference_projection.csv"),
            out_dir=str(out),
        )
        assert status == EXIT_OK
        outputs[workers] = [_digest(out / name)
                            for name in ("report.csv", "report.json", "mci_series.csv")]
    assert outputs["1"] == outputs["2"]


def test_fit_writes_models_per_chunk(sim_dir):
    out = sim_dir["tmp"] / "models"
    status = run_pipeline(
        "fit",
        sim_dir["cfg"],
        input_path=str(sim_dir["sim"] / "reference_calibration.csv"),
        out_dir=str(out),
    )
    assert status == EXIT_OK
    models = sorted(p for p in os.listdir(out) if p.startswith("model_"))
    assert len(models) == 8
    model = VineModel.load(out / models[0])
    assert model.d == 3


def test_fit_parallel_matches_serial(sim_dir, monkeypatch):
    outputs = {}
    for workers in ("1", "2"):
        monkeypatch.setenv("VINEBC_WORKERS", workers)
        out = sim_dir["tmp"] / f"models_w{workers}"
        status = run_pipeline(
            "fit",
            sim_dir["cfg"],
            input_path=str(sim_dir["sim"] / "model_calibration.csv"),
            out_dir=str(out),
        )
        assert status == EXIT_OK
        manifest = json.load(open(out / "manifest_fit.json"))
        assert manifest["config"].pop("workers") == int(workers)
        manifest["outputs"] = [os.path.relpath(p, out) for p in manifest["outputs"]]
        models = {p: _digest(out / p) for p in manifest["outputs"]}
        assert len(models) == 8
        outputs[workers] = (manifest, models)
    assert outputs["1"] == outputs["2"]


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size and maps serially."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_pool_never_exceeds_units(sim_dir, tmp_path, monkeypatch):
    monkeypatch.setattr(vinebc.cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    results, failures = vinebc.cli._map_units({u: (lambda u=u: u * 2) for u in "abc"}, 64)
    assert results == {"a": "aa", "b": "bb", "c": "cc"} and failures == {}
    assert vinebc.cli._map_units({"a": lambda: 1}, 64) == ({"a": 1}, {})
    assert RecordingPool.sizes == [3]  # one task runs in this process
    monkeypatch.setenv("VINEBC_WORKERS", "64")
    status = run_pipeline("fit", sim_dir["cfg"],
                          input_path=str(sim_dir["sim"] / "reference_calibration.csv"),
                          out_dir=str(tmp_path / "models"))
    assert status == EXIT_OK
    assert RecordingPool.sizes == [3, 8]  # one fit unit per chunk
    # both stages of correct share one pool: 8 reference fits, then 16 units
    assert _correct(sim_dir, "ubc", tmp_path / "corrected") == EXIT_OK
    assert RecordingPool.sizes == [3, 8, 16]


def _raise(exc):
    raise exc


def test_map_units_failure_rule():
    tasks = {
        "ok": lambda: 1.0,
        "data": lambda: _raise(VinebcError("too few rows")),
        "linalg": lambda: _raise(np.linalg.LinAlgError("singular matrix")),
        "arith": lambda: 1 / 0,
    }
    results, failures = vinebc.cli._map_units(tasks, 1)
    assert results == {"ok": 1.0}
    assert failures == {"data": "VinebcError: too few rows",
                        "linalg": "LinAlgError: singular matrix",
                        "arith": "ZeroDivisionError: division by zero"}
    with pytest.raises(TypeError):  # a programming error is not a unit failure
        vinebc.cli._map_units({"bug": lambda: _raise(TypeError("bug"))}, 1)


def test_correct_unit_linalg_error_exit_code(sim_dir, tmp_path, capsys, monkeypatch):
    chunk = ALL_CHUNK_KEYS[2]
    broken_seed = subseed(CONFIG["seed"], Stream.UNIT, 2, 2)
    apply = vinebc.cli.apply_correction

    def failing_apply(x_fit, reference, config, rows=None):
        if config.seed == broken_seed:
            raise np.linalg.LinAlgError("singular matrix")
        return apply(x_fit, reference, config, rows=rows)

    monkeypatch.setattr(vinebc.cli, "apply_correction", failing_apply)
    out = tmp_path / "o"
    status = run_pipeline(
        "correct",
        sim_dir["cfg"],
        method="ubc",
        mp_path=str(sim_dir["sim"] / "model_projection.csv"),
        rc_path=str(sim_dir["sim"] / "reference_calibration.csv"),
        mc_path=str(sim_dir["sim"] / "model_calibration.csv"),
        out_dir=str(out),
    )
    assert status == EXIT_PARTIAL
    unit = f"{chunk.label}/m2"
    assert f"{unit}: LinAlgError: singular matrix" in capsys.readouterr().err
    manifest = json.load(open(out / "manifest_correct_ubc.json"))
    assert manifest["failures"] == {unit: "LinAlgError: singular matrix"}
    rows = list(csv.DictReader(open(out / "corrected_ubc.csv")))
    units = {(r["chunk"], r["member"]) for r in rows}
    assert len(units) == 15 and (chunk.label, "2") not in units
    assert (chunk.label, "1") in units


def test_correct_passes_each_unit_its_fit_rows_and_core_positions(sim_dir, tmp_path,
                                                                  monkeypatch):
    monkeypatch.delenv("VINEBC_WORKERS", raising=False)
    calls = {}
    apply = vinebc.cli.apply_correction

    def recording_apply(x_fit, reference, config, rows=None):
        calls[config.seed] = (x_fit, rows)
        return apply(x_fit, reference, config, rows=rows)

    monkeypatch.setattr(vinebc.cli, "apply_correction", recording_apply)
    assert _correct(sim_dir, "ubc", tmp_path / "o") == EXIT_OK
    seed, overlap = CONFIG["seed"], CONFIG["correction"]["overlap_fraction"]
    mp = load_table(sim_dir["sim"] / "model_projection.csv", _specs())
    chunks = vinebc.cli._extended_chunks(mp, overlap, seed, Stream.OVERLAP_MP)
    assert len(calls) == 16
    for ci, key in enumerate(ALL_CHUNK_KEYS):
        for member in (1, 2):
            x_fit, rows = calls[subseed(seed, Stream.UNIT, ci, member)]
            est, core = chunks[key].estimation_rows, chunks[key].core_rows
            # the member's estimation rows, in row order
            fit_rows = est[mp.members[est] == member]
            assert x_fit.tobytes() == mp.values[fit_rows].tobytes()
            # at the positions: the member's core rows, in row order
            want = mp.values[core[mp.members[core] == member]]
            assert x_fit[rows].tobytes() == want.tobytes()
            assert len(rows) < len(x_fit)


def test_correct_vbc_fits_one_reference_vine_per_chunk(sim_dir, tmp_path, monkeypatch):
    monkeypatch.delenv("VINEBC_WORKERS", raising=False)
    seeds = []
    fit_vine = vinebc.correction.fit_vine

    def counted_fit_vine(data, kinds, seed=0, **kwargs):
        seeds.append(seed)
        return fit_vine(data, kinds, seed=seed, **kwargs)

    monkeypatch.setattr(vinebc.correction, "fit_vine", counted_fit_vine)
    assert _correct(sim_dir, "vbc", tmp_path / "o") == EXIT_OK
    seed = CONFIG["seed"]
    reference = [subseed(subseed(seed, Stream.REFERENCE, ci), Stream.REFERENCE_VINE)
                 for ci in range(8)]
    model = [subseed(subseed(seed, Stream.UNIT, ci, m), Stream.PROJECTION_VINE)
             for ci in range(8) for m in (1, 2)]
    assert Counter(seeds) == Counter(reference + model)  # 24 fits, each once


def test_fit_saves_the_reference_vines_that_correct_fits(sim_dir, tmp_path, monkeypatch):
    monkeypatch.delenv("VINEBC_WORKERS", raising=False)
    models = tmp_path / "models"
    assert run_pipeline("fit", sim_dir["cfg"], out_dir=str(models),
                        input_path=str(sim_dir["sim"] / "reference_calibration.csv")) == EXIT_OK
    fitted = {}
    fit_vine = vinebc.correction.fit_vine

    def recorded_fit_vine(data, kinds, seed=0, **kwargs):
        fitted[seed] = fit_vine(data, kinds, seed=seed, **kwargs)
        return fitted[seed]

    monkeypatch.setattr(vinebc.correction, "fit_vine", recorded_fit_vine)
    assert _correct(sim_dir, "vbc", tmp_path / "o") == EXIT_OK
    seeds = json.load(open(models / "manifest_fit.json"))["reference_seeds"]
    assert seeds == json.load(open(tmp_path / "o" / "manifest_correct_vbc.json"))["reference_seeds"]
    assert seeds == {key.label: subseed(CONFIG["seed"], Stream.REFERENCE, ci)
                     for ci, key in enumerate(ALL_CHUNK_KEYS)}
    for label, seed in seeds.items():
        saved = json.load(open(models / f"model_{label}.json"))
        reference = fitted[subseed(seed, Stream.REFERENCE_VINE)].to_dict()
        assert (saved.pop("var_names"), reference.pop("var_names")) == (["d", "p", "t"], None)
        assert saved == reference, label


def test_correct_ubc_fits_each_chunk_margin_once(sim_dir, tmp_path, monkeypatch):
    monkeypatch.delenv("VINEBC_WORKERS", raising=False)
    samples = Counter()
    fit_marginal = vinebc.correction.fit_marginal

    def counted_fit_marginal(sample, kind):
        samples[np.ascontiguousarray(sample).tobytes()] += 1
        return fit_marginal(sample, kind)

    monkeypatch.setattr(vinebc.correction, "fit_marginal", counted_fit_marginal)
    assert _correct(sim_dir, "ubc", tmp_path / "o") == EXIT_OK
    seed, overlap = CONFIG["seed"], CONFIG["correction"]["overlap_fraction"]
    for name, tag in (("reference_calibration", Stream.OVERLAP_RC),
                      ("model_calibration", Stream.OVERLAP_MC)):
        table = load_table(sim_dir["sim"] / f"{name}.csv", _specs())
        chunks = vinebc.cli._extended_chunks(table, overlap, seed, tag)
        for key in ALL_CHUNK_KEYS:
            x = table.values[chunks[key].estimation_rows]
            assert [samples[x[:, j].tobytes()] for j in range(3)] == [1, 1, 1], (name, key)
    # 8 chunks x 3 variables x (reference + calibration), and 16 units x 3 model margins
    assert sum(samples.values()) == 8 * 3 * 2 + 16 * 3


# chunk 3's reference fit fails; a module-level stub can be sent to pool workers
_BROKEN_REFERENCE_SEED = subseed(CONFIG["seed"], Stream.REFERENCE, 3)


def _failing_fit_reference(method, x_rc, x_mc, kinds, config):
    if config.seed == _BROKEN_REFERENCE_SEED:
        raise NumericsError("reference fit diverged")
    return fit_reference(method, x_rc, x_mc, kinds, config)


def test_correct_reference_failure_fails_its_chunks_units(sim_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(vinebc.cli, "fit_reference", _failing_fit_reference)
    chunk = ALL_CHUNK_KEYS[3]
    message = "NumericsError: reference fit diverged"
    failed = {f"{chunk.label}/m{m}": message for m in (1, 2)}
    runs = {}
    for workers in ("1", "2"):
        monkeypatch.setenv("VINEBC_WORKERS", workers)
        out = tmp_path / f"o{workers}"
        assert _correct(sim_dir, "vbc", out) == EXIT_PARTIAL
        err = capsys.readouterr().err
        assert all(f"{unit}: {message}" in err for unit in failed)
        manifest = json.load(open(out / "manifest_correct_vbc.json"))
        assert manifest["failures"] == failed
        rows = list(csv.DictReader(open(out / "corrected_vbc.csv")))
        units = {(r["chunk"], r["member"]) for r in rows}
        assert len(units) == 14 and all(c != chunk.label for c, _ in units)
        assert manifest["config"].pop("workers") == int(workers)
        manifest["outputs"] = [os.path.relpath(p, out) for p in manifest["outputs"]]
        runs[workers] = (manifest, _digest(out / "corrected_vbc.csv"))
    assert runs["1"] == runs["2"]


def test_evaluate_unit_failure_exit_code(sim_dir, corrected_dir, tmp_path, capsys, monkeypatch):
    chunk = ALL_CHUNK_KEYS[5]
    broken_seed = subseed(CONFIG["seed"], Stream.UNIT, 5, 1)
    copula_iw2 = vinebc.cli.copula_iw2

    def failing_copula_iw2(x_c, x_m, x_ref, seed):
        if seed == broken_seed:
            raise NumericsError("no convergence")
        return copula_iw2(x_c, x_m, x_ref, seed=seed)

    monkeypatch.setattr(vinebc.cli, "copula_iw2", failing_copula_iw2)
    out = tmp_path / "eval"
    status = run_pipeline(
        "evaluate",
        sim_dir["cfg"],
        model_path=str(sim_dir["sim"] / "model_projection.csv"),
        corrected_path=str(corrected_dir / "corrected_vbc.csv"),
        ref_path=str(sim_dir["sim"] / "reference_projection.csv"),
        out_dir=str(out),
    )
    assert status == EXIT_PARTIAL
    unit = f"{chunk.label}/m1"
    assert unit in capsys.readouterr().err
    manifest = json.load(open(out / "manifest_evaluate.json"))
    assert manifest["failures"] == {unit: "NumericsError: no convergence"}
    units = {(r["chunk"], r["member"]) for r in csv.DictReader(open(out / "report.csv"))}
    assert len(units) == 15 and (chunk.label, "1") not in units
    assert json.load(open(out / "report.json"))["corrected"]["n_units"] == 15


def _evaluate_lines(sim_dir, tmp_path, lines):
    """Run evaluate on a corrected table made of these CSV lines (header first)."""
    corrected = tmp_path / "corrected.csv"
    corrected.write_text("\n".join(lines) + "\n")
    out = tmp_path / "eval"
    status = run_pipeline(
        "evaluate",
        sim_dir["cfg"],
        model_path=str(sim_dir["sim"] / "model_projection.csv"),
        corrected_path=str(corrected),
        ref_path=str(sim_dir["sim"] / "reference_projection.csv"),
        out_dir=str(out),
    )
    return status, out


def _unit_of(line):
    """(chunk, member) of a corrected CSV line."""
    cells = line.split(",")
    return cells[5], cells[1]


def test_evaluate_partially_corrected_table(sim_dir, corrected_dir, tmp_path, capsys):
    # correct writes only the rows of the units that succeeded
    header, *rows = (corrected_dir / "corrected_vbc.csv").read_text().splitlines()
    dropped = (ALL_CHUNK_KEYS[5].label, "1")
    kept = [r for r in rows if _unit_of(r) != dropped]
    assert len(kept) < len(rows)
    status, out = _evaluate_lines(sim_dir, tmp_path, [header] + kept)
    assert status == EXIT_PARTIAL
    unit = f"{dropped[0]}/m1"
    assert unit in capsys.readouterr().err
    manifest = json.load(open(out / "manifest_evaluate.json"))
    assert manifest["failures"] == {unit: "not corrected: the corrected table has none of its rows"}
    full = sim_dir["tmp"] / "eval_full"
    assert run_pipeline("evaluate", sim_dir["cfg"],
                        model_path=str(sim_dir["sim"] / "model_projection.csv"),
                        corrected_path=str(corrected_dir / "corrected_vbc.csv"),
                        ref_path=str(sim_dir["sim"] / "reference_projection.csv"),
                        out_dir=str(full)) == EXIT_OK
    # the other 15 units are evaluated exactly as in the full table
    full_rows = [r for r in open(full / "report.csv") if f",{dropped[0]},1," not in r]
    assert open(out / "report.csv").readlines() == full_rows
    assert json.load(open(out / "report.json"))["corrected"]["n_units"] == 15


def test_evaluate_unit_without_reference_rows_fails(sim_dir, corrected_dir, tmp_path, capsys):
    # a reference table of January to June only: the SON chunks have no rows
    header, *rows = (sim_dir["sim"] / "reference_projection.csv").read_text().splitlines()
    half = [r for r in rows if int(r[5:7]) <= 6]
    assert 0 < len(half) < len(rows)
    ref = tmp_path / "reference.csv"
    ref.write_text("\n".join([header] + half) + "\n")
    out = tmp_path / "eval"
    status = run_pipeline("evaluate", sim_dir["cfg"],
                          model_path=str(sim_dir["sim"] / "model_projection.csv"),
                          corrected_path=str(corrected_dir / "corrected_vbc.csv"),
                          ref_path=str(ref), out_dir=str(out))
    assert status == EXIT_PARTIAL
    message = "not evaluated: the reference table has no rows in chunk "
    failed = {f"{k.label}/m{m}": message + k.label
              for k in ALL_CHUNK_KEYS if k.season == "SON" for m in (1, 2)}
    assert len(failed) == 4
    err = capsys.readouterr().err
    assert all(f"{unit}: {message}" in err for unit, message in failed.items())
    assert json.load(open(out / "manifest_evaluate.json"))["failures"] == failed
    assert json.load(open(out / "report.json"))["corrected"]["n_units"] == 12


def test_evaluate_matches_rows_not_positions(sim_dir, corrected_dir, tmp_path):
    # member 2's rows first: the same rows in another order evaluate the same
    header, *rows = (corrected_dir / "corrected_vbc.csv").read_text().splitlines()
    reordered = sorted(rows, key=lambda r: _unit_of(r)[1] != "2")
    assert reordered != rows
    status, out = _evaluate_lines(sim_dir, tmp_path, [header] + reordered)
    assert status == EXIT_OK
    reference = tmp_path / "reference"
    assert run_pipeline("evaluate", sim_dir["cfg"],
                        model_path=str(sim_dir["sim"] / "model_projection.csv"),
                        corrected_path=str(corrected_dir / "corrected_vbc.csv"),
                        ref_path=str(sim_dir["sim"] / "reference_projection.csv"),
                        out_dir=str(reference)) == EXIT_OK
    for name in ("report.csv", "report.json", "mci_series.csv"):
        assert _digest(out / name) == _digest(reference / name)


@pytest.mark.parametrize("extra_row", [
    "2011-01-01T03:00:00,9,0.0,0.0,0.0,DJF-night,vbc,0",  # a member the model lacks
    "2099-01-01T00:00:00,1,0.0,0.0,0.0,DJF-night,vbc,0",  # a time the model lacks
])
def test_evaluate_corrected_row_without_model_row_exit_code(sim_dir, corrected_dir, tmp_path,
                                                            capsys, extra_row):
    lines = (corrected_dir / "corrected_vbc.csv").read_text().splitlines()
    status, _ = _evaluate_lines(sim_dir, tmp_path, lines + [extra_row])
    assert status == EXIT_DATA
    assert "not in the model table" in capsys.readouterr().err


def test_evaluate_names_first_corrected_row_without_model_row(sim_dir, corrected_dir, tmp_path,
                                                              capsys):
    lines = (corrected_dir / "corrected_vbc.csv").read_text().splitlines()
    status, _ = _evaluate_lines(sim_dir, tmp_path, lines + [
        "2099-01-01T00:00:00,1,0.0,0.0,0.0,DJF-night,vbc,0",
        "2011-01-01T03:00:00,9,0.0,0.0,0.0,DJF-night,vbc,0",
    ])
    assert status == EXIT_DATA
    assert ("data error: 2 corrected row(s) are not in the model table, the first at "
            "2099-01-01T00:00:00 for member 1") in capsys.readouterr().err


def test_evaluate_partly_corrected_unit_exit_code(sim_dir, corrected_dir, tmp_path, capsys):
    header, *rows = (corrected_dir / "corrected_vbc.csv").read_text().splitlines()
    unit = (ALL_CHUNK_KEYS[2].label, "2")
    in_unit = [i for i, r in enumerate(rows) if _unit_of(r) == unit]
    drop = set(in_unit[::2])
    status, _ = _evaluate_lines(sim_dir, tmp_path, [header] + [r for i, r in enumerate(rows)
                                                               if i not in drop])
    assert status == EXIT_DATA
    assert f"unit {unit[0]}/m2 is only partly corrected" in capsys.readouterr().err


def test_emit_report_empty_headers_only(tmp_path):
    paths = emit_report(MetricReport(), str(tmp_path))
    lines = open(paths[0]).read().splitlines()
    assert lines == ["method,chunk,member,metric,value"]


def test_emit_report_unit_rows(tmp_path):
    rep = MetricReport()
    for chunk in ("DJF-day", "DJF-night"):
        for member in (1, 2, 3):
            rep.add(
                UnitMetrics(
                    chunk=chunk,
                    member=member,
                    method="vbc",
                    w2_model=1.0,
                    w2_corrected=0.5,
                    mci_mean=0.01,
                    copula_iw2=0.1,
                    margin_iw2={"a": 0.1},
                )
            )
    paths = emit_report(rep, str(tmp_path))
    rows = list(csv.DictReader(open(paths[0])))
    assert len({(r["chunk"], r["member"]) for r in rows}) == 6


def test_invalid_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"variables": [{"name": "x", "kind": "weird"}]}))
    assert run_pipeline("simulate", str(bad), out_dir=str(tmp_path / "o")) == EXIT_CONFIG
    assert "variables[0].kind" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["nonnegative-continuous", "zero-inflated"])
def test_retired_kind_alias_exit_code(tmp_path, capsys, kind):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"variables": [{"name": "x", "kind": kind}]}))
    assert run_pipeline("simulate", str(bad), out_dir=str(tmp_path / "o")) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "variables[0].kind" in err
    assert all(k in err for k in ("'interval'", "'nonnegative'", "'zero_inflated'"))


def test_missing_config_exit_code(tmp_path):
    assert run_pipeline("simulate", str(tmp_path / "none.json"), out_dir=str(tmp_path)) == EXIT_CONFIG


def _minimal_config(tmp_path, **extra):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"variables": [{"name": "x", "kind": "interval"}], **extra}))
    return str(path)


@pytest.mark.parametrize("field", ["bandwidth_rule", "delta_mode", "atom_threshold",
                                   "checkerboard_resolution", "independence_level"])
def test_retired_correction_field_exit_code(tmp_path, capsys, field):
    value = "silverman" if field == "bandwidth_rule" else 1
    cfg = _minimal_config(tmp_path, correction={field: value})
    assert run_pipeline("simulate", cfg, out_dir=str(tmp_path / "o")) == EXIT_CONFIG
    assert field in capsys.readouterr().err


@pytest.mark.parametrize(
    "path, value",
    [(("correction",), None), (("correction",), 3), (("simulate", "members"), "ab"),
     (("simulate", "members"), [1, -1]), (("simulate", "members"), [2**32]),
     (("simulate", "members"), [1, 1]), (("simulate", "steps_per_member"), "x"),
     (("workers",), True), (("seed",), 2**32),
     (("simulate", "tau"), "x"), (("simulate", "tau"), [[0, 0.2, 0.5], [0.2, 0, float("nan")],
                                                       [0.5, float("nan"), 0]]),
     (("simulate", "tau"), [[0, 1.5, 0.5], [1.5, 0, 0.35], [0.5, 0.35, 0]]),
     (("simulate", "tau"), [[0, 0.2, 0.5], [0.3, 0, 0.35], [0.5, 0.35, 0]]),
     (("simulate", "margins"), [1, 2, 3]), (("simulate", "bias", "shift", "t"), "a"),
     (("simulate", "bias"), []), (("simulate", "start"), "yesterday"),
     (("simulate", "projection_start"), "today"),
     (("simulate", "bias", "dependence_scale"), "x"),
     (("simulate", "tau"), [[0, 10**400, 0.5], [10**400, 0, 0.35], [0.5, 0.35, 0]]),
     (("simulate", "margins", 0, "loc"), 10**400), (("simulate", "steps_per_member"), 2**63),
     (("simulate", "margins", 1, "inflation"), -1), (("simulate", "margins", 0, "scale"), 0),
     (("simulate", "bias", "scale"), {"t": -2.0}), (("simulate", "bias", "dependence_scale"), 2.5),
     (("simulate", "start"), "+20000-01-01"), (("correction", "family_set"), []),
     (("correction", "family_set"), {"gaussian": 1}), (("correction", "overlap_fraction"), True)],
    ids=["null_correction", "number_correction", "string_members", "negative_member",
         "member_2_32", "repeated_member", "string_steps", "boolean_workers", "seed_2_32",
         "string_tau", "nan_tau", "tau_above_1", "asymmetric_tau", "number_margins",
         "string_shift", "list_bias", "word_start", "relative_start", "string_dependence_scale",
         "tau_beyond_float", "loc_beyond_float", "steps_2_63", "negative_inflation", "zero_scale",
         "negative_bias_scale", "tau_scaled_beyond_1", "start_year_20000", "empty_family_set",
         "mapping_family_set", "boolean_overlap_fraction"],
)
def test_invalid_config_value_exit_code(tmp_path, capsys, path, value):
    cfg = json.loads(json.dumps(CONFIG))
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_pipeline("simulate", str(cfg_path), out_dir=str(tmp_path / "o")) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)[1:] in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "kind, margin, bias, field",
    [("nonnegative", {"loc": 1000.0}, {}, "simulate.margins[0]"),
     ("interval", {"scale": 1e308}, {}, "simulate.margins[0]"),
     ("zero_inflated", {"scale": 1e307}, {}, "simulate.margins[0]"),
     ("interval", {"scale": 1e307}, {"scale": {"x": 10.0}}, "simulate.bias.scale.x"),
     ("nonnegative", {"loc": 700.0}, {"shift": {"x": 10.0}}, "simulate.bias.shift.x")],
    ids=["nonnegative_loc", "interval_scale", "zero_inflated_scale", "bias_scale", "bias_shift"],
)
def test_simulate_margin_with_infinite_draws_exit_code(tmp_path, capsys, kind, margin, bias,
                                                       field):
    cfg = {"variables": [{"name": "x", "kind": kind}],
           "simulate": {"margins": [margin], "bias": bias, "steps_per_member": 16}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_pipeline("simulate", str(cfg_path), out_dir=str(tmp_path / "o")) == EXIT_CONFIG
    assert f"config error: {field}: " in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_simulate_margin_near_the_float_limit_writes_finite_rows(tmp_path):
    # exp(700 + 7.03) at the top clip level is finite
    cfg = {"variables": [{"name": "x", "kind": "nonnegative"}],
           "simulate": {"margins": [{"loc": 700.0}], "steps_per_member": 16}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_pipeline("simulate", str(cfg_path), out_dir=str(tmp_path / "o")) == EXIT_OK
    table = load_table(tmp_path / "o" / "model_calibration.csv", [VariableSpec("x", "nonnegative")])
    assert np.isfinite(table.values).all() and table.values.max() > 1e300


# CONFIG on a quarter year of one member, so that each run takes a few
# hundredths of a second; ``workers`` is left at its default, since a larger
# value only starts a process pool
SMALL_CONFIG = {**{k: v for k, v in CONFIG.items() if k != "workers"},
                "simulate": {**CONFIG["simulate"], "steps_per_member": 730, "members": [1]}}


_SCALARS = st.none() | st.booleans() | st.integers(-10**4, 10**4) | st.floats() | st.text(max_size=8)
_JSON_BY_TYPE = {
    type(None): st.none(), bool: st.booleans(), int: st.integers(-10**4, 10**4),
    float: st.floats(), str: st.text(max_size=8), list: st.lists(_SCALARS, max_size=3),
    dict: st.dictionaries(st.text(max_size=6), _SCALARS, max_size=2),
}
# integers beyond int64 and float64 among them
_EXTREMES = st.sampled_from([math.nan, math.inf, -math.inf, 2**63, -2**63, 2**64, 10**400])


@pytest.fixture(scope="module")
def small_reference(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("small")
    cfg_path = tmp / "config.json"
    cfg_path.write_text(json.dumps(SMALL_CONFIG))
    assert run_pipeline("simulate", str(cfg_path), out_dir=str(tmp / "sim")) == EXIT_OK
    return str(tmp / "sim" / "reference_calibration.csv")


@pytest.mark.parametrize("command", ["simulate", "fit"])
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_config_with_one_field_of_another_type_never_raises(small_reference, command, data):
    """Replace one field of a valid config, at any depth, with a value of
    another JSON type, NaN, an infinity or a huge integer: ``run_pipeline``
    returns a documented exit status and raises nothing."""
    cfg = copy.deepcopy(SMALL_CONFIG)
    *to_parent, key = data.draw(st.sampled_from(list(json_paths(cfg))), label="field")
    parent = functools.reduce(operator.getitem, to_parent, cfg)
    others = [s for t, s in _JSON_BY_TYPE.items() if not isinstance(parent[key], t)
              or (t is int and isinstance(parent[key], bool))]
    parent[key] = data.draw(st.one_of(*others, _EXTREMES), label="value")
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "config.json")
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        io = {"input_path": small_reference} if command == "fit" else {}
        status = run_pipeline(command, cfg_path, out_dir=os.path.join(tmp, "out"), **io)
    assert status in (EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_PARTIAL)


@pytest.mark.parametrize(
    "names",
    [["d", "p", ""], ["d", "p", 3], ["d", "p", "t,x"], ["d", "p", 't"'], ["d", "p", "t\nx"],
     ["d", "p", "d"], ["d", "p", "chunk"], ["timestamp", "p", "t"]],
    ids=["empty", "number", "comma", "quote", "newline", "duplicate", "chunk", "timestamp"],
)
def test_invalid_variable_name_exit_code(tmp_path, capsys, names):
    cfg = json.loads(json.dumps(CONFIG))
    for var, name in zip(cfg["variables"], names):
        var["name"] = name
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_pipeline("simulate", str(cfg_path), out_dir=str(tmp_path / "o")) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: variables[")


def test_unknown_command_exit_code(tmp_path, capsys):
    assert run_pipeline("transform", _minimal_config(tmp_path), out_dir=str(tmp_path)) == EXIT_CONFIG
    assert "transform" in capsys.readouterr().err


def test_readme_correction_block_lists_config_fields():
    readme = open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")).read()
    block = re.search(r'^  "correction": \{.*?\n(.*?)^  \}', readme, re.M | re.S).group(1)
    keys = set(re.findall(r'^    "(\w+)":', block, re.M))
    fields = {f.name for f in dataclasses.fields(CorrectionConfig)} - {"seed"}
    assert keys == fields


def test_non_integer_seed_override_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("VINEBC_SEED", "abc")
    assert run_pipeline("simulate", _minimal_config(tmp_path), out_dir=str(tmp_path)) == EXIT_CONFIG
    assert "VINEBC_SEED" in capsys.readouterr().err


def test_negative_seed_override_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("VINEBC_SEED", "-5")
    assert run_pipeline("simulate", _minimal_config(tmp_path), out_dir=str(tmp_path)) == EXIT_CONFIG
    assert "VINEBC_SEED" in capsys.readouterr().err


def test_non_integer_workers_override_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("VINEBC_WORKERS", "abc")
    assert run_pipeline("simulate", _minimal_config(tmp_path), out_dir=str(tmp_path)) == EXIT_CONFIG
    assert "VINEBC_WORKERS" in capsys.readouterr().err


def test_missing_input_exit_code(sim_dir, tmp_path, capsys):
    missing = tmp_path / "absent.csv"
    status = run_pipeline("fit", sim_dir["cfg"], input_path=str(missing), out_dir=str(tmp_path / "o"))
    assert status == EXIT_DATA
    assert str(missing) in capsys.readouterr().err


def test_data_error_exit_code(sim_dir, tmp_path):
    missing_col = tmp_path / "short.csv"
    missing_col.write_text("timestamp,member,d,p\n2001-01-01T00:00:00,1,0.0,0.0\n")
    status = run_pipeline(
        "correct",
        sim_dir["cfg"],
        method="ubc",
        mp_path=str(missing_col),
        rc_path=str(sim_dir["sim"] / "reference_calibration.csv"),
        mc_path=str(sim_dir["sim"] / "model_calibration.csv"),
        out_dir=str(tmp_path / "o"),
    )
    assert status == EXIT_DATA


def test_short_row_exit_code(tmp_path, capsys):
    table = tmp_path / "in.csv"
    table.write_text("member,x,timestamp\n1,3.0\n")
    status = main(["fit", "--config", _minimal_config(tmp_path), "--input", str(table),
                   "--output-dir", str(tmp_path / "o")])
    assert status == EXIT_DATA
    assert f"data error: {table}: row 1 has 2 cells, the header has 3" in capsys.readouterr().err


@pytest.mark.parametrize("member", [-1, 2**32])
def test_member_outside_seed_range_exit_code(tmp_path, capsys, member):
    table = tmp_path / "in.csv"
    table.write_text(f"timestamp,member,x\n2000-01-01T00:00:00,{member},3.0\n")
    status = main(["fit", "--config", _minimal_config(tmp_path), "--input", str(table),
                   "--output-dir", str(tmp_path / "o")])
    assert status == EXIT_DATA
    assert f"data error: {table}: member {member} is outside" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["1", "2"])
def test_partial_failure_exit_code(sim_dir, tmp_path, capsys, monkeypatch, workers):
    monkeypatch.setenv("VINEBC_WORKERS", workers)
    # append a third member with too few rows to fit anything in its one chunk
    src = (sim_dir["sim"] / "model_projection.csv").read_text().splitlines()
    extra = []
    t0 = np.datetime64("2011-01-01T00:00:00")
    for i in range(20):
        ts = str(t0 + i * np.timedelta64(3, "h"))
        extra.append(f"{ts},9,1.0,0.0,2.0")
    broken = tmp_path / "mp_broken.csv"
    broken.write_text("\n".join(src + extra) + "\n")
    status = run_pipeline(
        "correct",
        sim_dir["cfg"],
        method="ubc",
        mp_path=str(broken),
        rc_path=str(sim_dir["sim"] / "reference_calibration.csv"),
        mc_path=str(sim_dir["sim"] / "model_calibration.csv"),
        out_dir=str(tmp_path / "o"),
    )
    assert status == EXIT_PARTIAL
    err = capsys.readouterr().err
    assert "m9" in err
    # the healthy members still produced corrected rows
    corr = load_table(tmp_path / "o" / "corrected_ubc.csv", _specs())
    assert set(np.unique(corr.members)) == {1, 2}


@pytest.mark.parametrize(
    "field, value",
    [("family_set", ["gaussian", "nope"]), ("family_set", "gaussian"), ("truncation", "x"),
     ("truncation", -1)],
    ids=["unknown_family", "bare_string_family", "non_integer_truncation", "negative_truncation"],
)
def test_invalid_correction_value_exit_code(sim_dir, tmp_path, capsys, field, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**CONFIG, "correction": {field: value}}))
    status = run_pipeline(
        "correct",
        str(cfg),
        method="vbc",
        mp_path=str(sim_dir["sim"] / "model_projection.csv"),
        rc_path=str(sim_dir["sim"] / "reference_calibration.csv"),
        mc_path=str(sim_dir["sim"] / "model_calibration.csv"),
        out_dir=str(tmp_path / "o"),
    )
    assert status == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: correction.{field}:" in err


def test_unknown_correct_method_exit_code(sim_dir, tmp_path, capsys):
    status = run_pipeline(
        "correct",
        sim_dir["cfg"],
        method="qm",
        mp_path=str(sim_dir["sim"] / "model_projection.csv"),
        rc_path=str(sim_dir["sim"] / "reference_calibration.csv"),
        mc_path=str(sim_dir["sim"] / "model_calibration.csv"),
        out_dir=str(tmp_path / "o"),
    )
    assert status == EXIT_CONFIG
    assert "qm" in capsys.readouterr().err


def test_cli_main_parses_args(sim_dir, tmp_path):
    status = main(
        [
            "correct",
            "--config",
            sim_dir["cfg"],
            "--method",
            "ubc",
            "--model-projection",
            str(sim_dir["sim"] / "model_projection.csv"),
            "--reference",
            str(sim_dir["sim"] / "reference_calibration.csv"),
            "--model-calibration",
            str(sim_dir["sim"] / "model_calibration.csv"),
            "--output-dir",
            str(tmp_path / "cli_out"),
        ]
    )
    assert status == EXIT_OK
    assert (tmp_path / "cli_out" / "corrected_ubc.csv").exists()


def test_cli_main_runs_simulate_fit_evaluate(sim_dir, corrected_dir, tmp_path):
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", sim_dir["cfg"], "--output-dir", str(sim)]) == EXIT_OK
    for name in ("reference_calibration", "reference_projection", "model_calibration",
                 "model_projection"):
        assert _digest(sim / f"{name}.csv") == _digest(sim_dir["sim"] / f"{name}.csv")
    models = tmp_path / "models"
    assert main(["fit", "--config", sim_dir["cfg"], "--input", str(sim / "reference_calibration.csv"),
                 "--output-dir", str(models)]) == EXIT_OK
    assert len([p for p in os.listdir(models) if p.startswith("model_")]) == 8
    out = tmp_path / "eval"
    assert main(["evaluate", "--config", sim_dir["cfg"], "--model", str(sim / "model_projection.csv"),
                 "--corrected", str(corrected_dir / "corrected_vbc.csv"),
                 "--reference", str(sim / "reference_projection.csv"),
                 "--output-dir", str(out)]) == EXIT_OK
    assert json.load(open(out / "report.json"))["corrected"]["n_units"] == 16
