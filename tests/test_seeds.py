"""The seed plan: one table of stream tags (``vinebc._util.Stream``) and
``subseed``, which derives every stream's seed from it."""
import ast
import inspect
import json
import pathlib
import sys
from collections import Counter, defaultdict

import numpy as np
import pytest

import vinebc._util as _util
from vinebc._util import Stream, subseed
from vinebc.cli import EXIT_OK, run_pipeline


def _seed_sequence(*parts):
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def test_library_tags_keep_the_values_fitted_models_were_seeded_with():
    tags = (Stream.NOISE, Stream.PROJECTION_VINE, Stream.REFERENCE_VINE, Stream.PAIR_JITTER)
    assert tags == (11, 12, 13, 202)
    assert subseed(7, Stream.NOISE) == _seed_sequence(7, 11)
    assert subseed(2**32 - 1, Stream.PAIR_JITTER, 1, 0, 2) == _seed_sequence(2**32 - 1, 202, 1, 0, 2)


@pytest.mark.parametrize("bad", [-1, 2**32, 2**40])
def test_subseed_rejects_a_part_outside_32_bits(bad):
    with pytest.raises(ValueError, match="outside"):
        subseed(bad, Stream.UNIT, 0, 1)
    with pytest.raises(ValueError, match="outside"):
        subseed(7, Stream.UNIT, 0, bad)


def test_seed_sequence_aliases_what_subseed_rules_out():
    # a part of 2**32 or more is read as two parts, and a trailing zero is
    # dropped: hence 32-bit parts and one number of indices per tag
    assert _seed_sequence(7, 2**32 + 5) == _seed_sequence(7, 5, 1)
    assert _seed_sequence(7, 1, 3) == _seed_sequence(7, 1, 3, 0)


@pytest.mark.parametrize("tag", [11, 11.0, np.int64(11), "NOISE", None])
def test_subseed_takes_only_a_table_member_as_tag(tag):
    with pytest.raises(TypeError):
        subseed(7, tag)


def test_a_repeated_tag_value_fails_at_import():
    source = inspect.getsource(_util)
    repeated = source.replace("NOISE = 11", "NOISE = 12", 1)
    assert repeated != source
    with pytest.raises(ValueError, match="duplicate values"):
        exec(compile(repeated, _util.__file__, "exec"), {"__name__": "vinebc._util_copy"})


def test_every_tag_has_one_call_site():
    uses = Counter()
    for path in pathlib.Path(_util.__file__).parent.glob("*.py"):
        if path.name != "_util.py":
            uses.update(node.attr for node in ast.walk(ast.parse(path.read_text()))
                        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                        and node.value.id == "Stream")
    assert uses == Counter(tag.name for tag in Stream)


# an ensemble of member ids that the tags of the old plan took as well
PROBE_CONFIG = {
    "seed": 3,
    "workers": 1,
    "variables": [{"name": "t", "kind": "interval"}, {"name": "p", "kind": "zero_inflated"}],
    "correction": {"family_set": ["independence", "gaussian", "clayton", "gumbel", "frank"]},
    "simulate": {"steps_per_member": 2920, "members": [1, 2, 11, 12, 13],
                 "margins": [{"loc": 10.0, "scale": 4.0}, {"scale": 1.5, "inflation": 0.3}],
                 "tau": [[0, 0.4], [0.4, 0]],
                 "bias": {"shift": {"t": 2.0}, "inflation": {"p": 0.5},
                          "dependence_scale": 0.5}},
}


def test_no_seed_serves_two_call_sites(tmp_path, monkeypatch):
    """simulate, correct (VBC) and evaluate in this process: every seed that
    reaches ``np.random.default_rng`` comes from one call site."""
    monkeypatch.delenv("VINEBC_WORKERS", raising=False)
    monkeypatch.delenv("VINEBC_SEED", raising=False)
    sites = defaultdict(set)
    default_rng = np.random.default_rng

    def recording_default_rng(seed=None):
        caller = sys._getframe(1)
        sites[int(seed)].add((caller.f_code.co_filename, caller.f_lineno))
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", recording_default_rng)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(PROBE_CONFIG))
    sim, out = tmp_path / "sim", tmp_path / "out"
    assert run_pipeline("simulate", str(cfg), out_dir=str(sim)) == EXIT_OK
    assert run_pipeline("correct", str(cfg), method="vbc", out_dir=str(out),
                        mp_path=str(sim / "model_projection.csv"),
                        rc_path=str(sim / "reference_calibration.csv"),
                        mc_path=str(sim / "model_calibration.csv")) == EXIT_OK
    assert run_pipeline("evaluate", str(cfg), out_dir=str(out / "eval"),
                        model_path=str(sim / "model_projection.csv"),
                        corrected_path=str(out / "corrected_vbc.csv"),
                        ref_path=str(sim / "reference_projection.csv")) == EXIT_OK
    # simulate's, the overlap's, the noise's, the pair jitters' and the PIT jitters' sites
    assert len({site for s in sites.values() for site in s}) >= 5
    shared = {seed: sorted(s) for seed, s in sites.items() if len(s) > 1}
    assert not shared, f"{len(shared)} of {len(sites)} seeds serve two call sites"
