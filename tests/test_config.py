"""Runtime configuration: defaults, overrides, and validation."""

import json

import pytest

from sympind import RunConfig
from sympind.errors import InvalidInput
from sympind.flows import TOL_CRIT
from sympind.linalg import TOL_EIG, TOL_SV
from sympind.specflow import GALERKIN_MODES


def test_defaults_track_module_constants():
    cfg = RunConfig()
    assert cfg.tol_sv == TOL_SV
    assert cfg.tol_eig == TOL_EIG
    assert cfg.tol_crit == TOL_CRIT
    assert cfg.fourier_modes == GALERKIN_MODES
    assert cfg.sample_hint == 512
    assert cfg.seed == 0 and cfg.output_format == "text"


def test_replace_returns_new_frozen_instance():
    cfg = RunConfig()
    other = cfg.replace(tol_sv=1e-9, seed=3)
    assert other.tol_sv == 1e-9 and other.seed == 3
    assert cfg.tol_sv == TOL_SV and cfg.seed == 0
    with pytest.raises(Exception):
        cfg.tol_sv = 1.0  # frozen


def test_from_mapping_rejects_unknown_keys():
    with pytest.raises(InvalidInput):
        RunConfig.from_mapping({"tol_sv": 1e-8, "bogus": 1})


@pytest.mark.parametrize("key", ["bisect_iters", "tol_sym", "tol_symp"])
def test_removed_knobs_are_unknown_keys(tmp_path, key):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({key: 1e-9 if key.startswith("tol") else 60}))
    with pytest.raises(InvalidInput, match="unknown config keys"):
        RunConfig.from_file(str(p))


def test_from_file_roundtrip(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"tol_sv": 2e-8, "sample_hint": 128, "seed": 5}))
    cfg = RunConfig.from_file(str(p))
    assert cfg.tol_sv == 2e-8 and cfg.sample_hint == 128 and cfg.seed == 5
    assert cfg.to_json_obj()["sample_hint"] == 128


def test_from_file_errors(tmp_path):
    with pytest.raises(InvalidInput):
        RunConfig.from_file(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InvalidInput):
        RunConfig.from_file(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(InvalidInput):
        RunConfig.from_file(str(arr))


@pytest.mark.parametrize("changes", [
    {"tol_sv": 0.0}, {"tol_sv": -1e-8}, {"tol_eig": float("nan")},
    {"sample_hint": 8}, {"tol_crit": 0.0}, {"fourier_modes": 0},
    {"seed": -1}, {"output_format": "yaml"}, {"sample_hint": 12.5},
])
def test_validation_rejects_bad_values(changes):
    with pytest.raises(InvalidInput):
        RunConfig(**changes)


def test_integral_floats_are_coerced():
    cfg = RunConfig(sample_hint=256.0, seed=2.0)
    assert cfg.sample_hint == 256 and isinstance(cfg.sample_hint, int)
    assert cfg.seed == 2 and isinstance(cfg.seed, int)
