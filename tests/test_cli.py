"""Command-line behaviour: outputs, exit codes, and determinism."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from sympind.cli import _fixed9, _resolve_config, build_parser, main
from sympind.flows import linearized_flow_path, parametrized_rs_index
from sympind.linalg import ExpCurve, standard_j
from sympind.rsindex import rs_index_stratified
from sympind.systems import quadratic_system


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def _shear_file(tmp_path):
    return _write(tmp_path, "shear.json", {
        "kind": "exp_shear",
        "S": [[0.9, 0.0], [0.0, 0.4]],
        "E": [[0.7]],
    })


def test_index_exp_shear_text(tmp_path, capsys):
    rc = main(["index", _shear_file(tmp_path)])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[0] == "index: 3/2"
    assert out[1] == "crossings (1):"
    assert "start" in out[2]


def test_index_json_is_byte_deterministic(tmp_path, capsys):
    argv = ["index", _shear_file(tmp_path), "--json", "--seed", "7"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    body = json.loads(first)
    assert body["format"] == "sympind/1"
    assert body["seed"] == 7
    assert body["index"] == "3/2"
    assert body["crossings"][0]["endpoint"] == "start"


def test_index_constant_identity_is_precondition_error(tmp_path, capsys):
    f = _write(tmp_path, "const.json",
               {"kind": "constant", "matrix": [[1.0, 0.0], [0.0, 1.0]]})
    rc = main(["index", f])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error[NON_ISOLATED]")


def test_index_dense_rotation(tmp_path, capsys):
    theta = np.linspace(0.0, 1.0, 65)
    curve = ExpCurve(standard_j(1) @ np.diag([2.0, 2.0]))
    f = _write(tmp_path, "dense.json", {
        "kind": "dense",
        "theta": theta.tolist(),
        "samples": curve(theta).tolist(),
    })
    rc = main(["index", f])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[0] == "index: 2/2"


def test_index_snm_samples(tmp_path, capsys):
    theta = np.linspace(0.0, 1.0, 129)
    psi = ExpCurve(standard_j(1) @ np.diag([0.9, 0.4]))(theta)
    f = _write(tmp_path, "snm.json", {
        "kind": "snm_samples", "n": 1, "m": 1,
        "theta": theta.tolist(),
        "psi": psi.tolist(),
        "x": np.zeros((129, 2, 1)).tolist(),
        "e": (0.7 * theta)[:, None, None].tolist(),
    })
    rc = main(["index", f])
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[0] == "index: 3/2"


def test_index_rabinowitz_kind(tmp_path, capsys):
    f = _write(tmp_path, "rab.json",
               {"kind": "rabinowitz", "lambda": 6.283185307179586,
                "k1": -1.0, "k2": 0.5})
    rc = main(["index", f])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[0] == "index: 0/2"


def test_stratified_flag_needs_family_kind(tmp_path, capsys):
    # kinds with a built-in family are always indexed relative to it, so
    # there is no --stratified flag to pass
    f = _write(tmp_path, "const2.json",
               {"kind": "constant", "matrix": [[2.0, 0.0], [0.0, 0.5]]})
    with pytest.raises(SystemExit) as exc:
        main(["index", f, "--stratified"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --stratified" in capsys.readouterr().err


def test_index_rabinowitz_scans_the_configured_grid(tmp_path, capsys, monkeypatch):
    import sympind.cli

    seen = []

    def recording(path, family, **kwargs):
        result = rs_index_stratified(path, family, **kwargs)
        seen.append(result.samples)
        return result

    monkeypatch.setattr(sympind.cli, "rs_index_stratified", recording)
    f = _write(tmp_path, "rab.json",
               {"kind": "rabinowitz", "lambda": 1.0, "k1": -1.0, "k2": 0.5})
    cfg = _write(tmp_path, "cfg.json", {"sample_hint": 64})
    rc = main(["index", f, "--config", cfg])
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[0] == "index: 0/2"
    assert seen == [64]


def test_unknown_path_kind(tmp_path, capsys):
    f = _write(tmp_path, "bogus.json", {"kind": "bogus"})
    rc = main(["index", f])
    assert rc == 2
    assert "error[INVALID_INPUT]" in capsys.readouterr().err


def test_missing_file_json_error_body(tmp_path, capsys):
    rc = main(["index", str(tmp_path / "nope.json"), "--json"])
    captured = capsys.readouterr()
    assert rc == 2
    body = json.loads(captured.out)
    assert body["format"] == "sympind/1"
    assert body["error"]["code"] == "INVALID_INPUT"


def test_paramindex_split_default(capsys):
    rc = main(["paramindex", "split"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[0] == "system: split"
    assert out[1] == "index: -3/2"


def test_paramindex_rabinowitz_flat(capsys):
    rc = main(["paramindex", "rabinowitz_flat"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[1] == "index: 0/2"


@pytest.mark.parametrize("system", ["split", "quadratic"])
def test_paramindex_passes_tol_eig_to_the_index(tmp_path, capsys, monkeypatch, system):
    import sympind.flows

    seen = []

    def recording(path, family, tol_sv, tol_eig, **kwargs):
        seen.append(tol_eig)
        return rs_index_stratified(path, family, tol_sv, tol_eig, **kwargs)

    monkeypatch.setattr(sympind.flows, "rs_index_stratified", recording)
    cfg = _write(tmp_path, "cfg.json", {"tol_eig": 1e-6})
    assert main(["paramindex", system, "--config", cfg]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "index: -3/2"
    assert seen == [1e-6]


def test_paramindex_quadratic_matches_library(tmp_path, capsys):
    kb = [[0.9, 0.1], [0.1, 0.4]]
    gb = [[0.2, 0.1]]
    fb = [[0.7]]
    f = _write(tmp_path, "params.json", {"K": kb, "G": gb, "F": fb})
    rc = main(["paramindex", "quadratic", "--params", f, "--json"])
    assert rc == 0
    body = json.loads(capsys.readouterr().out)
    want = parametrized_rs_index(
        linearized_flow_path(*quadratic_system(np.array(kb), np.array(gb),
                                               np.array(fb))))
    assert body["index"] == str(want.value)


def _readme_spectralflow_example():
    """(argv, family file, printed lines) of the README spectralflow example."""
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("### spectralflow", 1)[1].split("\n### ", 1)[0]
    blocks = re.findall(r"```[a-z]*\n(.*?)```", section, flags=re.S)
    command, family, printed = blocks[:3]
    return command.split()[1:], json.loads(family), printed.splitlines()


@pytest.mark.parametrize("x,text", [(-2.1e-17, "0.000000000"), (-0.0, "0.000000000"),
                                    (-4e-10, "0.000000000"), (-6e-10, "-0.000000001"),
                                    (0.4318, "0.431800000")])
def test_instants_that_round_to_zero_print_unsigned(x, text):
    assert _fixed9(x) == text


def test_spectralflow_readme_example(tmp_path, capsys):
    # a scan in s put this crossing at s = -2.1e-17, once printed as
    # s=-0.000000000
    argv, family, printed = _readme_spectralflow_example()
    assert argv[:2] == ["spectralflow", "family.json"]
    argv[1] = _write(tmp_path, "family.json", family)
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == printed


def test_spectralflow_split_tanh(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", {"sample_hint": 128})
    fam = _write(tmp_path, "tanh.json", {"kind": "split_tanh", "m": 1})
    rc = main(["spectralflow", fam, "--config", cfg, "--modes", "8", "--json"])
    assert rc == 0
    body = json.loads(capsys.readouterr().out)
    assert body["matrix"] == 1 and body["galerkin"] == 1
    assert body["agree"] is True
    assert len(body["crossings"]) == 1


def test_spectralflow_refuses_sample_hint_for_a_dense_family(tmp_path, capsys):
    # the file's own theta_grid sets the resolution; the option would reach
    # nothing, so it is refused before the tables are read
    fam = _write(tmp_path, "dense.json", {"kind": "dense_family", "n": 1, "m": 1,
                                          "s_grid": [], "theta_grid": [],
                                          "S": [], "C": [], "D": []})
    cfg = _write(tmp_path, "cfg.json", {"sample_hint": 32})
    assert main(["spectralflow", fam, "--config", cfg, "--json"]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["code"] == "INVALID_INPUT"
    assert "sample_hint" in error["message"]


def _dense_family_with_nan(nan_in):
    """An 8 x 32 dense_family body (S = 1.2 I, D = -1, flow 0), valid but
    for one NaN in s_grid or in S."""
    s_grid = np.linspace(-1.0, 1.0, 8)
    s_table = np.broadcast_to(1.2 * np.eye(2), (8, 32, 2, 2)).copy()
    (s_grid if nan_in == "s_grid" else s_table).flat[3] = np.nan
    return {"kind": "dense_family", "n": 1, "m": 1, "s_grid": s_grid.tolist(),
            "theta_grid": (np.arange(32) / 32).tolist(), "S": s_table.tolist(),
            "C": np.zeros((8, 32, 1, 2)).tolist(),
            "D": (-np.ones((8, 32, 1, 1))).tolist()}


@pytest.mark.parametrize("family", [
    _dense_family_with_nan("s_grid"), _dense_family_with_nan("S"),
    {"kind": "random_family", "seed": 0, "alpha": float("nan")},
    {"kind": "random_family", "seed": 0, "alpha": float("inf")}],
    ids=["s_grid-nan", "S-nan", "alpha-nan", "alpha-inf"])
def test_spectralflow_refuses_non_finite_family_input(tmp_path, capsys, family):
    # json reads NaN and Infinity; they must not reach a spline or a solve
    rc = main(["spectralflow", _write(tmp_path, "family.json", family), "--json"])
    assert rc == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["code"] == "INVALID_INPUT"
    assert "finite" in error["message"]


@pytest.mark.parametrize("command,body", [
    ("spectralflow", '{"kind": "random_family", "seed": NaN}'),
    ("spectralflow", '{"kind": "random_family", "seed": -1}'),
    ("spectralflow", '{"kind": "random_family", "seed": true}'),
    ("spectralflow", '{"kind": "random_family", "seed": 0, "degree": 1e400}'),
    ("spectralflow", '{"kind": "split_tanh", "m": Infinity}'),
    ("spectralflow", '{"kind": "split_tanh", "m": 1.7}'),
    ("index", '{"kind": "snm_samples", "n": NaN, "m": 1, "theta": [0, 1], '
              '"psi": [], "x": [], "e": []}'),
    ("index", '{"kind": "rabinowitz", "lambda": "abc", "k1": 1, "k2": 2}'),
    ("index", '{"kind": "rabinowitz", "lambda": [1], "k1": 1, "k2": 2}'),
    ("paramindex", '{"turns": NaN}'),
    ("paramindex", '{"slope": "x"}')],
    ids=["seed-nan", "seed-negative", "seed-bool", "degree-1e400", "m-inf",
         "m-fractional", "n-nan", "lambda-string", "lambda-list", "turns-nan",
         "slope-string"])
def test_scalar_input_fields_are_checked(tmp_path, capsys, command, body):
    # every scalar a path, family or params file gives goes through one
    # reader: a bool, a non-number, a non-finite or fractional integer, or
    # a negative seed exits 2 before it reaches a computation
    source = tmp_path / "input.json"
    source.write_text(body)
    if command == "paramindex":
        argv = ["paramindex", "rabinowitz_flat", "--params", str(source)]
    else:
        argv = [command, str(source)]
    assert main(argv + ["--json"]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["code"] == "INVALID_INPUT"


@pytest.mark.parametrize("knob", ["--tol-sv", "--config"])
def test_spectralflow_refuses_tolerances(tmp_path, capsys, knob):
    fam = _write(tmp_path, "tanh.json", {"kind": "split_tanh", "m": 1})
    value = "0.3" if knob == "--tol-sv" else _write(tmp_path, "cfg.json", {"tol_eig": 1e-6})
    rc = main(["spectralflow", fam, "--modes", "8", "--json", knob, value])
    assert rc == 2
    assert json.loads(capsys.readouterr().out)["error"]["code"] == "INVALID_INPUT"


@pytest.mark.parametrize("knob,value", [("--tol-sv", "0.3"),
                                        ("--config", {"tol_eig": 1e-6}),
                                        ("--config", {"sample_hint": 128})])
def test_verify_refuses_settings_it_ignores(tmp_path, capsys, knob, value):
    if knob == "--config":
        value = _write(tmp_path, "cfg.json", value)
    rc = main(["verify", "roundtrip", "--count", "1", "--json", knob, value])
    assert rc == 2
    assert json.loads(capsys.readouterr().out)["error"]["code"] == "INVALID_INPUT"


def _command_argv(tmp_path, command):
    return {
        "index": lambda: ["index", _shear_file(tmp_path)],
        "paramindex": lambda: ["paramindex", "split"],
        "spectralflow": lambda: ["spectralflow", _write(tmp_path, "tanh.json",
                                                        {"kind": "split_tanh"})],
        "verify roundtrip": lambda: ["verify", "roundtrip", "--count", "1"],
        "verify main-theorem": lambda: ["verify", "main-theorem", "--count", "1"],
        "rabinowitz": lambda: ["rabinowitz", "--lambda", "1.0", "--k1", "-1.0",
                               "--k2", "0.5"],
    }[command]()


@pytest.mark.parametrize("command,setting", [
    ("index", {"tol_crit": 1e-5}), ("index", "--modes"),
    ("paramindex", "--modes"),
    ("spectralflow", {"tol_crit": 1e-5}),
    ("verify roundtrip", {"tol_crit": 1e-5}), ("verify roundtrip", "--modes"),
    ("verify main-theorem", {"tol_crit": 1e-5}),
    ("rabinowitz", {"tol_crit": 1e-5}), ("rabinowitz", "--modes"),
    ("rabinowitz", {"tol_eig": 1e-6}), ("rabinowitz", {"sample_hint": 128})])
def test_commands_refuse_settings_they_do_not_read(tmp_path, capsys, command, setting):
    argv = _command_argv(tmp_path, command) + ["--json"]
    if setting == "--modes":
        argv += ["--modes", "8"]
    else:
        argv += ["--config", _write(tmp_path, "cfg.json", setting)]
    assert main(argv) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["code"] == "INVALID_INPUT"
    assert "does not read" in error["message"]


def test_paramindex_reads_tol_crit(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", {"tol_crit": 1e-5})
    assert main(["paramindex", "split", "--config", cfg]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "index: -3/2"


def test_verify_roundtrip_subcommand(capsys):
    rc = main(["verify", "roundtrip", "--count", "2", "--json", "--seed", "1"])
    assert rc == 0
    body = json.loads(capsys.readouterr().out)
    assert body["suite"] == "roundtrip" and body["ok"] is True
    assert len(body["checks"]) == 2


def test_verify_axioms_json_parses(capsys):
    rc = main(["verify", "axioms", "--count", "1", "--json"])
    assert rc == 0
    body = json.loads(capsys.readouterr().out)
    assert body["suite"] == "axioms" and body["ok"] is True
    assert all(type(c["passed"]) is bool for c in body["checks"])


def test_verify_appendix_subcommand(capsys):
    rc = main(["verify", "appendix-c", "--count", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.strip().endswith("appendix-c: 4/4 checks passed")


def test_rabinowitz_subcommand(capsys):
    rc = main(["rabinowitz", "--lambda", "1.0", "--k1", "-1.0",
               "--k2", "0.5", "--mu-reeb", "3/2"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[0] == "block index: 0/2"
    assert out[1] == "grading: 3/2"


def test_rabinowitz_rejects_bad_orbit_index(capsys):
    rc = main(["rabinowitz", "--lambda", "1.0", "--k1", "-1.0",
               "--k2", "0.5", "--mu-reeb", "3/4"])
    assert rc == 2
    assert "error[INVALID_INPUT]" in capsys.readouterr().err


def test_config_flag_precedence(tmp_path):
    cfg_file = _write(tmp_path, "cfg2.json",
                      {"tol_sv": 1e-7, "sample_hint": 128})
    parser = build_parser()
    args = parser.parse_args(["index", "x.json", "--config", cfg_file,
                              "--tol-sv", "1e-9", "--seed", "4"])
    cfg = _resolve_config(args)
    assert cfg.tol_sv == 1e-9       # explicit flag beats the file
    assert cfg.sample_hint == 128   # file beats the default
    assert cfg.seed == 4


def test_argparse_rejects_unknown_choices():
    with pytest.raises(SystemExit):
        main(["verify", "nonsense"])
    with pytest.raises(SystemExit):
        main(["paramindex", "unknown-system"])


def test_parser_is_built_once_per_process(tmp_path, capsys, monkeypatch):
    import argparse

    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    shear = _shear_file(tmp_path)
    params = _write(tmp_path, "params.json", {"K": [[-0.9, 0.0], [0.0, 0.4]],
                                              "F": [[-0.7]]})
    assert main(["index", shear, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["index"] == "3/2"
    first = len(built)
    assert first > 0
    # no setting of one call reaches the next
    assert main(["index", shear]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "index: 3/2"
    assert main(["paramindex", "split", "--params", params]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "index: 1/2"
    assert main(["paramindex", "split"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "index: -3/2"
    with pytest.raises(SystemExit) as exc:
        main(["paramindex", "split", "--tol-sv", "tiny"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["paramindex", "split", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["index"] == "-3/2"
    assert len(built) == first


def test_recorded_json_outputs_repeat_byte_for_byte(tmp_path, capsys):
    # --json text of two requests of each benchmark pool kind, of one
    # quadratic system with an interior crossing, and of two spectralflow
    # families (the anchor, and random_family seed 3 with two interior
    # crossings), so a change to the loop evaluation, the crossing search
    # or the blend cannot move a printed t or s silently
    recorded = json.loads((Path(__file__).parent / "data" / "cli_outputs.json")
                          .read_text(encoding="utf-8"))
    assert len(recorded) == 11
    for rec in recorded:
        source = _write(tmp_path, "input.json", rec["input"])
        argv = [source if a == "{input}" else a for a in rec["argv"]]
        assert main(argv) == 0, rec["label"]
        assert capsys.readouterr().out == rec["output"], rec["label"]
