"""Command-line interface.

Five subcommands cover the pipelines: ``index`` (path file -> crossing
table and half-integer index), ``paramindex`` (built-in Hamiltonian
system -> index of its linearized return path), ``spectralflow``
(operator-family file -> both flow computations), ``verify`` (seeded
property batteries), and ``rabinowitz`` (the radial block model's
grading).  Output is deterministic for a fixed seed and configuration;
indices are printed as exact ``twice/2`` strings so no half-integer ever
passes through floating point.  Exit codes: 0 success, 1 failed
verification, 2 precondition errors, 3 numerical-instability errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import List, Optional, Tuple

import numpy as np
from scipy.interpolate import CubicSpline

from .config import RunConfig, load_json_object
from .errors import InvalidInput, SympindError
from .flows import linearized_flow_path, parametrized_rs_index
from .halfint import HalfInteger
from .paths import KernelFamily, SnmPath, SymplecticPath, constant_path, exp_shear_path
from .rabinowitz import (RabinowitzData, rabinowitz_block_family,
                         rabinowitz_block_index, rabinowitz_block_path,
                         rabinowitz_index)
from .rsindex import IndexResult, rs_index, rs_index_stratified
from .snm import Dimensions
from .specflow import (OperatorFamily, random_operator_family,
                       spectral_flow_galerkin, spectral_flow_matrix,
                       split_tanh_family)
from .suites import SUITE_NAMES, run_suite
from .systems import quadratic_system, radial_system, split_system

JSON_FORMAT = "sympind/1"

PATH_KINDS = ("constant", "exp_shear", "snm_samples", "dense", "rabinowitz")
FAMILY_KINDS = ("dense_family", "random_family", "split_tanh")
SYSTEM_NAMES = ("split", "rabinowitz_flat", "quadratic")

# The numerical RunConfig fields each command reads ("verify main-theorem"
# overrides "verify"); a non-default value of any other reaches nothing
# and is refused.  The suites and both flows run at their own tolerances.
_TUNING_FIELDS = ("tol_sv", "tol_eig", "tol_crit", "sample_hint", "fourier_modes")
_READS = {
    "index": ("tol_sv", "tol_eig", "sample_hint"),
    "paramindex": ("tol_sv", "tol_eig", "tol_crit", "sample_hint"),
    "spectralflow": ("sample_hint", "fourier_modes"),
    "verify": (),
    "verify main-theorem": ("fourier_modes",),
    "rabinowitz": ("tol_sv",),
}


# --- file ingestion ---------------------------------------------------------

def _require(data: dict, kind: str, *keys: str) -> None:
    missing = [k for k in keys if k not in data]
    if missing:
        raise InvalidInput(f"path kind {kind!r} needs keys: {', '.join(missing)}")


def _as_array(value, name: str, ndim: Optional[int] = None) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"{name} is not a numeric array: {exc}") from exc
    if ndim is not None and arr.ndim != ndim:
        raise InvalidInput(f"{name} must have {ndim} dimensions, got {arr.ndim}")
    return arr


def _load_path_file(path_file: str, cfg: RunConfig
                    ) -> Tuple[SymplecticPath, Optional[KernelFamily]]:
    """Build (path, built-in kernel family or None) from a path file."""
    data = load_json_object(path_file)
    kind = data.get("kind")
    if kind == "constant":
        _require(data, kind, "matrix")
        matrix = _as_array(data["matrix"], "matrix", ndim=2)
        return constant_path(matrix, sample_hint=cfg.sample_hint), None
    if kind == "exp_shear":
        _require(data, kind, "S", "E")
        s = _as_array(data["S"], "S", ndim=2)
        e = _as_array(data["E"], "E", ndim=2)
        snm = exp_shear_path(s, e, sample_hint=cfg.sample_hint)
        return snm.to_path(), KernelFamily.dual_slot(snm.dims)
    if kind == "snm_samples":
        _require(data, kind, "n", "m", "theta", "psi", "x", "e")
        dims = Dimensions(int(data["n"]), int(data["m"]))
        snm = SnmPath.from_samples(
            dims, _as_array(data["theta"], "theta", ndim=1),
            _as_array(data["psi"], "psi"), _as_array(data["x"], "x"),
            _as_array(data["e"], "e"), sample_hint=cfg.sample_hint)
        return snm.to_path(), KernelFamily.dual_slot(dims)
    if kind == "dense":
        _require(data, kind, "theta", "samples")
        theta = _as_array(data["theta"], "theta", ndim=1)
        samples = _as_array(data["samples"], "samples", ndim=3)
        if len(theta) != samples.shape[0]:
            raise InvalidInput("theta and samples lengths differ")
        if len(theta) < 4:
            raise InvalidInput("dense paths need at least 4 samples")
        spline = CubicSpline(theta, samples, axis=0)
        path = SymplecticPath((float(theta[0]), float(theta[-1])), spline,
                              spline.derivative(), sample_hint=cfg.sample_hint)
        return path, None
    if kind == "rabinowitz":
        _require(data, kind, "lambda", "k1", "k2")
        rd = RabinowitzData(float(data["lambda"]), float(data["k1"]),
                            float(data["k2"]))
        return (rabinowitz_block_path(rd, sample_hint=cfg.sample_hint).to_path(),
                rabinowitz_block_family())
    raise InvalidInput(
        f"unknown path kind {kind!r}; choose from {', '.join(PATH_KINDS)}")


def _load_family_file(family_file: str, cfg: RunConfig) -> OperatorFamily:
    data = load_json_object(family_file)
    kind = data.get("kind")
    if kind == "dense_family":
        _require(data, kind, "n", "m", "s_grid", "theta_grid", "S", "C", "D")
        dims = Dimensions(int(data["n"]), int(data["m"]))
        theta = _as_array(data["theta_grid"], "theta_grid", ndim=1)
        want = np.arange(len(theta)) / max(len(theta), 1)
        if len(theta) and float(np.max(np.abs(theta - want))) > 1e-12:
            raise InvalidInput("theta_grid must be the uniform grid j/N on [0, 1)")
        s_grid = _as_array(data["s_grid"], "s_grid", ndim=1)
        return OperatorFamily(dims, s_grid,
                              _as_array(data["S"], "S", ndim=4),
                              _as_array(data["C"], "C", ndim=4),
                              _as_array(data["D"], "D", ndim=4))
    if kind == "random_family":
        _require(data, kind, "seed")
        dims = Dimensions(int(data.get("n", 1)), int(data.get("m", 1)))
        return random_operator_family(
            dims, int(data["seed"]), n_theta=cfg.sample_hint,
            degree=int(data.get("degree", 3)),
            alpha=float(data.get("alpha", 0.8)))
    if kind == "split_tanh":
        return split_tanh_family(alpha=float(data.get("alpha", 1.2)),
                                 m=int(data.get("m", 1)),
                                 n=int(data.get("n", 1)),
                                 n_theta=cfg.sample_hint)
    raise InvalidInput(
        f"unknown family kind {kind!r}; choose from {', '.join(FAMILY_KINDS)}")


def _parse_half(text: str) -> HalfInteger:
    """Parse '3', '-2', or 'p/2' into an exact half-integer."""
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/")
            if int(den) != 2:
                raise ValueError("denominator must be 2")
            return HalfInteger(int(num))
        return HalfInteger.from_int(int(text))
    except ValueError as exc:
        raise InvalidInput(f"not a half-integer: {text!r} ({exc})") from exc


# --- subcommands ------------------------------------------------------------

def _fixed9(x: float) -> str:
    """x to 9 decimals, unsigned when it rounds to zero (no "-0.000000000")."""
    return f"{round(x, 9) + 0.0:.9f}"


def _crossing_rows(result: IndexResult) -> List[dict]:
    rows = []
    for c in result.crossings:
        rows.append({
            "t": float(c.t),
            "endpoint": c.at_endpoint,
            "kernel_dim": int(c.kernel_dim),
            "excess_dim": int(c.excess_dim),
            "signature": int(c.signature),
        })
    return rows


def _index_output(result: IndexResult, command: str) -> Tuple[List[str], dict]:
    rows = _crossing_rows(result)
    lines = [f"index: {result.value}"]
    lines.append(f"crossings ({len(rows)}):")
    for r in rows:
        where = r["endpoint"] or "interior"
        lines.append(f"  t={_fixed9(r['t'])}  {where:8s}  kernel={r['kernel_dim']}"
                     f"  excess={r['excess_dim']}  signature={r['signature']:+d}")
    obj = {"command": command, "index": str(result.value), "crossings": rows}
    return lines, obj


def _cmd_index(args: argparse.Namespace, cfg: RunConfig) -> Tuple[List[str], dict, int]:
    path, family = _load_path_file(args.path_file, cfg)
    kwargs = dict(tol_sv=cfg.tol_sv, tol_eig=cfg.tol_eig)
    if family is not None:
        result = rs_index_stratified(path, family, **kwargs)
    else:
        result = rs_index(path, **kwargs)
    lines, obj = _index_output(result, "index")
    return lines, obj, 0


def _build_system(name: str, params: dict):
    if name == "split":
        return split_system(_as_array(params.get("K", np.eye(2)), "K", ndim=2),
                            _as_array(params.get("F", [[1.0]]), "F", ndim=2))
    if name == "quadratic":
        return quadratic_system(
            _as_array(params.get("K", np.eye(2)), "K", ndim=2),
            _as_array(params.get("G", [[0.4, 0.0]]), "G", ndim=2),
            _as_array(params.get("F", [[1.0]]), "F", ndim=2))
    if name == "rabinowitz_flat":
        lam = params.get("lam")
        return radial_system(float(params.get("slope", -1.0)),
                             float(params.get("curvature", 0.5)),
                             turns=int(params.get("turns", 1)),
                             lam=None if lam is None else float(lam))
    raise InvalidInput(
        f"unknown system {name!r}; choose from {', '.join(SYSTEM_NAMES)}")


def _cmd_paramindex(args: argparse.Namespace, cfg: RunConfig) -> Tuple[List[str], dict, int]:
    params = load_json_object(args.params) if args.params else {}
    system, point = _build_system(args.system, params)
    pd = linearized_flow_path(system, point, tol=cfg.tol_crit)
    if args.system == "rabinowitz_flat":
        # The critical set is a circle, so the return map is degenerate in
        # the angle direction; the meaningful index is relative to the
        # isotropic plane spanned by that direction and the dual slot.
        path = pd.to_snm_path(sample_hint=cfg.sample_hint).to_path()
        result = rs_index_stratified(path, rabinowitz_block_family(),
                                     tol_sv=cfg.tol_sv, tol_eig=cfg.tol_eig)
    else:
        result = parametrized_rs_index(pd, tol_sv=cfg.tol_sv, tol_eig=cfg.tol_eig,
                                       sample_hint=cfg.sample_hint)
    lines, obj = _index_output(result, "paramindex")
    lines.insert(0, f"system: {args.system}")
    obj["system"] = args.system
    return lines, obj, 0


def _cmd_spectralflow(args: argparse.Namespace, cfg: RunConfig) -> Tuple[List[str], dict, int]:
    fam = _load_family_file(args.family_file, cfg)
    flow_m = spectral_flow_matrix(fam)
    flow_g = spectral_flow_galerkin(fam, modes=cfg.fourier_modes)
    rows = [{"s": float(c.s), "kernel_dim": int(c.kernel_dim),
             "signature": int(c.signature)} for c in flow_m.crossings]
    lines = [f"spectral flow (matrix):   {flow_m.value:+d}",
             f"spectral flow (galerkin): {flow_g.value:+d}",
             f"crossings ({len(rows)}):"]
    for r in rows:
        lines.append(f"  s={_fixed9(r['s'])}  kernel={r['kernel_dim']}"
                     f"  signature={r['signature']:+d}")
    ok = flow_m.value == flow_g.value
    lines.append("methods agree" if ok else "METHOD MISMATCH")
    obj = {"command": "spectralflow", "matrix": flow_m.value,
           "galerkin": flow_g.value, "agree": ok, "crossings": rows}
    return lines, obj, 0 if ok else 1


def _cmd_verify(args: argparse.Namespace, cfg: RunConfig) -> Tuple[List[str], dict, int]:
    overrides = {}
    if args.count is not None:
        key = {"axioms": "instances", "roundtrip": "count",
               "main-theorem": "count", "appendix-c": "triples"}[args.suite]
        overrides[key] = args.count
    if args.suite == "main-theorem":
        overrides["modes"] = cfg.fourier_modes
    res = run_suite(args.suite, seed=cfg.seed, **overrides)
    obj = res.to_json_obj()
    obj["command"] = "verify"
    return res.lines(), obj, 0 if res.ok else 1


def _cmd_rabinowitz(args: argparse.Namespace, cfg: RunConfig) -> Tuple[List[str], dict, int]:
    data = RabinowitzData(args.lam, args.k1, args.k2,
                          mu_reeb=_parse_half(args.mu_reeb))
    block = rabinowitz_block_index(data, tol_sv=cfg.tol_sv)
    grading = rabinowitz_index(data)
    lines = [f"block index: {block.value}", f"grading: {grading}"]
    obj = {"command": "rabinowitz", "block_index": str(block.value),
           "grading": str(grading)}
    return lines, obj, 0


# --- driver -----------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE",
                        help="JSON file overriding RunConfig defaults")
    parser.add_argument("--seed", type=int, default=None,
                        help="corpus seed (default 0)")
    parser.add_argument("--json", action="store_true",
                        help="emit a versioned JSON body instead of text")
    parser.add_argument("--tol-sv", dest="tol_sv", type=float, default=None,
                        help="relative singular-value threshold for kernels")
    parser.add_argument("--modes", type=int, default=None,
                        help="Fourier modes for the truncated flow")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="sympind",
        description="Half-integer indices of symplectic paths and "
                    "parametrized Hamiltonian data.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser(
        "index", help="index of a path from a JSON path file")
    p_index.add_argument("path_file", help=f"kinds: {', '.join(PATH_KINDS)}")
    p_index.set_defaults(handler=_cmd_index)

    p_param = sub.add_parser(
        "paramindex", help="index of a built-in system's linearized flow")
    p_param.add_argument("system", choices=SYSTEM_NAMES)
    p_param.add_argument("--params", metavar="FILE",
                         help="JSON object with system parameters "
                              "(split/quadratic: K, G, F matrices; "
                              "rabinowitz_flat: slope, curvature, turns, lam)")
    p_param.set_defaults(handler=_cmd_paramindex)

    p_flow = sub.add_parser(
        "spectralflow", help="both flow computations for a family file")
    p_flow.add_argument("family_file", help=f"kinds: {', '.join(FAMILY_KINDS)}")
    p_flow.set_defaults(handler=_cmd_spectralflow)

    p_verify = sub.add_parser(
        "verify", help="run a seeded property battery")
    p_verify.add_argument("suite", choices=SUITE_NAMES)
    p_verify.add_argument("--count", type=int, default=None,
                          help="instances per check (suite-specific default)")
    p_verify.set_defaults(handler=_cmd_verify)

    p_rab = sub.add_parser(
        "rabinowitz", help="radial block model: block index and grading")
    p_rab.add_argument("--lambda", dest="lam", type=float, required=True,
                       help="Lagrange-multiplier value")
    p_rab.add_argument("--k1", type=float, required=True,
                       help="level slope k'(1), nonzero")
    p_rab.add_argument("--k2", type=float, required=True,
                       help="level curvature k''(1)")
    p_rab.add_argument("--mu-reeb", dest="mu_reeb", default="0",
                       help="orbit index as 'p/2' or an integer (default 0)")
    p_rab.set_defaults(handler=_cmd_rabinowitz)

    for p in (p_index, p_param, p_flow, p_verify, p_rab):
        _add_common(p)
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    changes = {}
    if args.seed is not None:
        changes["seed"] = args.seed
    if args.json:
        changes["output_format"] = "json"
    if args.tol_sv is not None:
        changes["tol_sv"] = args.tol_sv
    if args.modes is not None:
        changes["fourier_modes"] = args.modes
    return cfg.replace(**changes) if changes else cfg


def _refuse_unread(args: argparse.Namespace, cfg: RunConfig) -> None:
    """Raise InvalidInput for a non-default field the command never reads."""
    command = args.command
    reads = _READS.get(f"{command} {getattr(args, 'suite', '')}", _READS[command])
    default = RunConfig()
    unread = [name for name in _TUNING_FIELDS
              if name not in reads and getattr(cfg, name) != getattr(default, name)]
    if unread:
        raise InvalidInput(
            f"{command} does not read {', '.join(unread)}: leave them at their "
            "defaults (--tol-sv, --modes and the config file set them)")


def _emit(lines: List[str], obj: dict, cfg: RunConfig) -> None:
    if cfg.output_format == "json":
        body = {"format": JSON_FORMAT, "seed": cfg.seed}
        body.update(obj)
        print(json.dumps(body, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)


def _emit_error(exc: SympindError, json_mode: bool) -> None:
    if json_mode:
        body = {"format": JSON_FORMAT,
                "error": {"code": exc.code, "message": str(exc)}}
        print(json.dumps(body, sort_keys=True, indent=2))
    else:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    json_mode = bool(getattr(args, "json", False))
    try:
        cfg = _resolve_config(args)
        _refuse_unread(args, cfg)
        lines, obj, code = args.handler(args, cfg)
    except SympindError as exc:
        _emit_error(exc, json_mode)
        return exc.exit_code
    _emit(lines, obj, cfg)
    return code


if __name__ == "__main__":
    sys.exit(main())
