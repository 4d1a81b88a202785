"""The four workloads: seeded inputs, the timed instance, its checks.

A workload builds its whole input pool from the seed when it is created
(this is the set-up the benchmark times as ``setup_s``); the pool is
listed in the README.  ``measure`` then runs whole rounds over the pool,
timing each instance (``run``) on its own and checking its output
(``check``) outside the timed region.  ``sample_checks`` recomputes a
few answers independently through the public API, once per run.

The package is reached through module attributes at call time
(``sp.main_theorem_check(...)``), so the tracer's patches see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
import time
import traceback
from pathlib import Path
from typing import List, Optional

import numpy as np

import sympind as sp
import sympind.cli
import sympind.errors
import sympind.specflow
import sympind.suites

import checks

SHAPES = ((1, 1), (2, 1), (1, 2), (2, 2))

# The package's own refusals of a draw it cannot resolve (near-tangential
# or non-isolated crossings, a junction off the path); the seeded batteries
# redraw such draws, and so does the benchmark's own catenation sample.
REDRAW_ERRORS = (sympind.errors.UnresolvedCrossing,
                 sympind.errors.IrregularCrossing,
                 sympind.errors.NonIsolated,
                 sympind.errors.JunctionMismatch)


class Workload:
    """Default hooks: no sample checks of its own, nothing to release."""

    def sample_checks(self) -> List[str]:
        return []

    def close(self) -> None:
        pass


class MainTheorem(Workload):
    """Dual-method spectral flow against the endpoint index difference.

    One instance draws a family and runs ``main_theorem_check``.  The
    pool is the first four families of criterion 5's corpus (one per
    (n, m) shape) plus the ``split_tanh_family`` anchor, whose flow is +m.
    It is the same for every seed: a family costs 3 to 8 s depending on
    its crossing count, so five seeded families per run would make the
    run-to-run spread a property of the draw, not of the code.
    """

    name = "main-theorem"
    ANCHOR_ALPHA = 1.2

    def __init__(self, seed: int, workdir: Path):
        self.items = [("family", sp.Dimensions(n, m), 1000 + i)
                      for i, (n, m) in enumerate(SHAPES)]
        self.items.append(("anchor", sp.Dimensions(1, 1), self.ANCHOR_ALPHA))

    def run(self, item):
        kind, dims, value = item
        if kind == "anchor":
            fam = sp.split_tanh_family(alpha=value, m=dims.m, n=dims.n)
        else:
            fam = sp.random_operator_family(dims, seed=value)
        left = sp.path_from_coefficients(fam.left_asymptote())
        right = sp.path_from_coefficients(fam.right_asymptote())
        return sp.main_theorem_check(left, right, fam)

    def check(self, item, report) -> List[str]:
        kind, dims, _ = item
        out = {
            "flow_matrix": report.flow_matrix.value,
            "flow_galerkin": report.flow_galerkin.value,
            "index_left_twice": report.index_left.twice,
            "index_right_twice": report.index_right.twice,
            "forms": [(c.form_path, c.form_blocks, c.form_reduced)
                      for c in report.flow_matrix.crossings],
        }
        return checks.check_main_theorem(out, dims.m if kind == "anchor" else None)


class Axioms(Workload):
    """The ten index laws, the determinant example and the parity classes.

    One instance is ``run_axiom(law, seed, instances=3)``, one draw per
    (n, m) shape, or one of the two determinant checks.  The pool covers
    POOL_SEEDS axiom seeds.
    """

    name = "axioms"
    POOL_SEEDS = 3
    INSTANCES = 3

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.items = [("law", law, self.POOL_SEEDS * seed + p)
                      for p in range(self.POOL_SEEDS) for law in sp.axiom_names()]
        self.items.append(("determinant-example", None, seed))
        self.items.append(("determinant-parity", None, None))

    def run(self, item):
        kind, law, seed = item
        if kind == "law":
            return sp.run_axiom(law, seed, instances=self.INSTANCES)
        if kind == "determinant-example":
            return sympind.suites.determinant_example_check(seed)
        return sympind.suites.determinant_parity_check()

    def check(self, item, result) -> List[str]:
        kind, law, _ = item
        if kind == "law":
            return checks.check_axiom(law, result.passed, result.detail,
                                      self.INSTANCES)
        return [] if result.passed else [f"{result.name}: {result.detail}"]

    def sample_checks(self) -> List[str]:
        """Catenation recomputed here: ind(p # q) = ind(p) + ind(q)."""
        rng = np.random.default_rng(10_000 + self.seed)
        problems = []
        for n, m in SHAPES[:3]:
            whole, parts = catenation_indices(rng, sp.Dimensions(n, m))
            problems += checks.check_sum_law(f"catenation n={n} m={m}", whole, parts)
        return problems


def catenation_indices(rng: np.random.Generator, dims, tries: int = 16):
    """(2 ind(p # q), (2 ind(p), 2 ind(q))) for random subgroup paths.

    q is a second draw right-multiplied by p(1), so it starts where p
    ends and keeps the dual slot in its kernel; draws whose junction is a
    crossing, or that the index refuses, are drawn again.
    """
    family = sp.KernelFamily.dual_slot(dims)
    for _ in range(tries):
        first_piece = sp.random_snm_path(rng, dims)
        q = sp.random_snm_path(rng, dims).to_path()
        if first_piece.element(1.0).stratum() != 0:
            continue
        p = first_piece.to_path()
        junction = p(1.0)
        shifted = sp.SymplecticPath(q.domain, lambda t: q(t) @ junction,
                                    lambda t: q.deriv(t) @ junction,
                                    jmat=q.jmat, sample_hint=q.sample_hint)
        try:
            first = sp.rs_index_stratified(p, family, validate=True)
            second = sp.rs_index_stratified(shifted, family, validate=True)
            whole = sp.rs_index_stratified(sp.catenate(p, shifted), family,
                                           validate=True)
        except REDRAW_ERRORS:
            continue
        return whole.value.twice, (first.value.twice, second.value.twice)
    raise RuntimeError(f"no usable catenation draw in {tries} tries")


class Roundtrip(Workload):
    """Coefficients -> path -> coefficients, and the loop identities.

    One instance runs ``path_from_coefficients``, ``coefficients_from_path``
    and ``loop_identity_residuals`` on one seeded ``random_coefficients``
    draw; the pool holds POOL_PER_SHAPE draws per (n, m) shape.
    """

    name = "roundtrip"
    POOL_PER_SHAPE = 10

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.items = [sympind.specflow.random_coefficients(sp.Dimensions(n, m), rng)
                      for _ in range(self.POOL_PER_SHAPE) for n, m in SHAPES]

    def run(self, coeffs):
        pd = sp.path_from_coefficients(coeffs)
        return (sp.coefficients_from_path(pd), sp.loop_identity_residuals(pd))

    def check(self, coeffs, out) -> List[str]:
        recovered, residuals = out
        return checks.check_roundtrip((coeffs.s, coeffs.c, coeffs.d), recovered,
                                      residuals)

    def sample_checks(self) -> List[str]:
        """Psi(1) against an independent adaptive integration, per shape."""
        problems = []
        for coeffs in self.items[:len(SHAPES)]:
            psi1 = sp.path_from_coefficients(coeffs).psi[-1]
            problems += checks.check_psi_endpoint(
                psi1, checks.reference_psi_endpoint(coeffs.s))
        return problems


def _random_symmetric(rng: np.random.Generator, size: int) -> np.ndarray:
    """Symmetric matrix with eigenvalue moduli in [0.3, 2.5], random signs."""
    q, _ = np.linalg.qr(rng.standard_normal((size, size)))
    w = rng.uniform(0.3, 2.5, size) * rng.choice([-1.0, 1.0], size)
    mat = (q * w) @ q.T
    return 0.5 * (mat + mat.T)


class Cli(Workload):
    """Short in-process ``sympind`` commands with ``--json`` output.

    The pool interleaves POOL_PER_KIND requests of each kind: ``index`` of
    an ``exp_shear`` path (index (sig S + sig E)/2), ``index`` of a
    ``rabinowitz`` block path (0/2), ``paramindex split`` with random K, F
    (sig(-K)/2 + sig(-F)/2) and ``paramindex rabinowitz_flat`` (0/2, the
    vanishing block index).  Input files are written at set-up into a
    temporary directory under the results directory.
    """

    name = "cli"
    POOL_PER_KIND = 12

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=workdir, prefix="cli-inputs-")
        base = Path(self._tmp.name)
        self.items = []
        for k in range(self.POOL_PER_KIND):
            n, m = SHAPES[k % len(SHAPES)]
            s, e = _random_symmetric(rng, 2 * n), _random_symmetric(rng, m)
            path = self._write(base / f"shear{k}.json",
                               {"kind": "exp_shear", "S": s.tolist(), "E": e.tolist()})
            self.items.append((f"index-exp_shear-{k}", ["index", path, "--json"],
                               checks.signature(s) + checks.signature(e)))

            lam = 0.0 if k % 5 == 2 else float(rng.uniform(0.2, 2.0) * rng.choice([-1, 1]))
            k1 = float(rng.uniform(0.4, 1.6) * rng.choice([-1, 1]))
            k2 = float(rng.uniform(-1.5, 1.5))
            path = self._write(base / f"rabinowitz{k}.json",
                               {"kind": "rabinowitz", "lambda": lam, "k1": k1, "k2": k2})
            self.items.append((f"index-rabinowitz-{k}", ["index", path, "--json"], 0))

            kb, fb = _random_symmetric(rng, 2 * n), _random_symmetric(rng, m)
            path = self._write(base / f"split{k}.json", {"K": kb.tolist(), "F": fb.tolist()})
            self.items.append((f"paramindex-split-{k}",
                               ["paramindex", "split", "--params", path, "--json"],
                               checks.signature(-kb) + checks.signature(-fb)))

            params = {"slope": float(rng.uniform(0.5, 2.0) * rng.choice([-1, 1])),
                      "curvature": float(rng.uniform(-1.0, 1.0)),
                      "turns": int(rng.integers(1, 3))}
            path = self._write(base / f"flat{k}.json", params)
            self.items.append((f"paramindex-rabinowitz_flat-{k}",
                               ["paramindex", "rabinowitz_flat", "--params", path, "--json"],
                               0))
        self.first_output = {}

    @staticmethod
    def _write(path: Path, obj: dict) -> str:
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    @staticmethod
    def _call(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = sympind.cli.main(list(argv))
        return code, buf.getvalue()

    def run(self, item):
        return self._call(item[1])

    def check(self, item, out) -> List[str]:
        label, _, expected = item
        code, text = out
        problems = checks.check_cli(expected, code, text)
        first = self.first_output.setdefault(label, text)
        return problems + checks.check_repeat(first, text)

    def sample_checks(self) -> List[str]:
        """One more call per request kind must repeat the first byte for byte."""
        problems = []
        for item in self.items[:4]:
            _, text = self._call(item[1])
            problems += [f"{item[0]}: {p}" for p in
                         checks.check_repeat(self.first_output.get(item[0], ""), text)]
        return problems

    def close(self) -> None:
        self._tmp.cleanup()


WORKLOADS = {cls.name: cls for cls in (MainTheorem, Axioms, Roundtrip, Cli)}


def measure(workload, seconds: float, tracer=None, rounds: Optional[int] = None) -> dict:
    """Run whole rounds over the pool, ``rounds`` times or for ``seconds``.

    Timed runs make at least one round and start another only while it
    should still end within ``seconds``, judged by the mean round so far.
    Each instance is timed alone, wall and process CPU (all threads, so
    BLAS helper threads count); checks run between instances, untimed.
    An instance that raises counts as failed and is not checked.
    """
    times: List[float] = []
    cpus: List[float] = []
    problems: List[str] = []
    failed = 0
    start = time.perf_counter()
    done = 0
    def another_round() -> bool:
        if rounds is not None:
            return done < rounds
        elapsed = time.perf_counter() - start
        return done == 0 or elapsed * (done + 1) / done <= seconds

    while another_round():
        for item in workload.items:
            if tracer is not None:
                tracer.instance = len(times)
                tracer.active = True
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                out = workload.run(item)
            except Exception:  # one instance's failure must not end the run
                out = None
                traceback.print_exc()
            t1 = time.perf_counter()
            c1 = time.process_time()
            if tracer is not None:
                tracer.active = False
            times.append(t1 - t0)
            cpus.append(c1 - c0)
            if out is None:
                failed += 1
                continue
            problems += workload.check(item, out)
        done += 1
    problems += workload.sample_checks()
    return {"instance_s": times, "cpu_s": cpus, "failed": failed,
            "problems": problems, "rounds": done}
