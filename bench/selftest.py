"""The benchmark's own tests.

    python3 bench/selftest.py

Each checker must reject a planted wrong answer (a flipped sign, an index
off by one half), each workload must complete a tiny run with every
check passing, traced counts must repeat exactly, and ``run.py`` must
print the metrics BENCHMARK.json names, or fail without a result line
when the package is missing.  Kept out of the package's pytest run
(the file name does not match ``test_*.py``); it takes about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import sympind as sp  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

RESULTS = HERE / "results"


def _tiny(name: str, count: int, seed: int = 3):
    workload = workloads.WORKLOADS[name](seed, RESULTS)
    workload.items = workload.items[:count]
    return workload


class PlantedWrongAnswers(unittest.TestCase):
    """Every checker accepts the right answer and rejects a wrong one."""

    def test_main_theorem(self):
        form = np.array([[0.7]])
        good = {"flow_matrix": 1, "flow_galerkin": 1, "index_left_twice": -1,
                "index_right_twice": 1, "forms": [(form, form + 1e-9, form)]}
        self.assertEqual(checks.check_main_theorem(good), [])
        self.assertEqual(checks.check_main_theorem(good, anchor_flow=1), [])
        planted = (dict(good, flow_matrix=-1),
                   dict(good, flow_galerkin=-1),
                   dict(good, index_right_twice=2),
                   dict(good, index_left_twice=1),
                   dict(good, forms=[(form, -form, form)]))
        for out in planted:
            self.assertNotEqual(checks.check_main_theorem(out), [], out)
        self.assertNotEqual(checks.check_main_theorem(good, anchor_flow=-1), [])

    def test_axioms(self):
        self.assertEqual(checks.check_axiom("loop", True, "3/3 instances, e.g. x", 3), [])
        self.assertNotEqual(checks.check_axiom("loop", False, "3/3 instances", 3), [])
        self.assertNotEqual(checks.check_axiom("loop", True, "2/3 passed; first", 3), [])
        self.assertEqual(checks.check_sum_law("cat", 3, (1, 2)), [])
        self.assertNotEqual(checks.check_sum_law("cat", 4, (1, 2)), [])
        self.assertNotEqual(checks.check_sum_law("cat", -3, (-1, 2)), [])

    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        coeffs = sp.specflow.random_coefficients(sp.Dimensions(1, 1), rng)
        pd = sp.path_from_coefficients(coeffs)
        recovered = sp.coefficients_from_path(pd)
        residuals = sp.loop_identity_residuals(pd)
        given = (coeffs.s, coeffs.c, coeffs.d)
        self.assertEqual(checks.check_roundtrip(given, recovered, residuals), [])
        flipped = (-recovered[0],) + tuple(recovered[1:])
        self.assertNotEqual(checks.check_roundtrip(given, flipped, residuals), [])
        self.assertNotEqual(
            checks.check_roundtrip(given, recovered, (1e-6,) + tuple(residuals[1:])), [])
        reference = checks.reference_psi_endpoint(coeffs.s)
        self.assertEqual(checks.check_psi_endpoint(pd.psi[-1], reference), [])
        self.assertNotEqual(checks.check_psi_endpoint(-pd.psi[-1], reference), [])
        self.assertNotEqual(
            checks.check_psi_endpoint(pd.psi[-1] * (1 + 1e-6), reference), [])

    def test_cli(self):
        body = json.dumps({"index": "3/2"})
        self.assertEqual(checks.check_cli(3, 0, body), [])
        self.assertNotEqual(checks.check_cli(2, 0, body), [])
        self.assertNotEqual(checks.check_cli(-3, 0, body), [])
        self.assertNotEqual(checks.check_cli(3, 3, body), [])
        self.assertEqual(checks.check_repeat(body, body), [])
        self.assertNotEqual(checks.check_repeat(body, body + " "), [])
        self.assertEqual(checks.signature(np.diag([2.0, -1.0, 0.5])), 1)


class TinyRuns(unittest.TestCase):
    """A round of a few instances of each workload completes and checks clean."""

    def _measure(self, workload, tracer=None):
        try:
            return workloads.measure(workload, 0.0, tracer, rounds=1)
        finally:
            workload.close()

    def test_main_theorem(self):
        workload = _tiny("main-theorem", 5)
        workload.items = workload.items[-1:]  # the anchor alone
        record = self._measure(workload)
        self.assertEqual((record["failed"], record["problems"]), (0, []))

    def test_axioms(self):
        record = self._measure(_tiny("axioms", 10))
        self.assertEqual(len(record["instance_s"]), 10)
        self.assertEqual((record["failed"], record["problems"]), (0, []))

    def test_roundtrip(self):
        record = self._measure(_tiny("roundtrip", 4))
        self.assertEqual((record["failed"], record["problems"]), (0, []))

    def test_cli(self):
        record = self._measure(_tiny("cli", 8))
        self.assertEqual((record["failed"], record["problems"]), (0, []))

    def test_planted_answers_reach_the_record(self):
        workload = _tiny("cli", 4)
        honest = workload.run

        def off_by_half(item):
            code, text = honest(item)
            body = json.loads(text)
            body["index"] = f"{checks.twice_of(body['index']) + 1}/2"
            return code, json.dumps(body)

        workload.run = off_by_half
        problems = self._measure(workload)["problems"]
        self.assertEqual(sum("closed form" in p for p in problems), 4, problems)

        workload = _tiny("roundtrip", 2)
        honest_rt = workload.run

        def flipped(coeffs):
            (s, c, d), residuals = honest_rt(coeffs)
            return (-s, c, d), residuals

        workload.run = flipped
        problems = self._measure(workload)["problems"]
        self.assertTrue(any("coefficient error" in p for p in problems), problems)

    def test_trace_counts_repeat(self):
        originals = (sp.cli.main, sp.specflow.rs_index_stratified,
                     sp.paths.SymplecticPath.__call__)
        counts = []
        for _ in range(2):
            tracer = tracing.Tracer()
            tracer.install()
            try:
                self._measure(_tiny("cli", 8), tracer)
            finally:
                tracer.uninstall()
            metrics = tracing.layer_metrics([s for s in tracer.spans if s is not None])
            counts.append({k: v for k, v in metrics.items()
                           if k.endswith((".calls", ".matrices", ".grid_evals", ".crossings"))})
        self.assertEqual(counts[0], counts[1])
        self.assertEqual(counts[0]["cli.main.calls"], 8)
        self.assertGreater(counts[0]["rsindex.scan.matrices"], 0)
        self.assertEqual(originals, (sp.cli.main, sp.specflow.rs_index_stratified,
                                     sp.paths.SymplecticPath.__call__))


class Harness(unittest.TestCase):
    """run.py prints exactly the metrics BENCHMARK.json names."""

    def _run(self, cwd: Path, trace: int):
        return subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1",
             "--seconds", "0.5", "--trace", str(trace)],
            cwd=cwd, capture_output=True, text=True, timeout=170)

    def test_result_line(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = self._run(ROOT, trace)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            for metric in spec[key]:
                self.assertEqual(result["metrics"][metric["name"]]["unit"],
                                 metric["unit"], metric["name"])

    def test_fails_without_the_package(self):
        RESULTS.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
            bare = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            (bare / "bench").mkdir()
            for path in HERE.glob("*.py"):
                shutil.copy(path, bare / "bench")
            proc = self._run(bare, 0)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
