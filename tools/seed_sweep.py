"""Seed sweep: every verdict and index value of two batteries over many seeds.

    python3 tools/seed_sweep.py                  # both batteries, compare
    python3 tools/seed_sweep.py --battery axioms --seeds 0-19
    python3 tools/seed_sweep.py --out sweep.json --write-baseline

Batteries:

* ``axioms``: ``run_axiom(name, seed, instances=3)`` for every index law
  and every seed (default 0-399).  Each entry keeps the verdict and the
  check's detail, which quotes the index values of the first instance
  (or of the first failing one).
* ``main-theorem``: ``suite_main_theorem(seed)`` (default seeds 1-12).  Each
  family keeps its verdict, both flows, the two asymptote indices and the
  number of crossings.  The node counts of the families' Chebyshev series
  (``fallback`` where the scan ran on the exact path) are tallied on
  stderr, outside the JSON and its comparison.

Each battery's wall seconds and process-CPU seconds go to stderr too, so a
sweep shows helper threads that spin (CPU well above wall on a run that
is single-threaded by design).  Standard output, the JSON and the
baseline comparison do not include them.

The result is deterministic JSON.  The script exits 1 when any entry it
computed differs from ``tools/seed_sweep_baseline.json`` (entries the
baseline lacks count as differences), and 0 otherwise.  It is kept out of
the package's pytest run: at the default ranges (4,240 entries) it takes
about four minutes on a 2-core machine.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from functools import partial
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from sympind import suites  # noqa: E402

BASELINE = Path(__file__).resolve().parent / "seed_sweep_baseline.json"
DEFAULT_SEEDS = {"axioms": "0-399", "main-theorem": "1-12"}
AXIOM_INSTANCES = 3


def _seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def sweep_axioms(seeds: range) -> dict:
    out = {}
    for seed in seeds:
        for name in suites.axiom_names():
            check = suites.run_axiom(name, seed, instances=AXIOM_INSTANCES)
            out[f"{name}:{seed}"] = {"passed": check.passed, "detail": check.detail}
    return out


def sweep_main_theorem(seeds: range, tally: Optional[Counter] = None) -> dict:
    """The battery's entries; tally, if given, counts each w-scan's series nodes."""
    out = {}
    for seed in seeds:
        res = suites.suite_main_theorem(seed)
        for i, (check, report) in enumerate(zip(res.checks, res.payload)):
            details = report.flow_matrix.details
            if tally is not None and details["scan"] == "w":
                tally[details["series_nodes"] or "fallback"] += 1
            out[f"{seed}:{i}"] = {
                "passed": check.passed,
                "matrix": report.flow_matrix.value,
                "galerkin": report.flow_galerkin.value,
                "index_left": str(report.index_left),
                "index_right": str(report.index_right),
                "crossings": len(report.flow_matrix.crossings),
            }
    return out


BATTERIES = {"axioms": sweep_axioms, "main-theorem": sweep_main_theorem}


def dump(result: dict) -> str:
    """Sorted JSON with one entry per line."""
    blocks = []
    for battery in sorted(result):
        entries = ",\n".join(f"  {json.dumps(key)}: {json.dumps(entry, sort_keys=True)}"
                              for key, entry in sorted(result[battery].items()))
        blocks.append(f" {json.dumps(battery)}: {{\n{entries}\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def compare(result: dict, baseline: dict) -> list:
    diffs = []
    for battery, entries in result.items():
        known = baseline.get(battery, {})
        for key, entry in entries.items():
            if known.get(key) != entry:
                diffs.append(f"{battery} {key}: baseline {known.get(key)} != {entry}")
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--battery", choices=sorted(BATTERIES) + ["all"],
                        default="all")
    parser.add_argument("--seeds", help="seed range 'lo-hi' (default per battery)")
    parser.add_argument("--out", help="write the sweep's JSON here")
    parser.add_argument("--write-baseline", action="store_true",
                        help="replace the baseline's entries with this sweep's")
    args = parser.parse_args(argv)

    names = sorted(BATTERIES) if args.battery == "all" else [args.battery]
    tally = Counter()
    batteries = dict(BATTERIES, **{"main-theorem": partial(sweep_main_theorem, tally=tally)})
    result = {}
    for name in names:
        wall, cpu = time.perf_counter(), time.process_time()
        result[name] = batteries[name](_seed_range(args.seeds or DEFAULT_SEEDS[name]))
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        print(f"{name}: {wall:.1f} s wall, {cpu:.1f} s CPU", file=sys.stderr)
    if tally:
        fallbacks = tally.pop("fallback", 0)
        nodes = ", ".join(f"{key} x {tally[key]}" for key in sorted(tally)) or "none"
        print(f"series nodes: {nodes}; fallback x {fallbacks}", file=sys.stderr)
    failed = sum(not e["passed"] for entries in result.values() for e in entries.values())
    if args.out:
        Path(args.out).write_text(dump(result), encoding="utf-8")
    baseline = json.loads(BASELINE.read_text(encoding="utf-8")) if BASELINE.exists() else {}
    if args.write_baseline:
        for name, entries in result.items():
            baseline.setdefault(name, {}).update(entries)
        BASELINE.write_text(dump(baseline), encoding="utf-8")
    diffs = compare(result, baseline)
    for line in diffs:
        print(line)
    total = sum(len(entries) for entries in result.values())
    print(f"{total} entries, {failed} failed verdicts, {len(diffs)} differ from the baseline")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
