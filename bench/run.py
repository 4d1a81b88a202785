"""Run one sympind benchmark workload and print its metrics.

    python3 bench/run.py --workload main-theorem --seed 0 --seconds 20 --trace 0

Run it from the repository root; the package is imported from ``src/``
of this checkout, never from an installed copy.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record (every instance time, the set-up
samples, BLAS and thread counts, any check problems) goes to
``bench/results/BENCH_<workload>_seed<seed>_trace<t>.json``.

This process imports nothing heavy.  It starts the measuring worker as a
child, so ``peak_rss_mb`` belongs to that workload alone, and before it
SETUP_PROBES children that only set up, so ``setup_s`` (process start to
the first timed instance) is a median.  With ``--trace 1`` the worker runs
exactly one round of the pool with every layer call wrapped in a span, so
per-layer counts repeat exactly for a seed; the spans are written to
``bench/results/spans_<workload>_seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "bench" / "results"
WORKLOADS = ("main-theorem", "axioms", "roundtrip", "cli")
SETUP_PROBES = 2
CHILD_TIMEOUT_S = 170.0


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("main", "worker", "probe"),
                        default="main", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# --- worker -----------------------------------------------------------------

def _blas_info() -> dict:
    """BLAS library, its configured thread count, and the usable cores."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": len(os.sched_getaffinity(0)),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "blas_threads": {}}
    site = Path(np.__file__).resolve().parent.parent
    libs = sorted(site.glob("*.libs/*openblas*.so*"))
    for lib_path in libs:
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"][lib_path.name] = int(fn())
                break
    return info


def _worker(args) -> int:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import sympind

    if Path(sympind.__file__).resolve().parent != src / "sympind":
        print(f"sympind imported from {sympind.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, RESULTS)
    print("READY", flush=True)
    if args.role == "probe":
        workload.close()
        return 0

    tracer = None
    try:
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
            try:
                record = workloads.measure(workload, args.seconds, tracer, rounds=1)
            finally:
                tracer.uninstall()
            spans = [s for s in tracer.spans if s is not None]
            record["layers"] = tracing.layer_metrics(spans)
            RESULTS.mkdir(parents=True, exist_ok=True)
            out = RESULTS / f"spans_{args.workload}_seed{args.seed}.json"
            out.write_text(json.dumps(tracer.dump()), encoding="utf-8")
        else:
            record = workloads.measure(workload, args.seconds)
    finally:
        workload.close()

    import resource

    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["env"] = _blas_info()
    print(json.dumps(record), flush=True)
    return 0


# --- main process -----------------------------------------------------------

def _child_env() -> dict:
    """Environment with BLAS capped at the usable cores (OpenBLAS would
    otherwise size its pool from every core the machine has)."""
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    current = env.get("OPENBLAS_NUM_THREADS", "")
    if not current.isdigit() or not 0 < int(current) <= nproc:
        env["OPENBLAS_NUM_THREADS"] = str(nproc)
    return env


def _spawn(args, role: str):
    """Start a child; return (seconds until it was set up, its last line)."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--role", role]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=_child_env(), cwd=str(ROOT))
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or first.strip() != "READY":
        raise RuntimeError(f"{role} exited with code {code}")
    lines = rest.strip().splitlines()
    return ready, (lines[-1] if lines else "")


def _metrics(record: dict, setup_samples) -> dict:
    times, cpus = record["instance_s"], record["cpu_s"]
    return {
        "instances_per_s": (len(times) / sum(times), "1/s"),
        "instance_s_p50": (statistics.median(times), "s"),
        "instance_s_p90": (statistics.quantiles(times, n=10, method="inclusive")[8]
                           if len(times) > 1 else times[0], "s"),
        "cpu_s_per_instance": (sum(cpus) / len(cpus), "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (record["peak_rss_mb"], "MB"),
    }


def _trace_metrics(record: dict) -> dict:
    import tracing

    out = {name: (record["layers"][name], unit) for name, unit in tracing.METRICS}
    out["traced.instances"] = (len(record["instance_s"]), "count")
    out["traced.instance_s_p50"] = (statistics.median(record["instance_s"]), "s")
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    if args.role != "main":
        return _worker(args)

    setup_samples = []
    try:
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setup_samples.append(_spawn(args, "probe")[0])
        ready, line = _spawn(args, "worker")
        record = json.loads(line)
    except (RuntimeError, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    setup_samples.append(ready)

    if not record["instance_s"]:
        print("benchmark run attempted no instance", file=sys.stderr)
        return 1
    metrics = _trace_metrics(record) if args.trace else _metrics(record, setup_samples)
    for problem in record["problems"][:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not record["problems"],
        "attempted": len(record["instance_s"]),
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    full = dict(result, workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace,
                setup_samples_s=setup_samples, **record)
    out = RESULTS / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(full, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
