"""Spans around the calls into sympind's layers, recorded from outside.

A Tracer replaces each traced function with a wrapper in every sympind
namespace that holds it (``specflow`` imports ``rs_index_stratified`` by
name, so patching ``rsindex`` alone would miss those calls) and each
traced method on its class.  A span is (name, start, end, parent span,
instance id, work), where work is the number of matrices a call asked
for, the crossings it returned, or the scan-grid size of an index call.
Spans stay in memory; ``layer_metrics`` reduces them once the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

Span = Tuple[str, float, float, int, int, int]


def _batch_work(name: str):
    """Work extractor: the batch size of a method's second argument."""
    def work(args, kwargs, result) -> int:
        t = args[1] if len(args) > 1 else kwargs[name]
        return 1 if np.ndim(t) == 0 else int(np.size(t))
    return work


def _crossings_work(args, kwargs, result) -> int:
    return len(result)


def _grid_work(signature: inspect.Signature):
    def work(args, kwargs, result) -> int:
        bound = signature.bind(*args, **kwargs).arguments
        samples = bound.get("samples")
        count = bound["path"].sample_hint if samples is None else int(samples)
        return count + 1
    return work


# (layer name, module, class or None, attribute, work extractor or None)
LAYERS = (
    ("specflow.return_data_at", "sympind.specflow", "OperatorFamily",
     "return_data_at", _batch_work("s_batch")),
    ("coefficients.path_from_coefficients", "sympind.coefficients", None,
     "path_from_coefficients", None),
    ("coefficients.coefficients_from_path", "sympind.coefficients", None,
     "coefficients_from_path", None),
    ("flows.linearized_flow_path", "sympind.flows", None,
     "linearized_flow_path", None),
    ("paths.eval", "sympind.paths", "SymplecticPath", "__call__",
     _batch_work("t")),
    ("paths.deriv", "sympind.paths", "SymplecticPath", "deriv", None),
    ("rsindex.rs_index_stratified", "sympind.rsindex", None,
     "rs_index_stratified", "grid"),
    ("rsindex.find_crossings", "sympind.rsindex", None, "find_crossings",
     _crossings_work),
    ("rsindex.crossing_form_matrix", "sympind.rsindex", None,
     "crossing_form_matrix", None),
    ("specflow.spectral_flow_matrix", "sympind.specflow", None,
     "spectral_flow_matrix", None),
    ("specflow.spectral_flow_galerkin", "sympind.specflow", None,
     "spectral_flow_galerkin", None),
    ("specflow.galerkin_matrix", "sympind.specflow", None, "galerkin_matrix",
     None),
    ("specflow.random_operator_family", "sympind.specflow", None,
     "random_operator_family", None),
    ("specflow.asymptotic_kernel", "sympind.specflow", None,
     "asymptotic_kernel", None),
    ("suites.random_snm_path", "sympind.suites", None, "random_snm_path",
     None),
    ("cli.main", "sympind.cli", None, "main", None),
)

# The per-layer metrics, in the order BENCHMARK.json lists them.
METRICS = (
    ("specflow.return_data_at.calls", "count"),
    ("specflow.return_data_at.matrices", "count"),
    ("specflow.return_data_at.s", "s"),
    ("coefficients.path_from_coefficients.calls", "count"),
    ("coefficients.path_from_coefficients.s", "s"),
    ("coefficients.coefficients_from_path.s", "s"),
    ("flows.linearized_flow_path.calls", "count"),
    ("flows.linearized_flow_path.s", "s"),
    ("paths.eval.calls", "count"),
    ("paths.eval.matrices", "count"),
    ("paths.eval.s", "s"),
    ("paths.deriv.calls", "count"),
    ("rsindex.rs_index_stratified.calls", "count"),
    ("rsindex.rs_index_stratified.s", "s"),
    ("rsindex.rs_index_stratified.self_s", "s"),
    ("rsindex.rs_index_stratified.grid_evals", "count"),
    ("rsindex.find_crossings.calls", "count"),
    ("rsindex.find_crossings.s", "s"),
    ("rsindex.find_crossings.self_s", "s"),
    ("rsindex.find_crossings.crossings", "count"),
    ("rsindex.scan.matrices", "count"),
    ("rsindex.refine.matrices", "count"),
    ("rsindex.crossing_form_matrix.calls", "count"),
    ("rsindex.crossing_form_matrix.s", "s"),
    ("specflow.spectral_flow_matrix.s", "s"),
    ("specflow.spectral_flow_matrix.self_s", "s"),
    ("specflow.spectral_flow_galerkin.s", "s"),
    ("specflow.galerkin_matrix.calls", "count"),
    ("specflow.galerkin_matrix.s", "s"),
    ("specflow.random_operator_family.calls", "count"),
    ("specflow.random_operator_family.s", "s"),
    ("specflow.asymptotic_kernel.calls", "count"),
    ("specflow.asymptotic_kernel.s", "s"),
    ("suites.random_snm_path.calls", "count"),
    ("suites.random_snm_path.s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.s", "s"),
    ("cli.main.self_s", "s"),
)


class Tracer:
    """Span recorder; ``install`` patches sympind, ``uninstall`` restores it.

    Recording happens only while ``active`` is true, so the benchmark's
    own checks, which call the package too, leave no spans.
    """

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.instance = -1
        self.active = False
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, work) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(sid)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                amount = 0
                if work is not None and result is not None:
                    amount = work(args, kwargs, result)
                tracer.spans[sid] = (name, start, end, parent, tracer.instance,
                                     amount)

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "sympind" or key.startswith("sympind."))]
        for name, module, cls, attr, work in LAYERS:
            owner = sys.modules[module]
            if cls is not None:
                owner = getattr(owner, cls)
                self._patch(owner, attr, self._wrap(name, owner.__dict__[attr], work))
                continue
            original = getattr(owner, attr)
            if work == "grid":
                work = _grid_work(inspect.signature(original))
            wrapper = self._wrap(name, original, work)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def dump(self) -> dict:
        """The span table in a compact, JSON-ready form."""
        names = sorted({s[0] for s in self.spans if s is not None})
        code = {n: i for i, n in enumerate(names)}
        rows = [[code[s[0]], round(s[1], 7), round(s[2], 7), s[3], s[4], s[5]]
                for s in self.spans if s is not None]
        return {"names": names,
                "columns": ["name", "start", "end", "parent", "instance", "work"],
                "spans": rows}


def _nearest(spans: List[Span], sid: int, names) -> int:
    """Index of the nearest ancestor whose name is in names, else -1."""
    parent = spans[sid][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return parent
        parent = spans[parent][3]
    return -1


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Per-layer counts and times from the span tree.

    ``.calls`` counts every call, nested ones included.  ``.s`` and
    ``.matrices`` add up only the outermost span of a name, so a
    catenated path's inner evaluations are not counted twice.  ``.self_s``
    is a span's duration minus that of its direct children.
    """
    calls: Dict[str, int] = {}
    inclusive: Dict[str, float] = {}
    selfs: Dict[str, float] = {}
    work: Dict[str, int] = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for sid, (name, start, end, parent, _, amount) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        selfs[name] = selfs.get(name, 0.0) + (end - start) - child_time[sid]
        if _nearest(spans, sid, (name,)) < 0:
            inclusive[name] = inclusive.get(name, 0.0) + (end - start)
            work[name] = work.get(name, 0) + amount

    # Scan and refinement inside find_crossings, and scan-grid passes inside
    # rs_index_stratified: both look at the outermost path evaluations below.
    scan = refine = grid_evals = 0
    seen_scan = set()
    for sid, span in enumerate(spans):
        if span[0] != "paths.eval" or _nearest(spans, sid, ("paths.eval",)) >= 0:
            continue
        finder = _nearest(spans, sid, ("rsindex.find_crossings",))
        if finder >= 0:
            if finder in seen_scan:
                refine += span[5]
            else:
                seen_scan.add(finder)
                scan += span[5]
        index_call = _nearest(spans, sid, ("rsindex.rs_index_stratified",))
        if index_call >= 0 and span[5] == spans[index_call][5]:
            grid_evals += 1

    out: Dict[str, float] = {}
    for metric, _ in METRICS:
        layer, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls.get(layer, 0)
        elif kind == "s":
            out[metric] = inclusive.get(layer, 0.0)
        elif kind == "self_s":
            out[metric] = selfs.get(layer, 0.0)
        elif kind in ("matrices", "crossings"):
            out[metric] = work.get(layer, 0)
    out["rsindex.rs_index_stratified.grid_evals"] = grid_evals
    out["rsindex.scan.matrices"] = scan
    out["rsindex.refine.matrices"] = refine
    return out
