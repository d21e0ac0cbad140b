"""Spans around calls into the package's modules, and what they add up to.

The traced run replaces every public function of kirchlab (the callables in
``kirchlab.__all__`` plus ``cli.main``) with a timing wrapper, in its home
module and in every module that imported it by name, so ``structured.invert``
and ``linalg.invert`` both record ``linalg.invert``.  Spans stay in memory
and are summarised when the run ends.  Self time is a span's duration minus
the part of it that its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
import tracemalloc
from collections import defaultdict
from typing import Iterator, NamedTuple

import numpy as np

LAYERS = ("cli", "graph", "transforms", "linalg", "structured", "oracle", "verify")

# span whose tracemalloc peak is recorded while memory tracing is on
PEAK_SPAN = "structured.build_structured_inverse"

# per-layer metric -> spans whose self time it sums
SELF_METRICS = {
    "linalg.invert_s": ("linalg.invert",),
    "linalg.group_inverse_s": ("linalg.group_inverse_laplacian",),
    "structured.build_s": ("structured.build_structured_inverse",),
    "structured.kirchhoff_s": ("structured.kirchhoff",),
    "structured.resistance_matrix_s": ("structured.resistance_matrix",),
    "graph.parse_s": ("graph.parse_edge_list",),
    "graph.is_connected_s": ("graph.is_connected",),
    "graph.laplacian_s": ("graph.laplacian", "graph.adjacency_matrix"),
    "graph.incidence_split_s": ("graph.incidence_split",),
    "transforms.apply_s": ("transforms.apply_transform", "transforms.quadrilateral",
                           "transforms.pentagonal"),
    "oracle.resistance_matrix_s": ("oracle.oracle_resistance_matrix",),
    "oracle.kirchhoff_s": ("oracle.oracle_kirchhoff",),
    "verify.compare_s": ("verify.compare",),
    "verify.audit_s": ("verify.audit_theorems",),
    "verify.random_graph_s": ("verify.random_connected_graph",),
}

UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{name: "s" for name in SELF_METRICS},
    "linalg.invert_calls": "count",
    "linalg.invert_max_dim": "count",
    "structured.build_peak_mb": "MiB",
    "structured.result_bytes": "count",
    "oracle.calls": "count",
    "cli.output_bytes": "count",
    "trace.overhead_frac": "ratio",
}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    op: int  # index of the operation in the traced loop
    size: int  # linalg.invert: matrix order; structured: bytes of returned arrays


def _size(name: str, args: tuple, result) -> int:
    if name == "linalg.invert":
        return len(args[0])
    if name.startswith("structured."):
        values = vars(result).values() if hasattr(result, "__dict__") else (result,)
        return sum(v.nbytes for v in values if isinstance(v, np.ndarray))
    return 0


class Recorder:
    """Collects spans; ``op`` names the operation the next spans belong to."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.peaks: list[int] = []
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            peak = name == PEAK_SPAN and tracemalloc.is_tracing()
            if peak:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent, self.op, 0)
            if peak:
                self.peaks.append(tracemalloc.get_traced_memory()[1] - base)
            self.spans[index] = self.spans[index]._replace(size=_size(name, args, result))
            return result

        return wrapper


def public_functions() -> dict[str, object]:
    """Span name -> function, for every public function the traced run wraps."""
    import kirchlab
    from kirchlab import cli

    found = {"cli.main": cli.main}
    for attr in kirchlab.__all__:
        fn = getattr(kirchlab, attr)
        if inspect.isfunction(fn):
            layer = fn.__module__.rsplit(".", 1)[-1]
            found[f"{layer}.{fn.__name__}"] = fn
    return found


@contextlib.contextmanager
def installed(recorder: Recorder) -> Iterator[None]:
    """Wrap every public function wherever a kirchlab module binds it."""
    wrapped = {id(fn): (fn, recorder.wrap(name, fn))
               for name, fn in public_functions().items()}
    modules = [importlib.import_module(f"kirchlab.{layer}") for layer in LAYERS]
    modules.append(importlib.import_module("kirchlab"))
    patched = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            entry = wrapped.get(id(value))
            if entry and value is entry[0]:
                setattr(module, attr, entry[1])
                patched.append((module, attr, value))
    try:
        yield
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)


def self_times(spans: list[Span]) -> list[float]:
    """Self time of each span: its duration minus what its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for index, span in enumerate(spans):
        covered, cursor = 0.0, span.start
        for child in sorted(children[index], key=lambda c: c.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.end - span.start - covered)
    return out


def summarize(spans: list[Span], ops: int, peaks: list[int]) -> dict[str, float]:
    """Per-layer metrics per operation of the traced loop (``ops`` operations)."""
    by_name: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        by_name[span.name] += own
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for name, total in by_name.items():
        out[f"{name.split('.')[0]}.self_s"] += total
    for metric, names in SELF_METRICS.items():
        out[metric] = sum(by_name[name] for name in names)
    out = {metric: value / ops for metric, value in out.items()}
    inverts = [s.size for s in spans if s.name == "linalg.invert"]
    out["linalg.invert_calls"] = len(inverts) / ops
    out["linalg.invert_max_dim"] = max(inverts, default=0)
    out["structured.result_bytes"] = sum(
        s.size for s in spans if s.name.startswith("structured.")) / ops
    out["oracle.calls"] = sum(s.name.startswith("oracle.") for s in spans) / ops
    out["structured.build_peak_mb"] = max(peaks, default=0) / 2**20
    return out
