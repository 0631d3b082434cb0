"""Spans and work counters recorded from outside gapsampler.

``patched(tracer)`` wraps the public functions of each module and installs
the wrappers in place of every gapsampler module attribute (and every value
of a module-level dict, such as the CLI's sweep table) that holds the same
function object; ``cli``, ``coreset``, ``streaming`` and ``fpi`` import their
callees by name, so replacing only the defining module would miss calls.
The originals are put back on exit.

A span is (name, start, end, parent, request).  Spans stay in a list until
the run ends; a layer's self time is the summed duration of its spans minus
the part their child spans cover.  With ``memory=True`` the tracer also
keeps, per span name, the highest tracemalloc peak reached inside any call,
counting memory allocated since the start of the enclosing request.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from math import ceil, comb

import numpy as np

from gapsampler.errors import GapError

MB = 1e6


class Tracer:
    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list = []          # [name, start, end, parent, request]
        self.stack: list = []          # open span ids
        self.seen_peak: dict = {}      # open span id -> highest peak seen
        self.request = None
        self.counts: dict = defaultdict(float)
        self.errors: dict = defaultdict(int)
        self.peaks: dict = defaultdict(float)   # span name -> bytes
        self.streams: dict = {}        # id(state) -> StreamState
        self.active = False            # record only inside a request

    def count(self, name: str, value: float) -> None:
        self.counts[name] += value

    def _fold_peak(self) -> None:
        peak = tracemalloc.get_traced_memory()[1]
        for sid in self.stack:
            if peak > self.seen_peak[sid]:
                self.seen_peak[sid] = peak
        tracemalloc.reset_peak()

    def open(self, name: str) -> int:
        if self.memory:
            self._fold_peak()
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self.stack[-1] if self.stack else -1, self.request])
        self.stack.append(sid)
        if self.memory:
            self.seen_peak[sid] = tracemalloc.get_traced_memory()[0]
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        if self.memory:
            self._fold_peak()  # while sid is still on the stack
        self.stack.pop()
        if self.memory:
            name = self.spans[sid][0]
            peak = self.seen_peak.pop(sid)
            if peak > self.peaks[name]:
                self.peaks[name] = peak

    @contextmanager
    def request_span(self, request_id: int):
        """Root span of one request; its self time is the benchmark's own.
        With memory tracing, tracemalloc runs only inside this span, so
        peaks count memory allocated by the request itself."""
        self.request = request_id
        if self.memory:
            tracemalloc.start()
        sid = self.open("bench")
        self.active = True
        try:
            yield
        finally:
            self.active = False
            self.close(sid)
            self.request = None
            if self.memory:
                tracemalloc.stop()

    def self_ms(self) -> dict:
        """Span name -> summed self time in ms."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(float)
        for (name, start, end, _, _), c in zip(self.spans, child):
            out[name] += (end - start - c) * 1000.0
        return out

    def request_ms(self) -> float:
        return sum(end - start for name, start, end, _, _ in self.spans
                   if name == "bench") * 1000.0


# ---------------------------------------------------------------------------
# work counters, computed from each call's inputs and outputs


def _euclidean(t, args, kw, out):
    n, d = args[0].points.shape
    t.count("metric.build_euclidean.pairs", n * n)
    t.count("metric.build_euclidean.computed_mb", (n * n * d + n * n) * 8 / MB)


def _graph_metric(t, args, kw, out):
    t.count("metric.build_graph_metric.vertices", args[0].n)


def _fpi(t, args, kw, out):
    t.count("fpi.steps", len(out[1].steps))


def _oracle(t, args, kw, out):
    t.count("oracle.search.subsets", out.subsets_examined)


def _reduce(t, args, kw, out):
    t.count("oracle.reduce.subsets", out[1]["subsets_examined"])


def _grid(t, args, kw, out):
    t.count("coreset.grid.points", args[0].n)
    t.count("coreset.reps", out.size)


def _approx(t, args, kw, out):
    params = out[2]
    if params is not None:
        k = int(args[1] if len(args) > 1 else kw["k"])
        t.count("coreset.cap", k * ceil(1.0 / params.eps1) ** params.d)


def _search(t, args, kw, out):
    k = int(args[1] if len(args) > 1 else kw["k"])
    t.count("coreset.search.subsets", comb(args[0].n, k))


def _stream(t, args, kw, out):
    t.streams[id(out)] = out  # read when the pass ends; the state is mutable


def _delaunay(t, args, kw, out):
    t.count("geometry.delaunay.triangles", len(out.triangles))


def _discrepancy(t, args, kw, out):
    pts = args[0].points
    t.count("measures.discrepancy.rects",
            np.unique(np.append(pts[:, 0], 1.0)).size
            * np.unique(np.append(pts[:, 1], 1.0)).size)


def _sweep(t, args, kw, out):
    t.count("certify.sweep.graphs", out.get("graphs", out.get("genmet_graphs", 0)))


# module -> [(function names, span name, counter)]
WRAPPED = {
    "metric": [
        (("build_cloud", "build_graph", "build_explicit", "make_sample"), "metric.build", None),
        (("build_euclidean",), "metric.build_euclidean", _euclidean),
        (("build_graph_metric",), "metric.build_graph_metric", _graph_metric),
        (("diameter",), "metric.diameter", None),
        (("min_gap", "max_gap", "gap_ratio", "gap_fraction"), "metric.gap", None),
    ],
    "fpi": [(("farthest_point_insertion",), "fpi", _fpi)],
    "oracle": [
        (("optimal_gap_ratio",), "oracle.search", _oracle),
        (("check_genmet_equivalence", "check_eds_equivalence"), "oracle.reduce", _reduce),
        (("genmet_reduce",), "oracle.reduce", None),
    ],
    "coreset": [
        (("build_grid_coreset",), "coreset.grid", _grid),
        (("best_k_subset",), "coreset.search", _search),
        (("approx_sample",), "coreset.approx", _approx),
    ],
    "streaming": [
        (("stream_init", "stream_ingest"), "streaming.ingest", _stream),
        (("stream_finalize",), "streaming.finalize", None),
    ],
    "geometry": [
        (("delaunay",), "geometry.delaunay", _delaunay),
        (("covering_radius_unit_square",), "geometry.cover", None),
        (("gap_report_unit_square",), "geometry.square", None),
        (("delaunay_angle_audit",), "geometry.audit", None),
    ],
    "measures": [
        (("star_discrepancy",), "measures.discrepancy", _discrepancy),
        (("gap_based_discrepancy_bound", "analytic_bounds"), "measures.bound", None),
    ],
    "certify": [
        (("sweep_fpi_guarantees", "sweep_fpi_vs_oracle", "sweep_graph_lower_bound",
          "sweep_reduction_certificates"), "certify.sweep", _sweep),
    ],
    "cli": [(("main",), "cli", None)],
    "fileio": [
        (("read_points", "read_graph", "read_sample", "dumps_report"), "fileio", None),
    ],
}


# every span name: one per wrapped group, plus the request root "bench"
SPANS = tuple(dict.fromkeys(span for specs in WRAPPED.values()
                            for _, span, _ in specs)) + ("bench",)


def _wrap(tracer: Tracer, fn, span: str, counter):
    layer = span.split(".")[0]

    @functools.wraps(fn)
    def wrapper(*args, **kw):
        if not tracer.active:  # output checks call the package too
            return fn(*args, **kw)
        sid = tracer.open(span)
        try:
            out = fn(*args, **kw)
        except GapError:
            tracer.errors[layer] += 1
            raise
        finally:
            tracer.close(sid)
        if counter is not None:
            counter(tracer, args, kw, out)
        return out

    return wrapper


@contextmanager
def patched(tracer: Tracer):
    """Install tracing wrappers for the duration of the block."""
    modules = [m for name, m in sys.modules.items()
               if name == "gapsampler" or name.startswith("gapsampler.")]
    replace = {}
    for mod_name, specs in WRAPPED.items():
        mod = sys.modules[f"gapsampler.{mod_name}"]
        for names, span, counter in specs:
            for name in names:
                fn = getattr(mod, name)
                replace[id(fn)] = (fn, _wrap(tracer, fn, span, counter))
    undo = []
    for mod in modules:
        containers = [vars(mod)] + [v for v in vars(mod).values() if isinstance(v, dict)]
        for box in containers:
            for key, value in list(box.items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    undo.append((box, key, value))
                    box[key] = hit[1]
    try:
        yield
    finally:
        for box, key, value in undo:
            box[key] = value
