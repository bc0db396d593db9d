"""Spans recorded from outside the library, around calls into each layer.

The traced pass replaces the layer functions that `market_rewire.cli` and
`market_rewire.pipeline` look up in their module globals with wrappers that
record a span per call: name, start, end, parent span, pass id and thread.
The pipeline's `ThreadPoolExecutor` is replaced the same way: a pool records
a "pipeline.pool" span from its creation to its shutdown, and each task a
"pipeline.task" span in the worker thread, whose parent is the pool span.
The library's source is untouched; the wrappers are removed when the pass
ends. Spans stay in memory and are written out once the benchmark finishes.
"""

import json
import threading
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import import_module
from pathlib import Path
from time import perf_counter

# Layer -> its public functions, in pipeline order. A span is named
# "<layer>.<function>". `synth` only builds inputs and is not traced.
LAYERS = {
    "ingest": ("load_panel", "fill_missing"),
    "preprocess": ("windows_at",),
    "dtw": ("distance_matrix",),
    "networks": (
        "cooccurrence_network",
        "connected_components",
        "graph_based_entropy",
        "difference_matrix",
        "differential_network",
        "count_hubs",
    ),
    "pipeline": ("run",),
    "cli": ("main", "metrics_csv_text", "export_graph", "write_export_bundle", "write_charts"),
}

# Modules whose global lookups reach the layer functions above.
CALLER_MODULES = ("market_rewire.cli", "market_rewire.pipeline")
POOL_MODULE = "market_rewire.pipeline"

FIELDS = ["name", "start", "end", "parent", "pass_id", "thread"]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans for one traced pass, and counts taken at the same
    boundaries: `counters` maps a span name to a function of the call's
    (args, kwargs, result) whose values are kept in `counts[name]`. Counting
    is recorded as a "trace.count" span, so it is charged to the tracer and
    not to the layer that made the call."""

    def __init__(self, counters=None, pass_id: int = 0):
        self.spans: list[Span] = []
        self.counters = counters or {}
        self.counts: dict[str, list] = defaultdict(list)
        self.pass_id = pass_id
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        """This thread's open spans, innermost last."""
        return self._local.__dict__.setdefault("stack", [])

    def _open(self, name: str, parent: int | None) -> tuple[Span, int]:
        span = Span(name, 0.0, 0.0, parent, self.pass_id, threading.get_ident())
        with self._lock:
            self.spans.append(span)
            return span, len(self.spans) - 1

    @contextmanager
    def span(self, name: str, parent: int | None):
        """Record a span around the block on this thread's stack; yields its index."""
        stack = self._stack()
        span, index = self._open(name, parent)
        stack.append(index)
        span.start = perf_counter()
        try:
            yield index
        finally:
            span.end = perf_counter()
            stack.pop()

    def wrap(self, name: str, fn):
        counter = self.counters.get(name)

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            with self.span(name, parent):
                result = fn(*args, **kwargs)
            if counter is not None:
                count, _ = self._open("trace.count", parent)
                count.start = perf_counter()
                self.counts[name].append(counter(args, kwargs, result))
                count.end = perf_counter()
            return result

        return traced

    def pool_class(self):
        """A ThreadPoolExecutor that records its lifetime and its tasks."""
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                stack = tracer._stack()
                self._trace_lifetime = tracer.span("pipeline.pool", stack[-1] if stack else None)
                self._trace_index = self._trace_lifetime.__enter__()

            def submit(self, fn, /, *args, **kwargs):
                def task(*a, **k):
                    with tracer.span("pipeline.task", self._trace_index):
                        return fn(*a, **k)

                return super().submit(task, *args, **kwargs)

            def shutdown(self, wait=True, **kwargs):
                super().shutdown(wait, **kwargs)
                if self._trace_lifetime is not None:
                    self._trace_lifetime.__exit__(None, None, None)
                    self._trace_lifetime = None

        return TracedPool

    @contextmanager
    def installed(self):
        """Wrap every layer function in the caller modules, and the pipeline's
        thread pool, for the duration."""
        saved = []
        try:
            pool_module = import_module(POOL_MODULE)
            saved.append((pool_module, "ThreadPoolExecutor", pool_module.ThreadPoolExecutor))
            pool_module.ThreadPoolExecutor = self.pool_class()
            for mod_name in CALLER_MODULES:
                module = import_module(mod_name)
                for layer, functions in LAYERS.items():
                    for fn_name in functions:
                        if hasattr(module, fn_name):
                            original = getattr(module, fn_name)
                            saved.append((module, fn_name, original))
                            setattr(module, fn_name, self.wrap(f"{layer}.{fn_name}", original))
            yield self
        finally:
            for module, fn_name, original in reversed(saved):
                setattr(module, fn_name, original)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        out: dict[str, float] = defaultdict(float)
        for s, c in zip(self.spans, child_time):
            out[s.name] += s.duration - c
        return out

    def inclusive_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += s.duration
        return out

    def wall(self) -> float:
        """Traced wall time: the summed duration of top-level spans."""
        return sum(s.duration for s in self.spans if s.parent is None)



def dump(path: Path, header: dict, tracers) -> None:
    """Write the spans of each tracer, one list per pass, as JSON."""
    passes = [[[getattr(s, f) for f in FIELDS] for s in t.spans] for t in tracers]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**header, "fields": FIELDS, "passes": passes}, fh)
