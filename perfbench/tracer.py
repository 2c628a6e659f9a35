"""Spans around zenodark's layer boundaries, installed from outside the package.

``Tracer.install`` replaces each traced function with a wrapper in every
``zenodark`` module that holds it (``cli.continuous_dark_run`` and
``dynamics.continuous_dark_run`` are the same object, and both must be
replaced or the span misses calls made through one of them), and wraps the
methods on the classes that define them.  ``uninstall`` puts the originals
back, so untraced passes run the package exactly as shipped.

A span is (name, start, end, parent, job, thread, work).  Spans are kept in
memory and written out once at the end.  Self time is a span's duration
minus the union of its children's intervals; children of a sweep point run
on the CLI's worker threads, whose first span takes the main thread's
innermost open span as parent.  Each span also keeps its thread's CPU clock
at open and close: CPU self time (CPU duration minus that of its children on
the same thread) leaves out the waits for the interpreter lock that the wall
self time of a span on a sweep worker thread includes.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# (span name, module, attribute, work counter or None)
FUNCTIONS = [
    ("kernels.continuous_loop", "zenodark.kernels", "continuous_loop", lambda a: a[2].shape[0]),
    ("kernels.discrete_loop", "zenodark.kernels", "discrete_loop", lambda a: a[1].shape[0]),
    ("kernels.embedded_loop", "zenodark.kernels", "embedded_loop", lambda a: a[0].shape[0]),
    ("dynamics.continuous_dark_run", "zenodark.dynamics", "continuous_dark_run", None),
    ("dynamics.discrete_dark_run", "zenodark.dynamics", "discrete_dark_run", None),
    ("dynamics.closed_form_run", "zenodark.dynamics", "closed_form_run", None),
    ("dynamics.closed_form_solution", "zenodark.dynamics", "closed_form_solution", None),
    ("scenario.load_scenario", "zenodark.scenario", "load_scenario", None),
    ("linalg.hermitian_eigendecomposition", "zenodark.linalg", "hermitian_eigendecomposition", None),
    ("embedding.embedded_run", "zenodark.embedding", "embedded_run", None),
    ("embedding.adiabatic_alpha_check", "zenodark.embedding", "adiabatic_alpha_check", None),
    ("design.mode_design", "zenodark.design", "mode_design", None),
    ("design.design_monitored_state", "zenodark.design", "design_monitored_state", None),
    ("design.phase_diagnostics", "zenodark.design", "parallel_transport_residual", None),
    ("design.phase_diagnostics", "zenodark.design", "pancharatnam_phase", None),
    # No public function marks one sweep or one sweep point, so these two
    # wrap the CLI's private helpers; a missing one is reported, not fatal.
    ("cli.sweep", "zenodark.cli", "_execute_sweep", None),
    ("cli.sweep_point", "zenodark.cli", "_sweep_metric", None),
]

# (span name, module, class, method, work counter or None)
METHODS = [
    ("paths.evaluate_many", "zenodark.paths", cls, "evaluate_many", lambda a: np.size(a[1]))
    for cls in ("MonitoredPath", "GeneratorPath", "ModePath", "DesignedPath")
] + [
    ("trajectory.write_csv", "zenodark.trajectory", cls, "write_csv", None)
    for cls in ("DarkTrajectory", "EmbeddedTrajectory")
]

COMMAND = "cli.command"


class Span:
    __slots__ = ("name", "start", "end", "cpu_start", "cpu_end", "parent", "job", "thread",
                 "work", "nested")

    def __init__(self, name, start, parent, job, thread, nested):
        self.name = name
        self.start = start
        self.end = start
        self.cpu_start = self.cpu_end = time.thread_time()
        self.parent = parent
        self.job = job
        self.thread = thread
        self.work = None
        self.nested = nested


def _stream_position(stream):
    try:
        return stream.tell()
    except (AttributeError, OSError, ValueError):
        return None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.job = None
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # a worker thread's first span hangs off what the main thread waits in
            main = self._main_stack
            parent = main[-1] if main else None
        nested = any(self.spans[i].name == name for i in stack)
        start = time.perf_counter()
        span = Span(name, start, parent, self.job, threading.get_ident(), nested)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def close(self, index: int, work=None) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.cpu_end = time.thread_time()
        span.work = work
        self._stack().pop()

    def _wrap(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            work = None
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    try:
                        work = int(count(args))
                    except (AttributeError, IndexError, TypeError):
                        work = None
                return result
            finally:
                tracer.close(index, work)

        return traced

    def _wrap_write_csv(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def traced(self_, stream, *args, **kwargs):
            index = tracer.open(name)
            before = _stream_position(stream)
            try:
                return fn(self_, stream, *args, **kwargs)
            finally:
                after = _stream_position(stream)
                written = after - before if before is not None and after is not None else None
                tracer.close(index, written)

        return traced

    # --- installing --------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "zenodark" or n.startswith("zenodark.")]
        for name, module_name, attr, count in FUNCTIONS:
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapped = self._wrap(name, original, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, value))
                        setattr(module, key, wrapped)
        for name, module_name, cls_name, attr, count in METHODS:
            cls = getattr(sys.modules.get(module_name), cls_name, None)
            original = vars(cls).get(attr) if cls is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{cls_name}.{attr}")
                continue
            make = self._wrap_write_csv if attr == "write_csv" else self._wrap
            self._restore.append((cls, attr, original))
            setattr(cls, attr, make(name, original, count))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def command(self, fn, *args):
        """Call ``fn`` (the CLI entry point) inside a ``cli.command`` span."""
        index = self.open(COMMAND)
        try:
            return fn(*args)
        finally:
            self.close(index)

    # --- analysis ----------------------------------------------------------

    def self_times(self, spans=None) -> list[float]:
        spans = self.spans if spans is None else spans
        children = defaultdict(list)
        for span in spans:
            if span.parent is not None:
                children[span.parent].append(span)
        out = []
        for index, span in enumerate(spans):
            covered, reach = 0.0, span.start
            for child in sorted(children.get(index, ()), key=lambda s: s.start):
                lo, hi = max(child.start, reach), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(span.end - span.start - covered)
        return out

    def cpu_self_times(self) -> list[float]:
        own = [span.cpu_end - span.cpu_start for span in self.spans]
        for span in self.spans:
            if span.parent is not None and self.spans[span.parent].thread == span.thread:
                own[span.parent] -= span.cpu_end - span.cpu_start
        return own

    def layers(self, jobs: set) -> dict:
        """Per-name totals over spans whose job is in ``jobs``."""
        totals = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "cpu_self_s": 0.0, "work": 0}
        )
        for span, own, cpu in zip(self.spans, self.self_times(), self.cpu_self_times()):
            if span.job not in jobs:
                continue
            entry = totals[span.name]
            entry["self_s"] += own
            entry["cpu_self_s"] += cpu
            if span.nested:
                continue
            entry["calls"] += 1
            entry["busy_s"] += span.end - span.start
            entry["work"] += span.work or 0
        return dict(totals)

    def sweeps(self, jobs: set):
        """(point busy seconds, sweep wall seconds, point count) per traced sweep."""
        out = []
        for index, span in enumerate(self.spans):
            if span.name != "cli.sweep" or span.job not in jobs:
                continue
            points = [s for s in self.spans if s.parent == index and s.name == "cli.sweep_point"]
            out.append((sum(s.end - s.start for s in points), span.end - span.start, len(points)))
        return out

    def write(self, path) -> None:
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as stream:
            for span in self.spans:
                record = {
                    "name": span.name,
                    "start": span.start - origin,
                    "end": span.end - origin,
                    "cpu_s": span.cpu_end - span.cpu_start,
                    "parent": span.parent,
                    "job": span.job,
                    "thread": span.thread,
                    "work": span.work,
                }
                stream.write(json.dumps(record) + "\n")
