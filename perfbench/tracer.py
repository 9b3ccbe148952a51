"""Per-layer tracing for the benchmark's traced run (``--trace 1``).

Spans are recorded around calls *into* each layer, from the benchmark's
own code: while installed, the tracer replaces the layer entry points
listed in ``_targets`` with timing wrappers and restores the originals
on ``uninstall()``.  Nothing under ``src/`` is edited, and an
uninstalled tracer leaves no wrapper behind, so the untraced passes of a
traced run measure the program itself.

Each span records its layer name, start, end, parent span and the unit
(matrix cell or app-scale pair) it ran in.  A layer's *self time* is its
spans' duration minus the time covered by their child spans, so self
times add up to the traced wall time without double counting.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path

import numpy as np

__all__ = ["LAYERS", "Tracer"]

#: Every named layer span, in report order.
LAYERS = (
    "runtime.execute",      # RunSpec.execute
    "runtime.store_put",    # RunStore.put
    "engine.build",         # Engine.__init__
    "engine.run",           # Engine.run outside the replay loops
    "engine.scalar",        # Engine._run_fast / _run_reference
    "soatrace.load",        # first soatrace._load_kernel (dlopen)
    "soatrace.boundary",    # run_vector outside kernel and residual exits
    "soatrace.kernel",      # compiled soa_run calls
    "engine.residual",      # Engine._shared_ref called by run_vector
    "node.daemon",          # Node.run_daemon_if_due, when the daemon runs
    "node.evict",           # Node.evict_scoma_page
    "node.flush",           # Node.flush_page
    "coherence.fetch",      # Directory.fetch_raw
    "check.event",          # InvariantChecker.__call__
    "check.sweep",          # InvariantChecker.sweep
    "workloads.generate",   # repro.workloads.generate_workload
    "workloads.sample",     # tracecache.sample_from_sidecar
    "tracecache.get",       # TraceStore.get
    "tracecache.put",       # TraceStore.put
    "tracecache.soa_attach",  # tracecache.attach_soa_sidecar
    "tracecache.soa_write",   # tracecache.write_soa_sidecar
)


class _TimedLib:
    """Stands in for the cffi kernel library: times ``soa_run``."""

    def __init__(self, lib, tracer: "Tracer") -> None:
        self._lib = lib
        self._tracer = tracer
        self._id = tracer.ids["soatrace.kernel"]

    def soa_run(self, state):
        frame = self._tracer.push(self._id)
        try:
            return self._lib.soa_run(state)
        finally:
            self._tracer.pop(frame)


class Tracer:
    """Layer spans, self times and call counts for one process."""

    def __init__(self) -> None:
        self.ids = {name: i for i, name in enumerate(LAYERS)}
        self.reset()
        self.recording = False
        #: Index of the unit being run; -1 during set-up.
        self.cell = -1
        self._stack: list = []
        self._next_id = 0
        self._spans = {"id": array("q"), "name": array("i"),
                       "start": array("d"), "end": array("d"),
                       "parent": array("q"), "cell": array("i")}
        self._patches: list = []

    # -- accumulators ----------------------------------------------------
    def reset(self) -> None:
        """Zero self times and counts (span records are kept)."""
        n = len(LAYERS)
        self.self_s = [0.0] * n
        self.calls = [0] * n
        self.fallbacks = 0
        self.kernel_events = 0
        self.get_hits = 0
        self.put_bytes = 0

    def totals(self) -> dict:
        """Snapshot of the accumulators, keyed by layer name."""
        out = {"self_s": dict(zip(LAYERS, self.self_s)),
               "calls": dict(zip(LAYERS, self.calls))}
        out.update(fallbacks=self.fallbacks, kernel_events=self.kernel_events,
                   get_hits=self.get_hits, put_bytes=self.put_bytes)
        return out

    # -- spans -------------------------------------------------------------
    def push(self, name_id: int) -> list:
        stack = self._stack
        span_id = self._next_id
        self._next_id = span_id + 1
        frame = [name_id, span_id, stack[-1][1] if stack else -1, 0.0,
                 time.perf_counter()]
        stack.append(frame)
        return frame

    def pop(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        name_id, span_id, parent, child_s, start = frame
        duration = end - start
        self.self_s[name_id] += duration - child_s
        self.calls[name_id] += 1
        if stack:
            stack[-1][3] += duration
        if self.recording:
            spans = self._spans
            spans["id"].append(span_id)
            spans["name"].append(name_id)
            spans["start"].append(start)
            spans["end"].append(end)
            spans["parent"].append(parent)
            spans["cell"].append(self.cell)

    def span_count(self) -> int:
        return len(self._spans["id"])

    def write_spans(self, path: Path, cells: list[str]) -> None:
        """Write the recorded spans as one compressed ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = {k: np.frombuffer(v, dtype=v.typecode)
                   if len(v) else np.zeros(0, dtype=v.typecode)
                   for k, v in self._spans.items()}
        np.savez_compressed(path, names=np.array(LAYERS),
                            cells=np.array(cells or [""]), **columns)

    # -- wrappers ----------------------------------------------------------
    def _timed(self, name: str, fn):
        name_id = self.ids[name]
        push, pop = self.push, self.pop

        def traced(*args, **kwargs):
            frame = push(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                pop(frame)
        return traced

    def _targets(self):
        """``(owner, attribute, wrapper)`` for every traced entry point."""
        from repro.check.checker import InvariantChecker
        from repro.coherence.directory import Directory
        from repro.runtime import RunSpec, RunStore, tracecache
        from repro.runtime.tracecache import TraceStore
        from repro.sim import soatrace
        from repro.sim.engine import Engine
        from repro.sim.node import Node
        import repro.workloads as repro_workloads

        timed = self._timed
        push, pop, ids = self.push, self.pop, self.ids
        tracer = self

        load_kernel = soatrace._load_kernel

        def traced_load_kernel():
            first = soatrace._KERNEL is None
            frame = push(ids["soatrace.load"]) if first else None
            try:
                kernel = load_kernel()
            finally:
                if frame is not None:
                    pop(frame)
            if kernel:
                return kernel[0], _TimedLib(kernel[1], tracer)
            return kernel

        run_vector = soatrace.run_vector

        def traced_run_vector(engine):
            frame = push(ids["soatrace.boundary"])
            # Only the residual exits run_vector takes are timed: the
            # scalar loops bind the class method before this shadow
            # exists, and it is gone again before they could start.
            engine._shared_ref = timed("engine.residual", engine._shared_ref)
            try:
                clock = run_vector(engine)
            finally:
                del engine._shared_ref
                pop(frame)
            if clock is None:
                tracer.fallbacks += 1
            else:
                tracer.kernel_events += sum(len(t.kinds)
                                            for t in engine.workload.traces)
            return clock

        run_daemon_if_due = Node.run_daemon_if_due
        daemon_id = ids["node.daemon"]

        def traced_daemon(node, now):
            if not node.daemon.due(now):
                return run_daemon_if_due(node, now)
            frame = push(daemon_id)
            try:
                return run_daemon_if_due(node, now)
            finally:
                pop(frame)

        store_get = TraceStore.get

        def traced_get(store, *args, **kwargs):
            frame = push(ids["tracecache.get"])
            try:
                traces = store_get(store, *args, **kwargs)
            finally:
                pop(frame)
            tracer.get_hits += traces is not None
            return traces

        store_put = TraceStore.put

        def traced_put(store, *args, **kwargs):
            frame = push(ids["tracecache.put"])
            try:
                path = store_put(store, *args, **kwargs)
            finally:
                pop(frame)
            tracer.put_bytes += path.stat().st_size
            soa = path.with_suffix(".soa")
            if soa.exists():
                tracer.put_bytes += soa.stat().st_size
            return path

        return [
            (soatrace, "_load_kernel", traced_load_kernel),
            (soatrace, "run_vector", traced_run_vector),
            (Node, "run_daemon_if_due", traced_daemon),
            (TraceStore, "get", traced_get),
            (TraceStore, "put", traced_put),
            (RunSpec, "execute", timed("runtime.execute", RunSpec.execute)),
            (RunStore, "put", timed("runtime.store_put", RunStore.put)),
            (Engine, "__init__", timed("engine.build", Engine.__init__)),
            (Engine, "run", timed("engine.run", Engine.run)),
            (Engine, "_run_fast", timed("engine.scalar", Engine._run_fast)),
            (Engine, "_run_reference",
             timed("engine.scalar", Engine._run_reference)),
            (Node, "evict_scoma_page",
             timed("node.evict", Node.evict_scoma_page)),
            (Node, "flush_page", timed("node.flush", Node.flush_page)),
            (Directory, "fetch_raw",
             timed("coherence.fetch", Directory.fetch_raw)),
            (InvariantChecker, "__call__",
             timed("check.event", InvariantChecker.__call__)),
            (InvariantChecker, "sweep",
             timed("check.sweep", InvariantChecker.sweep)),
            (repro_workloads, "generate_workload",
             timed("workloads.generate", repro_workloads.generate_workload)),
            (tracecache, "sample_from_sidecar",
             timed("workloads.sample", tracecache.sample_from_sidecar)),
            (tracecache, "attach_soa_sidecar",
             timed("tracecache.soa_attach", tracecache.attach_soa_sidecar)),
            (tracecache, "write_soa_sidecar",
             timed("tracecache.soa_write", tracecache.write_soa_sidecar)),
        ]

    def install(self) -> None:
        if not self._patches:
            self._patches = [(owner, attr, getattr(owner, attr), wrapper)
                             for owner, attr, wrapper in self._targets()]
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
