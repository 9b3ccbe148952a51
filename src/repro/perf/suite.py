"""The curated microbenchmark suite behind ``python -m repro bench``.

Ten benchmark families, chosen to bracket the simulator's cost
structure (docs/performance.md):

* ``single:<app>/<arch>`` -- one evaluation cell per architecture, so a
  regression localised to one policy's code path is visible on its own;
* ``matrix_micro`` -- a 10-cell slice of the evaluation matrix
  (fft + em3d across all five architectures at 70% pressure); this is
  the headline number and what ``BENCH_*.json`` speedups are quoted
  against;
* ``vector:matrix_micro`` -- the same 10-cell slice replayed through
  the vectorized SoA loop (``repro.sim.soatrace``); ``meta`` records
  the reference-loop (``vector_path=False``) wall time and the speedup
  factor, which the regression gate holds at >=3x whenever the
  compiled kernel is available;
* ``matrix_e2e`` -- the full 90-cell parallel matrix through the
  runtime executor (trace cache + warm workers + LPT dispatch);
* ``tracegen:<app>`` -- workload generation for each of the six apps
  (numpy-vectorised, so it regresses independently of the replay loop);
* ``tracegen_cached:<app>`` -- the same workload served from the trace
  cache, with the cold generation time and speedup in ``meta``;
* ``checker:<app>/<arch>`` -- a cell replayed under the online
  invariant checker, pinning the checker-on overhead factor;
* ``obs_overhead`` -- the matrix micro slice with full ``--obs``
  telemetry (spans + kind-filtered backoff time series + JSONL sink)
  versus plain, pinning the observability overhead factor that the
  regression gate holds at <=2%;
* ``serve_warm`` -- one submit->result round-trip against a warm
  :class:`~repro.serve.JobServer` for a cached cell, versus a cold
  ``repro run`` process invocation of the same cell; the regression
  gate holds the factor at >=5x;
* ``sampling:<app>/<arch>`` -- sample-then-replay of one committed
  error-analysis cell versus full replay, recording the kept fraction,
  the trace-heap ratio and the wall-time speedup sampled sweeps bank.

Workload generation is hoisted out of every replay measurement (traces
are cached and replayed many times in real sweeps), and engine benches
construct a fresh :class:`Engine` per repeat so no directory/cache
state leaks between repeats.  All benches run the store-free library
path; the result store would otherwise turn repeats into disk reads.
"""

from __future__ import annotations

import json
import os
import platform
import tempfile
import time

from ..harness.experiment import (APP_PRESSURES, ARCHITECTURES, get_workload,
                                  scaled_policy)
from ..sim.config import SystemConfig
from ..sim.engine import Engine
from .timing import BenchResult, run_bench

__all__ = ["MICRO_SCALE", "E2E_SCALE", "ALL_APPS", "MATRIX_APPS",
           "MATRIX_PRESSURE", "MATRIX_CELLS",
           "bench_single_cell", "bench_matrix_micro",
           "bench_vector_matrix_micro", "bench_matrix_e2e",
           "bench_trace_generation", "bench_trace_generation_cached",
           "bench_checker_overhead", "bench_obs_overhead",
           "bench_serve_warm", "bench_sampling", "run_suite",
           "bench_payload", "load_bench_json"]

#: Workload scale all replay microbenchmarks run at: large enough that
#: the inner loop dominates (~100k events per cell), small enough that
#: the whole suite stays under a minute.
MICRO_SCALE = 0.25

#: Scale of the end-to-end matrix benchmark.  The generators' size
#: floors mean the full matrix costs nearly the same wall time from
#: 0.05 to 0.25, so the smallest round scale keeps the benchmark
#: representative without inflating the suite.
E2E_SCALE = 0.1

#: Every paper application, in matrix order.
ALL_APPS = tuple(APP_PRESSURES)

#: The matrix micro slice: one RAC-friendly app (fft) and one
#: RAC-hostile one (em3d) across every architecture, at the 70%
#: pressure point where the page-management machinery is active.
MATRIX_APPS = ("fft", "em3d")
MATRIX_PRESSURE = 0.7
MATRIX_CELLS = tuple((app, arch, MATRIX_PRESSURE)
                     for app in MATRIX_APPS for arch in ARCHITECTURES)


def _workload_events(wl) -> int:
    return sum(len(t.kinds) for t in wl.traces)


def _engine(wl, arch: str, pressure: float, **engine_kwargs) -> Engine:
    cfg = SystemConfig(n_nodes=wl.n_nodes, memory_pressure=pressure)
    return Engine(wl, scaled_policy(arch), config=cfg, **engine_kwargs)


# ----------------------------------------------------------------------
def bench_single_cell(arch: str, app: str = "fft",
                      pressure: float = MATRIX_PRESSURE,
                      scale: float = MICRO_SCALE,
                      repeats: int = 3) -> BenchResult:
    """Replay one evaluation cell under *arch*."""
    wl = get_workload(app, scale)
    events = _workload_events(wl)
    return run_bench(
        f"single:{app}/{arch}",
        lambda: _engine(wl, arch, pressure).run(),
        events, repeats,
        meta={"app": app, "arch": arch, "pressure": pressure,
              "scale": scale})


def bench_matrix_micro(repeats: int = 3) -> BenchResult:
    """The headline benchmark: replay the 10-cell matrix slice.

    The cell set, scale and timing method are part of the benchmark's
    identity -- committed ``BENCH_*.json`` numbers are only comparable
    across versions because this definition does not move.
    """
    wls = {app: get_workload(app, MICRO_SCALE) for app in MATRIX_APPS}
    events = sum(_workload_events(wls[app]) for app, _, _ in MATRIX_CELLS)

    def once() -> None:
        for app, arch, pr in MATRIX_CELLS:
            _engine(wls[app], arch, pr).run()

    return run_bench("matrix_micro", once, events, repeats,
                     meta={"cells": len(MATRIX_CELLS), "apps": MATRIX_APPS,
                           "pressure": MATRIX_PRESSURE, "scale": MICRO_SCALE})


def bench_vector_matrix_micro(repeats: int = 3) -> BenchResult:
    """The matrix micro slice through the vectorized SoA loop.

    Identical cell set, scale and timing method to ``matrix_micro``,
    so the two benches' events/sec are directly comparable.
    ``meta["scalar_wall_s"]`` is the same slice on the reference loop
    (``vector_path=False``) and ``meta["speedup_x"]`` the kernel's win
    over it.  ``meta["kernel_available"]`` records whether the compiled
    kernel actually ran: without a C compiler the vector engine
    degrades to the reference loop and the factor sits near 1.0, which
    the regression gate treats as a skip, not a failure.
    """
    from ..sim.soatrace import vector_available

    wls = {app: get_workload(app, MICRO_SCALE) for app in MATRIX_APPS}
    events = sum(_workload_events(wls[app]) for app, _, _ in MATRIX_CELLS)

    def once(vector: bool) -> None:
        for app, arch, pr in MATRIX_CELLS:
            _engine(wls[app], arch, pr, vector_path=vector).run()

    scalar = run_bench("_scalar", lambda: once(False), events, repeats)
    result = run_bench("vector:matrix_micro", lambda: once(True),
                       events, repeats,
                       meta={"cells": len(MATRIX_CELLS), "apps": MATRIX_APPS,
                             "pressure": MATRIX_PRESSURE,
                             "scale": MICRO_SCALE,
                             "kernel_available": vector_available()})
    result.meta["scalar_wall_s"] = round(scalar.wall_s, 6)
    result.meta["speedup_x"] = round(scalar.wall_s / result.wall_s, 3)
    return result


def bench_trace_generation(app: str = "em3d", scale: float = MICRO_SCALE,
                           repeats: int = 3) -> BenchResult:
    """Workload generation cost (bypasses the harness lru_cache)."""
    from ..workloads import generate_workload
    events = _workload_events(generate_workload(app, scale=scale))
    return run_bench(
        f"tracegen:{app}",
        lambda: generate_workload(app, scale=scale),
        events, repeats, meta={"app": app, "scale": scale})


def bench_trace_generation_cached(app: str = "em3d",
                                  scale: float = MICRO_SCALE,
                                  repeats: int = 3) -> BenchResult:
    """Trace-cache hit vs cold generation for one workload.

    Times a :class:`~repro.runtime.tracecache.TraceStore` disk hit
    (keying + binary load + array reconstruction) against regenerating
    the same workload; ``meta["cold_wall_s"]``/``meta["speedup_x"]``
    record the cold time and the factor -- the per-workload saving
    every fresh CLI invocation or spawn worker banks.
    """
    from ..runtime.tracecache import TraceStore
    from ..workloads import generate_workload

    wl = generate_workload(app, scale=scale)
    events = _workload_events(wl)
    cold = run_bench("_cold", lambda: generate_workload(app, scale=scale),
                     events, repeats)
    with tempfile.TemporaryDirectory() as tmp:
        store = TraceStore(tmp)
        store.put(app, scale, wl)
        result = run_bench(f"tracegen_cached:{app}",
                           lambda: store.get(app, scale),
                           events, repeats,
                           meta={"app": app, "scale": scale})
    result.meta["cold_wall_s"] = round(cold.wall_s, 6)
    result.meta["speedup_x"] = round(cold.wall_s / result.wall_s, 3)
    return result


def bench_matrix_e2e(repeats: int = 2, scale: float = E2E_SCALE) -> BenchResult:
    """The full 90-cell parallel matrix through the runtime executor.

    Each timed run models a fresh CLI invocation by dropping the
    process-level workload caches first, then resolves workloads from
    a pre-populated :class:`~repro.runtime.tracecache.TraceStore` and
    dispatches pre-warmed, costliest-first, in chunks.  Every repeat
    bypasses the result store, so it simulates every cell.
    ``meta["cpu_count"]`` records the host's CPU count.
    """
    from ..harness.parallel import matrix_specs
    from ..runtime import execute, use_trace_store
    from ..runtime.tracecache import TraceStore, clear_trace_memo, fetch_traces

    specs = matrix_specs(scale=scale)
    apps = tuple(dict.fromkeys(s.app for s in specs))
    events_of = {app: _workload_events(get_workload(app, scale))
                 for app in apps}
    events = sum(events_of[s.app] for s in specs)

    def cold_process_caches() -> None:
        clear_trace_memo()
        get_workload.cache_clear()

    with tempfile.TemporaryDirectory() as tmp:
        trace_store = TraceStore(tmp)
        with use_trace_store(trace_store):
            for app in apps:
                fetch_traces(app, scale)  # pre-populate the cache

        def once() -> None:
            cold_process_caches()
            with use_trace_store(trace_store):
                execute(specs, store=None, parallel=True)

        result = run_bench("matrix_e2e", once, events, repeats,
                           meta={"cells": len(specs), "scale": scale,
                                 "apps": apps})
    cold_process_caches()
    result.meta["cpu_count"] = os.cpu_count()
    return result


def bench_checker_overhead(app: str = "fft", arch: str = "ASCOMA",
                           pressure: float = MATRIX_PRESSURE,
                           scale: float = 0.1,
                           repeats: int = 3) -> BenchResult:
    """One cell under the online invariant checker (barrier sweeps).

    Reported events/sec is the *checked* run; ``meta["overhead_x"]``
    is its slowdown factor over the plain run of the same cell, which
    is the number ``repro check`` users actually pay.
    """
    from ..check import InvariantChecker
    wl = get_workload(app, scale)
    events = _workload_events(wl)

    def checked() -> None:
        engine = _engine(wl, arch, pressure)
        InvariantChecker.attach(engine, granularity="barrier")
        engine.run()

    plain = run_bench("_plain", lambda: _engine(wl, arch, pressure).run(),
                      events, repeats)
    result = run_bench(f"checker:{app}/{arch}", checked, events, repeats,
                       meta={"app": app, "arch": arch, "pressure": pressure,
                             "scale": scale, "granularity": "barrier"})
    result.meta["plain_wall_s"] = round(plain.wall_s, 6)
    result.meta["overhead_x"] = round(result.wall_s / plain.wall_s, 3)
    return result


def bench_obs_overhead(repeats: int = 3) -> BenchResult:
    """The matrix micro slice with ``--obs`` telemetry vs without.

    The observed run reproduces exactly what the executor adds per cell
    under ``--obs``: a cell/simulate span pair, a kind-filtered
    :class:`~repro.obs.BackoffTelemetry` on the engine's event bus, the
    merged backoff rows and the per-cell summary record, all written to
    a real JSONL sink.  ``meta["overhead_x"]`` is the factor users pay
    for ``--obs``; ``benchmarks/test_perf_regression.py`` gates it at
    <=10% (the budget that motivated kind-filtered subscriptions — a
    full observer would cost several times that by disabling the
    kernel).
    """
    from ..obs import BackoffTelemetry, ObsSink, SpanRecorder
    from ..runtime import RunSpec

    wls = {app: get_workload(app, MICRO_SCALE) for app in MATRIX_APPS}
    events = sum(_workload_events(wls[app]) for app, _, _ in MATRIX_CELLS)
    specs = {cell: RunSpec.make(*cell, scale=MICRO_SCALE)
             for cell in MATRIX_CELLS}

    def plain_once() -> None:
        for app, arch, pr in MATRIX_CELLS:
            _engine(wls[app], arch, pr).run()

    with tempfile.TemporaryDirectory() as tmp:
        def observed_once() -> None:
            obs = SpanRecorder(ObsSink(tmp))
            for cell in MATRIX_CELLS:
                app, arch, pr = cell
                spec = specs[cell]
                telemetry = BackoffTelemetry()
                with obs.span("cell", spec=spec):
                    engine = _engine(wls[app], arch, pr)
                    telemetry.attach(engine)
                    with obs.span("simulate", spec=spec):
                        engine.run()
                    obs.backoff_rows(spec, telemetry.rows)
                    obs.emit("backoff_summary", spec=spec.label(),
                             spec_hash=spec.spec_hash(),
                             **telemetry.counters())
            obs.sink.close()

        plain = run_bench("_plain", plain_once, events, repeats)
        result = run_bench("obs_overhead", observed_once, events, repeats,
                           meta={"cells": len(MATRIX_CELLS),
                                 "apps": MATRIX_APPS,
                                 "pressure": MATRIX_PRESSURE,
                                 "scale": MICRO_SCALE})
    result.meta["plain_wall_s"] = round(plain.wall_s, 6)
    result.meta["overhead_x"] = round(result.wall_s / plain.wall_s, 3)
    return result


def bench_serve_warm(rounds: int = 20, repeats: int = 3) -> BenchResult:
    """Warm-server round-trip for a cached cell vs a cold CLI run.

    The number the serve layer exists for: with a resident
    :class:`~repro.serve.JobServer` (inline backend, primed result
    store), one submit→result round-trip over the Unix socket is
    measured against ``python -m repro run`` of the *same cached cell*
    in a fresh process — interpreter startup, imports and store read
    included, simulation excluded from both sides.  ``meta`` records
    the per-round-trip latency (``roundtrip_s``), the cold invocation
    wall time (``cold_cli_s``) and the factor (``speedup_x``), which
    the regression gate holds at >=5x.
    """
    import subprocess
    import sys

    from ..runtime import RunSpec, RunStore, execute
    from ..serve import JobServer, ServeClient, ServerThread

    spec = RunSpec("fft", "ASCOMA", MATRIX_PRESSURE, 0.05)
    wl_events = _workload_events(get_workload(spec.app, spec.scale))
    with tempfile.TemporaryDirectory() as tmp:
        store = RunStore(os.path.join(tmp, "store"))
        execute([spec], store=store, parallel=False)  # prime the cache

        src_root = os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))
        env = dict(os.environ, PYTHONPATH=src_root)
        for var in ("REPRO_STORE_DIR", "REPRO_TRACE_DIR", "REPRO_OBS_DIR",
                    "REPRO_SERVE_SOCKET"):
            env.pop(var, None)
        cmd = [sys.executable, "-m", "repro", "--scale", str(spec.scale),
               "--store-dir", str(store.root), "run", spec.app, spec.arch,
               "--pressure", str(spec.pressure)]

        def cold_once() -> None:
            proc = subprocess.run(cmd, env=env, cwd=tmp,
                                  capture_output=True, text=True)
            if proc.returncode != 0:
                raise RuntimeError(f"cold CLI run failed:\n{proc.stderr}")

        cold = run_bench("_cold_cli", cold_once, wl_events, min(repeats, 2))

        sock = os.path.join(tmp, "s.sock")
        server = JobServer(sock, store=store, backend="inline", workers=2)
        with ServerThread(server):
            with ServeClient(sock) as client:
                client.submit(spec, wait=True)  # prime connection + memo

                def warm_once() -> None:
                    for _ in range(rounds):
                        job = client.submit(spec, wait=True)
                        client.result(job["id"])

                result = run_bench("serve_warm", warm_once,
                                   wl_events * rounds, repeats,
                                   meta={"spec": spec.label(),
                                         "rounds": rounds,
                                         "backend": "inline"})
    per_rt = result.wall_s / rounds
    result.meta["roundtrip_s"] = round(per_rt, 6)
    result.meta["cold_cli_s"] = round(cold.wall_s, 6)
    result.meta["speedup_x"] = round(cold.wall_s / per_rt, 3)
    return result


def bench_sampling(app: str = "em3d", arch: str = "SCOMA",
                   pressure: float = 0.9, scale: float = MICRO_SCALE,
                   rate: int = 7, repeats: int = 3) -> BenchResult:
    """Sampled replay (sample + run) vs full replay of one cell.

    Times the whole sampled path — streaming the reduction off the SoA
    decode *plus* replaying the reduced trace — against replaying the
    full trace, on a committed error-analysis cell.  ``meta`` records
    the kept-event fraction, the trace-heap ratio
    (:func:`~repro.workloads.sample.trace_memory_bytes`) and the
    wall-time factor: the speedup a ``--sample-rate`` sweep banks per
    cell.
    """
    from ..workloads.sample import (SampleSpec, sample_workload,
                                    trace_memory_bytes)

    wl = get_workload(app, scale)
    spec = SampleSpec(rate=rate)
    events = _workload_events(wl)
    sampled_wl = sample_workload(wl, spec)
    kept = _workload_events(sampled_wl)

    def sampled_once() -> None:
        reduced = sample_workload(wl, spec)
        _engine(reduced, arch, pressure).run()

    full = run_bench("_full", lambda: _engine(wl, arch, pressure).run(),
                     events, repeats)
    result = run_bench(f"sampling:{app}/{arch}", sampled_once, kept, repeats,
                       meta={"app": app, "arch": arch, "pressure": pressure,
                             "scale": scale, "rate": rate, "unit": spec.unit,
                             "kept_fraction": round(kept / events, 4),
                             "memory_ratio": round(
                                 trace_memory_bytes(sampled_wl)
                                 / trace_memory_bytes(wl), 4)})
    result.meta["full_wall_s"] = round(full.wall_s, 6)
    result.meta["speedup_x"] = round(full.wall_s / result.wall_s, 3)
    return result


def run_suite(repeats: int = 3, only: str | None = None) -> list[BenchResult]:
    """Run the whole curated suite; *only* filters by name substring.

    ``matrix_e2e`` is capped at best-of-2: it simulates 90 cells per
    repeat, so letting it scale with *repeats* would dominate the
    suite's runtime.
    """
    benches = [
        *(lambda a=arch: bench_single_cell(a, repeats=repeats)
          for arch in ARCHITECTURES),
        lambda: bench_matrix_micro(repeats=repeats),
        lambda: bench_vector_matrix_micro(repeats=repeats),
        lambda: bench_matrix_e2e(repeats=min(repeats, 2)),
        *(lambda a=app: bench_trace_generation(a, repeats=repeats)
          for app in ALL_APPS),
        *(lambda a=app: bench_trace_generation_cached(a, repeats=repeats)
          for app in ALL_APPS),
        lambda: bench_checker_overhead(repeats=repeats),
        lambda: bench_obs_overhead(repeats=repeats),
        lambda: bench_serve_warm(repeats=repeats),
        lambda: bench_sampling(repeats=repeats),
    ]
    names = [f"single:fft/{arch}" for arch in ARCHITECTURES]
    names += ["matrix_micro", "vector:matrix_micro", "matrix_e2e"]
    names += [f"tracegen:{app}" for app in ALL_APPS]
    names += [f"tracegen_cached:{app}" for app in ALL_APPS]
    names += ["checker:fft/ASCOMA", "obs_overhead", "serve_warm"]
    names += ["sampling:em3d/SCOMA"]
    results = []
    for name, bench in zip(names, benches):
        if only and only not in name:
            continue
        results.append(bench())
    return results


# ----------------------------------------------------------------------
def bench_payload(results: list[BenchResult],
                  baseline: dict | None = None) -> dict:
    """JSON-ready payload for a ``BENCH_*.json`` artifact.

    With *baseline* (a previously emitted payload, or any dict with a
    ``results`` list), the baseline is embedded verbatim and speedups
    are computed for every benchmark present in both -- so the file
    records the pre-change and post-change numbers side by side.
    """
    payload = {
        "schema": 1,
        "created_unix": int(time.time()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "results": [r.to_dict() for r in results],
    }
    if baseline is not None:
        payload["baseline"] = baseline
        base = {r["name"]: r for r in baseline.get("results", [])}
        speedups = {}
        for r in results:
            b = base.get(r.name)
            if b and b.get("events_per_sec"):
                speedups[r.name] = round(
                    r.events_per_sec / b["events_per_sec"], 3)
        payload["speedup_vs_baseline"] = speedups
    return payload


def load_bench_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
