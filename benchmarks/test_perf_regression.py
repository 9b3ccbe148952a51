"""Opt-in wall-clock self-checks of four speed claims.

Each test times both sides of one claim in this process with
``time.perf_counter`` and compares their best-of-N wall times, so the
bound does not depend on how fast the host is:

* a trace-store hit beats regenerating the workload;
* ``--obs`` telemetry costs at most ``OBS_BUDGET`` on the matrix micro
  slice;
* a warm ``repro serve`` round-trip beats a cold ``repro run`` by >=5x;
* the compiled kernel beats the reference loop by >=3x.

The benchmark itself is ``perfbench/``; CI gates its exact per-layer
counts (``benchmarks/perfbench_counts.py``).  Wall-clock ratios are
flaky on loaded runners, so these tests skip unless ``REPRO_PERF=1``
is set::

    REPRO_PERF=1 PYTHONPATH=src python -m pytest benchmarks/test_perf_regression.py -v

They are additionally marked ``perf`` for selection via ``-m perf``.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import time

import pytest

import repro
from repro.harness.experiment import get_workload
from repro.perf.suite import MATRIX_APPS, MATRIX_CELLS, MATRIX_PRESSURE
from repro.runtime import RunSpec
from repro.sim.engine import Engine

#: Scale of every replay and generation measured here: large enough
#: that the inner loop dominates, small enough to stay under a minute.
MICRO_SCALE = 0.25

#: Minimum reference-loop/kernel wall-time factor on the matrix micro
#: slice, enforced whenever the compiled kernel is available.
VECTOR_FLOOR = 3.0

#: ``--obs`` overhead budget on the matrix micro slice.  The absolute
#: telemetry cost (spans + kind-filtered backoff rows + JSONL sink) is
#: about 10 ms on the slice, a larger fraction of the kernel's replay
#: than of the reference loop's; 1.10x still catches the failure that
#: matters (an unfiltered observer disabling kernel eligibility costs
#: 3-4x, not 10%).
OBS_BUDGET = 1.10

#: Rounds of the ``--obs`` check.  Each round times one plain and one
#: observed pass, the side that runs first alternating between rounds,
#: so a drift of the host's speed reaches both sides alike.
OBS_ROUNDS = 7

pytestmark = [
    pytest.mark.perf,
    pytest.mark.skipif(os.environ.get("REPRO_PERF", "") != "1",
                       reason="wall-clock self-checks run only with REPRO_PERF=1"),
]


def best_of(repeats: int, fn) -> float:
    """Best wall time of *repeats* calls of *fn*, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def best_of_alternating(rounds: int, first, second) -> tuple[float, float]:
    """Best wall times of *first* and *second* over *rounds* rounds of
    one call each, alternating which of them runs first."""
    fns = (first, second)
    best = [float("inf"), float("inf")]
    for r in range(rounds):
        for side in ((0, 1) if r % 2 == 0 else (1, 0)):
            t0 = time.perf_counter()
            fns[side]()
            best[side] = min(best[side], time.perf_counter() - t0)
    return best[0], best[1]


def _engine(wls: dict, app: str, arch: str, pressure: float) -> Engine:
    """The cell's engine as ``RunSpec.engine`` builds it, over the
    slice's workload."""
    return RunSpec.make(app, arch, pressure, MICRO_SCALE).engine(
        traces=wls[app])


def _slice_workloads() -> dict:
    return {app: get_workload(app, MICRO_SCALE) for app in MATRIX_APPS}


def test_trace_cache_beats_regeneration(tmp_path):
    """A trace-store hit (keying + binary load + array reconstruction)
    must be cheaper than regenerating the same workload."""
    from repro.runtime.tracecache import TraceStore
    from repro.workloads import generate_workload

    app = "em3d"
    wl = generate_workload(app, scale=MICRO_SCALE)
    cold_s = best_of(3, lambda: generate_workload(app, scale=MICRO_SCALE))
    store = TraceStore(tmp_path)
    store.put(app, MICRO_SCALE, wl)
    hit_s = best_of(3, lambda: store.get(app, MICRO_SCALE))
    assert cold_s / hit_s > 1.0, (
        f"trace-cache hit ({hit_s:.4f}s) is not faster than cold "
        f"generation ({cold_s:.4f}s)")


def test_obs_overhead_within_budget(tmp_path):
    """The ``--obs`` budget from docs/observability.md.  The observed
    side adds exactly what the executor adds per cell under ``--obs``:
    a cell/simulate span pair, a kind-filtered
    :class:`~repro.obs.BackoffTelemetry`, the merged backoff rows and
    the per-cell summary record, written to a real JSONL sink.  A
    failure means an instrumentation site leaked onto the hot path
    (most likely an unfiltered observer, which disqualifies the run
    from the kernel)."""
    from repro.obs import BackoffTelemetry, ObsSink, SpanRecorder

    wls = _slice_workloads()
    specs = {cell: RunSpec.make(*cell, scale=MICRO_SCALE)
             for cell in MATRIX_CELLS}

    def plain() -> None:
        for cell in MATRIX_CELLS:
            _engine(wls, *cell).run()

    def observed() -> None:
        obs = SpanRecorder(ObsSink(tmp_path))
        for cell in MATRIX_CELLS:
            spec = specs[cell]
            telemetry = BackoffTelemetry()
            with obs.span("cell", spec=spec):
                engine = _engine(wls, *cell)
                telemetry.attach(engine)
                with obs.span("simulate", spec=spec):
                    engine.run()
                obs.backoff_rows(spec, telemetry.rows)
                obs.emit("backoff_summary", spec=spec.label(),
                         spec_hash=spec.spec_hash(), **telemetry.counters())
        obs.sink.close()

    plain_s, observed_s = best_of_alternating(OBS_ROUNDS, plain, observed)
    overhead = observed_s / plain_s
    assert overhead <= OBS_BUDGET, (
        f"--obs overhead {overhead:.3f}x exceeds the {OBS_BUDGET:.2f}x "
        f"budget (observed {observed_s:.4f}s vs plain {plain_s:.4f}s)")


def test_serve_warm_beats_cold_cli(tmp_path):
    """The serve layer's claim: with a resident
    :class:`~repro.serve.JobServer` (inline backend, primed result
    store), one submit->result round-trip for a cached cell must be at
    least 5x faster than ``python -m repro run`` of the same cached cell
    in a fresh process.  Interpreter start-up, imports and the store
    read count on the cold side; neither side simulates.  A failure
    means the server pays per-job costs it exists to amortise."""
    from repro.runtime import RunStore, execute
    from repro.serve import JobServer, ServeClient, ServerThread

    rounds = 20
    spec = RunSpec("fft", "ASCOMA", MATRIX_PRESSURE, 0.05)
    store = RunStore(tmp_path / "store")
    execute([spec], store=store, max_workers=1)  # prime the cache

    src_root = pathlib.Path(repro.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src_root))
    for var in ("REPRO_STORE_DIR", "REPRO_TRACE_DIR", "REPRO_OBS_DIR",
                "REPRO_SERVE_SOCKET"):
        env.pop(var, None)
    cmd = [sys.executable, "-m", "repro", "--scale", str(spec.scale),
           "--store-dir", str(store.root), "run", spec.app, spec.arch,
           "--pressure", str(spec.pressure)]

    def cold() -> None:
        proc = subprocess.run(cmd, env=env, cwd=tmp_path,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"cold CLI run failed:\n{proc.stderr}")

    cold_s = best_of(2, cold)
    sock = str(tmp_path / "s.sock")
    server = JobServer(sock, store=store, backend="inline", workers=2)
    with ServerThread(server), ServeClient(sock) as client:
        client.submit(spec, wait=True)  # prime connection + memo

        def warm() -> None:
            for _ in range(rounds):
                job = client.submit(spec, wait=True)
                client.result(job["id"])

        roundtrip_s = best_of(2, warm) / rounds
    speedup = cold_s / roundtrip_s
    assert speedup >= 5.0, (
        f"warm serve round-trip ({roundtrip_s:.4f}s) is only "
        f"{speedup:.1f}x faster than a cold CLI run ({cold_s:.4f}s); "
        f"the gate requires >=5x")


def test_vector_path_beats_scalar_by_3x():
    """The kernel's claim: >=3x over the reference loop on the matrix
    micro slice.  A failure means either the kernel fell back to the
    reference loop mid-matrix (an eligibility regression) or per-slice
    Python overhead crept into the drive loop.  Skipped without a
    working C compiler, where the engine degrades to the reference
    loop on purpose."""
    from repro.sim.soatrace import vector_available

    if not vector_available():
        pytest.skip("compiled SoA kernel unavailable on this host")
    wls = _slice_workloads()

    def replay(vector: bool) -> None:
        for cell in MATRIX_CELLS:
            engine = _engine(wls, *cell)
            engine.vector_path = vector
            engine.run()

    scalar_s = best_of(3, lambda: replay(False))
    vector_s = best_of(3, lambda: replay(True))
    speedup = scalar_s / vector_s
    assert speedup >= VECTOR_FLOOR, (
        f"vector path ({vector_s:.3f}s) is only {speedup:.2f}x faster than "
        f"the reference loop ({scalar_s:.3f}s); the gate requires "
        f">={VECTOR_FLOOR:.0f}x")
