"""Continuous-benchmark regression gate against the committed baseline.

Compares fresh runs of the headline benchmarks -- ``matrix_micro``
(default-dispatch replay throughput, vector-auto since PR 9),
``vector:matrix_micro`` (the vectorized SoA loop pinned explicitly)
and ``matrix_e2e`` (the full 90-cell parallel matrix) -- against the
numbers committed in ``BENCH_pr9.json`` at the repo root, and fails on
a >20% events/sec drop.  Hardware differences between the committing
machine and the test machine are real, so the gate is deliberately
loose -- it exists to catch order-of-magnitude regressions (an
accidentally disabled kernel, a per-event allocation creeping back
in, the trace cache silently missing), not single-digit noise.

Hardware-independent self-checks back it up, all measured as
same-process ratios: the vector path must beat the scalar reference
loop by >=3x when the compiled kernel is available, a
default-constructed engine must actually dispatch into the kernel
(the vector-auto claim -- a silent eligibility regression would
otherwise keep every gate green while the matrix quietly runs
scalar), a trace-cache hit must beat regeneration,
``--obs`` telemetry must stay within its budget, and a warm-server
round-trip must beat a cold CLI invocation by >=5x.  Two artifact
checks pin the committed payload itself: the embedded baseline must be
the PR-8 payload and its recorded ``matrix_e2e`` speedup must hold the
>=2x acceptance claim, and a fresh ``matrix_e2e`` must clear an
absolute throughput floor chosen to sit between scalar-default PR-8
throughput and the vector-default number on the same hardware class.

Opt-in: wall-clock assertions are inherently flaky on loaded CI
runners, so these tests skip unless ``REPRO_PERF=1`` is set::

    REPRO_PERF=1 PYTHONPATH=src python -m pytest benchmarks/test_perf_regression.py -v

They are additionally marked ``perf`` for selection via ``-m perf``.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.perf import bench_matrix_micro, load_bench_json

BENCH_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCH_pr9.json"

#: Fail below this fraction of the committed throughput.
FLOOR = 0.8

#: Minimum scalar->vector speedup on the matrix micro slice, enforced
#: whenever the compiled SoA kernel is available on this host.
VECTOR_FLOOR = 3.0

#: Minimum committed matrix_e2e speedup over the embedded PR-8
#: baseline -- the PR-9 acceptance claim, checked against the artifact
#: (both payloads were measured on the same machine and session, so
#: the ratio is hardware-comparable in a way fresh-vs-committed never
#: is).
E2E_CLAIM = 2.0

#: Absolute matrix_e2e throughput floor (events/sec) on a fresh run.
#: Calibrated to split the substrates on commodity hardware: the PR-8
#: scalar-default matrix ran at ~0.78M ev/s on a 1-core host and the
#: PR-9 vector-default matrix at ~2.2M ev/s on the same host, so 1.0M
#: passes vector-auto with >2x margin while an accidental whole-matrix
#: fallback to the scalar path lands below it.
E2E_ABS_FLOOR = 1_000_000

#: ``--obs`` overhead budget on the matrix micro slice.  The absolute
#: telemetry cost (spans + kind-filtered backoff rows + JSONL sink,
#: ~10ms on the slice) has not moved since the 1.02x era, but the
#: vector-default replay base under it is ~4x faster, so the same
#: work is a larger *fraction*; 1.10x keeps gating the failure mode
#: that matters (an unfiltered observer disabling kernel eligibility
#: costs 3-4x, not 10%).
OBS_BUDGET = 1.10

pytestmark = [
    pytest.mark.perf,
    pytest.mark.skipif(os.environ.get("REPRO_PERF", "") != "1",
                       reason="perf regression gate runs only with REPRO_PERF=1"),
]


@pytest.fixture(scope="module")
def payload() -> dict:
    if not BENCH_JSON.exists():
        pytest.skip(f"no committed benchmark file at {BENCH_JSON}")
    return load_bench_json(BENCH_JSON)


@pytest.fixture(scope="module")
def committed(payload) -> dict:
    return {r["name"]: r for r in payload["results"]}


def test_matrix_micro_throughput(committed):
    base = committed.get("matrix_micro")
    assert base, f"{BENCH_JSON.name} has no matrix_micro entry"
    fresh = bench_matrix_micro(repeats=3)
    # Same benchmark definition, or the comparison is meaningless.
    assert fresh.events == base["events"], (
        f"matrix_micro workload changed; regenerate {BENCH_JSON.name}")
    floor = FLOOR * base["events_per_sec"]
    assert fresh.events_per_sec >= floor, (
        f"matrix_micro regressed: {fresh.events_per_sec:,.0f} ev/s is below "
        f"{FLOOR:.0%} of the committed {base['events_per_sec']:,.0f} ev/s")


def test_vector_matrix_micro_throughput(committed):
    """Absolute gate on the vectorized loop against the committed
    baseline, mirroring the scalar matrix_micro gate.  Skipped when
    the compiled kernel is unavailable -- a degraded vector run would
    measure the reference loop and fail spuriously."""
    from repro.perf import bench_vector_matrix_micro
    from repro.sim.soatrace import vector_available

    if not vector_available():
        pytest.skip("compiled SoA kernel unavailable on this host")
    base = committed.get("vector:matrix_micro")
    assert base, f"{BENCH_JSON.name} has no vector:matrix_micro entry"
    fresh = bench_vector_matrix_micro(repeats=3)
    assert fresh.events == base["events"], (
        f"vector:matrix_micro workload changed; regenerate {BENCH_JSON.name}")
    floor = FLOOR * base["events_per_sec"]
    assert fresh.events_per_sec >= floor, (
        f"vector:matrix_micro regressed: {fresh.events_per_sec:,.0f} ev/s is "
        f"below {FLOOR:.0%} of the committed {base['events_per_sec']:,.0f} "
        f"ev/s")


def test_matrix_e2e_throughput(committed):
    """End-to-end gate: trace cache + dispatch + engine, all at once,
    plus the absolute floor backing the PR-9 vector-default claim on
    this hardware class (see ``E2E_ABS_FLOOR``)."""
    from repro.perf import bench_matrix_e2e

    base = committed.get("matrix_e2e")
    assert base, f"{BENCH_JSON.name} has no matrix_e2e entry"
    fresh = bench_matrix_e2e(repeats=2)
    assert fresh.events == base["events"], (
        f"matrix_e2e cell set changed; regenerate {BENCH_JSON.name}")
    floor = FLOOR * base["events_per_sec"]
    assert fresh.events_per_sec >= floor, (
        f"matrix_e2e regressed: {fresh.events_per_sec:,.0f} ev/s is below "
        f"{FLOOR:.0%} of the committed {base['events_per_sec']:,.0f} ev/s")
    assert fresh.events_per_sec >= E2E_ABS_FLOOR, (
        f"matrix_e2e at {fresh.events_per_sec:,.0f} ev/s is below the "
        f"absolute {E2E_ABS_FLOOR:,} ev/s floor -- throughput in the "
        f"scalar-default range suggests the matrix is no longer replaying "
        f"through the vector kernel")


def test_committed_e2e_speedup_claim(payload):
    """Artifact check on the committed payload itself: the embedded
    baseline is the PR-8 payload and the recorded ``matrix_e2e``
    speedup holds the >=2x acceptance claim.  Both sides of that ratio
    were measured on the committing machine in one session, so unlike
    every fresh-vs-committed comparison above it does not loosen for
    hardware differences."""
    baseline = payload.get("baseline")
    assert baseline, f"{BENCH_JSON.name} embeds no baseline payload"
    base_e2e = {r["name"]: r for r in baseline["results"]}.get("matrix_e2e")
    assert base_e2e, f"{BENCH_JSON.name}'s embedded baseline has no matrix_e2e"
    speedup = payload["speedup_vs_baseline"].get("matrix_e2e")
    assert speedup is not None, (
        f"{BENCH_JSON.name} records no matrix_e2e speedup_vs_baseline")
    assert speedup >= E2E_CLAIM, (
        f"committed matrix_e2e speedup {speedup:.2f}x over the embedded "
        f"baseline ({base_e2e['wall_s']:.1f}s) is below the {E2E_CLAIM:.0f}x "
        f"claim; regenerate {BENCH_JSON.name} on a quiet machine or fix the "
        f"regression")


def test_vector_default_engages_kernel(monkeypatch):
    """Same-process self-check of the vector-auto default: a
    default-constructed :class:`Engine` (no flags, no environment
    overrides) must dispatch into the compiled kernel and complete
    without falling back.  The parity suites prove the kernel is
    *correct* when selected; only this test proves it is *selected* --
    an eligibility regression (or a dispatch typo) would otherwise
    degrade every default run to the scalar path silently, and the
    relative gates above would only notice after a committed-baseline
    refresh."""
    from repro.harness.experiment import get_workload, scaled_policy
    from repro.sim import soatrace
    from repro.sim.config import SystemConfig
    from repro.sim.engine import Engine, default_vector_mode

    monkeypatch.delenv("REPRO_VECTOR_PATH", raising=False)
    assert default_vector_mode() == "auto", (
        "a clean environment must dispatch in vector-auto mode")
    if not soatrace.vector_available():
        pytest.skip("compiled SoA kernel unavailable on this host")

    outcomes = []
    real_run_vector = soatrace.run_vector

    def probe(engine):
        result = real_run_vector(engine)
        outcomes.append(result)
        return result

    # Engine._run_vector imports run_vector lazily from the module, so
    # patching the module attribute intercepts the dispatch.
    monkeypatch.setattr(soatrace, "run_vector", probe)
    wl = get_workload("fft", 0.05)
    cfg = SystemConfig(n_nodes=wl.n_nodes, memory_pressure=0.7)
    Engine(wl, scaled_policy("ASCOMA"), config=cfg).run()
    assert outcomes, "default-constructed Engine never reached run_vector"
    assert outcomes[0] is not None, (
        "run_vector fell back to the scalar path on a plain matrix cell; "
        "kernel eligibility has regressed")


def test_trace_cache_beats_regeneration():
    """Hardware-independent self-check of the tracegen_cached claim: a
    cache hit must be cheaper than regenerating the workload, measured
    in the same process (the cold wall is recorded in the bench's own
    meta)."""
    from repro.perf import bench_trace_generation_cached

    result = bench_trace_generation_cached("em3d", repeats=3)
    assert result.meta["speedup_x"] > 1.0, (
        f"trace-cache hit ({result.wall_s:.4f}s) is not faster than cold "
        f"generation ({result.meta['cold_wall_s']:.4f}s)")


def test_obs_overhead_within_budget():
    """The ``--obs`` budget from docs/observability.md: full telemetry
    (cell/simulate spans, kind-filtered backoff time series, JSONL
    sink) must stay within ``OBS_BUDGET`` wall-clock on the matrix
    micro slice.  Measured as a same-process ratio, so the gate is
    hardware independent; a failure means an instrumentation site
    leaked onto the hot path (most likely by subscribing an unfiltered
    observer, which disqualifies the run from the vector kernel)."""
    from repro.perf import bench_obs_overhead

    result = bench_obs_overhead(repeats=3)
    assert result.meta["overhead_x"] <= OBS_BUDGET, (
        f"--obs overhead {result.meta['overhead_x']:.3f}x exceeds the "
        f"{OBS_BUDGET:.2f}x budget (observed {result.wall_s:.4f}s vs plain "
        f"{result.meta['plain_wall_s']:.4f}s)")


def test_serve_warm_beats_cold_cli():
    """The serve layer's acceptance claim: a warm-server submit->result
    round-trip for a cached cell must be at least 5x faster than a cold
    ``repro run`` process invocation of the same cached cell.  Measured
    as a same-machine ratio (both sides pay this host's disk and CPU),
    so the gate is hardware independent; a failure means the server is
    paying per-job costs it exists to amortise (imports, trace/store
    setup, pool spin-up) on every submit."""
    from repro.perf import bench_serve_warm

    result = bench_serve_warm(repeats=2)
    assert result.meta["speedup_x"] >= 5.0, (
        f"warm serve round-trip ({result.meta['roundtrip_s']:.4f}s) is only "
        f"{result.meta['speedup_x']:.1f}x faster than a cold CLI run "
        f"({result.meta['cold_cli_s']:.4f}s); the gate requires >=5x")


def test_vector_path_beats_scalar_by_3x():
    """The vectorized loop's acceptance claim: >=3x over the scalar
    reference loop on the matrix micro slice, measured in the same
    process on this machine so the gate is hardware independent.  A
    failure means either the kernel fell back to scalar replay
    mid-matrix (an eligibility regression) or per-slice Python overhead
    crept into the drive loop.  Skipped without a working C compiler,
    where the vector engine intentionally degrades to the reference
    loop."""
    from repro.perf import bench_vector_matrix_micro
    from repro.sim.soatrace import vector_available

    if not vector_available():
        pytest.skip("compiled SoA kernel unavailable on this host")
    result = bench_vector_matrix_micro(repeats=3)
    assert result.meta["speedup_x"] >= VECTOR_FLOOR, (
        f"vector path ({result.wall_s:.3f}s) is only "
        f"{result.meta['speedup_x']:.2f}x faster than the scalar reference "
        f"loop ({result.meta['scalar_wall_s']:.3f}s); the gate requires "
        f">={VECTOR_FLOOR:.0f}x")
