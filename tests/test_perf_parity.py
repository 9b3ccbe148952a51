"""Replay parity: the kernel must be bit-identical to the reference loop.

The engine carries two replay loops (see the module docstring of
``repro.sim.engine``): the compiled SoA kernel that every eligible run
takes by default (``repro.sim.soatrace``), and the straightforward
reference loop (``Engine(vector_path=False)``) that is both its oracle
and the fallback for every run the kernel cannot take.  The kernel is
required to be a *bit-identical* transformation, so these tests compare
complete ``RunResult.to_dict()`` payloads -- every node's every stats
bucket, miss-class counter and clock -- across every architecture, two
workloads with different locality profiles, and two memory-pressure
regimes, and additionally pin the serialized store bytes (what
``RunStore.put`` persists and hashes by spec) to be identical
regardless of which loop produced the result.

If one of these fails after an engine change, the kernel has diverged
from the model: fix the kernel (or fold the change into
``_shared_ref``, which both loops share), never the reference loop.
"""

import functools
import hashlib
import json

import pytest

from repro.harness.experiment import ARCHITECTURES, get_workload, scaled_policy
from repro.sim.config import SystemConfig
from repro.sim.engine import Engine
from repro.sim.soatrace import vector_available
from tests.conftest import MACHINE_VARIANTS

SCALE = 0.1
#: fft is RAC/home-friendly, radix is eviction- and relocation-heavy;
#: 0.3 vs 0.9 pressure flips the page cache between roomy and thrashing.
APPS = ("fft", "radix")
PRESSURES = (0.3, 0.9)

CELLS = [(app, arch, pressure)
         for app in APPS for arch in ARCHITECTURES for pressure in PRESSURES]


def make_engine(app, arch, pressure, *, config_kwargs=None,
                **engine_kwargs):
    wl = get_workload(app, SCALE)
    cfg = SystemConfig(n_nodes=wl.n_nodes, memory_pressure=pressure,
                       **(config_kwargs or {}))
    return Engine(wl, scaled_policy(arch), config=cfg, **engine_kwargs)


def run_cell(app, arch, pressure, *, config_kwargs=None, **engine_kwargs):
    return make_engine(app, arch, pressure, config_kwargs=config_kwargs,
                       **engine_kwargs).run().to_dict()


def wide_workload():
    from repro.workloads import synthetic
    return synthetic.generate(
        n_nodes=96, home_pages_per_node=3, remote_pages_per_node=5,
        sweeps=3, lines_per_visit=6, hot_fraction=0.7,
        write_fraction=0.3, home_lines_per_sweep=16, seed=11)


def wide_engine(arch, **engine_kwargs):
    """A 96-node machine: copysets are two 64-bit words per chunk."""
    from repro.core import make_policy
    kwargs = {"ascoma": dict(threshold=8, increment=4)}.get(arch, {})
    cfg = SystemConfig(n_nodes=96, memory_pressure=0.6)
    return Engine(wide_workload(), make_policy(arch, **kwargs), cfg,
                  **engine_kwargs)


def placed_engine(placement, arch, **engine_kwargs):
    """radix at 0.9 pressure homed by a locality-blind allocator: most
    pages' homes are away from their first toucher."""
    return make_engine("radix", arch, 0.9,
                       config_kwargs={"home_placement": placement},
                       **engine_kwargs)


def variant_engine(variant, arch, **engine_kwargs):
    """radix at 0.9 pressure on one of ``MACHINE_VARIANTS``."""
    return make_engine("radix", arch, 0.9,
                       config_kwargs=MACHINE_VARIANTS[variant],
                       **engine_kwargs)


#: The shapes the parity suites replay both ways, by name.
SHAPES = {
    "matrix": make_engine,
    "96_node": wide_engine,
    # page_bytes=16384 -> 128 chunks per page: two valid-bit words.
    "wide_pages": functools.partial(make_engine, "radix", pressure=0.9,
                                    config_kwargs={"page_bytes": 16384}),
    "placement": placed_engine,
    "variant": variant_engine,
}


#: (shape, args, vector_path) -> the digests of every state buffer at
#: each barrier release of that replay (see buffer_digests).
_BARRIER_SNAPSHOTS = {}


@functools.lru_cache(maxsize=None)
def replayed(shape, args, vector_path):
    """``(engine, RunResult.to_dict())`` after one replay of a shape,
    shared by the result-level and the full-state parity checks.  An
    ``EV_BARRIER`` subscriber snapshots the machine at every barrier
    release (:func:`barrier_snapshots`)."""
    from repro.sim.events import EV_BARRIER
    engine = SHAPES[shape](*args, vector_path=vector_path)
    snapshots = _BARRIER_SNAPSHOTS[shape, args, vector_path] = []
    engine.machine.events.subscribe(
        lambda event: snapshots.append(buffer_digests(engine)),
        (EV_BARRIER,))
    return engine, engine.run().to_dict()


def barrier_snapshots(shape, args, vector_path) -> list:
    """The state-buffer digests at each barrier release of a replay."""
    replayed(shape, args, vector_path)
    return _BARRIER_SNAPSHOTS[shape, args, vector_path]


def _content_hash(payload: dict) -> str:
    """Hash of the canonical store serialization of a result payload."""
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


class TestTwoWayParity:
    """The differential matrix: reference x kernel, every arch.

    ``vector_path=True`` asks for the kernel.  When the compiled kernel
    is unavailable the engine degrades to the reference loop, which
    keeps the assertions valid but vacuous -- so the availability probe
    is asserted separately (and the CI default legs run where a
    compiler is guaranteed).
    """

    @pytest.mark.parametrize("app,arch,pressure", CELLS)
    def test_two_way_matrix(self, app, arch, pressure):
        _, reference = replayed("matrix", (app, arch, pressure), False)
        _, vector = replayed("matrix", (app, arch, pressure), True)
        assert vector == reference
        # Byte-level, not just structural: the store persists JSON, so
        # the hash of the canonical serialization is what a spec-keyed
        # store entry would carry.  One hash means either loop's result
        # can service the other loop's cache hit.
        assert _content_hash(vector) == _content_hash(reference)

    @pytest.mark.parametrize("arch", ("CCNUMA", "ASCOMA"))
    def test_associative_l1_parity(self, arch):
        """l1_ways=2 is outside the kernel's model: the default
        dispatch must fall back to the reference loop loss-free (the
        lookup()-based branch of ``_shared_ref``)."""
        cfg = {"l1_ways": 2}
        auto = run_cell("fft", arch, 0.7, config_kwargs=cfg,
                        vector_path=True)
        reference = run_cell("fft", arch, 0.7, config_kwargs=cfg,
                             vector_path=False)
        assert auto == reference

    def test_store_bytes_identical_across_paths(self, tmp_path, monkeypatch):
        """End-to-end store check: the exact bytes RunStore writes must
        not depend on the loop that produced the result."""
        import repro.sim.soatrace as soatrace
        from repro.runtime.spec import RunSpec
        from repro.runtime.store import RunStore

        spec = RunSpec(app="fft", arch="ASCOMA", pressure=0.9, scale=SCALE)

        def stored(name):
            store = RunStore(tmp_path / name)
            return store.put(spec, spec.execute()).read_bytes()

        vector = stored("store-vector")
        # run_vector answers None, as it does when no kernel loads, so
        # the engine falls back to the reference loop.
        monkeypatch.setattr(soatrace, "run_vector", lambda engine: None)
        assert stored("store-reference") == vector

    def test_kernel_availability_probe(self):
        """vector_available() must answer without raising; on CI's
        default legs a compiler is present, so the probe must succeed
        there (asserted via the env contract below)."""
        import os
        available = vector_available()
        assert isinstance(available, bool)
        if os.environ.get("REPRO_EXPECT_VECTOR", "") == "1":
            assert available


class TestWidenedEligibility:
    """Shapes the kernel replays natively: >62 nodes (multi-word
    copysets), >62 chunks per page (multi-word S-COMA valid bitmaps)
    and kind-filtered event-bus observers (served by the in-kernel
    event ring).  Each gets the same two-way bit-identity check as the
    core matrix."""

    @pytest.mark.parametrize("arch", ("ascoma", "ccnuma", "scoma"))
    def test_96_node_two_way(self, arch):
        _, reference = replayed("96_node", (arch,), False)
        _, vector = replayed("96_node", (arch,), True)
        assert vector == reference
        assert _content_hash(vector) == _content_hash(reference)

    @pytest.mark.parametrize("arch", ("ASCOMA", "SCOMA"))
    def test_wide_pages_two_way(self, arch):
        """page_bytes=16384 -> 128 chunks per page: the S-COMA valid
        bitmap no longer fits one word."""
        _, reference = replayed("wide_pages", (arch,), False)
        _, vector = replayed("wide_pages", (arch,), True)
        assert vector == reference

    def test_widened_shapes_pass_preflight(self):
        """_eligible itself (no kernel needed): 96 nodes and a
        kind-filtered observer must both pass."""
        from repro.obs.backoff import BackoffTelemetry
        from repro.sim.soatrace import _eligible
        engine = wide_engine("ascoma")
        BackoffTelemetry().attach(engine)
        assert _eligible(engine)


def state_buffers(engine) -> dict:
    """Every state buffer the kernel reads or writes, counter rows
    included, as raw bytes."""
    machine = engine.machine
    blocks = machine.blocks
    state = {name: getattr(blocks, name).tobytes()
             for name in type(blocks).__slots__}
    directory = machine.directory
    state["copyset"] = directory.copyset.tobytes()
    state["owner"] = directory.owner.tobytes()
    state["refetch"] = directory.refetch_count.tobytes()
    state["home"] = machine.allocator.home.tobytes()
    state["allocator"] = machine.allocator.row.tobytes()
    state["net_port"] = machine.network.port_busy_until.tobytes()
    state["machine_counters"] = machine.counters.tobytes()
    return state


def buffer_digests(engine) -> dict:
    """:func:`state_buffers`, each buffer as a short digest."""
    return {name: hashlib.sha256(data).hexdigest()[:16]
            for name, data in state_buffers(engine).items()}


def hidden_counters(engine) -> dict:
    """The model state no buffer holds: each node's pageout daemon and
    VC-NUMA's break-even detector."""
    out = {}
    for node in engine.machine.nodes:
        daemon = node.daemon
        detector = getattr(node.policy_state, "detector", None)
        out[node.id] = {
            "detector": detector and (
                detector.threshold, detector.evaluations, detector.backoffs,
                detector.recoveries),
            "daemon": (daemon.interval, daemon.next_run_at),
        }
    return out


def assert_same_machine(shape, args):
    """After a reference and a kernel replay of the shape, every state
    buffer is identical at each barrier release and at the end, and so
    is every hidden counter."""
    reference, _ = replayed(shape, args, False)
    vector, _ = replayed(shape, args, True)
    ref_snaps = barrier_snapshots(shape, args, False)
    vec_snaps = barrier_snapshots(shape, args, True)
    assert ref_snaps and len(vec_snaps) == len(ref_snaps)
    for barrier, (ref, vec) in enumerate(zip(ref_snaps, vec_snaps)):
        assert vec == ref, (barrier, [name for name in ref
                                      if vec[name] != ref[name]])
    ref_state, vec_state = state_buffers(reference), state_buffers(vector)
    assert ref_state.keys() == vec_state.keys()
    for name in ref_state:
        assert vec_state[name] == ref_state[name], name
    assert hidden_counters(vector) == hidden_counters(reference)


class TestFullStateParity:
    """Beyond the results: during and after a reference and a kernel
    replay of the same cell, every state buffer, counter rows included,
    is byte-identical at each barrier release and at the end, and so is
    the model state the buffers leave out."""

    @pytest.mark.parametrize("app,arch,pressure", CELLS)
    def test_matrix_full_state(self, app, arch, pressure):
        assert_same_machine("matrix", (app, arch, pressure))

    @pytest.mark.parametrize("arch", ("ascoma", "ccnuma", "scoma"))
    def test_96_node_full_state(self, arch):
        assert_same_machine("96_node", (arch,))

    @pytest.mark.parametrize("arch", ("ASCOMA", "SCOMA"))
    def test_wide_pages_full_state(self, arch):
        assert_same_machine("wide_pages", (arch,))

    @pytest.mark.parametrize("arch", ("ASCOMA", "VCNUMA"))
    @pytest.mark.parametrize("variant", sorted(MACHINE_VARIANTS))
    def test_machine_variant_full_state(self, variant, arch):
        """Each machine variant is inside the kernel's model, so it
        replays there wherever a kernel loads, with the reference
        loop's result and state."""
        from repro.sim.soatrace import _eligible
        engine, vector = replayed("variant", (variant, arch), True)
        _, reference = replayed("variant", (variant, arch), False)
        assert _eligible(engine)
        assert vector == reference
        assert_same_machine("variant", (variant, arch))


def kernel_visible_state(engine) -> list:
    """Every model attribute that holds kernel-visible state."""
    machine = engine.machine
    directory = machine.directory
    allocator = machine.allocator
    held = [engine._home, allocator.home, allocator.row, allocator.count,
            directory.copyset, directory.owner, directory.refetch_count,
            directory.row, machine.network.port_busy_until,
            machine.network._base, machine.network.row, machine.protocol.row]
    held += [bus.busy_until for bus in machine.buses]
    held += [bus.row for bus in machine.buses]
    for node in machine.nodes:
        pt, state = node.page_table, node.policy_state
        held += [pt.mode, pt.scoma_valid, pt.scoma_clock, node.pool,
                 node.daemon.pool, node.owned, node.ever_fetched,
                 node.pagecache_hits, node.ref_bits, node.daemon.ref_bits,
                 node.l1.tags, node.rac.chunks, node.memory.busy_until,
                 state, state.row, node.stats, node.stats.row,
                 node.memory.row]
        detector = getattr(state, "detector", None)
        if detector is not None:
            held += [detector, detector.row]
    return held


def test_kernel_run_rebinds_no_model_state(monkeypatch):
    """The kernel works on the models' own buffers: after a run that
    dispatched into it, every state-holding attribute is the object it
    was at construction (VC-NUMA adds the break-even detector's)."""
    import repro.sim.soatrace as soatrace

    calls = []
    run_vector = soatrace.run_vector

    def probe(eng):
        clock = run_vector(eng)
        calls.append(clock is not None)
        return clock

    monkeypatch.setattr(soatrace, "run_vector", probe)
    for arch in ("ASCOMA", "VCNUMA"):
        engine = make_engine("radix", arch, 0.9, vector_path=True)
        before = kernel_visible_state(engine)
        engine.run()
        after = kernel_visible_state(engine)
        assert len(after) == len(before)
        assert all(a is b for a, b in zip(after, before))
    if vector_available():
        assert calls == [True, True]


class TestObsTimelineParity:
    """--obs must observe the *same simulation* whichever loop runs it:
    the BackoffTelemetry row stream (every daemon decision with its
    clock, every phase row) and its counters must be byte-equal across
    kernel and reference replays, and so must the invalidate/demote
    stream the kernel's event ring defers to kind-filtered
    subscribers."""

    def _run_with_obs(self, **engine_kwargs):
        from repro.obs.backoff import BackoffTelemetry
        wl = get_workload("radix", SCALE)
        cfg = SystemConfig(n_nodes=wl.n_nodes, memory_pressure=0.9)
        engine = Engine(wl, scaled_policy("ASCOMA"), config=cfg,
                        **engine_kwargs)
        telemetry = BackoffTelemetry().attach(engine)
        result = engine.run().to_dict()
        return result, telemetry

    def test_backoff_timeline_identical_across_loops(self):
        r_ref, t_ref = self._run_with_obs(vector_path=False)
        r_vec, t_vec = self._run_with_obs(vector_path=True)
        assert r_vec == r_ref
        assert t_ref.rows, "radix@0.9 must produce daemon activity"
        assert t_vec.rows == t_ref.rows
        assert t_vec.counters() == t_ref.counters()

    @staticmethod
    def _ping_pong_workload():
        """Two nodes that each write one line and read another of the
        same 8 lines of page 0, 40,000 times: a steady stream of
        invalidations and demotions with no Python exit to drain
        them."""
        from repro.sim.trace import TraceBuilder, WorkloadTraces
        traces = []
        for _ in range(2):
            b = TraceBuilder()
            for i in range(40_000):
                b.write(i % 8)
                b.read((i + 4) % 8)
            traces.append(b.build())
        return WorkloadTraces("ping-pong", traces, home_pages_per_node=1,
                              total_shared_pages=2)

    def test_saturated_event_ring_parity(self, monkeypatch):
        """More watched invalidations and demotions than the ring holds
        between exits: the kernel must leave through ``RC_RING``, and
        ``_flush_ring`` must publish the same ``(kind, node, page,
        clock, detail)`` stream as the reference loop."""
        from repro.core import make_policy
        from repro.sim import soatrace
        from repro.sim.events import EV_DEMOTE, EV_INVALIDATE

        if not vector_available():
            pytest.skip("compiled kernel unavailable")
        ffi, lib = soatrace._load_kernel()
        exits = []

        class CountingLib:
            def soa_run(self, state):
                exits.append(lib.soa_run(state))
                return exits[-1]

        monkeypatch.setattr(soatrace, "_KERNEL", (ffi, CountingLib()))

        def replay(vector_path):
            engine = Engine(self._ping_pong_workload(), make_policy("CCNUMA"),
                            SystemConfig(n_nodes=2, memory_pressure=0.5),
                            quantum=10, vector_path=vector_path)
            seen = []
            engine.machine.events.subscribe(
                lambda ev: seen.append((ev.kind, ev.node, ev.page, ev.clock,
                                        ev.detail)),
                kinds=(EV_INVALIDATE, EV_DEMOTE))
            return engine.run().to_dict(), seen

        r_vec, s_vec = replay(True)
        r_ref, s_ref = replay(False)
        assert exits.count(soatrace._EXIT.RING) >= 1
        assert {kind for kind, *_ in s_ref} == {EV_INVALIDATE, EV_DEMOTE}
        assert s_vec == s_ref
        assert r_vec == r_ref


def python_exits(engine) -> dict:
    """Record *engine*'s ``_shared_ref`` and ``_handle_relocation_hint``
    calls made through the instance, as ``run_vector``'s residual and
    hint exits make them: name -> list of call arguments."""
    calls = {}
    for name in ("_shared_ref", "_handle_relocation_hint"):
        method, log = getattr(engine, name), calls.setdefault(name, [])

        def counted(*args, _method=method, _log=log):
            _log.append(args)
            return _method(*args)

        setattr(engine, name, counted)
    return calls


def watched_replay(monkeypatch, cell, vector_path, attach):
    """Replay *cell* ``(app, arch, pressure, scale)`` with *attach(engine)*
    run first.  Returns the result payload and the outcome of every
    ``run_vector`` call: True when it returned clocks (the kernel ran),
    False when it refused the run."""
    from repro.sim import soatrace
    app, arch, pressure, scale = cell
    wl = get_workload(app, scale)
    cfg = SystemConfig(n_nodes=wl.n_nodes, memory_pressure=pressure)
    engine = Engine(wl, scaled_policy(arch), config=cfg,
                    vector_path=vector_path)
    attach(engine)
    outcomes = []
    real_run_vector = soatrace.run_vector

    def probe(eng):
        clock = real_run_vector(eng)
        outcomes.append(clock is not None)
        return clock

    with monkeypatch.context() as patch:
        patch.setattr(soatrace, "run_vector", probe)
        result = engine.run().to_dict()
    return result, outcomes


def stream_of(kinds, seen):
    """attach() hook: subscribe to *kinds*, appending each event's
    ``(kind, node, page, clock, detail)`` to *seen*."""
    def attach(engine):
        engine.machine.events.subscribe(
            lambda ev: seen.append((ev.kind, ev.node, ev.page, ev.clock,
                                    ev.detail)), kinds)
    return attach


class TestWatchedKinds:
    """Every observer names its kinds, and every kind reaches its
    subscribers from the kernel too, with the reference loop's events,
    clocks and order: the transitions the kernel performs through its
    event ring, the rest from the Python exits that perform them."""

    THRASH = ("em3d", "RNUMA", 0.9, SCALE)

    def test_page_kinds_reach_a_kind_filtered_subscriber(self, monkeypatch):
        """A subscriber naming the six page-management kinds receives
        exactly what an every-kind subscriber receives of them, on
        both loops, and the run replays on the kernel."""
        from repro.sim.events import (ALL_KINDS, EV_EVICT, EV_FAULT,
                                      EV_FLUSH, EV_MAP_SCOMA, EV_MIGRATE,
                                      EV_RELOCATE)
        page_kinds = (EV_FAULT, EV_MAP_SCOMA, EV_EVICT, EV_RELOCATE,
                      EV_FLUSH, EV_MIGRATE)
        streams = {}
        for vector_path in (False, True):
            named, everything = [], []
            result, outcomes = watched_replay(
                monkeypatch, self.THRASH, vector_path,
                stream_of(page_kinds, named))
            assert outcomes == ([vector_available()] if vector_path
                                else [])
            full, _ = watched_replay(monkeypatch, self.THRASH, vector_path,
                                     stream_of(ALL_KINDS, everything))
            assert result == full
            assert named == [ev for ev in everything if ev[0] in page_kinds]
            streams[vector_path] = named
        assert streams[True] == streams[False]
        counts = {kind: sum(ev[0] == kind for ev in streams[False])
                  for kind in page_kinds}
        assert counts == {EV_FAULT: 200, EV_MAP_SCOMA: 218, EV_EVICT: 203,
                          EV_RELOCATE: 218, EV_FLUSH: 421, EV_MIGRATE: 0}

    @pytest.mark.parametrize("kind", ("fault", "map_scoma", "evict",
                                      "flush"))
    def test_page_kind_rides_the_kernel(self, monkeypatch, kind):
        """The kernel records the faults, S-COMA mappings, forced
        evictions and flushes it performs in its event ring: a run
        watching one of those kinds stays on the kernel, with the
        reference loop's stream and result (pure S-COMA at 0.9
        pressure makes all four in the kernel)."""
        if not vector_available():
            pytest.skip("compiled kernel unavailable")
        cell = ("radix", "SCOMA", 0.9, SCALE)
        s_ref, s_vec = [], []
        r_ref, _ = watched_replay(monkeypatch, cell, False,
                                  stream_of((kind,), s_ref))
        r_vec, outcomes = watched_replay(monkeypatch, cell, True,
                                         stream_of((kind,), s_vec))
        assert outcomes == [True]
        assert s_ref and s_vec == s_ref
        assert r_vec == r_ref

    EXITS = ("relocate", "migrate", "daemon", "barrier")

    @pytest.mark.parametrize("cell,kinds,published", [
        (THRASH, ("relocate",), {"relocate"}),
        (THRASH, EXITS, {"relocate", "daemon", "barrier"}),
        (("em3d", "CCNUMAMIG", 0.9, SCALE), EXITS, {"migrate", "barrier"}),
        (THRASH, EXITS + ("end", "invalidate", "demote"),
         {"relocate", "daemon", "barrier", "end", "invalidate", "demote"}),
    ], ids=["relocate", "python-exits", "migrate", "kernel-published"])
    def test_published_kinds_ride_the_kernel(self, monkeypatch, cell, kinds,
                                             published):
        """Kinds published from the ring or a Python exit keep the run
        on the kernel, with the reference loop's stream and result.
        *published* names the kinds the cell actually produces."""
        if not vector_available():
            pytest.skip("compiled kernel unavailable")
        s_ref, s_vec = [], []
        r_ref, _ = watched_replay(monkeypatch, cell, False,
                                  stream_of(kinds, s_ref))
        r_vec, outcomes = watched_replay(monkeypatch, cell, True,
                                         stream_of(kinds, s_vec))
        assert outcomes == [True]
        assert {ev[0] for ev in s_ref} == published
        assert s_vec == s_ref
        assert r_vec == r_ref

    @pytest.mark.parametrize("cell", [
        ("em3d", "ASCOMA", 0.9, 0.35),
        ("em3d", "RNUMA", 0.7, 0.2),
        ("fft", "VCNUMA", 0.9, 0.2),
        ("radix", "SCOMA", 0.9, 0.2),
        ("lu", "ASCOMA", 0.7, 0.2),
    ], ids=lambda cell: f"{cell[0]}-{cell[1]}-{cell[2]}-{cell[3]}")
    def test_sampler_rides_the_kernel(self, monkeypatch, cell):
        """The time-series sampler subscribes to barrier releases only,
        and every field it reads is live at that exit, so a sampled
        run replays on the kernel with the reference loop's samples."""
        from repro.sim.timeseries import TimeSeriesSampler
        if not vector_available():
            pytest.skip("compiled kernel unavailable")
        samplers = {}

        def attach(engine):
            samplers[engine.vector_path] = TimeSeriesSampler().attach(engine)

        r_ref, _ = watched_replay(monkeypatch, cell, False, attach)
        r_vec, outcomes = watched_replay(monkeypatch, cell, True, attach)
        assert outcomes == [True]
        ref = [s.as_dict() for s in samplers[False].samples]
        vec = [s.as_dict() for s in samplers[True].samples]
        assert ref and vec == ref
        assert r_vec == r_ref


class TestVectorModeSelection:
    """Loop selection: ``Engine(vector_path=True)``, the default, tries
    the kernel and falls back loss-free; ``vector_path=False`` runs the
    reference loop directly."""

    def _engine(self, **kwargs):
        wl = get_workload("fft", SCALE)
        cfg = SystemConfig(n_nodes=wl.n_nodes, memory_pressure=0.5)
        return Engine(wl, scaled_policy("ASCOMA"), config=cfg, **kwargs)

    def test_default_mode_is_auto(self, monkeypatch):
        """A default-constructed engine picks its loop itself: it tries
        the kernel first, on any host."""
        import repro.sim.soatrace as soatrace
        calls = []
        monkeypatch.setattr(soatrace, "run_vector",
                            lambda engine: calls.append(engine))
        engine = self._engine()
        engine.run()
        assert calls == [engine]

    @pytest.mark.parametrize("vector_path", [True, False])
    def test_dispatch_reaches_kernel(self, monkeypatch, vector_path):
        """run() must route through run_vector exactly when the
        constructor asks for the kernel, falling back losslessly."""
        import repro.sim.soatrace as soatrace
        calls = []

        def probe(engine):
            calls.append(engine)
            return None  # degrade: the engine must finish on the reference

        monkeypatch.setattr(soatrace, "run_vector", probe)
        result = self._engine(vector_path=vector_path).run().to_dict()
        assert bool(calls) is vector_path
        assert result == self._engine(vector_path=False).run().to_dict()

    def test_checked_cell_rides_the_kernel(self, monkeypatch):
        """A checked cell (``RunSpec.execute(check=True)``, a
        barrier-granularity checker) replays on the kernel, once, and
        never on the reference loop."""
        import repro.sim.soatrace as soatrace
        from repro.runtime.spec import RunSpec

        if not vector_available():
            pytest.skip("compiled kernel unavailable")
        vector_outcomes = []
        reference_calls = []
        real_run_vector = soatrace.run_vector
        real_reference = Engine._run_reference

        def probe(engine):
            clock = real_run_vector(engine)
            vector_outcomes.append(clock)
            return clock

        def reference(engine):
            reference_calls.append(engine)
            return real_reference(engine)

        monkeypatch.setattr(soatrace, "run_vector", probe)
        monkeypatch.setattr(Engine, "_run_reference", reference)
        result = RunSpec.make("fft", "ASCOMA", 0.9, SCALE).execute(check=True)
        assert len(vector_outcomes) == 1 and vector_outcomes[0] is not None
        assert reference_calls == []
        assert result.invariant_violations == 0


class TestDefaultPathEngagesKernel:
    """The parity suites prove the kernel is *correct* when selected;
    these prove it is *selected* on the paths users take: a
    default-constructed engine, a cell observed the way ``--obs``
    observes it, and cells on executor pool workers.  Each requires
    every ``run_vector`` call to return a clock."""

    @staticmethod
    def _probe(monkeypatch, record):
        """Route every ``run_vector`` call through *record(clock)*.
        Engine.run imports run_vector lazily from the module,
        so patching the module attribute intercepts the dispatch, in
        forked pool workers too."""
        from repro.sim import soatrace
        real_run_vector = soatrace.run_vector

        def probe(engine):
            clock = real_run_vector(engine)
            record(clock)
            return clock

        monkeypatch.setattr(soatrace, "run_vector", probe)

    def test_vector_default_engages_kernel(self, monkeypatch):
        """A default-constructed :class:`Engine` (no flags, no
        environment overrides) must dispatch into the compiled kernel
        and complete without falling back -- an eligibility regression
        (or a dispatch typo) would otherwise degrade every default run
        to the reference loop silently."""
        from repro.sim import soatrace

        if not soatrace.vector_available():
            pytest.skip("compiled SoA kernel unavailable on this host")

        outcomes = []
        self._probe(monkeypatch, outcomes.append)
        wl = get_workload("fft", 0.05)
        cfg = SystemConfig(n_nodes=wl.n_nodes, memory_pressure=0.7)
        Engine(wl, scaled_policy("ASCOMA"), config=cfg).run()
        assert outcomes, "default-constructed Engine never reached run_vector"
        assert outcomes[0] is not None, (
            "run_vector fell back to the scalar path on a plain matrix cell; "
            "kernel eligibility has regressed")

    def test_observed_cell_engages_kernel(self, monkeypatch, tmp_path):
        """``--obs`` attaches a :class:`~repro.obs.SpanRecorder`; its
        backoff telemetry subscribes by kind, so the cell must still
        replay on the kernel.  Watching a kernel-silent kind would
        refuse it and cost 3-4x, the failure the ``--obs`` budget
        guards."""
        from repro.obs import ObsSink, SpanRecorder
        from repro.runtime import RunSpec, execute
        from repro.runtime.spec import RunFailure

        if not vector_available():
            pytest.skip("compiled SoA kernel unavailable on this host")
        outcomes = []
        self._probe(monkeypatch, outcomes.append)
        obs = SpanRecorder(ObsSink(tmp_path))
        try:
            (result,) = execute([RunSpec.make("fft", "ASCOMA", 0.7, 0.05)],
                                max_workers=1, obs=obs).values()
        finally:
            obs.sink.close()
        assert not isinstance(result, RunFailure)
        assert outcomes and all(clock is not None for clock in outcomes), (
            f"run_vector outcomes under --obs: {outcomes}")

    def test_pool_workers_engage_kernel(self, monkeypatch, tmp_path):
        """Cells dispatched to executor pool workers must replay on the
        kernel in the workers.  Forked workers inherit the probe, which
        appends each call's outcome to a file the parent reads back."""
        import os

        from repro.runtime import RunSpec, execute
        from repro.runtime.spec import RunFailure

        if not vector_available():
            pytest.skip("compiled SoA kernel unavailable on this host")
        log = tmp_path / "outcomes"

        def record(clock):
            with open(log, "a", encoding="utf-8") as fh:
                outcome = "fallback" if clock is None else "kernel"
                fh.write(f"{os.getpid()} {outcome}\n")

        self._probe(monkeypatch, record)
        specs = [RunSpec.make("fft", arch, 0.7, 0.05)
                 for arch in ("CCNUMA", "SCOMA", "RNUMA", "ASCOMA")]
        results = execute(specs, max_workers=2)
        assert not any(isinstance(r, RunFailure) for r in results.values())
        records = [line.split() for line in log.read_text().splitlines()]
        assert len(records) == len(specs), records
        assert all(outcome == "kernel" for _, outcome in records), records
        assert all(int(pid) != os.getpid() for pid, _ in records), records


class TestKernelPageFaults:
    """Page faults, the machine-wide first touch (the home allocator's
    choice) included, and pure S-COMA's forced evictions run inside the
    kernel; only a daemon falling due at the fault still exits to
    ``Engine._page_fault``.  Each shape gets the two-way bit-identity
    check, plus a probe that the shape really occurred."""

    @pytest.mark.parametrize("placement", ("round-robin", "random"))
    @pytest.mark.parametrize("arch", ("SCOMA", "ASCOMA", "RNUMA"))
    def test_home_placement_two_way(self, placement, arch):
        """Locality-blind placement homes most pages away from their
        first toucher, so most faults map S-COMA or CC-NUMA pages."""
        cfg = {"home_placement": placement}
        reference = run_cell("radix", arch, 0.9, config_kwargs=cfg,
                             vector_path=False)
        vector = run_cell("radix", arch, 0.9, config_kwargs=cfg,
                          vector_path=True)
        assert vector == reference
        assert _content_hash(vector) == _content_hash(reference)

    def _engine(self, app, arch, pressure, **config_kwargs):
        wl = get_workload(app, SCALE)
        cfg = SystemConfig(n_nodes=wl.n_nodes, memory_pressure=pressure,
                           **config_kwargs)
        return Engine(wl, scaled_policy(arch), config=cfg, vector_path=True)

    def test_scoma_single_frame_forces_evictions(self):
        """Pressure 1.0 leaves pure S-COMA one frame per node, so a
        remote fault almost always evicts the resident page first."""
        engine = self._engine("radix", "SCOMA", 1.0)
        assert engine.machine.page_cache_frames() == 1
        vector = engine.run()
        agg = vector.aggregate()
        assert agg.forced_evictions > agg.page_faults // 2
        reference = run_cell("radix", "SCOMA", 1.0, vector_path=False)
        assert vector.to_dict() == reference

    @pytest.mark.parametrize("pressure", (0.9, 1.0))
    def test_ascoma_dry_pool_faults(self, pressure):
        """A dry pool makes AS-COMA map faulting pages CC-NUMA (at 1.0
        the pool is empty from the start, at 0.9 it drains mid-run).
        A subscriber to fault events alone counts those faults: the
        same number, above zero, on both loops."""
        from repro.kernel.vm import PageMode
        from repro.sim.events import EV_FAULT

        def replay(vector_path):
            engine = self._engine("radix", "ASCOMA", pressure)
            engine.vector_path = vector_path
            modes = []
            engine.machine.events.subscribe(
                lambda ev: modes.append(ev.detail["mode"]), (EV_FAULT,))
            return engine.run().to_dict(), modes.count(PageMode.CCNUMA)

        vector, dry_faults = replay(True)
        assert dry_faults > 0
        assert replay(False) == (vector, dry_faults)

    def test_daemon_due_at_fault(self, monkeypatch):
        """A fault at ``now`` whose frame request (at ``now +
        page_fault``) finds the daemon due is handed to Python before
        any mutation; radix/SCOMA@0.9 has a few such faults."""
        due_at_fault = []
        page_fault = Engine._page_fault

        def probe(engine, node, page, now):
            if (node.pool.below_min
                    and now < node.daemon.next_run_at
                    <= now + node.costs.page_fault):
                due_at_fault.append(now)
            return page_fault(engine, node, page, now)

        monkeypatch.setattr(Engine, "_page_fault", probe)
        vector = self._engine("radix", "SCOMA", 0.9).run().to_dict()
        if vector_available():
            assert due_at_fault
        monkeypatch.setattr(Engine, "_page_fault", page_fault)
        assert vector == run_cell("radix", "SCOMA", 0.9, vector_path=False)

    def test_python_exits_bounded_by_daemon_runs(self):
        """radix/SCOMA@0.9 thrashes its page cache.  Only daemon-due
        faults may leave the kernel, so ``_shared_ref`` runs at most
        once per daemon run."""
        if not vector_available():
            pytest.skip("compiled kernel unavailable")
        engine = self._engine("radix", "SCOMA", 0.9)
        calls = python_exits(engine)["_shared_ref"]
        result = engine.run()
        daemon_runs = sum(s.daemon_runs for s in result.node_stats)
        assert result.aggregate().forced_evictions > 1000
        assert len(calls) <= daemon_runs

    def test_clock_view_behaves_like_the_deque(self):
        """The S-COMA clock the kernel drives in place, a ring buffer
        whose cursor lives in the node's page-cache row, answers every
        deque operation the daemon, the fault path and the audits use
        exactly as the deque it replaces, wrapped ring buffer
        included."""
        import random
        from collections import deque

        import numpy as np

        from repro.kernel.freelist import N_PC, PC_HEAD, PC_LEN
        from repro.kernel.vm import PageTable

        rng = random.Random(7)
        for _ in range(50):
            real = deque()
            pc = np.zeros(N_PC, dtype=np.int64)
            pt = PageTable(32, modes=np.zeros(5, dtype=np.int64),
                           scoma_valid=np.zeros((5, 1), dtype=np.uint64),
                           pc=pc, clk=np.zeros(6, dtype=np.int64))
            clock = pt.scoma_clock
            for _ in range(60):
                op = rng.randrange(5)
                if op == 0 and len(real) < 6:
                    page = rng.randrange(20)
                    real.append(page)
                    clock.append(page)
                elif op == 1:
                    n = rng.choice((-1, 1, -2))
                    real.rotate(n)
                    clock.rotate(n)
                elif op == 2 and real:
                    page = rng.choice(list(real))
                    real.remove(page)
                    clock.remove(page)
                elif op == 3 and real:
                    assert clock.pop() == real.pop()
                assert list(clock) == list(real)
                assert len(clock) == len(real) == int(pc[PC_LEN])
                if real:
                    assert clock[0] == real[0] and clock[-1] == real[-1]
                assert 0 <= int(pc[PC_HEAD]) < 6


class TestKernelRelocations:
    """Relocation hints, with R-NUMA's and VC-NUMA's forced evictions
    and VC-NUMA's break-even tallies, run inside the kernel after the
    access that carries them.  A hint exits to
    ``Engine._handle_relocation_hint`` only when it needs Python: a
    daemon due at the hint, a break-even evaluation falling due or a
    ``MIGRATE`` decision.  Each shape gets two-way
    bit identity of the results and of the whole machine state, plus a
    probe that the shape occurred."""

    @staticmethod
    def _hint_exits(shape, args):
        """A kernel replay of the shape: its result, the engine and
        its Python exits."""
        engine = SHAPES[shape](*args, vector_path=True)
        calls = python_exits(engine)
        return engine.run(), engine, calls

    @pytest.mark.parametrize("placement", ("round-robin", "random"))
    @pytest.mark.parametrize("arch", ("RNUMA", "VCNUMA"))
    def test_home_placement_relocations(self, placement, arch):
        """Locality-blind placement, first touches included, plus the
        hybrids' relocations and forced evictions: every first touch is
        placed by the kernel and nearly every hint taken there."""
        args = (placement, arch)
        _, reference = replayed("placement", args, False)
        _, vector = replayed("placement", args, True)
        assert vector == reference
        assert_same_machine("placement", args)
        result, engine, calls = self._hint_exits("placement", args)
        agg = result.aggregate()
        assert agg.relocations > 500 and agg.forced_evictions > 400
        if vector_available():
            assert calls["_shared_ref"] == []
            assert len(calls["_handle_relocation_hint"]) < agg.relocations / 20

    def test_break_even_evaluations(self):
        """radix/VCNUMA@0.9: forced evictions fill the break-even
        tallies in the kernel, and the evictions that bring an
        evaluation due leave it, so every evaluation runs in Python."""
        args = ("radix", "VCNUMA", 0.9)
        _, reference = replayed("matrix", args, False)
        vector_engine, vector = replayed("matrix", args, True)
        assert vector == reference
        assert_same_machine("matrix", args)
        nodes = vector_engine.machine.nodes
        assert sum(nd.policy_state.detector.evaluations for nd in nodes) > 0
        if vector_available():
            _, _, calls = self._hint_exits("matrix", args)
            assert calls["_shared_ref"] == []
            assert calls["_handle_relocation_hint"]

    def test_ascoma_dry_pool_skips(self):
        """radix/ASCOMA@0.9: a hint that finds the pool dry is dropped
        (RELOCATE_IF_FREE), counted as a failed allocation and a
        skipped relocation, without leaving the kernel."""
        args = ("radix", "ASCOMA", 0.9)
        _, reference = replayed("matrix", args, False)
        _, vector = replayed("matrix", args, True)
        assert vector == reference
        assert_same_machine("matrix", args)
        result, engine, calls = self._hint_exits("matrix", args)
        skipped = result.aggregate().skipped_relocations
        assert skipped > 0
        assert skipped == engine.machine.directory.relocation_hints
        if vector_available():
            assert calls["_handle_relocation_hint"] == []

    def test_daemon_due_at_hint(self, monkeypatch):
        """A hint whose frame request finds the daemon due exits to
        Python after its access; radix/RNUMA@0.9 has a few."""
        due_at_hint = []
        handle = Engine._handle_relocation_hint

        def probe(engine, node, page, now):
            if node.daemon.due(now):
                due_at_hint.append(now)
            return handle(engine, node, page, now)

        monkeypatch.setattr(Engine, "_handle_relocation_hint", probe)
        vector = run_cell("radix", "RNUMA", 0.9, vector_path=True)
        if vector_available():
            assert due_at_hint
        monkeypatch.setattr(Engine, "_handle_relocation_hint", handle)
        assert vector == run_cell("radix", "RNUMA", 0.9, vector_path=False)

    @pytest.mark.parametrize("arch", ("RNUMA", "VCNUMA"))
    def test_no_frames_skips_hints(self, arch):
        """At pressure 1.0 a hybrid has no page-cache frames, so a hint
        finds a dry pool and an empty clock: nothing to take and nothing
        to force-evict.  Both loops drop it as a skipped relocation
        (they used to die with "no S-COMA page to evict")."""
        engine = make_engine("fft", arch, 1.0, vector_path=True)
        assert engine.machine.page_cache_frames() == 0
        vector = engine.run()
        assert vector.aggregate().skipped_relocations > 0
        assert vector.aggregate().relocations == 0
        assert vector.to_dict() == run_cell("fft", arch, 1.0,
                                            vector_path=False)

    def test_python_exits_bounded_by_daemon_runs(self):
        """radix/RNUMA@0.9 relocates hundreds of pages, most over a
        forced eviction; none of that reaches ``_shared_ref``, which
        runs at most once per daemon run."""
        if not vector_available():
            pytest.skip("compiled kernel unavailable")
        result, _, calls = self._hint_exits("matrix", ("radix", "RNUMA", 0.9))
        agg = result.aggregate()
        assert agg.relocations > 800
        assert len(calls["_shared_ref"]) <= agg.daemon_runs


def checked_replay(monkeypatch, engine, granularity="barrier"):
    """Run *engine* under an invariant checker of *granularity*.
    Returns the result payload, the violations as ``(invariant, node,
    page, clock)`` in order, and whether ``run_vector`` returned
    clocks (``[]`` when the engine never tried the kernel)."""
    from repro.check import InvariantChecker
    from repro.sim import soatrace
    checker = InvariantChecker.attach(engine, granularity=granularity)
    outcomes = []
    real_run_vector = soatrace.run_vector

    def probe(eng):
        clock = real_run_vector(eng)
        outcomes.append(clock is not None)
        return clock

    with monkeypatch.context() as patch:
        patch.setattr(soatrace, "run_vector", probe)
        result = engine.run().to_dict()
    violations = [(v.invariant, v.node, v.page, v.clock)
                  for v in checker.violations]
    return result, violations, outcomes


class TestCheckedOnKernel:
    """The invariant checker watches the substrate that produces the
    results: at the default ``barrier`` granularity a checked run
    replays on the kernel, with the reference loop's result and
    violations (invariant, node, page and clock, in order).  Only an
    ``event``-granularity checker, whose sweeps read the machine in the
    middle of an access, still replays on the reference loop."""

    @pytest.mark.parametrize("entry", ("ascoma-skip-invalidate",
                                       "ccnumamig-migratory-clean",
                                       "vcnuma-highpressure-clean"))
    def test_corpus_bundle_checked_on_kernel(self, monkeypatch, entry):
        import os

        from repro.check import ReproBundle
        if not vector_available():
            pytest.skip("compiled kernel unavailable")
        bundle = ReproBundle.load(os.path.join(
            os.path.dirname(__file__), "corpus", entry))
        runs = [checked_replay(monkeypatch, Engine(
            bundle.workload, bundle.make_policy(), config=bundle.config,
            quantum=bundle.quantum, vector_path=vector_path))
            for vector_path in (False, True)]
        (r_ref, v_ref, _), (r_vec, v_vec, outcomes) = runs
        assert outcomes == [True]
        assert v_vec == v_ref and r_vec == r_ref

    def test_injected_bug_caught_on_kernel(self, monkeypatch):
        """The kernel's own seeded bug (a node that skips its
        invalidations, P_SKIP_NODE) is caught on the kernel."""
        if not vector_available():
            pytest.skip("compiled kernel unavailable")
        runs = [checked_replay(monkeypatch, make_engine(
            "fft", "ASCOMA", 0.9, vector_path=vector_path,
            config_kwargs={"debug_skip_invalidate_node": 1}))
            for vector_path in (False, True)]
        (r_ref, v_ref, _), (r_vec, v_vec, outcomes) = runs
        assert outcomes == [True]
        assert v_ref and v_vec == v_ref
        assert r_vec == r_ref

    def test_event_granularity_checker_falls_back(self, monkeypatch):
        """An ``event``-granularity checker sweeps at every
        page-management publish, so the kernel refuses the run and the
        reference loop replays it, with the result and violations of a
        run pinned to the reference loop."""
        runs = [checked_replay(monkeypatch, make_engine(
            "fft", "ASCOMA", 0.9, vector_path=vector_path,
            config_kwargs={"debug_skip_invalidate_node": 1}), "event")
            for vector_path in (False, True)]
        (r_ref, v_ref, _), (r_auto, v_auto, outcomes) = runs
        assert outcomes == [False]
        assert v_ref and v_auto == v_ref and r_auto == r_ref


class RowRecorder:
    """Takes the checker's four row kinds as :class:`InvariantChecker`
    does: the kernel's ring batches whole, each event published from
    Python as its one row.  ``rows`` is the stream in arrival order,
    ``batches`` each ring batch's ``(start, end)`` in it."""

    KINDS = ("fault", "map_scoma", "evict", "relocate")

    def __init__(self):
        self.rows, self.batches = [], []

    def __call__(self, event):
        from repro.sim.events import event_row
        self.rows.append(event_row(event))

    def take(self, batch):
        self.batches.append((len(self.rows), len(self.rows) + len(batch)))
        self.rows.extend(batch)


def recorded_checked_replay(monkeypatch, engine, max_violations=1000):
    """Run *engine* under a ``barrier`` checker capped at
    *max_violations*, beside a :class:`RowRecorder`.  Returns the
    result payload, the checker, the recorder, and whether each
    ``run_vector`` call returned clocks."""
    from repro.check import InvariantChecker
    from repro.sim import soatrace
    checker = InvariantChecker.attach(engine, max_violations=max_violations)
    recorder = RowRecorder()
    engine.machine.events.subscribe(recorder, RowRecorder.KINDS,
                                    rows=recorder.take)
    outcomes = []
    real_run_vector = soatrace.run_vector

    def probe(eng):
        clock = real_run_vector(eng)
        outcomes.append(clock is not None)
        return clock

    with monkeypatch.context() as patch:
        patch.setattr(soatrace, "run_vector", probe)
        result = engine.run().to_dict()
    return result, checker, recorder, outcomes


def bundle_engine(entry, vector_path):
    import os

    from repro.check import ReproBundle
    bundle = ReproBundle.load(os.path.join(os.path.dirname(__file__),
                                           "corpus", entry))
    return Engine(bundle.workload, bundle.make_policy(), config=bundle.config,
                  quantum=bundle.quantum, vector_path=vector_path)


#: The inputs the checker's row stream is compared on, by name.
CHECKED_STREAMS = {
    entry: functools.partial(bundle_engine, entry)
    for entry in ("ascoma-skip-invalidate", "ccnumamig-migratory-clean",
                  "vcnuma-highpressure-clean")}
CHECKED_STREAMS["skip-node-bug"] = lambda vector_path: make_engine(
    "fft", "ASCOMA", 0.9, vector_path=vector_path,
    config_kwargs={"debug_skip_invalidate_node": 1})
CHECKED_STREAMS["96-node"] = functools.partial(wide_engine, "ascoma")


class TestCheckedStreamParity:
    """The kernel hands the checker its fault, S-COMA map, eviction and
    relocation rows in ring batches; the reference loop publishes each
    as an event, which enters the checker as one row.  Concatenated,
    the batches are the reference loop's one-row stream, and the
    checker counts, sweeps and reports the same on both loops."""

    @pytest.mark.parametrize("name", list(CHECKED_STREAMS))
    def test_batches_concatenate_to_the_reference_stream(self, monkeypatch,
                                                         name):
        if not vector_available():
            pytest.skip("compiled kernel unavailable")
        (r_ref, c_ref, rec_ref, _), (r_vec, c_vec, rec_vec, outcomes) = [
            recorded_checked_replay(monkeypatch,
                                    CHECKED_STREAMS[name](vector_path=vector_path))
            for vector_path in (False, True)]
        assert outcomes == [True]
        assert rec_ref.batches == []
        assert max(end - start for start, end in rec_vec.batches) > 1
        assert rec_ref.rows and rec_vec.rows == rec_ref.rows
        assert c_vec.events_seen == c_ref.events_seen
        assert c_vec.sweeps_run == c_ref.sweeps_run
        assert ([v.as_dict() for v in c_vec.violations]
                == [v.as_dict() for v in c_ref.violations])
        assert r_vec == r_ref


class TestCheckerCap:
    """``max_violations`` stops checking at the same event on both
    loops, inside a ring batch too: the rows after the one that finds
    the cap reached are counted, not checked."""

    @staticmethod
    def capped(monkeypatch, make, cap):
        if not vector_available():
            pytest.skip("compiled kernel unavailable")
        runs = [recorded_checked_replay(
            monkeypatch, make(vector_path=vector_path), cap)
            for vector_path in (False, True)]
        (r_ref, c_ref, _, _), (r_vec, c_vec, recorder, outcomes) = runs
        assert outcomes == [True]
        assert r_vec == r_ref
        assert c_vec.events_seen == c_ref.events_seen
        assert c_vec.sweeps_run == c_ref.sweeps_run
        violations = [v.as_dict() for v in c_ref.violations]
        assert [v.as_dict() for v in c_vec.violations] == violations
        assert len(violations) >= cap
        return violations, recorder

    @pytest.mark.parametrize("cap", (1, 7, 100))
    def test_seeded_bug(self, monkeypatch, cap):
        violations, _ = self.capped(
            monkeypatch, CHECKED_STREAMS["skip-node-bug"], cap)
        assert len(violations) < 491

    @pytest.mark.parametrize("cap", (1, 7, 100))
    def test_cap_inside_a_ring_batch(self, monkeypatch, cap):
        """radix/RNUMA@0.9 relocates over forced evictions in the
        kernel; a policy that claims it never forces one makes each a
        violation the checker finds inside a ring batch."""
        from repro.sim.events import R_EVICT

        def make(vector_path):
            engine = make_engine("radix", "RNUMA", 0.9,
                                 vector_path=vector_path)
            engine.policy.allows_forced_eviction = False
            return engine

        violations, recorder = self.capped(monkeypatch, make, cap)
        assert len(violations) == cap
        assert {v["invariant"] for v in violations} == {"forced-eviction"}
        # The row that reached the cap is followed by more of its batch.
        last = violations[-1]
        at = next(i for i, row in enumerate(recorder.rows)
                  if row[0] == R_EVICT and row[5] and row[1:4] == [
                      last["node"], last["page"], last["clock"]])
        assert any(start <= at < end - 1
                   for start, end in recorder.batches)


class TestCheckerSubscription:
    """The checker watches the eight kinds it acts on, at either
    granularity, and none of the sub-operation kinds no check reads:
    a checked kernel run records no flush, invalidation or demotion in
    its event ring, and the reference loop builds none."""

    KINDS = {"fault", "map_scoma", "evict", "relocate", "migrate",
             "daemon", "barrier", "end"}

    @pytest.mark.parametrize("granularity", ("event", "barrier"))
    def test_attach_watches_the_eight_kinds(self, granularity):
        from repro.check import InvariantChecker
        engine = make_engine("fft", "ASCOMA", 0.9)
        InvariantChecker.attach(engine, granularity=granularity)
        events = engine.machine.events
        assert set(events.kind_observers) == self.KINDS
        for kind in ("flush", "invalidate", "demote"):
            assert not events.watching(kind)

    def test_checked_kernel_run_sets_no_sub_operation_watch_bit(
            self, monkeypatch):
        """On a cell that flushes, invalidates and demotes, every kernel
        entry of a checked run watches exactly the four page kinds the
        kernel performs and the checker reads (``P_WATCH``)."""
        from repro.check import InvariantChecker
        from repro.sim import soatrace
        from repro.sim.events import ROW_KINDS
        if not vector_available():
            pytest.skip("compiled kernel unavailable")
        ffi, lib = soatrace._load_kernel()
        masks = []

        class WatchProbe:
            def soa_run(self, state):
                masks.append(state.P[soatrace._PARAMS.WATCH])
                return lib.soa_run(state)

        monkeypatch.setattr(soatrace, "_load_kernel",
                            lambda: (ffi, WatchProbe()))
        engine = make_engine("em3d", "RNUMA", 0.9, vector_path=True)
        checker = InvariantChecker.attach(engine)
        engine.run()
        assert masks and len(set(masks)) == 1
        watched = {kind for code, kind in enumerate(ROW_KINDS)
                   if masks[0] >> code & 1}
        assert watched == {"fault", "map_scoma", "evict", "relocate"}
        assert checker.events_seen and not checker.violations
