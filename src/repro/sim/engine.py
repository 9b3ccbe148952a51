"""Trace replay engine.

Replays one :class:`~repro.sim.trace.WorkloadTraces` through a
:class:`~repro.sim.machine.Machine` under one architecture policy,
producing a :class:`~repro.sim.stats.RunResult`.

Scheduling
----------
Nodes are interleaved by *lazy quantum scheduling*: the engine always
advances the node with the smallest local clock, processing its events
until its clock passes the runner-up clock by a small quantum.  This
keeps cross-node event ordering approximately global (so coherence
invalidations and directory state interleave realistically) while
amortising scheduling overhead over many events -- the standard
conservative-window technique from parallel architectural simulation
(and the approach of the Paint/Mint family the paper builds on).

Barriers synchronise all nodes: each arriving node stalls, and when the
last one arrives every waiter's clock jumps to the maximum arrival time
with the difference charged to SYNC.

Accounting
----------
Every event advances its node's clock and exactly one stats bucket:
compute -> U_INSTR, private stalls -> U_LC_MEM, shared-reference stall
time -> U_SH_MEM, kernel work -> K_BASE or K_OVERHD, barrier waits ->
SYNC.  Misses are simultaneously classified into HOME / SCOMA / RAC /
COLD / CONF_CAPC, matching the right-hand charts of Figures 2-3.

The two replay loops
--------------------
The engine carries two replay loops producing **bit-identical**
:class:`RunResult`s (``tests/test_perf_parity.py`` enforces this for
every architecture):

* the **vector path** decodes the trace to structure-of-arrays form
  and replays it through the compiled SoA kernel in
  :mod:`repro.sim.soatrace`, page faults (first touches included),
  relocation hints and forced evictions included.  It exits to
  ``_shared_ref`` only for a fault that would run the pageout daemon,
  and to ``_handle_relocation_hint``, after the access, only for a
  hint that would run the daemon, bring a break-even evaluation due
  or migrate the page;
* the **reference path** is the straightforward one-call-per-event
  loop.  It is the parity oracle for the kernel and the loss-free
  fallback for every run the kernel cannot take: an invariant checker
  at ``event`` granularity (its sweeps read the machine mid-access),
  an associative L1, an out-of-range reference, or a host where no
  kernel loads.

The run picks its loop from what it can observe: it tries the kernel
and falls back to the reference loop when the run is outside the
kernel's model or no kernel loads.  ``Engine(vector_path=False)`` is
the one way to ask for the reference loop directly, as the parity
suites do for their oracle.  Loop selection is a runtime concern only:
it never enters spec hashes or trace cache keys.  See
``docs/performance.md`` for the measured costs.

Observing a run
---------------
Observers subscribe to the event kinds they name on the machine's bus
(:mod:`repro.sim.events`); nothing else hooks into a run.  While the
bus has any subscriber, the rare-event entry points -- the miss and
upgrade paths of ``_shared_ref``, daemon runs, migrations, barrier
releases and the run's end -- stamp its clock, so a subscriber sees
the same clocks whatever else is watched.
"""

from __future__ import annotations

from ..core.policy import ArchitecturePolicy, RelocationDecision
from ..kernel.vm import PageMode
from .config import SystemConfig
from .events import EV_BARRIER, EV_END, EV_FAULT, EV_MIGRATE
from .machine import Machine
from .stats import (S_CONF_CAPC, S_CONF_CAPC_LAT, S_COLD, S_COLD_LAT,
                    S_ESSENTIAL_COLD, S_HOME, S_HOME_LAT, S_INDUCED_COLD,
                    S_L1_HITS, S_L1_MISSES, S_RAC, S_RAC_LAT, S_SCOMA,
                    S_SCOMA_LAT, S_SYNC, S_U_INSTR, S_U_LC_MEM, S_U_SH_MEM,
                    S_UPGRADES, RunResult)
from .trace import EV_COMPUTE, EV_LOCAL, EV_WRITE, WorkloadTraces

__all__ = ["Engine", "simulate"]

#: How far (cycles) one node may run ahead of the runner-up clock.
DEFAULT_QUANTUM = 2000

# The page modes as plain ints: an IntEnum member lookup costs the
# per-miss path about five times an int compare.
_HOME, _SCOMA, _CCNUMA = map(int, (PageMode.HOME, PageMode.SCOMA,
                                   PageMode.CCNUMA))


class Engine:
    """One simulation run."""

    def __init__(self, workload: WorkloadTraces, policy: ArchitecturePolicy,
                 config: SystemConfig | None = None,
                 quantum: int = DEFAULT_QUANTUM,
                 vector_path: bool = True) -> None:
        self.workload = workload
        self.policy = policy
        self.config = config or SystemConfig(n_nodes=workload.n_nodes)
        if self.config.n_nodes != workload.n_nodes:
            raise ValueError(
                f"config has {self.config.n_nodes} nodes but workload has"
                f" {workload.n_nodes}")
        if quantum <= 0:
            raise ValueError("quantum must be positive")
        self.quantum = quantum
        _, _, _, _, ref_lo, ref_hi = workload.soa()
        if ref_lo < 0:
            raise ValueError(f"workload {workload.name!r} references line"
                             f" {ref_lo}; line ids must be non-negative")
        line_shift = self.config.address_map().line_shift
        self.machine = Machine(self.config, policy,
                               workload.home_pages_per_node,
                               workload.total_shared_pages,
                               n_pages=(ref_hi >> line_shift) + 1)
        #: Machine-shared rare-event bus (identity is stable for the
        #: engine's lifetime, so it can be cached in locals).
        self._events = self.machine.events
        #: Optional online invariant checker (repro.check attaches one);
        #: when set, the run result carries its violation count.
        self.checker = None
        #: pure S-COMA must map every remote page locally, even if a
        #: victim has to be force-evicted at fault time.
        self._mandatory_scoma = policy.mandatory_page_cache
        #: Direct-mapped L1s take an inlined tag compare in _shared_ref
        #: (and may replay on the kernel); associative ones go through
        #: lookup().
        self._l1_direct = self.config.l1_ways == 1
        #: Victim-mode RAC: fills from L1 evictions of remote lines,
        #: never from fetches (see SystemConfig.rac_fill_policy).
        self._rac_victim = self.config.rac_fill_policy == "victim"
        #: True runs the SoA kernel whenever this engine is eligible
        #: and a kernel loads, falling back loss-free to the reference
        #: loop otherwise; False runs the reference loop directly.
        self.vector_path = vector_path
        # Hot-path constants and stable sub-object aliases, hoisted once
        # so `_shared_ref` never re-walks attribute chains per event.
        # All aliased objects are created by Machine.__init__ and only
        # ever mutated in place (never rebound) during a run.
        amap = self.machine.amap
        self._line_shift = amap.line_shift
        self._chunk_shift = amap.chunk_shift
        self._cpp_mask = amap.chunks_per_page - 1
        self._sv_words = (amap.chunks_per_page + 63) >> 6
        self._hit_cycles = self.config.l1_hit_cycles
        self._rac_cycles = self.config.rac_hit_cycles
        self._dsm2 = 2 * self.config.dsm_processing_cycles
        self._protocol = self.machine.protocol
        self._buses = self.machine.buses
        self._home = self.machine.allocator.home

    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        # The compiled kernel (repro.sim.soatrace) replays the run in
        # place on the machine's own buffers, counter rows included,
        # unless the run is outside its model or no kernel loads; then
        # the reference loop does, bit-identically.
        clock = None
        if self.vector_path:
            from .soatrace import run_vector
            clock = run_vector(self)
        if clock is None:
            clock = self._run_reference()

        events = self._events
        if events.kind_observers:
            events.clock = max(clock) if clock else 0
            events.publish(EV_END, -1, -1)

        machine = self.machine
        extra = {
            "utilisation": machine.utilisation_report(),
            "page_cache_frames": machine.page_cache_frames(),
            "protocol": {
                "remote_fetches": machine.protocol.remote_fetches,
                "three_hop": machine.protocol.three_hop_fetches,
                "write_stalls": machine.protocol.write_stalls,
            },
        }
        if self.checker is not None:
            extra["invariant_violations"] = self.checker.violation_count()
        return RunResult(
            architecture=self.policy.name,
            workload=self.workload.name,
            pressure=self.config.memory_pressure,
            node_stats=[nd.stats.copy() for nd in machine.nodes],
            extra=extra,
        )

    # ------------------------------------------------------------------
    def _release_barrier(self, nodes, clock, arrival, waiting, pos, end,
                         finished, barrier_id) -> None:
        """Release a full barrier: charge SYNC, align clocks, publish.

        The scheduler state arrives as lists (the reference loop) or
        as memoryviews of the kernel's arrays, edited in place."""
        n = len(nodes)
        ids = {barrier_id[i] for i in range(n) if waiting[i]}
        if len(ids) != 1:
            raise RuntimeError(
                f"barrier mismatch: nodes waiting at {sorted(ids)}")
        release = max(arrival[i] for i in range(n) if waiting[i])
        for i in range(n):
            if waiting[i]:
                nodes[i].stats.row[S_SYNC] += release - arrival[i]
                clock[i] = release
                waiting[i] = False
                if pos[i] >= end[i]:
                    finished[i] = True
        events = self._events
        if events.kind_observers:
            events.clock = release
            events.publish(EV_BARRIER, -1, -1, barrier=ids.pop())

    # ------------------------------------------------------------------
    def _run_reference(self) -> list[int]:
        """Reference replay loop: one `_shared_ref` call per event.

        This is the pre-optimisation engine, kept verbatim as the
        kernel's parity oracle (`tests/test_perf_parity.py`,
        ``Engine(vector_path=False)``) and as its fallback.
        """
        machine = self.machine
        nodes = machine.nodes
        n = len(nodes)
        # Python lists index ~3x faster than numpy scalars in this loop.
        kinds = [t.kinds.tolist() for t in self.workload.traces]
        args = [t.args.tolist() for t in self.workload.traces]
        pos = [0] * n
        end = [len(k) for k in kinds]
        clock = [0] * n
        finished = [p >= e for p, e in zip(pos, end)]
        waiting = [False] * n
        barrier_id = [-1] * n
        arrival = [0] * n
        quantum = self.quantum
        shared_ref = self._shared_ref

        while True:
            # Pick the runnable node with the smallest clock.
            best = -1
            best_clock = None
            runner_up = None
            for i in range(n):
                if finished[i] or waiting[i]:
                    continue
                c = clock[i]
                if best_clock is None or c < best_clock:
                    runner_up = best_clock
                    best_clock = c
                    best = i
                elif runner_up is None or c < runner_up:
                    runner_up = c
            if best == -1:
                if all(finished):
                    break
                raise RuntimeError("deadlock: all unfinished nodes are waiting"
                                   " at a barrier that never released")
            limit = (runner_up + quantum) if runner_up is not None else None

            node = nodes[best]
            k = kinds[best]
            a = args[best]
            p = pos[best]
            e = end[best]
            now = clock[best]
            st = node.stats.row
            # Let the pageout daemon run on its own schedule, not only
            # when a frame is needed (it is how AS-COMA notices recovery).
            node.run_daemon_if_due(now)

            while p < e and (limit is None or now < limit):
                ev = k[p]
                arg = a[p]
                p += 1
                if ev <= EV_WRITE:  # READ or WRITE
                    now += shared_ref(node, arg, ev == EV_WRITE, now)
                elif ev == EV_COMPUTE:
                    st[S_U_INSTR] += arg
                    now += arg
                elif ev == EV_LOCAL:
                    st[S_U_LC_MEM] += arg
                    now += arg
                else:  # EV_BARRIER
                    waiting[best] = True
                    barrier_id[best] = arg
                    arrival[best] = now
                    break

            pos[best] = p
            clock[best] = now
            if p >= e and not waiting[best]:
                finished[best] = True

            if waiting[best]:
                # Release when every unfinished node is at the barrier.
                if all(finished[i] or waiting[i] for i in range(n)):
                    self._release_barrier(nodes, clock, arrival, waiting,
                                          pos, end, finished, barrier_id)
        return clock

    # Kept so code that binds the scalar loop by this name (the per-layer
    # tracer in perfbench/tracer.py) still resolves.
    _run_fast = _run_reference

    # ------------------------------------------------------------------
    def _shared_ref(self, node, line: int, is_write: bool, now: int) -> int:
        """Process one shared-memory reference; returns elapsed cycles.

        Updates the node's stats buckets in place (U_SH_MEM for stall
        time, K_BASE/K_OVERHD for kernel work triggered by the access).

        Attribute chains are hoisted into locals / precomputed engine
        attributes (`_hit_cycles`, `_home`, ...), and the stats row is
        indexed directly: this function *is* the profile's hot spot, and
        both replay loops share it, so every saved lookup is
        bit-identical by construction.
        """
        st = node.stats.row
        l1 = node.l1

        # -- L1 probe (the overwhelmingly common case) -------------------
        if self._l1_direct:
            hit = l1.tags[line & l1.set_mask] == line
        else:
            hit = l1.lookup(line)
        if hit:
            st[S_L1_HITS] += 1
            if is_write:
                chunk = line >> self._chunk_shift
                owned = node.owned
                if not owned[chunk]:
                    page = line >> self._line_shift
                    home = self._home[page]
                    events = self._events
                    if events.kind_observers:
                        events.clock = now
                    lat = self._protocol.upgrade(node.id, chunk, page,
                                                 home, now)
                    owned[chunk] = 1
                    st[S_UPGRADES] += 1
                    st[S_U_SH_MEM] += lat
                    return self._hit_cycles + lat
            return self._hit_cycles

        # -- L1 miss ------------------------------------------------------
        st[S_L1_MISSES] += 1
        events = self._events
        if events.kind_observers:
            events.clock = now
        page = line >> self._line_shift
        chunk = line >> self._chunk_shift
        node.ref_bits[page] = 1
        nid = node.id

        kernel = 0
        mode = node.page_table.mode[page]
        if mode == 0:  # UNMAPPED: first touch on this node
            mode, kernel = self._page_fault(node, page, now)
        home = self._home[page]
        now += kernel

        lat = self._buses[nid].transact(now)
        protocol = self._protocol
        owned = node.owned

        # Outcome tuples are in Directory.fetch_raw order:
        # (refetch, forwarded, invalidations, relocation_hint,
        #  prev_owner, exclusive).
        if mode == _HOME:
            fetch_lat, out = protocol.local_fetch_raw(nid, chunk, page,
                                                      is_write, now + lat)
            lat += fetch_lat
            st[S_HOME] += 1
            st[S_HOME_LAT] += lat
            if is_write or out[5]:
                owned[chunk] = 1
        elif mode == _SCOMA:
            cip = chunk & self._cpp_mask
            valid = node.page_table.scoma_valid[
                page * self._sv_words + (cip >> 6)]
            if valid >> (cip & 63) & 1:
                lat += node.memory.access(chunk, now + lat)
                st[S_SCOMA] += 1
                node.pagecache_hits[page] += 1
                st[S_SCOMA_LAT] += lat
                if is_write and not owned[chunk]:
                    lat += protocol.upgrade(nid, chunk, page, home, now + lat)
                    owned[chunk] = 1
                    st[S_UPGRADES] += 1
            else:
                fetch_lat, out = protocol.remote_fetch_raw(
                    nid, chunk, page, home, is_write, 0, now + lat,
                    count_refetch=False)
                lat += self._dsm2 + fetch_lat
                node.page_table.set_chunk_valid(page, cip)
                self._classify_remote(node, chunk, out[0], lat)
                if is_write or out[5]:
                    owned[chunk] = 1
        else:  # PageMode.CCNUMA
            if node.rac.lookup(line if self._rac_victim else chunk):
                lat += self._rac_cycles
                st[S_RAC] += 1
                st[S_RAC_LAT] += lat
                if is_write and not owned[chunk]:
                    lat += protocol.upgrade(nid, chunk, page, home, now + lat)
                    owned[chunk] = 1
                    st[S_UPGRADES] += 1
            else:
                threshold = node.policy_state.effective_threshold()
                fetch_lat, out = protocol.remote_fetch_raw(
                    nid, chunk, page, home, is_write, threshold, now + lat)
                lat += self._dsm2 + fetch_lat
                if not self._rac_victim:
                    node.rac.fill(chunk)
                self._classify_remote(node, chunk, out[0], lat)
                if is_write or out[5]:
                    owned[chunk] = 1
                if out[3]:  # relocation hint
                    # Fill the L1 *before* the relocation interrupt: the
                    # access completed first, and the remap's page flush
                    # must also purge this line, or a stale copy would
                    # linger in the cache without copyset membership.
                    self._l1_fill(node, line)
                    kernel += self._handle_relocation_hint(node, page,
                                                           now + lat)
                    st[S_U_SH_MEM] += lat
                    return kernel + lat

        if self._rac_victim:
            self._l1_fill(node, line)
        else:
            l1.fill(line)
        st[S_U_SH_MEM] += lat
        return kernel + lat

    def _l1_fill(self, node, line: int) -> None:
        """Install a line in the L1; in victim-RAC mode, evicted remote
        lines drop into the RAC (VC-NUMA's actual hardware)."""
        victim = node.l1.fill(line)
        if self._rac_victim and victim != -1:
            vpage = victim >> self._line_shift
            if node.page_table.mode[vpage] == _CCNUMA:
                node.rac.fill(victim)

    # ------------------------------------------------------------------
    def _classify_remote(self, node, chunk: int, refetch: bool,
                         lat: int = 0) -> None:
        """COLD vs CONF/CAPC classification of a remote fetch."""
        st = node.stats.row
        if refetch:
            st[S_CONF_CAPC] += 1
            st[S_CONF_CAPC_LAT] += lat
        else:
            st[S_COLD] += 1
            st[S_COLD_LAT] += lat
            if node.ever_fetched[chunk]:
                st[S_INDUCED_COLD] += 1
            else:
                st[S_ESSENTIAL_COLD] += 1
                node.ever_fetched[chunk] = 1
            return
        node.ever_fetched[chunk] = 1

    def _page_fault(self, node, page: int, now: int) -> tuple[int, int]:
        """First touch to *page* on *node*: returns (mode, kernel_cycles).

        The replay kernel carries a transliteration (``page_fault`` in
        :mod:`repro.sim.soatrace`); a change here must land there too,
        or the parity suites fail."""
        stats = node.stats
        costs = node.costs
        kernel = costs.page_fault
        stats.K_BASE += kernel
        stats.page_faults += 1

        home = self.machine.allocator.home_of(page, node.id)
        if home == node.id:
            node.page_table.map_home(page)
            return self._faulted(node, page, PageMode.HOME, home, kernel)

        mode = self.policy.initial_mode(node.policy_state, node.pool.free)
        if mode == PageMode.SCOMA:
            if node.acquire_frame(now + kernel):
                node.map_scoma(page)
                return self._faulted(node, page, PageMode.SCOMA, home, kernel)
            if self._mandatory_scoma:
                # Pure S-COMA: evict someone (hot or not) right now.
                victim = node.choose_victim()
                overhead = node.evict_scoma_page(victim, forced=True)
                stats.K_OVERHD += overhead
                kernel += overhead
                if not node.pool.try_allocate():  # pragma: no cover - invariant
                    raise RuntimeError("frame lost after forced eviction")
                node.map_scoma(page)
                return self._faulted(node, page, PageMode.SCOMA, home, kernel)
            # Hybrid with a dry pool: fall back to CC-NUMA mode.
        node.page_table.map_ccnuma(page)
        return self._faulted(node, page, PageMode.CCNUMA, home, kernel)

    def _faulted(self, node, page: int, mode: int, home: int,
                 kernel: int) -> tuple[int, int]:
        """Publish the fault event and return the (mode, kernel) pair."""
        events = self._events
        if events.watching(EV_FAULT):
            events.publish(EV_FAULT, node.id, page, mode=int(mode), home=home)
        return mode, kernel

    def _handle_relocation_hint(self, node, page: int, now: int) -> int:
        """Directory flagged *page* hot for *node*: maybe remap it.

        The replay kernel carries a transliteration
        (``relocation_hint`` in :mod:`repro.sim.soatrace`) and calls
        this only for the hints it leaves to Python."""
        stats = node.stats
        decision = self.policy.on_relocation_hint(node.policy_state,
                                                  node.pool.free)
        if decision == RelocationDecision.SKIP:
            stats.skipped_relocations += 1
            return 0

        if decision == RelocationDecision.MIGRATE:
            return self._migrate_page(node, page, now)

        if not node.acquire_frame(now):
            if (decision == RelocationDecision.RELOCATE_IF_FREE
                    or not node.page_table.scoma_clock):
                # AS-COMA never evicts a hot page for another hot page,
                # and a node with no page-cache frames has none to evict.
                stats.skipped_relocations += 1
                return 0
            # R-NUMA / VC-NUMA: force-evict a victim (possibly hot).
            victim = node.choose_victim()
            overhead = node.evict_scoma_page(victim, forced=True)
            if not node.pool.try_allocate():  # pragma: no cover - invariant
                raise RuntimeError("frame lost after forced eviction")
            overhead += node.relocate_to_scoma(page)
            stats.K_OVERHD += overhead
            return overhead

        overhead = node.relocate_to_scoma(page)
        stats.K_OVERHD += overhead
        return overhead

    def _migrate_page(self, node, page: int, now: int) -> int:
        """Move *page*'s home to *node* (CCNUMA-MIG extension).

        Only non-shared pages migrate: if any third node (neither the
        requester nor the current home) caches a chunk of the page, the
        migration is vetoed -- the gate the paper describes for why
        migration only works on read-only or non-shared data.
        """
        machine = self.machine
        amap = machine.amap
        directory = machine.directory
        old_home = machine.allocator.home[page]
        stats = node.stats

        allowed = ~((1 << node.id) | (1 << old_home))
        home_bit = 1 << old_home
        home_chunks = 0
        first = amap.first_chunk_of_page(page)
        for chunk in range(first, first + amap.chunks_per_page):
            cs = directory.copyset_of(chunk)
            if cs & allowed:
                stats.skipped_migrations += 1
                return 0
            if cs & home_bit:
                home_chunks += 1
        # The old home still actively uses the page (it caches a
        # non-trivial share of its chunks): moving the home would just
        # swap whose accesses go remote.  Real migration policies weigh
        # both sides' usage; a small occupancy bound captures that.
        if home_chunks > amap.chunks_per_page // 4:
            stats.skipped_migrations += 1
            return 0

        # Old home flushes its cached copies and demotes to CC-NUMA mode
        # (its own next access will go remote).
        old = machine.nodes[old_home]
        flushed = old.flush_page(page)
        if old.page_table.mode_of(page) == PageMode.HOME:
            old.page_table.convert_home_to_ccnuma(page)

        machine.allocator.migrate(page, node.id)
        node.page_table.convert_ccnuma_to_home(page)
        # The requester's RAC may hold chunks fetched while the page was
        # remote; now that it is home-mapped they would linger unused.
        node.rac.flush_page(page, amap.lines_per_page if self._rac_victim
                            else amap.chunks_per_page)
        directory.reset_refetch(page, node.id)

        overhead = node.costs.migration_cost(amap.chunks_per_page, flushed)
        stats.K_OVERHD += overhead
        stats.migrations += 1
        events = self._events
        if events.kind_observers:
            events.clock = now
            events.publish(EV_MIGRATE, node.id, page, old_home=old_home)
        return overhead


def simulate(workload: WorkloadTraces, policy: ArchitecturePolicy,
             config: SystemConfig | None = None,
             quantum: int = DEFAULT_QUANTUM) -> RunResult:
    """Convenience wrapper: build an :class:`Engine` and run it."""
    return Engine(workload, policy, config=config, quantum=quantum).run()
