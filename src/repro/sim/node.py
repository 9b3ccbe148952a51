"""Per-node model: caches + VM state + page-management operations.

A :class:`Node` owns one processor's L1, RAC, TLB reference bits, page
table, free pool, pageout daemon and policy state, plus references to
the machine-wide directory and cost model.  All page-management
operations (S-COMA mapping, eviction, relocation) live here so that
their three side-effect families always happen together:

1. cache state: flush L1 lines / RAC chunks / S-COMA valid bits, and
   shoot down the page's TLB reference bit;
2. directory state: drop the node from the page's copysets (making
   future accesses *induced cold misses*) and reset refetch evidence;
3. accounting: cycle charges to K-BASE/K-OVERHD and event counters.

Each operation publishes its event kind on the machine-wide
:class:`~repro.sim.events.EventBus` only when a subscriber watches
that kind; invalidations and demotions carry their protocol time.

Every piece of per-node state the replay kernel reads or writes, its
counters included, is a row of a machine-wide :class:`NodeBlocks`
block, handed to the node's models when they are built; the models
index those rows directly, so the reference loop, the kernel and every
reader, mid-run or after it, share one copy.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from ..coherence.directory import Directory
from ..core.policy import N_POL, ArchitecturePolicy, PolicyNodeState
from ..interconnect.bus import N_BUS
from ..kernel.costs import KernelCosts
from ..kernel.freelist import N_PC, FreePagePool
from ..kernel.pageout import PageoutDaemon
from ..kernel.vm import PageMode, PageTable
from ..mem.address import AddressMap
from ..mem.cache import DirectMappedCache
from ..mem.setassoc import SetAssociativeCache
from ..mem.dram import N_MEM, BankedMemory
from ..mem.rac import RemoteAccessCache
from .config import SystemConfig
from .events import (EV_DAEMON, EV_DEMOTE, EV_EVICT, EV_FLUSH,
                     EV_INVALIDATE, EV_MAP_SCOMA, EV_RELOCATE, EventBus)
from .stats import N_STATS, NodeStats

__all__ = ["Node", "NodeBlocks"]

#: Where the memory's and the bus's counters start in a node's counter
#: row, and the row's length; the replay kernel reads these names
#: (``ctr[node * N_CTR + CTR_MEM + MEM_ACCESSES]``).
CTR_MEM, CTR_BUS, N_CTR = accumulate((0, N_MEM, N_BUS))


class NodeBlocks:
    """Per-node machine state, one row per node, in the layout and dtypes
    of the replay kernel's ``SoaState`` (see :mod:`repro.sim.soatrace`).

    ``l1_tags`` and ``rac`` are the caches (``-1`` = empty slot);
    ``owned``/``ever`` are per-chunk membership bytes; ``modes``,
    ``scoma_valid`` (``sv_words`` words per page), ``pc_hits`` (``-1`` =
    absent) and ``ref_bits`` (the TLB reference bits) are per page;
    ``mem_busy``/``bus_busy`` are the bank and bus busy-until stamps;
    ``pc`` is the page-cache row (free-pool counters plus the clock
    cursor), ``clk`` the clock's ring buffer and ``policy`` the policy
    row (break-even tallies, see :mod:`repro.core.policy`).  ``stats``
    holds the :class:`NodeStats` rows and ``counters`` the memory's and
    bus's counter rows (``CTR_*``).
    """

    __slots__ = ("l1_tags", "rac", "owned", "ever", "modes",
                 "scoma_valid", "pc_hits", "ref_bits", "mem_busy",
                 "bus_busy", "pc", "clk", "policy", "stats", "counters")

    def __init__(self, n_nodes: int, config: SystemConfig,
                 amap: AddressMap, n_pages: int) -> None:
        n_pages = max(n_pages, 1)
        n_chunks = n_pages * amap.chunks_per_page
        n_sets = config.l1_size_bytes // config.line_bytes
        sv_words = (amap.chunks_per_page + 63) >> 6
        self.l1_tags = np.full((n_nodes, n_sets), -1, np.int64)
        self.rac = np.full((n_nodes, config.rac_entries), -1, np.int64)
        self.owned = np.zeros((n_nodes, n_chunks), np.uint8)
        self.ever = np.zeros((n_nodes, n_chunks), np.uint8)
        self.modes = np.zeros((n_nodes, n_pages), np.int64)
        self.scoma_valid = np.zeros((n_nodes, n_pages, sv_words), np.uint64)
        self.pc_hits = np.full((n_nodes, n_pages), -1, np.int64)
        self.ref_bits = np.zeros((n_nodes, n_pages), np.uint8)
        self.mem_busy = np.zeros((n_nodes, config.dram_banks), np.int64)
        self.bus_busy = np.zeros(n_nodes, np.int64)
        self.pc = np.zeros((n_nodes, N_PC), np.int64)
        self.clk = np.zeros((n_nodes, n_pages + 1), np.int64)
        self.policy = np.zeros((n_nodes, N_POL), np.int64)
        self.stats = np.zeros((n_nodes, N_STATS), np.int64)
        self.counters = np.zeros((n_nodes, N_CTR), np.int64)


class Node:
    """One node of the simulated machine.

    *blocks* holds the machine-wide state rows (row ``node_id`` is this
    node's); a node built without them allocates a one-node block.
    """

    def __init__(self, node_id: int, config: SystemConfig, amap: AddressMap,
                 directory: Directory, policy: ArchitecturePolicy,
                 cache_frames: int, total_frames: int,
                 events: EventBus | None = None,
                 blocks: NodeBlocks | None = None) -> None:
        if blocks is None:
            blocks, row = NodeBlocks(1, config, amap, directory.n_pages), 0
        else:
            row = node_id
        self.id = node_id
        #: Machine-shared rare-event bus (see repro.sim.events).
        self.events = events if events is not None else EventBus()
        self.config = config
        self.amap = amap
        self.directory = directory
        self.policy = policy
        self.costs: KernelCosts = config.kernel

        if config.l1_ways == 1:
            self.l1 = DirectMappedCache(config.l1_size_bytes,
                                        config.line_bytes, amap,
                                        tags=blocks.l1_tags[row])
        else:
            self.l1 = SetAssociativeCache(config.l1_size_bytes,
                                          config.line_bytes,
                                          config.l1_ways, amap)
        self.rac = RemoteAccessCache(config.rac_entries,
                                     entries=blocks.rac[row])
        #: Victim-mode RACs hold 32-byte L1 victim *lines*; fetch-mode
        #: RACs hold whole 128-byte chunks (see SystemConfig).
        self.rac_victim = config.rac_fill_policy == "victim"
        #: page -> TLB reference bit: every L1 miss sets it, the
        #: second-chance scans and a shootdown (remap or eviction)
        #: clear it.  Translations are not modelled.
        self.ref_bits = memoryview(blocks.ref_bits[row])
        self.memory = BankedMemory(config.dram_banks, config.local_memory_cycles,
                                   config.dram_occupancy_cycles,
                                   max_queue_occupancies=(
                                       8 if config.model_contention else 0),
                                   busy_until=blocks.mem_busy[row],
                                   counters=blocks.counters[row][CTR_MEM:CTR_BUS])
        self.page_table = PageTable(amap.chunks_per_page,
                                    modes=blocks.modes[row],
                                    scoma_valid=blocks.scoma_valid[row],
                                    pc=blocks.pc[row], clk=blocks.clk[row])
        self.pool = FreePagePool(cache_frames, total_frames,
                                 config.free_min_frac, config.free_target_frac,
                                 pc=blocks.pc[row])
        self.policy_state: PolicyNodeState = policy.make_node_state(
            blocks.policy[row])
        self.stats = NodeStats(blocks.stats[row])

        #: chunk -> 1 while this node holds it Modified (write permission).
        self.owned = memoryview(blocks.owned[row])
        #: chunk -> 1 once this node has fetched it remotely (induced-cold
        #: stats).
        self.ever_fetched = memoryview(blocks.ever[row])
        #: page -> misses satisfied from the page cache since mapping
        #: (VC-NUMA's break-even input); -1 while the page is not cached.
        self.pagecache_hits = memoryview(blocks.pc_hits[row])

        self.daemon = PageoutDaemon(
            self.page_table, self.pool, self.costs, self.ref_bits,
            base_interval=config.daemon_base_interval,
        )

    # ------------------------------------------------------------------
    # Chunk-level coherence side effects (machine wires these in).
    # ------------------------------------------------------------------
    def invalidate_chunk(self, chunk: int, now: int | None = None) -> None:
        """Destroy this node's copy of *chunk* (remote write).

        *now* is the protocol time of the invalidation: the published
        event carries it, as the kernel's event ring does, and the
        bus's ambient clock is left alone.
        """
        amap = self.amap
        for line in amap.lines_of_chunk(chunk):
            self.l1.invalidate_line(line)
        if self.rac_victim:
            for line in amap.lines_of_chunk(chunk):
                self.rac.invalidate_chunk(line)
        else:
            self.rac.invalidate_chunk(chunk)
        self.owned[chunk] = 0
        page = amap.page_of_chunk(chunk)
        if self.page_table.mode_of(page) == PageMode.SCOMA:
            self.page_table.clear_chunk_valid(page, chunk % amap.chunks_per_page)
        events = self.events
        if events.watching(EV_INVALIDATE):
            events.publish(EV_INVALIDATE, self.id, page, clock=now,
                           chunk=chunk)

    def demote_chunk(self, chunk: int, now: int | None = None) -> None:
        """Lose write permission (a remote reader demoted our M copy)."""
        self.owned[chunk] = 0
        events = self.events
        if events.watching(EV_DEMOTE):
            events.publish(EV_DEMOTE, self.id,
                           self.amap.page_of_chunk(chunk), clock=now,
                           chunk=chunk)

    # ------------------------------------------------------------------
    # Page-management operations.
    # ------------------------------------------------------------------
    def flush_page(self, page: int) -> int:
        """Flush a page from all local caching structures.

        Returns the number of L1 lines flushed (the kernel flush cost is
        proportional to it).  Also drops the node from the page's chunk
        copysets, so subsequent accesses become induced cold misses.
        """
        flushed = self.l1.flush_page(page)
        self.rac.flush_page(page, self.amap.lines_per_page if self.rac_victim
                            else self.amap.chunks_per_page)
        first = self.amap.first_chunk_of_page(page)
        cpp = self.amap.chunks_per_page
        self.owned[first:first + cpp] = bytes(cpp)
        self.directory.drop_node_from_page(self.id, page)
        self.stats.lines_flushed += flushed
        if self.events.watching(EV_FLUSH):
            self.events.publish(EV_FLUSH, self.id, page, flushed=flushed)
        return flushed

    def map_scoma(self, page: int) -> None:
        """Install *page* into the page cache (frame already allocated)."""
        self.page_table.map_scoma(page)
        self.pagecache_hits[page] = 0
        if self.events.watching(EV_MAP_SCOMA):
            self.events.publish(EV_MAP_SCOMA, self.id, page)

    def evict_scoma_page(self, page: int, forced: bool) -> int:
        """Evict *page* from the page cache; returns K-OVERHD cycles.

        Hybrids downgrade the page to CC-NUMA mode; pure S-COMA unmaps
        it entirely.  The frame returns to the free pool.
        """
        flushed = self.flush_page(page)
        cached_pages = self.page_table.scoma_page_count()
        self.page_table.unmap_scoma(page, to_ccnuma=self.policy.evict_to_ccnuma)
        self.ref_bits[page] = 0  # TLB shootdown
        self.pool.release()
        self.directory.reset_refetch(page, self.id)
        hits = self.pagecache_hits[page]
        self.pagecache_hits[page] = -1
        self.policy.on_page_evicted(self.policy_state, page, hits,
                                    cached_pages)
        self.stats.evictions += 1
        if forced:
            self.stats.forced_evictions += 1
        if self.events.watching(EV_EVICT):
            self.events.publish(EV_EVICT, self.id, page, forced=forced,
                                flushed=flushed)
        return self.costs.eviction_cost(flushed)

    def relocate_to_scoma(self, page: int) -> int:
        """Upgrade a CC-NUMA page to S-COMA mode (frame already allocated).

        Returns the K-OVERHD cycle charge: relocation interrupt + flush
        of the page's cached lines + remap.
        """
        flushed = self.flush_page(page)
        self.ref_bits[page] = 0  # TLB shootdown
        self.map_scoma(page)
        self.directory.reset_refetch(page, self.id)
        self.stats.relocations += 1
        if self.events.watching(EV_RELOCATE):
            self.events.publish(EV_RELOCATE, self.id, page, flushed=flushed)
        return self.costs.relocation_cost(flushed)

    def choose_victim(self) -> int:
        """Second-chance victim selection for a forced eviction.

        Rotates past referenced pages (clearing their bits) up to one
        full revolution; if everything is referenced -- the all-hot case
        the paper's thrashing discussion centres on -- the front page is
        evicted anyway.
        """
        clock = self.page_table.scoma_clock
        if not clock:
            raise RuntimeError(f"node {self.id}: no S-COMA page to evict")
        ref_bits = self.ref_bits
        for _ in range(len(clock)):
            page = clock[0]
            if ref_bits[page]:
                ref_bits[page] = 0
                clock.rotate(-1)
            else:
                return page
        return clock[0]

    def _daemon_evict(self, page: int) -> None:
        """Eviction callback used by the pageout daemon's scan."""
        cost = self.evict_scoma_page(page, forced=False)
        # The daemon's per-run dispatch/scan cost is charged by the
        # caller; the eviction work itself is charged here.
        self.stats.K_OVERHD += cost

    # ------------------------------------------------------------------
    def run_daemon_if_due(self, now: int) -> None:
        """Invoke the pageout daemon when the pool is low (rate-limited)."""
        if self.daemon.due(now):
            events = self.events
            if events.kind_observers:
                events.clock = now
            result = self.daemon.run(now, self._daemon_evict)
            self.stats.K_OVERHD += result.cost
            self.stats.daemon_runs += 1
            if result.thrashing:
                self.stats.daemon_thrash += 1
            self.policy.on_daemon_result(self.policy_state, result, self.daemon)
            if events.watching(EV_DAEMON):
                # Published after on_daemon_result, so threshold/interval
                # carry the *post-backoff* state of the adaptive machinery.
                threshold = self.policy_state.effective_threshold()
                events.publish(
                    EV_DAEMON, self.id, -1,
                    reclaimed=result.reclaimed, target=result.target,
                    thrashing=result.thrashing,
                    threshold=threshold,
                    interval=self.daemon.interval,
                    enabled=threshold > 0,
                    free=self.pool.free)

    def acquire_frame(self, now: int) -> bool:
        """Try to get a free frame, running the daemon first if it is due."""
        self.run_daemon_if_due(now)
        return self.pool.try_allocate()
