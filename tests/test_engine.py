"""Integration tests for the replay engine at microbenchmark scale."""

import pytest

from repro.core import (ASCOMAPolicy, CCNUMAPolicy, RNUMAPolicy, SCOMAPolicy,
                        make_policy)
from repro.kernel.vm import PageMode
from repro.sim.config import SystemConfig
from repro.sim.engine import Engine, simulate
from repro.sim.trace import TraceBuilder, WorkloadTraces

LPP = 128  # lines per page at default geometry


def cfg(n_nodes=2, pressure=0.5, contention=False):
    return SystemConfig(n_nodes=n_nodes, memory_pressure=pressure,
                        model_contention=contention)


def two_node_workload(node1_lines, home_pages=2, prologue=True,
                      node1_extra=None):
    """Node 0 homes pages [0, home_pages); node 1 homes the next ones.
    After the first barrier node 1 replays *node1_lines*."""
    b0 = TraceBuilder()
    if prologue:
        for page in range(home_pages):
            b0.read(page * LPP)
    b0.barrier(0)
    b0.compute(1)
    b0.barrier(1)

    b1 = TraceBuilder()
    if prologue:
        for page in range(home_pages, 2 * home_pages):
            b1.read(page * LPP)
    b1.barrier(0)
    for line in node1_lines:
        b1.read(line)
    if node1_extra:
        node1_extra(b1)
    b1.barrier(1)
    return WorkloadTraces("micro", [b0.build(), b1.build()],
                          home_pages_per_node=home_pages,
                          total_shared_pages=2 * home_pages)


class TestFirstTouch:
    def test_homes_assigned_by_first_touch(self):
        wl = two_node_workload([])
        engine = Engine(wl, CCNUMAPolicy(), cfg())
        engine.run()
        assert engine.machine.allocator.home[0] == 0
        assert engine.machine.allocator.home[2] == 1

    def test_home_pages_mapped_home(self):
        wl = two_node_workload([])
        engine = Engine(wl, CCNUMAPolicy(), cfg())
        engine.run()
        assert engine.machine.nodes[0].page_table.mode_of(0) == PageMode.HOME

    def test_faults_charged_k_base(self):
        wl = two_node_workload([])
        result = simulate(wl, CCNUMAPolicy(), cfg())
        kernel = cfg().kernel
        assert result.node_stats[0].K_BASE == 2 * kernel.page_fault
        assert result.node_stats[0].page_faults == 2


class TestCCNUMAPath:
    def test_remote_miss_classified_cold_then_conf(self):
        # Line 0 twice with a conflicting line in between (same L1 set,
        # 256 sets apart) forces a refetch of chunk 0.
        wl = two_node_workload([0, 256 * 2, 0])
        result = simulate(wl, CCNUMAPolicy(), cfg())
        s = result.node_stats[1]
        assert s.COLD == 2        # line 0 first touch + line 512 first touch
        assert s.CONF_CAPC == 1   # line 0 refetched
        assert s.induced_cold == 0

    def test_rac_hit_within_chunk(self):
        wl = two_node_workload([0, 1])  # same 4-line chunk
        result = simulate(wl, CCNUMAPolicy(), cfg())
        s = result.node_stats[1]
        assert s.COLD == 1
        assert s.RAC == 1

    def test_l1_hit_on_repeat(self):
        wl = two_node_workload([0, 0, 0])
        result = simulate(wl, CCNUMAPolicy(), cfg())
        s = result.node_stats[1]
        assert s.l1_hits == 2
        assert s.COLD == 1

    def test_remote_latency_magnitude(self):
        wl = two_node_workload([0])
        result = simulate(wl, CCNUMAPolicy(), cfg())
        s = result.node_stats[1]
        # One remote miss at ~180 cycles (plus home-page prologue misses).
        assert s.U_SH_MEM >= 180

    def test_home_access_classified_home(self):
        wl = two_node_workload([])
        result = simulate(wl, CCNUMAPolicy(), cfg())
        assert result.node_stats[0].HOME == 2


class TestSCOMAPath:
    def test_remote_pages_mapped_scoma(self):
        wl = two_node_workload([0])
        engine = Engine(wl, SCOMAPolicy(), cfg())
        engine.run()
        assert engine.machine.nodes[1].page_table.mode_of(0) == PageMode.SCOMA

    def test_chunk_valid_after_fetch_gives_local_hits(self):
        # Lines 0 and 1 share chunk 0: second access is a page-cache hit
        # (the whole 128-byte chunk was fetched).
        wl = two_node_workload([0, 1, 2, 3])
        result = simulate(wl, SCOMAPolicy(), cfg())
        s = result.node_stats[1]
        assert s.COLD == 1
        assert s.SCOMA == 3

    def test_forced_eviction_when_pool_dry(self):
        # Pressure ~1: no cache frames; S-COMA must evict per page.
        pressure_cfg = cfg(pressure=0.999)
        lines = [0, LPP, 0]  # page0, page1, page0 again
        wl = two_node_workload(lines)
        result = simulate(wl, SCOMAPolicy(), pressure_cfg)
        s = result.node_stats[1]
        assert s.forced_evictions >= 2
        assert s.K_OVERHD > 0
        assert s.page_faults >= 4  # re-faults after eviction

    def test_eviction_induces_cold_misses(self):
        pressure_cfg = cfg(pressure=0.999)
        wl = two_node_workload([0, LPP, 0])
        result = simulate(wl, SCOMAPolicy(), pressure_cfg)
        assert result.node_stats[1].induced_cold >= 1


class TestRNUMARelocation:
    def test_relocation_at_threshold(self):
        # Refetch chunk 0 repeatedly by alternating conflicting lines.
        lines = []
        for _ in range(6):
            lines += [0, 512]
        wl = two_node_workload(lines)
        result = simulate(wl, RNUMAPolicy(threshold=4), cfg())
        s = result.node_stats[1]
        assert s.relocations >= 1

    def test_no_relocation_below_threshold(self):
        wl = two_node_workload([0, 512, 0])
        result = simulate(wl, RNUMAPolicy(threshold=50), cfg())
        assert result.node_stats[1].relocations == 0

    def test_page_cache_hits_after_relocation(self):
        lines = []
        for _ in range(8):
            lines += [0, 512]
        wl = two_node_workload(lines)
        result = simulate(wl, RNUMAPolicy(threshold=4), cfg())
        assert result.node_stats[1].SCOMA > 0


class TestASCOMAPath:
    def test_scoma_first_at_low_pressure(self):
        wl = two_node_workload([0])
        engine = Engine(wl, ASCOMAPolicy(), cfg(pressure=0.1))
        engine.run()
        assert engine.machine.nodes[1].page_table.mode_of(0) == PageMode.SCOMA
        assert engine.machine.nodes[1].stats.relocations == 0

    def test_ccnuma_fallback_when_pool_dry(self):
        pressure_cfg = cfg(pressure=0.999)
        wl = two_node_workload([0])
        engine = Engine(wl, ASCOMAPolicy(), pressure_cfg)
        engine.run()
        assert engine.machine.nodes[1].page_table.mode_of(0) == PageMode.CCNUMA

    def test_no_forced_evictions_ever(self):
        pressure_cfg = cfg(pressure=0.999)
        lines = []
        for rep in range(10):
            lines += [0, LPP, 512]
        wl = two_node_workload(lines)
        result = simulate(wl, ASCOMAPolicy(threshold=2, increment=2),
                          pressure_cfg)
        assert result.node_stats[1].forced_evictions == 0


class TestAccounting:
    def test_compute_and_local_buckets(self):
        b0 = TraceBuilder()
        b0.compute(100)
        b0.local(40)
        b0.barrier(0)
        b1 = TraceBuilder()
        b1.barrier(0)
        wl = WorkloadTraces("acct", [b0.build(), b1.build()], 1, 2)
        result = simulate(wl, CCNUMAPolicy(), cfg())
        assert result.node_stats[0].U_INSTR == 100
        assert result.node_stats[0].U_LC_MEM == 40

    def test_barrier_sync_charged_to_early_arriver(self):
        b0 = TraceBuilder()
        b0.barrier(0)
        b1 = TraceBuilder()
        b1.compute(1000)
        b1.barrier(0)
        wl = WorkloadTraces("sync", [b0.build(), b1.build()], 1, 2)
        result = simulate(wl, CCNUMAPolicy(), cfg())
        assert result.node_stats[0].SYNC == 1000
        assert result.node_stats[1].SYNC == 0

    def test_clocks_equal_after_barrier(self):
        b0 = TraceBuilder()
        b0.compute(10)
        b0.barrier(0)
        b0.compute(5)
        b1 = TraceBuilder()
        b1.compute(500)
        b1.barrier(0)
        b1.compute(5)
        wl = WorkloadTraces("sync2", [b0.build(), b1.build()], 1, 2)
        result = simulate(wl, CCNUMAPolicy(), cfg())
        assert result.node_stats[0].total_cycles() == \
            result.node_stats[1].total_cycles()

    def test_mismatched_barrier_ids_detected(self):
        b0 = TraceBuilder()
        b0.barrier(0)
        b1 = TraceBuilder()
        b1.barrier(1)
        wl = WorkloadTraces("bad", [b0.build(), b1.build()], 1, 2)
        with pytest.raises(RuntimeError, match="barrier mismatch"):
            simulate(wl, CCNUMAPolicy(), cfg())

    def test_negative_line_id_rejected(self):
        # State is indexed by page and chunk, where a negative line id
        # would wrap to another page instead of failing.
        b0 = TraceBuilder()
        b0.read(0)
        b0.read(-1)
        b0.barrier(0)
        b1 = TraceBuilder()
        b1.barrier(0)
        wl = WorkloadTraces("neg", [b0.build(), b1.build()], 1, 2)
        with pytest.raises(ValueError,
                           match="line ids must be non-negative"):
            Engine(wl, CCNUMAPolicy(), cfg())


class TestWriteCoherence:
    def test_write_to_shared_chunk_upgrades(self):
        def writes(b):
            b.write(0)
        wl = two_node_workload([0], node1_extra=writes)
        result = simulate(wl, CCNUMAPolicy(), cfg())
        # Read fetched shared, the write (an L1 hit) required an upgrade.
        assert result.node_stats[1].upgrades == 1

    def test_remote_write_invalidates_sharer_copy(self):
        # Node 1 reads node 0's line; node 0 then writes it; node 1's
        # re-read must go remote again (coherence miss).
        b0 = TraceBuilder()
        b0.read(0)
        b0.barrier(0)
        b0.barrier(1)
        b0.write(0)
        b0.barrier(2)
        b1 = TraceBuilder()
        b1.read(2 * LPP)
        b1.barrier(0)
        b1.read(0)
        b1.barrier(1)
        b1.barrier(2)
        b1.read(0)
        wl = WorkloadTraces("coh", [b0.build(), b1.build()], 2, 4)
        result = simulate(wl, CCNUMAPolicy(), cfg())
        s = result.node_stats[1]
        assert s.COLD + s.CONF_CAPC == 2  # both reads of line 0 went remote


class TestEngineValidation:
    def test_node_count_mismatch_rejected(self):
        wl = two_node_workload([])
        with pytest.raises(ValueError):
            Engine(wl, CCNUMAPolicy(), cfg(n_nodes=8))

    def test_bad_quantum_rejected(self):
        wl = two_node_workload([])
        with pytest.raises(ValueError):
            Engine(wl, CCNUMAPolicy(), cfg(), quantum=0)

    def test_default_config_from_workload(self):
        wl = two_node_workload([])
        engine = Engine(wl, CCNUMAPolicy())
        assert engine.config.n_nodes == 2


class TestDeterminism:
    def test_same_inputs_same_result(self):
        wl = two_node_workload([0, 1, 512, 0])
        a = simulate(wl, make_policy("ascoma", threshold=4), cfg())
        b = simulate(wl, make_policy("ascoma", threshold=4), cfg())
        assert a.aggregate().as_dict() == b.aggregate().as_dict()
