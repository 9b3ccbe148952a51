"""Tests for the victim-fill RAC mode (VC-NUMA's actual hardware)."""

import pytest

from repro.check import check_cache_reachability
from repro.core import CCNUMAPolicy
from repro.sim.config import SystemConfig
from repro.sim.engine import Engine, simulate
from repro.sim.trace import TraceBuilder, WorkloadTraces

LPP = 128


def cfg(mode="victim", entries=4):
    return SystemConfig(n_nodes=2, memory_pressure=0.5,
                        model_contention=False, rac_fill_policy=mode,
                        rac_entries=entries)


def conflict_workload(rounds=6):
    """Node 1 ping-pongs two L1-conflicting remote lines (pages 0 and 2,
    both homed at node 0): a victim cache's best case."""
    b0 = TraceBuilder()
    for page in range(3):
        b0.read(page * LPP)
    b0.barrier(0)
    b1 = TraceBuilder()
    for page in range(3, 6):
        b1.read(page * LPP)
    b1.barrier(0)
    for _ in range(rounds):
        b1.read(0)          # page 0, L1 set 0
        b1.read(2 * LPP)    # page 2, L1 set 0: evicts line 0 to the RAC
    b0.barrier(1)
    b1.barrier(1)
    return WorkloadTraces("conflict", [b0.build(), b1.build()],
                          home_pages_per_node=3, total_shared_pages=6)


class TestConfig:
    def test_policy_validated(self):
        with pytest.raises(ValueError):
            SystemConfig(rac_fill_policy="prefetch")

    def test_default_is_fetch(self):
        assert SystemConfig().rac_fill_policy == "fetch"


class TestVictimFill:
    def test_victim_rac_catches_conflict_ping_pong(self):
        result = simulate(conflict_workload(), CCNUMAPolicy(), cfg())
        s = result.node_stats[1]
        # After the first round, each evicted line is re-read from the RAC.
        assert s.RAC >= 8

    def test_fetch_rac_useless_on_ping_pong(self):
        # Chunks 0 and 64 alternate through the single fetch-fill slot.
        result = simulate(conflict_workload(), CCNUMAPolicy(),
                          cfg(mode="fetch", entries=1))
        assert result.node_stats[1].RAC == 0

    def test_no_fill_on_fetch_in_victim_mode(self):
        # A streaming pattern (consecutive lines, no L1 evictions of
        # remote lines) gets zero RAC hits under victim fill.
        b0 = TraceBuilder()
        b0.read(0)
        b0.barrier(0)
        b1 = TraceBuilder()
        b1.read(LPP)
        b1.barrier(0)
        for line in range(4):
            b1.read(line)
        b0.barrier(1)
        b1.barrier(1)
        wl = WorkloadTraces("stream", [b0.build(), b1.build()], 1, 2)
        result = simulate(wl, CCNUMAPolicy(), cfg())
        assert result.node_stats[1].RAC == 0
        # Every line went remote (first cold, rest chunk refetches).
        assert result.node_stats[1].remote_misses() == 4

    def test_only_remote_lines_enter_victim_rac(self):
        # Home-page L1 victims must not pollute the victim RAC.
        b0 = TraceBuilder()
        b0.read(0)
        b0.barrier(0)
        for _ in range(4):
            b0.read(0)
            b0.read(2 * LPP * 0 + 256)  # line 256 = page 2... remote? no:
        b0.barrier(1)
        b1 = TraceBuilder()
        b1.read(LPP)
        b1.barrier(0)
        b1.barrier(1)
        wl = WorkloadTraces("homeonly", [b0.build(), b1.build()],
                            home_pages_per_node=3, total_shared_pages=6)
        engine = Engine(wl, CCNUMAPolicy(), cfg())
        result = engine.run()
        # Node 0's conflicting lines are all home pages: RAC stays empty.
        assert all(c == -1 for c in engine.machine.nodes[0].rac.chunks)
        assert result.node_stats[0].RAC == 0


class TestCoherence:
    def test_invalidation_reaches_victim_rac(self):
        wl = conflict_workload(rounds=4)
        engine = Engine(wl, CCNUMAPolicy(), cfg())
        engine.run()
        assert check_cache_reachability(engine.machine) == []

    def test_flush_page_clears_victim_lines(self):
        from repro.coherence.directory import Directory
        from repro.sim.node import Node
        config = cfg()
        amap = config.address_map()
        node = Node(0, config, amap, Directory(2, amap.chunks_per_page),
                    CCNUMAPolicy(), cache_frames=0, total_frames=10)
        node.page_table.map_ccnuma(5)
        node.rac.fill(amap.line_id(5, 3))  # victim line of page 5
        node.flush_page(5)
        assert not node.rac.lookup(amap.line_id(5, 3))
