"""Unit tests for the TLB reference bits (``Node.ref_bits``)."""

from repro.coherence.directory import Directory
from repro.core import make_policy
from repro.sim.config import SystemConfig
from repro.sim.engine import Engine
from repro.sim.node import Node
from tests.conftest import make_micro_workload


def run_micro(vector_path: bool) -> Engine:
    """The micro workload on CC-NUMA (no page cache, so no pageout
    daemon clears a bit): node 1 reads lines 0-7 of page 0, never
    page 1."""
    engine = Engine(make_micro_workload(), make_policy("CCNUMA"),
                    SystemConfig(n_nodes=2), vector_path=vector_path)
    engine.run()
    return engine


class TestTLB:
    def test_shootdown_clears_reference_bit(self):
        """Both remaps shoot the page's translation down: an S-COMA
        eviction and a relocation into the page cache clear its bit."""
        cfg = SystemConfig(n_nodes=4, model_contention=False)
        amap = cfg.address_map()
        node = Node(0, cfg, amap, Directory(4, amap.chunks_per_page),
                    make_policy("ASCOMA"), 4, 14)
        assert node.pool.try_allocate()
        node.map_scoma(5)
        node.ref_bits[5] = 1
        node.evict_scoma_page(5, forced=False)
        assert not node.ref_bits[5]
        assert node.pool.try_allocate()
        node.ref_bits[5] = 1
        node.relocate_to_scoma(5)
        assert not node.ref_bits[5]


class TestReferenceBits:
    def test_access_sets_bit(self):
        """An L1 miss sets its page's bit, on both replay loops."""
        for vector_path in (True, False):
            ref_bits = run_micro(vector_path).machine.nodes[1].ref_bits
            assert ref_bits[0]
            assert not ref_bits[1]

    def test_re_access_after_clear_resets_bit(self):
        engine = run_micro(vector_path=False)
        node = engine.machine.nodes[1]
        node.ref_bits[0] = 0
        engine._shared_ref(node, 8, False, 0)  # line 8 of page 0: L1 miss
        assert node.ref_bits[0]
