"""Unit tests for the TLB reference-bit model."""

from repro.core import make_policy
from repro.mem.tlb import TLB
from repro.sim.config import SystemConfig
from repro.sim.engine import Engine
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
    def test_shootdown(self):
        tlb = TLB()
        tlb.ref_bits[5] = 1
        tlb.shootdown(5)
        assert tlb.shootdowns == 1

    def test_shootdown_clears_reference_bit(self):
        tlb = TLB()
        tlb.ref_bits[5] = 1
        tlb.shootdown(5)
        assert not tlb.reference_bit(5)


class TestReferenceBits:
    def test_access_sets_bit(self):
        """An L1 miss sets its page's bit, on both replay loops."""
        for vector_path in (True, False):
            tlb = run_micro(vector_path).machine.nodes[1].tlb
            assert tlb.reference_bit(0)
            assert not tlb.reference_bit(1)

    def test_clear_bit(self):
        tlb = TLB()
        tlb.ref_bits[7] = 1
        tlb.clear_reference_bit(7)
        assert not tlb.reference_bit(7)

    def test_re_access_after_clear_resets_bit(self):
        engine = run_micro(vector_path=False)
        node = engine.machine.nodes[1]
        node.tlb.clear_reference_bit(0)
        engine._shared_ref(node, 8, False, 0)  # line 8 of page 0: L1 miss
        assert node.tlb.reference_bit(0)

    def test_unknown_page_bit_is_false(self):
        assert not TLB().reference_bit(99)
