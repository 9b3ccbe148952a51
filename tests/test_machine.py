"""Unit tests for machine assembly and cross-node wiring."""

import gc
import weakref

import pytest

from repro.core import CCNUMAPolicy, ASCOMAPolicy
from repro.harness.experiment import get_workload, scaled_policy
from repro.sim.config import SystemConfig
from repro.sim.engine import Engine
from repro.sim.machine import Machine


def make_machine(policy=None, pressure=0.5, n_nodes=4):
    cfg = SystemConfig(n_nodes=n_nodes, memory_pressure=pressure,
                       model_contention=False)
    return Machine(cfg, policy or ASCOMAPolicy(), home_pages_per_node=10,
                   total_shared_pages=10 * n_nodes)


class TestAssembly:
    def test_node_count(self):
        assert len(make_machine().nodes) == 4

    def test_page_cache_sized_by_pressure(self):
        m = make_machine(pressure=0.5)
        assert m.page_cache_frames() == 10
        m = make_machine(pressure=0.1)
        assert m.page_cache_frames() == 90

    def test_ccnuma_has_no_page_cache(self):
        m = make_machine(policy=CCNUMAPolicy())
        assert m.page_cache_frames() == 0

    def test_allocator_quota_balanced(self):
        m = make_machine()
        assert m.allocator.quota == 10


class TestCrossNodeWiring:
    def test_protocol_invalidation_reaches_victim_node(self):
        m = make_machine()
        chunk = 0
        line = 0
        m.nodes[1].l1.fill(line)
        m.protocol.remote_fetch_raw(1, chunk, 0, 0, False, 0, 0)  # node 1 shares
        m.protocol.remote_fetch_raw(2, chunk, 0, 0, True, 0, 0)   # node 2 writes
        assert not m.nodes[1].l1.lookup(line)

    def test_demotion_reaches_owner(self):
        m = make_machine()
        m.protocol.remote_fetch_raw(1, 0, 0, 0, True, 0, 0)
        m.nodes[1].owned[0] = 1
        m.protocol.remote_fetch_raw(2, 0, 0, 0, False, 0, 100)
        assert not m.nodes[1].owned[0]

    def test_utilisation_report_shape(self):
        m = make_machine()
        report = m.utilisation_report()
        assert set(report) == {"network", "memory", "buses", "directory"}
        assert len(report["memory"]) == 4


class TestNoReferenceCycle:
    """A finished machine is freed as soon as its engine is, without
    the cyclic collector: neither the protocol's cross-node callbacks
    nor the pageout daemons refer back to the machine or a node."""

    @pytest.mark.parametrize("arch", ["ASCOMA", "VCNUMA", "SCOMA"])
    def test_machine_dies_with_its_engine(self, arch):
        wl = get_workload("fft", 0.1)
        engine = Engine(wl, scaled_policy(arch),
                        config=SystemConfig(n_nodes=wl.n_nodes,
                                            memory_pressure=0.9))
        gc.disable()
        try:
            engine.run()
            machine = weakref.ref(engine.machine)
            del engine
            assert machine() is None
        finally:
            gc.enable()
