"""Tests for the SC/RC consistency-model option."""

import pytest

from repro.check import check_cache_reachability
from repro.coherence.directory import Directory
from repro.coherence.protocol import CoherenceProtocol
from repro.harness.experiment import get_workload, scaled_policy
from repro.interconnect.network import Network
from repro.interconnect.topology import SwitchTopology
from repro.mem.dram import BankedMemory
from repro.sim.config import SystemConfig
from repro.sim.engine import Engine, simulate


def make_protocol(stall=True):
    directory = Directory(4, 32)
    network = Network(SwitchTopology(4), port_occupancy=0)
    memories = [BankedMemory(4, 50, 20) for _ in range(4)]
    invalidated = []
    protocol = CoherenceProtocol(
        directory, network, memories,
        invalidate_chunk=lambda n, c, now=None: invalidated.append((n, c)),
        stall_on_invalidate=stall)
    return protocol, invalidated


class TestProtocolLevel:
    def test_sc_write_stalls_for_acks(self):
        protocol, _ = make_protocol(stall=True)
        protocol.remote_fetch_raw(1, 0, 0, 0, False, 0, 0)
        base, _ = protocol.remote_fetch_raw(2, 1, 0, 0, True, 0, 0)
        stalled, _ = protocol.remote_fetch_raw(2, 0, 0, 0, True, 0, 100)
        assert stalled > base  # ack round trip added

    def test_rc_write_does_not_stall(self):
        protocol, _ = make_protocol(stall=False)
        protocol.remote_fetch_raw(1, 0, 0, 0, False, 0, 0)
        base, _ = protocol.remote_fetch_raw(2, 1, 0, 0, True, 0, 0)
        overlapped, _ = protocol.remote_fetch_raw(2, 0, 0, 0, True, 0, 100)
        assert overlapped == base

    def test_rc_still_invalidates(self):
        """RC changes *when* the writer proceeds, never *whether* copies
        are destroyed -- coherence is unconditional."""
        protocol, invalidated = make_protocol(stall=False)
        protocol.remote_fetch_raw(1, 0, 0, 0, False, 0, 0)
        protocol.remote_fetch_raw(2, 0, 0, 0, True, 0, 100)
        assert (1, 0) in invalidated


class TestConfig:
    def test_validated(self):
        with pytest.raises(ValueError):
            SystemConfig(consistency="tso")

    def test_default_is_sc(self):
        assert SystemConfig().consistency == "sc"


class TestEndToEnd:
    def test_rc_never_slower(self):
        wl = get_workload("ocean", 0.25)
        totals = {}
        for cons in ("sc", "rc"):
            cfg = SystemConfig(n_nodes=wl.n_nodes, memory_pressure=0.5,
                               consistency=cons)
            totals[cons] = simulate(wl, scaled_policy("CCNUMA"),
                                    cfg).aggregate().total_cycles()
        assert totals["rc"] <= totals["sc"]

    def test_rc_same_miss_counts(self):
        wl = get_workload("ocean", 0.25)
        counts = {}
        for cons in ("sc", "rc"):
            cfg = SystemConfig(n_nodes=wl.n_nodes, memory_pressure=0.5,
                               consistency=cons)
            counts[cons] = simulate(wl, scaled_policy("CCNUMA"),
                                    cfg).aggregate().shared_misses()
        assert counts["sc"] == counts["rc"]

    def test_coherence_audit_holds_under_rc(self):
        from repro.core import make_policy
        from repro.workloads import synthetic
        wl = synthetic.generate(n_nodes=4, home_pages_per_node=6,
                                remote_pages_per_node=8, sweeps=4,
                                write_fraction=0.4, home_lines_per_sweep=32,
                                seed=21)
        cfg = SystemConfig(n_nodes=4, memory_pressure=0.5, consistency="rc")
        engine = Engine(wl, make_policy("ascoma", threshold=8, increment=4),
                        cfg)
        engine.run()
        assert check_cache_reachability(engine.machine) == []
