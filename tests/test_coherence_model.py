"""Coherence correctness: SWMR invariants and a golden data-value model.

The directory must maintain the single-writer / multiple-reader
invariant, and the full machine must never cache stale data.  Two
layers of checking:

1. **Directory-level golden model** (hypothesis): random GET/GETX/drop
   sequences, checking SWMR after every operation and that every
   copyset member's last-received data version is the current one.

2. **Machine-level audit**: run full workloads, then verify that every
   cached item -- L1 line, RAC chunk, S-COMA valid bit, owned chunk --
   implies copyset membership at the directory, so the protocol's
   invalidations can always reach every copy (the checker's
   reachability sweep, ``check_cache_reachability``).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.check import check_cache_reachability
from repro.coherence.directory import Directory
from repro.coherence.protocol import CoherenceProtocol
from repro.harness.experiment import scaled_policy
from repro.interconnect.network import Network
from repro.interconnect.topology import SwitchTopology
from repro.mem.dram import BankedMemory
from repro.sim.config import SystemConfig
from repro.sim.engine import Engine
from repro.workloads import generate_workload, migratory, synthetic

N_NODES = 4
ops = st.lists(st.tuples(st.integers(0, N_NODES - 1),       # node
                         st.integers(0, 31),                # chunk (page 0)
                         st.sampled_from(["read", "write", "drop"])),
               max_size=400)


class GoldenModel:
    """Reference data-value model: versions per chunk, copies per node."""

    def __init__(self) -> None:
        self.version: dict[int, int] = {}
        self.copy_version: dict[tuple[int, int], int] = {}

    def on_read(self, node: int, chunk: int) -> None:
        self.copy_version[(node, chunk)] = self.version.get(chunk, 0)

    def on_write(self, node: int, chunk: int) -> None:
        self.version[chunk] = self.version.get(chunk, 0) + 1
        self.copy_version[(node, chunk)] = self.version[chunk]

    def on_invalidate(self, node: int, chunk: int,
                      now: int | None = None) -> None:
        self.copy_version.pop((node, chunk), None)

    def check(self, directory: Directory) -> None:
        for chunk in range(len(directory.owner)):
            cs = directory.copyset_of(chunk)
            current = self.version.get(chunk, 0)
            for node in range(N_NODES):
                if cs >> node & 1:
                    held = self.copy_version.get((node, chunk))
                    assert held == current, (
                        f"node {node} holds version {held} of chunk {chunk},"
                        f" current is {current}")


def make_protocol(golden: GoldenModel):
    directory = Directory(N_NODES, 32, n_pages=1)  # the ops' page 0
    network = Network(SwitchTopology(N_NODES), port_occupancy=0)
    memories = [BankedMemory(4, 50, 20) for _ in range(N_NODES)]
    protocol = CoherenceProtocol(
        directory, network, memories,
        invalidate_chunk=golden.on_invalidate)
    return directory, protocol


class TestDirectoryGoldenModel:
    @given(ops)
    @settings(max_examples=200, deadline=None)
    def test_swmr_and_value_consistency(self, sequence):
        golden = GoldenModel()
        directory, protocol = make_protocol(golden)
        for node, chunk, op in sequence:
            if op == "drop":
                directory.drop_node_from_page(node, 0)
                for c in range(32):
                    golden.on_invalidate(node, c)
                continue
            is_write = op == "write"
            protocol.remote_fetch_raw(node, chunk, 0, (node + 1) % N_NODES,
                                      is_write, 0, 0)
            if is_write:
                golden.on_write(node, chunk)
            else:
                golden.on_read(node, chunk)
            # SWMR: a dirty owner is the sole copyset member.
            owner = directory.owner[chunk]
            if owner != -1:
                assert directory.sharers(chunk) == [owner]
            golden.check(directory)

    @given(ops)
    @settings(max_examples=100, deadline=None)
    def test_owner_always_in_copyset(self, sequence):
        golden = GoldenModel()
        directory, protocol = make_protocol(golden)
        for node, chunk, op in sequence:
            if op == "drop":
                directory.drop_node_from_page(node, 0)
                continue
            protocol.remote_fetch_raw(node, chunk, 0, (node + 1) % N_NODES,
                                      op == "write", 0, 0)
            for c, owner in enumerate(directory.owner):
                if owner != -1:
                    assert directory.is_cached_by(c, owner)



@pytest.mark.parametrize("arch", ["CCNUMA", "SCOMA", "RNUMA", "VCNUMA",
                                  "ASCOMA", "CCNUMAMIG"])
@pytest.mark.parametrize("pressure", [0.3, 0.9])
class TestMachineAudit:
    def test_no_unreachable_copies_after_run(self, arch, pressure):
        wl = synthetic.generate(
            n_nodes=4, home_pages_per_node=6, remote_pages_per_node=10,
            sweeps=5, lines_per_visit=8, hot_fraction=0.8,
            write_fraction=0.3, home_lines_per_sweep=32, seed=3)
        cfg = SystemConfig(n_nodes=4, memory_pressure=pressure)
        from repro.core import make_policy
        kwargs = {"RNUMA": dict(threshold=8),
                  "VCNUMA": dict(threshold=8, break_even=4, increment=4),
                  "ASCOMA": dict(threshold=8, increment=4),
                  "CCNUMAMIG": dict(threshold=8)}.get(arch, {})
        engine = Engine(wl, make_policy(arch, **kwargs), cfg)
        engine.run()
        assert check_cache_reachability(engine.machine) == []


class TestAuditOnPaperWorkloads:
    @pytest.mark.parametrize("app", ["em3d", "radix"])
    def test_audit_full_workload(self, app):
        wl = generate_workload(app, scale=0.25)
        cfg = SystemConfig(n_nodes=wl.n_nodes, memory_pressure=0.7)
        engine = Engine(wl, scaled_policy("ASCOMA"), cfg)
        engine.run()
        assert check_cache_reachability(engine.machine) == []

    def test_audit_migration_workload(self):
        wl = migratory.generate(scale=0.25, sweeps=6)
        cfg = SystemConfig(n_nodes=wl.n_nodes, memory_pressure=0.5)
        from repro.core import make_policy
        engine = Engine(wl, make_policy("ccnuma-mig", threshold=8), cfg)
        engine.run()
        assert check_cache_reachability(engine.machine) == []
