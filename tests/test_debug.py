"""Tests for the bounded page-management event trace."""

import pytest

from repro.harness.experiment import scaled_policy
from repro.sim.config import SystemConfig
from repro.sim.debug import Event, EventTrace
from repro.sim.engine import Engine
from repro.workloads import generate_workload


def run_traced(arch, pressure, scale=0.25, node_id=0, **kwargs):
    wl = generate_workload("em3d", scale=scale)
    cfg = SystemConfig(n_nodes=wl.n_nodes, memory_pressure=pressure)
    engine = Engine(wl, scaled_policy(arch, **kwargs), cfg)
    trace = EventTrace.attach(engine.machine.nodes[node_id])
    engine.run()
    return trace, engine


class TestEventTrace:
    def test_records_scoma_mappings(self):
        trace, engine = run_traced("ASCOMA", 0.1)
        maps = trace.of_kind("map_scoma")
        assert len(maps) == engine.machine.nodes[0].page_table.scoma_page_count()

    def test_records_relocations_and_flushes(self):
        trace, engine = run_traced("RNUMA", 0.1)
        assert len(trace.of_kind("relocate")) == \
            engine.machine.nodes[0].stats.relocations
        # Every relocation flushes the page first.
        assert len(trace.of_kind("flush")) >= len(trace.of_kind("relocate"))

    def test_evictions_tagged_forced_or_daemon(self):
        trace, engine = run_traced("SCOMA", 0.9)
        evictions = trace.of_kind("evict")
        assert evictions
        assert {e.detail for e in evictions} <= {"forced", "daemon"}
        forced = sum(1 for e in evictions if e.detail == "forced")
        assert forced == engine.machine.nodes[0].stats.forced_evictions

    def test_bounded(self):
        trace = EventTrace(limit=2)
        for page in range(5):
            trace.record("map_scoma", 0, page)
        assert len(trace) == 2
        assert trace.dropped == 3

    def test_ping_pong_detection(self):
        trace = EventTrace()
        for _ in range(3):
            trace.record("map_scoma", 0, 7)
            trace.record("evict", 0, 7)
        trace.record("map_scoma", 0, 9)
        hot = trace.ping_pong_pages(min_cycles=2)
        assert 7 in hot and 9 not in hot
        assert hot[7] == 3

    def test_single_relocation_is_not_ping_pong(self):
        """A relocation publishes map_scoma and then relocate for the
        same remap; one relocation per page must not read as two
        cycles.  At 10% pressure R-NUMA relocates pages once each."""
        trace, _ = run_traced("RNUMA", 0.1)
        assert trace.of_kind("relocate")
        assert trace.ping_pong_pages(min_cycles=2) == {}

    def test_thrashing_run_shows_ping_pong(self):
        trace, _ = run_traced("RNUMA", 0.9)
        # Under thrashing, some pages cycle through the cache repeatedly.
        assert trace.ping_pong_pages(min_cycles=2)

    def test_pages_accessor(self):
        trace = EventTrace()
        trace.record("flush", 1, 3)
        trace.record("evict", 1, 4)
        assert trace.pages() == [3, 4]
        assert trace.pages("evict") == [4]

    def test_event_is_frozen(self):
        ev = Event("flush", 0, 1)
        with pytest.raises(AttributeError):
            ev.page = 2

    def test_attach_does_not_change_results(self):
        wl = generate_workload("em3d", scale=0.25)
        cfg = SystemConfig(n_nodes=wl.n_nodes, memory_pressure=0.7)
        plain = Engine(wl, scaled_policy("ASCOMA"), cfg).run()
        engine = Engine(wl, scaled_policy("ASCOMA"), cfg)
        EventTrace.attach(engine.machine.nodes[0])
        traced = engine.run()
        assert plain.aggregate().as_dict() == traced.aggregate().as_dict()
