"""Unit tests for the online invariant checker (``repro.check``).

Three angles:

* each structural check fires on a deliberately corrupted machine and
  stays silent on a healthy one;
* the end-to-end seeded-bug path: ``debug_skip_invalidate_node`` drops
  invalidations and the checker pins the resulting stale copies to a
  node, page and clock;
* plumbing -- granularities, violation caps, detach, RunResult and
  runtime-layer integration (``check=True`` bypasses the result store).
"""

import numpy as np
import pytest

from repro.check import (InvariantChecker, Violation,
                         check_cache_reachability, check_directory_swmr,
                         check_frame_accounting, check_page_table,
                         check_rac_exclusivity)
from repro.core import make_policy
from repro.harness.experiment import run_app
from repro.kernel.vm import PageMode
from repro.runtime import RunSpec, RunStore, execute, use_store
from repro.sim.config import SystemConfig
from repro.sim.engine import Engine
from repro.workloads import synthetic

ASCOMA_KWARGS = dict(threshold=8, increment=4)


def run_engine(arch="ASCOMA", pressure=0.5, write_fraction=0.3, seed=3,
               granularity=None, **config_extra):
    wl = synthetic.generate(
        n_nodes=4, home_pages_per_node=6, remote_pages_per_node=10,
        sweeps=5, lines_per_visit=8, hot_fraction=0.8,
        write_fraction=write_fraction, home_lines_per_sweep=32, seed=seed)
    cfg = SystemConfig(n_nodes=4, memory_pressure=pressure, **config_extra)
    kwargs = {"ASCOMA": ASCOMA_KWARGS,
              "RNUMA": dict(threshold=8),
              "VCNUMA": dict(threshold=8, break_even=4, increment=4),
              "CCNUMAMIG": dict(threshold=8)}.get(arch, {})
    engine = Engine(wl, make_policy(arch, **kwargs), cfg)
    checker = (InvariantChecker.attach(engine, granularity=granularity)
               if granularity else None)
    engine.run()
    return engine, checker


class TestStructuralChecks:
    """Each sweep fires on corrupted state, stays silent on clean state."""

    @pytest.fixture(scope="class")
    def machine(self):
        engine, _ = run_engine()
        return engine.machine

    def test_clean_machine_passes_everything(self, machine):
        assert check_cache_reachability(machine) == []
        assert check_directory_swmr(machine) == []
        assert check_frame_accounting(machine) == []
        assert check_rac_exclusivity(machine) == []
        assert check_page_table(machine) == []

    def test_swmr_detects_owner_outside_copyset(self, machine):
        directory = machine.directory
        chunk = next(c for c in range(len(directory.owner))
                     if directory.copyset_of(c))
        copyset = directory.copyset_of(chunk)
        bad_owner = next(n for n in range(4) if copyset != 1 << n)
        saved = directory.owner[chunk]
        directory.owner[chunk] = bad_owner
        try:
            found = check_directory_swmr(machine)
            assert any(v.invariant == "directory-swmr"
                       and v.detail["chunk"] == chunk for v in found)
        finally:
            directory.owner[chunk] = saved

    def test_reachability_detects_unreachable_scoma_bit(self, machine):
        node = next(n for n in machine.nodes
                    if n.page_table.scoma_page_count())
        page = node.page_table.scoma_clock[0]
        first = machine.amap.first_chunk_of_page(page)
        copysets = np.asarray(machine.directory.copyset).reshape(
            -1, machine.directory.words)
        saved = copysets[first].copy()
        copysets[first] = 0
        node.page_table.set_chunk_valid(page, 0)
        try:
            found = check_cache_reachability(machine)
            assert any(v.invariant == "cache-reachability"
                       and v.node == node.id and v.page == page
                       for v in found)
        finally:
            node.page_table.clear_chunk_valid(page, 0)
            copysets[first] = saved

    def test_reachability_detects_unreachable_rac_entry(self, machine):
        node = next(n for n in machine.nodes
                    if list(n.rac.resident_entries()))
        entry = next(iter(node.rac.resident_entries()))
        chunk = (entry >> machine.amap.chunk_shift if node.rac_victim
                 else entry)
        copysets = np.asarray(machine.directory.copyset).reshape(
            -1, machine.directory.words)
        saved = copysets[chunk].copy()
        copysets[chunk] = 0
        try:
            found = check_cache_reachability(machine)
            assert any(v.invariant == "cache-reachability"
                       and v.detail.get("structure") == "rac"
                       for v in found)
        finally:
            copysets[chunk] = saved

    def test_frame_accounting_detects_leak(self, machine):
        pool = machine.nodes[0].pool
        pool.free -= 1
        try:
            found = check_frame_accounting(machine)
            assert any(v.invariant == "frame-accounting" and v.node == 0
                       for v in found)
        finally:
            pool.free += 1

    def test_rac_exclusivity_detects_scoma_page_in_rac(self, machine):
        node = next(n for n in machine.nodes
                    if list(n.rac.resident_entries()))
        entry = next(iter(node.rac.resident_entries()))
        page = (entry >> machine.amap.line_shift if node.rac_victim
                else machine.amap.page_of_chunk(entry))
        saved = node.page_table.mode[page]
        node.page_table.mode[page] = PageMode.SCOMA
        try:
            found = check_rac_exclusivity(machine)
            assert any(v.invariant == "rac-exclusivity" and v.page == page
                       for v in found)
        finally:
            node.page_table.mode[page] = saved

    def test_page_table_detects_valid_mode_disagreement(self, machine):
        node = machine.nodes[0]
        ccnuma_page = next(p for p, m in enumerate(node.page_table.mode)
                           if m == PageMode.CCNUMA)
        node.page_table.set_chunk_valid(ccnuma_page, 0)
        try:
            found = check_page_table(machine)
            assert any(v.invariant == "page-table"
                       and "disagree" in v.message for v in found)
        finally:
            node.page_table.clear_chunk_valid(ccnuma_page, 0)

    def test_page_table_detects_bogus_home_mapping(self, machine):
        node = machine.nodes[0]
        foreign = next(p for p, home in enumerate(machine.allocator.home)
                       if home not in (-1, node.id))
        saved = node.page_table.mode[foreign]
        node.page_table.mode[foreign] = PageMode.HOME
        try:
            found = check_page_table(machine)
            assert any(v.invariant == "page-table" and v.page == foreign
                       and "allocator home" in v.message for v in found)
        finally:
            node.page_table.mode[foreign] = saved

    def test_page_table_detects_clock_desync(self, machine):
        node = next(n for n in machine.nodes if n.page_table.scoma_clock)
        page = node.page_table.scoma_clock[0]
        node.page_table.scoma_clock.append(page)  # duplicate clock entry
        try:
            found = check_page_table(machine)
            assert any(v.invariant == "page-table" and v.node == node.id
                       for v in found)
        finally:
            node.page_table.scoma_clock.pop()


class TestSeededBug:
    """The deliberately broken protocol variant must be caught."""

    @pytest.mark.parametrize("granularity", ["event", "barrier"])
    def test_dropped_invalidations_are_caught(self, granularity):
        _, checker = run_engine(write_fraction=0.5, granularity=granularity,
                                debug_skip_invalidate_node=1)
        assert checker.violations
        first = checker.violations[0]
        assert first.invariant == "cache-reachability"
        # Full simulator context: the offending node, page and cycle.
        assert first.node == 1
        assert first.page >= 0
        assert first.clock >= 0
        assert str(first).startswith("cache-reachability [node 1, page")

    def test_event_granularity_pins_earlier_than_barrier(self):
        _, ev = run_engine(write_fraction=0.5, granularity="event",
                           debug_skip_invalidate_node=1)
        _, bar = run_engine(write_fraction=0.5, granularity="barrier",
                            debug_skip_invalidate_node=1)
        assert ev.violations[0].clock <= bar.violations[0].clock

    def test_clean_run_is_silent_everywhere(self):
        for arch in ("CCNUMA", "SCOMA", "RNUMA", "VCNUMA", "ASCOMA",
                     "CCNUMAMIG"):
            _, checker = run_engine(arch=arch, granularity="event")
            assert not checker.violations, (arch, checker.report())


def fsm_checker(arch, **kwargs):
    """Checker wired to a policy only -- event checks touch no machine."""
    return InvariantChecker(None, make_policy(arch, **kwargs),
                            granularity="barrier")


def ev(kind, node=0, page=0, clock=5, **detail):
    from repro.sim.events import SimEvent
    return SimEvent(kind, node, page, clock, detail)


class TestPageModeFsm:
    """Event-driven FSM checks, driven by fabricated events."""

    def test_fault_on_home_page_must_map_home(self):
        checker = fsm_checker("CCNUMA")
        checker(ev("fault", node=0, page=3, mode=int(PageMode.CCNUMA),
                   home=0))
        [v] = checker.violations
        assert v.invariant == "page-mode-fsm" and "expected HOME" in v.message
        assert (v.node, v.page, v.clock) == (0, 3, 5)

    def test_fault_mode_must_be_policy_initial(self):
        checker = fsm_checker("CCNUMA")
        checker(ev("fault", mode=int(PageMode.SCOMA), home=1))
        [v] = checker.violations
        assert "CCNUMA allows ['CCNUMA']" in v.message

    def test_double_fault_is_reported(self):
        checker = fsm_checker("ASCOMA", scoma_first=False)
        checker(ev("fault", mode=int(PageMode.CCNUMA), home=1))
        assert not checker.violations
        checker(ev("fault", mode=int(PageMode.CCNUMA), home=1))
        # Shadow already shows the page mapped; a second fault on the
        # same mode is tolerated (map_scoma publishes before fault),
        # but a fault from a *different* mapped mode is not.
        checker._shadow[(0, 0)] = PageMode.SCOMA
        checker(ev("fault", mode=int(PageMode.CCNUMA), home=1))
        [v] = checker.violations
        assert "already in SCOMA mode" in v.message

    def test_scoma_map_requires_relocation_support(self):
        checker = fsm_checker("SCOMA")
        checker._shadow[(0, 0)] = PageMode.CCNUMA
        checker(ev("map_scoma"))
        [v] = checker.violations
        assert "does not relocate" in v.message

    def test_scoma_map_of_unmapped_requires_scoma_start(self):
        checker = fsm_checker("RNUMA")  # starts every page CC-NUMA
        checker(ev("map_scoma"))
        [v] = checker.violations
        assert "never starts in S-COMA" in v.message

    def test_scoma_map_of_home_page_is_illegal(self):
        checker = fsm_checker("ASCOMA")
        checker._shadow[(0, 0)] = PageMode.HOME
        checker(ev("map_scoma"))
        [v] = checker.violations
        assert "S-COMA map of a page in HOME mode" in v.message

    def test_evict_requires_scoma_mode(self):
        checker = fsm_checker("SCOMA")
        checker._shadow[(0, 0)] = PageMode.CCNUMA
        checker(ev("evict", forced=False, flushed=0))
        [v] = checker.violations
        assert "eviction of a page in CCNUMA mode" in v.message

    def test_forced_eviction_needs_policy_support(self):
        checker = fsm_checker("CCNUMAMIG", threshold=8)
        checker._shadow[(0, 0)] = PageMode.SCOMA
        checker(ev("evict", forced=True, flushed=0))
        [v] = checker.violations
        assert v.invariant == "forced-eviction"

    def test_relocation_needs_policy_support(self):
        checker = fsm_checker("SCOMA")
        checker._shadow[(0, 0)] = PageMode.SCOMA
        checker(ev("relocate", flushed=0))
        [v] = checker.violations
        assert "does not relocate" in v.message

    def test_relocation_must_end_in_scoma(self):
        checker = fsm_checker("RNUMA", threshold=8)
        checker._shadow[(0, 0)] = PageMode.CCNUMA
        checker(ev("relocate", flushed=0))
        [v] = checker.violations
        assert "left page in CCNUMA mode" in v.message

    def test_migration_needs_policy_support(self):
        checker = fsm_checker("RNUMA", threshold=8)
        checker._shadow[(0, 0)] = PageMode.CCNUMA
        checker(ev("migrate", old_home=1))
        [v] = checker.violations
        assert "does not migrate" in v.message

    def test_migration_requester_must_be_ccnuma(self):
        checker = fsm_checker("CCNUMAMIG", threshold=8)
        checker._shadow[(0, 0)] = PageMode.SCOMA
        checker(ev("migrate", old_home=1))
        [v] = checker.violations
        assert "in SCOMA mode, expected CCNUMA" in v.message
        assert checker._shadow[(0, 0)] == PageMode.HOME

    def test_migration_old_home_must_have_been_home(self):
        checker = fsm_checker("CCNUMAMIG", threshold=8)
        checker._shadow[(0, 0)] = PageMode.CCNUMA
        checker._shadow[(1, 0)] = PageMode.CCNUMA
        checker(ev("migrate", old_home=1))
        [v] = checker.violations
        assert "migration away from node 1" in v.message
        assert checker._shadow[(1, 0)] == PageMode.CCNUMA


class TestThresholdBackoff:
    def daemon(self, checker, thrashing, threshold):
        checker(ev("daemon", reclaimed=0, target=0,
                   thrashing=thrashing, threshold=threshold))

    def test_thrashing_must_not_lower_threshold(self):
        checker = fsm_checker("ASCOMA", threshold=8, increment=4)
        self.daemon(checker, True, 8)
        self.daemon(checker, True, 12)   # backing off: fine
        self.daemon(checker, True, 4)    # lowered the bar: violation
        [v] = checker.violations
        assert v.invariant == "threshold-backoff"
        assert "12 -> 4" in v.message

    def test_recovery_must_not_raise_threshold(self):
        checker = fsm_checker("ASCOMA", threshold=8, increment=4)
        self.daemon(checker, True, 12)
        self.daemon(checker, False, 8)   # walking back down: fine
        self.daemon(checker, False, 16)  # raised while calm: violation
        [v] = checker.violations
        assert "8 -> 16" in v.message

    def test_disable_and_reenable_are_legal(self):
        checker = fsm_checker("ASCOMA", threshold=8, increment=4)
        self.daemon(checker, True, 8)
        self.daemon(checker, True, 0)    # relocation disabled
        self.daemon(checker, False, 8)   # re-enabled from 0
        assert not checker.violations

    def test_non_adaptive_policies_are_exempt(self):
        checker = fsm_checker("ASCOMA", threshold=8, increment=4,
                              adaptive=False)
        self.daemon(checker, True, 8)
        self.daemon(checker, True, 2)
        assert not checker.violations


class TestCheckerPlumbing:
    def test_granularity_validation(self):
        engine, _ = run_engine()
        with pytest.raises(ValueError, match="granularity"):
            InvariantChecker(engine.machine, engine.policy,
                             granularity="bogus")

    def test_barrier_sweeps_fewer_than_event(self):
        _, ev = run_engine(granularity="event")
        _, bar = run_engine(granularity="barrier")
        assert bar.sweeps_run < ev.sweeps_run
        assert ev.events_seen == bar.events_seen

    def test_max_violations_caps_accumulation(self):
        wl = synthetic.generate(
            n_nodes=4, home_pages_per_node=6, remote_pages_per_node=10,
            sweeps=5, lines_per_visit=8, hot_fraction=0.8,
            write_fraction=0.5, home_lines_per_sweep=32, seed=3)
        cfg = SystemConfig(n_nodes=4, memory_pressure=0.5,
                           debug_skip_invalidate_node=1)
        engine = Engine(wl, make_policy("ASCOMA", **ASCOMA_KWARGS), cfg)
        checker = InvariantChecker.attach(engine, granularity="event",
                                          max_violations=5)
        engine.run()
        # The cap stops checking, not the simulation; one final sweep
        # may overshoot by a batch but not by the uncapped hundreds.
        assert 5 <= checker.violation_count() < 100

    def test_detach_stops_observing(self):
        engine, _ = run_engine()
        checker = InvariantChecker.attach(engine)
        checker.detach()
        assert engine.machine.events.kind_observers == {}

    def test_report_and_violation_roundtrip(self):
        v = Violation("page-table", "boom", node=2, page=7, clock=99,
                      detail={"k": 1})
        assert Violation.from_dict(v.as_dict()) == v
        checker = InvariantChecker.__new__(InvariantChecker)
        checker.violations = [v]
        assert "1 invariant violation(s)" in checker.report()
        assert "page-table [node 2, page 7, clock 99]: boom" \
            in checker.report()
        checker.violations = []
        assert checker.report() == "no invariant violations"


class TestRuntimeIntegration:
    def test_run_app_check_reports_zero(self):
        result = run_app("em3d", "ascoma", 0.7, scale=0.25, check=True)
        assert result.invariant_violations == 0
        assert result.summary()["invariant_violations"] == 0

    def test_unchecked_run_reports_none(self):
        result = run_app("em3d", "ascoma", 0.7, scale=0.25)
        assert result.invariant_violations is None
        assert "invariant_violations" not in result.summary()

    def test_checked_runs_bypass_the_store(self, tmp_path):
        store = RunStore(str(tmp_path / "store"))
        spec = RunSpec.make("em3d", "ascoma", 0.7, 0.25)
        with use_store(store):
            result = run_app("em3d", "ascoma", 0.7, scale=0.25, check=True)
        assert result.invariant_violations == 0
        assert store.get(spec) is None  # nothing cached
        outcomes = execute([spec], store=store, max_workers=1, check=True)
        assert outcomes[spec].invariant_violations == 0
        assert store.get(spec) is None
