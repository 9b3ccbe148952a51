"""Unit tests for trace records, builders and persistence."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.harness.experiment import APP_PRESSURES, get_workload
from repro.sim.trace import (EV_BARRIER, EV_COMPUTE, EV_LOCAL, EV_READ,
                             EV_WRITE, Trace, TraceBuilder, WorkloadTraces,
                             coalesce_events)
from repro.workloads import (SampleSpec, generate_workload, ingest_file,
                             sample_workload)

FIXTURES = Path(__file__).parent / "fixtures"


class TestTraceBuilder:
    def test_basic_events(self):
        b = TraceBuilder()
        b.read(10)
        b.write(20)
        b.compute(100)
        b.local(50)
        b.barrier(0)
        t = b.build()
        assert list(t) == [(EV_READ, 10), (EV_WRITE, 20), (EV_COMPUTE, 100),
                           (EV_LOCAL, 50), (EV_BARRIER, 0)]

    def test_zero_compute_elided(self):
        b = TraceBuilder()
        b.compute(0)
        b.local(0)
        assert len(b) == 0

    def test_negative_cycles_rejected(self):
        b = TraceBuilder()
        with pytest.raises(ValueError):
            b.compute(-1)
        with pytest.raises(ValueError):
            b.local(-5)

    def test_extend_refs(self):
        b = TraceBuilder()
        b.extend_refs(np.array([1, 2, 3]), np.array([False, True, False]))
        t = b.build()
        assert t.count(EV_READ) == 2
        assert t.count(EV_WRITE) == 1

    def test_extend_refs_length_mismatch(self):
        with pytest.raises(ValueError):
            TraceBuilder().extend_refs(np.array([1]), np.array([True, False]))

    @pytest.mark.parametrize("kind", [256, -255, -1, EV_BARRIER + 1])
    def test_extend_events_rejects_out_of_range_kind(self, kind):
        # 256 and -255 wrap onto READ and WRITE if narrowed to uint8
        # before they are checked.
        b = TraceBuilder()
        with pytest.raises(ValueError, match="unknown event kind"):
            b.extend_events(np.array([kind]), np.array([5]))
        assert len(b) == 0

    def test_interleaved_scalar_and_bulk_appends_keep_order(self):
        b = TraceBuilder()
        b.read(1)
        b.extend_events([EV_COMPUTE, EV_WRITE], [7, 2])
        b.write(3)
        b.barrier(0)
        b.extend_refs(np.array([4, 5]), np.array([True, False]))
        b.local(9)
        assert list(b.build()) == [
            (EV_READ, 1), (EV_COMPUTE, 7), (EV_WRITE, 2), (EV_WRITE, 3),
            (EV_BARRIER, 0), (EV_WRITE, 4), (EV_READ, 5), (EV_LOCAL, 9)]

    def test_bulk_appends_copy_their_arrays(self):
        kinds = np.array([[EV_COMPUTE, EV_READ]], dtype=np.uint8)
        args = np.array([[5, 10]])
        lines, writes = np.array([20]), np.array([False])
        b = TraceBuilder()
        b.extend_events(kinds, args)
        b.extend_refs(lines, writes)
        kinds[:] = EV_BARRIER
        args[:] = 0
        lines[:] = 0
        writes[:] = True
        assert list(b.build()) == [(EV_COMPUTE, 5), (EV_READ, 10),
                                   (EV_READ, 20)]

    def test_len_counts_pending_and_sealed_events(self):
        b = TraceBuilder()
        b.read(1)
        b.write(2)
        assert len(b) == 2
        b.extend_refs(np.arange(3), np.zeros(3, dtype=bool))
        assert len(b) == 5
        b.barrier(0)
        assert len(b) == 6
        assert len(b.build()) == 6

    def test_empty_builder_builds_empty_trace(self):
        t = TraceBuilder().build(coalesce=True)
        assert len(t) == 0
        assert t.kinds.dtype == np.uint8 and t.args.dtype == np.int64

    def test_build_twice_returns_the_longer_trace(self):
        b = TraceBuilder()
        b.read(1)
        b.extend_events([EV_COMPUTE], [4])
        first = b.build()
        b.write(2)
        b.extend_refs(np.array([3]), np.array([False]))
        second = b.build()
        assert list(first) == [(EV_READ, 1), (EV_COMPUTE, 4)]
        assert list(second) == [(EV_READ, 1), (EV_COMPUTE, 4),
                                (EV_WRITE, 2), (EV_READ, 3)]


def round_events(lines, writes, block, cycles):
    """The events ``extend_visits`` stands for, spelled out."""
    out = []
    for i, (line, write) in enumerate(zip(lines, writes)):
        if i % block == 0 and i + block <= len(lines):
            out.append((EV_COMPUTE, cycles))
        out.append((EV_WRITE if write else EV_READ, line))
    return out


def coalesced(events):
    kinds, args = coalesce_events(
        np.array([k for k, _ in events], dtype=np.uint8),
        np.array([a for _, a in events], dtype=np.int64))
    return list(Trace(kinds, args))


class TestExtendVisits:
    def test_blocks_then_a_tail_shorter_than_a_block(self):
        b = TraceBuilder()
        b.extend_visits(np.arange(10, 17), np.array([0, 1, 0, 0, 1, 1, 0],
                                                    dtype=bool), 3, 9)
        assert list(b.build()) == [
            (EV_COMPUTE, 9), (EV_READ, 10), (EV_WRITE, 11), (EV_READ, 12),
            (EV_COMPUTE, 9), (EV_READ, 13), (EV_WRITE, 14), (EV_WRITE, 15),
            (EV_READ, 16)]
        assert len(b) == 9

    def test_round_shorter_than_a_block_has_no_marker(self):
        b = TraceBuilder()
        b.compute(5)
        b.extend_visits(np.array([3, 4]), np.array([True, False]), 4, 9)
        assert list(b.build(coalesce=True)) == [
            (EV_COMPUTE, 5), (EV_WRITE, 3), (EV_READ, 4)]

    def test_empty_round_adds_nothing(self):
        b = TraceBuilder()
        b.compute(5)
        b.extend_visits(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool),
                        4, 9)
        b.compute(3)
        assert len(b) == 2
        assert list(b.build()) == [(EV_COMPUTE, 5), (EV_COMPUTE, 3)]
        assert list(b.build(coalesce=True)) == [(EV_COMPUTE, 8)]

    def test_coalescing_runs_across_piece_boundaries(self):
        b = TraceBuilder()
        b.compute(1)
        b.extend_events([EV_COMPUTE, EV_COMPUTE], [2, 4])
        b.extend_visits(np.array([7, 8]), np.zeros(2, dtype=bool), 1, 8)
        b.compute(16)
        b.local(32)
        b.extend_visits(np.array([9]), np.ones(1, dtype=bool), 1, 64)
        assert list(b.build()) == [
            (EV_COMPUTE, 1), (EV_COMPUTE, 2), (EV_COMPUTE, 4),
            (EV_COMPUTE, 8), (EV_READ, 7), (EV_COMPUTE, 8), (EV_READ, 8),
            (EV_COMPUTE, 16), (EV_LOCAL, 32), (EV_COMPUTE, 64),
            (EV_WRITE, 9)]
        # The first marker absorbs everything before it; a round ends
        # with a reference, so the compute(16) after it stands alone.
        assert list(b.build(coalesce=True)) == [
            (EV_COMPUTE, 15), (EV_READ, 7), (EV_COMPUTE, 8), (EV_READ, 8),
            (EV_COMPUTE, 16), (EV_LOCAL, 32), (EV_COMPUTE, 64),
            (EV_WRITE, 9)]

    def test_local_before_a_round_does_not_merge(self):
        b = TraceBuilder()
        b.local(4)
        b.extend_visits(np.array([1]), np.zeros(1, dtype=bool), 1, 2)
        assert list(b.build(coalesce=True)) == [
            (EV_LOCAL, 4), (EV_COMPUTE, 2), (EV_READ, 1)]

    def test_build_twice_and_after_more_rounds(self):
        b = TraceBuilder()
        b.extend_visits(np.array([1, 2]), np.zeros(2, dtype=bool), 2, 3)
        first = b.build(coalesce=True)
        b.barrier(0)
        b.extend_visits(np.array([5]), np.ones(1, dtype=bool), 1, 3)
        second = b.build(coalesce=True)
        assert list(first) == [(EV_COMPUTE, 3), (EV_READ, 1), (EV_READ, 2)]
        assert list(second) == list(first) + [
            (EV_BARRIER, 0), (EV_COMPUTE, 3), (EV_WRITE, 5)]
        assert list(b.build(coalesce=True)) == list(second)

    def test_extend_visits_takes_over_its_arrays(self):
        # The documented rule: the builder keeps the round's arrays as
        # they are, so a change after the append shows in the build.
        lines, writes = np.array([1, 2]), np.zeros(2, dtype=bool)
        b = TraceBuilder()
        b.extend_visits(lines, writes, 2, 3)
        lines[0] = 40
        writes[1] = True
        assert list(b.build()) == [(EV_COMPUTE, 3), (EV_READ, 40),
                                   (EV_WRITE, 2)]

    def test_rejects_bad_rounds(self):
        b = TraceBuilder()
        with pytest.raises(ValueError, match="length mismatch"):
            b.extend_visits(np.arange(3), np.zeros(2, dtype=bool), 1, 1)
        with pytest.raises(ValueError, match="at least one reference"):
            b.extend_visits(np.arange(3), np.zeros(3, dtype=bool), 0, 1)
        assert len(b) == 0

    @given(st.lists(st.one_of(
        st.tuples(st.just("visits"), st.lists(st.booleans(), max_size=9),
                  st.integers(1, 4), st.integers(0, 5)),
        st.tuples(st.sampled_from(["compute", "local", "barrier", "read"]),
                  st.integers(0, 5)),
        st.tuples(st.just("events"),
                  st.lists(st.sampled_from([EV_COMPUTE, EV_LOCAL, EV_READ]),
                           max_size=4))), max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_spelled_out_events(self, ops):
        b = TraceBuilder()
        events = []
        for op in ops:
            if op[0] == "visits":
                _, writes, block, cycles = op
                lines = np.arange(len(writes)) + 100
                b.extend_visits(lines, np.array(writes, dtype=bool), block,
                                cycles)
                events += round_events(lines.tolist(), writes, block, cycles)
            elif op[0] == "events":
                b.extend_events(op[1], list(range(1, len(op[1]) + 1)))
                events += list(zip(op[1], range(1, len(op[1]) + 1)))
            else:
                getattr(b, op[0])(op[1])
                kind = {"compute": EV_COMPUTE, "local": EV_LOCAL,
                        "barrier": EV_BARRIER, "read": EV_READ}[op[0]]
                if op[1] or kind in (EV_BARRIER, EV_READ):
                    events.append((kind, op[1]))
        assert len(b) == len(events)
        assert list(b.build()) == events
        assert list(b.build(coalesce=True)) == coalesced(events)


def _builders_of(monkeypatch, make):
    """Run *make* and return its workload and the builders it was made
    from."""
    seen = []
    real = WorkloadTraces.from_builders.__func__

    def spy(cls, name, builders, *args, **kwargs):
        seen.append(builders)
        return real(cls, name, builders, *args, **kwargs)

    monkeypatch.setattr(WorkloadTraces, "from_builders", classmethod(spy))
    workload = make()
    (builders,) = seen
    return workload, builders


@pytest.mark.parametrize("case", [*sorted(APP_PRESSURES), "csv-ingest"])
def test_flat_build_equals_per_node_build(case, monkeypatch):
    """``from_builders`` writes exactly what building each node and
    concatenating would."""
    if case == "csv-ingest":
        def make():
            return ingest_file(FIXTURES / "external_small.csv", barriers=3,
                               cycles_per_time=2.0)
    else:
        def make():
            return generate_workload(case, scale=0.1)
    flat, builders = _builders_of(monkeypatch, make)
    nodes = WorkloadTraces(flat.name, [b.build(coalesce=True)
                                       for b in builders],
                           flat.home_pages_per_node, flat.total_shared_pages,
                           flat.params)
    assert np.array_equal(flat.kinds, nodes.kinds)
    assert np.array_equal(flat.args, nodes.args)
    assert flat.offsets.tolist() == nodes.offsets.tolist()
    assert flat.lengths.tolist() == nodes.lengths.tolist()
    assert flat.content_hash() == nodes.content_hash()


def test_from_builders_needs_a_node():
    with pytest.raises(ValueError):
        WorkloadTraces.from_builders("none", [], 1, 2)


class TestTrace:
    def make(self):
        b = TraceBuilder()
        b.read(0)
        b.read(128)    # page 1, line 0 (128 lines/page)
        b.write(200)
        b.barrier(0)
        b.compute(5)
        return b.build()

    def test_len(self):
        assert len(self.make()) == 5

    def test_shared_refs(self):
        assert self.make().shared_refs() == 3

    def test_barriers(self):
        assert self.make().barriers() == 1

    def test_pages_touched(self):
        assert self.make().pages_touched(128) == {0, 1}

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValueError):
            Trace(np.zeros(3, dtype=np.uint8), np.zeros(2, dtype=np.int64))

    def test_event_name(self):
        assert self.make().event_name(EV_READ) == "READ"


class TestWorkloadTraces:
    def make(self, n_nodes=2):
        traces = []
        for node in range(n_nodes):
            b = TraceBuilder()
            b.read(node * 128)
            b.barrier(0)
            traces.append(b.build())
        return WorkloadTraces("t", traces, home_pages_per_node=1,
                             total_shared_pages=n_nodes)

    def test_basic_metadata(self):
        wl = self.make()
        assert wl.n_nodes == 2
        assert wl.total_refs() == 2

    def test_mismatched_barriers_rejected(self):
        b0 = TraceBuilder(); b0.barrier(0)
        b1 = TraceBuilder()
        with pytest.raises(ValueError):
            WorkloadTraces("bad", [b0.build(), b1.build()], 1, 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            WorkloadTraces("bad", [], 1, 2)

    def test_max_remote_pages_with_home_map(self):
        wl = self.make()
        home_of = {0: 0, 1: 1}
        assert wl.max_remote_pages(128, home_of) == 0
        cross = {0: 1, 1: 0}  # every touched page is remote
        assert wl.max_remote_pages(128, cross) == 1

    def test_ideal_pressure_formula(self):
        wl = self.make()
        # 0 remote pages under the proportional-share estimate.
        assert wl.ideal_pressure(128) == 1.0

    def test_save_load_roundtrip(self, tmp_path):
        wl = self.make()
        path = tmp_path / "wl.bin"
        wl.save(str(path))
        loaded = WorkloadTraces.load(str(path))
        assert loaded.name == wl.name
        assert loaded.n_nodes == wl.n_nodes
        assert loaded.total_refs() == wl.total_refs()
        for a, b in zip(loaded.traces, wl.traces):
            assert np.array_equal(a.kinds, b.kinds)
            assert np.array_equal(a.args, b.args)

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a trace file")
        with pytest.raises(ValueError):
            WorkloadTraces.load(str(path))

    def test_traces_are_views_of_the_flat_arrays(self):
        wl = self.make(n_nodes=3)
        kinds, args, offsets, lengths, lo, hi = wl.soa()
        assert kinds is wl.kinds and args is wl.args
        assert offsets.tolist() == [0, 2, 4] and lengths.tolist() == [2] * 3
        assert (lo, hi) == (0, 256)
        for trace in wl.traces:
            assert np.shares_memory(trace.kinds, wl.kinds)
            assert np.shares_memory(trace.args, wl.args)

    def test_ref_bounds_without_references(self):
        builders = [TraceBuilder(), TraceBuilder()]
        for b in builders:
            b.compute(7)
            b.local(3)
            b.barrier(0)
        wl = WorkloadTraces.from_builders("norefs", builders, 1, 2)
        assert wl.soa()[4:] == (0, -1)

    def test_ref_bounds_with_only_references(self):
        b0, b1 = TraceBuilder(), TraceBuilder()
        b0.extend_refs(np.array([9, 4, 12]), np.array([0, 1, 0], dtype=bool))
        b1.write(30)
        b1.read(5)
        wl = WorkloadTraces.from_builders("refs", [b0, b1], 1, 2)
        assert wl.soa()[4:] == (4, 30)

    def test_ref_bounds_ignore_cycle_and_barrier_args(self):
        b0, b1 = TraceBuilder(), TraceBuilder()
        b0.compute(10**6)
        b0.read(50)
        b0.barrier(0)
        b1.write(20)
        b1.local(1)
        b1.barrier(0)
        wl = WorkloadTraces.from_builders("mixed", [b0, b1], 1, 2)
        assert wl.soa()[4:] == (20, 50)
        generated = generate_workload("fft", scale=0.1)
        refs = generated.args[generated.kinds <= EV_WRITE]
        assert generated.soa()[4:] == (int(refs.min()), int(refs.max()))

    def test_empty_workload_round_trips(self, tmp_path):
        wl = WorkloadTraces("empty", [TraceBuilder().build()] * 2, 1, 2)
        path = tmp_path / "empty.bin"
        wl.save(str(path))
        loaded = WorkloadTraces.load(str(path))
        assert loaded.n_nodes == 2 and len(loaded.kinds) == 0
        assert loaded.soa()[4:] == (0, -1)
        assert loaded.content_hash() == wl.content_hash()


@pytest.mark.parametrize("case", [*sorted(APP_PRESSURES), "csv-ingest",
                                  "sampled"])
def test_load_save_keeps_params_and_content_hash(case, tmp_path):
    """The JSON header carries every generator's params unchanged."""
    if case == "csv-ingest":
        wl = ingest_file(FIXTURES / "external_small.csv", barriers=3,
                         cycles_per_time=2.0)
    elif case == "sampled":
        wl = sample_workload(get_workload("fft", 0.1),
                             SampleSpec(rate=4, pages=0.5))
    else:
        wl = get_workload(case, 0.1)
    path = tmp_path / "wl.trace"
    wl.save(str(path))
    loaded = WorkloadTraces.load(str(path))
    assert loaded.params == wl.params
    assert loaded.content_hash() == wl.content_hash()
    assert (loaded.name, loaded.home_pages_per_node,
            loaded.total_shared_pages) == (wl.name, wl.home_pages_per_node,
                                           wl.total_shared_pages)
