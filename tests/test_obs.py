"""Tests for repro.obs: sink, spans, kind-filtered backoff telemetry,
and the event bus's kind subscriptions it rides on.

The acceptance tests at the bottom pin the two ISSUE-level claims: an
observed serial sweep's per-cell spans account for the measured
wall-clock (within 10%), and the em3d high-pressure cell reproduces
the paper's Section 3 backoff narrative (threshold raises + interval
stretches) in the exported time series.
"""

import time

import pytest

from repro.obs import (BackoffTelemetry, ObsSink, SpanRecorder,
                       backoff_specs, export_records, read_records,
                       render_summary, render_timeline, resolve_run_path,
                       summarize, use_obs, worker_recorder)
from repro.runtime import RunSpec, execute
from repro.sim.events import (ALL_KINDS, EV_BARRIER, EV_DAEMON, EV_EVICT,
                              EV_FAULT, EV_FLUSH, R_FAULT, R_FLUSH, EventBus,
                              event_row)

SCALE = 0.1


# ----------------------------------------------------------------------
class TestEventBusKinds:
    def test_filtered_observer_sees_only_its_kinds(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, kinds=(EV_DAEMON,))
        bus.publish(EV_DAEMON, 0, -1, thrashing=True)
        bus.publish(EV_EVICT, 1, 7)
        assert [e.kind for e in seen] == [EV_DAEMON]

    def test_filtered_subscription_keeps_fast_paths_on(self):
        """The publish-site guards and the kernel's eligibility check
        key off ``watching``: it must answer per kind, so a subscriber
        to run-structure kinds leaves page-management publishes off."""
        bus = EventBus()
        bus.subscribe(lambda e: None, kinds=(EV_DAEMON, EV_BARRIER))
        assert bus.watching(EV_DAEMON)
        assert bus.watching(EV_BARRIER)
        assert not bus.watching(EV_EVICT)

    def test_full_observer_watches_everything(self):
        bus = EventBus()
        bus.subscribe(lambda e: None, ALL_KINDS)
        assert len(set(ALL_KINDS)) == 11
        assert all(bus.watching(kind) for kind in ALL_KINDS)

    def test_subscribe_requires_kinds(self):
        with pytest.raises(TypeError):
            EventBus().subscribe(lambda e: None)

    def test_unsubscribe_clears_emptied_kinds(self):
        bus = EventBus()
        obs = lambda e: None  # noqa: E731
        bus.subscribe(obs, kinds=(EV_DAEMON, EV_BARRIER))
        bus.unsubscribe(obs)
        assert bus.kind_observers == {}
        assert not bus.watching(EV_DAEMON)

    def test_unsubscribe_after_overlapping_subscriptions(self):
        """One observer subscribed twice, to overlapping kinds, leaves
        nothing behind."""
        bus = EventBus()
        obs = lambda e: None  # noqa: E731
        bus.subscribe(obs, ALL_KINDS)
        bus.subscribe(obs, kinds=(EV_DAEMON,))
        bus.unsubscribe(obs)
        assert bus.kind_observers == {}

    def test_both_observer_classes_receive_one_event(self):
        """An every-kind and a one-kind subscriber share one event,
        delivered in subscription order."""
        bus = EventBus()
        seen = []
        bus.subscribe(lambda e: seen.append(("all", e)), ALL_KINDS)
        bus.subscribe(lambda e: seen.append(("daemon", e)), (EV_DAEMON,))
        bus.clock = 42
        bus.publish(EV_DAEMON, 3, -1, thrashing=False)
        assert [who for who, _ in seen] == ["all", "daemon"]
        assert seen[0][1] is seen[1][1]
        assert seen[0][1].clock == 42 and seen[0][1].node == 3

    def test_row_taker_gets_rows_and_others_get_events(self):
        """``publish_rows`` hands a row taker one list of the rows of its
        kinds and builds an event per row only for the other
        subscribers; unsubscribing the taker hands its kinds back."""
        import numpy as np
        bus = EventBus()
        batches, seen = [], []

        def taker(event):
            seen.append(("taker", event))

        bus.subscribe(taker, (EV_FAULT,), rows=batches.append)
        bus.subscribe(lambda e: seen.append(("all", e)), (EV_FAULT, EV_FLUSH))
        rows = np.array([[R_FAULT, 1, 7, 40, 3, 0], [R_FLUSH, 1, 7, 41, 2, 0],
                         [R_FAULT, 2, 9, 42, 2, 2]])
        bus.publish_rows(rows, 5)
        assert batches == [[[R_FAULT, 1, 7, 40, 3, 0],
                            [R_FAULT, 2, 9, 42, 2, 2]]]
        assert [(who, e.kind, e.node, e.page, e.clock, e.detail)
                for who, e in seen] == [
            ("all", EV_FAULT, 1, 7, 40, {"mode": 3, "home": 0}),
            ("all", EV_FLUSH, 1, 7, 41, {"flushed": 2}),
            ("all", EV_FAULT, 2, 9, 42, {"mode": 2, "home": 2})]
        assert [event_row(e) for _, e in seen] == rows.tolist()
        bus.unsubscribe(taker)
        assert bus.row_takers == [] and len(bus.kind_observers) == 2
        bus.publish_rows(rows, 5)
        assert len(batches) == 1 and len(seen) == 6

    def test_event_clock_overrides_ambient_clock(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, ALL_KINDS)
        bus.clock = 42
        bus.publish(EV_EVICT, 1, 7, clock=99, forced=True)
        assert seen[0].clock == 99 and seen[0].detail == {"forced": True}
        assert bus.clock == 42


# ----------------------------------------------------------------------
class TestSink:
    def test_roundtrip_and_corrupt_tail(self, tmp_path):
        sink = ObsSink(tmp_path, run_id="r1")
        sink.write({"rec": "span", "name": "x", "wall_s": 0.5})
        sink.write({"rec": "event", "name": "hit"})
        sink.close()
        with open(sink.path, "a", encoding="utf-8") as fh:
            fh.write('{"rec": "span", "trunc')  # killed-run tail
        records = read_records(sink.path)
        assert [r["rec"] for r in records] == ["span", "event"]
        assert sink.records_written == 2

    RECORDS = [
        {"rec": "span", "name": "cell", "wall_s": 0.125, "attempt": 0},
        {"rec": "backoff", "node": 3, "threshold": 32, "enabled": True,
         "free": None, "zeta": "\u00e9", "alpha": [1, 2.5]},
        {"rec": "event", "name": "fail", "error": ValueError("x"),
         "nested": {"b": 1, "a": {"d": 0, "c": 1}}},
    ]

    def test_batched_write_matches_per_record_lines(self, tmp_path):
        """A batch is the bytes of one ``json.dumps`` line per record,
        keys sorted, unknown types through ``str``."""
        import json
        expected = "".join(
            json.dumps(r, separators=(",", ":"), sort_keys=True,
                       default=str) + "\n" for r in self.RECORDS).encode()
        one = ObsSink(tmp_path, run_id="one")
        for record in self.RECORDS:
            one.write(record)
        many = ObsSink(tmp_path, run_id="many")
        many.write_many(self.RECORDS)
        many.write_many([])
        for sink in (one, many):
            sink.close()
            assert sink.path.read_bytes() == expected
            assert sink.records_written == len(self.RECORDS)

    def test_short_writes_are_completed(self, tmp_path, monkeypatch):
        import os
        whole = ObsSink(tmp_path, run_id="whole")
        whole.write_many(self.RECORDS)
        whole.close()
        real_write = os.write
        calls = []

        def short_write(fd, data):
            calls.append(len(data))
            return real_write(fd, bytes(data[:7]))

        monkeypatch.setattr(os, "write", short_write)
        short = ObsSink(tmp_path, run_id="short")
        short.write_many(self.RECORDS)
        short.close()
        assert len(calls) > 1
        assert short.path.read_bytes() == whole.path.read_bytes()

    def test_backoff_rows_and_merge_write_one_piece(self, tmp_path,
                                                    monkeypatch):
        """A cell's backoff rows, and a worker's merged records, reach
        the sink as one batch with the records one ``emit`` per row
        would write."""
        spec = RunSpec("fft", "ASCOMA", 0.5, SCALE)
        rows = [{"rec": "backoff", "node": 0, "threshold": 8},
                {"rec": "phase", "barrier": 1}, {"node": 1}]
        batches = []
        monkeypatch.setattr(ObsSink, "write_many",
                            lambda sink, records: batches.append(records))
        obs = SpanRecorder(ObsSink(tmp_path))
        obs.backoff_rows(spec, rows)
        worker = worker_recorder()
        for row in rows:
            fields = dict(row)
            worker.emit(fields.pop("rec", "backoff"), spec=spec.label(),
                        spec_hash=spec.spec_hash(), **fields)
        shipped = worker.drain()
        obs.merge(shipped)
        assert len(batches) == 2
        assert [dict(r, src="worker") for r in batches[0]] == batches[1]
        assert batches[1] == shipped

    def test_resolve_latest_and_by_id(self, tmp_path):
        ObsSink(tmp_path, run_id="20260101-000000-1").write({"rec": "a"})
        ObsSink(tmp_path, run_id="20260102-000000-1").write({"rec": "b"})
        latest = resolve_run_path(None, tmp_path)
        assert latest.name == "20260102-000000-1.jsonl"
        by_id = resolve_run_path("20260101-000000-1", tmp_path)
        assert read_records(by_id) == [{"rec": "a"}]

    def test_resolve_empty_dir_raises(self, tmp_path):
        with pytest.raises(ValueError, match="--obs"):
            resolve_run_path(None, tmp_path / "nothing")


# ----------------------------------------------------------------------
class TestSpanRecorder:
    def test_span_records_wall_even_on_raise(self):
        obs = worker_recorder()
        with pytest.raises(RuntimeError):
            with obs.span("cell", attempt=0):
                raise RuntimeError("boom")
        (record,) = obs.sink
        assert record["name"] == "cell" and record["wall_s"] >= 0
        assert record["src"] == "worker"

    def test_worker_drain_and_parent_merge(self, tmp_path):
        worker = worker_recorder()
        worker.emit("event", name="hit")
        shipped = worker.drain()
        assert worker.sink == []  # drained
        parent = SpanRecorder(ObsSink(tmp_path, run_id="m"))
        parent.merge(shipped)
        parent.sink.close()
        (record,) = read_records(parent.sink.path)
        assert record["src"] == "worker"  # merge does not re-stamp

    def test_spec_stamped_onto_spans_and_events(self):
        spec = RunSpec("fft", "ASCOMA", 0.5, SCALE)
        obs = worker_recorder()
        with obs.span("simulate", spec=spec):
            pass
        obs.event("hit", spec=spec)
        for record in obs.sink:
            assert record["spec"] == spec.label()
            assert record["spec_hash"] == spec.spec_hash()

    def test_ambient_recorder_scoping(self):
        from repro.obs import get_default_obs
        assert get_default_obs() is None
        obs = worker_recorder()
        with use_obs(obs):
            assert get_default_obs() is obs
        assert get_default_obs() is None


# ----------------------------------------------------------------------
class TestReport:
    def _records(self):
        return [
            {"rec": "span", "name": "cell", "wall_s": 1.0, "spec": "a"},
            {"rec": "span", "name": "cell", "wall_s": 3.0, "spec": "b"},
            {"rec": "event", "name": "hit", "spec": "c"},
            {"rec": "backoff", "spec": "b", "node": 0, "clock": 10,
             "thrashing": True, "threshold": 8, "interval": 100,
             "enabled": True, "threshold_delta": "raise",
             "interval_delta": "stretch", "relocation": None},
            {"rec": "phase", "spec": "b", "clock": 5, "barrier": 0},
        ]

    def test_summarize_aggregates(self):
        agg = summarize(self._records())
        assert agg["spans"]["cell"] == {"count": 2, "total_s": 4.0,
                                        "max_s": 3.0}
        assert agg["events"] == {"hit": 1}
        assert agg["cells"] == ["a", "b", "c"]
        assert agg["backoff"]["threshold_raises"] == 1
        assert agg["backoff"]["interval_stretches"] == 1

    def test_render_summary_and_timeline(self):
        text = render_summary(self._records(), run_name="t")
        assert "cell" in text and "1 raise" in text
        assert backoff_specs(self._records()) == ["b"]
        timeline = render_timeline(self._records())
        assert "barrier 0" in timeline
        assert "thr-raise" in timeline and "int-stretch" in timeline

    def test_export_csv_backoff_rows_only(self):
        csv_text = export_records(self._records(), fmt="csv")
        lines = csv_text.strip().splitlines()
        assert lines[0].startswith("spec,node,clock")
        assert len(lines) == 2  # header + the one backoff row
        assert "raise" in lines[1] and "stretch" in lines[1]

    def test_export_json_roundtrip(self):
        import json
        assert json.loads(export_records(self._records())) == self._records()


# ----------------------------------------------------------------------
class TestAcceptance:
    def test_observed_sweep_spans_account_for_wallclock(self, tmp_path):
        """ISSUE acceptance: a serial 2-app slice under --obs produces
        JSONL whose per-cell spans sum to within 10% of the measured
        wall-clock, and ``repro obs summary`` renders it."""
        specs = [RunSpec("fft", "ASCOMA", 0.7, SCALE),
                 RunSpec("em3d", "ASCOMA", 0.9, SCALE)]
        sink = ObsSink(tmp_path, run_id="acc")
        t0 = time.perf_counter()
        with use_obs(SpanRecorder(sink)):
            results = execute(specs, store=None, max_workers=1)
        wall = time.perf_counter() - t0
        sink.close()
        assert all(hasattr(r, "execution_time") for r in results.values())

        records = read_records(sink.path)
        cell_spans = [r for r in records
                      if r["rec"] == "span" and r["name"] == "cell"]
        assert len(cell_spans) == len(specs)
        accounted = sum(r["wall_s"] for r in cell_spans)
        assert accounted <= wall
        assert accounted >= 0.9 * wall, (
            f"cell spans account for {accounted:.3f}s of {wall:.3f}s "
            f"({accounted / wall:.0%}; >=90% required)")

        text = render_summary(records, run_name="acc")
        assert "cell" in text and "simulate" in text
        assert f"{len(specs)} cell(s)" in text

    def test_em3d_high_pressure_reproduces_backoff_narrative(self):
        """ISSUE acceptance: the em3d@90% ASCOMA cell's exported time
        series shows the Section 3 trajectory — the daemon thrashes,
        raises the relocation threshold and stretches its interval."""
        spec = RunSpec("em3d", "ASCOMA", 0.9, SCALE)
        telemetry = BackoffTelemetry()
        spec.execute(telemetry=telemetry)
        counters = telemetry.counters()
        assert counters["thrash_events"] > 0
        assert counters["threshold_raises"] > 0
        assert counters["interval_stretches"] > 0
        raises = [r for r in telemetry.rows
                  if r.get("threshold_delta") == "raise"]
        stretches = [r for r in telemetry.rows
                     if r.get("interval_delta") == "stretch"]
        assert raises and stretches
        # Raised thresholds are monotonically increasing per node, and
        # the series carries cycle context for plotting.
        node = raises[0]["node"]
        series = telemetry.series(node, "threshold")
        assert series == sorted(series)
        assert all(r["clock"] > 0 for r in raises)
        # The same narrative survives the CSV export path.
        obs = worker_recorder()
        obs.backoff_rows(spec, telemetry.rows)
        csv_text = export_records(obs.sink, fmt="csv")
        assert "raise" in csv_text and "stretch" in csv_text
        assert spec.label() in csv_text

    def test_cached_results_identical_with_and_without_obs(self, tmp_path):
        """Telemetry is a runtime mode: the stored artifact must be
        byte-identical whether or not --obs was on when it was made."""
        from repro.runtime import RunStore
        spec = RunSpec("fft", "ASCOMA", 0.5, SCALE)
        plain_store = RunStore(tmp_path / "plain")
        obs_store = RunStore(tmp_path / "obs")
        execute([spec], store=plain_store, max_workers=1)
        with use_obs(worker_recorder()):
            execute([spec], store=obs_store, max_workers=1)
        plain = plain_store.path_for(spec).read_text()
        observed = obs_store.path_for(spec).read_text()
        assert plain == observed

    def test_telemetry_attach_detach_leaves_bus_clean(self):
        from repro.sim.config import SystemConfig
        from repro.sim.engine import Engine
        from repro.harness.experiment import get_workload, scaled_policy
        from repro.sim.soatrace import _eligible
        wl = get_workload("fft", SCALE)
        engine = Engine(wl, scaled_policy("ASCOMA"),
                        config=SystemConfig(n_nodes=wl.n_nodes,
                                            memory_pressure=0.7))
        telemetry = BackoffTelemetry().attach(engine)
        bus = engine.machine.events
        assert _eligible(engine)  # the kernel stays eligible
        telemetry.detach(engine)
        assert bus.kind_observers == {}

    def test_execute_always_detaches_engine_observers(self, monkeypatch):
        """RunSpec.execute unsubscribes telemetry *and* checker itself.

        Long-lived callers (the serve layer runs thousands of cells on
        one retained telemetry object) must not rely on the engine
        being garbage: the run must leave the bus it subscribed to
        clean, success or not.
        """
        from repro.sim.engine import Engine
        captured = {}
        orig_run = Engine.run

        def run(self):
            captured["bus"] = self.machine.events
            return orig_run(self)

        monkeypatch.setattr(Engine, "run", run)
        telemetry = BackoffTelemetry()
        RunSpec("fft", "ASCOMA", 0.7, SCALE).execute(check=True,
                                                     telemetry=telemetry)
        assert captured["bus"].kind_observers == {}
