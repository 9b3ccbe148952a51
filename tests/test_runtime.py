"""Tests for the runtime layer: RunSpec hashing, RunStore, executor."""

import json
import os
import warnings

import pytest

from repro.harness.experiment import run_app, scaled_policy
from repro.runtime import (RunFailure, RunSpec, RunStore, execute,
                           get_default_store, log_progress, lpt_order,
                           run_spec, use_store)
from repro.runtime import store as store_mod
from repro.sim.soatrace import vector_available
from repro.sim.stats import RunResult
from repro.workloads.sample import SampleSpec

SCALE = 0.1
SPEC = RunSpec("fft", "ASCOMA", 0.5, SCALE)


def _runtime_warnings(call):
    """``call()``'s return value and the RuntimeWarnings it raised.

    The kernel is probed first, so a host without a kernel spends its
    one "vector kernel unavailable" warning outside the count."""
    vector_available()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = call()
    return out, [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.fixture
def exec_counter(monkeypatch):
    """Count actual simulation executions (store hits don't execute)."""
    calls = []
    real = RunSpec.execute

    def counting(self, check=False):
        calls.append(self)
        return real(self, check=check)

    monkeypatch.setattr(RunSpec, "execute", counting)
    return calls


class TestRunSpec:
    def test_arch_canonicalised(self):
        assert RunSpec("fft", "as-coma", 0.5) == RunSpec("fft", "ASCOMA", 0.5)
        assert (RunSpec("fft", "ccnuma_mig", 0.5).spec_hash()
                == RunSpec("fft", "CCNUMAMIG", 0.5).spec_hash())

    def test_override_order_does_not_change_hash(self):
        a = RunSpec.make("em3d", "ASCOMA", 0.7,
                         policy_overrides={"threshold": 8, "increment": 4})
        b = RunSpec.make("em3d", "ASCOMA", 0.7,
                         policy_overrides={"increment": 4, "threshold": 8})
        assert a == b and a.spec_hash() == b.spec_hash()

    def test_distinct_specs_distinct_hashes(self):
        seen = {RunSpec("fft", "ASCOMA", p, s).spec_hash()
                for p in (0.1, 0.5, 0.9) for s in (0.1, 0.5)}
        assert len(seen) == 6

    def test_distinct_quanta_distinct_store_keys(self, tmp_path):
        """The quantum changes event interleaving, so cached results
        must not be shared across quanta (the PR-1 cache-collision
        fix): distinct quanta hash -- and therefore store -- apart."""
        default = RunSpec.make("fft", "ASCOMA", 0.5, SCALE)
        q500 = RunSpec.make("fft", "ASCOMA", 0.5, SCALE, quantum=500)
        q900 = RunSpec.make("fft", "ASCOMA", 0.5, SCALE, quantum=900)
        assert len({s.spec_hash() for s in (default, q500, q900)}) == 3
        store = RunStore(tmp_path)
        store.put(q500, q500.execute())
        assert q500 in store
        assert default not in store  # a hit here would replay the wrong run
        assert q900 not in store

    def test_dict_roundtrip(self):
        spec = RunSpec.make("lu", "vcnuma", 0.9, 0.25,
                            policy_overrides={"threshold": 8},
                            config_overrides={"l1_ways": 2}, quantum=500)
        again = RunSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.spec_hash() == spec.spec_hash()
        json.dumps(spec.to_dict())  # JSON-compatible

    def test_label_names_the_cell(self):
        assert "fft/ASCOMA@50%" in SPEC.label()

    def test_execute_applies_config_overrides(self):
        base = RunSpec("fft", "CCNUMA", 0.5, SCALE).execute()
        quiet = RunSpec.make("fft", "CCNUMA", 0.5, SCALE,
                             config_overrides={"model_contention": False})
        result = quiet.execute()
        # contention-free run is strictly faster than the contended one
        assert result.execution_time() < base.execution_time()

    @pytest.mark.parametrize("spec, digest", [
        (RunSpec("em3d", "ASCOMA", 0.9, 0.5), "6a84cac803c7acab"),
        (RunSpec("fft", "CCNUMA", 0.1, 0.5), "1b521706f55d3927"),
        (RunSpec.make("radix", "RNUMA", 0.3, 0.5, quantum=2000),
         "e6e7939bcbc7f4fb"),
        (RunSpec.make("em3d", "SCOMA", 0.9, 0.5, sample=SampleSpec(rate=4)),
         "b3079ae5d690e73b"),
        (RunSpec.make("ocean", "ASCOMA", 0.5, 0.5,
                      config_overrides={"protocol": "mesi"}),
         "4ceb54dd47a08f44"),
    ], ids=lambda v: v.label() if isinstance(v, RunSpec) else v)
    def test_spec_hash_is_pinned(self, spec, digest):
        """Every stored result is keyed by its spec hash: a change to
        the canonical form that does not bump SPEC_VERSION would
        silently orphan (or worse, mis-serve) the whole store."""
        assert spec.spec_hash() == digest

    def test_engine_builds_the_scaled_cell(self):
        spec = RunSpec.make("fft", "ASCOMA", 0.7, SCALE, quantum=500,
                            policy_overrides={"increment": 4},
                            config_overrides={"rac_entries": 4})
        engine = spec.engine()
        assert engine.workload.name == "fft"
        assert engine.config.n_nodes == engine.workload.n_nodes
        assert engine.config.memory_pressure == 0.7
        assert engine.config.rac_entries == 4
        assert engine.quantum == 500
        # the experiment's scaled parameters under the spec's override
        expected = scaled_policy("ASCOMA", increment=4)
        assert type(engine.policy) is type(expected)
        assert vars(engine.policy) == vars(expected)
        assert vars(expected) != vars(scaled_policy("ASCOMA"))

    def test_traces_replace_the_named_workload(self):
        from repro.workloads import generate_workload
        lu = generate_workload("lu", scale=SCALE)
        engine = RunSpec("fft", "CCNUMA", 0.5, SCALE).engine(traces=lu)
        assert engine.workload is lu
        assert engine.config.n_nodes == lu.n_nodes
        assert (RunSpec("fft", "CCNUMA", 0.5, SCALE).execute(traces=lu)
                .to_dict() == RunSpec("lu", "CCNUMA", 0.5, SCALE)
                .execute().to_dict())


class TestRunStore:
    def test_empty_store_misses(self, tmp_path):
        store = RunStore(tmp_path)
        assert store.get(SPEC) is None
        assert SPEC not in store
        assert store.misses == 1

    def test_put_get_preserves_everything(self, tmp_path):
        result = SPEC.execute()
        result.extra["marker"] = {"nested": 7}
        store = RunStore(tmp_path)
        store.put(SPEC, result)
        again = store.get(SPEC)
        assert SPEC in store
        assert again.architecture == result.architecture
        assert again.workload == result.workload
        assert again.pressure == result.pressure
        assert again.extra == result.extra
        # every NodeStats slot survives, node by node
        assert [s.as_dict() for s in again.node_stats] \
            == [s.as_dict() for s in result.node_stats]
        assert again.execution_time() == result.execution_time()

    def test_stored_file_is_one_json_dumps(self, tmp_path):
        """The artifact's bytes are exactly ``json.dumps`` of the
        payload, written in one piece."""
        from repro.runtime.store import STORE_VERSION
        result = SPEC.execute()
        path = RunStore(tmp_path).put(SPEC, result)
        assert path.read_text() == json.dumps({
            "store_version": STORE_VERSION, "spec_hash": SPEC.spec_hash(),
            "spec": SPEC.to_dict(), "result": result.to_dict()})

    def test_store_version_mismatch_is_a_miss(self, tmp_path, monkeypatch):
        store = RunStore(tmp_path)
        store.put(SPEC, SPEC.execute())
        monkeypatch.setattr(store_mod, "STORE_VERSION", 999)
        assert store.get(SPEC) is None

    def test_corrupt_artifact_is_a_miss(self, tmp_path):
        store = RunStore(tmp_path)
        path = store.path_for(SPEC)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{not json")
        assert store.get(SPEC) is None

    def test_foreign_spec_in_artifact_is_a_miss(self, tmp_path):
        store = RunStore(tmp_path)
        path = store.put(SPEC, SPEC.execute())
        payload = json.loads(path.read_text())
        payload["spec"]["pressure"] = 0.9  # simulated hash collision
        path.write_text(json.dumps(payload))
        assert store.get(SPEC) is None

    def test_entries_and_clear(self, tmp_path):
        store = RunStore(tmp_path)
        result = SPEC.execute()
        store.put(SPEC, result)
        store.put(RunSpec("fft", "CCNUMA", 0.5, SCALE), result)
        entries = store.entries()
        assert len(entries) == 2
        assert {e["spec"]["arch"] for e in entries} == {"ASCOMA", "CCNUMA"}
        assert store.clear() == 2
        assert store.entries() == []

    def test_use_store_restores_previous(self, tmp_path):
        outer = RunStore(tmp_path / "a")
        inner = RunStore(tmp_path / "b")
        with use_store(outer):
            with use_store(inner):
                assert get_default_store() is inner
            assert get_default_store() is outer
        assert get_default_store() is None


class TestCaching:
    def test_cache_round_trip_end_to_end(self, tmp_path, exec_counter):
        """Acceptance: 2nd run of the same spec performs zero simulations
        and returns an identical RunResult."""
        store = RunStore(tmp_path)
        first = execute([SPEC], store=store)[SPEC]
        assert len(exec_counter) == 1
        second = execute([SPEC], store=store)[SPEC]
        assert len(exec_counter) == 1  # store hit: no new simulation
        assert second.to_dict() == first.to_dict()
        assert [s.as_dict() for s in second.node_stats] \
            == [s.as_dict() for s in first.node_stats]

    def test_refresh_resimulates_and_restores(self, tmp_path, exec_counter):
        store = RunStore(tmp_path)
        execute([SPEC], store=store)
        execute([SPEC], store=store, refresh=True)
        assert len(exec_counter) == 2
        assert store.writes == 2
        execute([SPEC], store=store)  # refreshed artifact still serves
        assert len(exec_counter) == 2

    def test_run_app_uses_ambient_store(self, tmp_path, exec_counter):
        store = RunStore(tmp_path)
        with use_store(store):
            first = run_app("fft", "ascoma", 0.5, scale=SCALE)
            second = run_app("fft", "AS-COMA", 0.5, scale=SCALE)
        assert len(exec_counter) == 1
        assert second.to_dict() == first.to_dict()

    def test_no_store_means_no_caching(self, exec_counter):
        run_app("fft", "ccnuma", 0.5, scale=SCALE)
        run_app("fft", "ccnuma", 0.5, scale=SCALE)
        assert len(exec_counter) == 2


class TestFaultIsolation:
    BAD = RunSpec("fft", "BOGUS", 0.5, SCALE)
    GOOD = [RunSpec("fft", "CCNUMA", 0.5, SCALE),
            RunSpec("fft", "SCOMA", 0.5, SCALE)]

    def test_failing_cell_does_not_kill_the_sweep(self, tmp_path):
        """Acceptance: one bad cell -> others complete, failure names it."""
        store = RunStore(tmp_path)
        out = execute([self.GOOD[0], self.BAD, self.GOOD[1]],
                      store=store, max_workers=1)
        failure = out[self.BAD]
        assert isinstance(failure, RunFailure)
        assert failure.spec == self.BAD
        assert "BOGUS" in failure.error
        assert "Traceback" in failure.traceback
        for spec in self.GOOD:
            assert isinstance(out[spec], RunResult)

    def test_rerun_simulates_only_failed_and_missing(self, tmp_path,
                                                     exec_counter):
        """Acceptance: resume touches only cells without stored results."""
        store = RunStore(tmp_path)
        execute([self.GOOD[0], self.BAD, self.GOOD[1]],
                store=store, max_workers=1)
        executed_first = list(exec_counter)
        assert len(executed_first) == 3
        out = execute([self.GOOD[0], self.BAD, self.GOOD[1]],
                      store=store, max_workers=1)
        # only the (still-failing) bad cell was re-attempted
        assert exec_counter[len(executed_first):] == [self.BAD]
        assert isinstance(out[self.BAD], RunFailure)
        for spec in self.GOOD:
            assert isinstance(out[spec], RunResult)

    def test_pool_path_isolates_failures_too(self):
        out = execute([self.GOOD[0], self.BAD, self.GOOD[1]],
                      max_workers=2)
        assert isinstance(out[self.BAD], RunFailure)
        assert all(isinstance(out[s], RunResult) for s in self.GOOD)

    def test_retry_recovers_transient_failures(self, monkeypatch):
        attempts = []
        real = RunSpec.execute

        def flaky(spec, check=False):
            attempts.append(spec)
            if len(attempts) == 1:
                raise RuntimeError("transient")
            return real(spec, check=check)

        monkeypatch.setattr(RunSpec, "execute", flaky)
        assert isinstance(run_spec(self.GOOD[0], retries=0), RunFailure)
        attempts.clear()
        out = run_spec(self.GOOD[0], retries=1)
        assert isinstance(out, RunResult)
        assert len(attempts) == 2


class TestStoreFaultIsolation:
    SPEC2 = RunSpec("fft", "CCNUMA", 0.5, SCALE)

    class FailingPutStore(RunStore):
        def put(self, spec, result):
            raise OSError("disk full")

    def test_failing_put_keeps_the_result(self, tmp_path):
        """Satellite bugfix: a raising store.put after a successful
        simulate must not kill the sweep — the RunResult survives."""
        store = self.FailingPutStore(tmp_path)
        out = execute([SPEC, self.SPEC2], store=store, max_workers=1)
        assert all(isinstance(r, RunResult) for r in out.values())
        assert len(out) == 2

    def test_failing_put_surfaces_store_fail_event(self, tmp_path):
        events = []
        out = execute([SPEC], store=self.FailingPutStore(tmp_path),
                      max_workers=1,
                      progress=lambda e, s, d="": events.append((e, s, d)))
        assert isinstance(out[SPEC], RunResult)
        (event, spec, detail) = events[0]
        assert event == "store-fail" and spec == SPEC
        assert "OSError" in detail and "disk full" in detail
        # no "run" event for the cell: it completed but was not stored
        assert [e for e, _, _ in events] == ["store-fail"]

    def test_failing_put_warns_once_per_call(self, tmp_path):
        """A library call with no progress callback and no obs recorder
        must not swallow failed write-backs: one RuntimeWarning names
        how many cells went unstored and the first error."""
        store = self.FailingPutStore(tmp_path)
        out, caught = _runtime_warnings(
            lambda: execute([SPEC, self.SPEC2], store=store, max_workers=1))
        assert all(isinstance(r, RunResult) for r in out.values())
        assert len(caught) == 1, [str(w.message) for w in caught]
        message = str(caught[0].message)
        assert "2 simulated cell(s) left unstored" in message
        assert "OSError: disk full" in message

    def test_run_app_keeps_the_result_and_warns_once(self, tmp_path):
        """``run_app`` is a one-cell ``execute``: an unwritable store
        costs the cache entry, not the run, as in ``repro matrix``."""
        with use_store(self.FailingPutStore(tmp_path)):
            result, caught = _runtime_warnings(
                lambda: run_app("fft", "ASCOMA", 0.5, scale=SCALE))
        assert isinstance(result, RunResult)
        assert result.to_dict() == SPEC.execute().to_dict()
        assert len(caught) == 1, [str(w.message) for w in caught]
        assert "1 simulated cell(s) left unstored" in str(caught[0].message)

    @pytest.mark.parametrize("entry", ("execute", "run_app"))
    def test_unstored_warning_points_at_the_caller(self, tmp_path, entry):
        """The warning is attributed to the code that asked for the
        cells, here this file, not to the harness or runtime frames in
        between (``run_app`` reaches ``execute`` through
        ``resolve_cells``)."""
        store = self.FailingPutStore(tmp_path)
        call = {"execute": lambda: execute([SPEC], store=store,
                                           max_workers=1),
                "run_app": lambda: run_app("fft", "ASCOMA", 0.5,
                                           scale=SCALE)}[entry]
        with use_store(store):
            _, caught = _runtime_warnings(call)
        assert [os.path.realpath(w.filename) for w in caught] == [
            os.path.realpath(__file__)]


class TestProgress:
    GOOD = [RunSpec("fft", "CCNUMA", 0.5, SCALE),
            RunSpec("fft", "SCOMA", 0.5, SCALE)]
    BAD = RunSpec("fft", "BOGUS", 0.5, SCALE)

    @staticmethod
    def _collect(events):
        return lambda e, s, d="": events.append((e, s))

    def test_event_kinds_and_order_with_store(self, tmp_path):
        """Hits fire first (in spec order, during the store scan), then
        one run/fail per simulated cell in dispatch order."""
        store = RunStore(tmp_path)
        events: list = []
        execute([self.GOOD[0], self.BAD, self.GOOD[1]], store=store,
                max_workers=1, progress=self._collect(events))
        assert events == [("run", self.GOOD[0]), ("fail", self.BAD),
                          ("run", self.GOOD[1])]
        events.clear()
        execute([self.GOOD[0], self.BAD, self.GOOD[1]], store=store,
                max_workers=1, progress=self._collect(events))
        assert events == [("hit", self.GOOD[0]), ("hit", self.GOOD[1]),
                          ("fail", self.BAD)]

    def test_dedupe_reports_each_cell_once(self, tmp_path):
        events: list = []
        execute([self.GOOD[0], RunSpec("fft", "cc-numa", 0.5, SCALE)],
                store=RunStore(tmp_path), max_workers=1,
                progress=self._collect(events))
        assert events == [("run", self.GOOD[0])]

    def test_refresh_reruns_cached_cells(self, tmp_path):
        store = RunStore(tmp_path)
        execute([self.GOOD[0]], store=store, max_workers=1)
        events: list = []
        execute([self.GOOD[0]], store=store, max_workers=1, refresh=True,
                progress=self._collect(events))
        assert events == [("run", self.GOOD[0])]

    def test_store_disabled_never_hits(self):
        events: list = []
        for _ in range(2):
            execute([self.GOOD[0]], store=None, max_workers=1,
                    progress=self._collect(events))
        assert events == [("run", self.GOOD[0])] * 2

    def test_log_progress_formatting(self):
        import io
        stream = io.StringIO()
        log_progress("hit", SPEC, stream=stream)
        log_progress("run", SPEC, stream=stream)
        log_progress("fail", SPEC, "RuntimeError: boom", stream=stream)
        log_progress("store-fail", SPEC, "OSError: disk full", stream=stream)
        lines = stream.getvalue().splitlines()
        assert lines[0] == f"[cached] {SPEC.label()}"
        assert lines[1] == f"[   ran] {SPEC.label()}"
        assert lines[2] == f"[FAILED] {SPEC.label()} (RuntimeError: boom)"
        assert lines[3] == f"[!store] {SPEC.label()} (OSError: disk full)"


class TestPoolSizing:
    GOOD = [RunSpec("fft", "CCNUMA", 0.5, SCALE),
            RunSpec("fft", "SCOMA", 0.5, SCALE)]

    @pytest.fixture
    def fake_pool(self, monkeypatch):
        """Replace the executor's pool with an inline stand-in that
        records the worker count each construction asked for."""
        from repro.runtime import executor as executor_mod
        sizes: list = []

        class FakePool:
            def __init__(self, max_workers=None, initializer=None,
                         initargs=()):
                sizes.append(max_workers)
                if initializer:
                    initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, payloads, chunksize=1):
                return [fn(p) for p in payloads]

        monkeypatch.setattr(executor_mod, "ProcessPoolExecutor", FakePool)
        return sizes

    def test_workers_clamped_to_cell_count(self, fake_pool):
        """Satellite bugfix: ``--workers 8`` with 2 cells must fork 2
        workers, not 8 idle ones."""
        out = execute(self.GOOD, store=None, max_workers=8)
        assert fake_pool == [2]
        assert all(isinstance(r, RunResult) for r in out.values())

    def test_single_cell_runs_inline(self, fake_pool):
        out = execute([SPEC], store=None, max_workers=8)
        assert fake_pool == []  # no pool for a 1-cell dispatch
        assert isinstance(out[SPEC], RunResult)


class TestDeadWorker:
    """A pool worker that dies loses no cell: the cells it took down
    re-run once in a fresh pool."""

    SPECS = [RunSpec("fft", arch, pressure, SCALE)
             for arch, pressure in (("SCOMA", 0.5), ("RNUMA", 0.9),
                                    ("VCNUMA", 0.9), ("ASCOMA", 0.5),
                                    ("ASCOMA", 0.9), ("CCNUMA", 0.5))]

    def dispatch_order(self) -> list:
        from repro.runtime.costs import workload_events

        events = workload_events("fft", SCALE)
        return lpt_order(self.SPECS, {("fft", SCALE, ()): events})

    def kill_worker(self, monkeypatch, victim, attempts, first_only):
        """Make *victim* kill the pool worker running it (forked workers
        inherit the wrapped ``run_spec``), on every attempt or on the
        first one only; each attempt appends a line to *attempts*."""
        from repro.runtime import executor as executor_mod

        parent = os.getpid()
        real = executor_mod.run_spec

        def deadly(spec, *args, **kwargs):
            if spec == victim and os.getpid() != parent:
                with open(attempts, "a") as f:
                    f.write("attempt\n")
                with open(attempts) as f:
                    if not first_only or len(f.readlines()) == 1:
                        os._exit(3)
            return real(spec, *args, **kwargs)

        monkeypatch.setattr(executor_mod, "run_spec", deadly)

    def assert_one_warning(self, caught) -> str:
        assert len(caught) == 1, [str(w.message) for w in caught]
        assert "BrokenProcessPool" in str(caught[0].message)
        assert os.path.realpath(caught[0].filename) == os.path.realpath(
            __file__)
        return str(caught[0].message)

    def test_dead_worker_keeps_settled_cells(self, tmp_path, monkeypatch):
        """The last-dispatched cell kills its worker on every attempt (2
        workers): it runs twice, once in the first pool and once in the
        fresh one, then fails naming ``BrokenProcessPool``.  Every cell
        that came back is stored, byte-identical to a serial run; every
        other one fails naming ``BrokenProcessPool``; one warning; a
        re-run serves the stored cells from the store."""
        victim = self.dispatch_order()[-1]
        attempts = tmp_path / "attempts"
        self.kill_worker(monkeypatch, victim, attempts, first_only=False)
        store = RunStore(tmp_path / "store")
        out, caught = _runtime_warnings(
            lambda: execute(self.SPECS, store=store, max_workers=2))
        assert set(out) == set(self.SPECS)
        assert "fresh pool" in self.assert_one_warning(caught)
        assert len(attempts.read_text().splitlines()) == 2
        assert isinstance(out[victim], RunFailure)
        assert "BrokenProcessPool" in out[victim].error
        done = {spec for spec, r in out.items() if isinstance(r, RunResult)}
        assert done, "no cell came back before the worker died"
        assert all("BrokenProcessPool" in r.error for r in out.values()
                   if isinstance(r, RunFailure))

        serial = RunStore(tmp_path / "serial")
        execute(self.SPECS, store=serial, max_workers=1)  # victim: inline
        for spec in done:
            assert (store.path_for(spec).read_bytes()
                    == serial.path_for(spec).read_bytes()), spec

        seen: list = []
        execute(self.SPECS, store=store, max_workers=1,
                progress=lambda e, s, d="": seen.append((e, s)))
        assert {s for e, s in seen if e == "hit"} == done
        assert {s for e, s in seen if e == "run"} == set(self.SPECS) - done

    def test_cells_lost_to_a_dead_worker_rerun(self, tmp_path, monkeypatch):
        """The first-dispatched cell kills its worker on its first
        attempt only, taking down every cell queued behind it, finished
        or not.  They re-run in a fresh pool: every cell comes back and
        is stored, byte-identical to an inline run, with one warning."""
        victim = self.dispatch_order()[0]
        self.kill_worker(monkeypatch, victim, tmp_path / "attempts",
                         first_only=True)
        store = RunStore(tmp_path / "store")
        out, caught = _runtime_warnings(
            lambda: execute(self.SPECS, store=store, max_workers=2))
        self.assert_one_warning(caught)
        assert set(out) == set(self.SPECS)
        assert all(isinstance(r, RunResult) for r in out.values()), [
            r.label() for r in out.values() if isinstance(r, RunFailure)]

        inline = RunStore(tmp_path / "inline")
        execute(self.SPECS, store=inline, max_workers=1)
        for spec in self.SPECS:
            assert (store.path_for(spec).read_bytes()
                    == inline.path_for(spec).read_bytes()), spec


class TestDedupe:
    def test_duplicate_cells_simulated_once(self, exec_counter):
        c1 = RunSpec("fft", "ascoma", 0.5, SCALE)
        c2 = RunSpec("fft", "AS-COMA", 0.5, SCALE)  # spelled differently
        out = execute([c1, c2, c1], max_workers=1)
        assert len(exec_counter) == 1
        assert out[c1].to_dict() == out[c2].to_dict()

    def test_execute_fans_duplicates_back_out(self, exec_counter):
        out = execute([SPEC, RunSpec("fft", "as-coma", 0.5, SCALE)],
                      max_workers=1)
        assert len(exec_counter) == 1
        assert len(out) == 1  # canonically the same spec
