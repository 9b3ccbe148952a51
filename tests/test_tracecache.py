"""Trace cache: bit-exactness, invalidation, scheduling, determinism.

The cache's contract is that it changes *when* traces are built, never
*what* is built: every test here either proves a cached workload is
bit-identical to a regenerated one, or proves that anything less
(corruption, stale format, foreign file) reads as a miss and falls
back to regeneration.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np
import pytest

import repro.sim.trace as trace_mod
from repro.harness.experiment import get_workload
from repro.runtime import (RunSpec, TraceStore, clear_trace_memo, execute,
                           fetch_traces, lpt_order, spec_cost,
                           submit_chunksize, trace_key, use_trace_store)
from repro.workloads.sample import trace_memory_bytes

APP = "em3d"
SCALE = 0.2


def _store(tmp_path) -> TraceStore:
    return TraceStore(tmp_path / "traces")


class TestTraceKey:
    def test_stable_across_calls(self):
        assert trace_key(APP, SCALE) == trace_key(APP, SCALE)

    def test_sensitive_to_inputs(self):
        baseline = trace_key(APP, SCALE)
        assert trace_key("fft", SCALE) != baseline
        assert trace_key(APP, 0.3) != baseline
        assert trace_key(APP, SCALE, seed=123) != baseline

    def test_sensitive_to_format_version(self, monkeypatch):
        baseline = trace_key(APP, SCALE)
        import repro.runtime.tracecache as tc
        monkeypatch.setattr(tc, "TRACE_FORMAT_VERSION",
                            trace_mod.TRACE_FORMAT_VERSION + 1)
        assert trace_key(APP, SCALE) != baseline


class TestBitExactness:
    def test_cached_equals_regenerated(self, tmp_path):
        """The acceptance-criterion test: disk round-trip is identical."""
        store = _store(tmp_path)
        generated = get_workload(APP, SCALE)
        store.put(APP, SCALE, generated)
        cached = store.get(APP, SCALE)
        assert cached is not None
        assert cached.name == generated.name
        assert cached.n_nodes == generated.n_nodes
        assert cached.home_pages_per_node == generated.home_pages_per_node
        assert cached.total_shared_pages == generated.total_shared_pages
        for cold, warm in zip(generated.traces, cached.traces):
            assert cold.kinds.dtype == warm.kinds.dtype
            assert cold.args.dtype == warm.args.dtype
            assert np.array_equal(cold.kinds, warm.kinds)
            assert np.array_equal(cold.args, warm.args)
        assert cached.content_hash() == generated.content_hash()

    def test_fetch_miss_generates_and_writes_back(self, tmp_path):
        store = _store(tmp_path)
        with use_trace_store(store):
            fetched = fetch_traces(APP, SCALE)
        assert store.writes == 1
        assert fetched.content_hash() == get_workload(APP, SCALE).content_hash()
        # One file per workload, and no leftover temp file.
        assert list(store.root.iterdir()) == [store.path_for(APP, SCALE)]

    def test_fetch_hits_disk_after_memo_drop(self, tmp_path):
        store = _store(tmp_path)
        with use_trace_store(store):
            first = fetch_traces(APP, SCALE)
            clear_trace_memo()
            second = fetch_traces(APP, SCALE)
        assert store.hits == 1
        assert second is not first  # reloaded, not memoised
        assert second.content_hash() == first.content_hash()

    def test_memo_returns_same_object(self, tmp_path):
        store = _store(tmp_path)
        with use_trace_store(store):
            assert fetch_traces(APP, SCALE) is fetch_traces(APP, SCALE)


class TestInvalidation:
    def test_bad_magic_is_a_miss(self, tmp_path):
        store = _store(tmp_path)
        store.root.mkdir(parents=True)
        store.path_for(APP, SCALE).write_bytes(b"JUNK" * 64)
        assert store.get(APP, SCALE) is None
        assert store.misses == 1

    def test_truncated_file_is_a_miss(self, tmp_path):
        store = _store(tmp_path)
        store.put(APP, SCALE, get_workload(APP, SCALE))
        path = store.path_for(APP, SCALE)
        path.write_bytes(path.read_bytes()[:100])
        assert store.get(APP, SCALE) is None

    def test_stale_format_version_falls_back_to_regeneration(
            self, tmp_path, monkeypatch):
        store = _store(tmp_path)
        store.root.mkdir(parents=True)
        wl = get_workload(APP, SCALE)
        # Craft an entry written by a "future" (or past) trace format at
        # the path the current key resolves to.
        with monkeypatch.context() as m:
            m.setattr(trace_mod, "TRACE_FORMAT_VERSION",
                      trace_mod.TRACE_FORMAT_VERSION + 1)
            wl.save(str(store.path_for(APP, SCALE)))
        assert store.get(APP, SCALE) is None
        with use_trace_store(store):
            fetched = fetch_traces(APP, SCALE)
        # Regenerated, bit-identical, and the stale entry was rewritten.
        assert fetched.content_hash() == wl.content_hash()
        assert store.writes == 1
        assert store.get(APP, SCALE) is not None

    def test_load_rejects_versionless_header(self, tmp_path):
        """A header without a format version is stale, whatever else
        it says: the version check names the missing version."""
        wl = get_workload(APP, SCALE)
        path = tmp_path / "old.trace"
        wl.save(str(path))
        raw = path.read_bytes()
        stale = raw.replace(b'"format_version":1,', b"", 1)
        assert stale != raw
        path.write_bytes(stale)
        with pytest.raises(ValueError, match="format version None"):
            trace_mod.WorkloadTraces.load(str(path))

    def test_wrong_app_under_right_name_is_a_miss(self, tmp_path):
        store = _store(tmp_path)
        store.root.mkdir(parents=True)
        get_workload("fft", SCALE).save(str(store.path_for(APP, SCALE)))
        assert store.get(APP, SCALE) is None


class TestMaintenance:
    def test_entries_and_clear(self, tmp_path):
        store = _store(tmp_path)
        store.put(APP, SCALE, get_workload(APP, SCALE))
        (entry,) = store.entries()
        assert entry["name"] == APP
        assert entry["events"] > 0
        info = store.describe()
        assert info["entries"] == 1 and info["bytes"] > 0
        assert store.clear() == 1
        assert store.entries() == []

    def test_describe_empty(self, tmp_path):
        info = _store(tmp_path).describe()
        assert info["entries"] == 0 and info["bytes"] == 0


def _memory_mapped(arr) -> bool:
    while arr is not None and not isinstance(arr, np.memmap):
        arr = arr.base
    return arr is not None


def _flip_barrier(path: Path) -> None:
    """Turn node 0's first non-barrier event into a barrier, in place."""
    raw = bytearray(path.read_bytes())
    kinds_at = raw.index(b"\n", len(b"ASTRACE\n")) + 1
    kinds_at += -kinds_at % 8
    first = next(i for i in range(kinds_at, len(raw))
                 if raw[i] != trace_mod.EV_BARRIER)
    raw[first] = trace_mod.EV_BARRIER
    path.write_bytes(bytes(raw))


class TestOneFileFormat:
    """One file per workload: ``put`` writes it atomically, ``get``
    memory-maps it read-only, and anything wrong with it is a store
    miss that regenerates, never an error."""

    def _warm(self, tmp_path):
        store = _store(tmp_path)
        store.put(APP, SCALE, get_workload(APP, SCALE))
        return store

    def test_get_maps_the_put_file_read_only(self, tmp_path):
        store = self._warm(tmp_path)
        warm = store.get(APP, SCALE)
        for arr in (warm.kinds, warm.args,
                    warm.traces[0].kinds, warm.traces[-1].args):
            assert _memory_mapped(arr) and not arr.flags.writeable
        assert trace_memory_bytes(warm) == 0
        cold = get_workload(APP, SCALE)
        assert trace_memory_bytes(cold) > 0
        for got, want in zip(warm.soa(), cold.soa()):
            assert np.asarray(got).dtype == np.asarray(want).dtype
            assert np.array_equal(got, want)
        for got, want in zip(warm.traces, cold.traces):
            assert np.array_equal(got.kinds, want.kinds)
            assert np.array_equal(got.args, want.args)
        assert list(store.root.iterdir()) == [store.path_for(APP, SCALE)]

    @pytest.mark.parametrize("damage", [
        "garbage", "truncated", "extra-byte", "stale-format",
        "stale-layout", "unequal-barriers"])
    def test_damaged_file_is_a_miss_that_regenerates(self, tmp_path,
                                                     monkeypatch, damage):
        path = self._warm(tmp_path).path_for(APP, SCALE)
        raw = path.read_bytes()
        if damage == "garbage":
            path.write_bytes(b"JUNK" * 32)
        elif damage == "truncated":
            path.write_bytes(raw[:-1])
        elif damage == "extra-byte":
            path.write_bytes(raw + b"\0")
        elif damage == "unequal-barriers":
            _flip_barrier(path)
        else:
            version = ("TRACE_FORMAT_VERSION" if damage == "stale-format"
                       else "TRACE_LAYOUT_VERSION")
            with monkeypatch.context() as m:
                m.setattr(trace_mod, version, getattr(trace_mod, version) + 1)
                get_workload(APP, SCALE).save(str(path))
        assert path.read_bytes() != raw
        store = _store(tmp_path)
        assert store.get(APP, SCALE) is None and store.misses == 1
        with use_trace_store(store):
            fetched = fetch_traces(APP, SCALE)
        assert fetched.content_hash() == get_workload(APP, SCALE).content_hash()
        assert store.writes == 1 and path.read_bytes() == raw

    def test_mapped_workload_survives_overwrite(self, tmp_path):
        """``put`` renames a new file over the old one, so a workload
        mapped from the old file keeps reading its own arrays.  (A
        rewrite in place would change them under the mapping, or
        truncate it: SIGBUS on the next read.)"""
        store = self._warm(tmp_path)
        mapped = store.get(APP, SCALE)
        want = get_workload(APP, SCALE)
        store.put(APP, SCALE, get_workload("ocean", SCALE))
        assert store.get(APP, SCALE) is None  # now names another app
        assert np.array_equal(mapped.kinds, want.kinds)
        assert np.array_equal(mapped.args, want.args)
        assert mapped.content_hash() == want.content_hash()

    def test_clear_and_describe_count_one_file_per_workload(self, tmp_path):
        store = self._warm(tmp_path)
        (entry,) = store.entries()
        assert entry["bytes"] == store.path_for(APP, SCALE).stat().st_size
        info = store.describe()
        assert info["entries"] == 1 and info["bytes"] == entry["bytes"]
        assert info["layout_version"] == trace_mod.TRACE_LAYOUT_VERSION
        assert store.clear() == 1
        assert not list(store.root.iterdir())

    def test_kernel_replays_memory_mapped_store_hit(self, tmp_path):
        """End-to-end: a read-only memory-mapped store hit must feed
        the compiled kernel and produce the reference loop's bytes."""
        from repro.harness.experiment import scaled_policy
        from repro.sim.config import SystemConfig
        from repro.sim.engine import Engine
        store = self._warm(tmp_path)
        warm = store.get(APP, SCALE)
        assert _memory_mapped(warm.soa()[0])

        def run(wl, **kwargs):
            cfg = SystemConfig(n_nodes=wl.n_nodes, memory_pressure=0.7)
            return Engine(wl, scaled_policy("ASCOMA"), config=cfg,
                          **kwargs).run().to_dict()

        vector = run(warm, vector_path=True)
        reference = run(get_workload(APP, SCALE), vector_path=False)
        assert vector == reference


class TestUnusableStore:
    """The trace store is a cache: when it cannot be written, a fetch
    keeps the workload it built and warns once per store root."""

    def _blocked(self, tmp_path) -> TraceStore:
        blocker = tmp_path / "file"
        blocker.write_text("")
        return TraceStore(blocker / "traces")  # a path under a file

    def test_fetch_keeps_the_workload_and_warns_once(self, tmp_path):
        store = self._blocked(tmp_path)
        with use_trace_store(store), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            full = fetch_traces(APP, 0.1)
            sampled = fetch_traces(APP, 0.1, sample={"rate": 4})
            clear_trace_memo()
            again = fetch_traces(APP, 0.1)
        want = get_workload(APP, 0.1).content_hash()
        assert full.content_hash() == again.content_hash() == want
        assert sampled.params["sample"]["rate"] == 4
        assert store.writes == 0
        (warning,) = [w for w in caught
                      if issubclass(w.category, RuntimeWarning)]
        assert str(store.root) in str(warning.message)

    def test_registration_still_needs_the_store(self, tmp_path):
        from repro.workloads.ingest import ingest_file, register_external
        fixture = Path(__file__).parent / "fixtures" / "external_small.csv"
        with pytest.raises(OSError):
            register_external(ingest_file(fixture),
                              store=self._blocked(tmp_path))


class TestCostModel:
    def test_lpt_orders_costliest_first(self):
        specs = [RunSpec("fft", "ASCOMA", 0.7),
                 RunSpec("ocean", "ASCOMA", 0.7),
                 RunSpec("fft", "RNUMA", 0.7)]
        events_of = {("fft", 0.5, ()): 100, ("ocean", 0.5, ()): 1000}
        ordered = lpt_order(specs, events_of)
        assert [s.app for s in ordered] == ["ocean", "fft", "fft"]
        # Among equal event counts the heavier architecture goes first.
        assert ordered[1].arch == "RNUMA"

    def test_lpt_unknown_workload_sorts_last(self):
        good = RunSpec("fft", "ASCOMA", 0.7)
        bad = RunSpec("nope", "ASCOMA", 0.7)
        ordered = lpt_order([bad, good], {("fft", 0.5, ()): 10})
        assert ordered == [good, bad]

    def test_spec_cost_uses_arch_weight(self):
        base = spec_cost(RunSpec("fft", "ASCOMA", 0.7), events=1000)
        heavy = spec_cost(RunSpec("fft", "RNUMA", 0.7), events=1000)
        assert heavy > base == 1000

    def test_submit_chunksize(self):
        assert submit_chunksize(90, 1) == 22
        assert submit_chunksize(90, 8) == 2
        assert submit_chunksize(3, 8) == 1  # never zero
        with pytest.raises(ValueError):
            submit_chunksize(10, 0)


class TestCrossProcessDeterminism:
    """Satellite: parallel and serial payloads must be identical."""

    SPECS = [RunSpec(app, arch, 0.5, SCALE)
             for app in ("fft", "em3d") for arch in ("ASCOMA", "SCOMA")]

    @pytest.mark.parametrize("cache", ["without-cache", "with-cache"])
    def test_parallel_matches_serial_to_dict(self, tmp_path, cache):
        store = _store(tmp_path) if cache == "with-cache" else None
        with use_trace_store(store):
            serial = execute(self.SPECS, max_workers=1, store=None)
            parallel = execute(self.SPECS, max_workers=2, store=None)
        for spec in self.SPECS:
            assert serial[spec].to_dict() == parallel[spec].to_dict(), spec


class TestConcurrentMutation:
    """Satellite: store scans racing ``trace-clear`` must skip vanished
    files, never crash.  The deterministic tests force the exact
    interleaving (file deleted between a successful load/glob and the
    following ``stat``); the threaded test hammers the real one."""

    def test_entries_skips_file_deleted_after_load(self, tmp_path,
                                                   monkeypatch):
        import repro.runtime.tracecache as tc
        store = _store(tmp_path)
        store.put(APP, SCALE, get_workload(APP, SCALE))
        store.put("fft", SCALE, get_workload("fft", SCALE))
        real_load = trace_mod.WorkloadTraces.load
        deleted = []

        def racing_load(path):
            wl = real_load(path)
            if not deleted:  # first artifact vanishes right after load
                import pathlib
                p = pathlib.Path(path)
                p.unlink()
                deleted.append(path)
            return wl

        monkeypatch.setattr(tc.WorkloadTraces, "load",
                            staticmethod(racing_load))
        entries = store.entries()
        assert len(entries) == 1  # vanished file skipped, not an error
        assert deleted

    def _racing_root(self, store):
        real_root = store.root

        class RacingRoot:
            """Every glob result is deleted before the caller sees it —
            the worst-case clear() interleaving."""

            def glob(self, pattern):
                for p in list(real_root.glob(pattern)):
                    p.unlink(missing_ok=True)
                    yield p

            def is_dir(self):
                return True

            def __str__(self):
                return str(real_root)

        return RacingRoot()

    def test_size_bytes_counts_vanished_files_as_zero(self, tmp_path):
        store = _store(tmp_path)
        store.put(APP, SCALE, get_workload(APP, SCALE))
        assert store.size_bytes() > 0
        store.root = self._racing_root(store)
        assert store.size_bytes() == 0

    def test_describe_survives_concurrent_clear(self, tmp_path):
        store = _store(tmp_path)
        store.put(APP, SCALE, get_workload(APP, SCALE))
        store.root = self._racing_root(store)
        info = store.describe()
        assert info["bytes"] == 0  # everything vanished mid-scan

    def test_entries_during_clear_threaded(self, tmp_path):
        """The reported crash: `repro store trace-list` concurrent with
        `repro store trace-clear` raised FileNotFoundError from the
        unguarded stat()."""
        import threading
        store = _store(tmp_path)
        wl = get_workload(APP, SCALE)
        stop = threading.Event()
        errors = []

        def churn():
            while not stop.is_set():
                store.put(APP, SCALE, wl)
                store.clear()

        worker = threading.Thread(target=churn)
        worker.start()
        try:
            for _ in range(50):
                try:
                    store.entries()
                    store.size_bytes()
                    store.describe()
                except Exception as exc:  # noqa: BLE001 - the assertion
                    errors.append(exc)
                    break
        finally:
            stop.set()
            worker.join()
        assert not errors, f"store scan crashed during clear: {errors[0]!r}"
