"""Trace sampling: determinism, sweep semantics, identity, memory.

The sampling contract has four legs, each pinned here:

* **Determinism** — the same ``(rate, pages, seed, unit)`` selects the
  same references in any process, so sampled trace-cache artifacts are
  content-addressable (one test shells out to prove cross-process
  stability of the sampled content hash).
* **Structure** — barriers stay aligned across nodes, the first-touch
  prologue survives verbatim, kept barriers renumber densely, and the
  spatial sampler only ever keeps whole pages.
* **Identity** — sampling parameters enter the spec hash and the
  trace-cache key, so sampled and full runs can never collide in
  either store, while the *unsampled* canonical form is bit-identical
  to what it was before the feature existed.
* **Accuracy & memory** — the committed error-analysis bounds hold,
  and a warm-store rate-10 fetch streams from the memory-mapped trace
  file at a fraction of the full trace's heap.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.harness.experiment import get_workload
from repro.runtime import RunSpec, TraceStore, fetch_traces, trace_key, \
    use_trace_store
from repro.runtime.tracecache import clear_trace_memo, sample_from_sidecar
from repro.sim.trace import EV_BARRIER, EV_WRITE
from repro.workloads.sample import (ERROR_ANALYSIS_CONFIGS, ERROR_BOUNDS,
                                    SampleSpec, estimated_metrics,
                                    sample_scale_factor, sample_workload,
                                    sampling_error, trace_memory_bytes)

APP = "fft"
SCALE = 0.25

SRC = str(Path(__file__).resolve().parent.parent / "src")


class TestSampleSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SampleSpec(rate=0)
        with pytest.raises(ValueError):
            SampleSpec(pages=0.0)
        with pytest.raises(ValueError):
            SampleSpec(pages=1.5)
        with pytest.raises(ValueError):
            SampleSpec(unit="epoch")

    def test_null_spec_collapses_everywhere(self):
        null = SampleSpec(rate=1, pages=1.0)
        assert null.is_null
        assert null.to_pairs() == ()
        assert SampleSpec.from_any(null) is None
        assert SampleSpec.from_any(None) is None
        assert SampleSpec.from_any({"rate": 1, "pages": 1.0}) is None

    def test_from_any_round_trips_pairs(self):
        spec = SampleSpec(rate=5, pages=0.5, seed=3, unit="visit")
        assert SampleSpec.from_any(spec.to_pairs()) == spec
        assert SampleSpec.from_any(spec.canonical_dict()) == spec

    def test_labels(self):
        assert SampleSpec(rate=4).label() == "~1/4"
        assert SampleSpec(rate=4, unit="visit").label() == "~1/4v"
        assert SampleSpec(pages=0.5).label() == "~p0.5"
        assert SampleSpec().label() == ""


class TestDeterminism:
    @pytest.mark.parametrize("spec", [
        SampleSpec(rate=4),
        SampleSpec(rate=3, unit="visit"),
        SampleSpec(rate=2, unit="ref"),
        SampleSpec(pages=0.5),
        SampleSpec(rate=4, pages=0.5, seed=7),
    ])
    def test_same_spec_same_content(self, spec):
        a = sample_workload(get_workload(APP, SCALE), spec)
        b = sample_workload(get_workload(APP, SCALE), spec)
        assert a.content_hash() == b.content_hash()

    def test_seed_changes_selection(self):
        wl = get_workload(APP, SCALE)
        a = sample_workload(wl, SampleSpec(pages=0.5, seed=0))
        b = sample_workload(wl, SampleSpec(pages=0.5, seed=1))
        assert a.content_hash() != b.content_hash()

    def test_content_hash_stable_across_processes(self):
        """Same seed + rate => identical sampled content hash in a
        fresh interpreter — the property that makes sampled artifacts
        safely shareable through the on-disk trace cache."""
        spec = SampleSpec(rate=4, pages=0.5, seed=9)
        local = sample_workload(get_workload(APP, SCALE), spec)
        code = (
            "from repro.harness.experiment import get_workload\n"
            "from repro.workloads.sample import SampleSpec, sample_workload\n"
            f"wl = get_workload({APP!r}, {SCALE})\n"
            f"spec = SampleSpec(rate=4, pages=0.5, seed=9)\n"
            "print(sample_workload(wl, spec).content_hash())\n")
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True, check=True,
                             env={"PYTHONPATH": SRC, "PATH": "/usr/bin"})
        assert out.stdout.strip() == local.content_hash()


class TestSweepSemantics:
    def test_null_spec_returns_same_object(self):
        wl = get_workload(APP, SCALE)
        assert sample_workload(wl, None) is wl
        assert sample_workload(wl, SampleSpec()) is wl

    def test_barriers_stay_aligned_across_nodes(self):
        sampled = sample_workload(get_workload(APP, SCALE), SampleSpec(rate=4))
        counts = {int(np.count_nonzero(t.kinds == EV_BARRIER))
                  for t in sampled.traces}
        assert len(counts) == 1  # every node sees the same barrier set
        full_counts = {int(np.count_nonzero(t.kinds == EV_BARRIER))
                       for t in get_workload(APP, SCALE).traces}
        assert counts.pop() < full_counts.pop()

    def test_kept_barriers_renumber_densely(self):
        sampled = sample_workload(get_workload(APP, SCALE), SampleSpec(rate=4))
        for t in sampled.traces:
            ids = t.args[t.kinds == EV_BARRIER]
            assert np.array_equal(ids, np.arange(len(ids)))

    def test_prologue_survives_verbatim(self):
        """Epoch 0 (the first-touch prologue) is always kept: the home
        assignment it pins must be identical in sampled and full runs."""
        full = get_workload(APP, SCALE)
        sampled = sample_workload(full, SampleSpec(rate=10))
        for ft, st in zip(full.traces, sampled.traces):
            fbar = int(np.flatnonzero(ft.kinds == EV_BARRIER)[0])
            sbar = int(np.flatnonzero(st.kinds == EV_BARRIER)[0])
            assert np.array_equal(ft.kinds[:fbar], st.kinds[:sbar])
            assert np.array_equal(ft.args[:fbar], st.args[:sbar])

    def test_huge_rate_still_keeps_an_interior_epoch(self):
        sampled = sample_workload(get_workload(APP, SCALE),
                                  SampleSpec(rate=10 ** 6))
        # more than the prologue survived: refs exist after barrier 0
        t = sampled.traces[0]
        first_bar = int(np.flatnonzero(t.kinds == EV_BARRIER)[0])
        assert np.count_nonzero(t.kinds[first_bar:] <= EV_WRITE) > 0

    def test_spatial_keeps_only_whole_pages(self, amap):
        full = get_workload(APP, SCALE)
        spec = SampleSpec(pages=0.5)
        sampled = sample_workload(full, spec)
        assert sampled.home_pages_per_node < full.home_pages_per_node
        lpp = amap.lines_per_page
        full_pages = set()
        kept_pages = set()
        for ft, st in zip(full.traces, sampled.traces):
            full_pages.update((ft.args[ft.kinds <= EV_WRITE] // lpp).tolist())
            kept_pages.update((st.args[st.kinds <= EV_WRITE] // lpp).tolist())
        assert kept_pages < full_pages  # strict subset, whole pages only

    def test_measured_scale_factor_recorded(self):
        sampled = sample_workload(get_workload(APP, SCALE), SampleSpec(rate=4))
        entry = sampled.params["sample"]
        assert entry["full_refs"] > entry["kept_refs"] > 0
        factor = sample_scale_factor(sampled)
        assert factor == pytest.approx(entry["full_refs"]
                                       / entry["kept_refs"])
        assert sample_scale_factor(get_workload(APP, SCALE)) == 1.0


class TestIdentity:
    def test_sample_enters_spec_hash(self):
        base = RunSpec.make(APP, "ASCOMA", 0.7, SCALE)
        sampled = RunSpec.make(APP, "ASCOMA", 0.7, SCALE,
                               sample=SampleSpec(rate=4))
        assert base.spec_hash() != sampled.spec_hash()
        assert "~1/4" in sampled.label()

    def test_null_sample_keeps_presampling_hash(self):
        """Every spelling of 'no sampling' must leave the canonical
        JSON — and therefore every pre-existing store key — unchanged."""
        base = RunSpec.make(APP, "ASCOMA", 0.7, SCALE)
        null = RunSpec.make(APP, "ASCOMA", 0.7, SCALE, sample=SampleSpec())
        assert "sample" not in base.to_dict()
        assert base.canonical_json() == null.canonical_json()

    def test_spec_round_trips_through_dict(self):
        spec = RunSpec.make(APP, "ASCOMA", 0.7, SCALE,
                            sample=SampleSpec(rate=4, pages=0.5))
        again = RunSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.sample_spec() == SampleSpec(rate=4, pages=0.5)

    def test_sample_enters_trace_key(self):
        base = trace_key(APP, SCALE)
        sampled = trace_key(APP, SCALE, sample=SampleSpec(rate=4))
        other = trace_key(APP, SCALE, sample=SampleSpec(rate=4, seed=1))
        assert len({base, sampled, other}) == 3
        assert trace_key(APP, SCALE, sample=SampleSpec()) == base


class TestStreamingAndMemory:
    def test_sidecar_path_matches_in_memory_sampling(self, tmp_path):
        """The memmap-streaming reduction must be bit-identical to
        sampling the heap-resident workload — content hash, page pool
        and the recorded measured scale factor."""
        store = TraceStore(tmp_path / "traces")
        spec = SampleSpec(rate=4)
        with use_trace_store(store):
            full = fetch_traces(APP, SCALE)
            inmem = sample_workload(full, spec)
            side = sample_from_sidecar(store.path_for(APP, SCALE), spec)
        assert side is not None
        assert side.content_hash() == inmem.content_hash()
        assert side.home_pages_per_node == inmem.home_pages_per_node
        assert (side.params["sample"]["scale_factor"]
                == inmem.params["sample"]["scale_factor"])

    def test_warm_store_fetch_streams_and_caches(self, tmp_path):
        store = TraceStore(tmp_path / "traces")
        spec = SampleSpec(rate=4)
        with use_trace_store(store):
            fetch_traces(APP, SCALE)          # warm the full artifact
            clear_trace_memo()
            first = fetch_traces(APP, SCALE, sample=spec)
            assert store.path_for(APP, SCALE, sample=spec).exists()
            clear_trace_memo()
            second = fetch_traces(APP, SCALE, sample=spec)
        assert first.content_hash() == second.content_hash()

    def test_rate10_memory_fraction(self, tmp_path):
        """The acceptance bound: a warm-store rate-10 sampled fetch
        holds well under 1/8th of the full trace's replay heap."""
        store = TraceStore(tmp_path / "traces")
        with use_trace_store(store):
            full = fetch_traces(APP, SCALE)
            full_bytes = trace_memory_bytes(full)
            clear_trace_memo()
            sampled = fetch_traces(APP, SCALE, sample=SampleSpec(rate=10))
        assert trace_memory_bytes(sampled) <= full_bytes / 8

    def test_sampled_spec_executes(self):
        result = RunSpec.make(APP, "SCOMA", 0.9, SCALE,
                              sample=SampleSpec(rate=4)).execute()
        assert result.execution_time() > 0


class TestErrorBounds:
    def test_committed_config_within_bounds(self):
        """Re-measure the cheapest committed error-analysis config and
        hold it to the committed bounds (the CI leg runs the full
        report via ``repro sample-report``)."""
        cfg = ERROR_ANALYSIS_CONFIGS[0]
        report = sampling_error(**cfg)
        for metric, bound in ERROR_BOUNDS.items():
            assert report["errors"][metric] <= bound, (
                f"{metric} error {report['errors'][metric]:.3f}"
                f" exceeds committed bound {bound} on {cfg}")

    def test_estimator_uses_measured_factor(self):
        cfg = ERROR_ANALYSIS_CONFIGS[0]
        report = sampling_error(**cfg)
        nominal = cfg["rate"] / cfg["pages"]
        assert report["scale_factor"] != pytest.approx(nominal, rel=1e-6)

    def test_estimated_metrics_factor_override(self):
        class _Agg:
            K_OVERHD = 100
            relocations = 2
            migrations = 1

        class _Result:
            def aggregate(self):
                return _Agg()

            def execution_time(self):
                return 1000

        est = estimated_metrics(_Result(), SampleSpec(rate=4), factor=3.0)
        assert est == {"cycles": 3000.0, "toverhead": 300.0, "remaps": 9.0}
        nominal = estimated_metrics(_Result(), SampleSpec(rate=4))
        assert nominal["cycles"] == 4000.0
