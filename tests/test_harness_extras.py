"""Coverage for harness extras: CSV export, engine edge cases,
utilisation reporting."""

import csv

import pytest

from repro.core import CCNUMAPolicy
from repro.harness import export_csv
from repro.harness.experiment import run_app
from repro.sim.config import SystemConfig
from repro.sim.engine import DEFAULT_QUANTUM, Engine, simulate
from repro.sim.trace import TraceBuilder, WorkloadTraces
from tests.conftest import make_micro_workload

SCALE = 0.2


class TestExportCSV:
    def test_csv_shape(self, tmp_path):
        path = tmp_path / "fft.csv"
        export_csv("fft", str(path), scale=SCALE)
        rows = list(csv.DictReader(open(path)))
        assert rows[0]["label"] == "CCNUMA"
        assert float(rows[0]["relative_total"]) == pytest.approx(1.0)
        assert any(r["label"].startswith("ASCOMA") for r in rows)

    def test_csv_time_components_sum_to_total(self, tmp_path):
        path = tmp_path / "fft.csv"
        export_csv("fft", str(path), scale=SCALE)
        for row in csv.DictReader(open(path)):
            parts = sum(float(v) for k, v in row.items()
                        if k.startswith("time_"))
            assert parts == pytest.approx(float(row["relative_total"]),
                                          rel=1e-4)

    def test_csv_misses_are_integers(self, tmp_path):
        path = tmp_path / "fft.csv"
        export_csv("fft", str(path), scale=SCALE)
        for row in csv.DictReader(open(path)):
            for key, value in row.items():
                if key.startswith("miss_"):
                    assert value == str(int(value))


class TestEngineEdges:
    def test_single_node_machine(self):
        b = TraceBuilder()
        b.read(0)
        b.compute(10)
        b.read(1)
        wl = WorkloadTraces("solo", [b.build()], home_pages_per_node=1,
                            total_shared_pages=1)
        result = simulate(wl, CCNUMAPolicy(), SystemConfig(n_nodes=1))
        s = result.node_stats[0]
        assert s.HOME == 2       # everything is home-local
        assert s.remote_misses() == 0

    def test_empty_traces(self):
        wl = WorkloadTraces("empty", [TraceBuilder().build(),
                                      TraceBuilder().build()], 1, 2)
        result = simulate(wl, CCNUMAPolicy(), SystemConfig(n_nodes=2))
        assert result.execution_time() == 0

    def test_trace_without_barriers(self):
        builders = [TraceBuilder(), TraceBuilder()]
        builders[0].read(0)
        builders[1].read(128)
        wl = WorkloadTraces("nb", [b.build() for b in builders], 1, 2)
        result = simulate(wl, CCNUMAPolicy(), SystemConfig(n_nodes=2))
        assert result.aggregate().shared_misses() == 2
        assert result.aggregate().SYNC == 0

    def test_result_extra_fields(self):
        result = run_app("fft", "ASCOMA", 0.5, scale=SCALE)
        assert "utilisation" in result.extra
        assert "page_cache_frames" in result.extra
        assert result.extra["protocol"]["remote_fetches"] > 0

    def test_quantum_default(self):
        wl = make_micro_workload()
        assert Engine(wl, CCNUMAPolicy(),
                      SystemConfig(n_nodes=2)).quantum == DEFAULT_QUANTUM

    def test_aggregate_invariant_under_quantum(self):
        """Total work (miss counts) must be quantum-independent even if
        contention timing wiggles slightly."""
        wl = make_micro_workload(lines=32)
        counts = []
        for quantum in (100, 10_000):
            cfg = SystemConfig(n_nodes=2, model_contention=False)
            result = simulate(wl, CCNUMAPolicy(), cfg, quantum=quantum)
            counts.append(result.aggregate().shared_misses())
        assert counts[0] == counts[1]


class TestUtilisationReport:
    def test_contention_counters_populate(self):
        result = run_app("em3d", "CCNUMA", 0.5, scale=SCALE)
        util = result.extra["utilisation"]
        assert util["network"]["messages"] > 0
        assert util["directory"]["refetches"] > 0
        assert len(util["memory"]) == 8

    def test_scoma_generates_no_relocation_hints(self):
        result = run_app("em3d", "SCOMA", 0.5, scale=SCALE)
        util = result.extra["utilisation"]
        assert util["directory"]["relocation_hints"] == 0
