"""Tests for the hot-page report."""

import pytest

from repro.harness.experiment import scaled_policy
from repro.harness.pagereport import hot_page_report, render_hot_pages
from repro.sim.config import SystemConfig
from repro.sim.engine import Engine
from repro.workloads import generate_workload


@pytest.fixture(scope="module")
def engine():
    wl = generate_workload("em3d", scale=0.25)
    cfg = SystemConfig(n_nodes=wl.n_nodes, memory_pressure=0.9)
    eng = Engine(wl, scaled_policy("RNUMA"), cfg)
    eng.run()
    return eng


class TestReport:
    def test_shape(self, engine):
        report = hot_page_report(engine, top=5)
        assert len(report["hottest_pages"]) <= 5
        assert set(report["cached_pages_per_node"]) == set(range(8))
        assert set(report["mapping_mode_totals"]) == {"HOME", "SCOMA",
                                                      "CCNUMA"}

    def test_hottest_sorted_descending(self, engine):
        pages = hot_page_report(engine)["hottest_pages"]
        counts = [c for _, c in pages]
        assert counts == sorted(counts, reverse=True)

    def test_mode_totals_match_page_tables(self, engine):
        report = hot_page_report(engine)
        total_mappings = sum(sum(1 for m in n.page_table.mode if m)
                             for n in engine.machine.nodes)
        assert sum(report["mapping_mode_totals"].values()) == total_mappings

    def test_home_counts_balanced(self, engine):
        report = hot_page_report(engine)
        assert report["home_imbalance"] == 0  # balanced first-touch

    def test_cached_counts_match_pools(self, engine):
        report = hot_page_report(engine)
        for node in engine.machine.nodes:
            assert report["cached_pages_per_node"][node.id] == \
                node.pool.in_use

    def test_render(self, engine):
        out = render_hot_pages(engine)
        assert "Hottest pages" in out
        assert "home imbalance 0" in out

    def test_cli_command(self, capsys):
        from repro.harness.cli import main
        assert main(["--scale", "0.2", "hotpages", "fft", "ascoma",
                     "--pressure", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "Per-node page-cache" in out
