"""Tests for the experiment harness, tables and figures.

These run tiny-scale simulations (scale 0.2) so the whole file stays
fast while still executing the real code paths end to end.
"""

import pytest

from repro.harness import (APP_PRESSURES, ARCHITECTURES, figure_series,
                           format_stacked_bars, format_table, render_figure,
                           render_table1, render_table2, render_table3,
                           render_table4, render_table5, render_table6,
                           run_app, run_pressure_sweep, scaled_policy, table1,
                           table2, table3, table4, table5, table6)
from repro.harness.experiment import get_workload, sweep_specs
from repro.harness.parallel import matrix_specs
from repro.sim.stats import MISS_CLASSES, TIME_BUCKETS

SCALE = 0.2


class TestExperiment:
    def test_architecture_list(self):
        assert ARCHITECTURES == ("CCNUMA", "SCOMA", "RNUMA", "VCNUMA",
                                 "ASCOMA")

    def test_pressures_defined_for_all_apps(self):
        assert set(APP_PRESSURES) == {"barnes", "em3d", "fft", "lu", "ocean",
                                      "radix"}
        assert all(0 < p < 1 for ps in APP_PRESSURES.values() for p in ps)

    def test_barnes_not_run_above_70(self):
        assert max(APP_PRESSURES["barnes"]) <= 0.7

    def test_scaled_policy_overrides(self):
        policy = scaled_policy("rnuma")
        assert policy.make_node_state().threshold == 16
        policy = scaled_policy("rnuma", threshold=4)
        assert policy.make_node_state().threshold == 4

    def test_get_workload_cached(self):
        a = get_workload("fft", SCALE)
        b = get_workload("fft", SCALE)
        assert a is b

    def test_run_app_result_identity(self):
        result = run_app("fft", "ASCOMA", 0.5, scale=SCALE)
        assert result.architecture == "ASCOMA"
        assert result.workload == "fft"
        assert result.pressure == 0.5
        assert result.execution_time() > 0

    def test_run_pressure_sweep_keys(self):
        results = run_pressure_sweep("fft", archs=("CCNUMA", "ASCOMA"),
                                     pressures=(0.3, 0.7), scale=SCALE)
        assert ("CCNUMA", None) in results
        assert ("ASCOMA", 0.3) in results and ("ASCOMA", 0.7) in results

    def test_sweep_with_a_failing_cell_raises_naming_it(self):
        """A sweep cannot be charted around a missing cell: the first
        failed cell raises ValueError naming it and its error."""
        with pytest.raises(ValueError, match=r"fft/BOGUS@30%\(x0\.2\):"
                                             r" ValueError: unknown arch"):
            run_pressure_sweep("fft", archs=("CCNUMA", "BOGUS"),
                               pressures=(0.3, 0.7), scale=SCALE)

    def test_sweep_and_matrix_share_their_cells(self):
        cells = sweep_specs("radix", scale=SCALE, quantum=500)
        assert list(cells.values()) == matrix_specs(("radix",), SCALE,
                                                    quantum=500)
        assert len(cells) == 1 + 4 * len(APP_PRESSURES["radix"])
        assert cells[("CCNUMA", None)].pressure == APP_PRESSURES["radix"][0]


class TestTables:
    def test_table1_structure(self):
        rows = table1()
        assert len(rows) == 3
        assert rows[0]["model"] == "CC-NUMA"

    def test_table2_structure(self):
        assert len(table2()) == 3

    def test_table3_mentions_rac(self):
        assert "RAC" in table3()

    def test_table4_matches_paper_minimums(self):
        data = table4()
        assert data["L1 Cache"] == 1.0
        assert data["Local Memory"] == pytest.approx(50, abs=2)
        assert data["RAC"] == pytest.approx(36, abs=2)
        assert data["Remote Memory"] == pytest.approx(180, abs=5)
        assert data["remote_to_local_ratio"] == pytest.approx(3.6, abs=0.15)

    def test_table5_rows(self):
        rows = table5(SCALE)
        byname = {r["program"]: r for r in rows}
        assert byname["lu"]["nodes"] == 4
        assert byname["radix"]["ideal_pressure"] < byname["fft"]["ideal_pressure"]
        for r in rows:
            assert 0 < r["ideal_pressure"] < 1
            assert r["max_remote_pages"] > 0

    def test_table6_rows(self):
        rows = table6(SCALE)
        byname = {r["program"]: r for r in rows}
        # fft/ocean relocate few pages; lu/radix relocate nearly all.
        assert byname["fft"]["pct_relocated"] < 30
        assert byname["radix"]["pct_relocated"] > 60
        for r in rows:
            assert r["relocated_pages"] <= r["total_remote_pages"]

    def test_renderers_produce_text(self):
        for render in (render_table1, render_table2, render_table3):
            out = render()
            assert "Table" in out and "|" in out

    def test_render_table4_contains_ratio(self):
        assert "remote:local ratio" in render_table4()

    def test_render_table5_and_6(self):
        assert "Ideal pressure" in render_table5(SCALE)
        assert "% Relocated" in render_table6(SCALE)


class TestFigures:
    @pytest.fixture(scope="class")
    def fft_series(self):
        return figure_series("fft", scale=SCALE)

    def test_series_structure(self, fft_series):
        assert set(fft_series) == {"time", "misses", "relative_total"}
        assert "CCNUMA" in fft_series["time"]

    def test_ccnuma_bar_normalised_to_one(self, fft_series):
        assert fft_series["relative_total"]["CCNUMA"] == pytest.approx(1.0)

    def test_bars_labelled_with_pressure(self, fft_series):
        assert any("(" in label for label in fft_series["time"])

    def test_time_components_complete(self, fft_series):
        for parts in fft_series["time"].values():
            assert set(parts) == set(TIME_BUCKETS)

    def test_miss_components_complete(self, fft_series):
        for parts in fft_series["misses"].values():
            assert set(parts) == set(MISS_CLASSES)

    def test_render_figure_text(self):
        out = render_figure("fft", scale=SCALE)
        assert "FFT" in out
        assert "legend" in out


class TestReportHelpers:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = out.splitlines()
        assert len({len(row) for row in lines}) <= 2  # header sep may differ

    def test_format_stacked_bars(self):
        out = format_stacked_bars(
            {"X": {"A": 1.0, "B": 1.0}, "Y": {"A": 0.5, "B": 0.0}},
            order=["A", "B"], width=10)
        assert "X" in out and "legend" in out
