"""Unit tests for the crossover-pressure bisection."""

import pytest

from repro.harness.crossover import (crossover_report, find_crossover,
                                     relative_time_at)
from repro.runtime import RunSpec, RunStore, use_store

SCALE = 0.25


class TestRelativeTime:
    def test_ccnuma_is_unity(self):
        assert relative_time_at("fft", "CCNUMA", 0.5, SCALE) == \
            pytest.approx(1.0, abs=0.01)

    def test_scoma_low_pressure_below_one(self):
        assert relative_time_at("em3d", "SCOMA", 0.1, SCALE) < 0.9

    def test_scoma_high_pressure_above_one(self):
        assert relative_time_at("em3d", "SCOMA", 0.9, SCALE) > 1.5

    def test_baseline_resolves_through_each_store(self, tmp_path):
        """No process-wide baseline cache: the CC-NUMA baseline is a
        cell like any other, served from and kept in the store each
        call runs under."""
        first, second = RunStore(tmp_path / "a"), RunStore(tmp_path / "b")
        with use_store(first):
            rel_first = relative_time_at("fft", "SCOMA", 0.7, 0.1)
        with use_store(second):
            rel_second = relative_time_at("fft", "SCOMA", 0.7, 0.1)
        baseline = RunSpec("fft", "CCNUMA", 0.5, 0.1)
        assert baseline in first and baseline in second
        assert rel_first == rel_second


class TestFindCrossover:
    def test_scoma_crossover_between_endpoints(self):
        crossover = find_crossover("em3d", "SCOMA", scale=SCALE, tol=0.05)
        assert crossover is not None
        assert 0.2 < crossover < 0.9

    def test_crossover_brackets_the_sign_change(self):
        crossover = find_crossover("em3d", "SCOMA", scale=SCALE, tol=0.05)
        assert relative_time_at("em3d", "SCOMA",
                                max(0.05, crossover - 0.1), SCALE) < 1.0
        assert relative_time_at("em3d", "SCOMA",
                                min(0.95, crossover + 0.1), SCALE) > 1.0

    def test_never_crossing_returns_none(self):
        # AS-COMA never falls behind CC-NUMA on lu.
        assert find_crossover("lu", "ASCOMA", scale=SCALE, tol=0.1) is None

    def test_always_behind_returns_lo(self):
        # R-NUMA on fft hovers at ~1.01: crossed from the start.
        result = find_crossover("fft", "RNUMA", scale=SCALE, tol=0.1)
        assert result == pytest.approx(0.05) or result is None


class TestReport:
    def test_report_shape(self):
        rows = crossover_report(apps=("fft",), archs=("SCOMA",), scale=SCALE)
        assert len(rows) == 1
        row = rows[0]
        assert set(row) == {"app", "arch", "ideal_pressure",
                            "crossover_pressure"}
        assert 0 < row["ideal_pressure"] < 1

    def test_searches_start_from_one_resolve(self, monkeypatch):
        """Every search's baseline and endpoints resolve in one call, so
        one pool serves them; bisection steps follow one cell at a time,
        and the rows equal separate searches'."""
        import repro.harness.crossover as crossover

        calls = []
        real = crossover.resolve_cells

        def spy(specs, check=False):
            calls.append(len(specs))
            return real(specs, check=check)

        monkeypatch.setattr(crossover, "resolve_cells", spy)
        apps, archs = ("em3d", "fft"), ("SCOMA", "ASCOMA")
        rows = crossover_report(apps=apps, archs=archs, scale=0.1)
        assert calls[0] == 3 * len(apps) * len(archs)
        assert all(n == 1 for n in calls[1:])
        for row in rows:
            alone = find_crossover(row["app"], row["arch"], scale=0.1)
            assert row["crossover_pressure"] == (
                None if alone is None else round(alone, 2))
