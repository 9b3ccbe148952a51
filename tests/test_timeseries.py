"""Tests for time-series sampling and backoff trajectory regressions."""


from repro.harness.experiment import scaled_policy
from repro.sim.config import SystemConfig
from repro.sim.engine import Engine
from repro.sim.events import EV_BARRIER
from repro.sim.timeseries import TimeSeriesSampler
from repro.workloads import generate_workload, lu


def run_sampled(app, arch, pressure, scale=0.25, **overrides):
    wl = generate_workload(app, scale=scale)
    cfg = SystemConfig(n_nodes=wl.n_nodes, memory_pressure=pressure)
    engine = Engine(wl, scaled_policy(arch, **overrides), cfg)
    sampler = TimeSeriesSampler().attach(engine)
    result = engine.run()
    return sampler, result, wl


class TestSampler:
    def test_one_sample_per_node_per_barrier(self):
        sampler, result, wl = run_sampled("fft", "ASCOMA", 0.5)
        barriers = wl.traces[0].barriers()
        assert len(sampler) == barriers * wl.n_nodes
        assert len(sampler.of_node(0)) == barriers

    def test_times_monotone(self):
        sampler, _, _ = run_sampled("fft", "ASCOMA", 0.5)
        times = sampler.times(0)
        assert all(a <= b for a, b in zip(times, times[1:]))

    def test_all_nodes_sampled_at_same_times(self):
        sampler, _, wl = run_sampled("fft", "ASCOMA", 0.5)
        reference = sampler.times(0)
        for node in range(1, wl.n_nodes):
            assert sampler.times(node) == reference

    def test_relocations_series_monotone(self):
        sampler, _, _ = run_sampled("em3d", "RNUMA", 0.7)
        series = sampler.series(0, "relocations")
        assert all(a <= b for a, b in zip(series, series[1:]))

    def test_sample_as_dict(self):
        sampler, _, _ = run_sampled("fft", "ASCOMA", 0.5)
        d = sampler.samples[0].as_dict()
        assert {"time", "node", "free_frames", "threshold"} <= set(d)

    def test_sparkline_render(self):
        sampler, _, _ = run_sampled("em3d", "ASCOMA", 0.9)
        line = sampler.sparkline(0, "threshold")
        assert isinstance(line, str) and len(line) > 0

    def test_sparkline_constant_series(self):
        sampler, _, _ = run_sampled("fft", "CCNUMA", 0.5)
        line = sampler.sparkline(0, "threshold")
        assert set(line) <= {" "}

    def test_no_sampler_is_default(self):
        """An engine starts unobserved; attaching a sampler subscribes
        it to barrier releases and nothing else."""
        wl = generate_workload("fft", scale=0.25)
        engine = Engine(wl, scaled_policy("CCNUMA"),
                        SystemConfig(n_nodes=wl.n_nodes))
        assert engine.machine.events.kind_observers == {}
        TimeSeriesSampler().attach(engine)
        assert list(engine.machine.events.kind_observers) == [EV_BARRIER]


class TestBackoffTrajectory:
    def test_threshold_climbs_under_sustained_thrash(self):
        sampler, _, _ = run_sampled("em3d", "ASCOMA", 0.9, scale=0.35)
        series = sampler.series(0, "threshold")
        # Effective threshold starts at the base and ends higher (or at 0
        # if relocation was disabled outright).
        assert series[0] <= 16
        assert max(series) > 16 or 0 in series

    def test_daemon_interval_stretches_under_thrash(self):
        sampler, _, _ = run_sampled("em3d", "ASCOMA", 0.9, scale=0.35)
        series = sampler.series(0, "daemon_interval")
        assert max(series) > min(series)

    def test_no_backoff_at_low_pressure(self):
        sampler, _, _ = run_sampled("em3d", "ASCOMA", 0.1, scale=0.35)
        assert set(sampler.series(0, "threshold")) == {16}

    def test_lu_phase_change_triggers_threshold_recovery(self):
        """Section 3: 'Should the number of hot pages drop, e.g. because
        of a phase change ... the pageout daemon will detect it ... at
        this point it can reduce the refetch threshold.'  lu's phased
        active set must produce a visible climb *and later descent* of
        the effective threshold."""
        wl = lu.generate(scale=0.5)
        cfg = SystemConfig(n_nodes=wl.n_nodes, memory_pressure=0.9)
        engine = Engine(wl, scaled_policy("ASCOMA"), cfg)
        sampler = TimeSeriesSampler().attach(engine)
        engine.run()
        series = sampler.series(0, "threshold")
        peak = max(series)
        assert peak > 16, "backoff never engaged"
        after_peak = series[series.index(peak):]
        assert min(after_peak) < peak, "threshold never recovered"
