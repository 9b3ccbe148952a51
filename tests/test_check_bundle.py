"""Failure-replay bundles: golden round-trip + the ``check`` CLI.

A bundle must round-trip losslessly through disk (workload traces,
config, policy kwargs, violations, quantum, granularity) and its replay
must be deterministic.  The CLI layer on top must exit 0 on a clean run
and non-zero once the seeded protocol bug is injected.
"""

import numpy as np
import pytest

from repro.check import (InvariantChecker, ReproBundle, config_from_dict,
                         config_to_dict)
from repro.core import make_policy
from repro.harness.cli import main
from repro.sim.config import SystemConfig
from repro.sim.engine import Engine
from repro.workloads import synthetic

ASCOMA_KWARGS = dict(threshold=8, increment=4)


def seeded_bundle() -> ReproBundle:
    wl = synthetic.generate(
        n_nodes=4, home_pages_per_node=6, remote_pages_per_node=10,
        sweeps=5, lines_per_visit=8, hot_fraction=0.8, write_fraction=0.5,
        home_lines_per_sweep=32, seed=3)
    cfg = SystemConfig(n_nodes=4, memory_pressure=0.5,
                       debug_skip_invalidate_node=1)
    engine = Engine(wl, make_policy("ASCOMA", **ASCOMA_KWARGS), cfg)
    checker = InvariantChecker.attach(engine, granularity="event")
    engine.run()
    assert checker.violations
    return ReproBundle.capture(engine, checker, architecture="ASCOMA",
                               policy_kwargs=ASCOMA_KWARGS)


class TestConfigRoundTrip:
    def test_default_config(self):
        cfg = SystemConfig(n_nodes=4)
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_non_default_fields_survive(self):
        cfg = SystemConfig(n_nodes=8, memory_pressure=0.9,
                           debug_skip_invalidate_node=3)
        restored = config_from_dict(config_to_dict(cfg))
        assert restored.debug_skip_invalidate_node == 3
        assert restored == cfg


class TestBundleRoundTrip:
    @pytest.fixture(scope="class")
    def bundle(self):
        return seeded_bundle()

    def test_save_load_preserves_everything(self, bundle, tmp_path):
        path = bundle.save(str(tmp_path / "bundle"))
        loaded = ReproBundle.load(path)
        assert loaded.architecture == "ASCOMA"
        assert loaded.policy_kwargs == ASCOMA_KWARGS
        assert loaded.config == bundle.config
        assert loaded.quantum == bundle.quantum
        assert loaded.granularity == "event"
        assert ([v.as_dict() for v in loaded.violations]
                == [v.as_dict() for v in bundle.violations])
        assert loaded.workload.name == bundle.workload.name
        for a, b in zip(loaded.workload.traces, bundle.workload.traces):
            assert np.array_equal(a.kinds, b.kinds)
            assert np.array_equal(a.args, b.args)

    def test_replay_is_deterministic(self, bundle, tmp_path):
        loaded = ReproBundle.load(bundle.save(str(tmp_path / "bundle")))
        result, checker = loaded.replay()
        assert ([v.as_dict() for v in checker.violations]
                == [v.as_dict() for v in bundle.violations])
        assert result.invariant_violations == len(bundle.violations)

    def test_load_rejects_foreign_directory(self, tmp_path):
        (tmp_path / "bundle.json").write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="not a repro-check-bundle"):
            ReproBundle.load(str(tmp_path))


class TestCheckCli:
    ARGS = ["--scale", "0.2", "check", "fft", "ascoma", "--pressure", "0.7"]

    def test_clean_run_exits_zero(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "no invariant violations" in out

    def test_seeded_bug_exits_nonzero(self, capsys, tmp_path):
        bundle_dir = str(tmp_path / "bundle")
        code = main(self.ARGS + ["--inject-skip-invalidate", "1",
                                 "--bundle-dir", bundle_dir])
        assert code == 1
        out = capsys.readouterr().out
        assert "invariant violation(s)" in out
        assert "cache-reachability [node 1," in out
        # The bundle written by the CLI replays the same failure.
        loaded = ReproBundle.load(bundle_dir)
        _, checker = loaded.replay()
        assert checker.violations

    def test_injection_outside_the_machine_is_an_error(self, capsys):
        """fft runs on 8 nodes: node 8 does not exist, so nothing would
        be injected and a clean report would pass for a self-test."""
        assert main(self.ARGS + ["--inject-skip-invalidate", "8"]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "debug_skip_invalidate_node" in captured.err
        assert "no invariant violations" not in captured.out

    def test_run_check_flag_reports(self, capsys):
        assert main(["--scale", "0.2", "run", "fft", "ascoma", "--check"]) == 0
        assert "invariants     : 0 violation(s)" in capsys.readouterr().out

    def test_matrix_check_flag_reports(self, capsys):
        assert main(["--scale", "0.2", "matrix", "--apps", "fft",
                     "--workers", "1", "--check"]) == 0
        assert "0 violation(s) across" in capsys.readouterr().out
