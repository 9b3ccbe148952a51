"""Tests for the MESI Exclusive-state protocol option."""

import pytest

from repro.check import check_cache_reachability
from repro.coherence.directory import Directory
from repro.harness.experiment import get_workload, scaled_policy
from repro.sim.config import SystemConfig
from repro.sim.engine import Engine, simulate
from tests.conftest import DirOut


class TestDirectoryExclusive:
    def test_sole_reader_granted_exclusive(self):
        d = Directory(4, 32, grant_exclusive=True)
        out = DirOut(*d.fetch_raw(1, 0, 0, False, 0))
        assert out.exclusive
        assert d.owner[0] == 1

    def test_second_reader_not_exclusive(self):
        d = Directory(4, 32, grant_exclusive=True)
        d.fetch_raw(1, 0, 0, False, 0)
        out = DirOut(*d.fetch_raw(2, 0, 0, False, 0))
        assert not out.exclusive
        assert out.forwarded  # E owner supplies the data
        assert d.owner[0] == -1  # demoted to shared

    def test_msi_never_grants_exclusive(self):
        d = Directory(4, 32, grant_exclusive=False)
        out = DirOut(*d.fetch_raw(1, 0, 0, False, 0))
        assert not out.exclusive
        assert d.owner[0] == -1

    def test_exclusive_then_remote_write_invalidates(self):
        d = Directory(4, 32, grant_exclusive=True)
        d.fetch_raw(1, 0, 0, False, 0)
        out = DirOut(*d.fetch_raw(2, 0, 0, True, 0))
        assert out.invalidations == (1,)
        assert d.owner[0] == 2

    def test_swmr_preserved_under_mesi(self):
        d = Directory(4, 32, grant_exclusive=True)
        d.fetch_raw(1, 0, 0, False, 0)     # E at 1
        d.fetch_raw(2, 0, 0, False, 0)     # S at 1,2
        assert sorted(d.sharers(0)) == [1, 2]
        d.fetch_raw(3, 0, 0, True, 0)      # M at 3
        assert d.sharers(0) == [3]


class TestConfig:
    def test_protocol_validated(self):
        with pytest.raises(ValueError):
            SystemConfig(protocol="moesi")

    def test_default_is_msi(self):
        assert SystemConfig().protocol == "msi"


class TestEndToEnd:
    def test_mesi_eliminates_private_upgrades(self):
        wl = get_workload("ocean", 0.25)
        results = {}
        for proto in ("msi", "mesi"):
            cfg = SystemConfig(n_nodes=wl.n_nodes, memory_pressure=0.5,
                               protocol=proto)
            results[proto] = simulate(wl, scaled_policy("CCNUMA"),
                                      cfg).aggregate()
        assert results["mesi"].upgrades < results["msi"].upgrades / 2
        assert results["mesi"].total_cycles() <= results["msi"].total_cycles()

    def test_mesi_does_not_change_miss_classification(self):
        wl = get_workload("fft", 0.25)
        totals = {}
        for proto in ("msi", "mesi"):
            cfg = SystemConfig(n_nodes=wl.n_nodes, memory_pressure=0.5,
                               protocol=proto)
            agg = simulate(wl, scaled_policy("ASCOMA"), cfg).aggregate()
            totals[proto] = agg.shared_misses()
        assert totals["mesi"] == pytest.approx(totals["msi"], rel=0.05)

    @pytest.mark.parametrize("arch", ["CCNUMA", "ASCOMA", "SCOMA"])
    def test_coherence_audit_holds_under_mesi(self, arch):
        from repro.workloads import synthetic
        wl = synthetic.generate(n_nodes=4, home_pages_per_node=6,
                                remote_pages_per_node=8, sweeps=4,
                                write_fraction=0.3, home_lines_per_sweep=32,
                                seed=9)
        cfg = SystemConfig(n_nodes=4, memory_pressure=0.5, protocol="mesi")
        from repro.core import make_policy
        kwargs = {"ASCOMA": dict(threshold=8, increment=4)}.get(arch, {})
        engine = Engine(wl, make_policy(arch, **kwargs), cfg)
        engine.run()
        assert check_cache_reachability(engine.machine) == []
