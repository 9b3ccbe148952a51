"""Shared fixtures: small configs, machines and workloads for fast tests."""

from __future__ import annotations

from collections import namedtuple

import pytest

from repro.core import make_policy
from repro.mem.address import AddressMap
from repro.sim.config import SystemConfig
from repro.sim.trace import TraceBuilder, WorkloadTraces
from repro.workloads.base import SyntheticGenerator, WorkloadSpec


#: The outcome tuple of ``Directory.fetch_raw`` (and the second item of
#: ``CoherenceProtocol.remote_fetch_raw``/``local_fetch_raw``), by name.
DirOut = namedtuple("DirOut", "refetch forwarded invalidations"
                              " relocation_hint prev_owner exclusive")

#: Machine variants the replay kernel takes as params (P_RAC_VICTIM,
#: P_RAC_MASK, P_GRANT_EX, P_STALL_INV, zero occupancies), by name: one
#: departure from the paper's machine each, plus a victim RAC of four
#: entries.
MACHINE_VARIANTS = {
    "victim_rac": {"rac_fill_policy": "victim"},
    "mesi": {"protocol": "mesi"},
    "rc": {"consistency": "rc"},
    "rac_4": {"rac_entries": 4},
    "no_contention": {"model_contention": False},
    "victim_rac_4": {"rac_fill_policy": "victim", "rac_entries": 4},
}


@pytest.fixture(autouse=True)
def isolated_store_dir(tmp_path, monkeypatch):
    """Point the CLI's default result store at a per-test directory.

    Keeps tests from writing into (or reading stale results out of)
    the repo-level ``results/store`` cache.
    """
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
    return tmp_path / "store"


@pytest.fixture(autouse=True)
def isolated_trace_dir(tmp_path, monkeypatch):
    """Same isolation for the workload trace cache (``results/traces``).

    Also drops the per-process trace memo around each test so no test
    observes traces another test's store resolved.
    """
    from repro.runtime.tracecache import clear_trace_memo

    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "traces"))
    clear_trace_memo()
    yield tmp_path / "traces"
    clear_trace_memo()


@pytest.fixture(autouse=True)
def isolated_obs_dir(tmp_path, monkeypatch):
    """Same isolation for run telemetry (``results/obs``)."""
    monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path / "obs"))
    return tmp_path / "obs"


@pytest.fixture
def amap() -> AddressMap:
    return AddressMap()


@pytest.fixture
def config() -> SystemConfig:
    """4-node config with contention off for deterministic latencies."""
    return SystemConfig(n_nodes=4, memory_pressure=0.5,
                        model_contention=False)


@pytest.fixture
def config8() -> SystemConfig:
    return SystemConfig(n_nodes=8, memory_pressure=0.5)


def make_micro_workload(n_nodes: int = 2, lines: int = 8,
                        home_pages: int = 2) -> WorkloadTraces:
    """Tiny hand-built workload: each node touches its own home pages,
    then node 1 reads node 0's first page."""
    amap = AddressMap()
    lpp = amap.lines_per_page
    traces = []
    for node in range(n_nodes):
        b = TraceBuilder()
        first = node * home_pages
        for page in range(first, first + home_pages):
            b.read(page * lpp)
        b.barrier(0)
        if node == 1:
            for line in range(lines):
                b.read(line)  # page 0, homed at node 0
        b.compute(10)
        b.barrier(1)
        traces.append(b.build())
    return WorkloadTraces("micro", traces, home_pages_per_node=home_pages,
                          total_shared_pages=n_nodes * home_pages)


@pytest.fixture
def micro_workload() -> WorkloadTraces:
    return make_micro_workload()


def tiny_spec(**overrides) -> WorkloadSpec:
    params = dict(
        name="tiny", n_nodes=4, home_pages_per_node=8,
        remote_pages_per_node=12, hot_fraction=0.75, sweeps=4,
        lines_per_visit=8, write_fraction=0.2, compute_per_ref=2.0,
        local_cycles_per_sweep=100, home_lines_per_sweep=32,
        line_repeats=1, seed=11,
    )
    params.update(overrides)
    return WorkloadSpec(**params)


@pytest.fixture
def tiny_workload() -> WorkloadTraces:
    return SyntheticGenerator(tiny_spec()).generate()


@pytest.fixture(params=["CCNUMA", "SCOMA", "RNUMA", "VCNUMA", "ASCOMA"])
def any_policy(request):
    kwargs = {
        "RNUMA": dict(threshold=8),
        "VCNUMA": dict(threshold=8, break_even=4, increment=4),
        "ASCOMA": dict(threshold=8, increment=4),
    }.get(request.param, {})
    return make_policy(request.param, **kwargs)
