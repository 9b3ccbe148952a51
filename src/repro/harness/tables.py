"""Regenerators for the paper's Tables 1-6.

Tables 1-3 are analytic/configuration artifacts; Tables 4-6 are
*measured* from the simulator, exactly as the paper measured them from
Paint.  Every function returns structured rows; ``render_*`` helpers
produce the text form printed by the benches.
"""

from __future__ import annotations

from ..core import TABLE1_ROWS, TABLE2_ROWS, make_policy
from ..runtime import RunSpec
from ..sim.config import SystemConfig
from ..sim.engine import Engine
from ..sim.trace import TraceBuilder, WorkloadTraces
from .experiment import (APP_PRESSURES, DEFAULT_SCALE, get_workload,
                         resolve_cells)
from .report import format_table

__all__ = [
    "table1", "table2", "table3", "table4", "table5", "table6",
    "render_table1", "render_table2", "render_table3", "render_table4",
    "render_table5", "render_table6",
]


# ---------------------------------------------------------------------------
# Tables 1-3: analytic / configuration.
# ---------------------------------------------------------------------------

def table1() -> list[dict]:
    """Remote memory overhead of the various models (paper Table 1)."""
    return list(TABLE1_ROWS)


def table2() -> list[dict]:
    """Cost and complexity of the various models (paper Table 2)."""
    return list(TABLE2_ROWS)


def table3(config: SystemConfig | None = None) -> dict:
    """Cache and network characteristics (paper Table 3)."""
    return (config or SystemConfig()).describe()


# ---------------------------------------------------------------------------
# Table 4: minimum access latencies, measured through the engine.
# ---------------------------------------------------------------------------

def _micro_workload(lines_per_chunk: int, lines_per_page: int,
                    rac_lines: int) -> WorkloadTraces:
    """Two-node microbenchmark: node 0 homes one page and streams it;
    node 1 fetches it remotely, touching *rac_lines* extra lines per
    chunk (0 = pure remote misses, >0 = RAC hits too)."""
    b0 = TraceBuilder()
    b0.read(0)                       # first touch: page 0 homes at node 0
    for line in range(lines_per_page):
        b0.read(line)                # local-memory misses
    b0.barrier(0)
    b0.barrier(1)

    b1 = TraceBuilder()
    b1.compute(10)
    b1.barrier(0)
    step = lines_per_chunk
    for first in range(0, lines_per_page, step):
        for offset in range(1 + rac_lines):
            b1.read(first + offset)  # 1 remote fetch + rac_lines RAC hits
    b1.barrier(1)
    return WorkloadTraces("micro", [b0.build(), b1.build()],
                          home_pages_per_node=1, total_shared_pages=2)


def table4(config: SystemConfig | None = None) -> dict:
    """Minimum access latency per level (paper Table 4), measured.

    Runs two microbenchmarks with contention disabled and solves for the
    per-class service latencies from the engine's own accounting.
    """
    base = config or SystemConfig()
    cfg = SystemConfig(**{**base.__dict__, "n_nodes": 2,
                          "model_contention": False,
                          "memory_pressure": 0.5})
    amap = cfg.address_map()

    def run(rac_lines: int):
        wl = _micro_workload(amap.lines_per_chunk, amap.lines_per_page,
                             rac_lines)
        engine = Engine(wl, make_policy("ccnuma"), cfg)
        result = engine.run()
        return result.node_stats

    # Pure-remote run: every node-1 miss is a remote fetch.
    stats = run(rac_lines=0)
    n_remote = stats[1].COLD + stats[1].CONF_CAPC
    remote = stats[1].U_SH_MEM / max(1, n_remote)
    local = stats[0].U_SH_MEM / max(1, stats[0].HOME)

    # Mixed run: solve for the RAC hit latency.
    stats = run(rac_lines=1)
    n_remote2 = stats[1].COLD + stats[1].CONF_CAPC
    n_rac = stats[1].RAC
    rac = (stats[1].U_SH_MEM - n_remote2 * remote) / max(1, n_rac)

    return {
        "L1 Cache": float(cfg.l1_hit_cycles),
        "Local Memory": round(local, 1),
        "RAC": round(rac, 1),
        "Remote Memory": round(remote, 1),
        "remote_to_local_ratio": round(remote / local, 2),
    }


# ---------------------------------------------------------------------------
# Table 5: programs and problem sizes.
# ---------------------------------------------------------------------------

def table5(scale: float = DEFAULT_SCALE) -> list[dict]:
    """Home pages, max remote pages and ideal pressure per app (Table 5)."""
    rows = []
    for app in APP_PRESSURES:
        wl = get_workload(app, scale)
        lpp = SystemConfig(n_nodes=wl.n_nodes).address_map().lines_per_page
        h = wl.home_pages_per_node
        home_of = {p: p // h for p in range(wl.total_shared_pages)}
        max_remote = wl.max_remote_pages(lpp, home_of)
        rows.append({
            "program": app,
            "nodes": wl.n_nodes,
            "home_pages_per_node": h,
            "max_remote_pages": max_remote,
            "ideal_pressure": round(h / (h + max_remote), 2),
            "total_refs": wl.total_refs(),
        })
    return rows


# ---------------------------------------------------------------------------
# Table 6: remote pages ever accessed vs relocation-eligible pages.
# ---------------------------------------------------------------------------

def table6(scale: float = DEFAULT_SCALE, pressure: float = 0.1) -> list[dict]:
    """Total vs relocated remote pages at low pressure (paper Table 6).

    Reproduced the way the paper did: run R-NUMA at 10% memory pressure
    (every relocation request can be satisfied) and count, per node, the
    remote pages that crossed the refetch threshold.
    """
    cells = {app: RunSpec(app, "RNUMA", pressure, scale)
             for app in APP_PRESSURES}
    results = resolve_cells(cells.values())
    rows = []
    for app in APP_PRESSURES:
        wl = get_workload(app, scale)
        lpp = SystemConfig(n_nodes=wl.n_nodes).address_map().lines_per_page
        h = wl.home_pages_per_node
        home_of = {p: p // h for p in range(wl.total_shared_pages)}
        total_remote = sum(
            sum(1 for p in t.pages_touched(lpp) if home_of[p] != node)
            for node, t in enumerate(wl.traces))
        relocated = results[cells[app]].aggregate().relocations
        rows.append({
            "program": app,
            "total_remote_pages": total_remote,
            "relocated_pages": relocated,
            "pct_relocated": round(100 * relocated / max(1, total_remote), 1),
        })
    return rows


# ---------------------------------------------------------------------------
# Text renderers.
# ---------------------------------------------------------------------------

def render_table1() -> str:
    return format_table(
        ["Model", "Remote Overhead", "Performance Factors"],
        [[r["model"], r["remote_overhead"], ", ".join(r["performance_factors"])]
         for r in table1()],
        title="Table 1: Remote Memory Overhead of Various Models")


def render_table2() -> str:
    return format_table(
        ["Model", "Storage Cost", "Complexity"],
        [[r["model"], r["storage_cost"], r["complexity"]] for r in table2()],
        title="Table 2: Cost and Complexity of Various Models")


def render_table3(config: SystemConfig | None = None) -> str:
    return format_table(
        ["Component", "Characteristics"],
        list(table3(config).items()),
        title="Table 3: Cache and Network Characteristics")


def render_table4(config: SystemConfig | None = None) -> str:
    data = table4(config)
    ratio = data.pop("remote_to_local_ratio")
    out = format_table(["Data Location", "Latency (cycles)"],
                       list(data.items()),
                       title="Table 4: Minimum Access Latency (measured)")
    return out + f"\nremote:local ratio = {ratio}"


def render_table5(scale: float = DEFAULT_SCALE) -> str:
    return format_table(
        ["Program", "Nodes", "Home pages/node", "Max remote pages",
         "Ideal pressure", "Shared refs"],
        [[r["program"], r["nodes"], r["home_pages_per_node"],
          r["max_remote_pages"], r["ideal_pressure"], r["total_refs"]]
         for r in table5(scale)],
        title="Table 5: Programs and Problem Sizes Used in Experiments")


def render_table6(scale: float = DEFAULT_SCALE) -> str:
    return format_table(
        ["Program", "Total Remote Pages", "Relocated Pages", "% Relocated"],
        [[r["program"], r["total_remote_pages"], r["relocated_pages"],
          f'{r["pct_relocated"]}%'] for r in table6(scale)],
        title="Table 6: Remote Pages Ever Accessed vs Conflicted Frequently")
