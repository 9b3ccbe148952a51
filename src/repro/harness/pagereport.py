"""Hot-page report: which pages drove a run's page management.

After a simulation, the directory and the nodes hold enough state to
answer the questions an operator of such a machine would ask: which
pages accumulated relocation evidence, which ones ended up in whose
page cache, and which homes serve the most pages after migration.  The
CLI exposes this as ``python -m repro hotpages <app> <arch>``.
"""

from __future__ import annotations

import numpy as np

from ..kernel.vm import PageMode
from ..sim.engine import Engine
from .report import format_table

__all__ = ["hot_page_report", "render_hot_pages"]


def hot_page_report(engine: Engine, top: int = 10) -> dict:
    """Summarise page-management state after ``engine.run()``."""
    machine = engine.machine
    directory = machine.directory

    # Accumulated (and not-yet-consumed) refetch evidence per page.
    evidence = np.asarray(directory.refetch_count).reshape(
        -1, directory.n_nodes).sum(axis=1)
    pages = np.flatnonzero(evidence)
    hottest = sorted(zip(pages.tolist(), evidence[pages].tolist()),
                     key=lambda kv: -kv[1])[:top]

    totals = sum(np.bincount(np.asarray(node.page_table.mode),
                             minlength=len(PageMode))
                 for node in machine.nodes)
    modes = {mode.name: int(totals[mode]) for mode in PageMode
             if mode != PageMode.UNMAPPED}

    return {
        "hottest_pages": hottest,
        "cached_pages_per_node": {node.id: node.page_table.scoma_page_count()
                                  for node in machine.nodes},
        "mapping_mode_totals": modes,
        "relocation_hints": directory.relocation_hints,
        "total_refetches": directory.total_refetches,
        "home_counts": list(machine.allocator.count),
        "home_imbalance": machine.allocator.imbalance(),
    }


def render_hot_pages(engine: Engine, top: int = 10) -> str:
    report = hot_page_report(engine, top)
    lines = [format_table(
        ["Page", "Pending refetch evidence"],
        [[page, count] for page, count in report["hottest_pages"]],
        title="Hottest pages (unconsumed refetch counts)")]
    lines.append("")
    lines.append(format_table(
        ["Node", "S-COMA pages cached", "Home pages"],
        [[n, report["cached_pages_per_node"][n], report["home_counts"][n]]
         for n in sorted(report["cached_pages_per_node"])],
        title="Per-node page-cache / home occupancy"))
    modes = report["mapping_mode_totals"]
    lines.append(
        f"\nmappings: HOME {modes['HOME']}, SCOMA {modes['SCOMA']},"
        f" CCNUMA {modes['CCNUMA']};"
        f" hints {report['relocation_hints']},"
        f" refetches {report['total_refetches']},"
        f" home imbalance {report['home_imbalance']}")
    return "\n".join(lines)
