"""Crossover-pressure analysis: where does an architecture stop winning?

Ties Table 5 to Figures 2-3: the paper's *ideal pressure* (H/(H+Rmax))
is the analytic point below which S-COMA never evicts; the *crossover
pressure* found here is the measured point where an architecture's
execution time crosses CC-NUMA's.  For pure S-COMA the crossover must
sit at or above the ideal pressure (it keeps winning until the page
cache stops covering the working set, then collapses); for AS-COMA
there should be no crossover at all on most applications.

``find_crossover`` runs a bisection over memory pressure, exploiting
that relative time is monotone in pressure for the cache-dependent
architectures.
"""

from __future__ import annotations

from ..runtime import RunSpec
from .experiment import DEFAULT_SCALE, get_workload, resolve_cells

__all__ = ["relative_time_at", "find_crossover", "crossover_report"]


def _total_cycles(specs: list) -> list:
    """Each cell's total cycles, the cells resolved in one execute call."""
    results = resolve_cells(specs)
    return [results[spec].aggregate().total_cycles() for spec in specs]


def _baseline(app: str, scale: float) -> RunSpec:
    """The CC-NUMA cell relative times divide by."""
    return RunSpec(app, "CCNUMA", 0.5, scale)


def relative_time_at(app: str, arch: str, pressure: float,
                     scale: float = DEFAULT_SCALE) -> float:
    """Execution time of (app, arch, pressure) relative to CC-NUMA.

    The baseline resolves with the cell, through the ambient store.
    """
    base, total = _total_cycles([_baseline(app, scale),
                                 RunSpec(app, arch, pressure, scale)])
    return total / base


def find_crossover(app: str, arch: str, lo: float = 0.05, hi: float = 0.95,
                   tol: float = 0.02, scale: float = DEFAULT_SCALE,
                   threshold: float = 1.0) -> float | None:
    """Bisect for the lowest pressure where *arch* stops beating CC-NUMA.

    Returns None when the architecture never crosses in [lo, hi] --
    either it always wins (AS-COMA on lu) or never does.  The baseline
    and both endpoints resolve in one call, then one cell per
    bisection step.
    """
    base, total_lo, total_hi = _total_cycles([
        _baseline(app, scale), RunSpec(app, arch, lo, scale),
        RunSpec(app, arch, hi, scale)])
    rel_lo, rel_hi = total_lo / base, total_hi / base
    if rel_lo >= threshold:
        return lo if rel_hi >= threshold else None
    if rel_hi < threshold:
        return None
    while hi - lo > tol:
        mid = (lo + hi) / 2
        (total,) = _total_cycles([RunSpec(app, arch, mid, scale)])
        if total / base >= threshold:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def crossover_report(apps=("em3d", "radix", "fft"),
                     archs=("SCOMA", "RNUMA", "ASCOMA"),
                     scale: float = DEFAULT_SCALE) -> list[dict]:
    """Crossover pressure vs ideal pressure for a set of apps."""
    rows = []
    for app in apps:
        workload = get_workload(app, scale)
        ideal = workload.params["spec"]["ideal_pressure"]
        for arch in archs:
            crossover = find_crossover(app, arch, scale=scale)
            rows.append({
                "app": app,
                "arch": arch,
                "ideal_pressure": round(ideal, 2),
                "crossover_pressure": (round(crossover, 2)
                                       if crossover is not None else None),
            })
    return rows
