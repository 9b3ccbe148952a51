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

#: The pressure range a search covers, and the width it bisects down to.
LO, HI, TOL = 0.05, 0.95, 0.02


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


def find_crossover(app: str, arch: str, lo: float = LO, hi: float = HI,
                   tol: float = TOL, scale: float = DEFAULT_SCALE,
                   threshold: float = 1.0) -> float | None:
    """Bisect for the lowest pressure where *arch* stops beating CC-NUMA.

    Returns None when the architecture never crosses in [lo, hi] --
    either it always wins (AS-COMA on lu) or never does.  The baseline
    and both endpoints resolve in one call, then one cell per
    bisection step.
    """
    return _bisect(app, arch, _total_cycles(_endpoints(app, arch, lo, hi,
                                                       scale)),
                   lo, hi, tol, scale, threshold)


def _endpoints(app: str, arch: str, lo: float, hi: float,
               scale: float) -> list:
    """The three cells a search starts from: baseline, *lo* and *hi*."""
    return [_baseline(app, scale), RunSpec(app, arch, lo, scale),
            RunSpec(app, arch, hi, scale)]


def _bisect(app: str, arch: str, totals: list, lo: float, hi: float,
            tol: float, scale: float, threshold: float) -> float | None:
    """:func:`find_crossover` given its endpoints' total cycles."""
    base, total_lo, total_hi = totals
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
    """Crossover pressure vs ideal pressure for a set of apps.

    Every search's baseline and endpoints resolve in one call, over one
    pool; each search then bisects as :func:`find_crossover` does.
    """
    ideals = {app: get_workload(app, scale).params["spec"]["ideal_pressure"]
              for app in apps}
    searches = [(app, arch) for app in apps for arch in archs]
    totals = _total_cycles([spec for app, arch in searches
                            for spec in _endpoints(app, arch, LO, HI, scale)])
    rows = []
    for i, (app, arch) in enumerate(searches):
        crossover = _bisect(app, arch, totals[3 * i:3 * i + 3], LO, HI, TOL,
                            scale, 1.0)
        rows.append({
            "app": app,
            "arch": arch,
            "ideal_pressure": round(ideals[app], 2),
            "crossover_pressure": (round(crossover, 2)
                                   if crossover is not None else None),
        })
    return rows
