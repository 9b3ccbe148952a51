"""Canonical experiment definitions and the run matrix.

The paper simulates 5 architectures x 6 applications x memory pressures
10-90% (Section 5, Figures 2-3).  This module pins down the exact runs
our benches regenerate and the *scaled* policy parameters they use.

Parameter scaling
-----------------
The paper's workloads execute hundreds of millions of references; ours
are scaled down ~100x so a full matrix runs in minutes.  The relocation
machinery must scale with them: a hot page in our traces receives ~10x
fewer refetches per sweep than in the paper's, so the experiments use a
threshold of 16 (vs the paper's 64), an increment of 8 (vs 32), and a
break-even of 8 (vs 32), preserving the *ratios* between the constants.
The paper-faithful values remain the policy-class defaults; DESIGN.md
discusses the substitution.
"""

from __future__ import annotations

from ..core import canonical_arch, make_policy
from ..runtime import RunFailure, RunSpec, execute, fetch_traces
from ..sim.stats import RunResult
from ..sim.trace import WorkloadTraces

__all__ = [
    "ARCHITECTURES", "APP_PRESSURES", "SCALED_POLICY_KWARGS", "DEFAULT_SCALE",
    "scaled_policy", "get_workload", "run_app", "run_pressure_sweep",
    "sweep_specs",
]

#: Evaluation order used throughout the paper's charts.
ARCHITECTURES = ("CCNUMA", "SCOMA", "RNUMA", "VCNUMA", "ASCOMA")

#: Default workload scale for experiments (see module docstring).
DEFAULT_SCALE = 0.5

#: Memory pressures simulated per application, following the paper's
#: figures: barnes is not run above 70% (Section 5.2 footnote: too few
#: free pages for meaningful statistics), radix includes the low-side
#: 30% point where pure S-COMA already collapses.
APP_PRESSURES = {
    "barnes": (0.1, 0.3, 0.5, 0.7),
    "em3d": (0.1, 0.5, 0.7, 0.9),
    "fft": (0.1, 0.7, 0.9),
    "lu": (0.1, 0.7, 0.9),
    "ocean": (0.1, 0.7, 0.9),
    "radix": (0.1, 0.3, 0.7, 0.9),
}

#: Scaled relocation parameters (paper values / 4, see module docstring).
SCALED_POLICY_KWARGS = {
    "CCNUMA": {},
    "CCNUMAMIG": {"threshold": 16},
    "SCOMA": {},
    "RNUMA": {"threshold": 16},
    "VCNUMA": {"threshold": 16, "break_even": 8, "increment": 8},
    "ASCOMA": {"threshold": 16, "increment": 8},
}


def scaled_policy(arch: str, **overrides):
    """Policy instance with the experiment-scaled parameters."""
    kwargs = dict(SCALED_POLICY_KWARGS.get(canonical_arch(arch), {}))
    kwargs.update(overrides)
    return make_policy(arch, **kwargs)  # unknown names rejected here


def get_workload(app: str, scale: float = DEFAULT_SCALE) -> WorkloadTraces:
    """One of the paper's workloads, through the trace cache: the
    per-process memo, the ambient trace store, then generation (see
    :func:`~repro.runtime.tracecache.fetch_traces`)."""
    return fetch_traces(app, scale)


def sweep_specs(app: str, archs=ARCHITECTURES, pressures=None,
                scale: float = DEFAULT_SCALE, quantum: int | None = None,
                sample=None) -> dict:
    """One application's sweep cells as ``{(arch, pressure): RunSpec}``.

    CC-NUMA is pressure-insensitive, so the paper plots a single bar
    for it: one cell under ``("CCNUMA", None)``, at the lowest pressure.
    Every other architecture in *archs* gets one cell per pressure.
    *quantum* and *sample* apply to every cell (see :func:`run_app`).
    """
    pressures = pressures or APP_PRESSURES.get(app)
    if pressures is None:
        raise ValueError(f"unknown application {app!r};"
                         f" choose from {sorted(APP_PRESSURES)}")

    def cell(arch: str, pressure: float) -> RunSpec:
        return RunSpec.make(app, arch, pressure, scale, quantum=quantum,
                            sample=sample)

    cells = {("CCNUMA", None): cell("CCNUMA", pressures[0])}
    for arch in archs:
        if arch != "CCNUMA":
            for pressure in pressures:
                cells[(arch, pressure)] = cell(arch, pressure)
    return cells


def resolve_cells(specs, check: bool = False) -> dict:
    """``{spec: RunResult}`` from one :func:`~repro.runtime.execute` call.

    How the harness runs its cells: deduped, through the ambient store,
    pooled over the CPUs (inline for one cell).  The first failed cell
    in *specs* order raises :class:`ValueError` naming it: a figure
    cannot be drawn around a missing cell.
    """
    specs = list(specs)
    results = execute(specs, check=check)
    for spec in specs:
        if isinstance(results[spec], RunFailure):
            raise ValueError(results[spec].label())
    return results


def run_app(app: str, arch: str, pressure: float,
            scale: float = DEFAULT_SCALE, check: bool = False,
            quantum: int | None = None, sample=None,
            **policy_overrides) -> RunResult:
    """One cell of the evaluation matrix.

    A one-cell :func:`resolve_cells`: with an ambient
    :class:`~repro.runtime.store.RunStore` installed (the CLI installs
    one by default), repeated cells are served from disk instead of
    re-simulated; without one (the library/test default) this is a
    plain simulation.  A failed store write keeps the result and warns
    once.  ``check=True`` attaches the online invariant checker and bypasses
    the store (see ``docs/invariants.md``).
    ``quantum`` overrides the engine's scheduling quantum; it is part
    of the spec, so distinct quanta occupy distinct store entries.
    ``sample`` (a :class:`~repro.workloads.sample.SampleSpec`, dict or
    ``None``) replays the deterministically sampled workload instead of
    the full trace; like *quantum* it is part of the spec, so sampled
    and full cells never share a store entry.
    """
    spec = RunSpec.make(app, arch, pressure, scale,
                        policy_overrides=policy_overrides, quantum=quantum,
                        sample=sample)
    return resolve_cells([spec], check=check)[spec]


def run_pressure_sweep(app: str, archs=ARCHITECTURES, pressures=None,
                       scale: float = DEFAULT_SCALE) -> dict:
    """All (arch, pressure) runs for one application, in one execute call.

    Returns ``{(arch, pressure): RunResult}`` plus the CC-NUMA baseline
    under key ``("CCNUMA", None)`` (see :func:`sweep_specs`).
    """
    cells = sweep_specs(app, archs, pressures, scale)
    results = resolve_cells(cells.values())
    return {key: results[spec] for key, spec in cells.items()}
