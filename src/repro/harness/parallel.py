"""Parallel execution of the evaluation matrix.

The full Figure 2/3 matrix is ~100 independent simulations; this module
fans them out over a process pool via the runtime executor
(:mod:`repro.runtime.executor`).  Cells are canonical
:class:`~repro.runtime.spec.RunSpec` values — the legacy
``(app, arch, pressure, scale)`` tuple API is kept as a thin adapter —
and workers resolve workloads through the trace cache
(:mod:`repro.runtime.tracecache`): forked workers inherit the parent's
pre-warmed traces, spawn workers hit the on-disk store, and only a
cold cache pays for deterministic regeneration (shipping traces
through pickle would cost more than either).

Executor guarantees inherited here: duplicate cells are simulated once
and fanned back out; a failing cell comes back as a
:class:`~repro.runtime.spec.RunFailure` naming its spec instead of
killing the pool; with a store attached, already-computed cells resume
from disk.

The CLI's ``matrix`` builds its cells with :func:`matrix_specs` and
hands them to :func:`~repro.runtime.executor.execute` itself;
:func:`run_cells` and :func:`run_matrix_parallel` are library calls
for large parameter studies::

    from repro.harness.parallel import run_cells
    results = run_cells([("em3d", "ASCOMA", p, 0.5)
                         for p in (0.1, 0.3, 0.5, 0.7, 0.9)])
"""

from __future__ import annotations

from ..runtime import RunFailure, RunSpec, execute
from ..sim.stats import RunResult

__all__ = ["run_cell", "run_cells", "run_matrix_parallel", "matrix_specs"]


def run_cell(cell: tuple) -> RunResult:
    """One (app, arch, pressure, scale) simulation; exceptions propagate."""
    return RunSpec.from_cell(cell).execute()


def run_cells(cells: list[tuple], max_workers: int | None = None,
              parallel: bool = True, *, store=None,
              refresh: bool | None = None, retries: int = 0,
              progress=None) -> dict[tuple, RunResult | RunFailure]:
    """Run many matrix cells, in parallel by default.

    Returns ``{cell: RunResult | RunFailure}`` with one entry per input
    cell — duplicates are simulated once and fanned back out.
    ``parallel=False`` runs inline (deterministic single-process path
    for tests and debugging); *store*/*refresh*/*retries*/*progress*
    pass straight through to :func:`repro.runtime.execute`.
    """
    cells = list(cells)
    specs = [RunSpec.from_cell(cell) for cell in cells]
    outcomes = execute(specs, store=store, refresh=refresh,
                       parallel=parallel, max_workers=max_workers,
                       retries=retries, progress=progress)
    return {cell: outcomes[spec] for cell, spec in zip(cells, specs)}


def matrix_specs(apps=None, scale: float = 0.5,
                 quantum: int | None = None, sample=None) -> list[RunSpec]:
    """Every spec of the paper's evaluation matrix.

    CC-NUMA appears once per app (pressure-insensitive, simulated at
    the app's lowest pressure), the other architectures once per
    (app, pressure) point.  A non-default *quantum* applies to every
    cell and keys distinct store entries (quantum changes event
    interleaving, so cached results must not be shared across quanta).
    *sample* (SampleSpec/dict/None) likewise applies to every cell:
    sampled matrices replay reduced traces and occupy their own store
    entries (see :mod:`repro.workloads.sample`).
    """
    from .experiment import APP_PRESSURES, ARCHITECTURES
    apps = apps or tuple(APP_PRESSURES)
    specs = []
    for app in apps:
        pressures = APP_PRESSURES[app]
        specs.append(RunSpec.make(app, "CCNUMA", pressures[0], scale,
                                  quantum=quantum, sample=sample))
        for arch in ARCHITECTURES:
            if arch == "CCNUMA":
                continue
            for pressure in pressures:
                specs.append(RunSpec.make(app, arch, pressure, scale,
                                          quantum=quantum, sample=sample))
    return specs


def run_matrix_parallel(apps=None, scale: float = 0.5,
                        max_workers: int | None = None, *, store=None,
                        refresh: bool | None = None, retries: int = 0,
                        progress=None, strict: bool = True,
                        quantum: int | None = None, sample=None) -> dict:
    """The paper's whole matrix, fanned out: {app: {(arch, p): result}}.

    CC-NUMA runs once per app (pressure-insensitive) under the key
    ``("CCNUMA", None)``, as in
    :func:`repro.harness.experiment.run_pressure_sweep`.  A non-default
    *quantum* reaches every cell (the CLI's ``--quantum``).  With
    ``strict=True`` (default) any failed cell raises a RuntimeError
    naming the failing specs; ``strict=False`` instead includes the
    :class:`RunFailure` objects in the mapping for the caller to
    inspect.
    """
    from .experiment import APP_PRESSURES
    apps = apps or tuple(APP_PRESSURES)
    specs = matrix_specs(apps, scale, quantum=quantum, sample=sample)
    outcomes = execute(specs, store=store, refresh=refresh,
                       max_workers=max_workers, retries=retries,
                       progress=progress)
    failures = [o for o in outcomes.values() if isinstance(o, RunFailure)]
    if failures and strict:
        names = ", ".join(f.label() for f in failures)
        raise RuntimeError(f"{len(failures)} matrix cell(s) failed: {names}")
    out: dict = {app: {} for app in apps}
    for spec, outcome in outcomes.items():
        key = (("CCNUMA", None) if spec.arch == "CCNUMA"
               else (spec.arch, spec.pressure))
        out[spec.app][key] = outcome
    return out
