"""The paper's evaluation matrix as a list of cells.

The full Figure 2/3 matrix is ~90 independent simulations.
:func:`matrix_specs` names them as canonical
:class:`~repro.runtime.spec.RunSpec` values; the runtime executor
(:func:`repro.runtime.execute`) fans them out over a process pool,
dedupes, stores each cell as it finishes and resumes from the store::

    from repro.harness.parallel import matrix_specs
    from repro.runtime import execute
    results = execute(matrix_specs(("em3d",), scale=0.5))

The CLI's ``matrix`` command is this call plus progress and a report.
"""

from __future__ import annotations

from ..runtime import RunSpec
from .experiment import APP_PRESSURES, sweep_specs

__all__ = ["matrix_specs"]


def matrix_specs(apps=None, scale: float = 0.5,
                 quantum: int | None = None, sample=None) -> list[RunSpec]:
    """Every spec of the paper's evaluation matrix.

    Each app's :func:`~repro.harness.experiment.sweep_specs`, in app
    order: CC-NUMA once per app (pressure-insensitive, simulated at
    the app's lowest pressure), the other architectures once per
    (app, pressure) point.  A non-default *quantum* applies to every
    cell and keys distinct store entries (quantum changes event
    interleaving, so cached results must not be shared across quanta).
    *sample* (SampleSpec/dict/None) likewise applies to every cell:
    sampled matrices replay reduced traces and occupy their own store
    entries (see :mod:`repro.workloads.sample`).
    """
    return [spec for app in apps or tuple(APP_PRESSURES)
            for spec in sweep_specs(app, scale=scale, quantum=quantum,
                                    sample=sample).values()]
