"""Per-cell cost model for matrix scheduling.

A matrix sweep's cells differ in cost by an order of magnitude: apps
differ ~10x in trace event count (ocean vs fft at equal scale), and
architectures differ up to ~1.6x in replay time per event.  Naive
FIFO dispatch therefore ends with one worker grinding a giant ocean
cell while the rest idle.  This module estimates each
:class:`~repro.runtime.spec.RunSpec`'s cost as

    ``trace event count  x  per-architecture weight``

and orders dispatch longest-first (LPT — longest processing time —
the classic 4/3-approximation for makespan on identical machines).
Chunked submission sizing lives here too, so pool IPC overhead and
tail latency are traded off in one place.

The architecture weights are *calibrated from measurement*, not
guessed, on the compiled replay kernel.  In-kernel events cost near
nothing, so a cell's time is dominated by how often it *exits* the
kernel to Python.  Page faults, first touches, relocation hints and
forced evictions all run in the kernel; what still exits is the
pageout daemon (and the faults and hints it falls due at), so pure
S-COMA, whose page cache the daemon works hardest, is the slow one per
event.  A host without a kernel replays on the reference loop, where
the architectures cost within a few percent of each other per event;
LPT only needs *ranks* to be right, event counts dominate those, and
the dispatch order never changes a result.
"""

from __future__ import annotations

from .spec import RunSpec, canonical_arch

__all__ = ["ARCH_WEIGHTS", "DEFAULT_ARCH_WEIGHT", "workload_events",
           "spec_cost", "lpt_order", "submit_chunksize"]

#: Relative per-event replay time through the kernel, ASCOMA = 1.0.
#: Method: every cell of the 90-cell matrix at scale 0.1
#: (``matrix_specs(scale=0.1)``) run through ``RunSpec.execute`` in one
#: process with warm traces, five repeats; an architecture's events/s
#: is its cells' total events over the sum of their median wall times,
#: and its weight is ASCOMA's events/s over its own (2-vCPU x86-64
#: Linux VM, Python 3.11: CCNUMA 19.9M, SCOMA 12.4M, RNUMA 17.0M,
#: VCNUMA 16.9M, ASCOMA 19.2M events/s; three more runs moved no
#: weight by more than 0.07).  Pure S-COMA's daemon runs and the faults
#: it falls due at still leave the kernel, so it costs the most.
ARCH_WEIGHTS = {
    "CCNUMA": 0.96,
    "SCOMA": 1.54,
    "RNUMA": 1.13,
    "VCNUMA": 1.13,
    "ASCOMA": 1.00,
}

#: Unknown architectures (tests, experiments) assume mid-pack cost.
DEFAULT_ARCH_WEIGHT = 1.10


def workload_events(app: str, scale: float, sample=None) -> int:
    """Total trace events of one workload (all nodes).

    Routed through :func:`~repro.runtime.tracecache.fetch_traces`, so
    asking for the count *is* the pre-warm: the parent process pays
    generation (or a cache hit) once, and forked pool workers inherit
    the in-memory traces for free.  With *sample* set, the count (and
    the pre-warm) is of the sampled workload — the one the cell will
    actually replay.
    """
    from .tracecache import fetch_traces

    return len(fetch_traces(app, scale, sample=sample).kinds)


def spec_cost(spec: RunSpec, events: int) -> float:
    """Estimated replay cost of one cell, in weighted events.

    *events* is the workload's total event count
    (:func:`workload_events`).
    """
    return events * ARCH_WEIGHTS.get(canonical_arch(spec.arch),
                                     DEFAULT_ARCH_WEIGHT)


def lpt_order(specs, events_of=None) -> list:
    """Specs sorted costliest-first (LPT dispatch order).

    *events_of* maps ``(app, scale, sample) -> event count``; missing
    entries (e.g. a spec whose workload failed to generate — it will
    fail identically in the worker, where the failure is isolated)
    cost 0 and sort last.  The sort is stable, so equal-cost cells keep
    their submission order and reruns dispatch identically.
    """
    events_of = events_of or {}

    def cost(spec: RunSpec) -> float:
        events = events_of.get((spec.app, spec.scale, spec.sample))
        return 0.0 if events is None else spec_cost(spec, events)

    return sorted(specs, key=cost, reverse=True)


def submit_chunksize(n_tasks: int, workers: int,
                     chunks_per_worker: int = 4) -> int:
    """Chunk size for ``pool.map``: fewer pickles, bounded imbalance.

    ``chunksize=1`` (the default) costs one IPC round-trip per cell; one
    giant chunk per worker forfeits the load balancing LPT set up.
    Giving each worker ~``chunks_per_worker`` chunks keeps per-cell IPC
    amortised while capping the imbalance any single chunk can cause at
    ~1/chunks_per_worker of a worker's share.
    """
    if workers <= 0:
        raise ValueError("workers must be positive")
    return max(1, n_tasks // (workers * chunks_per_worker))
