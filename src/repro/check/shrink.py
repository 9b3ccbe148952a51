"""Delta-debugging trace shrinker.

A violation bundle (:class:`~repro.check.bundle.ReproBundle`) replays a
failure deterministically but the trace may hold millions of events;
the shrinker produces the smallest trace it can that still triggers the
*same invariant*.  Three passes, coarse to fine:

1. **Phase removal** -- a barrier-delimited phase is removed from every
   node at once (the engine requires equal barrier counts per node), so
   whole program phases unrelated to the failure drop in a few runs.
2. **ddmin** -- Zeller's minimising delta debugging over the remaining
   non-barrier events, removing exponentially shrinking complements.
3. **Greedy pass** -- one attempt to delete each surviving non-barrier
   event individually, catching stragglers ddmin's partitioning missed.

Barriers themselves are only removed with their phase, keeping the
per-node barrier structure consistent; a run that raises instead of
reporting the target violation counts as *not* reproducing (the goal
is the same failure, not any failure).
"""

from __future__ import annotations

import math

import numpy as np

from ..sim.engine import Engine
from ..sim.trace import EV_BARRIER, Trace, WorkloadTraces
from .bundle import ReproBundle
from .checker import InvariantChecker

__all__ = ["TraceShrinker", "shrink_bundle"]

#: One node's trace as a mutable list of (kind, arg) pairs.
EventLists = "list[list[tuple[int, int]]]"


def _to_lists(workload: WorkloadTraces) -> list[list[tuple[int, int]]]:
    return [[(int(k), int(a)) for k, a in zip(t.kinds.tolist(),
                                              t.args.tolist())]
            for t in workload.traces]


def _to_workload(lists: list[list[tuple[int, int]]],
                 template: WorkloadTraces) -> WorkloadTraces:
    traces = []
    for events in lists:
        kinds = np.array([k for k, _ in events], dtype=np.uint8)
        args = np.array([a for _, a in events], dtype=np.int64)
        traces.append(Trace(kinds, args))
    return WorkloadTraces(template.name + "-shrunk", traces,
                          template.home_pages_per_node,
                          template.total_shared_pages,
                          params=dict(template.params))


class TraceShrinker:
    """Minimise a bundle's workload while preserving its violation."""

    def __init__(self, bundle: ReproBundle,
                 target_invariant: str | None = None,
                 max_runs: int = 2000) -> None:
        self.bundle = bundle
        if target_invariant is None and bundle.violations:
            target_invariant = bundle.violations[0].invariant
        #: Invariant name the shrunk trace must still violate; None
        #: accepts any violation.
        self.target_invariant = target_invariant
        self.max_runs = max_runs
        self.runs = 0

    # ------------------------------------------------------------------
    def _fails(self, lists: list[list[tuple[int, int]]]) -> bool:
        """Does this candidate still trigger the target invariant?"""
        if self.runs >= self.max_runs:
            return False
        self.runs += 1
        try:
            workload = _to_workload(lists, self.bundle.workload)
            engine = Engine(workload, self.bundle.make_policy(),
                            config=self.bundle.config,
                            quantum=self.bundle.quantum)
            checker = InvariantChecker.attach(engine, granularity="event")
            engine.run()
        except Exception:
            # A crash is a different failure; keep hunting the original.
            return False
        if self.target_invariant is None:
            return bool(checker.violations)
        return any(v.invariant == self.target_invariant
                   for v in checker.violations)

    # ------------------------------------------------------------------
    def minimise(self) -> WorkloadTraces:
        lists = _to_lists(self.bundle.workload)
        if not self._fails(lists):
            raise ValueError(
                "bundle does not reproduce its violation"
                f" (target invariant: {self.target_invariant!r})")
        lists = self._drop_phases(lists)
        lists = self._ddmin(lists)
        lists = self._greedy(lists)
        return _to_workload(lists, self.bundle.workload)

    # -- pass 1: barrier-delimited phase removal ------------------------
    @staticmethod
    def _split_phases(events: list[tuple[int, int]]
                      ) -> list[list[tuple[int, int]]]:
        """Segments, each ending with its barrier (tail has none)."""
        phases: list[list[tuple[int, int]]] = [[]]
        for ev in events:
            phases[-1].append(ev)
            if ev[0] == EV_BARRIER:
                phases.append([])
        return phases

    def _drop_phases(self, lists):
        phased = [self._split_phases(events) for events in lists]
        n_phases = len(phased[0])
        k = n_phases - 1
        while k >= 0 and self.runs < self.max_runs:
            if any(phased[i][k] for i in range(len(phased))):
                candidate = [
                    [ev for j, phase in enumerate(node_phases) if j != k
                     for ev in phase]
                    for node_phases in phased
                ]
                if self._fails(candidate):
                    for node_phases in phased:
                        node_phases[k] = []
            k -= 1
        return [[ev for phase in node_phases for ev in phase]
                for node_phases in phased]

    # -- pass 2: ddmin over non-barrier events --------------------------
    @staticmethod
    def _removable(lists) -> list[tuple[int, int]]:
        return [(i, j) for i, events in enumerate(lists)
                for j, ev in enumerate(events) if ev[0] != EV_BARRIER]

    @staticmethod
    def _without(lists, drop: list[tuple[int, int]]):
        dropped = set(drop)
        return [[ev for j, ev in enumerate(events) if (i, j) not in dropped]
                for i, events in enumerate(lists)]

    def _ddmin(self, lists):
        items = self._removable(lists)
        n = 2
        while len(items) >= 2 and self.runs < self.max_runs:
            chunk = math.ceil(len(items) / n)
            reduced = False
            for start in range(0, len(items), chunk):
                subset = items[start:start + chunk]
                candidate = self._without(lists, subset)
                if self._fails(candidate):
                    lists = candidate
                    items = self._removable(lists)
                    n = max(2, n - 1)
                    reduced = True
                    break
            if not reduced:
                if n >= len(items):
                    break
                n = min(len(items), 2 * n)
        return lists

    # -- pass 3: greedy single-event deletions --------------------------
    def _greedy(self, lists):
        for i, j in reversed(self._removable(lists)):
            if self.runs >= self.max_runs:
                break
            candidate = self._without(lists, [(i, j)])
            if self._fails(candidate):
                lists = candidate
        return lists


def shrink_bundle(bundle: ReproBundle, target_invariant: str | None = None,
                  max_runs: int = 2000) -> WorkloadTraces:
    """Convenience wrapper: minimise *bundle*'s workload."""
    return TraceShrinker(bundle, target_invariant, max_runs).minimise()
