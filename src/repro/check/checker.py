"""Online invariant checker: an :class:`~repro.sim.events.EventBus`
observer that validates protocol and page-management behaviour while a
simulation runs.

Two kinds of checking compose:

* **Event-driven checks** run on *every* published event: a per-(node,
  page) shadow of the page-mode FSM validates each transition against
  the architecture policy's declarative surface (``initial_modes``,
  ``supports_relocation``, ``supports_migration``,
  ``allows_forced_eviction``), and AS-COMA's threshold backoff is
  checked for monotonicity between consecutive daemon runs
  (``daemon_backoff``).

* **Structural sweeps** (:data:`~repro.check.invariants.STRUCTURAL_CHECKS`)
  walk the whole machine state.  At the default ``"barrier"``
  granularity they run at barrier releases and at the end of the run;
  at ``"event"`` granularity they additionally run after every
  operation-completion event -- expensive, but it pins a violation to
  the precise transition that introduced it, which is what the failure
  replay wants.

Attach with :meth:`InvariantChecker.attach`, which subscribes to the
eight kinds the checker acts on (:attr:`InvariantChecker.KINDS`): the
six the event-driven checks read, plus barrier releases and the run's
end, where sweeps run.  Flushes, invalidations and demotions are
sub-operation events no check reads, so a checked run neither builds
nor delivers them.  The engine then reports ``invariant_violations``
in its :class:`~repro.sim.stats.RunResult`.  A ``barrier`` checker
watches the compiled kernel, the substrate of every default result: it
publishes each watched kind, in the reference loop's order, at its
next exit, and barrier releases and the run's end are exits.  An
``event`` checker's sweeps need the machine as it is at each publish,
in the middle of an access, so its runs replay on the reference loop.

The page-mode FSM reads rows (:mod:`repro.sim.events`' row encoding):
faults, S-COMA mappings, evictions and relocations are one stream,
checked by :meth:`InvariantChecker.check_rows`.  The kernel's ring hands
it each exit's rows of those kinds as one batch; the same kinds
published from Python (the reference loop, a fault at which the daemon
falls due, a daemon's evictions) enter it as one-row batches through
:meth:`~InvariantChecker.__call__`, so both loops check one stream in
one order.  Migrations and daemon runs, always published from Python,
are checked per event on the same shadow.
"""

from __future__ import annotations

from ..kernel.vm import PageMode
from ..sim.events import (EV_BARRIER, EV_DAEMON, EV_END, EV_EVICT, EV_FAULT,
                          EV_MAP_SCOMA, EV_MIGRATE, EV_RELOCATE, R_EVICT,
                          R_FAULT, R_MAP_SCOMA, event_row)
from .invariants import (_CCNUMA, _HOME, _SCOMA, _UNMAPPED,
                         STRUCTURAL_CHECKS, Violation)

__all__ = ["InvariantChecker", "GRANULARITIES"]

GRANULARITIES = ("event", "barrier")

_BARRIER_KINDS = (EV_BARRIER, EV_END)

#: The kinds the page-mode FSM checks as rows.
_ROW_CHECKED = frozenset((EV_FAULT, EV_MAP_SCOMA, EV_EVICT, EV_RELOCATE))


def _fsm(message: str, node: int, page: int, clock: int,
         invariant: str = "page-mode-fsm") -> Violation:
    """A violation the page-mode FSM found at one row."""
    return Violation(invariant, message, node=node, page=page, clock=clock)


class InvariantChecker:
    """Subscribes to a machine's event bus and accumulates violations."""

    #: Operation-completion events: machine state is consistent when
    #: these publish, so structural sweeps may run.  They are also every
    #: kind an event-driven check reads, so :meth:`attach` subscribes to
    #: them, and only them, at either granularity.  Sub-operation events
    #: (flush, invalidate, demote) fire mid-transaction and are excluded.
    KINDS = (EV_FAULT, EV_MAP_SCOMA, EV_EVICT, EV_RELOCATE, EV_DAEMON,
             EV_MIGRATE, EV_BARRIER, EV_END)

    def __init__(self, machine, policy, granularity: str = "barrier",
                 max_violations: int = 1000) -> None:
        if granularity not in GRANULARITIES:
            raise ValueError(f"granularity must be one of {GRANULARITIES}")
        self.machine = machine
        self.policy = policy
        self.granularity = granularity
        self.max_violations = max_violations
        self.violations: list[Violation] = []
        self.events_seen = 0
        self.sweeps_run = 0
        self._sweep_kinds = (self.KINDS if granularity == "event"
                             else _BARRIER_KINDS)
        #: (node, page) -> shadow PageMode (absent = never observed).
        self._shadow: dict[tuple[int, int], int] = {}
        #: node -> effective threshold reported by its last daemon run.
        self._last_threshold: dict[int, int] = {}

    # ------------------------------------------------------------------
    @classmethod
    def attach(cls, engine, granularity: str = "barrier",
               max_violations: int = 1000) -> "InvariantChecker":
        """Create a checker, subscribe it to the kinds it acts on
        (:attr:`KINDS`, whatever the granularity), and register it on
        *engine*."""
        checker = cls(engine.machine, engine.policy, granularity,
                      max_violations)
        engine.machine.events.subscribe(checker, cls.KINDS,
                                        rows=checker.check_rows)
        engine.checker = checker
        return checker

    def detach(self) -> None:
        self.machine.events.unsubscribe(self)

    def violation_count(self) -> int:
        return len(self.violations)

    def report(self) -> str:
        if not self.violations:
            return "no invariant violations"
        lines = [f"{len(self.violations)} invariant violation(s):"]
        lines += [f"  {v}" for v in self.violations]
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def __call__(self, event) -> None:
        """EventBus observer entry point.  A fault, S-COMA mapping,
        eviction or relocation enters :meth:`check_rows` as a one-row
        batch."""
        capped = len(self.violations) >= self.max_violations
        kind = event.kind
        if kind in _ROW_CHECKED:
            self.check_rows([event_row(event)])
        else:
            self.events_seen += 1
            if capped:
                return
            if kind == EV_MIGRATE:
                self._on_migrate(event)
            elif kind == EV_DAEMON:
                self._on_daemon(event)
        if not capped and kind in self._sweep_kinds:
            self.sweep(clock=event.clock)

    def sweep(self, clock: int = -1) -> list[Violation]:
        """Run every structural check now; returns the new violations."""
        self.sweeps_run += 1
        found = []
        for check in STRUCTURAL_CHECKS:
            for violation in check(self.machine):
                if violation.clock < 0:
                    violation.clock = clock
                found.append(violation)
        self.violations.extend(found)
        return found

    # -- event-driven checks -------------------------------------------
    def check_rows(self, rows) -> None:
        """The page-mode FSM over fault, S-COMA map, eviction and
        relocation rows (``[code, node, page, clock, a, b]``, see
        :mod:`repro.sim.events`), in order.  Checking stops at the row
        that finds the violation cap reached, as per-event delivery
        would."""
        self.events_seen += len(rows)
        violations = self.violations
        cap = self.max_violations
        shadow = self._shadow
        policy = self.policy
        name = policy.name
        initial = policy.initial_modes
        relocates = policy.supports_relocation
        evicted = _CCNUMA if policy.evict_to_ccnuma else _UNMAPPED
        for code, node, page, clock, a, b in rows:
            if len(violations) >= cap:
                return
            key = (node, page)
            if code == R_FAULT:
                # a: the mode the fault mapped, b: the page's home.
                if b == node:
                    if a != _HOME:
                        violations.append(_fsm(
                            f"fault on locally-homed page yielded"
                            f" {PageMode(a).name}, expected HOME",
                            node, page, clock))
                elif a not in initial:
                    legal = sorted(PageMode(m).name for m in initial)
                    violations.append(_fsm(
                        f"fault mapped remote page in {PageMode(a).name}"
                        f" mode; {name} allows {legal}", node, page, clock))
                prev = shadow.get(key, _UNMAPPED)
                if prev != _UNMAPPED and prev != a:
                    violations.append(_fsm(
                        f"fault on a page already in {PageMode(prev).name}"
                        " mode", node, page, clock))
                shadow[key] = a
            elif code == R_MAP_SCOMA:
                prev = shadow.get(key, _UNMAPPED)
                if prev == _CCNUMA:
                    if not relocates:
                        violations.append(_fsm(
                            f"CC-NUMA page upgraded to S-COMA but {name}"
                            " does not relocate", node, page, clock))
                elif prev == _UNMAPPED:
                    if _SCOMA not in initial:
                        violations.append(_fsm(
                            f"unmapped page mapped S-COMA but {name} never"
                            " starts in S-COMA", node, page, clock))
                else:
                    violations.append(_fsm(
                        f"S-COMA map of a page in {PageMode(prev).name}"
                        " mode", node, page, clock))
                shadow[key] = _SCOMA
            elif code == R_EVICT:
                # b: forced.
                prev = shadow.get(key, _SCOMA)
                if prev != _SCOMA:
                    violations.append(_fsm(
                        f"eviction of a page in {PageMode(prev).name} mode",
                        node, page, clock))
                if b and not policy.allows_forced_eviction:
                    violations.append(_fsm(
                        f"forced eviction under {name}, which never"
                        " sacrifices a resident page", node, page, clock,
                        "forced-eviction"))
                shadow[key] = evicted
            else:
                # A relocation: map_scoma publishes before it, so the
                # shadow must already show S-COMA here.
                if not relocates:
                    violations.append(_fsm(
                        f"relocation under {name}, which does not relocate",
                        node, page, clock))
                prev = shadow.get(key, _SCOMA)
                if prev != _SCOMA:
                    violations.append(_fsm(
                        f"relocation left page in {PageMode(prev).name}"
                        " mode, expected SCOMA", node, page, clock))

    def _report(self, event, invariant: str, message: str, **detail) -> None:
        self.violations.append(Violation(
            invariant, message, node=event.node, page=event.page,
            clock=event.clock, detail=detail))

    def _on_migrate(self, event) -> None:
        if not self.policy.supports_migration:
            self._report(event, "page-mode-fsm",
                         f"home migration under {self.policy.name}, which"
                         " does not migrate")
        key = (event.node, event.page)
        prev = self._shadow.get(key, PageMode.CCNUMA)
        if prev != PageMode.CCNUMA:
            self._report(event, "page-mode-fsm",
                         f"migration to a node holding the page in"
                         f" {PageMode(prev).name} mode, expected CCNUMA")
        self._shadow[key] = PageMode.HOME
        old_home = event.detail.get("old_home", -1)
        old_key = (old_home, event.page)
        old_prev = self._shadow.get(old_key)
        if old_prev is not None:
            if old_prev != PageMode.HOME:
                self._report(event, "page-mode-fsm",
                             f"migration away from node {old_home} which"
                             f" held the page in {PageMode(old_prev).name}"
                             " mode, expected HOME")
            self._shadow[old_key] = PageMode.CCNUMA

    def _on_daemon(self, event) -> None:
        if not getattr(self.policy, "daemon_backoff", False):
            return
        threshold = event.detail["threshold"]
        last = self._last_threshold.get(event.node)
        if last is not None:
            if event.detail["thrashing"]:
                # Backoff must not lower the bar (0 = relocation disabled).
                if threshold < last and threshold != 0:
                    self._report(event, "threshold-backoff",
                                 f"thrashing run lowered the relocation"
                                 f" threshold {last} -> {threshold}",
                                 last=last, threshold=threshold)
            else:
                # Recovery must not raise it (unless re-enabling from 0).
                if threshold > last and last != 0:
                    self._report(event, "threshold-backoff",
                                 f"recovered run raised the relocation"
                                 f" threshold {last} -> {threshold}",
                                 last=last, threshold=threshold)
        self._last_threshold[event.node] = threshold
