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
"""

from __future__ import annotations

from ..kernel.vm import PageMode
from ..sim.events import (EV_BARRIER, EV_DAEMON, EV_END, EV_EVICT, EV_FAULT,
                          EV_MAP_SCOMA, EV_MIGRATE, EV_RELOCATE)
from .invariants import STRUCTURAL_CHECKS, Violation

__all__ = ["InvariantChecker", "GRANULARITIES"]

GRANULARITIES = ("event", "barrier")

_BARRIER_KINDS = (EV_BARRIER, EV_END)


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
        engine.machine.events.subscribe(checker, cls.KINDS)
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
        """EventBus observer entry point."""
        self.events_seen += 1
        if len(self.violations) >= self.max_violations:
            return
        handler = self._EVENT_CHECKS.get(event.kind)
        if handler is not None:
            handler(self, event)
        if event.kind in self._sweep_kinds:
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
    def _report(self, event, invariant: str, message: str, **detail) -> None:
        self.violations.append(Violation(
            invariant, message, node=event.node, page=event.page,
            clock=event.clock, detail=detail))

    def _on_fault(self, event) -> None:
        mode = event.detail["mode"]
        home = event.detail["home"]
        key = (event.node, event.page)
        if home == event.node:
            if mode != PageMode.HOME:
                self._report(event, "page-mode-fsm",
                             f"fault on locally-homed page yielded"
                             f" {PageMode(mode).name}, expected HOME")
        elif mode not in self.policy.initial_modes:
            legal = sorted(PageMode(m).name for m in self.policy.initial_modes)
            self._report(event, "page-mode-fsm",
                         f"fault mapped remote page in {PageMode(mode).name}"
                         f" mode; {self.policy.name} allows {legal}")
        prev = self._shadow.get(key, PageMode.UNMAPPED)
        if prev not in (PageMode.UNMAPPED, mode):
            self._report(event, "page-mode-fsm",
                         f"fault on a page already in {PageMode(prev).name}"
                         " mode")
        self._shadow[key] = mode

    def _on_map_scoma(self, event) -> None:
        key = (event.node, event.page)
        prev = self._shadow.get(key, PageMode.UNMAPPED)
        if prev == PageMode.CCNUMA:
            if not self.policy.supports_relocation:
                self._report(event, "page-mode-fsm",
                             f"CC-NUMA page upgraded to S-COMA but"
                             f" {self.policy.name} does not relocate")
        elif prev == PageMode.UNMAPPED:
            if PageMode.SCOMA not in self.policy.initial_modes:
                self._report(event, "page-mode-fsm",
                             f"unmapped page mapped S-COMA but"
                             f" {self.policy.name} never starts in S-COMA")
        else:
            self._report(event, "page-mode-fsm",
                         f"S-COMA map of a page in {PageMode(prev).name} mode")
        self._shadow[key] = PageMode.SCOMA

    def _on_evict(self, event) -> None:
        key = (event.node, event.page)
        prev = self._shadow.get(key, PageMode.SCOMA)
        if prev != PageMode.SCOMA:
            self._report(event, "page-mode-fsm",
                         f"eviction of a page in {PageMode(prev).name} mode")
        if event.detail.get("forced") and not self.policy.allows_forced_eviction:
            self._report(event, "forced-eviction",
                         f"forced eviction under {self.policy.name}, which"
                         " never sacrifices a resident page")
        self._shadow[key] = (PageMode.CCNUMA if self.policy.evict_to_ccnuma
                             else PageMode.UNMAPPED)

    def _on_relocate(self, event) -> None:
        if not self.policy.supports_relocation:
            self._report(event, "page-mode-fsm",
                         f"relocation under {self.policy.name}, which does"
                         " not relocate")
        key = (event.node, event.page)
        prev = self._shadow.get(key, PageMode.SCOMA)
        if prev != PageMode.SCOMA:
            # map_scoma publishes before the relocate event, so the
            # shadow must already show S-COMA here.
            self._report(event, "page-mode-fsm",
                         f"relocation left page in {PageMode(prev).name}"
                         " mode, expected SCOMA")

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

    _EVENT_CHECKS = {
        EV_FAULT: _on_fault,
        EV_MAP_SCOMA: _on_map_scoma,
        EV_EVICT: _on_evict,
        EV_RELOCATE: _on_relocate,
        EV_MIGRATE: _on_migrate,
        EV_DAEMON: _on_daemon,
    }
