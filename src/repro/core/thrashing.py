"""Thrashing-backoff controllers.

Two detectors are modelled, matching the two hybrid designs that have
one (Sections 2.4 and 3):

* :class:`AdaptiveBackoff` -- AS-COMA's software scheme.  Driven by the
  pageout daemon: every run that fails to reclaim ``free_target`` pages
  raises the relocation threshold by a fixed increment and stretches the
  daemon interval; enough consecutive failures disable relocation
  outright.  Successful runs (cold pages reappeared, e.g. a program
  phase change) walk the threshold back down and re-enable relocation.

* :class:`BreakEvenDetector` -- VC-NUMA's hardware scheme.  Each
  relocated page is judged against a *break-even number* of page-cache
  hits it must serve to have repaid its relocation cost.  The detector
  is only *evaluated* after an average of two replacements per cached
  page have occurred -- the paper points out this cadence is "not
  sufficiently often to avoid thrashing", which is exactly why VC-NUMA
  underperforms AS-COMA at high pressure.

The break-even tallies since the last evaluation are slots of the
node's policy row (see :mod:`repro.core.policy`): the replay kernel
records forced evictions into them in place and leaves every
evaluation to :meth:`BreakEvenDetector.record_eviction`.
"""

from __future__ import annotations

from ..kernel.freelist import counter_row, row_slot
from ..kernel.pageout import PageoutDaemon
from .policy import N_POL, POL_EVICTIONS, POL_LOSERS, POL_WINNERS

__all__ = ["AdaptiveBackoff", "BreakEvenDetector"]


class AdaptiveBackoff:
    """AS-COMA's daemon-driven threshold controller (one per node)."""

    __slots__ = ("base_threshold", "increment", "disable_after",
                 "threshold", "enabled", "consecutive_thrash",
                 "backoffs", "recoveries", "disables", "re_enables")

    def __init__(self, base_threshold: int = 64, increment: int = 32,
                 disable_after: int = 4) -> None:
        if base_threshold <= 0 or increment <= 0 or disable_after <= 0:
            raise ValueError("backoff parameters must be positive")
        self.base_threshold = base_threshold
        self.increment = increment
        #: consecutive thrashing daemon runs before relocation is disabled.
        self.disable_after = disable_after
        self.threshold = base_threshold
        self.enabled = True
        self.consecutive_thrash = 0
        self.backoffs = 0
        self.recoveries = 0
        self.disables = 0
        self.re_enables = 0

    def on_thrash(self, daemon: PageoutDaemon | None = None) -> None:
        """Daemon failed to refill the pool: raise the bar, slow the daemon."""
        self.threshold += self.increment
        self.consecutive_thrash += 1
        self.backoffs += 1
        if daemon is not None:
            # Cap the stretch so a phase change is still noticed within
            # a bounded number of cycles (Section 3's recovery path).
            daemon.stretch_interval(cap=32 * daemon.base_interval)
        if self.enabled and self.consecutive_thrash >= self.disable_after:
            self.enabled = False
            self.disables += 1

    def on_recovered(self, daemon: PageoutDaemon | None = None) -> None:
        """Daemon found cold pages again: lower the bar, speed the daemon."""
        self.consecutive_thrash = 0
        if self.threshold > self.base_threshold:
            self.threshold = max(self.base_threshold, self.threshold - self.increment)
            self.recoveries += 1
        if not self.enabled:
            self.enabled = True
            self.re_enables += 1
        if daemon is not None:
            daemon.reset_interval()

    def effective_threshold(self) -> int:
        return self.threshold if self.enabled else 0


class BreakEvenDetector:
    """VC-NUMA's replacement-driven thrashing evaluation (one per node)."""

    __slots__ = ("break_even", "increment", "base_threshold", "threshold",
                 "min_evictions_per_eval", "row", "evaluations", "backoffs",
                 "recoveries")

    def __init__(self, break_even: int = 32, base_threshold: int = 64,
                 increment: int = 32, min_evictions_per_eval: int = 32,
                 row=None) -> None:
        if break_even <= 0 or base_threshold <= 0 or increment <= 0:
            raise ValueError("detector parameters must be positive")
        if min_evictions_per_eval <= 0:
            raise ValueError("min_evictions_per_eval must be positive")
        self.break_even = break_even
        self.increment = increment
        self.base_threshold = base_threshold
        self.threshold = base_threshold
        #: Floor on the evaluation cadence.  VC-NUMA's hardware scheme is
        #: tied to the replacement *rate*, and in the paper's machines
        #: (page caches of thousands of frames) evaluations are rare
        #: events; the floor keeps that property when the simulated
        #: caches are scaled down.
        self.min_evictions_per_eval = min_evictions_per_eval
        #: The node's policy row (a detector built without one allocates
        #: its own).
        self.row = counter_row(N_POL, row)
        self.evaluations = 0
        self.backoffs = 0
        self.recoveries = 0

    evictions_since_eval = row_slot(POL_EVICTIONS)
    losers_since_eval = row_slot(POL_LOSERS)
    winners_since_eval = row_slot(POL_WINNERS)

    def record_eviction(self, pagecache_hits: int, cached_pages: int) -> None:
        """Record one S-COMA page eviction and evaluate if due.

        *pagecache_hits* is the number of misses the page satisfied from
        the page cache while it was mapped; fewer than ``break_even``
        means relocating it never paid for itself.
        """
        self.evictions_since_eval += 1
        if pagecache_hits < self.break_even:
            self.losers_since_eval += 1
        else:
            self.winners_since_eval += 1
        # Evaluate only after ~2 replacements per cached page (paper),
        # but never more often than the cadence floor.
        cadence = max(2 * max(1, cached_pages), self.min_evictions_per_eval)
        if self.evictions_since_eval >= cadence:
            self._evaluate()

    def _evaluate(self) -> None:
        self.evaluations += 1
        if self.losers_since_eval > self.winners_since_eval:
            self.threshold += self.increment
            self.backoffs += 1
        elif self.threshold > self.base_threshold:
            self.threshold = max(self.base_threshold, self.threshold - self.increment)
            self.recoveries += 1
        self.evictions_since_eval = 0
        self.losers_since_eval = 0
        self.winners_since_eval = 0
