"""Pageout daemon: second-chance reclamation and thrashing detection.

Paper, Section 3: whenever the free page pool falls below ``free_min``,
the pageout daemon tries to evict enough *cold* S-COMA pages to refill
the pool to ``free_target``.  Cold pages are found with a second-chance
(clock) algorithm over the TLB reference bits (the node's
``ref_bits`` row, one byte per page, which every L1 miss sets): a page
whose bit is set gets the bit cleared and survives this scan; a page
whose bit is still clear on the next visit is cold and is evicted.

Whenever the daemon cannot reclaim its target, the memory is saturated
with hot pages -- the machine is *thrashing*.  The daemon reports the
shortfall to the architecture policy (AS-COMA reacts by raising the
relocation threshold, stretching the daemon interval and, in extremis,
disabling relocation; R-NUMA ignores it; pure S-COMA has no choice but
to keep evicting).

The daemon does not evict pages itself: each run asks the owning node
through the ``evict(page)`` callback it is handed, so that cache
flushes, directory updates and cycle accounting happen in one place
(:mod:`repro.sim.node`), which also counts the runs and the thrashing
ones (``NodeStats.daemon_runs``/``daemon_thrash``).  The daemon keeps
no reference to the node.
"""

from __future__ import annotations

from typing import Callable

from .costs import KernelCosts
from .freelist import FreePagePool
from .vm import PageTable

__all__ = ["PageoutDaemon", "DaemonRunResult"]


class DaemonRunResult:
    """Outcome of one daemon invocation."""

    __slots__ = ("reclaimed", "scanned", "target", "cost", "thrashing")

    def __init__(self, reclaimed: int, scanned: int, target: int, cost: int) -> None:
        self.reclaimed = reclaimed
        self.scanned = scanned
        self.target = target
        self.cost = cost
        #: True when the daemon could not refill the pool to free_target:
        #: the page cache holds only hot pages.
        self.thrashing = reclaimed < target

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"DaemonRunResult(reclaimed={self.reclaimed}, scanned={self.scanned}, "
                f"target={self.target}, cost={self.cost}, thrashing={self.thrashing})")


class PageoutDaemon:
    """One node's pageout daemon."""

    def __init__(self, page_table: PageTable, pool: FreePagePool,
                 costs: KernelCosts, ref_bits,
                 base_interval: int = 50_000) -> None:
        self.page_table = page_table
        self.pool = pool
        self.costs = costs
        #: page -> TLB reference bit (a writable buffer the scan clears).
        self.ref_bits = ref_bits
        #: Minimum cycles between invocations; AS-COMA's backoff grows it.
        self.base_interval = base_interval
        self.interval = base_interval
        self.next_run_at = 0

    # ------------------------------------------------------------------
    def due(self, now: int) -> bool:
        """Should the daemon run?  Pool below free_min and not rate-limited."""
        return self.pool.below_min and now >= self.next_run_at

    def run(self, now: int, evict: Callable[[int], None]) -> DaemonRunResult:
        """One daemon invocation: a single second-chance revolution;
        ``evict(page)`` evicts a cold page.

        Pages whose reference bit is set get the bit cleared and survive
        (their second chance); pages whose bit is still clear from the
        *previous* revolution are cold and are evicted.  The daemon never
        evicts a referenced page -- if one revolution cannot meet the
        target the run reports thrashing instead, which is AS-COMA's
        backoff trigger (Section 3).  Forced evictions of hot pages only
        ever happen on the relocation/fault paths of policies that allow
        them (pure S-COMA, R-NUMA, VC-NUMA).
        """
        target = self.pool.deficit_to_target()
        clock = self.page_table.scoma_clock
        ref_bits = self.ref_bits
        reclaimed = 0
        scanned = 0
        max_scans = len(clock)
        while reclaimed < target and clock and scanned < max_scans:
            page = clock[0]
            scanned += 1
            if ref_bits[page]:
                # First chance: clear the bit, rotate to the back.
                ref_bits[page] = 0
                clock.rotate(-1)
            else:
                # Cold page: evict (callback pops it from the clock and
                # releases its frame back to the pool).
                evict(page)
                reclaimed += 1
        self.next_run_at = now + self.interval
        return DaemonRunResult(reclaimed, scanned, target,
                               self.costs.daemon_run_cost(scanned))

    # -- policy knobs ---------------------------------------------------
    def stretch_interval(self, factor: float = 2.0, cap: int | None = None) -> None:
        """Back off the daemon's own invocation rate (AS-COMA, Section 3).

        The caller's *cap* is an absolute ceiling and wins over the
        ``base_interval`` floor: clamping to the cap must happen last,
        or a ``cap < base_interval`` would be silently ignored and the
        interval could exceed what the caller asked for.
        """
        new = max(self.base_interval, int(self.interval * factor))
        if cap is not None:
            new = min(new, cap)
        self.interval = new

    def reset_interval(self) -> None:
        self.interval = self.base_interval
