"""Per-node free page pool.

The kernel "maintains a pool of free local pages that it can use to
satisfy allocation or relocation requests.  The pageout daemon attempts
to keep the size of this pool between free_target and free_min pages"
(paper, Section 3).  ``free_min`` and ``free_target`` are fractions of
the node's total physical memory (the paper sets them to a few percent
of total memory; exact digits unreadable -- see DESIGN.md).

The pool tracks only *counts*: which physical frame backs which page is
immaterial to timing, so frames are fungible.  The counts live in the
node's *page-cache row* (``PC_*`` slots below), which the second-chance
clock (:class:`~repro.kernel.vm.PageTable`) shares and the replay
kernel (:mod:`repro.sim.soatrace`) reads and writes in place.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FreePagePool", "N_PC", "PC_ALLOCS", "PC_FREE", "PC_FREE_MIN",
           "PC_HEAD", "PC_LEN", "PC_RELEASES", "counter_row", "row_slot"]

#: Slots of a node's page-cache row: the pool's counters, then the
#: S-COMA clock's ring cursor (head index and length).  The replay
#: kernel reads these names.
PC_FREE, PC_ALLOCS, PC_RELEASES, PC_FREE_MIN, PC_HEAD, PC_LEN = range(6)
N_PC = 6


def row_slot(index: int) -> property:
    """An int attribute stored in slot *index* of ``self.row``, a
    counter row the replay kernel shares."""
    return property(lambda self: self.row[index],
                    lambda self, value: self.row.__setitem__(index, value))


def counter_row(n: int, row=None) -> memoryview:
    """A view of *row*, or of a fresh row of *n* ``int64`` zeros."""
    return memoryview(np.zeros(n, np.int64) if row is None else row)


class FreePagePool:
    """Counter-based free-frame pool with low-water marks.

    *pc* is the node's page-cache row (an ``int64`` array of ``N_PC``
    slots); a pool built without one allocates its own.
    """

    __slots__ = ("capacity", "free_target", "row")

    def __init__(self, cache_frames: int, total_frames: int,
                 free_min_frac: float = 0.005, free_target_frac: float = 0.02,
                 pc=None) -> None:
        if cache_frames < 0 or total_frames <= 0:
            raise ValueError("frame counts must be positive")
        if not 0 <= free_min_frac <= free_target_frac <= 1:
            raise ValueError("need 0 <= free_min_frac <= free_target_frac <= 1")
        self.row = counter_row(N_PC, pc)
        self.capacity = cache_frames
        self.free = cache_frames
        # Water marks are fractions of *total* node memory, as in BSD,
        # but can never exceed the page-cache capacity itself.
        self.free_min = min(cache_frames, max(1, round(total_frames * free_min_frac)))
        self.free_target = min(cache_frames, max(self.free_min,
                                                 round(total_frames * free_target_frac)))

    free = row_slot(PC_FREE)
    allocations = row_slot(PC_ALLOCS)
    releases = row_slot(PC_RELEASES)
    free_min = row_slot(PC_FREE_MIN)

    def try_allocate(self) -> bool:
        """Take one frame from the pool.  False if empty."""
        if self.free > 0:
            self.free -= 1
            self.allocations += 1
            return True
        return False

    def release(self) -> None:
        """Return one frame to the pool (page eviction)."""
        if self.free >= self.capacity:
            raise RuntimeError("free pool overflow: released more frames than exist")
        self.free += 1
        self.releases += 1

    @property
    def below_min(self) -> bool:
        # Read per scheduling slice: index the row, skip two properties.
        return self.row[PC_FREE] < self.row[PC_FREE_MIN]

    @property
    def below_target(self) -> bool:
        return self.free < self.free_target

    @property
    def in_use(self) -> int:
        return self.capacity - self.free

    def deficit_to_target(self) -> int:
        return max(0, self.free_target - self.free)

    def ledger_consistent(self) -> bool:
        """Frames out must equal the allocation ledger (invariant hook)."""
        return (0 <= self.free <= self.capacity
                and self.in_use == self.allocations - self.releases)
