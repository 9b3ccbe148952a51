"""TLB and per-page reference-bit model.

AS-COMA's pageout daemon detects cold pages with a second-chance
algorithm driven by "the TLB reference bit associated with each S-COMA
page" (Section 3).  We therefore model, per node:

* a small fully-associative TLB with FIFO replacement (miss cost is
  charged by the kernel cost model; the TLB exists mainly so that page
  remaps have a realistic shoot-down/refill cost), and
* a reference-bit table consulted and reset by the pageout daemon.

The reference bits are the load-bearing piece: the second-chance scan in
:mod:`repro.kernel.pageout` reads and clears them to decide which S-COMA
pages are cold enough to evict.  They are one byte per page: a machine
hands each node's TLB its row of the machine-wide block, which the
replay kernel reads and writes in place, and likewise its counter row
(``TLB_*`` slots).
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..kernel.freelist import counter_row, row_slot
from ..kernel.vm import DEFAULT_PAGES

__all__ = ["TLB"]

#: Counter row slots; the replay kernel reads them by these names.
TLB_HITS, TLB_MISSES, TLB_SHOOTDOWNS, N_TLB = range(4)


class TLB:
    """Fully-associative FIFO TLB with per-page reference bits."""

    __slots__ = ("capacity", "entries", "ref_bits", "row")

    def __init__(self, capacity: int = 128, ref_bits=None,
                 counters=None) -> None:
        if capacity <= 0:
            raise ValueError("TLB capacity must be positive")
        self.capacity = capacity
        self.entries: OrderedDict[int, None] = OrderedDict()
        # Reference bits persist beyond TLB residency: the paper's VM
        # keeps them in the pmap, and the pageout daemon consults them
        # for *every* S-COMA page, resident in the TLB or not.
        self.ref_bits = memoryview(np.zeros(DEFAULT_PAGES, np.uint8)
                                   if ref_bits is None else ref_bits)
        self.row = counter_row(N_TLB, counters)

    hits, misses, shootdowns = map(row_slot, range(N_TLB))

    def access(self, page: int) -> bool:
        """Touch *page*: set its reference bit, return True on TLB hit."""
        self.ref_bits[page] = 1
        if page in self.entries:
            self.hits += 1
            return True
        self.misses += 1
        if len(self.entries) >= self.capacity:
            self.entries.popitem(last=False)
        self.entries[page] = None
        return False

    def reference_bit(self, page: int) -> bool:
        return bool(self.ref_bits[page])

    def clear_reference_bit(self, page: int) -> None:
        self.ref_bits[page] = 0

    def shootdown(self, page: int) -> None:
        """Remove *page*'s translation (remap/eviction path)."""
        self.entries.pop(page, None)
        self.ref_bits[page] = 0
        self.shootdowns += 1

    def resident(self, page: int) -> bool:
        return page in self.entries
