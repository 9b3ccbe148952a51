"""Per-page TLB reference bits.

AS-COMA's pageout daemon detects cold pages with a second-chance
algorithm driven by "the TLB reference bit associated with each S-COMA
page" (Section 3).  That bit is all of the TLB this model keeps: per
node, a reference-bit table that every L1 miss sets and that
:mod:`repro.kernel.pageout`'s second-chance scan reads and clears, plus
a count of shootdowns (page remaps and evictions).  Translations, TLB
misses and refill costs are not modelled.

The bits are one byte per page: a machine hands each node's TLB its
row of the machine-wide block, which the replay kernel reads and
writes in place, and likewise its counter row (``TLB_*`` slots).
"""

from __future__ import annotations

import numpy as np

from ..kernel.freelist import counter_row, row_slot
from ..kernel.vm import DEFAULT_PAGES

__all__ = ["TLB"]

#: Counter row slots; the replay kernel reads them by these names.
TLB_SHOOTDOWNS, N_TLB = range(2)


class TLB:
    """Per-page reference bits and a shootdown count."""

    __slots__ = ("ref_bits", "row")

    def __init__(self, ref_bits=None, counters=None) -> None:
        # The paper's VM keeps the bits in the pmap, and the pageout
        # daemon consults them for *every* S-COMA page.
        self.ref_bits = memoryview(np.zeros(DEFAULT_PAGES, np.uint8)
                                   if ref_bits is None else ref_bits)
        self.row = counter_row(N_TLB, counters)

    shootdowns = row_slot(TLB_SHOOTDOWNS)

    def reference_bit(self, page: int) -> bool:
        return bool(self.ref_bits[page])

    def clear_reference_bit(self, page: int) -> None:
        self.ref_bits[page] = 0

    def shootdown(self, page: int) -> None:
        """Drop *page*'s translation (remap/eviction path): its
        reference bit clears."""
        self.ref_bits[page] = 0
        self.shootdowns += 1
