"""Banked main-memory controller occupancy model.

The paper models a multi-bank main memory controller that supplies data
from local memory in ~50 cycles (Section 4.1) and reports that *average*
latencies are considerably higher than the minimum because of contention
for memory banks, which they "accurately model".

We model each bank as a resource with a ``busy_until`` timestamp.  An
access at time ``now`` to bank ``b`` starts at ``max(now, busy_until[b])``
and occupies the bank for ``occupancy`` cycles; the access latency is the
fixed service latency plus any queueing delay.  Banks are interleaved at
DSM-chunk granularity, the grain at which the DSM engine moves data.
The ``busy_until`` stamps are a node's row of the machine-wide bank
block, and the counters its ``MEM_*`` slots of the counter block; the
replay kernel reads and writes both in place.
"""

from __future__ import annotations

import numpy as np

from ..kernel.freelist import counter_row, row_slot

__all__ = ["BankedMemory"]

#: Counter row slots; the replay kernel reads them by these names.
MEM_ACCESSES, MEM_CONTENDED, MEM_QUEUE, N_MEM = range(4)


class BankedMemory:
    """Per-node banked DRAM with simple busy-until contention."""

    __slots__ = ("n_banks", "bank_mask", "busy_until", "service_cycles",
                 "occupancy_cycles", "max_queue", "row")

    def __init__(self, n_banks: int = 4, service_cycles: int = 50,
                 occupancy_cycles: int = 20,
                 max_queue_occupancies: int = 8, busy_until=None,
                 counters=None) -> None:
        if n_banks <= 0 or n_banks & (n_banks - 1):
            raise ValueError("bank count must be a positive power of two")
        if service_cycles <= 0 or occupancy_cycles <= 0:
            raise ValueError("cycle parameters must be positive")
        self.n_banks = n_banks
        self.bank_mask = n_banks - 1
        self.busy_until = memoryview(np.zeros(n_banks, np.int64)
                                     if busy_until is None else busy_until)
        self.service_cycles = service_cycles
        self.occupancy_cycles = occupancy_cycles
        # Requests arrive stamped with loosely-synchronised node clocks
        # (the engine lets nodes drift apart by a scheduling quantum), so
        # a raw busy_until comparison would book clock *skew* as queueing.
        # Bounding the per-request queue estimate to a few service slots
        # keeps the contention signal and discards the skew artifact.
        self.max_queue = max_queue_occupancies * occupancy_cycles
        self.row = counter_row(N_MEM, counters)

    accesses, contended, total_queue_cycles = map(row_slot, range(N_MEM))

    def access(self, chunk: int, now: int) -> int:
        """Access the bank holding *chunk* at time *now*.

        Returns the total latency (service + queueing) in cycles.
        """
        bank = chunk & self.bank_mask
        busy = self.busy_until[bank]
        queue = busy - now if busy > now else 0
        if queue > self.max_queue:
            queue = self.max_queue
        start = now + queue
        self.busy_until[bank] = start + self.occupancy_cycles
        row = self.row
        row[MEM_ACCESSES] += 1
        if queue:
            row[MEM_CONTENDED] += 1
            row[MEM_QUEUE] += queue
        return self.service_cycles + queue

    def min_latency(self) -> int:
        """Contention-free service latency (Table 4's 'Local Memory' row)."""
        return self.service_cycles

    def utilisation_stats(self) -> dict:
        return {
            "accesses": self.accesses,
            "contended": self.contended,
            "total_queue_cycles": self.total_queue_cycles,
        }
