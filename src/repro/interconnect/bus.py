"""Split-transaction coherent memory bus model.

Each node's processor, memory controller and DSM controller share a
coherent split-transaction bus (the paper's machines use HP's Runway
bus, clocked with the 120 MHz CPU).  Because the bus is split
transaction, a memory access occupies it for a short
address/arbitration phase and, later, a data phase; we charge a single
combined occupancy per transaction and model queueing with a
busy-until timestamp like the other resources.

Bus time is already folded into the Table 4 minimum latencies (L1 miss
service cannot be faster than the bus transaction), so a transaction
adds only its queueing delay.  The busy-until stamp is a node's slot of
the machine-wide bus block, and the counters its ``BUS_*`` slots of the
counter block; the replay kernel reads and writes both in place.
"""

from __future__ import annotations

import numpy as np

from ..kernel.freelist import counter_row, row_slot

__all__ = ["SplitTransactionBus"]

#: Counter row slots; the replay kernel reads them by these names.
BUS_TRANSACTIONS, BUS_CONTENDED, BUS_QUEUE, N_BUS = range(4)


class SplitTransactionBus:
    """Per-node coherent bus with busy-until contention accounting."""

    __slots__ = ("occupancy", "max_queue", "busy_until", "row")

    def __init__(self, occupancy: int = 4, max_queue_occupancies: int = 8,
                 busy_until=None, counters=None) -> None:
        if occupancy < 0:
            raise ValueError("bus occupancy must be non-negative")
        self.occupancy = occupancy
        #: Queue-estimate bound (see BankedMemory: clock-skew guard).
        self.max_queue = max_queue_occupancies * occupancy
        #: One-slot view: the bus is free from ``busy_until[0]`` on.
        self.busy_until = memoryview(np.zeros(1, np.int64)
                                     if busy_until is None else busy_until)
        self.row = counter_row(N_BUS, counters)

    transactions, contended, total_queue_cycles = map(row_slot, range(N_BUS))

    def transact(self, now: int) -> int:
        """Run one bus transaction at *now*; returns its queueing delay."""
        busy = self.busy_until[0]
        queue = busy - now if busy > now else 0
        if queue > self.max_queue:
            queue = self.max_queue
        self.busy_until[0] = now + queue + self.occupancy
        row = self.row
        row[BUS_TRANSACTIONS] += 1
        if queue:
            row[BUS_CONTENDED] += 1
            row[BUS_QUEUE] += queue
        return queue

    def utilisation_stats(self) -> dict:
        return {
            "transactions": self.transactions,
            "contended": self.contended,
            "total_queue_cycles": self.total_queue_cycles,
        }
