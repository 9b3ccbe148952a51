"""Network latency and input-port contention model.

Paper, Table 3: "2 cycle propagation, 4x4 switch topology, port
contention (only) modelled.  Fall through delay: 4 cycles", and the
resulting remote:local access latency ratio is about 3.6:1.

A one-way traversal costs::

    propagation * hops + fall_through

Contention: each message occupies the *destination's input port* for
``port_occupancy`` cycles.  A message arriving while the port is busy
queues; the queueing delay is added to its latency.  This is exactly the
"input port contention (only)" the paper models, and it is what makes
average remote latency exceed the Table 4 minimum as remote traffic
grows.

The port stamps and the contention-free pair costs are flat ``int64``
buffers the replay kernel reads (and, for the ports, writes) in place;
so are the counters (``NET_*`` slots), the network's slice of the
machine's counter row.
"""

from __future__ import annotations

import numpy as np

from ..kernel.freelist import counter_row, row_slot
from .topology import SwitchTopology

__all__ = ["Network"]

#: Counter row slots; the replay kernel reads them by these names.
NET_MESSAGES, NET_CONTENDED, NET_QUEUE, N_NET = range(4)


class Network:
    """Point-to-point message latency with per-node input-port queues."""

    __slots__ = ("topology", "propagation", "fall_through", "port_occupancy",
                 "max_queue", "port_busy_until", "row", "_n", "_base")

    def __init__(self, topology: SwitchTopology | None = None,
                 n_nodes: int = 8, propagation: int = 2,
                 fall_through: int = 4, port_occupancy: int = 8,
                 max_queue_occupancies: int = 8, counters=None) -> None:
        self.topology = topology or SwitchTopology(n_nodes)
        if propagation < 0 or fall_through < 0 or port_occupancy < 0:
            raise ValueError("latency parameters must be non-negative")
        self.propagation = propagation
        self.fall_through = fall_through
        self.port_occupancy = port_occupancy
        # Bound per-message queueing to a few port slots: message
        # timestamps come from loosely-synchronised node clocks, and an
        # unbounded busy_until comparison would book clock skew as
        # contention (see BankedMemory for the same reasoning).
        self.max_queue = max_queue_occupancies * port_occupancy
        n = self.topology.n_nodes
        self.port_busy_until = memoryview(np.zeros(n, np.int64))
        self.row = counter_row(N_NET, counters)
        # Hop counts are a pure function of the (immutable) topology, so
        # the contention-free one-way cost is precomputed per node pair
        # (``_base[src * n + dst]``).  One hops() call at construction
        # replaces one per message.
        self._n = n
        self._base = memoryview(np.array(
            [0 if s == d else propagation * self.topology.hops(s, d) + fall_through
             for s in range(n) for d in range(n)], dtype=np.int64))

    messages, contended_messages, total_queue_cycles = map(row_slot,
                                                           range(N_NET))

    # ------------------------------------------------------------------
    def one_way(self, src: int, dst: int, now: int) -> int:
        """Latency of one message from *src* to *dst* departing at *now*."""
        if src == dst:
            return 0
        base = self._base[src * self._n + dst]
        arrival = now + base
        busy = self.port_busy_until[dst]
        queue = busy - arrival if busy > arrival else 0
        if queue > self.max_queue:
            queue = self.max_queue
        self.port_busy_until[dst] = arrival + queue + self.port_occupancy
        row = self.row
        row[NET_MESSAGES] += 1
        if queue:
            row[NET_CONTENDED] += 1
            row[NET_QUEUE] += queue
        return base + queue

    def round_trip(self, src: int, dst: int, now: int) -> int:
        """Request + response latency (no remote service time included)."""
        out = self.one_way(src, dst, now)
        back = self.one_way(dst, src, now + out)
        return out + back

    def min_one_way(self, src: int, dst: int) -> int:
        """Contention-free one-way latency (for Table 4)."""
        return self._base[src * self._n + dst]

    def utilisation_stats(self) -> dict:
        return {
            "messages": self.messages,
            "contended_messages": self.contended_messages,
            "total_queue_cycles": self.total_queue_cycles,
        }
