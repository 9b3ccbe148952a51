"""Sequentially-consistent write-invalidate protocol over DSM chunks.

Combines the :class:`~repro.coherence.directory.Directory` with the
network and the home node's banked memory to produce full transaction
latencies:

* **2-hop fetch**: requester -> home (request), home memory access,
  home -> requester (data).
* **3-hop fetch**: the chunk is dirty at a third node; home forwards the
  request and the owner supplies the data (extra network leg).
* **writes**: the home invalidates every other sharer; under sequential
  consistency the writer stalls until all acknowledgements return, so
  the invalidation round trip of the *slowest* sharer is added.

The protocol does not know about caches; the machine registers an
``invalidate_chunk(node, chunk)`` callback through which sharer copies
(L1 lines, RAC entry, S-COMA valid bits) are destroyed.
"""

from __future__ import annotations

from typing import Callable

from ..interconnect.network import Network
from ..kernel.freelist import counter_row, row_slot
from ..mem.dram import BankedMemory
from .directory import Directory

__all__ = ["CoherenceProtocol"]

#: Counter row slots; the replay kernel reads them by these names.
PROTO_REMOTE, PROTO_THREE_HOP, PROTO_STALLS, N_PROTO = range(4)


class CoherenceProtocol:
    """Glue object executing whole coherence transactions."""

    def __init__(self, directory: Directory, network: Network,
                 memories: list[BankedMemory],
                 invalidate_chunk: Callable[..., None] | None = None,
                 demote_chunk: Callable[..., None] | None = None,
                 stall_on_invalidate: bool = True, counters=None) -> None:
        self.directory = directory
        self.network = network
        self.memories = memories
        #: Callbacks receive ``(node, chunk, now)`` with *now* the
        #: protocol-time of the transition (event timestamping).
        self.invalidate_chunk = (invalidate_chunk
                                 or (lambda node, chunk, now=None: None))
        #: A read forwarded to a dirty owner demotes it to shared: the
        #: owner keeps its data but loses write permission.
        self.demote_chunk = demote_chunk or (lambda node, chunk, now=None: None)
        #: Sequential consistency stalls the writer for the slowest
        #: invalidation ack; release consistency overlaps them (the
        #: invalidations still happen -- only the stall differs).
        self.stall_on_invalidate = stall_on_invalidate
        self.row = counter_row(N_PROTO, counters)

    remote_fetches, three_hop_fetches, write_stalls = map(row_slot,
                                                          range(N_PROTO))

    # ------------------------------------------------------------------
    def remote_fetch_raw(self, node: int, chunk: int, page: int, home: int,
                         is_write: bool, threshold: int, now: int,
                         count_refetch: bool = True) -> tuple:
        """Fetch *chunk* from its remote *home* on behalf of *node*.

        Returns ``(latency, outcome)`` with the outcome tuple of
        :meth:`Directory.fetch_raw`.
        """
        out = self.directory.fetch_raw(node, chunk, page, is_write,
                                       threshold, count_refetch)
        net = self.network
        lat = net.one_way(node, home, now)                  # request
        lat += self.memories[home].access(chunk, now + lat)  # home DRAM/dir
        if out[1]:  # forwarded: dirty at prev_owner, not the requester
            # Home -> owner -> requester instead of home -> requester.
            self.row[PROTO_THREE_HOP] += 1
            lat += net.one_way(home, node, now + lat)  # forward leg (approx: same cost class)
            if not is_write:
                self.demote_chunk(out[4], chunk, now + lat)
        lat += net.one_way(home, node, now + lat)           # data response
        invalidations = out[2]
        if invalidations:
            lat += self._invalidate_all(invalidations, chunk, home, now + lat)
        self.row[PROTO_REMOTE] += 1
        return lat, out

    def _invalidate_all(self, sharers, chunk: int, origin: int,
                        now: int) -> int:
        """Invalidate every sharer; returns the writer's stall cycles
        (the slowest ack under SC, zero under RC)."""
        worst = 0
        for sharer in sharers:
            self.invalidate_chunk(sharer, chunk, now)
            rt = self.network.round_trip(origin, sharer, now)
            if rt > worst:
                worst = rt
        self.row[PROTO_STALLS] += 1
        return worst if self.stall_on_invalidate else 0

    def local_fetch_raw(self, node: int, chunk: int, page: int,
                        is_write: bool, now: int) -> tuple:
        """Access a chunk whose home is the requesting node itself.

        Still goes through the directory (a remote node may hold the
        chunk dirty, or sharers may need invalidating on a write), but
        the data normally comes from local DRAM.  Returns ``(latency,
        outcome)`` as :meth:`remote_fetch_raw` does.
        """
        out = self.directory.fetch_raw(node, chunk, page, is_write,
                                       threshold=0, count_refetch=False)
        lat = self.memories[node].access(chunk, now)
        if out[1]:  # forwarded: dirty at prev_owner, not the requester
            # Dirty at a remote node: full round trip to retrieve it.
            self.row[PROTO_THREE_HOP] += 1
            prev_owner = out[4]
            lat += self.network.round_trip(node, prev_owner, now + lat)
            if not is_write:
                self.demote_chunk(prev_owner, chunk, now + lat)
        invalidations = out[2]
        if invalidations:
            lat += self._invalidate_all(invalidations, chunk, node, now + lat)
        return lat, out

    def upgrade(self, node: int, chunk: int, page: int, home: int,
                now: int) -> int:
        """Ownership upgrade for a chunk already cached shared at *node*.

        Returns the stall latency.  Counted separately from misses: the
        data is already local, only permission travels.
        """
        out = self.directory.fetch_raw(node, chunk, page, True,
                                       threshold=0, count_refetch=False)
        if home == node:
            lat = 0
        else:
            lat = self.network.round_trip(node, home, now)
        invalidations = out[2]
        if invalidations:
            lat += self._invalidate_all(invalidations, chunk, home, now + lat)
        return lat
