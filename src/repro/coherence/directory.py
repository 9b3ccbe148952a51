"""Directory controller state: per-chunk sharing state and per-page
per-node refetch counters.

Every page has a home node; the home's directory controller tracks, for
each 128-byte chunk of the page, the *copyset* of nodes caching the
chunk and the identity of a dirty owner if one exists (Section 2.1).

The hybrid architectures additionally keep, per page and per remote
node, a counter of *refetches*: requests from a node that is already a
member of the chunk's copyset.  Such a request can only be a
conflict/capacity miss -- the node had the data and lost it to cache
pressure -- so a high refetch count marks a "hot" page worth remapping
into the requester's S-COMA page cache (Section 2.4).  When the counter
crosses the requester's current threshold the directory piggybacks a
relocation hint on the data response.

Copysets are bitmasks over node ids, ``words`` 64-bit words per chunk
(node ``n`` is bit ``n & 63`` of word ``n >> 6``), so the hot path is a
couple of integer ops per request at any machine size.  All three maps
are dense buffers the replay kernel reads and writes in place, and so
are the counters (``DIR_*`` slots), the directory's slice of the
machine's counter row.
"""

from __future__ import annotations

import numpy as np

from ..kernel.freelist import counter_row, row_slot
from ..kernel.vm import DEFAULT_PAGES

__all__ = ["Directory"]

#: Counter row slots; the replay kernel reads them by these names.
DIR_REFETCHES, DIR_HINTS, DIR_FORWARDS, DIR_INVALIDATIONS, N_DIR = range(5)


class Directory:
    """Machine-wide directory state (conceptually distributed per home node).

    The physical distribution across home nodes does not affect
    behaviour -- each page's state is only ever touched through its home
    -- so a single object keeps the bookkeeping simple and fast.
    """

    def __init__(self, n_nodes: int, chunks_per_page: int,
                 n_pages: int = DEFAULT_PAGES,
                 grant_exclusive: bool = False, counters=None) -> None:
        if n_nodes <= 0:
            raise ValueError("need at least one node")
        self.n_nodes = n_nodes
        self.chunks_per_page = chunks_per_page
        self.n_pages = n_pages
        #: MESI mode: a read miss with an empty copyset is granted
        #: Exclusive, letting the reader write later with no upgrade
        #: transaction (classic E-state optimisation).
        self.grant_exclusive = grant_exclusive
        self.words = words = (n_nodes + 63) >> 6
        n_chunks = n_pages * chunks_per_page
        #: Sharer bitmaps, word ``chunk * words + (node >> 6)``.
        self.copyset = memoryview(np.zeros(n_chunks * words, np.uint64))
        #: chunk -> dirty owner node id; -1 means clean.
        self.owner = memoryview(np.full(n_chunks, -1, np.int64))
        #: Refetches of (page, node) since the last relocation/reset, at
        #: ``page * n_nodes + node``.
        self.refetch_count = memoryview(np.zeros(n_pages * n_nodes, np.int64))
        #: Aggregate counters (Table 6 and general stats).
        self.row = counter_row(N_DIR, counters)

    (total_refetches, relocation_hints, forwards,
     invalidations_sent) = map(row_slot, range(N_DIR))

    # ------------------------------------------------------------------
    def fetch_raw(self, node: int, chunk: int, page: int, is_write: bool,
                  threshold: int, count_refetch: bool = True) -> tuple:
        """Process a GET/GETX for *chunk* of *page* from *node*.

        *threshold* is the requester's current relocation threshold; 0
        or negative disables relocation hints (CC-NUMA, pure S-COMA, or
        an AS-COMA node that has turned relocation off).
        *count_refetch* lets S-COMA-mode accesses skip hot-page
        accounting (an S-COMA page is already local; its refetches are
        coherence-driven and must not re-trigger relocation).

        Returns the outcome as a plain tuple, ``(refetch, forwarded,
        invalidations, relocation_hint, prev_owner, exclusive)``:

        * *refetch*: the requester was already in the chunk's copyset
          (conflict or capacity miss).  Drives both miss classification
          (CONF/CAPC vs COLD) and refetch counting.
        * *forwarded*: a dirty remote owner had to service the request
          (3-hop transaction, extra network latency).
        * *invalidations*: nodes whose cached copies were invalidated
          (write requests); the protocol destroys those copies.
        * *relocation_hint*: the requester's refetch counter for this
          page crossed its threshold; the DSM engine should raise a
          relocation interrupt.
        * *prev_owner*: the node that held the chunk dirty before this
          request; -1 when it was clean or dirty at the requester.
        * *exclusive*: MESI only, a read was granted Exclusive (no other
          sharers), so the requester may write later without an
          upgrade.

        The replay engine processes tens of thousands of fetches per
        run, so no result object is built (docs/performance.md).
        """
        copyset = self.copyset
        owner_map = self.owner
        words = self.words
        base = chunk * words
        mine = base + (node >> 6)
        bit = 1 << (node & 63)
        cs = copyset[mine]
        refetch = bool(cs & bit)
        forwarded = False
        exclusive = False
        invalidations: tuple[int, ...] = ()

        owner = owner_map[chunk]
        if owner != -1 and owner != node:
            # Dirty at a third node: home forwards, owner writes back.
            forwarded = True
            self.row[DIR_FORWARDS] += 1
            owner_map[chunk] = -1

        if is_write:
            sharers = []
            for w in range(base, base + words):
                others = copyset[w]
                if w == mine:
                    others &= ~bit
                first = (w - base) << 6
                while others:
                    low = others & -others
                    sharers.append(first + low.bit_length() - 1)
                    others ^= low
                copyset[w] = 0
            copyset[mine] = bit
            if sharers:
                invalidations = tuple(sharers)
                self.row[DIR_INVALIDATIONS] += len(invalidations)
            owner_map[chunk] = node
        else:
            if owner == node:
                # Re-read by the owner keeps ownership.
                pass
            elif self.grant_exclusive and not any(copyset[base:base + words]):
                # MESI: first and only reader takes the chunk Exclusive.
                owner_map[chunk] = node
                exclusive = True
            copyset[mine] = cs | bit

        relocation_hint = False
        if refetch and count_refetch:
            self.row[DIR_REFETCHES] += 1
            if threshold > 0:
                key = page * self.n_nodes + node
                count = self.refetch_count[key] + 1
                if count >= threshold:
                    relocation_hint = True
                    self.row[DIR_HINTS] += 1
                    self.refetch_count[key] = 0
                else:
                    self.refetch_count[key] = count
        return (refetch, forwarded, invalidations, relocation_hint,
                owner if owner != node else -1, exclusive)

    # ------------------------------------------------------------------
    def drop_node_from_page(self, node: int, page: int) -> int:
        """Remove *node* from the copysets of every chunk of *page*.

        Called when a page's lines are flushed at *node* (remap in
        either direction, or S-COMA eviction).  Subsequent accesses by
        the node become cold remote misses -- the induced cold misses of
        the paper's Ncold term.  Returns the number of chunks the node
        was dropped from.
        """
        owner = self.owner
        words = self.words
        bit = 1 << (node & 63)
        first = page * self.chunks_per_page
        # The node's copyset word of every chunk of the page.
        column = self.copyset[first * words + (node >> 6):
                              (first + self.chunks_per_page) * words:words]
        dropped = 0
        for i, cs in enumerate(column.tolist()):
            if cs & bit:
                column[i] = cs ^ bit
                dropped += 1
                if owner[first + i] == node:
                    owner[first + i] = -1  # dirty data written back home
        return dropped

    def reset_refetch(self, page: int, node: int) -> None:
        """Reset the hot-page evidence for (page, node) after a remap."""
        self.refetch_count[page * self.n_nodes + node] = 0

    def refetches_of(self, page: int, node: int) -> int:
        return self.refetch_count[page * self.n_nodes + node]

    def copyset_of(self, chunk: int) -> int:
        """The chunk's sharers as one integer (node n is bit n)."""
        cs = 0
        base = chunk * self.words
        for w in range(base + self.words - 1, base - 1, -1):
            cs = cs << 64 | self.copyset[w]
        return cs

    def sharers(self, chunk: int) -> list[int]:
        cs = self.copyset_of(chunk)
        return [n for n in range(self.n_nodes) if cs >> n & 1]

    def is_cached_by(self, chunk: int, node: int) -> bool:
        word = self.copyset[chunk * self.words + (node >> 6)]
        return bool(word >> (node & 63) & 1)
