"""Remote Access Cache (RAC) model.

The paper's CC-NUMA and hybrid machines are "not pure": the DSM engine
keeps a 128-byte RAC holding *the last remote data received* as part of
performing a 4-line chunk fetch (Section 4.1).  When a remote fetch
returns a 128-byte chunk, the requested 32-byte line is supplied to the
processor and the whole chunk is deposited in the RAC; subsequent misses
to the chunk's other lines hit the RAC at RAC latency instead of going
remote.  The paper notes this "minor optimization had a larger impact on
performance than anticipated" -- it is what makes fft nearly
pressure-insensitive -- so we model it faithfully.

A configurable number of chunk entries is supported (direct-mapped by
chunk id); the paper's machine corresponds to ``n_entries=1``.  Entries
are ``int64`` slots (``-1`` when empty); a machine hands each node's
RAC its row of the machine-wide block, which the replay kernel reads
and writes in place.  A hit is counted once, as the node's ``RAC`` miss
class.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RemoteAccessCache"]


class RemoteAccessCache:
    """Small direct-mapped cache of remote 128-byte chunks."""

    __slots__ = ("n_entries", "entry_mask", "chunks")

    def __init__(self, n_entries: int = 1, entries=None) -> None:
        if n_entries <= 0 or n_entries & (n_entries - 1):
            raise ValueError("RAC entry count must be a positive power of two")
        self.n_entries = n_entries
        self.entry_mask = n_entries - 1
        self.chunks = memoryview(np.full(n_entries, -1, np.int64)
                                 if entries is None else entries)

    def lookup(self, chunk: int) -> bool:
        """Probe the RAC for *chunk*.  Returns True on hit."""
        return self.chunks[chunk & self.entry_mask] == chunk

    def fill(self, chunk: int) -> None:
        """Deposit a freshly fetched remote chunk."""
        self.chunks[chunk & self.entry_mask] = chunk

    def resident_entries(self) -> list[int]:
        """All resident entry ids (chunks, or lines in victim mode)."""
        return [c for c in self.chunks if c != -1]

    def invalidate_chunk(self, chunk: int) -> bool:
        """Coherence invalidation of one chunk.  True if it was resident."""
        slot = chunk & self.entry_mask
        if self.chunks[slot] == chunk:
            self.chunks[slot] = -1
            return True
        return False

    def flush_page(self, page: int, chunks_per_page: int) -> int:
        """Drop every resident chunk belonging to *page* (page remap)."""
        first = page * chunks_per_page
        last = first + chunks_per_page
        flushed = 0
        for slot, chunk in enumerate(self.chunks):
            if first <= chunk < last:
                self.chunks[slot] = -1
                flushed += 1
        return flushed

    def clear(self) -> None:
        np.asarray(self.chunks)[:] = -1
