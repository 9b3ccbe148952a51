"""Direct-mapped L1 processor cache model.

Matches Table 3 of the paper: 8 KiB direct-mapped, 32-byte lines,
virtually indexed / physically tagged, 1-cycle hit.

Because the simulator is trace-driven there is no data payload; the
cache tracks only which *global line ids* are present.  The paper's
cache is write-back, but no write-back is charged, so dirtiness is not
tracked.  The page-flush operation exists because every
CC-NUMA<->S-COMA remap and every S-COMA page eviction must flush the
page's lines from the processor cache (Section 2.3) -- this is what
induces the cold misses the paper's Ncold term accounts for.

The tag store is an ``int64`` tag per set (``-1`` when empty).  A
machine hands each node's cache its row of the machine-wide block,
which the replay kernel reads and writes in place; the cache indexes it
through a ``memoryview``, whose single-element reads return plain ints
at about the cost of a list index.  Hits and misses are counted by the
replay loops, per node (``NodeStats.l1_hits`` and ``l1_misses``).
"""

from __future__ import annotations

import numpy as np

from .address import AddressMap

__all__ = ["DirectMappedCache"]


class DirectMappedCache:
    """A direct-mapped cache of global line ids.

    ``lookup``/``fill`` are the only operations on the reference hot
    path; everything else (flush, invalidate) runs on page-management
    events which are orders of magnitude rarer.
    """

    __slots__ = ("n_sets", "set_mask", "tags", "amap")

    def __init__(self, size_bytes: int, line_bytes: int,
                 amap: AddressMap | None = None, tags=None) -> None:
        if size_bytes % line_bytes:
            raise ValueError("cache size must be a multiple of the line size")
        n_sets = size_bytes // line_bytes
        if n_sets & (n_sets - 1):
            raise ValueError("number of sets must be a power of two")
        self.n_sets = n_sets
        self.set_mask = n_sets - 1
        # tags[set] holds the resident global line id, or -1 when empty.
        self.tags = memoryview(np.full(n_sets, -1, np.int64)
                               if tags is None else tags)
        self.amap = amap or AddressMap()

    # -- hot path ---------------------------------------------------------
    def lookup(self, line: int) -> bool:
        """Probe the cache for *line*.  Returns True on hit."""
        return self.tags[line & self.set_mask] == line

    def fill(self, line: int) -> int:
        """Install *line*, evicting any conflicting resident line.

        Returns the evicted line id (for victim bookkeeping) or -1 if the
        set was empty or held the same line.
        """
        s = line & self.set_mask
        victim = self.tags[s]
        if victim == line:
            return -1
        self.tags[s] = line
        return victim

    # -- page management paths ---------------------------------------------
    def invalidate_line(self, line: int) -> bool:
        """Drop *line* if present (coherence invalidation).  True if it was resident."""
        s = line & self.set_mask
        if self.tags[s] == line:
            self.tags[s] = -1
            return True
        return False

    def flush_page(self, page: int) -> int:
        """Flush every resident line belonging to *page*.

        Models the cache flush the kernel performs before remapping a
        page.  Returns the number of lines flushed, which the kernel
        cost model converts to cycles.
        """
        lpp = self.amap.lines_per_page
        # A page's lines map to `lines_per_page` consecutive sets (every
        # set when the page outspans the cache); with power-of-two
        # geometry the run never wraps, so one slice covers it.
        first = (page * lpp) & self.set_mask
        span = slice(first, first + min(lpp, self.n_sets))
        tags = np.asarray(self.tags)[span]
        hit = tags >> self.amap.line_shift == page   # empty (-1) never hits
        flushed = int(np.count_nonzero(hit))
        if flushed:
            tags[hit] = -1
        return flushed

    def resident_lines_of_page(self, page: int) -> list[int]:
        amap = self.amap
        return [t for t in self.tags if t != -1 and (t >> amap.line_shift) == page]

    def resident_lines(self) -> list[int]:
        """All resident line ids (invariant-checker sweep)."""
        return [t for t in self.tags if t != -1]

    def clear(self) -> None:
        np.asarray(self.tags)[:] = -1
