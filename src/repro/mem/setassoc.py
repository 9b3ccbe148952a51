"""N-way set-associative L1 cache with LRU replacement.

The paper models a direct-mapped L1 because the SPLASH-2 primary
working sets fit 8 KiB; conflict misses to the *secondary* (remote)
working set are what the entire hybrid-architecture story runs on.
Associativity directly attacks those conflict misses, so an obvious
question the paper leaves open is how much of the hybrid benefit
survives a more associative processor cache.  This class powers that
sensitivity study (``test_l1_associativity_sensitivity`` in
``benchmarks/test_sensitivity.py``): raise ``l1_ways`` in
:class:`~repro.sim.config.SystemConfig` and rerun any experiment.

Same interface as :class:`~repro.mem.cache.DirectMappedCache`; here
``lookup`` also refreshes the LRU order on a hit, and ``contains``
probes without touching it.  LRU is tracked with per-set ordering lists
(sets are tiny, <= 8 ways).
"""

from __future__ import annotations

from .address import AddressMap

__all__ = ["SetAssociativeCache"]


class SetAssociativeCache:
    """N-way set-associative, LRU cache of global line ids."""

    __slots__ = ("ways", "n_sets", "set_mask", "sets", "amap")

    def __init__(self, size_bytes: int, line_bytes: int, ways: int,
                 amap: AddressMap | None = None) -> None:
        if ways <= 0:
            raise ValueError("need at least one way")
        if size_bytes % (line_bytes * ways):
            raise ValueError("cache size must divide into ways x lines")
        n_sets = size_bytes // (line_bytes * ways)
        if n_sets & (n_sets - 1):
            raise ValueError("number of sets must be a power of two")
        self.ways = ways
        self.n_sets = n_sets
        self.set_mask = n_sets - 1
        # sets[s] is the set's resident lines in LRU order (front = LRU).
        self.sets: list[list[int]] = [[] for _ in range(n_sets)]
        self.amap = amap or AddressMap()

    # -- hot path ---------------------------------------------------------
    def lookup(self, line: int) -> bool:
        s = self.sets[line & self.set_mask]
        if line in s:
            if s[-1] != line:
                s.remove(line)
                s.append(line)
            return True
        return False

    def fill(self, line: int) -> int:
        """Install *line*; returns the evicted line id or -1."""
        s = self.sets[line & self.set_mask]
        if line in s:
            if s[-1] != line:
                s.remove(line)
                s.append(line)
            return -1
        victim = s.pop(0) if len(s) >= self.ways else -1
        s.append(line)
        return victim

    def contains(self, line: int) -> bool:
        """Presence probe that leaves the LRU order alone."""
        return line in self.sets[line & self.set_mask]

    # -- page management ---------------------------------------------------
    def invalidate_line(self, line: int) -> bool:
        s = self.sets[line & self.set_mask]
        if line in s:
            s.remove(line)
            return True
        return False

    def flush_page(self, page: int) -> int:
        shift = self.amap.line_shift
        flushed = 0
        lpp = self.amap.lines_per_page
        first = page * lpp
        span = min(lpp, self.n_sets)
        seen = set()
        for offset in range(span):
            idx = (first + offset) & self.set_mask
            if idx in seen:
                continue
            seen.add(idx)
            s = self.sets[idx]
            victims = [t for t in s if (t >> shift) == page]
            for t in victims:
                s.remove(t)
                flushed += 1
        return flushed

    def resident_lines_of_page(self, page: int) -> list[int]:
        shift = self.amap.line_shift
        return [t for s in self.sets for t in s if (t >> shift) == page]

    def resident_lines(self) -> list[int]:
        """All resident line ids (invariant-checker sweep)."""
        return [t for s in self.sets for t in s]

    def clear(self) -> None:
        self.sets = [[] for _ in range(self.n_sets)]
