"""Home-page allocation policies.

Paper, Section 4.1: "We extended the first touch allocation algorithm to
distribute home pages equally to nodes by limiting the number of home
pages that are allocated at each node to a proportional share of the
total number of pages.  Once this limit is reached, remaining pages are
allocated in a round robin fashion to nodes that have not reached the
limit."  :class:`HomeAllocator` implements exactly that.

The paper also cites simpler placement policies (Marchetti et al.,
Bolosky et al.) as the CC-NUMA state of the art;
:class:`RoundRobinAllocator` and :class:`RandomAllocator` implement the
locality-blind alternatives so the placement study
(``benchmarks/test_ext_placement.py``) can quantify what balanced
first-touch buys.

An allocator assigns a *home node* to each shared page the first time
any node in the machine touches it, and stays sticky afterwards.  The
assignments are a dense ``int64`` buffer (``-1`` = unassigned), and the
round-robin cursor and per-node home counts one ``int64`` row (``AL_*``
slots below); the replay kernel reads and writes both in place, running
the same choice for the variant :data:`PLACEMENT_CODES` names.
"""

from __future__ import annotations

import numpy as np

from .freelist import row_slot
from .vm import DEFAULT_PAGES

__all__ = ["AL_COUNT", "AL_RR", "HomeAllocator", "PLACEMENT_CODES",
           "RandomAllocator", "RoundRobinAllocator", "make_allocator"]

#: Slots of the allocator row: the round-robin cursor, then one
#: home-page count per node from ``AL_COUNT`` on.  The replay kernel
#: reads these names.
AL_RR, AL_COUNT = range(2)


class HomeAllocator:
    """Machine-wide home-node assignment for shared pages.

    *n_pages* sizes the assignment buffer (a machine passes the pages
    its workload references); it always covers *total_shared_pages*.
    """

    def __init__(self, n_nodes: int, total_shared_pages: int,
                 n_pages: int = DEFAULT_PAGES) -> None:
        if n_nodes <= 0:
            raise ValueError("need at least one node")
        if total_shared_pages < 0:
            raise ValueError("total_shared_pages must be non-negative")
        self.n_nodes = n_nodes
        # Proportional share, rounded up so the quotas cover all pages.
        self.quota = -(-total_shared_pages // n_nodes) if total_shared_pages else 0
        #: page -> home node; -1 means not yet assigned.
        self.home = memoryview(np.full(max(n_pages, total_shared_pages), -1,
                                       np.int64))
        #: The cursor and count row (see the ``AL_*`` slots).
        self.row = memoryview(np.zeros(AL_COUNT + n_nodes, np.int64))
        #: node -> home pages assigned to it.
        self.count = self.row[AL_COUNT:]

    _rr_next = row_slot(AL_RR)

    def home_of(self, page: int, toucher: int) -> int:
        """Return *page*'s home node, assigning it on the first touch."""
        node = self.home[page]
        if node != -1:
            return node
        if not 0 <= toucher < self.n_nodes:
            raise ValueError(f"toucher {toucher} out of range")
        if self.quota == 0 or self.count[toucher] < self.quota:
            node = toucher
        else:
            node = self._next_under_quota()
        self.home[page] = node
        self.count[node] += 1
        return node

    def _next_under_quota(self) -> int:
        """Round-robin over nodes that still have quota headroom."""
        for _ in range(self.n_nodes):
            candidate = self._rr_next
            self._rr_next = (self._rr_next + 1) % self.n_nodes
            if self.count[candidate] < self.quota:
                return candidate
        # Every node at quota (rounding slack exhausted): spill to the
        # least-loaded node to preserve balance.
        return min(range(self.n_nodes), key=self.count.__getitem__)

    def migrate(self, page: int, new_home: int) -> int:
        """Reassign *page*'s home (dynamic page migration extension).

        Returns the previous home.  Quota accounting follows the page so
        balance statistics stay meaningful.
        """
        if not 0 <= new_home < self.n_nodes:
            raise ValueError(f"new_home {new_home} out of range")
        old = self.home[page]
        if old == -1:
            raise KeyError(f"page {page} has no home yet")
        if old != new_home:
            self.home[page] = new_home
            self.count[old] -= 1
            self.count[new_home] += 1
        return old

    def assigned(self, page: int) -> bool:
        return self.home[page] != -1

    def pages_homed_at(self, node: int) -> int:
        return self.count[node]

    def imbalance(self) -> int:
        """Max - min home pages across nodes (0 is perfectly balanced)."""
        return max(self.count) - min(self.count) if self.count else 0


class RoundRobinAllocator(HomeAllocator):
    """Locality-blind placement: pages are homed strictly round-robin.

    Perfectly balanced by construction but ignores who touches the data
    -- the baseline the paper's extended first-touch improves on.
    """

    def home_of(self, page: int, toucher: int) -> int:
        node = self.home[page]
        if node != -1:
            return node
        if not 0 <= toucher < self.n_nodes:
            raise ValueError(f"toucher {toucher} out of range")
        node = self._rr_next
        self._rr_next = (self._rr_next + 1) % self.n_nodes
        self.home[page] = node
        self.count[node] += 1
        return node


class RandomAllocator(HomeAllocator):
    """Locality-blind placement: pages are homed pseudo-randomly.

    Deterministic given the seed (hash of page id), so runs remain
    reproducible.
    """

    def __init__(self, n_nodes: int, total_shared_pages: int,
                 n_pages: int = DEFAULT_PAGES, seed: int = 12345) -> None:
        super().__init__(n_nodes, total_shared_pages, n_pages)
        self.seed = seed

    def home_of(self, page: int, toucher: int) -> int:
        node = self.home[page]
        if node != -1:
            return node
        if not 0 <= toucher < self.n_nodes:
            raise ValueError(f"toucher {toucher} out of range")
        # Full splitmix64 finalizer: uniform low bits, deterministic.
        mask = (1 << 64) - 1
        x = (page * 0x9E3779B97F4A7C15 + self.seed) & mask
        x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & mask
        x = (x ^ (x >> 27)) * 0x94D049BB133111EB & mask
        x ^= x >> 31
        node = x % self.n_nodes
        self.home[page] = node
        self.count[node] += 1
        return node


#: Registry used by SystemConfig.home_placement.
_ALLOCATORS = {
    "first-touch": HomeAllocator,
    "round-robin": RoundRobinAllocator,
    "random": RandomAllocator,
}

#: The replay kernel's code for each allocator class's ``home_of``,
#: which it reads by the class's name.
PLACEMENT_CODES = {HomeAllocator: 0, RoundRobinAllocator: 1,
                   RandomAllocator: 2}


def make_allocator(policy: str, n_nodes: int, total_shared_pages: int,
                   n_pages: int = DEFAULT_PAGES):
    """Instantiate a home-placement policy by name."""
    try:
        cls = _ALLOCATORS[policy]
    except KeyError:
        raise ValueError(f"unknown home placement {policy!r}; choose from"
                         f" {sorted(_ALLOCATORS)}") from None
    return cls(n_nodes, total_shared_pages, n_pages)
