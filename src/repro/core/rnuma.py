"""R-NUMA (Wisconsin reactive CC-NUMA) architecture policy.

Falsafi & Wood, ISCA'97, as characterised in Section 2.4 of the AS-COMA
paper.  R-NUMA starts every remote page in CC-NUMA mode; the home
directory counts per-page per-node *refetches* (requests from a node
already in the chunk's copyset).  When a counter crosses the relocation
threshold (64 refetches), the response piggybacks a hint and the
requesting node remaps the page to a local S-COMA frame.

Two design choices make R-NUMA collapse at high pressure, and both are
modelled here:

1. it "initially maps all pages in CC-NUMA mode, and only upgrades them
   after some number of remote refetches", wasting a free page cache at
   low pressure; and
2. it "always upgrades pages to S-COMA mode when their refetch threshold
   is exceeded, even if it must evict another hot page to do so" -- no
   backoff whatsoever, so at high pressure equally-hot pages evict each
   other continuously and kernel overhead explodes.
"""

from __future__ import annotations

from ..kernel.vm import PageMode
from .policy import ArchitecturePolicy, PolicyNodeState, RelocationDecision

__all__ = ["RNUMAPolicy", "DEFAULT_RELOCATION_THRESHOLD"]

#: The paper's initial relocation threshold, shared by all three hybrids.
DEFAULT_RELOCATION_THRESHOLD = 64


class RNUMAPolicy(ArchitecturePolicy):
    """CC-NUMA-first with unconditional relocation at a fixed threshold."""

    name = "RNUMA"
    uses_page_cache = True
    supports_relocation = True
    allows_forced_eviction = True  # relocates even over a hot victim

    def __init__(self, threshold: int = DEFAULT_RELOCATION_THRESHOLD) -> None:
        if threshold <= 0:
            raise ValueError("relocation threshold must be positive")
        self._threshold = threshold

    def make_node_state(self, row=None) -> PolicyNodeState:
        return PolicyNodeState(threshold=self._threshold, row=row)

    def initial_mode(self, state: PolicyNodeState, free_frames: int) -> int:
        return PageMode.CCNUMA

    def on_relocation_hint(self, state: PolicyNodeState,
                           free_frames: int) -> str:
        # Unconditional: relocate even if a hot victim must be evicted.
        return RelocationDecision.RELOCATE

    def describe(self) -> dict:
        return {
            "name": self.name,
            "uses_page_cache": True,
            "remote_overhead":
                "(Npagecache * Tpagecache) + (Nremote * Tremote)"
                " + (Ncold * Tremote) + Toverhead",
            "storage_cost": "Page cache state + refetch count:"
                            " 2 bits/block + 32 bits/page + 8 bits/page/node",
            "complexity": [
                "Page cache state controller",
                "local <-> remote page map",
                "Page-daemon and VM kernel",
                "Refetch counter, comparator and interrupt generator",
            ],
            "performance_factors": ["Network speed", "Software overhead"],
            "threshold": self._threshold,
            "backoff": None,
        }
