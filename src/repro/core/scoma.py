"""Pure S-COMA architecture policy.

Every remote page a node accesses *must* be backed by a frame of the
local page cache before the access can proceed (Section 2.3).  On first
touch the fault handler takes a free frame; chunks of the frame fill
lazily from remote memory on demand (valid bits).  When no free frame
exists, the handler must synchronously evict another S-COMA page --
even a hot one -- flush its lines and remap it, then map the faulting
page.

At low pressure this eliminates remote conflict misses entirely
(``Nremote = 0``); at high pressure the mandatory-mapping rule makes the
page cache thrash like an undersized VM system, and the kernel overhead
(``Toverhead``) skyrockets -- the dramatic S-COMA collapse visible in
every high-pressure bar of Figures 2-3.

Evicted pages return to UNMAPPED (not CC-NUMA): the next access takes a
fresh page fault, which is precisely why pure S-COMA thrashing is so
much more expensive than hybrid thrashing.
"""

from __future__ import annotations

from ..kernel.vm import PageMode
from .policy import ArchitecturePolicy, PolicyNodeState, RelocationDecision

__all__ = ["SCOMAPolicy"]


class SCOMAPolicy(ArchitecturePolicy):
    """All remote pages live in the page cache; eviction unmaps them."""

    name = "SCOMA"
    uses_page_cache = True
    evict_to_ccnuma = False
    mandatory_page_cache = True
    initial_modes = frozenset({PageMode.SCOMA})
    allows_forced_eviction = True  # fault-time eviction when the pool is dry

    def initial_mode(self, state: PolicyNodeState, free_frames: int) -> int:
        # Mandatory: S-COMA has no CC-NUMA fallback.  The node model
        # force-evicts a victim when free_frames == 0.
        return PageMode.SCOMA

    def on_relocation_hint(self, state: PolicyNodeState,
                           free_frames: int) -> str:
        return RelocationDecision.SKIP  # no refetch counting, no hints

    def describe(self) -> dict:
        return {
            "name": self.name,
            "uses_page_cache": True,
            "remote_overhead":
                "(Npagecache * Tpagecache) + (Ncold * Tremote) + Toverhead",
            "storage_cost": "Page cache state: 2 bits/block + 32 bits/page",
            "complexity": [
                "Page cache state lookup",
                "local <-> remote page map",
                "Page-daemon and VM kernel",
            ],
            "performance_factors": ["Network speed", "Software overhead"],
        }
