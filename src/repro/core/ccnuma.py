"""Pure CC-NUMA architecture policy.

Every remote page is mapped straight to its remote home (Section 2.2).
Remote data can only be cached in the processor cache and the small RAC,
so every conflict miss to remote data costs a full remote access:
``(Nremote x Tremote)`` in the paper's Table 1 cost model.  CC-NUMA
never remaps pages, pays no kernel overhead beyond first-touch faults,
and is therefore completely insensitive to memory pressure -- the flat
baseline every other architecture is normalised against in Figures 2-3.
"""

from __future__ import annotations

from ..kernel.vm import PageMode
from .policy import ArchitecturePolicy, PolicyNodeState, RelocationDecision

__all__ = ["CCNUMAPolicy"]


class CCNUMAPolicy(ArchitecturePolicy):
    """Remote pages stay in CC-NUMA mode forever."""

    name = "CCNUMA"
    uses_page_cache = False

    def initial_mode(self, state: PolicyNodeState, free_frames: int) -> int:
        return PageMode.CCNUMA

    def on_relocation_hint(self, state: PolicyNodeState,
                           free_frames: int) -> str:
        # Unreachable in practice (threshold 0 means the directory never
        # generates hints), kept total for safety.
        return RelocationDecision.SKIP

    def describe(self) -> dict:
        return {
            "name": self.name,
            "uses_page_cache": False,
            "remote_overhead": "(Nremote * Tremote)",
            "storage_cost": "None",
            "complexity": "None",
            "performance_factors": ["Network speed"],
        }
