"""VC-NUMA (USC victim-cache NUMA) relocation policy.

Moga & Dubois, HPCA'98, as characterised in Section 2.4.  Like R-NUMA,
VC-NUMA starts remote pages in CC-NUMA mode and relocates hot pages to
S-COMA frames at a refetch threshold.  Unlike R-NUMA it carries a
hardware thrashing-detection scheme built from a per-S-COMA-page refetch
counter, a programmable *break-even number* (how many page-cache hits a
relocation must yield to repay its cost) and an evaluation cadence tied
to the replacement rate.

Following the paper's methodology (Section 4.1): "We did not simulate
VC-NUMA's victim-cache behavior, because we considered the use of
non-commodity processors or busses to be beyond the scope of this study.
Thus, the results reported for VC-NUMA are only relevant for evaluating
its relocation strategy."  This class models exactly that relocation
strategy: threshold relocation plus break-even backoff, with the
evaluation performed only "when an average of two replacements per
cached page have occurred" -- a cadence the paper shows reacts too
slowly at moderate-to-high pressure.
"""

from __future__ import annotations

from ..kernel.vm import PageMode
from .policy import ArchitecturePolicy, PolicyNodeState, RelocationDecision
from .rnuma import DEFAULT_RELOCATION_THRESHOLD
from .thrashing import BreakEvenDetector

__all__ = ["VCNUMAPolicy", "DEFAULT_BREAK_EVEN"]

#: VC-NUMA's break-even number of page-cache hits per relocation.
DEFAULT_BREAK_EVEN = 32


class VCNUMANodeState(PolicyNodeState):
    """Adds the break-even detector."""

    __slots__ = ("detector",)

    def __init__(self, threshold: int, break_even: int, increment: int,
                 min_evictions_per_eval: int, row=None) -> None:
        super().__init__(threshold, row)
        self.detector = BreakEvenDetector(
            break_even=break_even, base_threshold=threshold,
            increment=increment,
            min_evictions_per_eval=min_evictions_per_eval, row=self.row)

    def effective_threshold(self) -> int:
        # The detector owns the live threshold.
        return self.detector.threshold if self.relocation_enabled else 0


class VCNUMAPolicy(ArchitecturePolicy):
    """Threshold relocation with hardware break-even thrash detection."""

    name = "VCNUMA"
    uses_page_cache = True
    supports_relocation = True
    allows_forced_eviction = True  # relocation is unconditional, like R-NUMA

    def __init__(self, threshold: int = DEFAULT_RELOCATION_THRESHOLD,
                 break_even: int = DEFAULT_BREAK_EVEN,
                 increment: int = 32,
                 min_evictions_per_eval: int = 32) -> None:
        if threshold <= 0:
            raise ValueError("relocation threshold must be positive")
        self._threshold = threshold
        self._break_even = break_even
        self._increment = increment
        self._min_evictions_per_eval = min_evictions_per_eval

    def make_node_state(self, row=None) -> VCNUMANodeState:
        return VCNUMANodeState(self._threshold, self._break_even,
                               self._increment, self._min_evictions_per_eval,
                               row)

    def initial_mode(self, state: PolicyNodeState, free_frames: int) -> int:
        return PageMode.CCNUMA

    def on_relocation_hint(self, state: PolicyNodeState,
                           free_frames: int) -> str:
        # Relocation itself is unconditional, like R-NUMA; the backoff
        # acts through the threshold, not by vetoing individual hints.
        return RelocationDecision.RELOCATE

    def on_page_evicted(self, state: PolicyNodeState, page: int,
                        pagecache_hits: int, cached_pages: int) -> None:
        assert isinstance(state, VCNUMANodeState)
        state.detector.record_eviction(pagecache_hits, max(1, cached_pages))

    def describe(self) -> dict:
        return {
            "name": self.name,
            "uses_page_cache": True,
            "remote_overhead":
                "(Npagecache * Tpagecache) + (Nremote * Tremote)"
                " + (Ncold * Tremote) + Toverhead",
            "storage_cost": "Page cache state + per-page refetch counter"
                            " (victim tags in the real design)",
            "complexity": [
                "Page cache state controller",
                "local <-> remote page map",
                "Page-daemon and VM kernel",
                "Break-even comparator (hardware thrash detection)",
            ],
            "performance_factors": ["Network speed", "Software overhead"],
            "threshold": self._threshold,
            "break_even": self._break_even,
            "backoff": "hardware break-even, evaluated every"
                       " ~2 replacements per cached page",
        }
