"""Architecture policy interface.

An :class:`ArchitecturePolicy` is what distinguishes CC-NUMA, S-COMA,
R-NUMA, VC-NUMA and AS-COMA in this simulator: the memory hierarchy,
coherence protocol, kernel cost model and workloads are identical across
architectures (as they are in the paper's Paint setup); only the
page-management decisions differ.  A policy decides:

* the **initial mapping mode** of a remote page on first touch
  (Section 3: AS-COMA prefers S-COMA while free pages last; the other
  hybrids and CC-NUMA start in CC-NUMA mode; pure S-COMA has no choice);
* the current **relocation threshold** the directory should apply to
  refetch counters (0 disables counting);
* whether to **act on a relocation hint**, and whether a relocation may
  forcibly evict another page when the free pool is dry;
* how to react to the **pageout daemon's outcome** (thrashing backoff);
* bookkeeping on **page eviction** (VC-NUMA's break-even evaluation).

Policies are stateless singletons; all mutable per-node state lives in a
:class:`PolicyNodeState` so one policy object can serve every node.  The
counters the replay kernel keeps for a policy -- VC-NUMA's break-even
tallies -- are slots of the node's *policy row* (``POL_*`` below), which
the kernel reads and writes in place.
"""

from __future__ import annotations

from ..kernel.freelist import counter_row
from ..kernel.pageout import DaemonRunResult, PageoutDaemon
from ..kernel.vm import PageMode

__all__ = ["ArchitecturePolicy", "N_POL", "POL_EVICTIONS", "POL_LOSERS",
           "POL_WINNERS", "PolicyNodeState", "RelocationDecision"]

#: Slots of a node's policy row: the break-even detector's evictions,
#: losers and winners since its last evaluation (see
#: repro.core.thrashing).  The replay kernel reads these names.
POL_EVICTIONS, POL_LOSERS, POL_WINNERS = range(3)
N_POL = 3


class RelocationDecision:
    """What to do with a relocation hint."""

    RELOCATE = "relocate"          #: take a free frame (or force-evict) and remap
    RELOCATE_IF_FREE = "if_free"   #: remap only if a free frame is available
    MIGRATE = "migrate"            #: move the page's *home* to this node
    SKIP = "skip"                  #: ignore the hint


class PolicyNodeState:
    """Per-node mutable policy state.

    Subclassed by policies that need extra bookkeeping; the base class
    covers the common threshold/enable machinery.  *row* is the node's
    policy row (``N_POL`` ``int64`` slots); a state built without one
    allocates its own.
    """

    __slots__ = ("threshold", "relocation_enabled", "row", "thrash_backoffs",
                 "threshold_recoveries")

    def __init__(self, threshold: int, row=None) -> None:
        self.row = counter_row(N_POL, row)
        self.threshold = threshold
        self.relocation_enabled = threshold > 0
        self.thrash_backoffs = 0
        self.threshold_recoveries = 0

    def effective_threshold(self) -> int:
        """Threshold the directory should enforce (0 = no counting)."""
        return self.threshold if self.relocation_enabled else 0


class ArchitecturePolicy:
    """Base class; concrete architectures override the hooks they need."""

    #: Display name used by the harness ("CCNUMA", "ASCOMA", ...).
    name: str = "base"
    #: Whether this architecture uses local frames as a remote-page cache.
    uses_page_cache: bool = True
    #: Pure S-COMA unmaps evicted pages entirely (next touch re-faults);
    #: hybrids downgrade them to CC-NUMA mode.
    evict_to_ccnuma: bool = True
    #: Pure S-COMA *must* back every remote page with a local frame, so
    #: it force-evicts at fault time and needs a non-empty page cache.
    mandatory_page_cache: bool = False

    # -- declarative protocol surface (consumed by repro.check) ---------
    #: Page modes a first touch of a *remote* page may legally yield.
    #: (HOME is always legal for locally-homed pages and is not listed.)
    initial_modes: frozenset = frozenset({PageMode.CCNUMA})
    #: May a CC-NUMA page be upgraded to S-COMA mode after a hint?
    supports_relocation: bool = False
    #: May a relocation hint move the page's *home* instead?
    supports_migration: bool = False
    #: May the architecture evict an S-COMA page outside a daemon run
    #: (at fault or relocation time, possibly sacrificing a hot page)?
    allows_forced_eviction: bool = False
    #: Does the pageout daemon drive a threshold backoff whose
    #: monotonicity holds between consecutive runs?  (AS-COMA's software
    #: backoff; VC-NUMA adjusts at *eviction* time, so it is excluded.)
    daemon_backoff: bool = False

    def make_node_state(self, row=None) -> PolicyNodeState:
        """Fresh per-node state over policy row *row* (see
        :class:`PolicyNodeState`)."""
        return PolicyNodeState(threshold=0, row=row)

    # -- hooks ----------------------------------------------------------
    def initial_mode(self, state: PolicyNodeState, free_frames: int) -> int:
        """Mapping mode for a first-touch to a *remote* page."""
        raise NotImplementedError

    def on_relocation_hint(self, state: PolicyNodeState,
                           free_frames: int) -> str:
        """React to a piggybacked relocation hint from the directory."""
        return RelocationDecision.SKIP

    def on_daemon_result(self, state: PolicyNodeState,
                         result: DaemonRunResult,
                         daemon: PageoutDaemon) -> None:
        """React to a pageout-daemon run (thrashing backoff lives here)."""

    def on_page_evicted(self, state: PolicyNodeState, page: int,
                        pagecache_hits: int, cached_pages: int) -> None:
        """Bookkeeping when one of the node's S-COMA pages is evicted.

        *cached_pages* is the node's S-COMA page count just before this
        eviction.
        """

    def describe(self) -> dict:
        """Static description used by the Table 2 cost/complexity emitter."""
        return {"name": self.name, "uses_page_cache": self.uses_page_cache}
