"""AS-COMA: the paper's adaptive hybrid architecture (Section 3).

AS-COMA differs from R-NUMA/VC-NUMA in exactly two ways, both modelled
here:

1. **S-COMA-first allocation.**  While the local free page pool has
   frames, first-touched remote pages are mapped directly in S-COMA
   mode, so at low memory pressure the node behaves like a pure S-COMA
   machine: no remote conflict misses, no relocation interrupts, no
   flush-induced cold misses.  Once the pool drains, new pages fall back
   to CC-NUMA mode and must earn promotion through refetches.

2. **Software thrashing backoff.**  The pageout daemon *is* the
   thrashing detector: whenever it cannot reclaim ``free_target`` cold
   pages, the node (a) raises the relocation threshold by a fixed
   increment, (b) stretches the daemon's own invocation interval, and
   (c) after enough consecutive failures disables CC-NUMA -> S-COMA
   relocation entirely.  When cold pages reappear (a program phase
   change), the threshold walks back down and relocation resumes.

Additionally, AS-COMA never force-evicts to satisfy a relocation: a
hint arriving when the pool is dry is dropped (the page stays in
CC-NUMA mode).  This is the "back pressure on the replacement
mechanism" that keeps a reasonable subset of hot pages resident instead
of letting equally-hot pages replace each other -- the behaviour that
lets AS-COMA converge to CC-NUMA-or-better performance at 90% memory
pressure where R-NUMA and VC-NUMA fall off a cliff.
"""

from __future__ import annotations

from ..kernel.pageout import DaemonRunResult, PageoutDaemon
from ..kernel.vm import PageMode
from .policy import ArchitecturePolicy, PolicyNodeState, RelocationDecision
from .rnuma import DEFAULT_RELOCATION_THRESHOLD
from .thrashing import AdaptiveBackoff

__all__ = ["ASCOMAPolicy", "DEFAULT_THRESHOLD_INCREMENT"]

#: Amount added to the relocation threshold per thrashing daemon run.
DEFAULT_THRESHOLD_INCREMENT = 32


class ASCOMANodeState(PolicyNodeState):
    """Per-node adaptive backoff state."""

    __slots__ = ("backoff",)

    def __init__(self, threshold: int, increment: int, disable_after: int,
                 row=None) -> None:
        super().__init__(threshold, row)
        self.backoff = AdaptiveBackoff(base_threshold=threshold,
                                       increment=increment,
                                       disable_after=disable_after)

    def effective_threshold(self) -> int:
        return self.backoff.effective_threshold()


class ASCOMAPolicy(ArchitecturePolicy):
    """S-COMA-first allocation + adaptive relocation backoff."""

    name = "ASCOMA"
    uses_page_cache = True
    initial_modes = frozenset({PageMode.SCOMA, PageMode.CCNUMA})
    supports_relocation = True
    # AS-COMA never force-evicts: hints are dropped when the pool is dry.

    def __init__(self, threshold: int = DEFAULT_RELOCATION_THRESHOLD,
                 increment: int = DEFAULT_THRESHOLD_INCREMENT,
                 disable_after: int = 4,
                 scoma_first: bool = True,
                 adaptive: bool = True) -> None:
        """``scoma_first`` and ``adaptive`` exist for the ablation benches:
        turning either off isolates the contribution of one of the
        paper's two improvements."""
        if threshold <= 0 or increment <= 0 or disable_after <= 0:
            raise ValueError("AS-COMA parameters must be positive")
        self._threshold = threshold
        self._increment = increment
        self._disable_after = disable_after
        self.scoma_first = scoma_first
        self.adaptive = adaptive
        #: instance-level: ablations with adaptive=False have no backoff.
        self.daemon_backoff = adaptive
        if not scoma_first:
            self.initial_modes = frozenset({PageMode.CCNUMA})

    def make_node_state(self, row=None) -> ASCOMANodeState:
        return ASCOMANodeState(self._threshold, self._increment,
                               self._disable_after, row)

    def initial_mode(self, state: PolicyNodeState, free_frames: int) -> int:
        if self.scoma_first and free_frames > 0:
            return PageMode.SCOMA
        return PageMode.CCNUMA

    def on_relocation_hint(self, state: PolicyNodeState,
                           free_frames: int) -> str:
        # Never force-evict a (by definition hot) resident page just to
        # install another hot page.
        return RelocationDecision.RELOCATE_IF_FREE

    def on_daemon_result(self, state: PolicyNodeState,
                         result: DaemonRunResult,
                         daemon: PageoutDaemon) -> None:
        if not self.adaptive:
            return
        assert isinstance(state, ASCOMANodeState)
        if result.thrashing:
            state.backoff.on_thrash(daemon)
            state.thrash_backoffs += 1
        else:
            state.backoff.on_recovered(daemon)
            state.threshold_recoveries += 1

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
                "Page-daemon and VM kernel (thrash detection in software)",
                "Refetch counter, comparator and interrupt generator",
            ],
            "performance_factors": ["Network speed", "Software overhead"],
            "threshold": self._threshold,
            "increment": self._increment,
            "backoff": "software, pageout-daemon driven; disables"
                       f" relocation after {self._disable_after} consecutive"
                       " thrashing runs",
            "scoma_first": self.scoma_first,
            "adaptive": self.adaptive,
        }
