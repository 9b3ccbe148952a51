"""Dynamic page migration for CC-NUMA (extension study).

The paper's Section 2.2 notes that "careful page allocation, migration,
or replication can alleviate [CC-NUMA's conflict-miss] problem ... but
these techniques have to date only been successful for read-only or
non-shared pages".  This module implements that alternative so the
claim can be tested against the hybrids:

:class:`MigratingCCNUMAPolicy` is a CC-NUMA whose directory counts
refetches exactly like the hybrids', but a relocation hint triggers a
**home migration** -- the page's home moves to the hot requester --
instead of an S-COMA remap.  Migration consumes *no* page-cache frame,
so unlike the hybrids it keeps working at 100% memory pressure; but the
engine only permits it when no third node shares the page (the
non-shared gate the paper describes), so widely-shared hot pages see no
benefit at all.

Expected outcome (``benchmarks/test_ext_migration.py``): a clear win on
producer->consumer working sets (one consumer per page) at any memory
pressure, and near-zero effect on the paper's em3d-style workloads,
confirming why hybrids rather than migration won this design space.
"""

from __future__ import annotations

from ..kernel.vm import PageMode
from .policy import ArchitecturePolicy, PolicyNodeState, RelocationDecision
from .rnuma import DEFAULT_RELOCATION_THRESHOLD

__all__ = ["MigratingCCNUMAPolicy"]


class MigratingCCNUMAPolicy(ArchitecturePolicy):
    """CC-NUMA with refetch-triggered home migration of non-shared pages."""

    name = "CCNUMA-MIG"
    uses_page_cache = False
    supports_migration = True

    def __init__(self, threshold: int = DEFAULT_RELOCATION_THRESHOLD) -> None:
        if threshold <= 0:
            raise ValueError("migration threshold must be positive")
        self._threshold = threshold

    def make_node_state(self, row=None) -> PolicyNodeState:
        return PolicyNodeState(threshold=self._threshold, row=row)

    def initial_mode(self, state: PolicyNodeState, free_frames: int) -> int:
        return PageMode.CCNUMA

    def on_relocation_hint(self, state: PolicyNodeState,
                           free_frames: int) -> str:
        return RelocationDecision.MIGRATE

    def describe(self) -> dict:
        return {
            "name": self.name,
            "uses_page_cache": False,
            "remote_overhead": "(Nremote * Tremote) + Tmigration",
            "storage_cost": "Refetch Count: 8 bits per page per node",
            "complexity": [
                "Refetch counter, comparator and interrupt generator",
                "Page copy + home reassignment in the VM kernel",
            ],
            "performance_factors": ["Network speed", "Software overhead",
                                    "Degree of sharing"],
            "threshold": self._threshold,
        }
