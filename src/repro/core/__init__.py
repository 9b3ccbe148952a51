"""The paper's memory-architecture policies and analytic cost model."""

from .analytic import MissCounts, RemoteOverheadModel, TABLE1_ROWS, TABLE2_ROWS
from .ascoma import ASCOMAPolicy, DEFAULT_THRESHOLD_INCREMENT
from .ccnuma import CCNUMAPolicy
from .migration import MigratingCCNUMAPolicy
from .policy import ArchitecturePolicy, PolicyNodeState, RelocationDecision
from .rnuma import DEFAULT_RELOCATION_THRESHOLD, RNUMAPolicy
from .scoma import SCOMAPolicy
from .thrashing import AdaptiveBackoff, BreakEvenDetector
from .vcnuma import DEFAULT_BREAK_EVEN, VCNUMAPolicy

#: Factory registry used by the harness ("--arch ascoma" etc.).
POLICIES = {
    "CCNUMA": CCNUMAPolicy,
    "CCNUMAMIG": MigratingCCNUMAPolicy,
    "SCOMA": SCOMAPolicy,
    "RNUMA": RNUMAPolicy,
    "VCNUMA": VCNUMAPolicy,
    "ASCOMA": ASCOMAPolicy,
}


def canonical_arch(name: str) -> str:
    """The one spelling of an architecture name (``"as-coma"`` ->
    ``"ASCOMA"``): the :data:`POLICIES` key, the run spec's hash input
    and its display form."""
    return name.upper().replace("-", "").replace("_", "")


def make_policy(name: str, **kwargs) -> ArchitecturePolicy:
    """Instantiate a policy by (case-insensitive) name."""
    try:
        return POLICIES[canonical_arch(name)](**kwargs)
    except KeyError:
        raise ValueError(
            f"unknown architecture {name!r}; choose from {sorted(POLICIES)}"
        ) from None


__all__ = [
    "ASCOMAPolicy",
    "AdaptiveBackoff",
    "ArchitecturePolicy",
    "BreakEvenDetector",
    "CCNUMAPolicy",
    "DEFAULT_BREAK_EVEN",
    "DEFAULT_RELOCATION_THRESHOLD",
    "DEFAULT_THRESHOLD_INCREMENT",
    "MigratingCCNUMAPolicy",
    "MissCounts",
    "POLICIES",
    "PolicyNodeState",
    "RNUMAPolicy",
    "RelocationDecision",
    "RemoteOverheadModel",
    "SCOMAPolicy",
    "TABLE1_ROWS",
    "TABLE2_ROWS",
    "VCNUMAPolicy",
    "canonical_arch",
    "make_policy",
]
