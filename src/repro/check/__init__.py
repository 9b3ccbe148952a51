"""Online invariant checking and deterministic failure replay.

Off by default and always available: attach an
:class:`InvariantChecker` to any :class:`~repro.sim.engine.Engine` to
validate coherence/page-management invariants while the simulation
runs, capture violations into a :class:`ReproBundle`, replay them
deterministically, and minimise the failing trace with
:class:`TraceShrinker`.  See ``docs/invariants.md``.
"""

from .bundle import ReproBundle, config_from_dict, config_to_dict
from .checker import GRANULARITIES, InvariantChecker
from .invariants import (STRUCTURAL_CHECKS, Violation, check_cache_reachability,
                         check_directory_swmr, check_frame_accounting,
                         check_page_table, check_rac_exclusivity)
from .shrink import TraceShrinker, shrink_bundle

__all__ = [
    "GRANULARITIES",
    "InvariantChecker",
    "ReproBundle",
    "STRUCTURAL_CHECKS",
    "TraceShrinker",
    "Violation",
    "check_cache_reachability",
    "check_directory_swmr",
    "check_frame_accounting",
    "check_page_table",
    "check_rac_exclusivity",
    "config_from_dict",
    "config_to_dict",
    "shrink_bundle",
]
