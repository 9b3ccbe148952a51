"""radix: SPLASH-2 radix sort stand-in.

Paper characterisation (Section 5.2): "radix exhibits almost no spatial
locality.  Every node accesses every page of shared data at some time
during execution.  As such, it is an extreme example of an application
where fine tuning of the S-COMA page cache will backfire -- each page
is roughly as hot as any other, so the page cache should simply be
loaded with some reasonable set of hot pages and left alone."  Its
ideal pressure is very low; pure S-COMA is several times worse than
CC-NUMA already at 30% pressure, R-NUMA approaches 2x CC-NUMA at 90%,
and AS-COMA -- which stops relocating once thrashing is detected --
stays within a few percent of CC-NUMA.  Radix is also where AS-COMA's
S-COMA-first allocation wins the most at 10% pressure (~17% over
R-NUMA/VC-NUMA): the number of pages the other hybrids must relocate is
the largest of any application.

The stand-in: the remote set is *every* other node's page, visited in
random order with single-line references (no spatial locality) but with
short temporal clusters (the permutation writes to one destination
bucket land together), which is what lets a mapped page amortise its
fault before eviction.
"""

from __future__ import annotations

import numpy as np

from ..sim.trace import WorkloadTraces
from .base import SyntheticGenerator, WorkloadSpec

__all__ = ["generate", "default_spec", "RadixGenerator"]


class RadixGenerator(SyntheticGenerator):
    """Every remote page, no spatial locality, clustered visits."""

    def remote_pages_of(self, node: int, rng: np.random.Generator) -> np.ndarray:
        return rng.permutation(self._foreign_pages(node))


def default_spec(n_nodes: int = 8, scale: float = 1.0, seed: int = 3,
                 **overrides) -> WorkloadSpec:
    home = max(8, int(26 * scale))
    params = dict(
        name="radix",
        n_nodes=n_nodes,
        home_pages_per_node=home,
        # Every page of every other node (paper: "every node accesses
        # every page of shared data").
        remote_pages_per_node=home * (n_nodes - 1),
        hot_fraction=1.0,
        sweeps=18,
        lines_per_visit=1,   # no spatial locality
        visit_cluster=6,     # ...but bucket writes cluster in time
        write_fraction=0.05,
        compute_per_ref=2.0,
        line_repeats=1,
        local_cycles_per_sweep=2000,
        home_lines_per_sweep=128,
        compute_jitter=0.05,
        seed=seed,
    )
    params.update(overrides)
    return WorkloadSpec(**params)


def generate(n_nodes: int = 8, scale: float = 1.0, seed: int = 3,
             **overrides) -> WorkloadTraces:
    """Build the radix stand-in workload (ideal pressure ~= 0.12)."""
    return RadixGenerator(default_spec(n_nodes, scale, seed,
                                       **overrides)).generate()
