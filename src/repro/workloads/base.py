"""Synthetic workload generation framework.

The paper evaluates five SPLASH-2 programs plus Split-C em3d.  We have
no PA-RISC binaries or Paint, so each application is replaced by a
parameterised *trace generator* that reproduces the properties the
paper's analysis (Sections 4.2 and 5) actually attributes results to:

* per-node home and remote working-set sizes (Table 5),
* the fraction of remote pages that stay "hot" (Table 6),
* spatial locality (lines touched per page visit -- drives RAC and L1
  behaviour),
* temporal clustering of visits (drives page-cache effectiveness under
  thrashing),
* phase behaviour (lu's shifting active set),
* compute intensity and synchronisation structure.

Every generator emits the same skeleton: a *prologue* in which each
node first-touches its own home pages (pinning the balanced first-touch
home assignment), then ``sweeps`` compute/access rounds separated by
barriers.  Generation is vectorised with numpy; the replay engine
consumes the resulting arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..mem.address import AddressMap
from ..sim.trace import TraceBuilder, WorkloadTraces

__all__ = ["WorkloadSpec", "SyntheticGenerator", "emit_visits"]


@dataclass(frozen=True)
class WorkloadSpec:
    """Knobs shared by all application generators."""

    name: str
    n_nodes: int = 8
    #: Shared pages whose home is this node (Table 5 "Home pages").
    home_pages_per_node: int = 64
    #: Remote pages each node ever accesses (Table 5 "Maximum remote pages").
    remote_pages_per_node: int = 96
    #: Fraction of those remote pages revisited every sweep ("hot").
    hot_fraction: float = 0.9
    #: Access rounds, each ending in a barrier.
    sweeps: int = 12
    #: Consecutive lines touched per page visit (spatial locality).
    lines_per_visit: int = 16
    #: Consecutive visits to the same page before moving on (temporal
    #: clustering; >1 amortises page faults under thrashing).
    visit_cluster: int = 1
    #: Probability a reference is a write.
    write_fraction: float = 0.2
    #: User compute cycles per shared reference (paper's U-INSTR).
    compute_per_ref: float = 4.0
    #: Private-memory stall cycles per sweep (U-LC-MEM).
    local_cycles_per_sweep: int = 2000
    #: Lines of the node's *own home* pages touched per sweep.
    home_lines_per_sweep: int = 256
    #: Shuffle hot-page visit order every sweep?
    shuffle_visits: bool = True
    #: Scatter remote references at line granularity.  Destroys chunk
    #: adjacency, so the single-chunk RAC stops helping -- the behaviour
    #: of pointer-chasing codes (barnes, em3d).  Ordered streams (fft,
    #: ocean) keep it False and enjoy the RAC.
    scatter_lines: bool = False
    #: Scatter radius in *visits*: references are permuted only within
    #: windows of this many consecutive page visits (0 = whole round).
    #: A bounded window is RAC-hostile yet preserves the page-level
    #: temporal locality real traversals have, which is what lets an
    #: S-COMA page fault amortise over a page's worth of references.
    scatter_window: int = 8
    #: Consecutive touches per line (loads of several words from one
    #: line).  Repeats beyond the first hit the L1; they model the
    #: primary working set the paper notes fits in the 8 KiB cache.
    line_repeats: int = 2
    #: Relative per-node compute jitter (drives SYNC imbalance).
    compute_jitter: float = 0.05
    seed: int = 42

    def __post_init__(self) -> None:
        if self.n_nodes <= 1:
            raise ValueError("need at least two nodes for remote traffic")
        if self.home_pages_per_node <= 0 or self.remote_pages_per_node <= 0:
            raise ValueError("page counts must be positive")
        if not 0 <= self.hot_fraction <= 1:
            raise ValueError("hot_fraction must be in [0, 1]")
        if not 0 <= self.write_fraction <= 1:
            raise ValueError("write_fraction must be in [0, 1]")
        if self.sweeps <= 0 or self.lines_per_visit <= 0 or self.visit_cluster <= 0:
            raise ValueError("sweeps, lines_per_visit and visit_cluster must be positive")

    @property
    def total_shared_pages(self) -> int:
        return self.n_nodes * self.home_pages_per_node

    def ideal_pressure(self) -> float:
        """Table 5's 'Ideal pressure': H / (H + Rmax)."""
        h = self.home_pages_per_node
        return h / (h + self.remote_pages_per_node)

    def canonical_dict(self) -> dict:
        """Every generation-relevant field as plain JSON scalars.

        This is the canonical form the trace cache hashes: two specs
        with equal canonical dicts (plus equal generator class, i.e.
        application name) produce bit-identical traces.  Floats are kept
        as-is — ``json.dumps`` round-trips them exactly — and keys are
        emitted sorted by the hasher, so field declaration order never
        changes a key.
        """
        out = {}
        for name, value in sorted(self.__dict__.items()):
            if isinstance(value, (bool, int, float, str)) or value is None:
                out[name] = value
            else:  # future-proofing: never hash repr of rich objects
                raise TypeError(f"WorkloadSpec.{name} is not a JSON scalar:"
                                f" {type(value).__name__}")
        return out


def emit_visits(builder: TraceBuilder, rng: np.random.Generator,
                pages: np.ndarray, lines_per_visit: int, lines_per_page: int,
                write_fraction: float, compute_per_visit: int,
                scatter: bool = False, line_repeats: int = 1,
                scatter_window: int = 0) -> int:
    """Vectorised emission of one round of page visits.

    For each page in *pages* (repeats allowed -- that is how visit
    clustering and per-sweep revisit multiplicity are expressed), emits
    ``lines_per_visit`` line references starting at a random in-page
    offset, with COMPUTE markers interleaved at visit granularity.

    ``scatter=True`` permutes the round's references at line granularity
    before repeating, destroying the chunk adjacency the RAC depends on.
    ``line_repeats`` emits each line that many times back-to-back (the
    repeats hit the L1).  *lines_per_page* is a power of two, as
    :class:`~repro.mem.address.AddressMap` guarantees.  Returns the
    number of shared references emitted.
    """
    v = len(pages)
    if v == 0:
        return 0
    if lines_per_page & (lines_per_page - 1):
        raise ValueError("lines_per_page must be a power of two")
    ln = lines_per_visit
    offsets = rng.integers(0, lines_per_page, size=v)
    # (V, L) line ids: consecutive within the page, wrapping at the end.
    lines = ((pages * lines_per_page)[:, None]
             + ((offsets[:, None] + np.arange(ln))
                & (lines_per_page - 1))).ravel()
    if scatter:
        # Shuffled in place: the same draws as permuting into copies.
        if scatter_window > 0:
            # Permute within bounded windows of consecutive visits.
            w = scatter_window * ln
            full = (len(lines) // w) * w
            head = lines[:full].reshape(-1, w)
            rng.permuted(head, axis=1, out=head)
            rng.shuffle(lines[full:])
        else:
            rng.shuffle(lines)
    if line_repeats > 1:
        lines = lines.repeat(line_repeats)
    writes = rng.random(len(lines)) < write_fraction

    # One COMPUTE marker per `block` references keeps compute density
    # independent of scatter/repeat settings.  The builder takes the
    # round's arrays over and lays the markers in only when it is built.
    builder.extend_visits(lines, writes, ln * line_repeats,
                          compute_per_visit)
    return len(lines)


class SyntheticGenerator:
    """Reference generator implementing the shared skeleton.

    Application modules subclass this and override the working-set
    construction (:meth:`remote_pages_of`) and/or the per-sweep visit
    plan (:meth:`sweep_visit_pages`).
    """

    def __init__(self, spec: WorkloadSpec, amap: AddressMap | None = None) -> None:
        self.spec = spec
        self.amap = amap or AddressMap()

    # -- overridable structure --------------------------------------------
    def remote_pages_of(self, node: int, rng: np.random.Generator) -> np.ndarray:
        """The set of remote pages *node* ever accesses.

        Default: a random sample of other nodes' pages, biased toward
        neighbouring nodes (producer/consumer locality).
        """
        candidates = self._foreign_pages(node)
        count = min(self.spec.remote_pages_per_node, len(candidates))
        return rng.choice(candidates, size=count, replace=False)

    def _foreign_pages(self, node: int) -> np.ndarray:
        """Every shared page homed on another node, in page order."""
        pages = np.arange(self.spec.total_shared_pages)
        return pages[pages // self.spec.home_pages_per_node != node]

    def sweep_visit_pages(self, node: int, sweep: int, hot: np.ndarray,
                          cold: np.ndarray,
                          rng: np.random.Generator) -> np.ndarray:
        """Pages (with multiplicity) visited by *node* in *sweep*.

        Default: every hot page once (clustered ``visit_cluster`` times),
        plus the cold pages once in the first sweep only.
        """
        pages = hot
        if sweep == 0 and len(cold):
            pages = np.concatenate([cold, hot])
        if self.spec.shuffle_visits:
            pages = rng.permutation(pages)
        if self.spec.visit_cluster > 1:
            pages = np.repeat(pages, self.spec.visit_cluster)
        return pages

    def home_visit_pages(self, node: int, sweep: int,
                         rng: np.random.Generator) -> np.ndarray:
        """Own home pages touched in *sweep* (local traffic)."""
        spec = self.spec
        visits = max(1, spec.home_lines_per_sweep // spec.lines_per_visit)
        first = node * spec.home_pages_per_node
        return rng.integers(first, first + spec.home_pages_per_node,
                            size=visits)

    # -- generation ---------------------------------------------------------
    def generate(self) -> WorkloadTraces:
        spec = self.spec
        amap = self.amap
        lpp = amap.lines_per_page
        builders: list[TraceBuilder] = []
        for node in range(spec.n_nodes):
            rng = np.random.default_rng(spec.seed + 1009 * node)
            jitter = 1.0 + spec.compute_jitter * (rng.random() * 2 - 1)
            compute_per_visit = max(1, int(round(
                spec.compute_per_ref * spec.lines_per_visit
                * spec.line_repeats * jitter)))

            builder = TraceBuilder()
            self._prologue(builder, node)
            builder.barrier(0)

            remote = self.remote_pages_of(node, rng)
            hot_n = int(round(len(remote) * spec.hot_fraction))
            hot, cold = remote[:hot_n], remote[hot_n:]

            for sweep in range(spec.sweeps):
                pages = self.sweep_visit_pages(node, sweep, hot, cold, rng)
                emit_visits(builder, rng, pages, spec.lines_per_visit, lpp,
                            spec.write_fraction, compute_per_visit,
                            scatter=spec.scatter_lines,
                            line_repeats=spec.line_repeats,
                            scatter_window=spec.scatter_window)
                home_pages = self.home_visit_pages(node, sweep, rng)
                emit_visits(builder, rng, home_pages, spec.lines_per_visit,
                            lpp, spec.write_fraction, compute_per_visit,
                            scatter=False, line_repeats=spec.line_repeats)
                builder.local(spec.local_cycles_per_sweep)
                builder.barrier(sweep + 1)
            builders.append(builder)

        # Built coalesced: adjacent COMPUTE/LOCAL runs merge, so the
        # replay engine never iterates over split cycle bursts.
        return WorkloadTraces.from_builders(
            name=spec.name,
            builders=builders,
            home_pages_per_node=spec.home_pages_per_node,
            total_shared_pages=spec.total_shared_pages,
            params={"spec": spec.__dict__ | {"ideal_pressure": spec.ideal_pressure()}},
        )

    def _prologue(self, builder: TraceBuilder, node: int) -> None:
        """First-touch each of the node's own home pages (pins homes)."""
        spec = self.spec
        lpp = self.amap.lines_per_page
        first = node * spec.home_pages_per_node
        pages = np.arange(first, first + spec.home_pages_per_node)
        builder.extend_refs(pages * lpp, np.zeros(len(pages), dtype=bool))
        builder.compute(100)
