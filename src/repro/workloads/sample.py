"""Trace sampling: rate and spatial reduction of reference traces.

The evaluation is bounded by what the trace substrate can hold: the
synthetic generators materialize every per-node reference stream, which
caps ``scale`` and node counts well below a paper-grade sweep at 100x.
This module makes huge workloads tractable the way Cydonia samples
block/cache traces — keep a deterministic fraction of the references,
replay the reduced trace, and report the full-trace metrics through a
documented scale-up estimator with *measured* error bounds
(``docs/sampling.md``).

Two samplers, both working over the workload's flat event arrays
(``kinds``, ``args``, ``offsets``, ``lengths``), so a 100x trace is never
converted to list form and — when it comes from the trace cache,
memory-mapped — never copied whole into the heap:

* **Rate sampling** (``rate=k``) keeps every k-th *barrier epoch*
  (``unit="sweep"``, the default): whole sweeps survive intact, so the
  intra-sweep working set, page-cache pressure and thrashing regime of
  the kept epochs are *exactly* those of the full run — only the
  cross-sweep steady-state assumption remains, which holds for the
  stationary generated workloads.  The epoch phase is a global hash of
  ``seed`` (node-independent, so barrier counts stay aligned), epoch 0
  (first-touch prologue plus cold sweep) is always kept, and kept
  barriers are renumbered densely.  ``unit="visit"`` strides over page
  visits per node (a visit is a maximal run of consecutive references
  to one page — for barrier-poor traces, e.g. ingested block traces)
  and ``unit="ref"`` over raw references; their phase is a hash of
  ``(node, seed)`` and the pre-first-barrier prologue is exempt.

* **Spatial sampling** (``pages=f``) keeps *all* references to a
  hash-selected fraction ``f`` of the shared pages and rescales the
  workload's ``home_pages_per_node`` by ``f``, so per-node page pools,
  page-cache frames and pageout free targets (all derived from it)
  shrink with the working set and miss *ratios* are preserved.

``COMPUTE``/``LOCAL`` cycle bursts are rescaled by the nominal kept
fraction (cumulative-sum rounding, so per-node totals are exact to one
cycle), so the sampled trace replays as a coherent reduced-scale run of
the same program.  The scale-up estimator uses the *measured* reduction
— full over kept shared-reference count, recorded in the workload's
``params["sample"]["scale_factor"]`` at sampling time
(:func:`sample_scale_factor`), which absorbs hash-selection and
stride-phase noise the nominal ``rate/pages`` would leak into every
estimate (:func:`estimated_metrics`); :func:`sampling_error_report`
measures the
estimator against full replay on small configurations, and
:data:`ERROR_ANALYSIS_CONFIGS` + :data:`ERROR_BOUNDS` are the committed
acceptance bounds pinned by ``tests/test_sampling.py``.

Sampling parameters are *workload identity*, not a runtime mode: they
enter :meth:`~repro.runtime.spec.RunSpec.spec_hash` and the trace-cache
key (:func:`~repro.runtime.tracecache.trace_key`), so sampled and full
runs can never collide in either store.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..sim.trace import (EV_BARRIER, EV_COMPUTE, EV_LOCAL, EV_WRITE,
                         WorkloadTraces, coalesce_nodes)

__all__ = ["SAMPLE_FORMAT_VERSION", "SampleSpec", "sample_workload",
           "sample_scale_factor", "trace_memory_bytes", "estimated_metrics",
           "sampling_error", "sampling_error_report", "scaled_home_pages",
           "ERROR_ANALYSIS_CONFIGS", "ERROR_BOUNDS"]

#: Version of the sampling semantics (visit grouping, hash selection,
#: cycle rescaling).  Bump on any change that alters the sampled
#: arrays: trace-cache entries for sampled workloads then stop matching
#: and are regenerated instead of silently misread.
SAMPLE_FORMAT_VERSION = 1

#: Resolution of the spatial page-selection hash: a page is kept iff
#: ``hash % _PAGE_HASH_BUCKETS < round(pages * _PAGE_HASH_BUCKETS)``.
_PAGE_HASH_BUCKETS = 1 << 24


@dataclass(frozen=True)
class SampleSpec:
    """Deterministic description of one trace reduction.

    ``rate=1, pages=1.0`` is the identity (no sampling); anything else
    keys distinct trace-cache and run-store entries.
    """

    #: Keep every ``rate``-th epoch/visit/reference (per ``unit``).
    rate: int = 1
    #: Keep references to this hash-selected fraction of pages.
    pages: float = 1.0
    #: Seeds the stride phase and the page-selection hash.
    seed: int = 0
    #: Rate-sampling granularity.  ``"sweep"`` (default) keeps every
    #: k-th *barrier epoch* — the regime-preserving choice: each kept
    #: epoch replays its full per-sweep working set against the
    #: unmodified page cache, so thrashing behaviour and miss ratios
    #: survive the reduction.  ``"visit"`` strides over page visits
    #: (for barrier-poor traces, e.g. ingested block traces) and
    #: ``"ref"`` over raw references; both stretch per-page revisit
    #: intervals by k, which distorts cache regimes — see
    #: docs/sampling.md for the measured difference.
    unit: str = "sweep"

    def __post_init__(self) -> None:
        if self.rate < 1:
            raise ValueError("sample rate must be >= 1")
        if not 0 < self.pages <= 1:
            raise ValueError("sampled page fraction must be in (0, 1]")
        if self.unit not in ("sweep", "visit", "ref"):
            raise ValueError(f"unknown sample unit {self.unit!r};"
                             " choose 'sweep', 'visit' or 'ref'")

    @property
    def is_null(self) -> bool:
        """True when this spec keeps the trace unchanged."""
        return self.rate == 1 and self.pages >= 1.0

    def keep_fraction(self) -> float:
        """Nominal fraction each COMPUTE/LOCAL burst is rescaled by.

        Epoch sampling drops whole sweeps (their compute goes with
        them), so only the spatial fraction rescales surviving bursts;
        visit/ref striding thins references inside every sweep, so the
        full ``pages/rate`` applies.
        """
        if self.unit == "sweep":
            return self.pages
        return self.pages / self.rate

    def scale_factor(self) -> float:
        """Multiplier reconstructing full-trace metrics from sampled."""
        return self.rate / self.pages

    def canonical_dict(self) -> dict:
        """JSON-scalar form hashed into trace-cache and spec keys."""
        return {"rate": self.rate, "pages": self.pages, "seed": self.seed,
                "unit": self.unit,
                "sample_format_version": SAMPLE_FORMAT_VERSION}

    def to_pairs(self) -> tuple:
        """Sorted item pairs for :class:`~repro.runtime.spec.RunSpec`.

        The null spec collapses to ``()`` so an unsampled
        ``RunSpec``'s canonical form (and therefore every existing
        store key) is unchanged by the sampling feature.
        """
        if self.is_null:
            return ()
        return tuple(sorted(self.canonical_dict().items()))

    @classmethod
    def from_any(cls, value) -> "SampleSpec | None":
        """Normalise ``None`` / SampleSpec / dict / item pairs.

        Returns ``None`` for every spelling of "no sampling", so
        callers can branch on truthiness.
        """
        if value is None:
            return None
        if isinstance(value, SampleSpec):
            return None if value.is_null else value
        if isinstance(value, dict):
            items = value.items()
        else:
            items = value  # item pairs from a frozen RunSpec
        kwargs = {k: v for k, v in items if k != "sample_format_version"}
        spec = cls(**kwargs)
        return None if spec.is_null else spec

    def label(self) -> str:
        """Short human-readable fragment for run labels and logs."""
        suffix = {"sweep": "", "visit": "v", "ref": "r"}[self.unit]
        parts = []
        if self.rate > 1:
            parts.append(f"1/{self.rate}{suffix}")
        if self.pages < 1.0:
            parts.append(f"p{self.pages:g}")
        return "~" + ",".join(parts) if parts else ""


def _node_phase(node: int, seed: int, rate: int) -> int:
    """Deterministic per-node phase of the visit stride (any process)."""
    digest = hashlib.sha256(f"repro-sample:{seed}:{node}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % rate


def _sweep_phase(seed: int, rate: int) -> int:
    """Global phase of the epoch stride.

    Node-independent by construction: every node must keep the *same*
    epochs or the sampled trace's barriers stop aligning.
    """
    digest = hashlib.sha256(f"repro-sample-sweep:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % rate


def _sweep_keep_mask(bars: np.ndarray, offsets: np.ndarray,
                     lengths: np.ndarray,
                     spec: SampleSpec) -> np.ndarray | None:
    """Keep mask over a workload's flat events for epoch (sweep)
    sampling, or ``None``.

    *bars* holds each node's barrier positions in the flat arrays, one
    row per node.  An event belongs to the epoch its terminating
    barrier closes.  Epoch 0 (everything up to and including the first
    barrier) is always kept: it carries the home-pinning first-touch
    prologue and the cold transient, which the estimator treats as
    unscaled.  Of the remaining epochs, every ``rate``-th survives
    (phase hashed from the seed); at least one interior epoch is always
    kept so a rate larger than the sweep count still yields a
    replayable reduction.  Returns ``None`` when the trace has no
    interior epochs to stride over (fewer than two barriers — e.g. an
    ingested trace with only the trailing barrier; use ``unit="visit"``
    there).
    """
    nbar = bars.shape[1]
    if nbar <= 1:
        return None
    phase = _sweep_phase(spec.seed, spec.rate)
    slice_keep = np.zeros(nbar + 1, dtype=bool)
    slice_keep[0] = True          # prologue + cold epoch
    slice_keep[nbar] = True       # unterminated tail after the last barrier
    interior = np.arange(1, nbar)
    slice_keep[interior] = ((interior - 1 + phase) % spec.rate) == 0
    if not slice_keep[1:nbar].any():
        slice_keep[1 + phase % (nbar - 1)] = True
    # Each node's epochs run from its start, past each barrier, to its end.
    bounds = np.column_stack([offsets, bars + 1, offsets + lengths])
    return np.repeat(np.tile(slice_keep, len(bars)),
                     np.diff(bounds, axis=1).ravel())


def _page_keep_mask(pages: np.ndarray, spec: SampleSpec) -> np.ndarray:
    """Vectorised hash selection of kept pages (splitmix64 finaliser)."""
    x = pages.astype(np.uint64)
    x ^= np.uint64((spec.seed * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    cutoff = np.uint64(int(round(spec.pages * _PAGE_HASH_BUCKETS)))
    return (x % np.uint64(_PAGE_HASH_BUCKETS)) < cutoff


def _rescale_cycles(kinds: np.ndarray, args: np.ndarray, keep: np.ndarray,
                    fraction: float) -> np.ndarray:
    """Scale one node's COMPUTE/LOCAL cycles by *fraction*.

    Cumulative-sum rounding over every burst of the node, kept or not:
    burst *i* gets ``floor(S_i * f) - floor(S_{i-1} * f)``, so the
    per-node total is ``floor(total * f)`` regardless of how the bursts
    are split — deterministic, and immune to drift over millions of
    events.  Bursts that scale to zero are dropped from *keep*; returns
    the new cycles of the kept bursts, in order.
    """
    cyc = np.flatnonzero((kinds == EV_COMPUTE) | (kinds == EV_LOCAL))
    scaled = np.floor(np.cumsum(args[cyc], dtype=np.float64) * fraction)
    scaled = np.diff(scaled.astype(np.int64), prepend=np.int64(0))
    keep[cyc[scaled == 0]] = False
    return scaled[keep[cyc]]


def _thin_refs(kinds: np.ndarray, args: np.ndarray, keep: np.ndarray,
               bars: np.ndarray, node: int, spec: SampleSpec,
               lines_per_page: int) -> None:
    """Drop from *keep* one node's references outside the spatial
    sample or the visit/reference stride (*bars*: its barrier
    positions)."""
    ref_idx = np.flatnonzero(kinds <= EV_WRITE)
    if not len(ref_idx):
        return
    pages = args[ref_idx] // lines_per_page
    if spec.pages < 1.0:
        keep[ref_idx[~_page_keep_mask(pages, spec)]] = False
    if spec.rate == 1 or spec.unit == "sweep":
        return
    phase = _node_phase(node, spec.seed, spec.rate)
    if spec.unit == "ref":
        unit_id = np.arange(len(ref_idx), dtype=np.int64)
    else:
        # A visit ends when the page changes between consecutive
        # references or a barrier is crossed.  Line repeats target the
        # same page, so L1-hit pairs stay intact.
        starts = np.ones(len(ref_idx), dtype=bool)
        starts[1:] = pages[1:] != pages[:-1]
        after_bar = np.searchsorted(ref_idx, bars)
        starts[after_bar[after_bar < len(ref_idx)]] = True
        unit_id = np.cumsum(starts) - 1
    sampled_out = (unit_id + phase) % spec.rate != 0
    # Prologue exemption: references before the first barrier pin the
    # first-touch home assignment (only meaningful when the trace has
    # interior barriers; a single trailing barrier — the ingestion
    # default — marks no prologue).
    if len(bars) > 1:
        sampled_out &= ref_idx > bars[0]
    keep[ref_idx[sampled_out]] = False


def scaled_home_pages(home_pages_per_node: int, spec: SampleSpec) -> int:
    """Spatially sampled page-pool size (free targets derive from it)."""
    if spec.pages >= 1.0:
        return home_pages_per_node
    return max(1, int(round(home_pages_per_node * spec.pages)))


def _sample_entry(spec: SampleSpec, full_refs: int, kept_refs: int) -> dict:
    """The ``params["sample"]`` record carried by every sampled workload.

    Besides the spec itself it pins the *measured* reduction: the
    actual kept-reference ratio is the estimator's scale factor
    (:func:`sample_scale_factor`), which self-corrects hash-selection
    and stride-phase noise the nominal ``rate/pages`` factor cannot
    see.
    """
    entry = spec.canonical_dict()
    entry["full_refs"] = int(full_refs)
    entry["kept_refs"] = int(kept_refs)
    entry["scale_factor"] = (full_refs / kept_refs if kept_refs
                             else spec.scale_factor())
    return entry


def sample_workload(traces: WorkloadTraces, sample,
                    lines_per_page: int | None = None) -> WorkloadTraces:
    """The sampled form of *traces* (or *traces* itself for a null spec).

    Works over the workload's flat event arrays: it builds one keep
    mask (epochs from the barrier positions; spatial selection, visit
    or reference striding and zero-cycle drops node by node), copies
    the kept events once into flat output arrays, renumbers barriers
    and rescales cycles there, and coalesces each node's run.  Only the
    kept events and the COMPUTE/LOCAL cycles a rescale needs are read
    from the arguments, so a memory-mapped source (the trace cache's)
    is never copied whole.  The result's page pool is rescaled and its
    params record the sample entry, with the measured scale factor.
    """
    spec = SampleSpec.from_any(sample)
    if spec is None:
        return traces
    if lines_per_page is None:
        from ..mem.address import AddressMap
        lines_per_page = AddressMap().lines_per_page
    kinds, args = traces.kinds, traces.args
    offsets, lengths = traces.offsets, traces.lengths
    full_refs = int(np.count_nonzero(kinds <= EV_WRITE))
    # Every node reaches the same number of barriers: one row each.
    bars = np.flatnonzero(kinds == EV_BARRIER).reshape(traces.n_nodes, -1)
    keep = (_sweep_keep_mask(bars, offsets, lengths, spec)
            if spec.rate > 1 and spec.unit == "sweep" else None)
    renumber = keep is not None
    if not renumber:
        keep = np.ones(len(kinds), dtype=bool)

    thin = spec.pages < 1.0 or (spec.rate > 1 and spec.unit != "sweep")
    fraction = spec.keep_fraction()
    cycles = []
    nodes = list(zip(offsets.tolist(), lengths.tolist()))
    if thin or fraction < 1.0:
        for node, (off, n) in enumerate(nodes):
            view = slice(off, off + n)
            if thin:
                _thin_refs(kinds[view], args[view], keep[view],
                           bars[node] - off, node, spec, lines_per_page)
            if fraction < 1.0:
                cycles.append(_rescale_cycles(kinds[view], args[view],
                                              keep[view], fraction))

    out_kinds = kinds[keep]
    out_args = args[keep]
    out_lengths = [int(np.count_nonzero(keep[off:off + n]))
                   for off, n in nodes]
    del keep
    if renumber:
        # Kept barriers are numbered densely, identically on every node.
        is_bar = out_kinds == EV_BARRIER
        kept = int(np.count_nonzero(is_bar)) // traces.n_nodes
        out_args[is_bar] = np.tile(np.arange(kept), traces.n_nodes)
    if cycles:
        out_args[(out_kinds == EV_COMPUTE)
                 | (out_kinds == EV_LOCAL)] = np.concatenate(cycles)
    out_kinds, out_args, out_lengths = coalesce_nodes(out_kinds, out_args,
                                                      out_lengths)
    kept_refs = int(np.count_nonzero(out_kinds <= EV_WRITE))
    params = dict(traces.params)
    params["sample"] = _sample_entry(spec, full_refs, kept_refs)
    return WorkloadTraces.from_arrays(
        traces.name, out_kinds, out_args, out_lengths,
        scaled_home_pages(traces.home_pages_per_node, spec),
        traces.total_shared_pages, params)


def sample_scale_factor(traces: WorkloadTraces) -> float:
    """The metric scale-up factor recorded in a sampled workload.

    ``1.0`` for unsampled workloads.  Prefers the measured
    kept-reference ratio stamped at sampling time; falls back to the
    nominal ``rate/pages`` when a sampled workload predates (or was
    assembled without) the measurement.
    """
    entry = (traces.params or {}).get("sample")
    if not entry:
        return 1.0
    factor = entry.get("scale_factor")
    if factor:
        return float(factor)
    spec = SampleSpec.from_any(
        {k: v for k, v in entry.items()
         if k in ("rate", "pages", "seed", "unit")})
    return spec.scale_factor() if spec is not None else 1.0


def trace_memory_bytes(traces: WorkloadTraces) -> int:
    """Heap bytes the workload's event arrays occupy.

    Arrays memory-mapped from a trace-cache file count as zero: they
    are shared, reclaimable page-cache pages, not per-run heap.  This
    is the accounting behind the sampled-run memory claim pinned by
    ``tests/test_sampling.py``.
    """
    total = 0
    for arr in (traces.kinds, traces.args):
        base = arr
        while base is not None and not isinstance(base, np.memmap):
            base = base.base
        total += 0 if base is not None else arr.nbytes
    return total


# ---------------------------------------------------------------------------
# Error-analysis harness: sampled + estimator vs. full replay.
# ---------------------------------------------------------------------------

#: The committed error-analysis configurations: small enough to run the
#: *full* trace in CI, in the high-pressure overhead-dominated regimes
#: sampling exists for.  Fields are :func:`sampling_error` kwargs.
#: Measured errors (see docs/sampling.md for the full grid, including
#: the regimes sweep sampling is *not* accurate in) stay within
#: :data:`ERROR_BOUNDS`; ``tests/test_sampling.py`` re-measures and
#: enforces them.
ERROR_ANALYSIS_CONFIGS = (
    {"app": "fft", "arch": "SCOMA", "pressure": 0.9, "scale": 0.25,
     "rate": 4, "pages": 1.0, "seed": 0, "unit": "sweep"},
    {"app": "em3d", "arch": "SCOMA", "pressure": 0.9, "scale": 0.25,
     "rate": 7, "pages": 1.0, "seed": 0, "unit": "sweep"},
    {"app": "em3d", "arch": "SCOMA", "pressure": 0.95, "scale": 0.25,
     "rate": 4, "pages": 1.0, "seed": 0, "unit": "sweep"},
)

#: Committed relative-error acceptance bounds for the configs above.
#: ``cycles`` is parallel execution time, ``toverhead`` the aggregate
#: K_OVERHD bucket (the paper's Toverhead), ``remaps`` the relocation +
#: migration count.  Remaps are a *count* of rare adaptive decisions,
#: inherently noisier under sampling than the cycle metrics — the bound
#: is correspondingly looser.  Measured headroom (2026-08): cycles
#: 0.4-3.4%, toverhead 0.3-3.1%, remaps exact, on the configs above.
ERROR_BOUNDS = {"cycles": 0.05, "toverhead": 0.05, "remaps": 0.5}


def estimated_metrics(result, sample=None, factor: float | None = None) -> dict:
    """Full-trace metric estimates from one sampled run's result.

    Every extensive metric scales by *factor* — pass
    :func:`sample_scale_factor` of the sampled workload for the
    measured ratio (preferred); with ``factor=None`` the nominal
    ``rate/pages`` of *sample* applies (``1.0`` when both are absent).
    Returns cycles (parallel execution time), toverhead (aggregate
    K_OVERHD, the paper's Toverhead) and remaps (relocations +
    migrations).
    """
    if factor is None:
        spec = SampleSpec.from_any(sample)
        factor = spec.scale_factor() if spec is not None else 1.0
    agg = result.aggregate()
    return {
        "cycles": result.execution_time() * factor,
        "toverhead": agg.K_OVERHD * factor,
        "remaps": (agg.relocations + agg.migrations) * factor,
    }


def sampling_error(app: str, arch: str, pressure: float, scale: float,
                   rate: int = 1, pages: float = 1.0, seed: int = 0,
                   unit: str = "sweep") -> dict:
    """Measure the estimator against full replay for one configuration.

    Runs the full and the sampled cell in process (no stores involved;
    the trace memo still dedupes workload generation) and returns the
    full metrics, the estimates, and per-metric relative errors
    ``|est - full| / full`` (0 when the full metric itself is 0).
    """
    from ..runtime.spec import RunSpec
    from ..runtime.tracecache import fetch_traces

    sample = SampleSpec(rate=rate, pages=pages, seed=seed, unit=unit)
    full_wl = fetch_traces(app, scale)
    sampled_wl = sample_workload(full_wl, sample)
    full = RunSpec.make(app, arch, pressure, scale).execute(traces=full_wl)
    sampled = RunSpec.make(app, arch, pressure, scale, sample=sample)\
        .execute(traces=sampled_wl)
    full_metrics = estimated_metrics(full)
    est = estimated_metrics(sampled, sample,
                            factor=sample_scale_factor(sampled_wl))
    errors = {
        key: (abs(est[key] - full_metrics[key]) / full_metrics[key]
              if full_metrics[key] else 0.0)
        for key in full_metrics
    }
    return {"app": app, "arch": arch, "pressure": pressure, "scale": scale,
            "sample": sample.canonical_dict(), "full": full_metrics,
            "estimated": est, "errors": errors,
            "scale_factor": sample_scale_factor(sampled_wl)}


def sampling_error_report(configs=ERROR_ANALYSIS_CONFIGS) -> list[dict]:
    """Run :func:`sampling_error` for every committed configuration."""
    return [sampling_error(**cfg) for cfg in configs]
