"""Content-addressed on-disk workload trace cache.

The evaluation matrix replays each application's trace under ~15
(architecture, pressure) cells, and every worker process of a matrix
sweep — plus every fresh CLI invocation — used to regenerate those
traces from scratch.  Generation is deterministic, so the traces are
pure functions of their :class:`~repro.workloads.base.WorkloadSpec`;
this module caches them the same way :class:`~repro.runtime.store.RunStore`
caches results:

* **Keying** — :func:`trace_key` hashes the canonical JSON of
  ``(app, n_nodes, scale, WorkloadSpec fields, trace format version,
  cache schema version)``.  Anything that could change the generated
  arrays changes the key; bumping
  :data:`~repro.sim.trace.TRACE_FORMAT_VERSION` orphans every entry.
* **Artifacts** — one file per workload under ``results/traces/``, in
  the trace file format of :meth:`~repro.sim.trace.WorkloadTraces.save`:
  flat kind and arg arrays behind a JSON header, written atomically so
  concurrent matrix workers cannot tear an entry.  ``get`` memory-maps
  the file read-only (:meth:`~repro.sim.trace.WorkloadTraces.load`), so
  warm processes never decode a workload, and concurrent matrix
  workers share one page-cache copy of its arrays.
* **Memo** — a per-process in-memory layer on top
  (:func:`fetch_traces`), so a warm worker touches each workload once
  per run no matter how many cells share it, and cells served from the
  same process share one ``WorkloadTraces`` object.

A corrupt, stale or foreign file is a *miss*, never an error: the
workload is regenerated and the entry rewritten.  A store that cannot
be written is not an error either: :func:`fetch_traces` keeps the
workload it built and warns once.  The cache changes *when* traces are
built, never *what* is built — ``tests/test_tracecache.py`` pins
cached-vs-regenerated bit-identity.

Which replay loop consumes a trace never enters :func:`trace_key`, for
the same reason it stays out of ``RunSpec.spec_hash()``: the loops are
bit-identical consumers of the same trace arrays.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import warnings
from pathlib import Path

from ..sim.trace import TRACE_FORMAT_VERSION, TRACE_LAYOUT_VERSION, \
    WorkloadTraces

__all__ = ["TRACE_STORE_VERSION", "TraceStore",
           "trace_key", "fetch_traces", "clear_trace_memo",
           "get_default_trace_store", "set_default_trace_store",
           "use_trace_store", "write_soa_sidecar", "attach_soa_sidecar",
           "sample_from_sidecar"]

#: Cache schema version (file naming / keying rules).  Bump when the
#: keying scheme itself changes; old artifacts then stop matching.
TRACE_STORE_VERSION = 1


# The three functions below are the store's whole file I/O.  They keep
# their "sidecar" names, although no second file exists, because the
# benchmark's per-layer tracer wraps them by name, as
# ``tracecache.soa_write``, ``tracecache.soa_attach`` and
# ``workloads.sample``: renaming them is a change to the benchmark.
def write_soa_sidecar(path: Path, traces: WorkloadTraces) -> None:
    """Write *traces* to *path* (atomically; raises ``OSError``)."""
    traces.save(str(path))


def attach_soa_sidecar(path: Path) -> WorkloadTraces:
    """Memory-map the workload at *path* (raises ``OSError``/``ValueError``)."""
    return WorkloadTraces.load(str(path))


def sample_from_sidecar(path: Path, sample) -> WorkloadTraces | None:
    """The *sample* of the workload stored at *path*, or ``None``.

    The full arrays stay memory-mapped while the sampler streams over
    them node by node, so only the reduced workload enters the heap.
    """
    from ..workloads.sample import sample_workload

    try:
        full = WorkloadTraces.load(str(path))
    except (OSError, ValueError):
        return None
    return sample_workload(full, sample)


def trace_key(app: str, scale: float, sample=None, **overrides) -> str:
    """Stable 16-hex content key for one cached workload.

    For generated apps it covers the application name (which selects
    the generator class), the paper node count, the scale, every
    :class:`~repro.workloads.base.WorkloadSpec` field the generator
    consumes, and the trace format + cache schema versions.  For
    external (``ext/``) apps the id already *is* the content identity
    (it embeds the ingested workload's hash), so the payload is the id
    plus the ingest + format versions; scale does not apply.

    A non-null *sample* (:class:`~repro.workloads.sample.SampleSpec`,
    dict, or item pairs) is hashed in additionally, so sampled and full
    artifacts of the same workload can never collide; a null sample
    leaves every pre-sampling key byte-identical.
    """
    from ..workloads.sample import SampleSpec

    if app.startswith("ext/"):
        from ..workloads.ingest import INGEST_FORMAT_VERSION, parse_external_app

        parse_external_app(app)  # validates the id shape
        payload = {
            "app": app,
            "ingest_version": INGEST_FORMAT_VERSION,
            "format_version": TRACE_FORMAT_VERSION,
            "store_version": TRACE_STORE_VERSION,
        }
    else:
        from ..workloads import workload_spec

        spec = workload_spec(app, scale=scale, **overrides)
        payload = {
            "app": app,
            "n_nodes": spec.n_nodes,
            "scale": scale,
            "spec": spec.canonical_dict(),
            "format_version": TRACE_FORMAT_VERSION,
            "store_version": TRACE_STORE_VERSION,
        }
    sample_spec = SampleSpec.from_any(sample)
    if sample_spec is not None:
        payload["sample"] = sample_spec.canonical_dict()
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode())
    return digest.hexdigest()[:16]


class TraceStore:
    """Content-addressed cache of generated workloads under one directory."""

    def __init__(self, root: str | os.PathLike = "results/traces") -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.writes = 0

    # -- paths ----------------------------------------------------------
    def path_for(self, app: str, scale: float, sample=None,
                 **overrides) -> Path:
        # External app ids contain "/" (ext/<name>@<hash>); flatten for
        # the file name — the key suffix keeps entries unambiguous.
        stem = app.replace("/", "_")
        key = trace_key(app, scale, sample=sample, **overrides)
        return self.root / f"{stem}-{key}.trace"

    @staticmethod
    def _name_matches(traces: WorkloadTraces, app: str, sample) -> bool:
        """Does a loaded artifact plausibly belong to *app*?

        Generated workloads store the app name verbatim.  External
        artifacts store the base ``ext/<name>`` (the full id embeds the
        content hash, which cannot name itself), so the hash is checked
        against the workload's own — except for sampled artifacts,
        whose arrays legitimately hash differently from the full
        workload the id names (the sample-keyed path vouches for them).
        """
        if not app.startswith("ext/"):
            return traces.name == app
        from ..workloads.ingest import parse_external_app

        base, content_hash = parse_external_app(app)
        if traces.name != base:
            return False
        return sample is not None or traces.content_hash() == content_hash

    # -- lookup ---------------------------------------------------------
    def get(self, app: str, scale: float, sample=None,
            **overrides) -> WorkloadTraces | None:
        """Cached workload, or ``None`` (never raises on bad files).

        A wrong magic, a stale format or layout version, a file whose
        size does not match its header or a header naming a different
        application all read as a miss; the caller regenerates and
        overwrites.  A non-null *sample* resolves the sampled artifact
        (distinct key, never aliases the full trace).
        """
        from ..workloads.sample import SampleSpec

        sample = SampleSpec.from_any(sample)
        path = self.path_for(app, scale, sample=sample, **overrides)
        try:
            traces = attach_soa_sidecar(path)
        except (OSError, ValueError):
            self.misses += 1
            return None
        if not self._name_matches(traces, app, sample):
            self.misses += 1
            return None
        self.hits += 1
        return traces

    # -- update ---------------------------------------------------------
    def put(self, app: str, scale: float, traces: WorkloadTraces,
            sample=None, **overrides) -> Path:
        """Persist *traces* atomically; returns the artifact's path."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(app, scale, sample=sample, **overrides)
        write_soa_sidecar(path, traces)
        self.writes += 1
        return path

    # -- maintenance ----------------------------------------------------
    def entries(self) -> list[dict]:
        """Summary of every readable artifact, sorted by file name.

        Robust against concurrent mutation: a ``trace-clear`` racing
        this scan (e.g. against a live job server) makes files vanish
        between ``glob`` and ``stat`` — such entries are skipped, never
        an error.
        """
        out = []
        for path in sorted(self.root.glob("*.trace")):
            try:
                traces = WorkloadTraces.load(str(path))
                nbytes = path.stat().st_size
            except (OSError, ValueError):
                continue
            out.append({
                "file": path.name,
                "name": traces.name,
                "n_nodes": traces.n_nodes,
                "events": len(traces.kinds),
                "content_hash": traces.content_hash(),
                "bytes": nbytes,
            })
        return out

    def clear(self) -> int:
        """Delete every artifact; returns how many were removed."""
        removed = 0
        for path in self.root.glob("*.trace"):
            with contextlib.suppress(OSError):
                path.unlink()
                removed += 1
        return removed

    def size_bytes(self) -> int:
        """Total artifact bytes; files vanishing mid-scan count as 0."""
        total = 0
        for path in self.root.glob("*.trace"):
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return total

    def describe(self) -> dict:
        n = len(list(self.root.glob("*.trace"))) if self.root.is_dir() else 0
        return {"root": str(self.root), "entries": n,
                "bytes": self.size_bytes(),
                "format_version": TRACE_FORMAT_VERSION,
                "layout_version": TRACE_LAYOUT_VERSION,
                "store_version": TRACE_STORE_VERSION,
                "session": {"hits": self.hits, "misses": self.misses,
                            "writes": self.writes}}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceStore({str(self.root)!r})"


# -- per-process memo ---------------------------------------------------
#: ``(app, scale, sample pairs, store root or None) -> WorkloadTraces``.
#: Keyed by the store identity so tests pointing at different cache
#: directories never alias each other's entries, and by the sampling
#: policy so sampled and full fetches of one cell coexist.
_memo: dict[tuple, WorkloadTraces] = {}


def clear_trace_memo() -> None:
    """Drop the per-process memo (tests and long-lived daemons)."""
    _memo.clear()


def fetch_traces(app: str, scale: float,
                 store: "TraceStore | None" = None,
                 sample=None) -> WorkloadTraces:
    """Memo -> trace store -> sampling or generation, in order.

    The one entry point the runtime layer uses for workload traces.
    With *store* ``None`` the ambient store applies (``None`` ambient
    means no disk caching — the library/test default); misses are
    written back so the next process starts warm.  A store that cannot
    be written keeps the workload and warns once (:func:`_put`).

    A non-null *sample* resolves the *sampled* workload: a cached
    sampled artifact if one exists, else a sampling of the full fetch
    (memory-mapped on a warm store, so only the reduced arrays enter
    the heap), written back under its own sample-suffixed key.

    External (``ext/``) apps resolve only through the store — there is
    no generator to fall back to; a miss raises with a pointer to
    ``repro ingest``.
    """
    from ..workloads.sample import SampleSpec

    sample = SampleSpec.from_any(sample)
    if store is None:
        store = get_default_trace_store()
    key = (app, scale, str(store.root) if store is not None else None, sample)
    traces = _memo.get(key)
    if traces is not None:
        return traces
    if store is not None:
        traces = store.get(app, scale, sample=sample)
    if traces is None:
        traces = _build(app, scale, store, sample)
        if store is not None:
            _put(store, app, scale, traces, sample)
    _memo[key] = traces
    return traces


def _build(app: str, scale: float, store, sample) -> WorkloadTraces:
    """A workload the store missed: sampled from the full fetch, or generated."""
    if sample is not None:
        from ..workloads.sample import sample_workload

        traces = sample_workload(fetch_traces(app, scale, store), sample)
        if app.startswith("ext/"):
            # The sampled arrays hash differently from the full
            # workload, so record the full hash the id names (the full
            # fetch verified it).
            from ..workloads.ingest import parse_external_app

            traces.params["full_content_hash"] = parse_external_app(app)[1]
        return traces
    if app.startswith("ext/"):
        raise LookupError(
            f"external workload {app!r} is not in the trace store"
            + (f" at {store.root}" if store is not None else
               " (and no trace store is installed)")
            + "; register it first with `repro ingest`")
    from ..workloads import generate_workload

    return generate_workload(app, scale=scale)


#: Store roots whose failed write has already warned in this process.
_unwritable: set[str] = set()


def _put(store: TraceStore, app: str, scale: float, traces: WorkloadTraces,
         sample) -> None:
    """Write back a miss; an unwritable store warns once and is skipped.

    The trace store is a cache: a failed write loses nothing but the
    next process's head start, so the run keeps the workload it built.
    """
    try:
        store.put(app, scale, traces, sample=sample)
    except OSError as exc:
        if str(store.root) not in _unwritable:
            _unwritable.add(str(store.root))
            warnings.warn(f"trace store at {store.root} is unusable ({exc});"
                          " continuing without caching traces",
                          RuntimeWarning, stacklevel=3)


# -- ambient default ----------------------------------------------------
_default_trace_store: TraceStore | None = None


def get_default_trace_store() -> TraceStore | None:
    return _default_trace_store


def set_default_trace_store(store: TraceStore | None) -> None:
    """Install the ambient trace store used when callers don't pass one."""
    global _default_trace_store
    _default_trace_store = store


@contextlib.contextmanager
def use_trace_store(store: TraceStore | None):
    """Scoped ambient trace store: ``with use_trace_store(...): ...``."""
    prev = _default_trace_store
    set_default_trace_store(store)
    try:
        yield store
    finally:
        set_default_trace_store(prev)
