"""Batch execution of RunSpecs: dedupe, cache, isolate, retry, resume.

This is the one engine every harness entry point (CLI, figures, tables,
claims, benchmarks) funnels through.  Guarantees:

* **Dedupe before dispatch** — identical specs are simulated once, and
  results fan back out to every requesting position.
* **Store-backed resume** — with a :class:`~repro.runtime.store.RunStore`
  attached, cached cells are served from disk and only missing (or
  previously failed — failures are never stored) cells are simulated,
  so an interrupted matrix sweep restarts where it left off.
* **Fault isolation** — a failing cell yields a
  :class:`~repro.runtime.spec.RunFailure` naming its spec instead of
  killing the whole process pool.
* **Optional retry** — transient failures can be retried per cell.
* **Progress** — an optional callback sees one event per cell
  (``"hit" | "run" | "fail" | "store-fail"``); :func:`log_progress`
  prints them.
* **Store-fault isolation** — a raising ``store.put`` (disk full,
  permissions, corrupt store dir) after a successful simulation keeps
  the :class:`~repro.sim.stats.RunResult` and surfaces a
  ``"store-fail"`` progress event instead of killing the sweep.

Observability (PR 5): with a :class:`~repro.obs.SpanRecorder` attached
(explicitly via ``obs=`` or ambiently via
:func:`repro.obs.use_obs` — the CLI's ``--obs`` installs one), the
executor records per-cell wall-clock spans (``prewarm``, ``dispatch``,
``cell``, ``simulate``, ``store_put``) and cell events into a JSONL
telemetry run, and each simulated cell additionally collects the
adaptive-backoff time series through a kind-filtered
:class:`~repro.obs.BackoffTelemetry`.  Pool workers buffer their
records in memory and the parent merges them into the sink.  With no
recorder attached every instrumentation site is one ``is None`` check.

Matrix-throughput machinery (PR 4): before dispatching, the parent
pre-warms each distinct ``(app, scale)`` workload through the trace
cache — forked workers inherit the traces, and on spawn platforms the
pool *initializer* re-installs the ambient
:class:`~repro.runtime.tracecache.TraceStore` and pre-imports the
simulator so a worker's first cell pays no import/generation cost.
Cells dispatch costliest-first (LPT, see :mod:`repro.runtime.costs`)
in chunks sized to amortise pickle round-trips.
"""

from __future__ import annotations

import contextlib
import os
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor

from ..obs import get_default_obs, worker_recorder
from ..sim.stats import RunResult
from .costs import lpt_order, submit_chunksize
from .spec import RunFailure, RunSpec
from .store import get_default_refresh, get_default_store
from .tracecache import get_default_trace_store

__all__ = ["execute", "execute_spec", "run_spec", "log_progress"]


def _span(obs, name: str, **fields):
    """Optional span: a no-op context manager when obs is off."""
    return (obs.span(name, **fields) if obs is not None
            else contextlib.nullcontext())


def run_spec(spec: RunSpec, retries: int = 0, check: bool = False,
             obs=None) -> RunResult | RunFailure:
    """Execute one spec, converting exceptions into :class:`RunFailure`.

    With an *obs* :class:`~repro.obs.SpanRecorder`, each attempt is
    wrapped in a ``cell`` span containing a ``simulate`` span, and a
    successful simulation's backoff time series (collected through a
    kind-filtered :class:`~repro.obs.BackoffTelemetry`) is merged into
    the record stream together with one ``backoff_summary`` record.
    """
    attempt = 0
    while True:
        try:
            if obs is None:
                return spec.execute(check=check)
            from ..obs import BackoffTelemetry
            telemetry = BackoffTelemetry()
            with obs.span("cell", spec=spec, attempt=attempt):
                with obs.span("simulate", spec=spec):
                    result = spec.execute(check=check, telemetry=telemetry)
                obs.backoff_rows(spec, telemetry.rows)
                obs.emit("backoff_summary", spec=spec.label(),
                         spec_hash=spec.spec_hash(), **telemetry.counters())
            return result
        except Exception as exc:  # noqa: BLE001 - isolation is the point
            if attempt >= retries:
                return RunFailure(spec, f"{type(exc).__name__}: {exc}",
                                  traceback.format_exc())
            attempt += 1


def _pool_worker(payload: tuple) -> tuple:
    """Module-level so it pickles for :class:`ProcessPoolExecutor`.

    Returns ``(outcome, records)``: *records* is the worker-side
    telemetry buffer to merge in the parent (``None`` with obs off —
    workers never write to the JSONL sink themselves).
    """
    spec, retries, check, obs_on = payload
    if not obs_on:
        return run_spec(spec, retries, check), None
    recorder = worker_recorder()
    outcome = run_spec(spec, retries, check, obs=recorder)
    return outcome, recorder.drain()


def _pool_init(trace_root: str | None) -> None:
    """Warm a pool worker before it sees its first cell.

    Pre-imports the simulator stack (a no-op under fork, real work
    under spawn) and installs the ambient trace store so every
    :meth:`RunSpec.execute` in this worker resolves workloads through
    the cache instead of regenerating them.
    """
    import repro.coherence.protocol  # noqa: F401
    import repro.harness.experiment  # noqa: F401
    import repro.sim.engine  # noqa: F401

    if trace_root is not None:
        from .tracecache import TraceStore, set_default_trace_store

        set_default_trace_store(TraceStore(trace_root))
    # Resolve the vector kernel before the first cell (a no-op under
    # fork, where the parent's loaded-kernel memo is inherited; under
    # spawn this dlopens the parent's cached .so instead of paying the
    # probe inside a cell).
    from ..sim.soatrace import vector_available

    vector_available()


def _prewarm(specs) -> dict:
    """Resolve every distinct workload once in the parent process.

    Returns ``(app, scale, sample) -> total event count`` for the cost
    model.  Forked workers inherit the warmed traces (and the
    per-process memo) for free.  A workload whose generation raises is
    skipped — the same failure reproduces inside :func:`run_spec`,
    where it is isolated into a :class:`RunFailure` instead of killing
    the sweep.  Sampled cells warm (and count) the *sampled* workload,
    which on a warm trace store streams from the memory-mapped full
    trace without materializing it in the heap.

    The vector kernel is probed (built + dlopened) here too: one
    compile in the parent instead of one per forked worker.
    """
    from ..sim.soatrace import vector_available
    from .costs import workload_events

    vector_available()
    events_of: dict = {}
    for key in dict.fromkeys((s.app, s.scale, s.sample) for s in specs):
        app, scale, sample = key
        try:
            events_of[key] = workload_events(app, scale,
                                             sample=sample or None)
        except Exception:  # noqa: BLE001 - fault isolation happens per cell
            pass
    return events_of


def log_progress(event: str, spec: RunSpec, detail: str = "",
                 stream=None) -> None:
    """Default progress callback: one stderr line per cell."""
    stream = stream or sys.stderr
    tag = {"hit": "cached", "run": "ran", "fail": "FAILED",
           "store-fail": "!store"}.get(event, event)
    line = f"[{tag:>6}] {spec.label()}"
    if detail:
        line += f" ({detail})"
    print(line, file=stream)


def execute(specs, *, store=None, refresh: bool | None = None,
            parallel: bool = True, max_workers: int | None = None,
            retries: int = 0, progress=None, check: bool = False,
            obs=None) -> dict:
    """Run many specs; returns ``{spec: RunResult | RunFailure}``.

    *store* defaults to the ambient store (``None`` disables caching);
    *refresh* forces re-simulation of cached cells (results are still
    written back).  ``parallel=False`` runs inline in deterministic
    order — the path tests use.  ``check=True`` attaches the online
    invariant checker to every cell and bypasses the store entirely
    (checked results carry extra fields and must not pollute the cache,
    and cached results carry no violation counts).

    ``parallel=True`` pre-warms workloads, dispatches costliest-first
    and chunks submissions (see the module docstring); when only one
    worker would be used the pool is skipped entirely and cells run
    inline — same results, none of the fork/pickle overhead.  An
    explicit *max_workers* is clamped to the number of cells actually
    dispatched, so a generous ``--workers`` never forks idle workers.

    *obs* is an optional :class:`~repro.obs.SpanRecorder` (defaulting
    to the ambient one, see :func:`repro.obs.use_obs`); with one
    attached the executor emits the telemetry described in the module
    docstring.
    """
    specs = list(specs)
    if check:
        store = None
    elif store is None:
        store = get_default_store()
    if refresh is None:
        refresh = get_default_refresh()
    if obs is None:
        obs = get_default_obs()

    unique: list[RunSpec] = []
    seen: set[RunSpec] = set()
    for spec in specs:
        if spec not in seen:
            seen.add(spec)
            unique.append(spec)

    results: dict = {}
    todo: list[RunSpec] = []
    for spec in unique:
        cached = None if (store is None or refresh) else store.get(spec)
        if cached is not None:
            results[spec] = cached
            if obs is not None:
                obs.event("hit", spec=spec)
            if progress:
                progress("hit", spec)
        else:
            todo.append(spec)

    if todo:
        workers = min(max_workers or (os.cpu_count() or 2), len(todo))
        if parallel and workers > 1:
            with _span(obs, "prewarm", cells=len(todo)):
                events_of = _prewarm(todo)
            ordered = lpt_order(todo, events_of)
            trace_store = get_default_trace_store()
            trace_root = str(trace_store.root) if trace_store else None
            chunk = submit_chunksize(len(ordered), workers)
            payloads = [(spec, retries, check, obs is not None)
                        for spec in ordered]
            with ProcessPoolExecutor(max_workers=workers,
                                     initializer=_pool_init,
                                     initargs=(trace_root,)) as pool, \
                    _span(obs, "dispatch", cells=len(todo), workers=workers,
                          pool="warm"):
                outcomes = pool.map(_pool_worker, payloads, chunksize=chunk)
                pairs = list(zip(ordered, outcomes))
        else:
            if parallel and len(todo) > 1:
                with _span(obs, "prewarm", cells=len(todo)):
                    _prewarm(todo)  # single worker: still warm the memo once
            with _span(obs, "dispatch", cells=len(todo), workers=1,
                       pool="inline"):
                # Inline cells record straight into the parent's sink.
                pairs = [(spec, (run_spec(spec, retries, check, obs=obs),
                                 None))
                         for spec in todo]
        for spec, (outcome, records) in pairs:
            if obs is not None and records:
                obs.merge(records)
            results[spec] = outcome
            if isinstance(outcome, RunFailure):
                if obs is not None:
                    obs.event("fail", spec=spec, error=outcome.error)
                if progress:
                    progress("fail", spec, outcome.error)
                continue
            stored = True
            if store is not None:
                try:
                    with _span(obs, "store_put", spec=spec):
                        store.put(spec, outcome)
                except Exception as exc:  # noqa: BLE001 - keep the result
                    # The cell simulated fine; a failing write-back
                    # (disk full, permissions, corrupt store dir) must
                    # not kill the sweep — the result is still returned,
                    # it just will not resume from the store next time.
                    stored = False
                    detail = f"{type(exc).__name__}: {exc}"
                    if obs is not None:
                        obs.event("store-fail", spec=spec, error=detail)
                    if progress:
                        progress("store-fail", spec, detail)
            if stored and progress:
                progress("run", spec)
    return results


def execute_spec(spec: RunSpec, *, store=None, refresh: bool | None = None,
                 check: bool = False, obs=None) -> RunResult:
    """Run (or fetch) one spec; exceptions propagate to the caller.

    The single-cell path ``run_app`` and friends use: store-aware like
    :func:`execute`, but a failure raises — callers asking for exactly
    one result want the exception, not a wrapper.  ``check=True``
    attaches the online invariant checker and bypasses the store.
    With an *obs* recorder (explicit or ambient) the cell records the
    same ``cell``/``simulate``/``store_put`` spans and backoff series
    as the batch path.
    """
    if obs is None:
        obs = get_default_obs()
    if check:
        store = None
    else:
        if store is None:
            store = get_default_store()
        if refresh is None:
            refresh = get_default_refresh()
        if store is not None and not refresh:
            cached = store.get(spec)
            if cached is not None:
                if obs is not None:
                    obs.event("hit", spec=spec)
                return cached
    if obs is None:
        result = spec.execute(check=check)
    else:
        from ..obs import BackoffTelemetry
        telemetry = BackoffTelemetry()
        with obs.span("cell", spec=spec):
            with obs.span("simulate", spec=spec):
                result = spec.execute(check=check, telemetry=telemetry)
            obs.backoff_rows(spec, telemetry.rows)
            obs.emit("backoff_summary", spec=spec.label(),
                     spec_hash=spec.spec_hash(), **telemetry.counters())
    if store is not None:
        with _span(obs, "store_put", spec=spec):
            store.put(spec, result)
    return result
