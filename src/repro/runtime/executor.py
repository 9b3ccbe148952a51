"""Batch execution of RunSpecs: dedupe, cache, isolate, retry, resume.

This is the one path from cells to stored results: every harness entry
point (CLI, figures, tables, claims, crossover search) resolves its
cells through :func:`execute`, and the job server shares its write-back
(:func:`store_result`) and simulate body.  Guarantees:

* **Dedupe before dispatch** — identical specs are simulated once, and
  results fan back out to every requesting position.
* **Store-backed resume** — with a :class:`~repro.runtime.store.RunStore`
  attached, cached cells are served from disk and only missing (or
  previously failed — failures are never stored) cells are simulated,
  so an interrupted matrix sweep restarts where it left off.
* **Settle as they finish** — each cell is written back to the store
  (and reported) as soon as the pool's in-order result iterator yields
  it, not after the whole sweep, so a dead worker or a Ctrl-C keeps
  every cell that came back before it.
* **Fault isolation** — a failing cell yields a
  :class:`~repro.runtime.spec.RunFailure` naming its spec instead of
  killing the whole process pool.  A worker that dies
  (``BrokenProcessPool``) loses the cells not yet yielded; they re-run
  once in a fresh pool, and each one that pool does not return either
  becomes a ``RunFailure`` naming the cause.  One ``RuntimeWarning``
  per call reports it.
* **Optional retry** — transient failures can be retried per cell.
* **Progress** — an optional callback sees one event per cell
  (``"hit" | "run" | "fail" | "store-fail"``); :func:`log_progress`
  prints them.
* **Store-fault isolation** — a raising ``store.put`` (disk full,
  permissions, corrupt store dir) after a successful simulation keeps
  the :class:`~repro.sim.stats.RunResult`, surfaces a ``"store-fail"``
  progress event and ends the call with one ``RuntimeWarning`` naming
  how many cells were left unstored.

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

Matrix-throughput machinery (PR 4): with more than one worker, the
parent pre-warms each distinct ``(app, scale)`` workload through the
trace cache — forked workers inherit the traces, and on spawn
platforms the pool *initializer* re-installs the ambient
:class:`~repro.runtime.tracecache.TraceStore` and pre-imports the
simulator so a worker's first cell pays no import/generation cost.
Cells dispatch costliest-first (LPT, see :mod:`repro.runtime.costs`)
in chunks sized to amortise pickle round-trips.  With one worker the
cells run inline, in submission order.
"""

from __future__ import annotations

import contextlib
import os
import sys
import traceback
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from ..obs import get_default_obs, worker_recorder
from ..sim.stats import RunResult
from .costs import lpt_order, submit_chunksize
from .spec import RunFailure, RunSpec
from .store import get_default_refresh, get_default_store
from .tracecache import get_default_trace_store

__all__ = ["execute", "run_spec", "store_result", "log_progress"]


def _span(obs, name: str, **fields):
    """Optional span: a no-op context manager when obs is off."""
    return (obs.span(name, **fields) if obs is not None
            else contextlib.nullcontext())


def _simulate(spec: RunSpec, check: bool, obs, attempt: int = 0) -> RunResult:
    """Run one cell's simulation, under telemetry when *obs* is set.

    With an *obs* :class:`~repro.obs.SpanRecorder`, the attempt is
    wrapped in a ``cell`` span containing a ``simulate`` span, and the
    simulation's backoff time series (collected through a kind-filtered
    :class:`~repro.obs.BackoffTelemetry`) is merged into the record
    stream together with one ``backoff_summary`` record.  Exceptions
    propagate.
    """
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


def run_spec(spec: RunSpec, retries: int = 0, check: bool = False,
             obs=None) -> RunResult | RunFailure:
    """Execute one spec, converting exceptions into :class:`RunFailure`.

    Each attempt records the telemetry of :func:`_simulate` when an
    *obs* recorder is given.
    """
    attempt = 0
    while True:
        try:
            return _simulate(spec, check, obs, attempt)
        except Exception as exc:  # noqa: BLE001 - isolation is the point
            if attempt >= retries:
                return RunFailure(spec, f"{type(exc).__name__}: {exc}",
                                  traceback.format_exc())
            attempt += 1


def store_result(store, spec: RunSpec, result: RunResult,
                 obs=None) -> str | None:
    """Write one simulated result back to *store*; never raises.

    The write-back :func:`execute` and the job server share.  Returns
    ``None`` once the result is stored (or when *store* is ``None``),
    or the error summary when ``store.put`` raised (disk full,
    permissions, corrupt store dir): the cell simulated fine and its
    result is kept by the caller, it just will not resume from the
    store next time.  With an *obs* recorder the put is timed as a
    ``store_put`` span and a failure is recorded as a ``store-fail``
    event.
    """
    if store is None:
        return None
    try:
        with _span(obs, "store_put", spec=spec):
            store.put(spec, result)
    except Exception as exc:  # noqa: BLE001 - keep the result
        detail = f"{type(exc).__name__}: {exc}"
        if obs is not None:
            obs.event("store-fail", spec=spec, error=detail)
        return detail
    return None


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
            max_workers: int | None = None, retries: int = 0,
            progress=None, check: bool = False, obs=None) -> dict:
    """Run many specs; returns ``{spec: RunResult | RunFailure}``.

    *store* defaults to the ambient store (``None`` disables caching);
    *refresh* forces re-simulation of cached cells (results are still
    written back).  ``check=True`` attaches the online invariant
    checker to every cell and bypasses the store entirely (checked
    results carry extra fields and must not pollute the cache, and
    cached results carry no violation counts).

    *max_workers* (default: the CPU count) is clamped to the number of
    cells actually dispatched, so a generous ``--workers`` never forks
    idle workers.  With one worker the cells run inline in submission
    order — the deterministic path tests use, none of the fork/pickle
    overhead; with more, the pool path of the module docstring.  Either
    way each cell is settled (stored, reported) as it finishes.

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

    results: dict = {}
    todo: list[RunSpec] = []
    for spec in dict.fromkeys(specs):
        cached = None if (store is None or refresh) else store.get(spec)
        if cached is not None:
            results[spec] = cached
            if obs is not None:
                obs.event("hit", spec=spec)
            if progress:
                progress("hit", spec)
        else:
            todo.append(spec)

    unstored: list[str] = []

    def settle(spec: RunSpec, outcome, records=None) -> None:
        if obs is not None and records:
            obs.merge(records)
        results[spec] = outcome
        if isinstance(outcome, RunFailure):
            if obs is not None:
                obs.event("fail", spec=spec, error=outcome.error)
            if progress:
                progress("fail", spec, outcome.error)
            return
        detail = store_result(store, spec, outcome, obs)
        if detail is None:
            if progress:
                progress("run", spec)
        else:
            unstored.append(detail)
            if progress:
                progress("store-fail", spec, detail)

    workers = min(max_workers or (os.cpu_count() or 2), len(todo))
    if workers > 1:
        with _span(obs, "prewarm", cells=len(todo)):
            events_of = _prewarm(todo)
        ordered = lpt_order(todo, events_of)
        trace_store = get_default_trace_store()
        trace_root = str(trace_store.root) if trace_store else None

        def pool_pass(cells: list, pool_kind: str):
            """Settle *cells* from one pool as they come back; on a dead
            worker, ``(error, traceback)`` naming it, else ``None``."""
            n = min(workers, len(cells))
            payloads = [(spec, retries, check, obs is not None)
                        for spec in cells]
            try:
                with ProcessPoolExecutor(max_workers=n,
                                         initializer=_pool_init,
                                         initargs=(trace_root,)) as pool, \
                        _span(obs, "dispatch", cells=len(cells), workers=n,
                              pool=pool_kind):
                    outcomes = pool.map(
                        _pool_worker, payloads,
                        chunksize=submit_chunksize(len(cells), n))
                    for spec, (outcome, records) in zip(cells, outcomes):
                        settle(spec, outcome, records)
            except BrokenProcessPool as exc:
                return f"{type(exc).__name__}: {exc}", traceback.format_exc()
            return None

        died = pool_pass(ordered, "warm")
        if died is not None:
            # A worker died (OOM kill, os._exit, a signal).  pool.map
            # yields in dispatch order, so every cell behind the dead
            # one is lost, finished or not: re-run the cells that did
            # not come back, once, in a fresh pool.  Whatever that pool
            # does not return fails, naming the cause.
            lost = [spec for spec in ordered if spec not in results]
            died_again = pool_pass(lost, "retry")
            failed = [spec for spec in lost if spec not in results]
            for spec in failed:
                settle(spec, RunFailure(spec, *died_again))
            _warn(f"a pool worker died ({died[0]}); {len(lost)} unreturned"
                  f" cell(s) re-ran in a fresh pool, and {len(failed)} of"
                  f" {len(todo)} came back as failures"
                  + ("; re-run to resume them" if failed else ""))
    elif todo:
        with _span(obs, "dispatch", cells=len(todo), workers=1,
                   pool="inline"):
            # Inline cells record straight into the parent's sink.
            for spec in todo:
                settle(spec, run_spec(spec, retries, check, obs=obs))
    if unstored:
        _warn(f"{len(unstored)} simulated cell(s) left unstored; first error:"
              f" {unstored[0]}")
    return results


#: Modules whose frames a warning from :func:`execute` looks past: the
#: harness resolves its cells through it, so the cause is their caller.
_INTERNAL = ("repro.runtime.", "repro.harness.")


def _warn(message: str) -> None:
    """Raise a ``RuntimeWarning`` attributed to the first caller
    outside ``repro.runtime`` and ``repro.harness`` (``warnings.warn``
    has no ``skip_file_prefixes`` before Python 3.12)."""
    frame, level = sys._getframe(1), 2
    while frame.f_back is not None and (
            frame.f_globals.get("__name__", "") + ".").startswith(_INTERNAL):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, RuntimeWarning, stacklevel=level)
