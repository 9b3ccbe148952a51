"""Wall-clock span recording for the run orchestration layer.

A :class:`SpanRecorder` stamps ``span`` records (a named wall-clock
interval, optionally tied to one :class:`~repro.runtime.spec.RunSpec`)
and ``event`` records (instantaneous cell outcomes: ``hit``, ``fail``,
``store-fail``) into a sink.  The sink is duck-typed: the parent
process records straight into an :class:`~repro.obs.sink.ObsSink`
(JSONL on disk); pool workers record into a plain list via
:func:`worker_recorder` and ship the buffered records back with the
cell result, where the parent merges them into the file — workers
never hold a file descriptor.

The ambient recorder (``use_obs`` / ``get_default_obs``) mirrors the
result store's ambient pattern: ``None`` (the default) means
observability is off and every instrumentation site reduces to one
``is None`` check, so un-observed runs pay nothing.
"""

from __future__ import annotations

import contextlib
import os
import time

__all__ = ["SpanRecorder", "worker_recorder", "get_default_obs",
           "set_default_obs", "use_obs"]


class SpanRecorder:
    """Emits span/event records into *sink* (ObsSink or list)."""

    __slots__ = ("sink", "source")

    def __init__(self, sink, source: str = "parent") -> None:
        self.sink = sink
        #: ``"parent"`` or ``"worker"`` — which side measured the span.
        self.source = source

    # -- low-level -------------------------------------------------------
    def _record(self, rec: str, fields: dict) -> dict:
        record = {"rec": rec}
        record.update(fields)
        record["src"] = self.source
        record["pid"] = os.getpid()
        return record

    def _write_many(self, records: list[dict]) -> None:
        """Hand *records* to the sink in one piece."""
        if isinstance(self.sink, list):
            self.sink.extend(records)
        else:
            self.sink.write_many(records)

    def emit(self, rec: str, **fields) -> None:
        """Write one record of type *rec* (``span``/``event``/...)."""
        self._write_many([self._record(rec, fields)])

    # -- spans and events ------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str, spec=None, **fields):
        """Time a block: ``with obs.span("simulate", spec=spec): ...``.

        The record is written even when the block raises, so a failing
        cell still accounts for its wall-clock.
        """
        if spec is not None:
            fields["spec"] = spec.label()
            fields["spec_hash"] = spec.spec_hash()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.emit("span", name=name,
                      wall_s=round(time.perf_counter() - t0, 6), **fields)

    def event(self, name: str, spec=None, **fields) -> None:
        """Record an instantaneous per-cell event (``hit``/``fail``/...)."""
        if spec is not None:
            fields["spec"] = spec.label()
            fields["spec_hash"] = spec.spec_hash()
        self.emit("event", name=name, **fields)

    def backoff_rows(self, spec, rows) -> None:
        """Merge a cell's backoff time series (see repro.obs.backoff),
        all of its records in one write."""
        label, spec_hash = spec.label(), spec.spec_hash()
        records = []
        for row in rows:
            fields = dict(row)
            rec = fields.pop("rec", "backoff")
            records.append(self._record(
                rec, dict(spec=label, spec_hash=spec_hash, **fields)))
        self._write_many(records)

    def drain(self) -> list[dict]:
        """Buffered records (list sinks only) — the worker return path."""
        if not isinstance(self.sink, list):
            raise TypeError("drain() is only meaningful for buffer sinks")
        records, self.sink[:] = list(self.sink), []
        return records

    def merge(self, records) -> None:
        """Write records drained from a worker verbatim (no re-stamping),
        in one write."""
        self._write_many(list(records))


def worker_recorder() -> SpanRecorder:
    """In-memory recorder for a pool worker; drain() ships it home."""
    return SpanRecorder([], source="worker")


# -- ambient default -----------------------------------------------------
_default_obs: SpanRecorder | None = None


def get_default_obs() -> SpanRecorder | None:
    return _default_obs


def set_default_obs(obs: SpanRecorder | None) -> None:
    """Install the ambient recorder used when callers don't pass one."""
    global _default_obs
    _default_obs = obs


@contextlib.contextmanager
def use_obs(obs: SpanRecorder | None):
    """Scoped ambient recorder: ``with use_obs(SpanRecorder(sink)): ...``."""
    prev = _default_obs
    set_default_obs(obs)
    try:
        yield obs
    finally:
        set_default_obs(prev)
