"""Append-only JSONL telemetry sink under ``results/obs/``.

One observability *run* is one ``<obs_dir>/<run_id>.jsonl`` file; every
line is one self-describing JSON record (see ``docs/observability.md``
for the record schemas).  The sink is process-safe by construction:
the file is opened with ``O_APPEND`` and each record -- or each batch,
such as a cell's records -- is written with a single ``os.write`` call
(continued only after a short write), so concurrent writers (the
executor's parent process and, in principle, its pool workers)
interleave whole lines, never fragments.  In practice the executor
keeps all writes in the parent — workers buffer records in memory and
the parent merges them — so the ``O_APPEND`` discipline is a safety
net, not a hot path.

A corrupt or truncated trailing line (a killed run) is skipped by
:func:`read_records`, mirroring how the result/trace stores treat
unreadable artifacts as misses rather than errors.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

__all__ = ["DEFAULT_OBS_DIR", "ObsSink", "default_obs_dir", "new_run_id",
           "read_records", "list_runs", "resolve_run_path"]

#: Default telemetry directory, next to the result/trace stores.
DEFAULT_OBS_DIR = "results/obs"

#: Encodes one record as one line's JSON; shared by every sink.
_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True,
                            default=str)


def default_obs_dir() -> str:
    """``$REPRO_OBS_DIR`` or ``results/obs`` (the CLI default)."""
    return os.environ.get("REPRO_OBS_DIR", DEFAULT_OBS_DIR)


def new_run_id() -> str:
    """Wall-clock + pid run id: sortable, unique per process."""
    return time.strftime("%Y%m%d-%H%M%S") + f"-{os.getpid()}"


class ObsSink:
    """One run's JSONL file; ``write`` appends a record atomically."""

    def __init__(self, obs_dir: str | os.PathLike | None = None,
                 run_id: str | None = None) -> None:
        self.obs_dir = Path(obs_dir if obs_dir is not None
                            else default_obs_dir())
        self.run_id = run_id or new_run_id()
        self.path = self.obs_dir / f"{self.run_id}.jsonl"
        self.records_written = 0
        self._fd: int | None = None

    def _fileno(self) -> int:
        if self._fd is None:
            self.obs_dir.mkdir(parents=True, exist_ok=True)
            self._fd = os.open(self.path,
                               os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        return self._fd

    def write(self, record: dict) -> None:
        """Append one record as one JSON line (single atomic write)."""
        self.write_many((record,))

    def write_many(self, records) -> None:
        """Append *records* as JSON lines with one ``os.write``, the
        same bytes as one ``write`` per record."""
        lines = [_ENCODER.encode(record) + "\n" for record in records]
        if not lines:
            return
        data = memoryview("".join(lines).encode())
        fd = self._fileno()
        while data:
            data = data[os.write(fd, data):]
        self.records_written += len(lines)

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ObsSink({str(self.path)!r})"


# -- reading -------------------------------------------------------------
def read_records(path: str | os.PathLike) -> list[dict]:
    """All readable records of one run file; bad lines are skipped."""
    records = []
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue  # truncated tail of a killed run
                if isinstance(record, dict):
                    records.append(record)
    except OSError as exc:
        raise ValueError(f"cannot read telemetry run {path}: {exc}") from exc
    return records


def list_runs(obs_dir: str | os.PathLike | None = None) -> list[Path]:
    """Run files under *obs_dir*, oldest first (ids are time-sortable)."""
    root = Path(obs_dir if obs_dir is not None else default_obs_dir())
    return sorted(root.glob("*.jsonl"))


def resolve_run_path(run: str | None,
                     obs_dir: str | os.PathLike | None = None) -> Path:
    """Map a ``--run`` argument to a run file.

    ``None`` means the latest run in *obs_dir*; otherwise *run* may be
    a run id (``20260806-101502-4242``) or a path to a ``.jsonl`` file.
    """
    if run:
        as_path = Path(run)
        if as_path.suffix == ".jsonl" or as_path.exists():
            return as_path
        root = Path(obs_dir if obs_dir is not None else default_obs_dir())
        return root / f"{run}.jsonl"
    runs = list_runs(obs_dir)
    if not runs:
        root = Path(obs_dir if obs_dir is not None else default_obs_dir())
        raise ValueError(f"no telemetry runs under {root}"
                         " (run with --obs first)")
    return runs[-1]
