"""Content-addressed on-disk result store.

Artifacts live at ``<root>/<spec_hash>.json``, one JSON file per
:class:`~repro.runtime.spec.RunSpec`, containing the store schema
version, the full spec (for auditability and ``store list``), and the
serialised :class:`~repro.sim.stats.RunResult`.  Because the file name
is a content hash of the spec (see ``spec.py`` for the hashing rules),
the store needs no index: lookup is one ``open``; a corrupt, stale or
foreign file is simply a miss.

Cache invalidation
------------------
* bump :data:`~repro.runtime.spec.SPEC_VERSION` when simulator
  semantics change — old hashes stop being generated;
* bump :data:`STORE_VERSION` when the *artifact layout* changes — old
  files stop being readable and are re-simulated on demand;
* ``RunStore.clear()`` (CLI: ``repro store clear``) wipes everything;
* per-invocation, ``refresh=True`` bypasses reads but still writes.

The module also carries the *ambient* store used by the harness when no
store is passed explicitly: ``set_default_store`` / ``use_store``.  It
defaults to ``None`` (no caching), so library calls and the test suite
keep pure re-simulation semantics unless a caller opts in — the CLI
opts in by default.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from pathlib import Path

from ..sim.stats import RunResult
from .spec import RunSpec

__all__ = ["STORE_VERSION", "RunStore", "get_default_store",
           "set_default_store", "get_default_refresh", "use_store"]

#: Artifact layout version; mismatching files read as misses.
STORE_VERSION = 1


class RunStore:
    """Content-addressed cache of simulation results under one directory."""

    def __init__(self, root: str | os.PathLike = "results/store") -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.writes = 0

    # -- paths ----------------------------------------------------------
    def path_for(self, spec: RunSpec) -> Path:
        return self.root / f"{spec.spec_hash()}.json"

    # -- lookup ---------------------------------------------------------
    def get(self, spec: RunSpec) -> RunResult | None:
        """Cached result for *spec*, or None (never raises on bad files)."""
        path = self.path_for(spec)
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            self.misses += 1
            return None
        if (payload.get("store_version") != STORE_VERSION
                or payload.get("spec") != spec.to_dict()):
            self.misses += 1
            return None
        try:
            result = RunResult.from_dict(payload["result"])
        except (KeyError, TypeError, AttributeError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def __contains__(self, spec: RunSpec) -> bool:
        return self.path_for(spec).exists()

    # -- update ---------------------------------------------------------
    def put(self, spec: RunSpec, result: RunResult) -> Path:
        """Persist *result* atomically (write temp file, then rename)."""
        self.root.mkdir(parents=True, exist_ok=True)
        payload = {
            "store_version": STORE_VERSION,
            "spec_hash": spec.spec_hash(),
            "spec": spec.to_dict(),
            "result": result.to_dict(),
        }
        path = self.path_for(spec)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            # One string, one write: json.dump writes chunk by chunk.
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps(payload))
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        self.writes += 1
        return path

    # -- maintenance ----------------------------------------------------
    def entries(self) -> list[dict]:
        """Spec dicts (plus hash) of every readable artifact, sorted."""
        out = []
        for path in sorted(self.root.glob("*.json")):
            try:
                with open(path) as fh:
                    payload = json.load(fh)
            except (OSError, ValueError):
                continue
            out.append({"spec_hash": payload.get("spec_hash", path.stem),
                        "spec": payload.get("spec", {}),
                        "store_version": payload.get("store_version")})
        return out

    def clear(self) -> int:
        """Delete every artifact; returns the number removed."""
        removed = 0
        for path in self.root.glob("*.json"):
            with contextlib.suppress(OSError):
                path.unlink()
                removed += 1
        return removed

    def size_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.root.glob("*.json"))

    def describe(self) -> dict:
        n = len(list(self.root.glob("*.json"))) if self.root.is_dir() else 0
        return {"root": str(self.root), "entries": n,
                "bytes": self.size_bytes() if n else 0,
                "store_version": STORE_VERSION,
                "session": {"hits": self.hits, "misses": self.misses,
                            "writes": self.writes}}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RunStore({str(self.root)!r})"


# -- ambient default ----------------------------------------------------
_default_store: RunStore | None = None
_default_refresh: bool = False


def get_default_store() -> RunStore | None:
    return _default_store


def get_default_refresh() -> bool:
    return _default_refresh


def set_default_store(store: RunStore | None, refresh: bool = False) -> None:
    """Install the ambient store used when callers don't pass one."""
    global _default_store, _default_refresh
    _default_store = store
    _default_refresh = refresh


@contextlib.contextmanager
def use_store(store: RunStore | None, refresh: bool = False):
    """Scoped ambient store: ``with use_store(RunStore(dir)): ...``."""
    prev = (_default_store, _default_refresh)
    set_default_store(store, refresh)
    try:
        yield store
    finally:
        set_default_store(*prev)
