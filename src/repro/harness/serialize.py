"""Config and result serialization: reproducible experiment records.

``config_to_dict`` / ``config_from_dict`` (defined next to
:class:`~repro.sim.config.SystemConfig`) round-trip a config, the nested
kernel cost model included, through plain JSON-compatible dicts, so an
experiment's exact machine parameters can be stored next to its
results.
``result_to_dict`` flattens a :class:`~repro.sim.stats.RunResult` the
same way (delegating to ``RunResult.to_dict``/``from_dict``, which the
runtime result store shares); ``save_results`` / ``load_results``
persist a whole matrix as one JSON file under ``results/``.
"""

from __future__ import annotations

import json

from ..sim.config import SystemConfig, config_from_dict, config_to_dict
from ..sim.stats import RunResult

__all__ = ["config_to_dict", "config_from_dict", "result_to_dict",
           "result_from_dict", "save_results", "load_results"]


def result_to_dict(result: RunResult) -> dict:
    """Canonical result serialisation (delegates to ``RunResult.to_dict``)."""
    return result.to_dict()


def result_from_dict(data: dict) -> RunResult:
    return RunResult.from_dict(data)


def save_results(path: str, results: dict[tuple, RunResult],
                 config: SystemConfig | None = None) -> None:
    """Persist a results dict keyed by (arch, pressure)-style tuples."""
    payload = {
        "config": config_to_dict(config) if config is not None else None,
        "results": [
            {"key": list(key), "result": result_to_dict(result)}
            for key, result in results.items()
        ],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_results(path: str) -> tuple[SystemConfig | None, dict]:
    with open(path) as fh:
        payload = json.load(fh)
    config = (config_from_dict(payload["config"])
              if payload.get("config") else None)
    results = {tuple(entry["key"]): result_from_dict(entry["result"])
               for entry in payload["results"]}
    return config, results
