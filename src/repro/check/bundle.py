"""Deterministic failure-replay bundles.

When the online checker reports a violation, everything needed to
reproduce it deterministically is a directory with two files:

* ``traces.bin``   -- the :class:`~repro.sim.trace.WorkloadTraces` in
  the simulator's native binary format;
* ``bundle.json``  -- the :class:`~repro.sim.config.SystemConfig`, the
  architecture name + policy constructor kwargs, the engine quantum,
  and the violations that triggered the capture.

The simulator is fully deterministic given (workload, policy, config,
quantum), so :meth:`ReproBundle.replay` re-runs the exact failure, and
the trace shrinker (:mod:`repro.check.shrink`) can minimise it.
"""

from __future__ import annotations

import json
import os

from ..sim.config import SystemConfig, config_from_dict, config_to_dict
from ..sim.engine import DEFAULT_QUANTUM, Engine
from ..sim.trace import WorkloadTraces
from .checker import InvariantChecker
from .invariants import Violation

__all__ = ["ReproBundle", "config_to_dict", "config_from_dict"]

_FORMAT = "repro-check-bundle-v1"
_TRACES_FILE = "traces.bin"
_META_FILE = "bundle.json"


class ReproBundle:
    """One reproducible failing run."""

    def __init__(self, workload: WorkloadTraces, config: SystemConfig,
                 architecture: str, policy_kwargs: dict | None = None,
                 violations: list[Violation] | None = None,
                 quantum: int = DEFAULT_QUANTUM,
                 granularity: str = "event") -> None:
        self.workload = workload
        self.config = config
        self.architecture = architecture
        self.policy_kwargs = dict(policy_kwargs or {})
        self.violations = list(violations or [])
        self.quantum = quantum
        self.granularity = granularity

    # ------------------------------------------------------------------
    @classmethod
    def capture(cls, engine, checker: InvariantChecker,
                architecture: str | None = None,
                policy_kwargs: dict | None = None) -> "ReproBundle":
        """Bundle a finished engine run and its checker's findings."""
        return cls(engine.workload, engine.config,
                   architecture or engine.policy.name, policy_kwargs,
                   violations=checker.violations, quantum=engine.quantum,
                   granularity=checker.granularity)

    # -- persistence ----------------------------------------------------
    def save(self, directory: str) -> str:
        os.makedirs(directory, exist_ok=True)
        self.workload.save(os.path.join(directory, _TRACES_FILE))
        meta = {
            "format": _FORMAT,
            "architecture": self.architecture,
            "policy_kwargs": self.policy_kwargs,
            "config": config_to_dict(self.config),
            "quantum": self.quantum,
            "granularity": self.granularity,
            "violations": [v.as_dict() for v in self.violations],
        }
        with open(os.path.join(directory, _META_FILE), "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return directory

    @classmethod
    def load(cls, directory: str) -> "ReproBundle":
        with open(os.path.join(directory, _META_FILE)) as fh:
            meta = json.load(fh)
        if meta.get("format") != _FORMAT:
            raise ValueError(
                f"{directory} is not a {_FORMAT} bundle"
                f" (format={meta.get('format')!r})")
        workload = WorkloadTraces.load(os.path.join(directory, _TRACES_FILE))
        return cls(workload, config_from_dict(meta["config"]),
                   meta["architecture"], meta.get("policy_kwargs"),
                   violations=[Violation.from_dict(v)
                               for v in meta.get("violations", [])],
                   quantum=meta.get("quantum", DEFAULT_QUANTUM),
                   granularity=meta.get("granularity", "event"))

    # -- replay ---------------------------------------------------------
    def make_policy(self):
        from ..core import make_policy
        return make_policy(self.architecture, **self.policy_kwargs)

    def replay(self, workload: WorkloadTraces | None = None,
               granularity: str | None = None):
        """Re-run the bundled failure.

        Returns ``(result, checker)``; ``checker.violations`` holds what
        the re-run found.  An optional *workload* substitutes a shrunk
        trace for the bundled one.
        """
        engine = Engine(workload or self.workload, self.make_policy(),
                        config=self.config, quantum=self.quantum)
        checker = InvariantChecker.attach(
            engine, granularity=granularity or self.granularity)
        result = engine.run()
        return result, checker
