"""Canonical run descriptions.

A :class:`RunSpec` pins down *one* cell of the evaluation matrix — app,
architecture, memory pressure, workload scale, plus any policy/config
overrides and a non-default scheduling quantum — as a frozen, hashable
value.  It replaces the loose ``(app, arch, pressure, scale)`` tuples
previously duplicated across ``experiment.py``, ``parallel.py``,
``cli.py`` and the benchmarks, and it carries a *stable content hash*
(:meth:`RunSpec.spec_hash`) that keys the on-disk result store.

Hash stability rules
--------------------
* architecture names are canonicalised (``"as-coma"`` == ``"ASCOMA"``);
* overrides are stored as sorted ``(key, value)`` tuples, so keyword
  order never changes the hash;
* the hash covers a ``version`` field (:data:`SPEC_VERSION`) — bump it
  whenever simulator semantics change so that stale store artifacts
  become unreachable rather than silently wrong;
* which loop replays a cell (the kernel, or the reference loop that
  ineligible runs, hosts without a kernel and the engine's
  ``vector_path=False`` take) is a *runtime matter*, deliberately
  outside the hash: the kernel and the reference loop are pinned
  bit-identical by ``tests/test_perf_parity.py``, so a store entry
  produced by either validly services the same spec replayed through
  the other.

A failed execution is described by :class:`RunFailure`, which names the
spec that failed so batch sweeps can report and resume precisely.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from ..core import canonical_arch
from ..sim.stats import RunResult

__all__ = ["SPEC_VERSION", "RunSpec", "RunFailure", "canonical_arch"]

#: Content-hash schema version.  Bump on any change to simulator
#: semantics (or to RunSpec's canonical form) that invalidates stored
#: results; old artifacts then simply stop matching and are re-run.
SPEC_VERSION = 1


def _freeze(overrides) -> tuple:
    """Normalise an overrides mapping/iterable to sorted item pairs."""
    if not overrides:
        return ()
    items = overrides.items() if isinstance(overrides, dict) else overrides
    return tuple(sorted((str(k), v) for k, v in items))


def _freeze_sample(sample) -> tuple:
    """Normalise a sample description to canonical frozen item pairs.

    Accepts ``None``, a :class:`~repro.workloads.sample.SampleSpec`, a
    plain dict, or already-frozen pairs; every spelling of "no
    sampling" collapses to ``()`` so unsampled specs keep their
    pre-sampling canonical form (and store hashes) bit-identical.
    """
    if not sample:
        return ()
    from ..workloads.sample import SampleSpec

    spec = SampleSpec.from_any(sample)
    return spec.to_pairs() if spec is not None else ()


@dataclass(frozen=True)
class RunSpec:
    """One simulation cell, canonically described.

    ``policy_overrides`` / ``config_overrides`` are sorted
    ``(name, value)`` pairs of JSON-scalar values (construct with
    :meth:`make` to pass plain dicts).  ``quantum=None`` means the
    engine default.
    """

    app: str
    arch: str
    pressure: float
    scale: float = 0.5
    policy_overrides: tuple = ()
    config_overrides: tuple = ()
    quantum: int | None = None
    #: Trace-sampling parameters as canonical frozen item pairs
    #: (:meth:`~repro.workloads.sample.SampleSpec.to_pairs`); ``()``
    #: means the full trace.  Sampling changes the replayed workload,
    #: so — unlike replay-loop selection — it *does* enter the hash.
    sample: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "arch", canonical_arch(self.arch))
        object.__setattr__(self, "policy_overrides",
                           _freeze(self.policy_overrides))
        object.__setattr__(self, "config_overrides",
                           _freeze(self.config_overrides))
        object.__setattr__(self, "sample", _freeze_sample(self.sample))

    # -- constructors ---------------------------------------------------
    @classmethod
    def make(cls, app: str, arch: str, pressure: float, scale: float = 0.5,
             policy_overrides: dict | None = None,
             config_overrides: dict | None = None,
             quantum: int | None = None, sample=None) -> "RunSpec":
        """Build a spec from plain dicts of overrides."""
        return cls(app, arch, pressure, scale,
                   _freeze(policy_overrides), _freeze(config_overrides),
                   quantum, _freeze_sample(sample))

    # -- serialisation / hashing ---------------------------------------
    def to_dict(self) -> dict:
        out = {
            "app": self.app,
            "arch": self.arch,
            "pressure": self.pressure,
            "scale": self.scale,
            "policy_overrides": [list(p) for p in self.policy_overrides],
            "config_overrides": [list(p) for p in self.config_overrides],
            "quantum": self.quantum,
        }
        # Emitted only when sampling is active: unsampled specs keep
        # the exact canonical JSON (and store hashes) they had before
        # the field existed.
        if self.sample:
            out["sample"] = [list(p) for p in self.sample]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        return cls(data["app"], data["arch"], data["pressure"],
                   data.get("scale", 0.5),
                   tuple(tuple(p) for p in data.get("policy_overrides", ())),
                   tuple(tuple(p) for p in data.get("config_overrides", ())),
                   data.get("quantum"),
                   tuple(tuple(p) for p in data.get("sample", ())))

    def canonical_json(self) -> str:
        """Deterministic JSON form the content hash is computed over."""
        payload = self.to_dict()
        payload["version"] = SPEC_VERSION
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def spec_hash(self) -> str:
        """Stable 16-hex-digit content hash (store key)."""
        digest = hashlib.sha256(self.canonical_json().encode())
        return digest.hexdigest()[:16]

    def sample_spec(self):
        """The :class:`~repro.workloads.sample.SampleSpec`, or ``None``."""
        if not self.sample:
            return None
        from ..workloads.sample import SampleSpec

        return SampleSpec.from_any(self.sample)

    def label(self) -> str:
        """Short human-readable form for logs and reports."""
        extra = ""
        if self.policy_overrides or self.config_overrides or self.quantum:
            extra = "*"
        sample = self.sample_spec()
        if sample is not None:
            extra += sample.label()
        return (f"{self.app}/{self.arch}@{self.pressure:.0%}"
                f"(x{self.scale:g}){extra}")

    # -- execution ------------------------------------------------------
    def engine(self, traces=None):
        """This cell's :class:`~repro.sim.engine.Engine`, ready to run.

        The one place a cell becomes an engine: the workload, then
        ``SystemConfig(n_nodes, pressure, **config_overrides)`` and
        ``scaled_policy(arch, **policy_overrides)``, so the experiment's
        scaled constants (DESIGN.md §6) apply here and nowhere else.

        *traces* replaces the named workload with an explicit
        :class:`~repro.sim.trace.WorkloadTraces`, for a workload no
        spec can name (another seed, node count or generator).
        Otherwise the trace cache resolves ``(app, scale, sample)``:
        per-process memo, then the ambient
        :class:`~repro.runtime.tracecache.TraceStore` (if one is
        installed), then deterministic regeneration.

        Imports are deferred so worker processes only pay for what they
        use and so ``repro.harness`` can import this module freely.
        """
        from ..harness.experiment import scaled_policy
        from ..sim.config import SystemConfig
        from ..sim.engine import DEFAULT_QUANTUM, Engine
        from .tracecache import fetch_traces

        workload = traces if traces is not None else fetch_traces(
            self.app, self.scale, sample=self.sample or None)
        config = SystemConfig(**{"n_nodes": workload.n_nodes,
                                 "memory_pressure": self.pressure,
                                 **dict(self.config_overrides)})
        policy = scaled_policy(self.arch, **dict(self.policy_overrides))
        return Engine(workload, policy, config=config,
                      quantum=self.quantum or DEFAULT_QUANTUM)

    def execute(self, check: bool = False, traces=None,
                telemetry=None) -> RunResult:
        """Run this cell's simulation (no result caching — see the executor).

        :meth:`engine` plus the run.  ``check=True`` attaches an online
        :class:`~repro.check.InvariantChecker` (barrier granularity);
        the result then reports ``invariant_violations``.  *check* is a
        runtime mode, not part of the spec, so it never enters the
        content hash — checked runs bypass the result store instead.

        *telemetry* is an optional
        :class:`~repro.obs.BackoffTelemetry` to attach to the engine's
        event bus (kind-filtered, so the run stays on the kernel).
        Like *check* it is a runtime mode: the rows it collects live on
        the telemetry object, never in the :class:`RunResult`, so
        cached results stay byte-identical with and without ``--obs``.

        *traces* replaces the named workload (see :meth:`engine`): the
        run then simulates a workload the spec does not describe, so
        its result is never stored.
        """
        engine = self.engine(traces)
        checker = None
        if check:
            from ..check import InvariantChecker
            checker = InvariantChecker.attach(engine)
        if telemetry is not None:
            telemetry.attach(engine)
        try:
            return engine.run()
        finally:
            # Always unsubscribe: the bus (and its observer lists) lives
            # as long as the engine, and long-lived callers — the serve
            # layer keeps warm state across thousands of jobs — must not
            # accumulate per-run observers on anything they retain.
            if telemetry is not None:
                telemetry.detach(engine)
            if checker is not None:
                checker.detach()


@dataclass(frozen=True)
class RunFailure:
    """Outcome of a cell whose simulation raised: names the spec.

    Batch sweeps return these in place of :class:`RunResult` so one bad
    cell cannot kill the rest of the matrix; ``error`` is the exception
    summary, ``traceback`` the formatted stack for diagnosis.
    """

    spec: RunSpec
    error: str
    traceback: str = field(default="", compare=False)

    def label(self) -> str:
        return f"{self.spec.label()}: {self.error}"
