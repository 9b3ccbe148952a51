"""The benchmark's three workloads and the checks on their outputs.

Each workload is a list of *units* (matrix cells, or app-scale pairs)
that one timed pass runs once each, in order.  The program only ever
receives generated traces: replay goes through
``RunSpec.execute(traces=...)`` and trace I/O through
``TraceStore.put/get(..., seed=...)``.

The benchmark seed ``S`` picks every generator's seed.  ``S = 42`` gives
each application its calibrated default seed, so seed 42 replays exactly
the traces ``repro matrix`` uses for Figures 2-3, and its outputs are
pinned by the committed ``digests.json``.  Any other seed shifts every
generator seed by ``S - 42``; its outputs are checked against a second
substrate instead (scalar replay, kernel replay, in-memory sampling).
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import repro.workloads as repro_workloads
from repro.harness.experiment import APP_PRESSURES, scaled_policy
from repro.harness.parallel import matrix_specs
from repro.runtime import RunSpec, RunStore, tracecache
from repro.runtime.tracecache import TraceStore
from repro.sim.config import SystemConfig
from repro.sim.engine import DEFAULT_QUANTUM, Engine
from repro.workloads import SampleSpec, sample_workload, workload_spec

__all__ = ["DEFAULT_SEED", "WORKLOADS", "make", "load_digests"]

DEFAULT_SEED = 42

DIGESTS_PATH = Path(__file__).with_name("digests.json")

#: Scale of the replayed matrix: the existing ``matrix_e2e`` cell set.
MATRIX_SCALE = 0.1
#: Scale of the checked slice: the ``matrix_micro`` cell set.
CHECKED_SCALE = 0.25
#: Scales the trace workload generates, stores, reads and samples.
TRACE_SCALES = (0.1, 0.5, 1.0)
#: Sampling applied to every stored trace (the CLI's ``--sample-rate 4``).
SAMPLE = SampleSpec(rate=4)
#: Matrix cells a run re-replays on the scalar loop after timing.
SCALAR_SAMPLE_CELLS = 6


def generator_seed(app: str, scale: float, seed: int) -> int:
    """The generator seed of *app* under benchmark seed *seed*."""
    base = workload_spec(app, scale).seed
    return (base + seed - DEFAULT_SEED) % 2**32


def result_digest(result) -> tuple[str, int]:
    """16-hex digest of ``RunResult.to_dict()`` without the checker's
    violation count, and that count (0 for unchecked runs)."""
    data = result.to_dict()
    extra = dict(data["extra"])
    violations = extra.pop("invariant_violations", 0)
    data["extra"] = extra
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16], violations


def load_digests() -> dict:
    with open(DIGESTS_PATH) as f:
        return json.load(f)


def _events(traces) -> int:
    return sum(len(t.kinds) for t in traces.traces)


class Workload:
    """Units, set-up and output checks shared by the three workloads.

    ``run(unit)`` is the timed operation.  ``digest(unit, output)`` is
    what ``digests.json`` pins for seed 42.  ``check(unit, output)``
    returns ``None`` when the output is right, else the reason it is
    not.  ``cross_checks()`` yields ``(label, thunk)`` pairs run after
    timing, each thunk returning ``None`` or a reason.
    """

    name = ""

    def __init__(self, seed: int, run_dir: Path,
                 expected: dict | None = None) -> None:
        self.seed = seed
        self.run_dir = Path(run_dir)
        self.warm_store = TraceStore(self.run_dir / "warm-traces")
        #: Committed digests to match (seed 42 only; ``{}`` disables).
        if expected is None:
            expected = (load_digests()[self.name] if seed == DEFAULT_SEED
                        else {})
        self.expected = expected
        self.violations = 0
        self.traces: dict = {}
        self.units: list = []

    def inputs(self) -> list[tuple[str, float]]:
        """The (app, scale) traces a process fetches during set-up."""
        raise NotImplementedError

    def warm(self) -> None:
        """Fill the warm trace store with every input (untimed)."""
        for app, scale in self.inputs():
            gseed = generator_seed(app, scale, self.seed)
            traces = repro_workloads.generate_workload(app, scale, seed=gseed)
            self.warm_store.put(app, scale, traces, seed=gseed)

    def setup(self) -> None:
        """Fetch every input from the warm store, as a fresh process does."""
        for app, scale in self.inputs():
            traces = self.warm_store.get(
                app, scale, seed=generator_seed(app, scale, self.seed))
            if traces is None:
                raise RuntimeError(f"warm trace store misses {app}@{scale}")
            self.traces[(app, scale)] = traces

    def label(self, unit) -> str:
        raise NotImplementedError

    def events(self, unit) -> int:
        raise NotImplementedError

    def run(self, unit):
        raise NotImplementedError

    def digest(self, unit, output):
        raise NotImplementedError

    def check(self, unit, output) -> str | None:
        raise NotImplementedError

    def cross_checks(self, every: bool = False):
        """*every* widens a sampled cross-check to every unit."""
        return []


class _ReplayWorkload(Workload):
    """Shared by ``matrix`` and ``checked``: units are RunSpecs."""

    def __init__(self, seed: int, run_dir: Path,
                 expected: dict | None = None) -> None:
        super().__init__(seed, run_dir, expected)
        self._seen: dict[str, str] = {}

    def inputs(self):
        return list(dict.fromkeys((s.app, s.scale) for s in self.units))

    def label(self, spec) -> str:
        return spec.label()

    def events(self, spec) -> int:
        return _events(self.traces[(spec.app, spec.scale)])

    def _expect(self, key: str, digest: str) -> str | None:
        """Compare with the committed digest (seed 42), else with the
        first digest this run saw for *key*."""
        want = self.expected.get(key)
        if want is None:
            want = self._seen.setdefault(key, digest)
        if digest != want:
            return f"{key}: digest {digest} != expected {want}"
        return None

    def digest(self, spec, result) -> str:
        return result_digest(result)[0]

    def check(self, spec, result) -> str | None:
        digest, violations = result_digest(result)
        self.violations += violations
        if violations:
            return f"{spec.label()}: {violations} invariant violation(s)"
        return self._expect(spec.label(), digest)


class MatrixWorkload(_ReplayWorkload):
    """All 90 cells of the evaluation matrix on the default kernel path,
    each result written to a scratch result store."""

    name = "matrix"

    def __init__(self, seed: int, run_dir: Path,
                 expected: dict | None = None) -> None:
        super().__init__(seed, run_dir, expected)
        self.units = matrix_specs(scale=MATRIX_SCALE)
        self.run_store = RunStore(self.run_dir / "results")

    def run(self, spec):
        result = spec.execute(traces=self.traces[(spec.app, spec.scale)])
        self.run_store.put(spec, result)
        return result

    def _replay_scalar(self, spec):
        """One cell as ``RunSpec.execute`` runs it, but on the scalar loop."""
        traces = self.traces[(spec.app, spec.scale)]
        config = SystemConfig(n_nodes=traces.n_nodes,
                              memory_pressure=spec.pressure)
        return Engine(traces, scaled_policy(spec.arch), config=config,
                      quantum=spec.quantum or DEFAULT_QUANTUM,
                      vector_path=False).run()

    def cross_checks(self, every: bool = False):
        """A seeded sample of cells replayed on the scalar loop must give
        the kernel's results (every seed; seed 42 is also pinned)."""
        cells = (self.units if every else
                 random.Random(self.seed).sample(self.units,
                                                 SCALAR_SAMPLE_CELLS))
        for spec in cells:
            def thunk(spec=spec):
                digest, _ = result_digest(self._replay_scalar(spec))
                return self._expect(spec.label(), digest)
            yield f"scalar:{spec.label()}", thunk


class CheckedWorkload(_ReplayWorkload):
    """The ``matrix_micro`` slice under the online invariant checker,
    which takes every cell off the kernel onto the scalar loop."""

    name = "checked"

    def __init__(self, seed: int, run_dir: Path,
                 expected: dict | None = None) -> None:
        super().__init__(seed, run_dir, expected)
        from repro.perf.suite import MATRIX_CELLS

        self.units = [RunSpec.make(app, arch, pressure, CHECKED_SCALE)
                      for app, arch, pressure in MATRIX_CELLS]

    def run(self, spec):
        return spec.execute(check=True,
                            traces=self.traces[(spec.app, spec.scale)])

    def cross_checks(self, every: bool = False):
        """Every checked cell must equal the same cell on the kernel."""
        for spec in self.units:
            def thunk(spec=spec):
                digest, _ = result_digest(spec.execute(
                    traces=self.traces[(spec.app, spec.scale)]))
                return self._expect(spec.label(), digest)
            yield f"kernel:{spec.label()}", thunk


class TracesWorkload(Workload):
    """Generate, store, read back and sample every app at three scales."""

    name = "traces"

    def __init__(self, seed: int, run_dir: Path,
                 expected: dict | None = None) -> None:
        super().__init__(seed, run_dir, expected)
        self.units = [(app, scale) for app in APP_PRESSURES
                      for scale in TRACE_SCALES]
        self.pass_store = TraceStore(self.run_dir / "pass-traces")
        #: unit -> [full hash, sampled hash] seen on the first pass.
        self._hashes: dict = {}

    def inputs(self):
        return list(self.units)

    def label(self, unit) -> str:
        app, scale = unit
        return f"{app}@{scale:g}"

    def events(self, unit) -> int:
        return _events(self.traces[unit])

    def run(self, unit):
        app, scale = unit
        gseed = generator_seed(app, scale, self.seed)
        generated = repro_workloads.generate_workload(app, scale, seed=gseed)
        path = self.pass_store.put(app, scale, generated, seed=gseed)
        stored = self.pass_store.get(app, scale, seed=gseed)
        sampled = tracecache.sample_from_sidecar(path, SAMPLE)
        return generated, stored, sampled

    def digest(self, unit, output) -> list[str]:
        generated, _, sampled = output
        return [generated.content_hash(), sampled.content_hash()]

    def check(self, unit, output) -> str | None:
        generated, stored, sampled = output
        key = self.label(unit)
        if stored is None:
            return f"{key}: trace store missed its own write"
        if sampled is None:
            return f"{key}: no sample from the .soa sidecar"
        got = self.digest(unit, output)
        full = got[0]
        if unit not in self._hashes:
            # First pass: everything against the committed digests
            # (seed 42) or the in-memory generation and sampling.
            want = self.expected.get(key)
            if want is None:
                want = [full, sample_workload(generated, SAMPLE).content_hash()]
            if got != want:
                return f"{key}: hashes {got} != expected {want}"
            self._hashes[unit] = want
        elif got != self._hashes[unit]:
            return f"{key}: hashes {got} changed between passes"
        if stored.content_hash() != full:
            return f"{key}: stored trace hashes {stored.content_hash()}" \
                   f" != generated {full}"
        return None


WORKLOADS = {cls.name: cls for cls in
             (MatrixWorkload, CheckedWorkload, TracesWorkload)}


def make(name: str, seed: int, run_dir, expected: dict | None = None
         ) -> Workload:
    return WORKLOADS[name](seed, Path(run_dir), expected)
