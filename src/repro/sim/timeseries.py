"""Time-series sampling of policy state during a run.

The paper reports end-of-run aggregates; understanding *why* AS-COMA
converges (threshold climbing, relocation shutting off, daemon interval
stretching, a phase change recovering) needs the trajectory.  A
:class:`TimeSeriesSampler` attached to an
:class:`~repro.sim.engine.Engine` subscribes to ``EV_BARRIER`` and
snapshots every node's page-management state at each barrier release --
the natural globally-consistent points of the execution.  Barrier
releases are published at a Python exit of either replay loop, and
every field it samples, ``NodeStats`` included, is live there, so a
sampled run still replays on the compiled kernel::

    sampler = TimeSeriesSampler().attach(engine)
    engine.run()
    sampler.series(0, "threshold")

Used by ``examples/backoff_timeline.py`` and the regression tests that
pin down the backoff dynamics (monotone threshold climb under sustained
thrashing, recovery after lu-style phase changes).
"""

from __future__ import annotations

from .events import EV_BARRIER

__all__ = ["TimeSeriesSampler", "Sample"]


class Sample:
    """One node's state at one sampling point."""

    __slots__ = ("time", "node", "free_frames", "scoma_pages", "threshold",
                 "relocation_enabled", "relocations", "evictions",
                 "daemon_interval", "daemon_thrash")

    def __init__(self, time: int, node) -> None:
        self.time = time
        self.node = node.id
        self.free_frames = node.pool.free
        self.scoma_pages = node.page_table.scoma_page_count()
        self.threshold = node.policy_state.effective_threshold()
        self.relocation_enabled = self.threshold > 0 or not hasattr(
            node.policy_state, "backoff")
        stats = node.stats
        self.relocations = stats.relocations
        self.evictions = stats.evictions
        self.daemon_interval = node.daemon.interval
        self.daemon_thrash = stats.daemon_thrash

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class TimeSeriesSampler:
    """Collects per-node samples at every barrier release."""

    def __init__(self) -> None:
        self.samples: list[Sample] = []

    def attach(self, engine) -> "TimeSeriesSampler":
        """Sample *engine*'s nodes at each of its barrier releases;
        returns self."""
        nodes = engine.machine.nodes
        engine.machine.events.subscribe(
            lambda event: self.sample(event.clock, nodes), (EV_BARRIER,))
        return self

    def sample(self, now: int, nodes) -> None:
        for node in nodes:
            self.samples.append(Sample(now, node))

    # -- queries -----------------------------------------------------------
    def of_node(self, node_id: int) -> list[Sample]:
        return [s for s in self.samples if s.node == node_id]

    def series(self, node_id: int, field: str) -> list:
        return [getattr(s, field) for s in self.of_node(node_id)]

    def times(self, node_id: int = 0) -> list[int]:
        return self.series(node_id, "time")

    def __len__(self) -> int:
        return len(self.samples)

    def sparkline(self, node_id: int, field: str, width: int = 60) -> str:
        """ASCII sparkline of one field's trajectory for one node."""
        values = self.series(node_id, field)
        if not values:
            return ""
        if len(values) > width:
            step = len(values) / width
            values = [values[int(i * step)] for i in range(width)]
        lo, hi = min(values), max(values)
        glyphs = " .:-=+*#%@"
        if hi == lo:
            return glyphs[0] * len(values)
        return "".join(
            glyphs[int((v - lo) / (hi - lo) * (len(glyphs) - 1))]
            for v in values)
