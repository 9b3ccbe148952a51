"""Bounded per-event debug tracing.

For diagnosing a simulation (why did this page relocate?  which chunk
ping-pongs?), attach an :class:`EventTrace` to one node.  The trace
subscribes to the machine-wide :class:`~repro.sim.events.EventBus` for
the *page-management* kinds only (mappings, evictions, relocations,
flushes), not the chattier coherence traffic, so the bounded buffer
holds the interesting rare transitions.  A traced run still replays
on the compiled kernel, whose event ring publishes those kinds.

Usage::

    engine = Engine(workload, policy, config)
    trace = EventTrace.attach(engine.machine.nodes[0])
    engine.run()
    for ev in trace.events:
        print(ev)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .events import EV_EVICT, EV_FLUSH, EV_MAP_SCOMA, EV_RELOCATE

__all__ = ["Event", "EventTrace"]

#: Event kinds the trace subscribes to (page management only --
#: invalidations and demotions would flood the bounded buffer).
_TRACED_KINDS = (EV_MAP_SCOMA, EV_EVICT, EV_RELOCATE, EV_FLUSH)


@dataclass(frozen=True)
class Event:
    kind: str
    node: int
    page: int
    detail: str = ""

    def __str__(self) -> str:  # pragma: no cover - repr aid
        tail = f" ({self.detail})" if self.detail else ""
        return f"[node {self.node}] {self.kind} page {self.page}{tail}"


@dataclass
class EventTrace:
    """Records a node's page-management events (bounded)."""

    limit: int = 10_000
    events: list[Event] = field(default_factory=list)
    dropped: int = 0

    def record(self, kind: str, node: int, page: int, detail: str = "") -> None:
        if len(self.events) < self.limit:
            self.events.append(Event(kind, node, page, detail))
        else:
            self.dropped += 1

    def of_kind(self, kind: str) -> list[Event]:
        return [e for e in self.events if e.kind == kind]

    def pages(self, kind: str | None = None) -> list[int]:
        return [e.page for e in self.events
                if kind is None or e.kind == kind]

    def __len__(self) -> int:
        return len(self.events)

    # ------------------------------------------------------------------
    @classmethod
    def attach(cls, node, limit: int = 10_000) -> "EventTrace":
        """Subscribe a trace for *node*'s page-management events."""
        trace = cls(limit=limit)
        node_id = node.id

        def observer(event) -> None:
            if event.node != node_id:
                return
            detail = ""
            if event.kind == EV_EVICT:
                detail = "forced" if event.detail.get("forced") else "daemon"
            trace.record(event.kind, event.node, event.page, detail)

        node.events.subscribe(observer, _TRACED_KINDS)
        return trace

    def ping_pong_pages(self, min_cycles: int = 2) -> dict[int, int]:
        """Pages mapped into the page cache at least *min_cycles* times --
        the thrashing fingerprint.

        Counts ``map_scoma`` only: it is published once per S-COMA-first
        fault and once per relocation (which also publishes
        ``relocate`` for the same remap)."""
        counts: dict[int, int] = {}
        for event in self.events:
            if event.kind == EV_MAP_SCOMA:
                counts[event.page] = counts.get(event.page, 0) + 1
        return {page: n for page, n in counts.items() if n >= min_cycles}
