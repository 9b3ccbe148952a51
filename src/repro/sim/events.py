"""Simulation event bus: rare page-management and coherence events.

The replay engine's per-reference hot path must stay fast, so the bus
publishes only the *rare* transitions the protocol and VM state
machines make -- page faults, S-COMA mappings, evictions, relocations,
flushes, migrations, invalidations, daemon runs, barrier releases --
to the observers that subscribed to that kind.  Every publish site
guards on :meth:`EventBus.watching`, so a kind nobody watches costs one
dict probe and builds no event.

One :class:`EventBus` is shared by a :class:`~repro.sim.machine.Machine`
and all of its nodes.  While the bus has any subscriber, the engine
stamps ``bus.clock`` with the acting node's local clock at every
rare-event entry point, so observers see events with cycle context
without the hot path threading ``now`` through every call;
invalidations and demotions carry their own protocol time instead.

Observers include :class:`~repro.sim.debug.EventTrace` (bounded
diagnostic recording), :class:`~repro.sim.timeseries.TimeSeriesSampler`
(per-barrier state samples), :class:`~repro.obs.BackoffTelemetry`
(``--obs``) and :class:`~repro.check.InvariantChecker` (online
invariant checking with deterministic failure replay).
"""

from __future__ import annotations

__all__ = [
    "EventBus", "SimEvent",
    "EV_FAULT", "EV_MAP_SCOMA", "EV_EVICT", "EV_RELOCATE", "EV_FLUSH",
    "EV_INVALIDATE", "EV_DEMOTE", "EV_DAEMON", "EV_BARRIER", "EV_MIGRATE",
    "EV_END", "ALL_KINDS",
]

# -- event kinds ---------------------------------------------------------
EV_FAULT = "fault"            #: first touch of a shared page on a node
EV_MAP_SCOMA = "map_scoma"    #: page installed into the local page cache
EV_EVICT = "evict"            #: S-COMA page evicted (detail: forced)
EV_RELOCATE = "relocate"      #: CC-NUMA page upgraded to S-COMA mode
EV_FLUSH = "flush"            #: page flushed from all local caches
EV_INVALIDATE = "invalidate"  #: chunk invalidated by a remote write
EV_DEMOTE = "demote"          #: write permission lost to a remote read
EV_DAEMON = "daemon"          #: pageout daemon run (detail: thrashing)
EV_BARRIER = "barrier"        #: global barrier released
EV_MIGRATE = "migrate"        #: page home migrated (detail: old_home)
EV_END = "end"                #: simulation finished

#: The eleven simulation kinds: what an observer of everything names.
ALL_KINDS = (EV_FAULT, EV_MAP_SCOMA, EV_EVICT, EV_RELOCATE, EV_FLUSH,
             EV_INVALIDATE, EV_DEMOTE, EV_DAEMON, EV_BARRIER, EV_MIGRATE,
             EV_END)


class SimEvent:
    """One published event.  ``detail`` carries kind-specific context."""

    __slots__ = ("kind", "node", "page", "clock", "detail")

    def __init__(self, kind: str, node: int, page: int, clock: int,
                 detail: dict) -> None:
        self.kind = kind
        self.node = node
        self.page = page
        self.clock = clock
        self.detail = detail

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        tail = f" {self.detail}" if self.detail else ""
        return (f"<{self.kind} node={self.node} page={self.page}"
                f" clock={self.clock}{tail}>")


class EventBus:
    """Synchronous kind-filtered subscriptions with a clock hint.

    Every observer names the kinds it wants; ``kind_observers`` maps a
    kind to its subscribers in subscription order, and holds no kind
    without one.  Every kind reaches its subscribers on both replay
    loops, with the same clocks and order.
    """

    __slots__ = ("kind_observers", "clock")

    def __init__(self) -> None:
        #: kind -> observers subscribed to it, in subscription order.
        self.kind_observers: dict = {}
        self.clock = 0

    def subscribe(self, observer, kinds) -> None:
        """Register ``observer(event: SimEvent)`` for each of *kinds*."""
        for kind in kinds:
            self.kind_observers.setdefault(kind, []).append(observer)

    def unsubscribe(self, observer) -> None:
        for kind in list(self.kind_observers):
            subscribers = self.kind_observers[kind]
            while observer in subscribers:
                subscribers.remove(observer)
            if not subscribers:
                del self.kind_observers[kind]

    def watching(self, kind: str) -> bool:
        """Would a publish of *kind* reach any observer right now?"""
        return kind in self.kind_observers

    def publish(self, kind: str, node: int, page: int,
                clock: int | None = None, **detail) -> None:
        """Deliver one event to *kind*'s subscribers.  It carries
        *clock* when given, else the ambient ``self.clock``."""
        subscribers = self.kind_observers.get(kind)
        if not subscribers:
            return
        event = SimEvent(kind, node, page,
                         self.clock if clock is None else clock, detail)
        for observer in subscribers:
            observer(event)
