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

The compiled replay kernel records the transitions it performs as
rows of six ints, ``[code, node, page or chunk, clock, a, b]``, in an
event ring that :meth:`EventBus.publish_rows` delivers at its next
exit.  This module owns that encoding: :data:`ROW_KINDS` names each
ring code's kind, and :func:`event_row` / :func:`row_event` convert
between a row and a :class:`SimEvent`.  Per kind:

==================  ==============  ===========  ==========
kind                page or chunk   ``a``        ``b``
==================  ==============  ===========  ==========
invalidate, demote  chunk           0            0
relocate, flush     page            ``flushed``  0
fault               page            ``mode``     ``home``
map_scoma           page            0            0
evict               page            ``flushed``  ``forced``
==================  ==============  ===========  ==========

A subscriber that passes ``rows=take`` takes its ring kinds as rows:
each flush hands ``take`` the ring's rows of those kinds as one list,
and builds no event for it.  Events of those kinds published from
Python (a fault at which the daemon falls due, a daemon's evictions,
every event of the reference loop) still reach the subscriber itself,
one :class:`SimEvent` each.

Observers include :class:`~repro.sim.debug.EventTrace` (bounded
diagnostic recording), :class:`~repro.sim.timeseries.TimeSeriesSampler`
(per-barrier state samples), :class:`~repro.obs.BackoffTelemetry`
(``--obs``) and :class:`~repro.check.InvariantChecker` (online
invariant checking with deterministic failure replay), which takes
its four page-mode kinds as rows.
"""

from __future__ import annotations

__all__ = [
    "EventBus", "SimEvent",
    "EV_FAULT", "EV_MAP_SCOMA", "EV_EVICT", "EV_RELOCATE", "EV_FLUSH",
    "EV_INVALIDATE", "EV_DEMOTE", "EV_DAEMON", "EV_BARRIER", "EV_MIGRATE",
    "EV_END", "ALL_KINDS",
    "ROW_KINDS", "R_INVALIDATE", "R_DEMOTE", "R_RELOCATE", "R_FAULT",
    "R_MAP_SCOMA", "R_EVICT", "R_FLUSH", "ROW_WIDTH", "event_row",
    "row_event",
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

# -- the kernel's event rows ---------------------------------------------
#: The kind of each ring code: the first two carry a chunk, the rest a
#: page.  The replay kernel reads the ``R_*`` codes and ``ROW_WIDTH``
#: (the ints per row) by these names.
ROW_KINDS = (EV_INVALIDATE, EV_DEMOTE, EV_RELOCATE, EV_FAULT, EV_MAP_SCOMA,
             EV_EVICT, EV_FLUSH)
(R_INVALIDATE, R_DEMOTE, R_RELOCATE, R_FAULT, R_MAP_SCOMA, R_EVICT,
 R_FLUSH) = range(len(ROW_KINDS))
ROW_WIDTH = 6
_ROW_CODE = {kind: code for code, kind in enumerate(ROW_KINDS)}


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


def event_row(event: SimEvent) -> list:
    """The row of an event of one of :data:`ROW_KINDS`, as the kernel
    records it."""
    code = _ROW_CODE[event.kind]
    detail = event.detail
    if code <= R_DEMOTE:
        return [code, event.node, detail["chunk"], event.clock, 0, 0]
    if code == R_FAULT:
        a, b = detail["mode"], detail["home"]
    elif code == R_EVICT:
        a, b = detail["flushed"], int(detail["forced"])
    else:
        a, b = detail.get("flushed", 0), 0
    return [code, event.node, event.page, event.clock, a, b]


def row_event(row, chunk_page_shift: int) -> SimEvent:
    """The event a row stands for, with the detail the reference loop
    publishes it with; an invalidation's or demotion's page is its
    chunk shifted right by *chunk_page_shift* (log2 chunks per page)."""
    code, node, where, clock, a, b = row
    kind = ROW_KINDS[code]
    if code <= R_DEMOTE:
        return SimEvent(kind, node, where >> chunk_page_shift, clock,
                        {"chunk": where})
    if code == R_FAULT:
        detail = {"mode": a, "home": b}
    elif code == R_EVICT:
        detail = {"forced": bool(b), "flushed": a}
    elif code == R_MAP_SCOMA:
        detail = {}
    else:
        detail = {"flushed": a}
    return SimEvent(kind, node, where, clock, detail)


class EventBus:
    """Synchronous kind-filtered subscriptions with a clock hint.

    Every observer names the kinds it wants; ``kind_observers`` maps a
    kind to its subscribers in subscription order, and holds no kind
    without one.  ``row_takers`` holds ``(observer, take, codes)`` for
    each subscriber that takes the ring codes *codes* as rows.  Every
    kind reaches its subscribers on both replay loops, with the same
    clocks and order.
    """

    __slots__ = ("kind_observers", "row_takers", "clock", "_row_plan")

    def __init__(self) -> None:
        #: kind -> observers subscribed to it, in subscription order.
        self.kind_observers: dict = {}
        self.row_takers: list = []
        self.clock = 0
        self._row_plan = None

    def subscribe(self, observer, kinds, rows=None) -> None:
        """Register ``observer(event: SimEvent)`` for each of *kinds*.

        With *rows*, the kernel's ring hands ``rows(batch)`` each
        flush's rows of the :data:`ROW_KINDS` among *kinds*, instead of
        building an event per row for *observer*."""
        kinds = tuple(kinds)
        for kind in kinds:
            self.kind_observers.setdefault(kind, []).append(observer)
        if rows is not None:
            codes = frozenset(_ROW_CODE[k] for k in kinds if k in _ROW_CODE)
            self.row_takers.append((observer, rows, codes))
        self._row_plan = None

    def unsubscribe(self, observer) -> None:
        for kind in list(self.kind_observers):
            subscribers = self.kind_observers[kind]
            while observer in subscribers:
                subscribers.remove(observer)
            if not subscribers:
                del self.kind_observers[kind]
        self.row_takers = [taker for taker in self.row_takers
                           if taker[0] != observer]
        self._row_plan = None

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

    def publish_rows(self, rows, chunk_page_shift: int) -> None:
        """Deliver the kernel's event rows (an ``(n, ROW_WIDTH)`` array,
        in publish order): each row taker gets one list of the rows of
        its codes, and every other subscriber of a row's kind an event
        built once per row (see :func:`row_event`)."""
        if self._row_plan is None:
            self._row_plan = self._plan_rows()
        takes, targets = self._row_plan
        batch = rows.tolist()
        for take, codes in takes:
            mine = (batch if codes is None
                    else [row for row in batch if row[0] in codes])
            if mine:
                take(mine)
        if targets is None:
            return
        for row in batch:
            observers = targets[row[0]]
            if observers:
                event = row_event(row, chunk_page_shift)
                for observer in observers:
                    observer(event)

    def _plan_rows(self) -> tuple:
        """How :meth:`publish_rows` delivers, until the subscriptions
        change: ``(take, codes)`` per row taker (``codes`` ``None`` when
        it takes every watched ring kind), and the observers that get
        events, per ring code (``None`` when none does)."""
        ringed = {code for code, kind in enumerate(ROW_KINDS)
                  if kind in self.kind_observers}
        takers = self.row_takers
        takes = [(take, None if ringed <= codes else codes)
                 for _, take, codes in takers]
        targets = [[observer for observer in self.kind_observers.get(kind, ())
                    if not any(taker == observer and code in codes
                               for taker, _, codes in takers)]
                   for code, kind in enumerate(ROW_KINDS)]
        return takes, targets if any(targets) else None
