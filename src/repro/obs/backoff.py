"""Backoff telemetry: the adaptive mechanism as a per-run time series.

The paper's headline mechanism is *dynamic* — under sustained thrashing
the pageout daemon raises the relocation threshold, stretches its own
invocation interval and eventually disables remapping; when cold pages
reappear it walks all three back (Section 3).  End-of-run aggregates
cannot show that trajectory.  :class:`BackoffTelemetry` subscribes to
the :class:`~repro.sim.events.EventBus` for ``EV_DAEMON``,
``EV_BARRIER`` and ``EV_END`` only, so it sees every daemon decision
with cycle context while the run stays on the compiled kernel, which
publishes those kinds from its Python exits.  That is what keeps
``--obs`` within its overhead budget, where the invariant checker,
which also watches the page-management kinds and sweeps the whole
machine at every barrier, costs several times an unchecked run.

Each daemon run becomes one row carrying the post-backoff state
(threshold, interval, relocation enabled) plus *derived transitions*
against the node's previous row: ``threshold_delta``
(``raise``/``lower``), ``interval_delta`` (``stretch``/``reset``) and
``relocation`` (``disabled``/``re-enabled``).  Barrier releases become
``phase`` rows, so the series aligns with the program's phase
structure — the Figure-4-style view the aggregates lose.
"""

from __future__ import annotations

from ..sim.events import EV_BARRIER, EV_DAEMON, EV_END

__all__ = ["BackoffTelemetry"]


class BackoffTelemetry:
    """Kind-filtered EventBus observer building the backoff time series."""

    #: The only kinds this observer subscribes to — all rare, all
    #: published through ``EventBus.watching`` guards.
    KINDS = (EV_DAEMON, EV_BARRIER, EV_END)

    def __init__(self) -> None:
        #: time-ordered rows: {"rec": "backoff"|"phase", ...}
        self.rows: list[dict] = []
        #: node -> (threshold, interval, enabled) of its previous row.
        self._last: dict[int, tuple] = {}
        self.daemon_runs = 0
        self.thrash_events = 0
        self.threshold_raises = 0
        self.threshold_lowers = 0
        self.interval_stretches = 0
        self.interval_resets = 0
        self.relocation_disables = 0
        self.relocation_reenables = 0
        self.end_clock = 0

    # -- wiring ----------------------------------------------------------
    def attach(self, engine) -> "BackoffTelemetry":
        """Subscribe to *engine*'s bus (kind-filtered); returns self."""
        engine.machine.events.subscribe(self, kinds=self.KINDS)
        return self

    def detach(self, engine) -> None:
        engine.machine.events.unsubscribe(self)

    # -- observer --------------------------------------------------------
    def __call__(self, event) -> None:
        if event.kind == EV_DAEMON:
            self._on_daemon(event)
        elif event.kind == EV_BARRIER:
            self.rows.append({"rec": "phase", "clock": event.clock,
                              "barrier": event.detail.get("barrier")})
        else:  # EV_END
            self.end_clock = event.clock

    def _on_daemon(self, event) -> None:
        detail = event.detail
        threshold = detail.get("threshold", 0)
        interval = detail.get("interval", 0)
        enabled = detail.get("enabled", threshold > 0)
        row = {
            "rec": "backoff",
            "clock": event.clock,
            "node": event.node,
            "thrashing": detail.get("thrashing", False),
            "reclaimed": detail.get("reclaimed", 0),
            "target": detail.get("target", 0),
            "free": detail.get("free", 0),
            "threshold": threshold,
            "interval": interval,
            "enabled": enabled,
            "threshold_delta": None,
            "interval_delta": None,
            "relocation": None,
        }
        last = self._last.get(event.node)
        if last is not None:
            p_threshold, p_interval, p_enabled = last
            if threshold > p_threshold:
                row["threshold_delta"] = "raise"
                self.threshold_raises += 1
            elif threshold < p_threshold and enabled and p_enabled:
                # A drop to 0 via disabling is a "relocation" transition,
                # not a threshold walk-down.
                row["threshold_delta"] = "lower"
                self.threshold_lowers += 1
            if interval > p_interval:
                row["interval_delta"] = "stretch"
                self.interval_stretches += 1
            elif interval < p_interval:
                row["interval_delta"] = "reset"
                self.interval_resets += 1
            if p_enabled and not enabled:
                row["relocation"] = "disabled"
                self.relocation_disables += 1
            elif enabled and not p_enabled:
                row["relocation"] = "re-enabled"
                self.relocation_reenables += 1
        self._last[event.node] = (threshold, interval, enabled)
        self.daemon_runs += 1
        if row["thrashing"]:
            self.thrash_events += 1
        self.rows.append(row)

    # -- queries ---------------------------------------------------------
    def counters(self) -> dict:
        """Aggregate transition counts (one summary record per cell)."""
        return {
            "daemon_runs": self.daemon_runs,
            "thrash_events": self.thrash_events,
            "threshold_raises": self.threshold_raises,
            "threshold_lowers": self.threshold_lowers,
            "interval_stretches": self.interval_stretches,
            "interval_resets": self.interval_resets,
            "relocation_disables": self.relocation_disables,
            "relocation_reenables": self.relocation_reenables,
            "end_clock": self.end_clock,
        }

    def of_node(self, node_id: int) -> list[dict]:
        return [r for r in self.rows
                if r["rec"] == "backoff" and r["node"] == node_id]

    def series(self, node_id: int, field: str) -> list:
        return [r[field] for r in self.of_node(node_id)]
