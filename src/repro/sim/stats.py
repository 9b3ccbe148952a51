"""Execution statistics: cycle buckets and miss classification.

These mirror the two chart families of Figures 2 and 3:

* **Time buckets** (left charts): U-SH-MEM (stalled on shared memory),
  K-BASE (essential kernel work), K-OVERHD (architecture-specific kernel
  work: remapping, flushing, relocation interrupts, pageout daemon),
  U-INSTR (user instructions), U-LC-MEM (non-shared memory stalls), and
  SYNC (synchronisation waits).

* **Miss classes** (right charts): HOME (local node is the home),
  SCOMA (satisfied from the local page cache), RAC, COLD (cold misses
  satisfied remotely, *including* remap-induced ones), and CONF-CAPC
  (conflict/capacity misses that went remote).
"""

from __future__ import annotations

import numpy as np

from ..kernel.freelist import counter_row, row_slot

__all__ = ["FIELDS", "MISS_CLASSES", "N_STATS", "NodeStats", "RunResult",
           "TIME_BUCKETS"]

TIME_BUCKETS = ("U_SH_MEM", "K_BASE", "K_OVERHD", "U_INSTR", "U_LC_MEM", "SYNC")
MISS_CLASSES = ("HOME", "SCOMA", "RAC", "COLD", "CONF_CAPC")

#: The per-node counters in row (and ``as_dict()``) order.
FIELDS = (
    # time buckets (cycles)
    "U_SH_MEM", "K_BASE", "K_OVERHD", "U_INSTR", "U_LC_MEM", "SYNC",
    # miss classes (counts)
    "HOME", "SCOMA", "RAC", "COLD", "CONF_CAPC",
    # per-class stall cycles (for average-latency analysis)
    "HOME_LAT", "SCOMA_LAT", "RAC_LAT", "COLD_LAT", "CONF_CAPC_LAT",
    # event counters
    "page_faults", "relocations", "skipped_relocations", "evictions",
    "forced_evictions", "daemon_runs", "daemon_thrash", "upgrades",
    "induced_cold", "essential_cold", "lines_flushed", "l1_hits",
    "l1_misses", "migrations", "skipped_migrations",
)
N_STATS = len(FIELDS)
#: The row slot of each field, for the hot paths that index the row;
#: the replay kernel reads these names.
(S_U_SH_MEM, S_K_BASE, S_K_OVERHD, S_U_INSTR, S_U_LC_MEM, S_SYNC, S_HOME,
 S_SCOMA, S_RAC, S_COLD, S_CONF_CAPC, S_HOME_LAT, S_SCOMA_LAT, S_RAC_LAT,
 S_COLD_LAT, S_CONF_CAPC_LAT, S_PAGE_FAULTS, S_RELOCATIONS,
 S_SKIPPED_RELOCATIONS, S_EVICTIONS, S_FORCED_EVICTIONS, S_DAEMON_RUNS,
 S_DAEMON_THRASH, S_UPGRADES, S_INDUCED_COLD, S_ESSENTIAL_COLD,
 S_LINES_FLUSHED, S_L1_HITS, S_L1_MISSES, S_MIGRATIONS,
 S_SKIPPED_MIGRATIONS) = range(N_STATS)


class NodeStats:
    """Per-node counters: properties over the slots of one ``int64``
    row, which a machine's nodes share with the replay kernel (hot paths
    index ``row`` directly).  A :class:`RunResult` holds copies."""

    __slots__ = ("row",)

    def __init__(self, row=None) -> None:
        self.row = counter_row(N_STATS, row)

    def copy(self) -> "NodeStats":
        """These counters in a row of their own."""
        return NodeStats(np.array(self.row))

    # Pickles carry the fields by name, as for a plain slotted object.
    def __getstate__(self):
        return None, self.as_dict()

    def __setstate__(self, state) -> None:
        self.__init__()
        for name, value in state[1].items():
            setattr(self, name, value)

    # ------------------------------------------------------------------
    def total_cycles(self) -> int:
        return (self.U_SH_MEM + self.K_BASE + self.K_OVERHD
                + self.U_INSTR + self.U_LC_MEM + self.SYNC)

    def busy_cycles(self) -> int:
        """Cycles excluding synchronisation wait."""
        return self.total_cycles() - self.SYNC

    def shared_misses(self) -> int:
        return self.HOME + self.SCOMA + self.RAC + self.COLD + self.CONF_CAPC

    def remote_misses(self) -> int:
        """Misses that crossed the network (COLD + CONF/CAPC)."""
        return self.COLD + self.CONF_CAPC

    def time_breakdown(self) -> dict[str, int]:
        return {b: getattr(self, b) for b in TIME_BUCKETS}

    def miss_breakdown(self) -> dict[str, int]:
        return {m: getattr(self, m) for m in MISS_CLASSES}

    def average_latency(self, miss_class: str) -> float:
        """Average observed stall per miss of one class (cycles).

        Includes queueing at banks/ports/buses, so under load it sits
        above the Table 4 minimum -- the paper notes exactly this
        ("the average latency in our simulation is considerably higher
        than this minimum because of contention").
        """
        count = getattr(self, miss_class)
        return getattr(self, miss_class + "_LAT") / count if count else 0.0

    def as_dict(self) -> dict[str, int]:
        return dict(zip(FIELDS, self.row.tolist()))

    @classmethod
    def from_dict(cls, data: dict) -> "NodeStats":
        """Inverse of :meth:`as_dict`; unknown keys are rejected."""
        stats = cls()
        for key, value in data.items():
            setattr(stats, key, value)  # non-slot keys raise AttributeError
        return stats

    def merge(self, other: "NodeStats") -> None:
        row = self.row
        for slot, value in enumerate(other.row.tolist()):
            row[slot] += value


for _slot, _name in enumerate(FIELDS):
    setattr(NodeStats, _name, row_slot(_slot))
del _slot, _name


class RunResult:
    """Outcome of one simulation run (one arch x workload x pressure)."""

    def __init__(self, architecture: str, workload: str, pressure: float,
                 node_stats: list[NodeStats], extra: dict | None = None) -> None:
        self.architecture = architecture
        self.workload = workload
        self.pressure = pressure
        self.node_stats = node_stats
        self.extra = extra or {}

    # -- aggregates ------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self.node_stats)

    def execution_time(self) -> int:
        """Parallel execution time = slowest node's total cycles."""
        return max(s.total_cycles() for s in self.node_stats)

    def aggregate(self) -> NodeStats:
        total = NodeStats()
        for s in self.node_stats:
            total.merge(s)
        return total

    def time_breakdown(self, normalise_by: int | None = None) -> dict[str, float]:
        """Machine-wide time breakdown, optionally normalised.

        The paper's stacked bars show per-architecture totals relative
        to CC-NUMA's; pass CC-NUMA's aggregate total as *normalise_by*
        to reproduce that scaling.
        """
        agg = self.aggregate()
        denom = normalise_by if normalise_by else 1
        return {b: getattr(agg, b) / denom for b in TIME_BUCKETS}

    def miss_breakdown(self) -> dict[str, int]:
        agg = self.aggregate()
        return {m: getattr(agg, m) for m in MISS_CLASSES}

    def relative_time(self, baseline: "RunResult") -> float:
        """This run's aggregate busy time relative to *baseline*'s."""
        return (self.aggregate().total_cycles()
                / max(1, baseline.aggregate().total_cycles()))

    def kernel_overhead_fraction(self) -> float:
        agg = self.aggregate()
        total = agg.total_cycles()
        return agg.K_OVERHD / total if total else 0.0

    @property
    def invariant_violations(self) -> int | None:
        """Online-checker violation count; None when no checker ran."""
        return self.extra.get("invariant_violations")

    # -- serialisation ---------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-compatible form; round-trips through :meth:`from_dict`.

        The canonical result serialisation: the runtime result store
        builds on this pair.
        """
        return {
            "architecture": self.architecture,
            "workload": self.workload,
            "pressure": self.pressure,
            "nodes": [s.as_dict() for s in self.node_stats],
            # `extra` holds only plain dict/int content by construction.
            "extra": self.extra,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunResult":
        nodes = [NodeStats.from_dict(d) for d in data["nodes"]]
        return cls(data["architecture"], data["workload"], data["pressure"],
                   nodes, data.get("extra"))

    def summary(self) -> dict:
        agg = self.aggregate()
        out = {
            "architecture": self.architecture,
            "workload": self.workload,
            "pressure": self.pressure,
            "execution_time": self.execution_time(),
            "time": agg.time_breakdown(),
            "misses": agg.miss_breakdown(),
            "relocations": agg.relocations,
            "evictions": agg.evictions,
            "daemon_runs": agg.daemon_runs,
            "induced_cold": agg.induced_cold,
        }
        if self.invariant_violations is not None:
            out["invariant_violations"] = self.invariant_violations
        return out
