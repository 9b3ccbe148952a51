#!/usr/bin/env python3
"""Trace AS-COMA's adaptive state over time (paper Section 3 in motion).

Attaches a time-series sampler to two runs and renders ASCII sparklines
of the per-node backoff state:

* em3d at 90% pressure -- sustained thrashing: the relocation threshold
  climbs, the daemon interval stretches, relocation eventually stops;
* lu at 90% pressure -- phased working sets: the threshold climbs during
  a phase and *recovers* at phase changes when the daemon finds the dead
  phase's pages cold again.

Usage:
    python examples/backoff_timeline.py [app] [pressure]
"""

import sys

from repro.harness.experiment import scaled_policy
from repro.sim.config import SystemConfig
from repro.sim.engine import Engine
from repro.sim.timeseries import TimeSeriesSampler
from repro.workloads import generate_workload


def timeline(app: str, pressure: float) -> None:
    workload = generate_workload(app, scale=0.5)
    config = SystemConfig(n_nodes=workload.n_nodes, memory_pressure=pressure)
    engine = Engine(workload, scaled_policy("ASCOMA"), config)
    sampler = TimeSeriesSampler().attach(engine)
    result = engine.run()

    print(f"\n{app} at {pressure:.0%} pressure, AS-COMA "
          f"({len(sampler.times(0))} barrier samples); low->high glyphs"
          " ' .:-=+*#%@'\n")
    for field, label in (
        ("threshold", "relocation threshold"),
        ("daemon_interval", "pageout daemon interval"),
        ("free_frames", "free page-cache frames"),
        ("relocations", "cumulative relocations"),
        ("evictions", "cumulative evictions"),
    ):
        line = sampler.sparkline(0, field)
        values = sampler.series(0, field)
        print(f"  {label:26s} |{line}| {min(values)} -> {max(values)}")

    agg = result.aggregate()
    print(f"\n  final: {agg.relocations} relocations,"
          f" {agg.daemon_thrash} thrash signals,"
          f" kernel overhead {agg.K_OVERHD / agg.total_cycles():.1%}")


def main() -> None:
    if len(sys.argv) > 1:
        timeline(sys.argv[1],
                 float(sys.argv[2]) if len(sys.argv) > 2 else 0.9)
    else:
        timeline("em3d", 0.9)   # sustained thrash: backoff and hold
        timeline("lu", 0.9)     # phase changes: backoff and recovery


if __name__ == "__main__":
    main()
