"""Bench T4b: average observed latency vs Table 4 minimums.

Paper, Section 4.1: "The average latency in our simulation is
considerably higher than this minimum because of contention for various
resources (bus, memory banks, networks, etc.), which we accurately
model."  This bench measures per-class average stall under a real
workload and checks both directions: averages sit *above* the minimums
under load, and collapse back *to* the minimums when contention
modelling is disabled.
"""

import pytest

from repro.harness.experiment import DEFAULT_SCALE
from repro.runtime import RunSpec


def run(contention: bool):
    return RunSpec.make("em3d", "CCNUMA", 0.5, DEFAULT_SCALE,
                        config_overrides={"model_contention": contention}
                        ).execute().aggregate()


def test_average_vs_minimum_latency(benchmark, emit):
    loaded, quiet = benchmark.pedantic(
        lambda: (run(True), run(False)), rounds=1, iterations=1)
    minimums = {"HOME": 50, "RAC": 36, "COLD": 180, "CONF_CAPC": 180}
    lines = ["T4b average observed latency (em3d, CC-NUMA, 50% pressure):",
             "  class     | minimum | avg (contention) | avg (no contention)"]
    for cls, minimum in minimums.items():
        lines.append(f"  {cls:9s} | {minimum:7d} |"
                     f" {loaded.average_latency(cls):16.1f} |"
                     f" {quiet.average_latency(cls):.1f}")
    emit("\n".join(lines), "table4_average")

    for cls, minimum in minimums.items():
        avg_loaded = loaded.average_latency(cls)
        avg_quiet = quiet.average_latency(cls)
        # Under load, averages exceed the minimum (the paper's point)...
        assert avg_loaded >= minimum - 0.5, (cls, avg_loaded)
        # ...and with contention off they return to within a few cycles
        # of it (residual: kernel-adjacent bus/dsm bookkeeping).
        assert avg_quiet == pytest.approx(minimum, abs=8), (cls, avg_quiet)
    # Remote classes show the largest contention inflation.
    assert loaded.average_latency("COLD") > 1.1 * 180
