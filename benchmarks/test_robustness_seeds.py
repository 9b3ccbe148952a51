"""Robustness bench: conclusions must not depend on the trace seed.

The workload generators are stochastic (page placement, visit order,
write draws); the paper's conclusions should hold for *any* draw.  Runs
the headline comparison (em3d at 90%: AS-COMA vs R-NUMA vs CC-NUMA)
across three generator seeds and checks that every seed reproduces the
ordering and that the relative times are stable to within a few
percent.
"""

import statistics

from repro.runtime import RunSpec
from repro.workloads import em3d

SEEDS = (7, 1001, 424242)


def sweep():
    rows = []
    for seed in SEEDS:
        # A spec cannot name a generator seed: the workload replaces
        # the spec's (an unstored run).
        wl = em3d.generate(scale=0.5, seed=seed)
        base, rnuma, ascoma = (RunSpec("em3d", arch, 0.9, 0.5)
                               .execute(traces=wl).aggregate().total_cycles()
                               for arch in ("CCNUMA", "RNUMA", "ASCOMA"))
        rows.append((seed, rnuma / base, ascoma / base))
    return rows


def test_seed_robustness(benchmark, emit):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = ["R1 seed robustness (em3d, 90% pressure, rel to CC-NUMA):",
             "  seed   | R-NUMA | AS-COMA"]
    for seed, rnuma, ascoma in rows:
        lines.append(f"  {seed:6d} | {rnuma:6.2f} | {ascoma:.2f}")
    ascomas = [r[2] for r in rows]
    rnumas = [r[1] for r in rows]
    lines.append(f"  stdev  | {statistics.pstdev(rnumas):6.3f} |"
                 f" {statistics.pstdev(ascomas):.3f}")
    emit("\n".join(lines), "robustness_seeds")

    for seed, rnuma, ascoma in rows:
        assert ascoma < 1.1, (seed, ascoma)       # AS-COMA ~ CC-NUMA
        assert rnuma > 1.2, (seed, rnuma)         # R-NUMA thrashes
        assert ascoma < rnuma, seed               # ordering holds
    assert statistics.pstdev(ascomas) < 0.05
