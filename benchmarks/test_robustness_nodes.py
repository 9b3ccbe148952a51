"""Robustness bench: conclusions must hold across machine sizes.

The paper runs 8 nodes (4 for lu).  Larger machines raise the
remote:local traffic ratio (more of the address space is remote per
node), which should *amplify* the architecture differences, not change
their direction.  Runs em3d at 4/8/16 nodes.
"""

from repro.runtime import RunSpec
from repro.workloads import em3d

NODE_COUNTS = (4, 8, 16)


def sweep():
    rows = []
    for n in NODE_COUNTS:
        # A spec names only em3d's paper node count: the workload
        # replaces the spec's (an unstored run).
        wl = em3d.generate(n_nodes=n, scale=0.35)
        base, rnuma, ascoma = (RunSpec("em3d", arch, 0.9, 0.35)
                               .execute(traces=wl).aggregate().total_cycles()
                               for arch in ("CCNUMA", "RNUMA", "ASCOMA"))
        rows.append((n, rnuma / base, ascoma / base))
    return rows


def test_node_count_robustness(benchmark, emit):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = ["R3 machine-size robustness (em3d, 90% pressure,"
             " rel to CC-NUMA):",
             "  nodes | R-NUMA | AS-COMA"]
    for n, rnuma, ascoma in rows:
        lines.append(f"  {n:5d} | {rnuma:6.2f} | {ascoma:.2f}")
    emit("\n".join(lines), "robustness_nodes")

    for n, rnuma, ascoma in rows:
        assert ascoma < 1.1, (n, ascoma)
        assert rnuma > 1.2, (n, rnuma)
        assert ascoma < rnuma, n
