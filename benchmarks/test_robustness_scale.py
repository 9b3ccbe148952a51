"""Robustness bench: conclusions must hold across workload scales.

Our workloads are scaled-down substitutes for the paper's SPLASH-2
runs; the conclusions should be properties of the *shape* (working set
vs page cache, hotness, locality), not of the absolute trace size.
Runs the em3d headline at scales 0.25x / 0.5x / 1.0x and checks the
ordering and AS-COMA's CC-NUMA convergence at every scale.
"""

from repro.harness.experiment import get_workload
from repro.runtime import RunSpec

SCALES = (0.25, 0.5, 1.0)


def sweep():
    rows = []
    for scale in SCALES:
        base, scoma, rnuma, ascoma = (
            RunSpec("em3d", arch, 0.9, scale).execute().aggregate()
            .total_cycles()
            for arch in ("CCNUMA", "SCOMA", "RNUMA", "ASCOMA"))
        rows.append((scale, get_workload("em3d", scale).total_refs(),
                     scoma / base, rnuma / base, ascoma / base))
    return rows


def test_scale_robustness(benchmark, emit):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = ["R2 scale robustness (em3d, 90% pressure, rel to CC-NUMA):",
             "  scale | refs      | S-COMA | R-NUMA | AS-COMA"]
    for scale, refs, scoma, rnuma, ascoma in rows:
        lines.append(f"  {scale:5.2f} | {refs:9,} | {scoma:6.2f} |"
                     f" {rnuma:6.2f} | {ascoma:.2f}")
    emit("\n".join(lines), "robustness_scale")

    for scale, _, scoma, rnuma, ascoma in rows:
        assert scoma > 2.0, (scale, scoma)        # S-COMA collapses
        assert rnuma > 1.2, (scale, rnuma)        # R-NUMA thrashes
        assert ascoma < 1.1, (scale, ascoma)      # AS-COMA converges
        assert ascoma < rnuma < scoma, scale      # full ordering
