"""Ablation A3: relocation-threshold sensitivity (paper Section 2.4).

"If the refetch threshold is too low, remappings occur too frequently,
which leads to thrashing.  If it is too high, remappings that could be
usefully made will be delayed."  Sweeps R-NUMA's fixed threshold (the
policy whose relocation is gated purely by the threshold) at moderate
pressure and checks both arms: relocation churn falls monotonically as
the threshold rises, while remote conflict misses rise (promotion is
delayed).
"""

from repro.harness.experiment import DEFAULT_SCALE
from repro.runtime import RunSpec

THRESHOLDS = (4, 8, 16, 32, 64)


def sweep():
    rows = []
    for threshold in THRESHOLDS:
        agg = RunSpec.make("em3d", "RNUMA", 0.7, DEFAULT_SCALE,
                           policy_overrides={"threshold": threshold}
                           ).execute().aggregate()
        rows.append({
            "threshold": threshold,
            "cycles": agg.total_cycles(),
            "relocations": agg.relocations,
            "k_overhead": agg.K_OVERHD,
            "conf_capc": agg.CONF_CAPC,
        })
    return rows


def test_threshold_sensitivity(benchmark, emit):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = ["A3 threshold sensitivity (R-NUMA, em3d, 70% pressure):",
             "  thr | cycles        | relocations | K_OVERHD     | CONF/CAPC"]
    for r in rows:
        lines.append(f"  {r['threshold']:3d} | {r['cycles']:13,} |"
                     f" {r['relocations']:11d} | {r['k_overhead']:12,} |"
                     f" {r['conf_capc']}")
    emit("\n".join(lines), "ablation_threshold")

    relocs = [r["relocations"] for r in rows]
    conf = [r["conf_capc"] for r in rows]
    # Relocation churn falls as the bar rises...
    assert relocs[0] > relocs[-1]
    assert all(a >= b for a, b in zip(relocs, relocs[1:]))
    # ...while remote conflict misses rise (slower convergence to S-COMA).
    assert conf[-1] > conf[0]
