"""Extension bench E3: MSI vs MESI coherence protocol.

The paper's machines run a plain write-invalidate (MSI-class) protocol.
Adding the Exclusive state -- an only-reader may write without an
upgrade transaction -- is the classic protocol optimisation; this bench
quantifies it per application and confirms it is orthogonal to the
memory-architecture story (AS-COMA's win over CC-NUMA survives either
protocol, because upgrades are write-path traffic while the hybrids
fight read-path conflict misses).
"""

import pytest

from repro.harness.experiment import DEFAULT_SCALE
from repro.runtime import RunSpec


def sweep():
    rows = []
    for app in ("ocean", "em3d", "radix"):
        row = {"app": app}
        for proto in ("msi", "mesi"):
            cc, asc = (RunSpec.make(app, arch, 0.5, DEFAULT_SCALE,
                                    config_overrides={"protocol": proto})
                       .execute().aggregate()
                       for arch in ("CCNUMA", "ASCOMA"))
            row[proto] = {
                "upgrades": cc.upgrades,
                "ccnuma_cycles": cc.total_cycles(),
                "ascoma_rel": asc.total_cycles() / cc.total_cycles(),
            }
        rows.append(row)
    return rows


def test_mesi_vs_msi(benchmark, emit):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = ["E3 protocol study (50% pressure):",
             "  app    | MSI upgrades | MESI upgrades | MSI AS-COMA rel"
             " | MESI AS-COMA rel"]
    for row in rows:
        lines.append(
            f"  {row['app']:6s} | {row['msi']['upgrades']:12,} |"
            f" {row['mesi']['upgrades']:13,} |"
            f" {row['msi']['ascoma_rel']:15.2f} |"
            f" {row['mesi']['ascoma_rel']:.2f}")
    emit("\n".join(lines), "ext_protocol")

    for row in rows:
        # The E state removes the bulk of the upgrade traffic...
        assert row["mesi"]["upgrades"] < row["msi"]["upgrades"]
        # ...and never slows CC-NUMA down.
        assert row["mesi"]["ccnuma_cycles"] <= \
            row["msi"]["ccnuma_cycles"] * 1.01
        # The memory-architecture conclusion is protocol-independent.
        assert row["mesi"]["ascoma_rel"] == pytest.approx(
            row["msi"]["ascoma_rel"], abs=0.06)
