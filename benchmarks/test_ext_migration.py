"""Extension bench E1: dynamic page migration vs the hybrids.

The paper (Section 2.2) dismisses CC-NUMA page migration as "only
successful for read-only or non-shared pages".  This bench quantifies
exactly that: on a producer->consumer workload (every page has one
remote consumer) migration matches the hybrids *and keeps its win at
90% memory pressure* because it consumes no page-cache frames; on em3d
(widely shared pages) the non-shared gate vetoes nearly everything and
migration degenerates to plain CC-NUMA -- which is why the hybrid
approach won this design space.
"""

import pytest

from repro.harness.experiment import DEFAULT_SCALE
from repro.runtime import RunSpec
from repro.workloads import migratory


def run_migratory():
    # No app name selects this generator: the workload replaces the
    # spec's (an unstored run).
    wl = migratory.generate(scale=DEFAULT_SCALE)
    rows = {}
    for pressure in (0.1, 0.9):
        base, mig, asc = (RunSpec("migratory", arch, pressure, DEFAULT_SCALE)
                          .execute(traces=wl).aggregate()
                          for arch in ("CCNUMA", "CCNUMAMIG", "ASCOMA"))
        bt = base.total_cycles()
        rows[pressure] = {
            "mig_rel": mig.total_cycles() / bt,
            "asc_rel": asc.total_cycles() / bt,
            "migrations": mig.migrations,
            "skipped": mig.skipped_migrations,
        }
    return rows


def test_migration_on_producer_consumer(benchmark, emit):
    rows = benchmark.pedantic(run_migratory, rounds=1, iterations=1)
    lines = ["E1 page migration, producer->consumer workload"
             " (relative to CC-NUMA = 1.00):"]
    for pressure, r in rows.items():
        lines.append(f"  {pressure:.0%}: CCNUMA-MIG {r['mig_rel']:.2f}"
                     f" ({r['migrations']} migrations,"
                     f" {r['skipped']} vetoed), AS-COMA {r['asc_rel']:.2f}")
    emit("\n".join(lines), "ext_migration_producer_consumer")

    # Migration wins at any pressure and every page migrates exactly once.
    for r in rows.values():
        assert r["mig_rel"] < 0.85
        assert r["skipped"] == 0
    # Pressure-insensitive: same relative time at 10% and 90%.
    assert rows[0.1]["mig_rel"] == pytest.approx(rows[0.9]["mig_rel"],
                                                 rel=0.05)
    # At low pressure AS-COMA's page cache is the better tool; at high
    # pressure migration keeps winning while AS-COMA converges to CC-NUMA.
    assert rows[0.1]["asc_rel"] < rows[0.1]["mig_rel"]
    assert rows[0.9]["mig_rel"] < rows[0.9]["asc_rel"]


def test_migration_vetoed_on_shared_workload(benchmark, emit):
    def run():
        return tuple(RunSpec("em3d", arch, 0.5, DEFAULT_SCALE)
                     .execute().aggregate()
                     for arch in ("CCNUMA", "CCNUMAMIG"))

    base, mig = benchmark.pedantic(run, rounds=1, iterations=1)
    rel = mig.total_cycles() / base.total_cycles()
    emit(f"E1 page migration on em3d (shared pages): rel {rel:.2f},"
         f" {mig.migrations} migrations vs {mig.skipped_migrations} vetoed",
         "ext_migration_shared")
    assert mig.skipped_migrations > mig.migrations
    assert 0.9 < rel < 1.15  # essentially CC-NUMA
