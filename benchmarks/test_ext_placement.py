"""Extension bench E2: home-page placement policies (paper Section 4.1).

The paper's machines use a balanced first-touch home allocation; the
CC-NUMA literature it cites also considered locality-blind round-robin
and random placement.  This bench quantifies the choice on two fronts:

* plain CC-NUMA lives or dies by placement (first-touch keeps each
  node's own data local);
* AS-COMA's advantage over CC-NUMA *survives* bad placement, but the
  page cache does not repair it: the extra cold fetches and the write
  traffic to scattered "own" data are placement-driven costs no amount
  of read caching removes.  Good placement and a hybrid architecture
  are complements, not substitutes.
"""

from repro.harness.experiment import DEFAULT_SCALE
from repro.runtime import RunSpec

PLACEMENTS = ("first-touch", "round-robin", "random")


def sweep(arch, pressure):
    return {placement: RunSpec.make(
                "em3d", arch, pressure, DEFAULT_SCALE,
                config_overrides={"home_placement": placement}
            ).execute().aggregate()
            for placement in PLACEMENTS}


def test_placement_on_ccnuma(benchmark, emit):
    results = benchmark.pedantic(sweep, args=("CCNUMA", 0.5), rounds=1,
                                 iterations=1)
    ft = results["first-touch"].total_cycles()
    lines = ["E2 home placement, CC-NUMA on em3d (relative to first-touch):"]
    for placement, agg in results.items():
        lines.append(f"  {placement:12s} rel {agg.total_cycles() / ft:.2f},"
                     f" HOME misses {agg.HOME:,},"
                     f" remote misses {agg.remote_misses():,}")
    emit("\n".join(lines), "ext_placement_ccnuma")

    # First-touch keeps the majority of misses home-local; the blind
    # policies scatter them and pay >20% more time.
    assert results["round-robin"].total_cycles() > 1.15 * ft
    assert results["random"].total_cycles() > 1.15 * ft
    assert results["first-touch"].HOME > 3 * results["random"].HOME


def test_placement_and_hybrid_are_complements(benchmark, emit):
    def run():
        return (sweep("ASCOMA", 0.1), sweep("CCNUMA", 0.1))

    ascoma, ccnuma = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["E2 home placement at 10% pressure"
             " (AS-COMA's page cache vs placement):"]
    for placement in PLACEMENTS:
        cc_pen = (ccnuma[placement].total_cycles()
                  / ccnuma["first-touch"].total_cycles())
        asc_pen = (ascoma[placement].total_cycles()
                   / ascoma["first-touch"].total_cycles())
        cross = (ascoma[placement].total_cycles()
                 / ccnuma[placement].total_cycles())
        lines.append(f"  {placement:12s} CC-NUMA penalty {cc_pen:.2f},"
                     f" AS-COMA penalty {asc_pen:.2f},"
                     f" AS-COMA vs CC-NUMA {cross:.2f}")
    emit("\n".join(lines), "ext_placement_ascoma")

    # Finding: AS-COMA keeps beating CC-NUMA by ~30% under *any*
    # placement, but its own placement penalty is just as large -- the
    # page cache caches reads, it does not relocate homes.  Placement
    # quality and hybrid caching are complementary.
    for placement in PLACEMENTS:
        cross = (ascoma[placement].total_cycles()
                 / ccnuma[placement].total_cycles())
        assert cross < 0.8, (placement, cross)
    asc_pen = (ascoma["random"].total_cycles()
               / ascoma["first-touch"].total_cycles())
    assert asc_pen > 1.1  # the penalty is NOT repaired
