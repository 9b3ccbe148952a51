"""Sensitivity benches: how robust are the paper's conclusions?

Four parameter studies around the headline result (em3d, AS-COMA vs
R-NUMA vs CC-NUMA):

* **RAC size** -- the paper's single-chunk RAC had "a larger impact than
  anticipated"; growing it narrows the CC-NUMA/S-COMA gap.
* **Network speed** -- the paper notes high-end interconnects push the
  remote:local ratio toward ~3; a slower network (bigger ratio) magnifies
  every architecture difference, a faster one shrinks them.
* **Kernel cost** -- the paper's core argument is that software overhead
  decides the hybrids' fate: doubling the remap cost must hurt R-NUMA
  (which remaps constantly at high pressure) far more than AS-COMA.
* **L1 associativity** -- conflict misses drive refetches; a more
  associative cache removes part of the problem the hybrids solve.
"""

import pytest

from repro.harness.experiment import DEFAULT_SCALE, get_workload, scaled_policy
from repro.kernel.costs import KernelCosts
from repro.runtime import RunSpec
from repro.sim.config import SystemConfig
from repro.sim.engine import simulate


def run(arch, pressure, quantum=None, **config):
    """One em3d cell; *config* overrides the machine's parameters."""
    return RunSpec.make("em3d", arch, pressure, DEFAULT_SCALE,
                        config_overrides=config, quantum=quantum
                        ).execute().aggregate()


def test_rac_size_sensitivity(benchmark, emit):
    def sweep():
        rows = []
        for entries in (1, 4, 16):
            base = run("CCNUMA", 0.5, rac_entries=entries)
            asc = run("ASCOMA", 0.5, rac_entries=entries)
            rows.append((entries, base.RAC, base.total_cycles(),
                         asc.total_cycles() / base.total_cycles()))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = ["S1 RAC size sensitivity (em3d, 50% pressure):",
             "  entries | CC-NUMA RAC hits | CC-NUMA cycles | AS-COMA rel"]
    for entries, hits, cycles, rel in rows:
        lines.append(f"  {entries:7d} | {hits:16,} | {cycles:14,} | {rel:.2f}")
    emit("\n".join(lines), "sensitivity_rac")

    hits = [r[1] for r in rows]
    ccnuma_cycles = [r[2] for r in rows]
    rel = [r[3] for r in rows]
    assert hits[0] < hits[-1]              # bigger RAC catches more
    assert ccnuma_cycles[0] > ccnuma_cycles[-1]  # and CC-NUMA speeds up
    assert rel[0] < rel[-1]                # narrowing AS-COMA's win


def test_network_ratio_sensitivity(benchmark, emit):
    def sweep():
        rows = []
        for dsm in (20, 59, 150):
            ratio = SystemConfig(
                dsm_processing_cycles=dsm).remote_to_local_ratio()
            base = run("CCNUMA", 0.5, dsm_processing_cycles=dsm)
            asc = run("ASCOMA", 0.5, dsm_processing_cycles=dsm)
            rows.append((ratio, asc.total_cycles() / base.total_cycles()))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = ["S2 network speed sensitivity (em3d, 50% pressure):",
             "  remote:local ratio | AS-COMA rel to CC-NUMA"]
    for ratio, rel in rows:
        lines.append(f"  {ratio:18.2f} | {rel:.2f}")
    emit("\n".join(lines), "sensitivity_network")

    rels = [rel for _, rel in rows]
    # The slower the network, the bigger AS-COMA's win (smaller rel).
    assert rels[0] > rels[1] > rels[2]
    assert all(rel < 1.0 for rel in rels)  # it wins at every ratio


def test_kernel_cost_sensitivity(benchmark, emit):
    def sweep():
        # KernelCosts is a config object, not a scalar that a RunSpec
        # override can carry, so this study builds its engines itself.
        wl = get_workload("em3d", DEFAULT_SCALE)
        rows = []
        for factor in (1, 4):
            kernel = KernelCosts(
                page_remap=4000 * factor,
                relocation_interrupt=1000 * factor,
            )
            cfg = SystemConfig(n_nodes=8, memory_pressure=0.9, kernel=kernel)
            base, rnuma, ascoma = (
                simulate(wl, scaled_policy(arch), cfg).aggregate()
                .total_cycles() for arch in ("CCNUMA", "RNUMA", "ASCOMA"))
            rows.append((factor, rnuma / base, ascoma / base))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = ["S3 kernel remap-cost sensitivity (em3d, 90% pressure):",
             "  cost x | R-NUMA rel | AS-COMA rel"]
    for factor, rnuma, ascoma in rows:
        lines.append(f"  {factor:6d} | {rnuma:10.2f} | {ascoma:.2f}")
    emit("\n".join(lines), "sensitivity_kernel")

    # Pricier remaps hurt R-NUMA (it keeps remapping) much more than
    # AS-COMA (which stopped) -- the paper's software-overhead thesis.
    rnuma_growth = rows[1][1] - rows[0][1]
    ascoma_growth = rows[1][2] - rows[0][2]
    assert rnuma_growth > 4 * max(ascoma_growth, 0.005)
    assert rows[1][2] < 1.15  # AS-COMA stays near CC-NUMA regardless


def test_l1_associativity_sensitivity(benchmark, emit):
    def sweep():
        rows = []
        for ways in (1, 4):
            base = run("CCNUMA", 0.5, l1_ways=ways)
            asc = run("ASCOMA", 0.5, l1_ways=ways)
            rows.append((ways, base.CONF_CAPC,
                         asc.total_cycles() / base.total_cycles()))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = ["S4 L1 associativity sensitivity (em3d, 50% pressure):",
             "  ways | CC-NUMA CONF/CAPC | AS-COMA rel"]
    for ways, conf, rel in rows:
        lines.append(f"  {ways:4d} | {conf:17,} | {rel:.2f}")
    emit("\n".join(lines), "sensitivity_associativity")

    # Finding: with a remote working set ~20x the L1, these "conflict"
    # misses are really capacity misses -- 4-way associativity moves
    # CONF/CAPC by under 5% and leaves the hybrid benefit intact.  A
    # bigger cache, not a smarter one, is what the page cache provides.
    assert abs(rows[1][1] - rows[0][1]) / rows[0][1] < 0.05
    assert rows[1][2] < 1.0
    assert rows[1][2] == pytest.approx(rows[0][2], abs=0.05)


def test_quantum_robustness(benchmark, emit):
    """Simulation-validity check: the scheduling quantum must not change
    conclusions.  Relative AS-COMA/CC-NUMA time must agree within a few
    percent across a 16x quantum range."""

    def sweep():
        rels = []
        for quantum in (500, 2000, 8000):
            base = run("CCNUMA", 0.7, quantum=quantum).total_cycles()
            asc = run("ASCOMA", 0.7, quantum=quantum).total_cycles()
            rels.append(asc / base)
        return rels

    rels = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit("S5 scheduling-quantum robustness (em3d, 70% pressure):\n  "
         + "  ".join(f"q={q}: rel={rel:.3f}"
                     for q, rel in zip((500, 2000, 8000), rels)),
         "sensitivity_quantum")
    assert max(rels) - min(rels) < 0.05
