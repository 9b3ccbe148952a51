"""Ablation A1: the S-COMA-first allocation policy (paper Section 5.1).

Compares full AS-COMA against AS-COMA with ``scoma_first=False`` (pages
start in CC-NUMA mode and must earn promotion) at 10% memory pressure.
The paper isolates this effect the same way: at 10% pressure no page
remappings beyond the initial ones occur, so any difference is the
allocation policy.  Expected: a clear win on radix (the paper's ~17%
over R-NUMA/VC-NUMA case), little effect on fft/ocean.
"""

import pytest

from repro.harness.experiment import DEFAULT_SCALE
from repro.runtime import RunSpec


def run_pair(app):
    return tuple(RunSpec.make(app, "ASCOMA", 0.1, DEFAULT_SCALE,
                              policy_overrides=overrides).execute()
                 .aggregate().total_cycles()
                 for overrides in ({}, {"scoma_first": False}))


@pytest.mark.parametrize("app", ["radix", "em3d"])
def test_scoma_first_wins_at_low_pressure(app, benchmark, emit):
    full, no_first = benchmark.pedantic(run_pair, args=(app,), rounds=1,
                                        iterations=1)
    gain = (no_first - full) / no_first
    emit(f"A1 allocation ablation ({app}, 10% pressure):\n"
         f"  AS-COMA (S-COMA-first) : {full:,} cycles\n"
         f"  AS-COMA (CC-NUMA-first): {no_first:,} cycles\n"
         f"  S-COMA-first gain      : {100 * gain:.1f}%",
         f"ablation_allocation_{app}")
    assert full < no_first, "S-COMA-first allocation must win at 10% pressure"
    assert gain > 0.05


def test_scoma_first_negligible_on_fft(benchmark, emit):
    """fft relocates almost nothing, so the initial policy barely matters
    (paper: 'the impact of initially mapping pages in S-COMA mode is
    negligible' for fft/ocean)."""
    full, no_first = benchmark.pedantic(run_pair, args=("fft",), rounds=1,
                                        iterations=1)
    gain = abs(no_first - full) / no_first
    emit(f"A1 allocation ablation (fft, 10% pressure): gain {100 * gain:.1f}%",
         "ablation_allocation_fft")
    assert gain < 0.15
