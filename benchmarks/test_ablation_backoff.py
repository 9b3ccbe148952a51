"""Ablation A2: the adaptive remapping backoff (paper Section 5.2).

Compares full AS-COMA against AS-COMA with ``adaptive=False`` (the
threshold never rises, the daemon never slows, relocation is never
disabled) at high memory pressure.  This isolates the paper's second
improvement: without the backoff, the page cache keeps being fine-tuned
(hot pages replacing hot pages) and the kernel overhead climbs.
"""

import pytest

from repro.harness.experiment import DEFAULT_SCALE
from repro.runtime import RunSpec

HIGH_PRESSURE = {"em3d": 0.9, "radix": 0.9, "barnes": 0.7}


def run_pair(app, pressure):
    """AS-COMA with and without the adaptive backoff."""
    return tuple(RunSpec.make(app, "ASCOMA", pressure, DEFAULT_SCALE,
                              policy_overrides=overrides).execute()
                 for overrides in ({}, {"adaptive": False}))


@pytest.mark.parametrize("app", sorted(HIGH_PRESSURE))
def test_backoff_reduces_kernel_overhead(app, benchmark, emit):
    full, fixed = benchmark.pedantic(run_pair, args=(app, HIGH_PRESSURE[app]),
                                     rounds=1, iterations=1)
    f, x = full.aggregate(), fixed.aggregate()
    emit(f"A2 backoff ablation ({app}, {HIGH_PRESSURE[app]:.0%} pressure):\n"
         f"  adaptive : {f.total_cycles():,} cycles, K_OVERHD "
         f"{100 * f.K_OVERHD / f.total_cycles():.1f}%, "
         f"relocations {f.relocations}\n"
         f"  fixed    : {x.total_cycles():,} cycles, K_OVERHD "
         f"{100 * x.K_OVERHD / x.total_cycles():.1f}%, "
         f"relocations {x.relocations}",
         f"ablation_backoff_{app}")
    # The backoff must cut relocation churn; time should not get worse
    # by more than noise.
    assert f.relocations <= x.relocations
    assert f.total_cycles() <= x.total_cycles() * 1.02


def test_backoff_does_not_hurt_at_low_pressure(benchmark, emit):
    """With no thrashing the backoff never engages: both variants match."""

    def run():
        return tuple(r.aggregate().total_cycles()
                     for r in run_pair("em3d", 0.1))

    a, b = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(f"A2 backoff ablation (em3d, 10% pressure): adaptive {a:,} vs "
         f"fixed {b:,} cycles", "ablation_backoff_lowpressure")
    assert a == pytest.approx(b, rel=0.02)
