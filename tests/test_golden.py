"""Golden regression pins.

The engine is fully deterministic (fixed generator seeds, no wall-clock
anywhere), so a handful of exact end-to-end counter pins catch any
unintended behavioural change -- a policy edit, a latency tweak, an
accounting slip -- that the shape-level benches might absorb.

If a pin fails because of an *intended* model change: rerun the
generator snippet in the module docstring of this file's git history,
review the deltas against EXPERIMENTS.md, and update the table.
"""

import pytest

from repro.harness.experiment import run_app

# (app, arch, pressure) -> (total_cycles, shared_misses, HOME, SCOMA,
#                           RAC, COLD, CONF_CAPC, relocations, evictions,
#                           K_OVERHD), all at workload scale 0.25.
GOLDEN = {
    ("fft", "CCNUMA", 0.5):
        (3554202, 42690, 38233, 0, 2435, 1315, 707, 0, 0, 0),
    ("em3d", "ASCOMA", 0.9):
        (7401597, 59797, 41023, 1942, 815, 4589, 11428, 0, 0, 20160),
    ("radix", "RNUMA", 0.3):
        (19587756, 64146, 17057, 2319, 739, 31284, 12747, 744, 597, 6205130),
    ("lu", "SCOMA", 0.7):
        (2575162, 24938, 17481, 5660, 0, 1797, 0, 0, 36, 149520),
}

FIELDS = ("total_cycles", "shared_misses", "HOME", "SCOMA", "RAC", "COLD",
          "CONF_CAPC", "relocations", "evictions", "K_OVERHD")


def _check_golden(key):
    app, arch, pressure = key
    agg = run_app(app, arch, pressure, scale=0.25).aggregate()
    measured = (agg.total_cycles(), agg.shared_misses(), agg.HOME, agg.SCOMA,
                agg.RAC, agg.COLD, agg.CONF_CAPC, agg.relocations,
                agg.evictions, agg.K_OVERHD)
    expected = GOLDEN[key]
    diffs = {field: (m, e) for field, m, e in
             zip(FIELDS, measured, expected) if m != e}
    assert not diffs, f"golden drift for {key}: {diffs}"


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_golden_counters(key):
    """The pins, replayed through the default (kernel) engine.

    When the compiled kernel is unavailable the engine degrades to the
    reference loop, which this test then re-pins -- still a valid
    assertion.
    """
    _check_golden(key)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_golden_counters_reference_path(key, monkeypatch):
    """The same pins through the reference loop.

    Together with ``test_golden_counters`` this nails both replay loops
    to the *same* seed-era numbers -- the goldens predate the kernel,
    so neither loop may have drifted from the original model
    (tests/test_perf_parity.py checks the loops against each other;
    this checks them against history).  ``run_vector`` answers
    ``None``, as it does on a host where no kernel loads, so the
    engine falls back.
    """
    import repro.sim.soatrace as soatrace
    monkeypatch.setattr(soatrace, "run_vector", lambda engine: None)
    _check_golden(key)
