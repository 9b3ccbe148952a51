"""The cell slice ``perfbench`` imports; see :mod:`repro.perf.suite`."""
