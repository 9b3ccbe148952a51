"""The matrix micro slice: fft and em3d under every architecture at 70%.

This module stays at this path because ``perfbench/cases.py`` imports
``MATRIX_CELLS`` from ``repro.perf.suite``.
"""

from ..harness.experiment import ARCHITECTURES

#: One RAC-friendly app (fft) and one RAC-hostile one (em3d) across
#: every architecture, at the 70% pressure point where the
#: page-management machinery is active.
MATRIX_APPS = ("fft", "em3d")
MATRIX_PRESSURE = 0.7
MATRIX_CELLS = tuple((app, arch, MATRIX_PRESSURE)
                     for app in MATRIX_APPS for arch in ARCHITECTURES)
