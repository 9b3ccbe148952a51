"""End-to-end and per-layer benchmark of the AS-COMA reproduction.

Run ``python3 perfbench/run.py --workload matrix --seed 42 --seconds 20
--trace 0`` from the repository root; see ``perfbench/README.md``.
"""
