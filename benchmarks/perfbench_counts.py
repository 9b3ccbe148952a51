#!/usr/bin/env python3
"""Compare a traced perfbench run's per-layer counts with committed ones.

Reads the last stdout line of ``perfbench/run.py --workload W --seed 42
--seconds 1 --trace 1`` on stdin and compares every metric whose unit
is ``count`` with the ``W`` entry of ``perfbench_counts.json`` next to
this script.  The counts are deterministic, so names and values must
match exactly; on a mismatch every differing metric is printed with its
expected and actual value, followed by the complete actual entry, and
the exit status is 1.  Run from the repository root::

    python3 perfbench/run.py --workload matrix --seed 42 --seconds 1 \\
        --trace 1 | tail -n 1 | python3 benchmarks/perfbench_counts.py matrix

A change that moves work between layers on purpose commits the printed
entry in place of the old one and says why in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

COUNTS = Path(__file__).resolve().parent / "perfbench_counts.json"


def counts_of(result: dict) -> dict:
    """The ``count`` metrics of one perfbench result line, by name."""
    return {name: metric["value"]
            for name, metric in result["metrics"].items()
            if metric["unit"] == "count"}


def diff(expected: dict, actual: dict) -> list[str]:
    """One line per metric whose name or value differs."""
    return [f"  {name}: expected {expected.get(name, 'absent')},"
            f" actual {actual.get(name, 'absent')}"
            for name in sorted(expected.keys() | actual.keys())
            if expected.get(name) != actual.get(name)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    workload = parser.parse_args(argv).workload
    actual = counts_of(json.loads(sys.stdin.read().strip().splitlines()[-1]))
    expected = json.loads(COUNTS.read_text()).get(workload, {})
    lines = diff(expected, actual)
    if lines:
        print(f"{workload}: per-layer counts differ from {COUNTS.name}:",
              *lines, f"actual {workload!r} entry:",
              json.dumps(actual, indent=2, sort_keys=True), sep="\n")
        return 1
    print(f"{workload}: {len(actual)} per-layer counts match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
