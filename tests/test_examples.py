"""Smoke tests: the example scripts must run end to end.

Each example is executed as a subprocess with small arguments where the
script accepts them, so these tests track the real user experience
(imports, argument parsing, output) without burning bench-scale time.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"

CASES = [
    ("memory_pressure_sweep.py", ["fft", "0.2"], "legend"),
    ("custom_workload.py", [], "AS-COMA rel"),
    ("workload_analysis.py", ["fft", "0.2"], "ideal pressure"),
    ("design_space.py", ["fft", "0.5", "0.2"], "Rel. time"),
    ("backoff_timeline.py", ["em3d", "0.9"], "barrier samples"),
    ("quickstart.py", ["0.7"], "AS-COMA time breakdown"),
    ("thrashing_backoff.py", [], "Per-node AS-COMA backoff state"),
]


def run_example(name, args):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name,args,marker", CASES,
                         ids=[c[0] for c in CASES])
def test_example_runs(name, args, marker):
    proc = run_example(name, args)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert marker in proc.stdout


def test_all_examples_present_and_documented():
    scripts = sorted(p.name for p in EXAMPLES.glob("*.py"))
    assert len(scripts) >= 7
    for script in scripts:
        text = (EXAMPLES / script).read_text()
        assert text.lstrip().startswith(('#!/usr/bin/env python3\n"""',
                                         '"""')), script
        assert "def main" in text, script


def test_examples_reject_unknown_app():
    proc = run_example("memory_pressure_sweep.py", ["linpack"])
    assert proc.returncode != 0
