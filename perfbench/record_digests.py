#!/usr/bin/env python3
"""Recompute ``digests.json``, the seed-42 outputs every run must match.

Run from the repository root, only when the program's results change on
purpose (for instance a ``SPEC_VERSION`` or trace-format bump)::

    python3 perfbench/record_digests.py

Every digest is taken on two substrates that must agree before it is
written: the kernel and the scalar loop for ``matrix`` cells, the
checked scalar loop and the kernel for ``checked`` cells, and in-memory
generation and sampling against the store round trip and sidecar
sampling for ``traces``.
"""

import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT))
    from perfbench.run import WORK, enter_env

    enter_env()
    from perfbench import cases
    from repro.sim.soatrace import vector_available

    if not vector_available():
        print("error: the replay kernel is unavailable", file=sys.stderr)
        return 1
    run_dir = WORK / f"digests-{os.getpid()}"
    digests = {}
    try:
        for name in cases.WORKLOADS:
            wl = cases.make(name, cases.DEFAULT_SEED, run_dir, expected={})
            wl.warm()
            wl.setup()
            out = {}
            for unit in wl.units:
                output = wl.run(unit)
                reason = wl.check(unit, output)
                if reason is not None:
                    raise SystemExit(f"error: {reason}")
                out[wl.label(unit)] = wl.digest(unit, output)
            for label, thunk in wl.cross_checks(every=True):
                reason = thunk()
                if reason is not None:
                    raise SystemExit(f"error: {label}: {reason}")
            digests[name] = out
            print(f"{name}: {len(out)} digests", file=sys.stderr)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    with open(cases.DIGESTS_PATH, "w") as f:
        json.dump(digests, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
