"""Fresh-interpreter steps of the benchmark, started by ``run.py``.

``python3 perfbench/child.py warm WORKLOAD SEED RUN_DIR``
    builds the kernel library if it is not cached yet and fills the
    run's warm trace store with the workload's traces (untimed).

``python3 perfbench/child.py ready WORKLOAD SEED RUN_DIR T0``
    times set-up in a fresh interpreter: from ``T0`` (the parent's
    ``time.monotonic()`` just before it started this process) until the
    program is imported, the kernel is loaded from the cached library
    and the workload's traces are fetched from the warm store.

``python3 perfbench/child.py calib T0``
    times the calibration interpreter: from ``T0`` until it has imported
    ``calib.CALIB_IMPORTS`` and parsed one C declaration with cffi, as
    the kernel load does.
"""

import json
import sys
import time


def main(argv: list[str]) -> int:
    if argv[0] == "calib":
        from perfbench.calib import CALIB_IMPORTS

        exec("import " + CALIB_IMPORTS)
        sys.modules["cffi"].FFI().cdef("int abs(int);")
        print(json.dumps({"raw_s": time.monotonic() - float(argv[1])}))
        return 0
    mode, workload, seed, run_dir = argv[:4]
    from perfbench import cases
    from repro.sim.soatrace import vector_available

    wl = cases.make(workload, int(seed), run_dir)
    kernel = vector_available()
    if mode == "warm":
        wl.warm()
        print(json.dumps({"kernel": kernel}))
        return 0
    wl.setup()
    print(json.dumps({"raw_s": time.monotonic() - float(argv[4]),
                      "kernel": kernel}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
