"""Host-speed calibration for the benchmark's timings.

The benchmark runs on shared virtual machines whose speed drifts by tens
of percent over minutes, while the program under test is unchanged.  A
fixed piece of work, timed right next to the work being measured, slows
down and speeds up with the host; dividing by it cancels that drift.

Timings are converted to *reference-seconds*::

    ref_s = raw_s * REF / mean(calibration times next to the work)

Two calibrations exist because the host drifts differently for
different kinds of work:

* ``calibrate()`` runs in the measuring process before every unit of
  work: an interpreter-bound Python loop, an in-place numpy loop and a
  page-cache file write and read, the three kinds of work the workloads
  spend their time in.  Its *mean* over the run is used, not its
  median: under co-tenant contention the host's speed fluctuates within
  seconds, and the mean of many short loops tracks the time-average
  slowdown the (longer) units see, where the median tracks the typical
  short loop.
* ``CALIB_IMPORTS`` is what a *calibration interpreter* imports; it is
  started next to every set-up interpreter, because process start-up
  (exec, dynamic loading, reading and unmarshalling modules) drifts on
  its own, independently of the Python loop.

The calibration code and the ``REF_*`` constants are part of the
benchmark's definition, not of the program: changing either changes the
unit every committed number is expressed in.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import time

import numpy as np

__all__ = ["REF_CALIB_S", "REF_STARTUP_S", "CALIB_IMPORTS", "calibrate",
           "normalise"]

#: Seconds one calibration loop takes on the host the benchmark was
#: defined on (2-vCPU x86-64 VM, CPython 3.11, numpy 2.4, uncontended).
#: It only fixes the unit: one reference-second is the time that host
#: took for ``1 / REF_CALIB_S`` calibration loops.
REF_CALIB_S = 0.0054
#: Seconds from spawn until a calibration interpreter has imported
#: ``CALIB_IMPORTS``, on the same host.
REF_STARTUP_S = 0.09

#: What a calibration interpreter imports: the standard-library and
#: third-party modules the program's set-up imported when the benchmark
#: was defined, so both read the same files and load the same libraries.
CALIB_IMPORTS = ("array, ast, cffi, concurrent.futures, contextvars, copy,"
                 " csv, ctypes, dataclasses, datetime, dis, hashlib, heapq,"
                 " html, inspect, locale, logging, multiprocessing, numbers,"
                 " numpy, pickle, platform, pycparser, queue, select,"
                 " selectors, signal, socket, string, subprocess, textwrap,"
                 " tokenize, traceback")

_PY_ITERATIONS = 40_000
_NP_ELEMENTS = 1 << 17
_IO_BYTES = bytes(range(256)) * 4096  # 1 MiB


def _python_work(n: int) -> int:
    """Interpreter-bound work: list indexing, dict updates, int arithmetic
    and branches, the operations the simulator's Python layers spend
    their time in."""
    tags = [0] * 256
    counts: dict[int, int] = {}
    acc = 0
    for i in range(n):
        s = (i * 40503) & 255
        t = i & 1023
        if tags[s] == t:
            acc += 1
        else:
            tags[s] = t
        counts[s] = counts.get(s, 0) + 1
    return acc


def _numpy_work(src: np.ndarray, work: np.ndarray) -> bytes:
    """Memory-bound work: array arithmetic, a sort and a hash over the
    bytes, like trace generation, sampling and hashing do.  It runs in
    place on arrays allocated before the clock starts, so the process's
    allocator state cannot change its time."""
    np.multiply(src, 2654435761, out=work)
    np.bitwise_and(work, 0xFFFFF, out=work)
    work.sort()
    return hashlib.sha256(work).digest()


def _io_work(path: str, buf: bytearray) -> int:
    """Page-cache file I/O: write, read back and delete 1 MiB, like the
    trace store's put and get do."""
    with open(path, "wb") as f:
        f.write(buf)
    with open(path, "rb") as f:
        n = f.readinto(buf)
    os.unlink(path)
    return n


def calibrate(io_path: str) -> float:
    """Seconds one calibration loop takes (Python, numpy and I/O parts)."""
    src = np.arange(_NP_ELEMENTS, dtype=np.int64)
    work = np.ones_like(src)
    buf = bytearray(_IO_BYTES)
    t0 = time.perf_counter()
    _python_work(_PY_ITERATIONS)
    _numpy_work(src, work)
    _io_work(io_path, buf)
    return time.perf_counter() - t0


def normalise(raw_s: float, loops: list[float]) -> float:
    """Raw seconds -> reference-seconds, by the mean calibration loop."""
    return raw_s * REF_CALIB_S / statistics.fmean(loops)
