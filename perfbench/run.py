#!/usr/bin/env python3
"""Benchmark of the AS-COMA reproduction: end-to-end and per-layer.

Run from the repository root::

    python3 perfbench/run.py --workload matrix --seed 42 --seconds 20 --trace 0

Workloads are ``matrix``, ``checked`` and ``traces`` (see ``cases.py``
and ``README.md``).  One run:

1. builds the kernel library if needed and fills a run-private warm
   trace store, in a child interpreter (untimed);
2. loads the program in this process and runs interleaved passes over
   the workload's units for ``--seconds`` seconds, timing each unit and
   a calibration loop before it (``calib.py``), and checking every
   output;
3. runs the cross-checks on a second substrate;
4. with ``--trace 0``, times set-up in ``SETUP_RUNS`` fresh
   interpreters (``child.py ready``), each paired with a calibration
   interpreter (``child.py calib``);
5. prints the metrics as the last line of stdout, one JSON object.

With ``--trace 1`` passes alternate between untraced and traced
(``tracer.py``), and the per-layer metrics are reported instead; the
spans go to ``.bench_build/perfbench/spans/``.

Everything the run writes stays under ``.bench_build/`` in the
repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "perfbench"

#: Set-up interpreters timed for ``setup_s``, each paired with a
#: calibration interpreter started just before it; the median of the
#: normalised times is reported.
SETUP_RUNS = 7
#: Fewest passes a run makes, whatever ``--seconds`` says, so every
#: unit's median has at least three samples.
MIN_PASSES = 3
WORKLOAD_NAMES = ("matrix", "checked", "traces")


def bench_env() -> dict:
    """Environment for this process and its children.

    ``REPRO_*`` selections from the caller are dropped, so every run
    measures the program's defaults; the kernel cache and temporary
    files are kept inside the checkout.  Bytecode caching is switched on
    (next to the sources), so set-up times imports the way an installed
    program runs them rather than recompiling every module.
    """
    dropped = ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k not in dropped}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["REPRO_VECTOR_CACHE"] = str(WORK / "vector")
    env["TMPDIR"] = str(WORK / "tmp")
    return env


def enter_env() -> None:
    """Switch this process to ``bench_env()`` and import from the checkout."""
    env = bench_env()
    os.environ.clear()
    os.environ.update(env)
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    sys.dont_write_bytecode = False
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def child(args: list[str], timeout: float) -> dict:
    """Run one ``child.py`` step in a fresh interpreter; its JSON line."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"), *args]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          env=bench_env(), timeout=timeout, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"child.py {args[0]} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def time_setup(args, run_dir: Path) -> list[tuple[float, float]]:
    """``(set-up, calibration)`` spawn-to-ready seconds of ``SETUP_RUNS``
    pairs of fresh interpreters, after one untimed calibration start."""
    def timed(*step):
        return child([*step, repr(time.monotonic())], 120)["raw_s"]

    ready = ["ready", args.workload, str(args.seed), str(run_dir)]
    timed("calib")
    return [(timed(*ready), timed("calib")) for _ in range(SETUP_RUNS)]


class Ops:
    """Attempted and failed operations, with the first failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(reason)


def run_pass(wl, ops: Ops, calib: list, tracer=None) -> list[float]:
    """One pass over every unit: calibrate, time the unit, check it."""
    from perfbench.calib import calibrate

    io_path = str(wl.run_dir / "calib.bin")
    times = []
    for i, unit in enumerate(wl.units):
        calib.append(calibrate(io_path))
        if tracer is not None:
            tracer.cell = i
        t0 = time.perf_counter()
        try:
            output = wl.run(unit)
        except Exception as exc:  # noqa: BLE001 - counted, not fatal
            times.append(time.perf_counter() - t0)
            ops.record(f"{wl.label(unit)}: {type(exc).__name__}: {exc}")
            continue
        times.append(time.perf_counter() - t0)
        ops.record(wl.check(unit, output))
    if tracer is not None:
        tracer.cell = -1
    return times


def unit_medians(passes: list[list[float]]) -> list[float]:
    return [statistics.median(ts) for ts in zip(*passes)]


def measure(args, wl, ops: Ops, tracer=None) -> dict:
    """Interleaved passes until ``--seconds`` are up (at least MIN_PASSES
    of each kind).  With a tracer, passes alternate untraced/traced.

    Peak RSS is read after MIN_PASSES untraced passes, so it covers the
    same work however fast the host runs.
    """
    start = time.perf_counter()
    plain: list[list[float]] = []
    traced: list[dict] = []
    calib: list[float] = []
    peak_rss_mib = 0.0
    while True:
        if tracer is None or len(traced) >= len(plain):
            plain.append(run_pass(wl, ops, calib))
            if len(plain) == MIN_PASSES:
                peak_rss_mib = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            tracer.reset()
            tracer.recording = not traced
            violations = wl.violations
            tracer.install()
            try:
                times = run_pass(wl, ops, calib, tracer)
            finally:
                tracer.uninstall()
                tracer.recording = False
            traced.append({"times": times, "totals": tracer.totals(),
                           "violations": wl.violations - violations})
        done = min(len(plain), len(traced)) if tracer else len(plain)
        if done >= MIN_PASSES and time.perf_counter() - start >= args.seconds:
            break
    return {"plain": plain, "traced": traced, "calib": calib,
            "peak_rss_mib": peak_rss_mib}


def layer_metrics(setup: dict, runs: dict, calib_s: float,
                  raw_events_per_s: float, spans: int) -> dict:
    """Per-layer metrics of one set-up plus one traced pass.

    Counts come from the first traced pass (they repeat exactly); times
    are the median over traced passes, plus the set-up's share.
    """
    passes = [p["totals"] for p in runs["traced"]]
    first = passes[0]

    def s(layer):
        return setup["self_s"][layer] + statistics.median(
            p["self_s"][layer] for p in passes)

    def n(layer):
        return setup["calls"][layer] + first["calls"][layer]

    wall = [sum(p["times"]) for p in runs["traced"]]
    coverage = statistics.median(
        sum(p["totals"]["self_s"].values()) / w
        for p, w in zip(runs["traced"], wall))
    overhead = statistics.median(wall) / statistics.median(
        sum(ts) for ts in runs["plain"])
    gets = n("tracecache.get")
    return {
        "soatrace.kernel_entries": (n("soatrace.kernel"), "count"),
        "soatrace.kernel_s": (s("soatrace.kernel"), "s"),
        "soatrace.boundary_s": (s("soatrace.boundary"), "s"),
        "soatrace.fallbacks": (setup["fallbacks"] + first["fallbacks"],
                               "count"),
        "soatrace.load_s": (s("soatrace.load"), "s"),
        "engine.residual_events": (n("engine.residual"), "count"),
        "engine.residual_s": (s("engine.residual"), "s"),
        "engine.residual_ratio": (
            n("engine.residual") / first["kernel_events"]
            if first["kernel_events"] else 0.0, "ratio"),
        "engine.scalar_s": (s("engine.scalar"), "s"),
        "engine.build_s": (s("engine.build"), "s"),
        "engine.run_s": (s("engine.run"), "s"),
        "node.daemon_runs": (n("node.daemon"), "count"),
        "node.daemon_s": (s("node.daemon"), "s"),
        "node.evictions": (n("node.evict"), "count"),
        "node.evict_s": (s("node.evict"), "s"),
        "node.flush_s": (s("node.flush"), "s"),
        "coherence.fetches": (n("coherence.fetch"), "count"),
        "coherence.fetch_s": (s("coherence.fetch"), "s"),
        "check.events": (n("check.event"), "count"),
        "check.event_s": (s("check.event"), "s"),
        "check.sweeps": (n("check.sweep"), "count"),
        "check.sweep_s": (s("check.sweep"), "s"),
        "check.violations": (runs["traced"][0]["violations"], "count"),
        "workloads.generate_calls": (n("workloads.generate"), "count"),
        "workloads.generate_s": (s("workloads.generate"), "s"),
        "workloads.sample_s": (s("workloads.sample"), "s"),
        "tracecache.get_calls": (gets, "count"),
        "tracecache.get_s": (s("tracecache.get"), "s"),
        "tracecache.hit_ratio": (
            (setup["get_hits"] + first["get_hits"]) / gets if gets else 0.0,
            "ratio"),
        "tracecache.put_s": (s("tracecache.put"), "s"),
        "tracecache.put_mib": (
            (setup["put_bytes"] + first["put_bytes"]) / 2**20, "MiB"),
        "tracecache.soa_attach_s": (s("tracecache.soa_attach"), "s"),
        "tracecache.soa_write_s": (s("tracecache.soa_write"), "s"),
        "runtime.execute_s": (s("runtime.execute"), "s"),
        "runtime.store_put_s": (s("runtime.store_put"), "s"),
        "host.calib_ms": (calib_s * 1e3, "ms"),
        "host.raw_events_per_s": (raw_events_per_s, "1/s"),
        "trace.overhead_x": (overhead, "x"),
        "trace.coverage": (coverage, "ratio"),
        "trace.spans": (spans, "count"),
    }


def print_shares(setup: dict, setup_wall: float, traced: list) -> None:
    """Each layer's self time as a share of the traced pass (median over
    traced passes) and of this process's set-up."""
    from perfbench.tracer import LAYERS

    wall = statistics.median(sum(p["times"]) for p in traced)
    print(f"  {'layer':22s} {'pass s':>10s} {'share':>7s}"
          f" {'set-up s':>10s} {'share':>7s}")
    for layer in LAYERS:
        pass_s = statistics.median(p["totals"]["self_s"][layer]
                                   for p in traced)
        setup_s = setup["self_s"][layer]
        print(f"  {layer:22s} {pass_s:10.4f} {pass_s / wall:7.1%}"
              f" {setup_s:10.4f} {setup_s / setup_wall:7.1%}")
    print(f"  {'(pass / set-up wall)':22s} {wall:10.4f} {'':7s}"
          f" {setup_wall:10.4f}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    enter_env()
    run_dir = WORK / f"run-{os.getpid()}"
    try:
        return bench(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def bench(args, run_dir: Path) -> int:
    warm = child(["warm", args.workload, str(args.seed), str(run_dir)], 600)
    if not warm["kernel"]:
        print("error: the replay kernel could not be built or loaded",
              file=sys.stderr)
        return 1

    from perfbench import cases
    from perfbench.calib import REF_STARTUP_S, normalise
    from perfbench.tracer import Tracer

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.recording = True
        tracer.install()
    from repro.sim.soatrace import vector_available

    t0 = time.perf_counter()
    vector_available()
    wl = cases.make(args.workload, args.seed, run_dir)
    wl.setup()
    setup_wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
        tracer.recording = False
        setup_totals = tracer.totals()

    ops = Ops()
    runs = measure(args, wl, ops, tracer)
    for label, thunk in wl.cross_checks():
        try:
            ops.record(thunk())
        except Exception as exc:  # noqa: BLE001 - counted, not fatal
            ops.record(f"{label}: {type(exc).__name__}: {exc}")
    # Set-up is timed last, on a host the passes have kept busy: start-up
    # right after an idle spell runs up to twice as slow for a second or two.
    setups = [] if args.trace else time_setup(args, run_dir)

    events = sum(wl.events(u) for u in wl.units)
    raw_pass_s = sum(unit_medians(runs["plain"]))
    raw_events_per_s = events / raw_pass_s
    calib_s = statistics.fmean(runs["calib"])
    host = {"calib_ms": calib_s * 1e3,
            "raw_events_per_s": raw_events_per_s,
            "passes": len(runs["plain"]) + len(runs["traced"])}
    for reason in ops.reasons:
        print(f"FAILED {reason}", file=sys.stderr)

    if tracer is None:
        host["raw_setup_s"] = statistics.median(r for r, _ in setups)
        host["raw_setup_calib_s"] = statistics.median(c for _, c in setups)
        metrics = {
            "setup_s": (statistics.median(r / c for r, c in setups)
                        * REF_STARTUP_S, "s"),
            "events_per_s": (events / normalise(raw_pass_s, runs["calib"]),
                             "1/s"),
            "peak_rss_mib": (runs["peak_rss_mib"], "MiB"),
        }
    else:
        spans_path = (WORK / "spans"
                      / f"{args.workload}-seed{args.seed}.npz")
        tracer.write_spans(spans_path, [wl.label(u) for u in wl.units])
        metrics = layer_metrics(setup_totals, runs, calib_s,
                                raw_events_per_s, tracer.span_count())
        print(f"spans: {spans_path.relative_to(ROOT)}"
              f" ({tracer.span_count()} spans)")
        print_shares(setup_totals, setup_wall, runs["traced"])
        for name, (value, unit) in metrics.items():
            print(f"  {name:28s} {value:14.6g} {unit}")
    print("host " + json.dumps(host))
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
