"""External trace ingestion: real access traces as workloads.

The six synthetic generators reproduce the paper's SPLASH-2/em3d
geometry, but the adaptive policies are most interesting on reference
streams nobody parameterised — real cache/block access traces of the
kind the related multi-socket cache-optimization work evaluates on
(PAPERS.md).  This module converts such traces into
:class:`~repro.sim.trace.WorkloadTraces` so they flow through the trace
store, the run store, the matrix executor and the vector kernel
completely unchanged.

Formats
-------
``csv``
    One access per row, ``time,node,addr,op`` (header optional,
    detected): virtual time (any monotone unit), issuing node id, byte
    address, and ``r``/``w`` (also ``read``/``write``/``0``/``1``).
    An optional 5th column gives the access size in bytes (default:
    one line).

``cydonia``
    The Cydonia ``cache_trace`` layout used by the block-storage
    sampling literature: ``ts,lba,op,size`` — timestamp, logical block
    address (512-byte blocks by default), ``r``/``w``, size in bytes.
    Block traces carry no node id, so accesses are sharded across
    ``nodes`` by a deterministic hash of their page.

Mapping
-------
Byte addresses become line ids through the standard
:class:`~repro.mem.address.AddressMap` geometry; pages are densely
renumbered by first appearance, so arbitrarily sparse address spaces
replay against a machine sized ``home_pages_per_node =
ceil(pages / nodes)``.  Homes are then assigned by the simulator's
balanced first-touch allocator, exactly as for generated workloads.
Inter-access time gaps can be converted to COMPUTE bursts
(``cycles_per_time``), and ``barriers`` global synchronisation points
are placed at time quantiles (every workload carries at least the one
trailing barrier the replay engine requires).

Identity
--------
An ingested workload's application id is
``ext/<name>@<content_hash>`` — the trace's own 16-hex
:meth:`~repro.sim.trace.WorkloadTraces.content_hash`.  The hash rides
in the id, so trace-cache keys, ``RunSpec`` hashes and run-store
entries of two different ingested files can never collide, and a
re-ingested identical file maps to the same artifacts.  External apps
resolve *only* through the trace store (there is no generator to fall
back to): ``repro ingest`` registers the artifact, ``repro run
--app ext/...`` replays it.
"""

from __future__ import annotations

import csv
import math
import re
from pathlib import Path

import numpy as np

from ..mem.address import AddressMap
from ..sim.trace import TraceBuilder, WorkloadTraces

__all__ = ["INGEST_FORMAT_VERSION", "INGEST_FORMATS", "EXTERNAL_PREFIX",
           "is_external_app", "external_app_id", "parse_external_app",
           "ingest_file", "register_external"]

#: Version of the ingestion mapping (column semantics, dense renumber,
#: barrier placement).  Bump when the mapping changes: the version is
#: hashed into external trace-cache keys, so old artifacts stop
#: matching instead of replaying stale semantics.
INGEST_FORMAT_VERSION = 1

INGEST_FORMATS = ("csv", "cydonia")

EXTERNAL_PREFIX = "ext/"

_NAME_RE = re.compile(r"[^A-Za-z0-9_.-]+")
_APP_ID_RE = re.compile(r"^(ext/[A-Za-z0-9_.-]+)@([0-9a-f]{16})$")


def is_external_app(app: str) -> bool:
    """True for ingested-trace application ids (``ext/...``)."""
    return app.startswith(EXTERNAL_PREFIX)


def external_app_id(traces: WorkloadTraces) -> str:
    """The full ``ext/<name>@<hash>`` id of an ingested workload."""
    if not is_external_app(traces.name):
        raise ValueError(f"{traces.name!r} is not an external workload")
    return f"{traces.name}@{traces.content_hash()}"


def parse_external_app(app: str) -> tuple[str, str]:
    """Split ``ext/<name>@<hash>`` into ``(ext/<name>, hash)``."""
    m = _APP_ID_RE.match(app)
    if not m:
        raise ValueError(
            f"malformed external app id {app!r}; expected"
            " 'ext/<name>@<16-hex-hash>' as printed by `repro ingest`")
    return m.group(1), m.group(2)


def _mix64(x: int) -> int:
    """splitmix64 finaliser (node sharding for node-less block traces)."""
    x &= 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def _parse_op(token: str, path: str, row: int) -> bool:
    op = token.strip().lower()
    if op in ("r", "read", "0"):
        return False
    if op in ("w", "write", "1"):
        return True
    raise ValueError(f"{path}:{row}: unknown op {token!r}"
                     " (expected r/w/read/write/0/1)")


def _read_rows(path: Path, fmt: str, nodes: int | None,
               block_bytes: int) -> list[tuple[float, int, int, bool, int]]:
    """Parse *path* into ``(time, node, byte_addr, is_write, size)`` rows."""
    rows = []
    with open(path, newline="") as fh:
        for lineno, record in enumerate(csv.reader(fh), start=1):
            record = [f.strip() for f in record]
            if not record or not any(record):
                continue
            if record[0].startswith("#"):
                continue
            try:
                time = float(record[0])
            except ValueError:
                if lineno == 1:  # header row
                    continue
                raise ValueError(
                    f"{path}:{lineno}: non-numeric time {record[0]!r}"
                ) from None
            if fmt == "csv":
                if len(record) < 4:
                    raise ValueError(f"{path}:{lineno}: expected"
                                     " time,node,addr,op[,size]")
                node = int(record[1])
                if node < 0:
                    raise ValueError(f"{path}:{lineno}: negative node id")
                addr = int(record[2], 0)
                write = _parse_op(record[3], str(path), lineno)
                size = int(record[4]) if len(record) > 4 else 0
            else:  # cydonia: ts,lba,op,size
                if len(record) < 4:
                    raise ValueError(f"{path}:{lineno}: expected"
                                     " ts,lba,op,size")
                addr = int(record[1], 0) * block_bytes
                write = _parse_op(record[2], str(path), lineno)
                size = int(record[3])
                node = -1  # sharded by page below
            if addr < 0 or size < 0:
                raise ValueError(f"{path}:{lineno}: negative addr/size")
            rows.append((time, node, addr, write, size))
    if not rows:
        raise ValueError(f"{path}: no accesses found")
    return rows


def ingest_file(path: str | Path, fmt: str = "csv", name: str | None = None,
                nodes: int | None = None, barriers: int = 1,
                cycles_per_time: float = 0.0, block_bytes: int = 512,
                amap: AddressMap | None = None,
                seed: int = 0) -> WorkloadTraces:
    """Convert one external trace file into a replayable workload.

    Deterministic: the same file and parameters always produce
    bit-identical traces (and therefore the same ``content_hash`` /
    application id) in any process.
    """
    path = Path(path)
    if fmt not in INGEST_FORMATS:
        raise ValueError(f"unknown ingest format {fmt!r};"
                         f" choose from {INGEST_FORMATS}")
    if barriers < 1:
        raise ValueError("need at least one (trailing) barrier")
    if cycles_per_time < 0:
        raise ValueError("cycles_per_time must be non-negative")
    amap = amap or AddressMap()
    base = _NAME_RE.sub("-", name if name is not None else path.stem).strip("-")
    if not base:
        raise ValueError(f"cannot derive a workload name from {path.name!r}")

    rows = _read_rows(path, fmt, nodes, block_bytes)

    # Shard node-less block traces by page hash; validate explicit ids.
    if fmt == "cydonia":
        n_nodes = nodes or 8
        rows = [(t, _mix64((a // amap.page_bytes) ^ (seed * 0x9E3779B9))
                 % n_nodes, a, w, s) for t, _n, a, w, s in rows]
    else:
        max_node = max(r[1] for r in rows)
        n_nodes = nodes if nodes is not None else max_node + 1
        if max_node >= n_nodes:
            raise ValueError(f"{path}: node id {max_node} out of range for"
                             f" --nodes {n_nodes}")
    if n_nodes < 2:
        raise ValueError(
            f"{path}: only one node; shared-memory replay needs >= 2"
            " (pass nodes= / --nodes to size the machine)")

    # Dense page renumber by first appearance (file order), so sparse
    # address spaces replay against a compact shared space.
    page_ids: dict[int, int] = {}
    line_rows = []  # (time, node, dense_line, write)
    lpp = amap.lines_per_page
    for time, node, addr, write, size in rows:
        first = addr // amap.line_bytes
        last = (addr + max(size - 1, 0)) // amap.line_bytes
        for line in range(first, last + 1):
            page = line // lpp
            dense = page_ids.setdefault(page, len(page_ids))
            line_rows.append((time, node, dense * lpp + line % lpp, write))

    total_pages = len(page_ids)
    home_pages = math.ceil(total_pages / n_nodes)

    # Global barrier boundaries at time quantiles; every node emits
    # barriers 0..B-1 (the last one trailing), as the engine requires.
    times = np.array([r[0] for r in line_rows])
    bounds = [float(np.quantile(times, i / barriers))
              for i in range(1, barriers)]

    per_node: list[TraceBuilder] = [TraceBuilder() for _ in range(n_nodes)]
    next_bar = [0] * n_nodes
    prev_time = [None] * n_nodes
    order = np.argsort(times, kind="stable")
    for idx in order:
        time, node, line, write = line_rows[int(idx)]
        builder = per_node[node]
        while next_bar[node] < len(bounds) and time > bounds[next_bar[node]]:
            builder.barrier(next_bar[node])
            next_bar[node] += 1
        if cycles_per_time > 0:
            # Cumulative rounding keeps each node's total compute within
            # one cycle of gap_sum * cycles_per_time.
            prev = prev_time[node]
            if prev is not None and time > prev:
                builder.compute(int(time * cycles_per_time)
                                - int(prev * cycles_per_time))
            prev_time[node] = time
        builder.write(line) if write else builder.read(line)
    for node, builder in enumerate(per_node):
        for index in range(next_bar[node], barriers):
            builder.barrier(index)

    return WorkloadTraces.from_builders(
        name=EXTERNAL_PREFIX + base,
        builders=per_node,
        home_pages_per_node=home_pages,
        total_shared_pages=home_pages * n_nodes,
        params={"ingest": {
            "source": path.name,
            "format": fmt,
            "ingest_format_version": INGEST_FORMAT_VERSION,
            "nodes": n_nodes,
            "barriers": barriers,
            "cycles_per_time": cycles_per_time,
            "block_bytes": block_bytes if fmt == "cydonia" else None,
            "accesses": len(rows),
            "pages": total_pages,
            "seed": seed,
        }})


def register_external(traces: WorkloadTraces, store=None) -> str:
    """Persist an ingested workload in the trace store; returns its app id.

    The store is how external apps resolve at run time (there is no
    generator fallback), so registration requires one — the ambient
    store by default.
    """
    from ..runtime.tracecache import get_default_trace_store

    if store is None:
        store = get_default_trace_store()
    if store is None:
        raise ValueError("registering an external trace needs a TraceStore"
                         " (none passed, no ambient store installed)")
    app_id = external_app_id(traces)
    store.put(app_id, 1.0, traces)
    return app_id
