"""Per-node reference traces.

A trace is the sequence of events one node's processor generates:

* ``READ`` / ``WRITE`` of a global shared line,
* ``COMPUTE`` -- a burst of user instructions (cycles),
* ``LOCAL``  -- a burst of private/non-shared memory stall (cycles),
* ``BARRIER`` -- global synchronisation point.

A workload keeps every node's events in one flat pair of arrays: a
``uint8`` kind array and an ``int64`` arg array, with per-node
``offsets``/``lengths``.  Each node's :class:`Trace` is a view into
them.  The compiled replay kernel reads the flat arrays directly
(:meth:`WorkloadTraces.soa`); the reference loop converts each node's
view to Python lists once per run, because scalar indexing of Python
lists is ~3x faster than numpy scalar indexing in the interpreter loop.

On disk a workload is one file: a magic line, one JSON header line,
then the kind array and the little-endian arg array, each starting on
an 8-byte boundary.  :meth:`WorkloadTraces.save` writes it atomically
and :meth:`WorkloadTraces.load` memory-maps it read-only, so a loaded
workload's events stay in the page cache instead of the heap.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile

import numpy as np

__all__ = ["EV_READ", "EV_WRITE", "EV_COMPUTE", "EV_LOCAL", "EV_BARRIER",
           "TRACE_FORMAT_VERSION", "TRACE_LAYOUT_VERSION", "Trace",
           "TraceBuilder", "WorkloadTraces", "coalesce_events"]

EV_READ = 0
EV_WRITE = 1
EV_COMPUTE = 2
EV_LOCAL = 3
EV_BARRIER = 4

_EVENT_NAMES = {EV_READ: "READ", EV_WRITE: "WRITE", EV_COMPUTE: "COMPUTE",
                EV_LOCAL: "LOCAL", EV_BARRIER: "BARRIER"}

_MAGIC = b"ASTRACE\n"

#: Version of the event encoding.  Bump whenever the meaning of
#: (kind, arg) pairs changes: saved files then stop loading (``load``
#: raises) and every content hash derived from this constant stops
#: matching, so stale trace-cache entries are regenerated rather than
#: silently misread.
TRACE_FORMAT_VERSION = 1

#: Version of the on-disk file layout (header fields, array placement).
#: Bump when :meth:`WorkloadTraces.save` changes what it writes; older
#: files then stop loading.  Unlike :data:`TRACE_FORMAT_VERSION` it
#: enters no content hash or cache key.
TRACE_LAYOUT_VERSION = 1

#: Header fields every saved workload carries, with their JSON types.
_HEADER_FIELDS = {"name": str, "home_pages_per_node": int,
                  "total_shared_pages": int, "params": dict, "lengths": list}


def coalesce_events(kinds: np.ndarray,
                    args: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge adjacent same-kind ``COMPUTE``/``LOCAL`` runs.

    A run of k consecutive ``EV_COMPUTE`` (or ``EV_LOCAL``) events
    collapses into one event whose arg is the run's cycle sum.  Shared
    references and barriers are never touched, and the relative order
    of all surviving events is preserved, so per-node cycle totals,
    stats buckets and barrier alignment are unchanged -- the property
    ``tests/test_generator_properties.py`` pins down.  Fewer events
    means fewer interpreter iterations in the replay engine.
    """
    if kinds.shape != args.shape:
        raise ValueError("kinds/args length mismatch")
    n = len(kinds)
    if n == 0:
        return kinds, args
    mergeable = (kinds == EV_COMPUTE) | (kinds == EV_LOCAL)
    # Event i merges into its predecessor iff same kind and mergeable.
    merge = (kinds[1:] == kinds[:-1]) & mergeable[1:]
    if not merge.any():
        return kinds, args
    keep = np.concatenate([[True], ~merge])
    group = np.cumsum(keep) - 1  # output index of each input event
    out_args = np.zeros(int(keep.sum()), dtype=np.int64)
    np.add.at(out_args, group, np.asarray(args, dtype=np.int64))
    # Non-mergeable kinds are always singleton groups, so the group sum
    # is their own arg (barrier ids and line ids survive untouched).
    return kinds[keep], out_args


class Trace:
    """Immutable event sequence for one node."""

    __slots__ = ("kinds", "args")

    def __init__(self, kinds: np.ndarray, args: np.ndarray) -> None:
        if kinds.shape != args.shape:
            raise ValueError("kinds/args length mismatch")
        self.kinds = np.ascontiguousarray(kinds, dtype=np.uint8)
        self.args = np.ascontiguousarray(args, dtype=np.int64)

    def coalesced(self) -> "Trace":
        """This trace with adjacent COMPUTE/LOCAL runs merged.

        Returns ``self`` when there is nothing to merge (the common
        case for the built-in generators, which interleave compute
        markers between reference bursts).
        """
        kinds, args = coalesce_events(self.kinds, self.args)
        if kinds is self.kinds:
            return self
        return Trace(kinds, args)

    def __len__(self) -> int:
        return len(self.kinds)

    def __iter__(self):
        for k, a in zip(self.kinds, self.args):
            yield int(k), int(a)

    # -- introspection ----------------------------------------------------
    def count(self, kind: int) -> int:
        return int(np.count_nonzero(self.kinds == kind))

    def shared_refs(self) -> int:
        return self.count(EV_READ) + self.count(EV_WRITE)

    def barriers(self) -> int:
        return self.count(EV_BARRIER)

    def pages_touched(self, lines_per_page: int) -> set[int]:
        mask = (self.kinds == EV_READ) | (self.kinds == EV_WRITE)
        return set((self.args[mask] // lines_per_page).tolist())

    def event_name(self, kind: int) -> str:
        return _EVENT_NAMES[kind]

    def content_hash(self) -> str:
        """Stable 16-hex digest of the event arrays.

        Covers dtype, length and raw bytes of both arrays plus the
        trace format version, so two traces hash equal iff replaying
        them is guaranteed to be indistinguishable.
        """
        h = hashlib.sha256()
        h.update(f"v{TRACE_FORMAT_VERSION}:{len(self.kinds)}:".encode())
        h.update(self.kinds.tobytes())
        h.update(self.args.tobytes())
        return h.hexdigest()[:16]


class TraceBuilder:
    """Append-only trace construction.

    Events accumulate as numpy chunks.  A bulk append stores a validated
    copy of its arrays as one chunk, so a caller may reuse or mutate its
    arrays afterwards; scalar appends (``read``, ``write``, ``compute``,
    ``local``, ``barrier``) collect in a short pending run of Python ints
    that is sealed into a chunk when the next bulk append arrives, or at
    :meth:`build`.  Bulk-appended events never pass through Python
    ints, which would cost more than generating them.
    """

    __slots__ = ("_kind_chunks", "_arg_chunks", "_kinds", "_args")

    def __init__(self) -> None:
        self._kind_chunks: list[np.ndarray] = []
        self._arg_chunks: list[np.ndarray] = []
        # The pending run of scalar appends.
        self._kinds: list[int] = []
        self._args: list[int] = []

    def read(self, line: int) -> None:
        self._kinds.append(EV_READ)
        self._args.append(line)

    def write(self, line: int) -> None:
        self._kinds.append(EV_WRITE)
        self._args.append(line)

    def compute(self, cycles: int) -> None:
        if cycles < 0:
            raise ValueError("compute cycles must be non-negative")
        if cycles:
            self._kinds.append(EV_COMPUTE)
            self._args.append(cycles)

    def local(self, cycles: int) -> None:
        if cycles < 0:
            raise ValueError("local-memory cycles must be non-negative")
        if cycles:
            self._kinds.append(EV_LOCAL)
            self._args.append(cycles)

    def barrier(self, index: int) -> None:
        self._kinds.append(EV_BARRIER)
        self._args.append(index)

    def extend_refs(self, lines: np.ndarray, writes: np.ndarray) -> None:
        """Bulk-append shared references (vectorised generator path)."""
        if len(lines) != len(writes):
            raise ValueError("lines/writes length mismatch")
        self._append(
            np.where(writes, np.uint8(EV_WRITE), np.uint8(EV_READ)).ravel(),
            np.array(lines, dtype=np.int64).ravel())

    def extend_events(self, kinds, args) -> None:
        """Bulk-append pre-encoded ``(kind, arg)`` pairs.

        Accepts numpy arrays or plain sequences; multi-dimensional
        arrays are flattened in C order.  This is the public bulk API
        for vectorised emitters that assemble whole event blocks
        (e.g. ``workloads.base.emit_visits``).  Kinds are checked
        against ``EV_READ..EV_BARRIER`` before they are narrowed to
        ``uint8``, so no out-of-range kind can wrap onto a valid one.
        """
        kinds = np.ravel(kinds)
        args = np.ravel(args)
        if kinds.shape != args.shape:
            raise ValueError("kinds/args length mismatch")
        if len(kinds) and not (EV_READ <= kinds.min()
                               and kinds.max() <= EV_BARRIER):
            raise ValueError("unknown event kind in bulk append")
        self._append(kinds.astype(np.uint8), args.astype(np.int64))

    def _append(self, kinds: np.ndarray, args: np.ndarray) -> None:
        """Seal the pending run, then adopt *kinds*/*args* (owned
        copies) as the next chunk."""
        self._seal()
        if len(kinds):
            self._kind_chunks.append(kinds)
            self._arg_chunks.append(args)

    def _seal(self) -> None:
        """Turn the pending scalar run into a chunk."""
        if self._kinds:
            self._kind_chunks.append(np.array(self._kinds, dtype=np.uint8))
            self._arg_chunks.append(np.array(self._args, dtype=np.int64))
            self._kinds.clear()
            self._args.clear()

    def build(self, coalesce: bool = False) -> Trace:
        """Freeze into a :class:`Trace`.

        The trace owns its arrays and the builder stays usable: later
        appends extend what a later ``build`` returns.
        ``coalesce=True`` merges adjacent same-kind COMPUTE/LOCAL runs
        (see :func:`coalesce_events`) -- the generators pass it so
        replay never pays for split cycle bursts.
        """
        self._seal()
        if self._kind_chunks:
            kinds = np.concatenate(self._kind_chunks)
            args = np.concatenate(self._arg_chunks)
        else:
            kinds = np.zeros(0, dtype=np.uint8)
            args = np.zeros(0, dtype=np.int64)
        if coalesce:
            kinds, args = coalesce_events(kinds, args)
        return Trace(kinds, args)

    def __len__(self) -> int:
        return sum(map(len, self._kind_chunks)) + len(self._kinds)


class WorkloadTraces:
    """A complete workload: one trace per node + metadata.

    The events of all nodes live in one flat ``kinds`` (``uint8``) and
    one flat ``args`` (``int64``) array; node *i*'s events are
    ``[offsets[i], offsets[i] + lengths[i])`` and ``traces[i]`` is a
    :class:`Trace` view of that slice.  ``home_pages_per_node`` sizes
    each node's pinned memory (and thus, with the memory pressure, its
    page cache); ``name`` keys the Table 5 and Figure 2/3 emitters.
    """

    def __init__(self, name: str, traces: list[Trace],
                 home_pages_per_node: int, total_shared_pages: int,
                 params: dict | None = None) -> None:
        if not traces:
            raise ValueError("need at least one node trace")
        self._bind(name, np.concatenate([t.kinds for t in traces]),
                   np.concatenate([t.args for t in traces]),
                   [len(t) for t in traces], home_pages_per_node,
                   total_shared_pages, params)

    def _bind(self, name: str, kinds, args, lengths,
              home_pages_per_node: int, total_shared_pages: int,
              params: dict | None) -> None:
        """Adopt flat event arrays (without copying them) and metadata."""
        self.name = name
        self.home_pages_per_node = home_pages_per_node
        self.total_shared_pages = total_shared_pages
        self.params = params or {}
        self.kinds = np.ascontiguousarray(kinds, dtype=np.uint8)
        self.args = np.ascontiguousarray(args, dtype=np.int64)
        self.lengths = np.array(lengths, dtype=np.int64)
        self.offsets = np.zeros(len(self.lengths), dtype=np.int64)
        np.cumsum(self.lengths[:-1], out=self.offsets[1:])
        self.traces = [Trace(self.kinds[o:o + n], self.args[o:o + n])
                       for o, n in zip(self.offsets.tolist(),
                                       self.lengths.tolist())]
        if len({t.barriers() for t in self.traces}) != 1:
            raise ValueError("all nodes must reach the same number of barriers")
        self._ref_bounds = None

    @property
    def n_nodes(self) -> int:
        return len(self.traces)

    def total_refs(self) -> int:
        return sum(t.shared_refs() for t in self.traces)

    def max_remote_pages(self, lines_per_page: int,
                         home_of: dict[int, int] | None = None) -> int:
        """Upper bound on remote pages any node touches.

        Without a home map this counts pages touched minus the node's
        proportional home share -- the quantity Table 5 reports.
        """
        worst = 0
        for node, trace in enumerate(self.traces):
            touched = trace.pages_touched(lines_per_page)
            if home_of is not None:
                remote = sum(1 for p in touched if home_of.get(p) != node)
            else:
                remote = max(0, len(touched) - self.home_pages_per_node)
            worst = max(worst, remote)
        return worst

    def ideal_pressure(self, lines_per_page: int) -> float:
        """Memory pressure below which a perfect S-COMA never evicts.

        ideal = H / (H + Rmax): with pressure p, cache frames per node
        are H(1-p)/p, which covers Rmax exactly at p = H/(H+Rmax).
        """
        h = self.home_pages_per_node
        r = self.max_remote_pages(lines_per_page)
        return h / (h + r) if (h + r) else 1.0

    def soa(self) -> tuple:
        """Structure-of-arrays form of the whole workload.

        Returns ``(kinds, args, offsets, lengths, ref_lo, ref_hi)``: the
        workload's own flat arrays, so nothing is copied.
        ``ref_lo``/``ref_hi`` are the smallest and largest line id any
        READ/WRITE event references (``0``/``-1`` when there are none)
        -- the vectorized replay substrate (:mod:`repro.sim.soatrace`)
        sizes and bounds-checks its dense state arrays with them.  They
        are computed on the first call; all arrays are read-only for
        callers.
        """
        if self._ref_bounds is None:
            refs = self.args[self.kinds <= EV_WRITE]
            self._ref_bounds = ((int(refs.min()), int(refs.max()))
                                if len(refs) else (0, -1))
        return (self.kinds, self.args, self.offsets, self.lengths,
                *self._ref_bounds)

    def content_hash(self) -> str:
        """Stable 16-hex digest of the complete workload.

        Combines every node trace's :meth:`Trace.content_hash` with the
        metadata the replay engine consumes, so equality of hashes means
        "bit-identical replay inputs" — the property the trace cache's
        golden tests pin down.
        """
        h = hashlib.sha256()
        h.update(f"{self.name}:{self.home_pages_per_node}:"
                 f"{self.total_shared_pages}:{self.n_nodes}:".encode())
        for trace in self.traces:
            h.update(trace.content_hash().encode())
        return h.hexdigest()[:16]

    # -- persistence ---------------------------------------------------
    def save(self, path: str) -> None:
        """Write the workload to *path* atomically.

        The file is written under a temporary name in the target
        directory and renamed over *path*, so a process that has *path*
        memory-mapped keeps reading the old file's pages: truncating a
        mapped file in place would make its next read raise SIGBUS.
        """
        header = {
            "format_version": TRACE_FORMAT_VERSION,
            "layout_version": TRACE_LAYOUT_VERSION,
            "name": self.name,
            "home_pages_per_node": self.home_pages_per_node,
            "total_shared_pages": self.total_shared_pages,
            "params": self.params,
            "lengths": self.lengths.tolist(),
        }
        head = _MAGIC + json.dumps(header, sort_keys=True,
                                   separators=(",", ":")).encode() + b"\n"
        head += bytes(-len(head) % 8)
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(head)
                fh.write(self.kinds.data)
                fh.write(bytes(-len(self.kinds) % 8))
                fh.write(np.ascontiguousarray(self.args, dtype="<i8").data)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path: str) -> "WorkloadTraces":
        """Memory-map a file written by :meth:`save`, read-only.

        Raises ``ValueError`` on a foreign magic, a stale format or
        layout version, a malformed header, a file whose size does not
        match its header, or nodes with unequal barrier counts.
        """
        with open(path, "rb") as fh:
            if fh.read(len(_MAGIC)) != _MAGIC:
                raise ValueError(f"{path} is not a workload trace file")
            header = json.loads(fh.readline())
            if not isinstance(header, dict):
                raise ValueError(f"{path} has no trace header")
            for key, version in (("format_version", TRACE_FORMAT_VERSION),
                                 ("layout_version", TRACE_LAYOUT_VERSION)):
                if header.get(key) != version:
                    raise ValueError(
                        f"{path} has trace {key.replace('_', ' ')}"
                        f" {header.get(key)}, expected {version}")
            for key, kind in _HEADER_FIELDS.items():
                if not isinstance(header.get(key), kind):
                    raise ValueError(f"{path}: bad trace header field {key!r}")
            lengths = header["lengths"]
            if not lengths or not all(isinstance(n, int) and n >= 0
                                      for n in lengths):
                raise ValueError(f"{path}: bad trace header field 'lengths'")
            total = sum(lengths)
            kinds_at = fh.tell() + -fh.tell() % 8
            args_at = kinds_at + total + -total % 8
            size = os.fstat(fh.fileno()).st_size
            if size != args_at + 8 * total:
                raise ValueError(f"{path} is {size} bytes, its header"
                                 f" says {args_at + 8 * total}")
            if total:
                mapped = np.memmap(fh, dtype=np.uint8, mode="r")
                kinds = mapped[kinds_at:kinds_at + total]
                args = mapped[args_at:].view("<i8")
            else:
                kinds = np.zeros(0, dtype=np.uint8)
                args = np.zeros(0, dtype=np.int64)
        workload = cls.__new__(cls)
        workload._bind(header["name"], kinds, args, lengths,
                       header["home_pages_per_node"],
                       header["total_shared_pages"], header["params"])
        return workload
