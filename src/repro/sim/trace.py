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
           "TraceBuilder", "WorkloadTraces", "coalesce_events",
           "coalesce_nodes"]

#: Event kinds; the replay kernel reads these names.
EV_READ = 0
EV_WRITE = 1
EV_COMPUTE = 2
EV_LOCAL = 3
EV_BARRIER = 4

_EVENT_NAMES = {EV_READ: "READ", EV_WRITE: "WRITE", EV_COMPUTE: "COMPUTE",
                EV_LOCAL: "LOCAL", EV_BARRIER: "BARRIER"}

_MAGIC = b"ASTRACE\n"

_INT64 = np.iinfo(np.int64)

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
    return coalesce_nodes(kinds, args, [len(kinds)])[:2]


def coalesce_nodes(kinds: np.ndarray, args: np.ndarray,
                   lengths: list[int]) -> tuple[np.ndarray, np.ndarray,
                                                list[int]]:
    """:func:`coalesce_events` over each node's run of flat arrays.

    Node *i* is the *i*-th run of ``lengths[i]`` events, and no run
    merges across a node boundary.  Returns the arrays -- the same
    objects when nothing merges -- and the nodes' new lengths.
    """
    if len(kinds) < 2:
        return kinds, args, lengths
    # Event i merges into its predecessor iff same kind and mergeable.
    merge = kinds[1:] == kinds[:-1]
    if not merge.any():
        return kinds, args, lengths
    merge &= (kinds[1:] == EV_COMPUTE) | (kinds[1:] == EV_LOCAL)
    ends = np.cumsum(lengths)
    merge[ends[(ends > 0) & (ends < len(kinds))] - 1] = False
    if not merge.any():
        return kinds, args, lengths
    # Each surviving event starts a group that runs to the next one.
    starts = np.flatnonzero(np.concatenate([[True], ~merge]))
    lengths = np.diff(np.searchsorted(starts, ends), prepend=0).tolist()
    # Non-mergeable kinds are always singleton groups, so the group sum
    # is their own arg (barrier ids and line ids survive untouched).
    return (kinds[starts],
            np.add.reduceat(np.asarray(args, dtype=np.int64), starts),
            lengths)


class Trace:
    """Immutable event sequence for one node."""

    __slots__ = ("kinds", "args")

    def __init__(self, kinds: np.ndarray, args: np.ndarray) -> None:
        if kinds.shape != args.shape:
            raise ValueError("kinds/args length mismatch")
        self.kinds = np.ascontiguousarray(kinds, dtype=np.uint8)
        self.args = np.ascontiguousarray(args, dtype=np.int64)

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

    Events accumulate as *pieces* that are written into their final
    arrays once, by :meth:`build` or :meth:`WorkloadTraces.from_builders`
    (both through :func:`_fill`).  A piece is either

    * an event chunk ``(kinds, args, scan)``: a bulk append
      (``extend_refs``, ``extend_events``) stores a validated copy of
      its arrays, so a caller may reuse or mutate them afterwards; scalar
      appends (``read``, ``write``, ``compute``, ``local``, ``barrier``)
      collect in a short pending run of Python ints that is sealed into
      a chunk when the next bulk append arrives, or at a build.  *scan*
      says whether the chunk may hold adjacent COMPUTE or LOCAL events
      of one kind, which coalescing merges; or
    * a visit round ``(lines, writes, block, cycles)`` from
      :meth:`extend_visits`, whose arrays the builder takes over as they
      are: its events exist only in the arrays it is built into.

    Bulk-appended events never pass through Python ints, which would
    cost more than generating them.
    """

    __slots__ = ("_pieces", "_kinds", "_args", "_scan")

    def __init__(self) -> None:
        self._pieces: list[tuple] = []
        # The pending run of scalar appends, and whether it holds two
        # adjacent COMPUTE or LOCAL events of one kind.
        self._kinds: list[int] = []
        self._args: list[int] = []
        self._scan = False

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
            self._cycles(EV_COMPUTE, cycles)

    def local(self, cycles: int) -> None:
        if cycles < 0:
            raise ValueError("local-memory cycles must be non-negative")
        if cycles:
            self._cycles(EV_LOCAL, cycles)

    def _cycles(self, kind: int, cycles: int) -> None:
        if self._kinds and self._kinds[-1] == kind:
            self._scan = True
        self._kinds.append(kind)
        self._args.append(cycles)

    def barrier(self, index: int) -> None:
        self._kinds.append(EV_BARRIER)
        self._args.append(index)

    def extend_refs(self, lines: np.ndarray, writes: np.ndarray) -> None:
        """Bulk-append shared references (vectorised generator path)."""
        if len(lines) != len(writes):
            raise ValueError("lines/writes length mismatch")
        self._append(
            (np.where(writes, np.uint8(EV_WRITE), np.uint8(EV_READ)).ravel(),
             np.array(lines, dtype=np.int64).ravel(), False))

    def extend_events(self, kinds, args) -> None:
        """Bulk-append pre-encoded ``(kind, arg)`` pairs.

        Accepts numpy arrays or plain sequences; multi-dimensional
        arrays are flattened in C order.  Kinds are checked against
        ``EV_READ..EV_BARRIER`` before they are narrowed to ``uint8``,
        so no out-of-range kind can wrap onto a valid one.
        """
        kinds = np.ravel(kinds)
        args = np.ravel(args)
        if kinds.shape != args.shape:
            raise ValueError("kinds/args length mismatch")
        if len(kinds) and not (EV_READ <= kinds.min()
                               and kinds.max() <= EV_BARRIER):
            raise ValueError("unknown event kind in bulk append")
        self._append((kinds.astype(np.uint8), args.astype(np.int64), True))

    def extend_visits(self, lines: np.ndarray, writes: np.ndarray,
                      block: int, cycles: int) -> None:
        """Append one round of page visits, taking over its arrays.

        The round's events are ``len(lines) // block`` blocks of one
        ``COMPUTE`` marker of *cycles* followed by *block* references,
        then the references that do not fill a block: reference *i* is
        a ``WRITE`` of ``lines[i]`` if ``writes[i]``, else a ``READ``.
        This is the vectorised generators' append
        (``workloads.base.emit_visits``).  The builder keeps *lines* and
        *writes* as they are, without a copy, until it is built: the
        caller hands them over and must not change them afterwards.
        """
        lines = np.asarray(lines, dtype=np.int64).reshape(-1)
        writes = np.asarray(writes, dtype=bool).reshape(-1)
        if lines.shape != writes.shape:
            raise ValueError("lines/writes length mismatch")
        if block < 1:
            raise ValueError("a visit block needs at least one reference")
        self._append((lines, writes, int(block), int(cycles)))

    def _append(self, piece: tuple) -> None:
        """Seal the pending run, then adopt *piece* (an owned chunk or a
        taken-over round) unless it is empty."""
        if self._kinds:
            self._seal()
        if len(piece[0]):
            self._pieces.append(piece)

    def _seal(self) -> None:
        """Turn the pending scalar run into a chunk."""
        if self._kinds:
            self._pieces.append((np.array(self._kinds, dtype=np.uint8),
                                 np.array(self._args, dtype=np.int64),
                                 self._scan))
            self._kinds.clear()
            self._args.clear()
            self._scan = False

    def _layout(self, coalesce: bool) -> tuple[list, int]:
        """The pieces as :func:`_fill` writes them, and their event count.

        Each entry is ``(piece, events, merge)``.  With *coalesce*, a
        chunk that may hold a mergeable pair is coalesced on its own,
        and a piece whose first event continues the previous piece's
        last COMPUTE or LOCAL run is marked to *merge* into it.  A visit
        round needs no scan: its COMPUTE markers are separated by at
        least one reference, and it ends with a reference.
        """
        self._seal()
        layout = []
        total = 0
        last = -1          # kind of the last event laid out so far
        for piece in self._pieces:
            if len(piece) == 3:
                if coalesce and piece[2]:
                    piece = (*coalesce_events(piece[0], piece[1]), True)
                kinds = piece[0]
                n, first, end = len(kinds), int(kinds[0]), int(kinds[-1])
            else:
                lines, writes, block, _ = piece
                blocks = len(lines) // block
                n = len(lines) + blocks
                first = EV_COMPUTE if blocks else int(writes[0])
                end = EV_READ
            merge = (coalesce and first == last
                     and (first == EV_COMPUTE or first == EV_LOCAL))
            layout.append((piece, n, merge))
            total += n - merge
            last = end
        return layout, total

    def build(self, coalesce: bool = False) -> Trace:
        """Freeze into a :class:`Trace`.

        The trace owns its arrays and the builder stays usable: later
        appends extend what a later ``build`` returns.
        ``coalesce=True`` merges adjacent same-kind COMPUTE/LOCAL runs
        (see :func:`coalesce_events`) -- the generators pass it so
        replay never pays for split cycle bursts.
        """
        layout, total = self._layout(coalesce)
        kinds = np.empty(total, dtype=np.uint8)
        args = np.empty(total, dtype=np.int64)
        _fill(layout, kinds, args)
        return Trace(kinds, args)

    def __len__(self) -> int:
        return (sum(len(p[0]) + (len(p[0]) // p[2] if len(p) == 4 else 0)
                    for p in self._pieces) + len(self._kinds))


def _fill(layout: list, kinds: np.ndarray, args: np.ndarray) -> None:
    """Write a builder's :meth:`~TraceBuilder._layout` into *kinds* and
    *args*, which it fills exactly.

    A piece marked to merge is written one slot early, over the event it
    continues, whose cycles are then added back.  A visit round is
    written through ``(blocks, block + 1)`` views: column 0 takes the
    COMPUTE markers, the rest the references, and a write flag is its
    own event kind (``EV_READ == 0``, ``EV_WRITE == 1``).
    """
    pos = 0
    for piece, n, merge in layout:
        if merge:
            pos -= 1
            carry = args[pos]
        end = pos + n
        if len(piece) == 3:
            kinds[pos:end] = piece[0]
            args[pos:end] = piece[1]
        else:
            lines, writes, block, cycles = piece
            blocks = len(lines) // block
            refs = blocks * block
            head = pos + blocks * (block + 1)
            if head < end:
                kinds[head:end] = writes[refs:]
                args[head:end] = lines[refs:]
                lines, writes = lines[:refs], writes[:refs]
            grid = kinds[pos:head].reshape(blocks, block + 1)
            grid[:, 0] = EV_COMPUTE
            grid[:, 1:] = writes.reshape(blocks, block)
            grid = args[pos:head].reshape(blocks, block + 1)
            grid[:, 0] = cycles
            grid[:, 1:] = lines.reshape(blocks, block)
        if merge:
            args[pos] += carry
        pos = end


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

    @classmethod
    def from_builders(cls, name: str, builders: list[TraceBuilder],
                      home_pages_per_node: int, total_shared_pages: int,
                      params: dict | None = None) -> "WorkloadTraces":
        """One node per builder, coalesced, written once.

        Equal to ``WorkloadTraces(name, [b.build(coalesce=True) for b in
        builders], ...)``, but the whole workload is sized first and each
        builder's pieces are written straight into its node's slice of
        the flat arrays, with no per-node trace in between.  The
        builders stay usable, as after :meth:`TraceBuilder.build`.
        """
        if not builders:
            raise ValueError("need at least one node trace")
        layouts = [b._layout(coalesce=True) for b in builders]
        lengths = [total for _, total in layouts]
        kinds = np.empty(sum(lengths), dtype=np.uint8)
        args = np.empty(sum(lengths), dtype=np.int64)
        pos = 0
        for layout, total in layouts:
            _fill(layout, kinds[pos:pos + total], args[pos:pos + total])
            pos += total
        return cls.from_arrays(name, kinds, args, lengths,
                               home_pages_per_node, total_shared_pages,
                               params)

    @classmethod
    def from_arrays(cls, name: str, kinds: np.ndarray, args: np.ndarray,
                    lengths, home_pages_per_node: int,
                    total_shared_pages: int,
                    params: dict | None = None) -> "WorkloadTraces":
        """Adopt flat event arrays, node *i* being the *i*-th run of
        ``lengths[i]`` events, without copying them."""
        workload = cls.__new__(cls)
        workload._bind(name, kinds, args, lengths, home_pages_per_node,
                       total_shared_pages, params)
        return workload

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
        are computed on the first call, as masked reductions that copy
        no reference; all arrays are read-only for callers.
        """
        if self._ref_bounds is None:
            refs = self.kinds <= EV_WRITE
            self._ref_bounds = (
                (int(np.min(self.args, where=refs, initial=_INT64.max)),
                 int(np.max(self.args, where=refs, initial=_INT64.min)))
                if refs.any() else (0, -1))
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
        return cls.from_arrays(header["name"], kinds, args, lengths,
                               header["home_pages_per_node"],
                               header["total_shared_pages"], header["params"])
