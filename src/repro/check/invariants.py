"""Structural invariants over a running :class:`~repro.sim.machine.Machine`.

Each check sweeps one family of simulator state and returns the list of
:class:`Violation` records it finds -- empty means the invariant holds.
The checks run at *stable* points only (operation-completion events, a
barrier release, or the end of the run): publish sites fire after their
state mutation completes, so mid-operation transients (a frame taken
before its page is mapped, a copyset mid-invalidation) are never
observed.

The invariant families, and the paper sections they guard:

* **directory-swmr** -- single-writer/multiple-reader: a chunk with a
  dirty owner is cached by exactly that owner (Section 2.1's
  write-invalidate protocol).
* **cache-reachability** -- every locally cached copy (L1 line, RAC
  entry, S-COMA valid chunk, write permission) is reachable through the
  directory's copysets, so invalidations can always find it.
* **frame-accounting** -- each node's free-pool ledger balances and
  every in-use page-cache frame backs exactly one S-COMA page
  (Section 3's free-pool machinery).
* **rac-exclusivity** -- the RAC only holds data of CC-NUMA-mode pages:
  S-COMA pages are backed by page-cache frames and home pages by local
  memory, so RAC residency would be unreachable dead state (Section 4.1).
* **page-table** -- mode/valid-bits/clock agreement and home-mapping
  consistency with the global allocator (catches migration bugs).

Each check reads the whole machine at once -- the per-node rows of
``Machine.blocks``, the directory's copysets and owners, the
allocator's homes -- with array operations over all nodes together, so
a clean machine costs a few passes over those buffers.  What depends
only on the machine's size (node ids and copyset bits, chunk and page
ranges) is built once per size and shared by every sweep.  Records are
built only for the offending entries, node by node, in the order a
walk over each node's structures would find them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from ..kernel.freelist import PC_ALLOCS, PC_FREE, PC_HEAD, PC_LEN, PC_RELEASES
from ..kernel.vm import PageMode

__all__ = [
    "Violation",
    "STRUCTURAL_CHECKS",
    "check_directory_swmr",
    "check_cache_reachability",
    "check_frame_accounting",
    "check_rac_exclusivity",
    "check_page_table",
]


@dataclass
class Violation:
    """One invariant violation, with simulator context for replay."""

    invariant: str
    message: str
    node: int = -1
    page: int = -1
    clock: int = -1
    detail: dict = field(default_factory=dict)

    def __str__(self) -> str:
        where = []
        if self.node >= 0:
            where.append(f"node {self.node}")
        if self.page >= 0:
            where.append(f"page {self.page}")
        if self.clock >= 0:
            where.append(f"clock {self.clock}")
        ctx = f" [{', '.join(where)}]" if where else ""
        return f"{self.invariant}{ctx}: {self.message}"

    def as_dict(self) -> dict:
        return {"invariant": self.invariant, "message": self.message,
                "node": self.node, "page": self.page, "clock": self.clock,
                "detail": self.detail}

    @classmethod
    def from_dict(cls, data: dict) -> "Violation":
        return cls(**data)


# ----------------------------------------------------------------------
#: The page modes as plain ints (numpy compares an enum member slowly).
_UNMAPPED, _HOME, _SCOMA, _CCNUMA = (int(mode) for mode in (
    PageMode.UNMAPPED, PageMode.HOME, PageMode.SCOMA, PageMode.CCNUMA))

#: Bit ``i`` of a 64-bit copyset word, for ``i`` in 0..63.
_BIT = np.uint64(1) << np.arange(64, dtype=np.uint64)


def _shared(array: np.ndarray) -> np.ndarray:
    """*array*, read-only: it is shared by every sweep."""
    array.flags.writeable = False
    return array


@functools.lru_cache(maxsize=64)
def _arange(n: int) -> np.ndarray:
    """``0 .. n-1``: a chunk, page or clock range, built once per length."""
    return _shared(np.arange(n))


@functools.lru_cache(maxsize=16)
def _node_columns(n_nodes: int) -> tuple:
    """The node ids as a column, to broadcast against per-node rows,
    and each node's bit in its copyset word."""
    ids = np.arange(n_nodes)[:, None]
    return _shared(ids), _shared(_BIT[ids & 63])


def _unreached(directory, nodes: np.ndarray, bits: np.ndarray,
               chunks: np.ndarray) -> np.ndarray:
    """Is each of *nodes* missing from the copyset of the matching
    chunk of *chunks*?  *bits* holds each node's bit in its copyset
    word (all three broadcast together)."""
    words = directory.words
    index = chunks if words == 1 else chunks * words + (nodes >> 6)
    return (np.asarray(directory.copyset).take(index) & bits) == 0


def _l1_lines(machine) -> np.ndarray:
    """Every node's resident L1 lines, one row per node (``-1`` =
    empty): a direct-mapped L1's tag row, or the resident lines of an
    associative L1, which keeps no machine-wide row, in its own order."""
    if machine.config.l1_ways == 1:
        return machine.blocks.l1_tags
    resident = [node.l1.resident_lines() for node in machine.nodes]
    lines = np.full((len(resident), max(map(len, resident))), -1, np.int64)
    for row, held in zip(lines, resident):
        row[:len(held)] = held
    return lines


def _entries(bad: np.ndarray, *values: np.ndarray):
    """``(value, ...)`` at every set entry of the mask *bad*, each of
    *values* broadcast to its shape, in row-major order, as plain ints.
    A clean mask costs one pass."""
    if not bad.any():
        return ()
    return zip(*(np.broadcast_to(v, bad.shape)[bad].tolist()
                 for v in values))


def _by_node(violations: list[Violation]) -> list[Violation]:
    """*violations* node by node, each node's in the order found."""
    violations.sort(key=attrgetter("node"))    # stable
    return violations


def check_directory_swmr(machine) -> list[Violation]:
    """A dirty-owned chunk is cached by exactly its owner."""
    directory = machine.directory
    amap = machine.amap
    owners = np.asarray(directory.owner)
    copysets = np.asarray(directory.copyset)
    # The copyset a dirty owner leaves: its own bit, in its own word.
    if directory.words == 1:
        stray = copysets != _BIT.take(owners & 63)
    else:
        column = owners[:, None]
        stray = (copysets.reshape(-1, directory.words) != np.where(
            _arange(directory.words) == column >> 6,
            _BIT.take(column & 63), 0)).any(axis=1)
    out = []
    for chunk, owner in _entries((owners != -1) & stray,
                                 _arange(owners.size), owners):
        cs = directory.copyset_of(chunk)
        out.append(Violation(
            "directory-swmr",
            f"chunk {chunk} owned by node {owner} but copyset is"
            f" {cs:#x} (expected {1 << owner:#x})",
            node=owner, page=amap.page_of_chunk(chunk),
            detail={"chunk": chunk, "copyset": cs}))
    return out


def check_cache_reachability(machine) -> list[Violation]:
    """Every cached copy must be reachable by directory invalidations."""
    directory = machine.directory
    amap = machine.amap
    blocks = machine.blocks
    nodes, bits = _node_columns(len(machine.nodes))
    out = []
    # L1 lines.
    lines = _l1_lines(machine)
    chunks = lines >> amap.chunk_shift
    for nid, line, chunk in _entries(
            (lines != -1) & _unreached(directory, nodes, bits, chunks),
            nodes, lines, chunks):
        out.append(Violation(
            "cache-reachability",
            f"L1 holds line {line} (chunk {chunk}) without"
            " copyset membership",
            node=nid, page=line >> amap.line_shift,
            detail={"structure": "l1", "chunk": chunk, "line": line}))
    # RAC entries (chunks, or victim lines in victim-fill mode).
    entries = blocks.rac
    chunks = (entries >> amap.chunk_shift
              if machine.config.rac_fill_policy == "victim" else entries)
    for nid, chunk in _entries(
            (entries != -1) & _unreached(directory, nodes, bits, chunks),
            nodes, chunks):
        out.append(Violation(
            "cache-reachability",
            f"RAC holds chunk {chunk} without copyset membership",
            node=nid, page=amap.page_of_chunk(chunk),
            detail={"structure": "rac", "chunk": chunk}))
    # S-COMA valid bits, of the (node, page) pairs holding any.
    valid = blocks.scoma_valid
    pairs = np.flatnonzero(valid.any(axis=2))
    cpp = amap.chunks_per_page
    held_bits = np.unpackbits(
        valid.reshape(-1, valid.shape[2])[pairs].astype("<u8", copy=False)
        .view(np.uint8), axis=1, count=cpp, bitorder="little").view(bool)
    held, pages = np.divmod(pairs[:, None], valid.shape[1])
    chunks = pages * cpp + _arange(cpp)
    for nid, page, chunk in _entries(
            held_bits & _unreached(directory, held, _BIT[held & 63], chunks),
            held, pages, chunks):
        out.append(Violation(
            "cache-reachability",
            f"S-COMA valid bit set for chunk {chunk}"
            " without copyset membership",
            node=nid, page=page,
            detail={"structure": "scoma", "chunk": chunk}))
    # Write permission.
    owners = np.asarray(directory.owner)
    for nid, chunk, owner in _entries(
            (blocks.owned != 0) & (owners != nodes), nodes,
            _arange(owners.size), owners):
        out.append(Violation(
            "cache-reachability",
            f"node holds write permission on chunk {chunk} but"
            f" directory owner is {owner}",
            node=nid, page=amap.page_of_chunk(chunk),
            detail={"structure": "owned", "chunk": chunk}))
    return _by_node(out)


def check_frame_accounting(machine) -> list[Violation]:
    """Free-pool ledger balance and frame <-> S-COMA page agreement."""
    pc = machine.blocks.pc
    capacity = machine.page_cache_frames()
    in_use = capacity - pc[:, PC_FREE]
    unbalanced = ((in_use < 0) | (in_use > capacity)
                  | (in_use != pc[:, PC_ALLOCS] - pc[:, PC_RELEASES]))
    # The S-COMA pages mapped are the second-chance clock's length.
    miscounted = in_use != pc[:, PC_LEN]
    out = []
    for nid in np.flatnonzero(unbalanced | miscounted).tolist():
        free, allocations, releases, scoma_pages = pc[
            nid, [PC_FREE, PC_ALLOCS, PC_RELEASES, PC_LEN]].tolist()
        if unbalanced[nid]:
            out.append(Violation(
                "frame-accounting",
                f"pool ledger out of balance: free={free}"
                f" capacity={capacity} allocations={allocations}"
                f" releases={releases}",
                node=nid))
        if miscounted[nid]:
            out.append(Violation(
                "frame-accounting",
                f"{capacity - free} frames in use but {scoma_pages} S-COMA"
                " pages mapped",
                node=nid,
                detail={"in_use": capacity - free,
                        "scoma_pages": scoma_pages}))
    return out


def check_rac_exclusivity(machine) -> list[Violation]:
    """RAC entries belong only to CC-NUMA-mode pages."""
    amap = machine.amap
    blocks = machine.blocks
    entries = blocks.rac
    pages = entries >> (amap.line_shift
                        if machine.config.rac_fill_policy == "victim"
                        else amap.line_shift - amap.chunk_shift)
    nodes = _node_columns(len(machine.nodes))[0]
    modes = blocks.modes[nodes, pages]
    return [Violation(
        "rac-exclusivity",
        f"RAC holds data of page {page} which is in"
        f" {PageMode(mode).name} mode",
        node=nid, page=page, detail={"entry": entry, "mode": mode})
        for nid, entry, page, mode in _entries(
            (entries != -1) & (modes != _CCNUMA),
            nodes, entries, pages, modes)]


def check_page_table(machine) -> list[Violation]:
    """Mode/valid/clock agreement + home mapping vs the allocator."""
    blocks = machine.blocks
    allocator = machine.allocator
    nodes = _node_columns(len(machine.nodes))[0]
    modes = blocks.modes
    n_pages = modes.shape[1]
    scoma = modes == _SCOMA
    # Every S-COMA page carries valid bits (all clear when freshly
    # mapped); any other page must have none.
    valid = blocks.scoma_valid.any(axis=2)
    # The second-chance clock of each node, from its head, as ClockRing
    # reads its ring buffer; it must hold each S-COMA page exactly once.
    pc, clk = blocks.pc, blocks.clk
    length = pc[:, PC_LEN, None]
    ahead = _arange(max(int(length.max()), 0))
    clock = clk[nodes, (pc[:, PC_HEAD, None] + ahead) % clk.shape[1]]
    queued = ahead < length
    known = queued & (clock >= 0) & (clock < n_pages)
    counts = np.bincount((nodes * n_pages + clock)[known],
                         minlength=modes.size).reshape(modes.shape)
    # Known entries are queued ones: a queued entry that is not known
    # lies outside the table.
    unclocked = (counts != scoma).any(axis=1) | (queued != known).any(axis=1)
    homes = np.asarray(allocator.home)[:n_pages]
    foreign = (modes != _UNMAPPED) & ((modes == _HOME) != (homes == nodes))
    out = []
    for nid in np.flatnonzero((valid & ~scoma).any(axis=1)).tolist():
        out.append(Violation(
            "page-table",
            f"S-COMA valid-bit pages"
            f" {np.flatnonzero(valid[nid] | scoma[nid]).tolist()} disagree"
            f" with S-COMA-mode pages {np.flatnonzero(scoma[nid]).tolist()}",
            node=nid))
    for nid in np.flatnonzero(unclocked).tolist():
        out.append(Violation(
            "page-table",
            f"second-chance clock {clock[nid, queued[nid]].tolist()}"
            f" disagrees with S-COMA-mode pages"
            f" {np.flatnonzero(scoma[nid]).tolist()}",
            node=nid))
    for nid, page, mode in _entries(foreign, nodes, _arange(n_pages),
                                    modes):
        if mode == _HOME:
            out.append(Violation(
                "page-table",
                f"page mapped HOME but allocator home is"
                f" {allocator.home[page]}",
                node=nid, page=page))
        else:
            out.append(Violation(
                "page-table",
                f"page mapped {PageMode(mode).name} on its own home node",
                node=nid, page=page))
    return _by_node(out)


#: All structural sweeps, in reporting order.
STRUCTURAL_CHECKS = (
    check_directory_swmr,
    check_cache_reachability,
    check_frame_accounting,
    check_rac_exclusivity,
    check_page_table,
)
