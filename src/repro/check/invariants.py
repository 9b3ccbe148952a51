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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
def _copysets(directory) -> np.ndarray:
    """The directory's sharer bitmaps as a (chunks, words) array."""
    return np.asarray(directory.copyset).reshape(-1, directory.words)


def _cached_by(directory, chunks: np.ndarray, node: int) -> np.ndarray:
    """Per-chunk copyset membership of *node* (a bool array)."""
    words = _copysets(directory)[chunks, node >> 6]
    return (words >> np.uint64(node & 63)) & np.uint64(1) != 0


def check_directory_swmr(machine) -> list[Violation]:
    """A dirty-owned chunk is cached by exactly its owner."""
    directory = machine.directory
    amap = machine.amap
    owners = np.asarray(directory.owner)
    chunks = np.flatnonzero(owners != -1)
    expected = np.zeros((len(chunks), directory.words), np.uint64)
    expected[np.arange(len(chunks)), owners[chunks] >> 6] = (
        np.uint64(1) << (owners[chunks] & 63).astype(np.uint64))
    bad = (_copysets(directory)[chunks] != expected).any(axis=1)
    out = []
    for chunk in chunks[bad].tolist():
        owner = directory.owner[chunk]
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
    owners = np.asarray(directory.owner)
    out = []
    for node in machine.nodes:
        nid = node.id
        # L1 lines.
        lines = np.array(node.l1.resident_lines(), np.int64)
        unreached = ~_cached_by(directory, lines >> amap.chunk_shift, nid)
        for line in lines[unreached].tolist():
            chunk = line >> amap.chunk_shift
            out.append(Violation(
                "cache-reachability",
                f"L1 holds line {line} (chunk {chunk}) without"
                " copyset membership",
                node=nid, page=line >> amap.line_shift,
                detail={"structure": "l1", "chunk": chunk, "line": line}))
        # RAC entries (chunks, or victim lines in victim-fill mode).
        entries = np.array(node.rac.resident_entries(), np.int64)
        chunks = entries >> amap.chunk_shift if node.rac_victim else entries
        for chunk in chunks[~_cached_by(directory, chunks, nid)].tolist():
            out.append(Violation(
                "cache-reachability",
                f"RAC holds chunk {chunk} without copyset membership",
                node=nid, page=amap.page_of_chunk(chunk),
                detail={"structure": "rac", "chunk": chunk}))
        # S-COMA valid bits.
        pt = node.page_table
        valid = np.asarray(pt.scoma_valid).reshape(-1, pt.sv_words)
        for page in np.flatnonzero(valid.any(axis=1)).tolist():
            first = amap.first_chunk_of_page(page)
            mask = pt.valid_mask(page)
            for cip in range(amap.chunks_per_page):
                if mask >> cip & 1 and not directory.is_cached_by(
                        first + cip, nid):
                    out.append(Violation(
                        "cache-reachability",
                        f"S-COMA valid bit set for chunk {first + cip}"
                        " without copyset membership",
                        node=nid, page=page,
                        detail={"structure": "scoma", "chunk": first + cip}))
        # Write permission.
        owned = np.flatnonzero(np.asarray(node.owned))
        for chunk in owned[owners[owned] != nid].tolist():
            out.append(Violation(
                "cache-reachability",
                f"node holds write permission on chunk {chunk} but"
                f" directory owner is {directory.owner[chunk]}",
                node=nid, page=amap.page_of_chunk(chunk),
                detail={"structure": "owned", "chunk": chunk}))
    return out


def check_frame_accounting(machine) -> list[Violation]:
    """Free-pool ledger balance and frame <-> S-COMA page agreement."""
    out = []
    for node in machine.nodes:
        pool = node.pool
        if not pool.ledger_consistent():
            out.append(Violation(
                "frame-accounting",
                f"pool ledger out of balance: free={pool.free}"
                f" capacity={pool.capacity} allocations={pool.allocations}"
                f" releases={pool.releases}",
                node=node.id))
        scoma_pages = node.page_table.scoma_page_count()
        if pool.in_use != scoma_pages:
            out.append(Violation(
                "frame-accounting",
                f"{pool.in_use} frames in use but {scoma_pages} S-COMA"
                " pages mapped",
                node=node.id,
                detail={"in_use": pool.in_use, "scoma_pages": scoma_pages}))
    return out


def check_rac_exclusivity(machine) -> list[Violation]:
    """RAC entries belong only to CC-NUMA-mode pages."""
    amap = machine.amap
    out = []
    for node in machine.nodes:
        for entry in node.rac.resident_entries():
            page = (entry >> amap.line_shift if node.rac_victim
                    else amap.page_of_chunk(entry))
            mode = node.page_table.mode_of(page)
            if mode != PageMode.CCNUMA:
                out.append(Violation(
                    "rac-exclusivity",
                    f"RAC holds data of page {page} which is in"
                    f" {PageMode(mode).name} mode",
                    node=node.id, page=page,
                    detail={"entry": entry, "mode": int(mode)}))
    return out


def check_page_table(machine) -> list[Violation]:
    """Mode/valid/clock agreement + home mapping vs the allocator."""
    allocator = machine.allocator
    homes = np.asarray(allocator.home)
    out = []
    for node in machine.nodes:
        pt = node.page_table
        modes = np.asarray(pt.mode)
        scoma_pages = set(np.flatnonzero(modes == PageMode.SCOMA).tolist())
        # Every S-COMA page carries valid bits (all clear when freshly
        # mapped); any other page must have none.
        valid = np.asarray(pt.scoma_valid).reshape(-1, pt.sv_words)
        valid_pages = scoma_pages | set(
            np.flatnonzero(valid.any(axis=1)).tolist())
        if valid_pages != scoma_pages:
            out.append(Violation(
                "page-table",
                f"S-COMA valid-bit pages {sorted(valid_pages)} disagree"
                f" with S-COMA-mode pages {sorted(scoma_pages)}",
                node=node.id))
        clock_pages = list(pt.scoma_clock)
        if (len(clock_pages) != len(set(clock_pages))
                or set(clock_pages) != scoma_pages):
            out.append(Violation(
                "page-table",
                f"second-chance clock {clock_pages} disagrees with"
                f" S-COMA-mode pages {sorted(scoma_pages)}",
                node=node.id))
        mapped = np.flatnonzero(modes)
        foreign = (modes[mapped] == PageMode.HOME) != (homes[mapped] == node.id)
        for page in mapped[foreign].tolist():
            mode, home = pt.mode[page], allocator.home[page]
            if mode == PageMode.HOME:
                out.append(Violation(
                    "page-table",
                    f"page mapped HOME but allocator home is {home}",
                    node=node.id, page=page))
            else:
                out.append(Violation(
                    "page-table",
                    f"page mapped {PageMode(mode).name} on its own home node",
                    node=node.id, page=page))
    return out


#: All structural sweeps, in reporting order.
STRUCTURAL_CHECKS = (
    check_directory_swmr,
    check_cache_reachability,
    check_frame_accounting,
    check_rac_exclusivity,
    check_page_table,
)
