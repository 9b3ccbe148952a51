"""The structural sweeps against an oracle: the per-node walks they
replaced.

``repro.check.invariants`` reads the whole machine with array
operations.  The functions below walk it node by node, structure by
structure, as the sweeps once did; on every machine here the array
sweeps must return the oracle's violations -- the same records, in the
same order.  Two kinds of machine are compared:

* the end states of the five architectures on fft and em3d at 0.9
  pressure, with a direct-mapped and with a 2-way associative L1 (which
  keeps no machine-wide row), cleanly and with the seeded protocol bug;
* machines with seeded corruptions on several nodes at once -- an L1
  line, a RAC entry, S-COMA valid bits, ``owned`` bytes, page modes, a
  clock entry, the pool ledger and a directory owner -- on the
  default machine and on the multi-word shapes (96 nodes, 128-chunk
  pages), a victim-fill RAC and an associative L1.
"""

import functools
import random

import numpy as np
import pytest

from repro.check import STRUCTURAL_CHECKS, Violation
from repro.core import make_policy
from repro.harness.experiment import ARCHITECTURES, get_workload, scaled_policy
from repro.kernel.vm import PageMode
from repro.sim.config import SystemConfig
from repro.sim.engine import Engine

SCALE = 0.1


# -- the oracle ---------------------------------------------------------
def _copysets(directory) -> np.ndarray:
    """The directory's sharer bitmaps as a (chunks, words) array."""
    return np.asarray(directory.copyset).reshape(-1, directory.words)


def _cached_by(directory, chunks: np.ndarray, node: int) -> np.ndarray:
    """Per-chunk copyset membership of *node* (a bool array)."""
    words = _copysets(directory)[chunks, node >> 6]
    return (words >> np.uint64(node & 63)) & np.uint64(1) != 0


def oracle_directory_swmr(machine) -> list[Violation]:
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


def oracle_cache_reachability(machine) -> list[Violation]:
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


def oracle_frame_accounting(machine) -> list[Violation]:
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


def oracle_rac_exclusivity(machine) -> list[Violation]:
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


def oracle_page_table(machine) -> list[Violation]:
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



ORACLE = (oracle_directory_swmr, oracle_cache_reachability,
          oracle_frame_accounting, oracle_rac_exclusivity, oracle_page_table)


def assert_sweeps_match(machine) -> list[dict]:
    """Every array sweep returns the oracle's records, in order; returns
    them all."""
    found = []
    for check, oracle in zip(STRUCTURAL_CHECKS, ORACLE):
        expected = [v.as_dict() for v in oracle(machine)]
        assert [v.as_dict() for v in check(machine)] == expected, \
            check.__name__
        found += expected
    return found


# -- machines -----------------------------------------------------------
@functools.lru_cache(maxsize=None)
def end_state(app, arch, l1_ways, skip_node=-1):
    """The machine after a full replay of *app* at 0.9 pressure."""
    wl = get_workload(app, SCALE)
    cfg = SystemConfig(n_nodes=wl.n_nodes, memory_pressure=0.9,
                       l1_ways=l1_ways, debug_skip_invalidate_node=skip_node)
    engine = Engine(wl, scaled_policy(arch), config=cfg)
    engine.run()
    return engine.machine


def corruptible(shape):
    """A freshly replayed machine of *shape*, to corrupt."""
    if shape == "96-node":
        from repro.workloads import synthetic
        wl = synthetic.generate(
            n_nodes=96, home_pages_per_node=3, remote_pages_per_node=5,
            sweeps=3, lines_per_visit=6, hot_fraction=0.7,
            write_fraction=0.3, home_lines_per_sweep=16, seed=11)
        cfg = SystemConfig(n_nodes=96, memory_pressure=0.6)
        policy = make_policy("ascoma", threshold=8, increment=4)
    else:
        wl = get_workload("fft", SCALE)
        extra = {"direct": {}, "2-way": {"l1_ways": 2},
                 "victim-rac": {"rac_fill_policy": "victim"},
                 "wide-pages": {"page_bytes": 16384}}[shape]
        cfg = SystemConfig(n_nodes=wl.n_nodes, memory_pressure=0.9,
                           **extra)
        policy = scaled_policy("ASCOMA")
    engine = Engine(wl, policy, config=cfg)
    engine.run()
    return engine.machine


def corrupt(machine, seed=1):
    """Seeded corruptions of every structure the sweeps read, each on
    several nodes at once."""
    rng = random.Random(seed)
    amap, directory = machine.amap, machine.directory
    homes = list(machine.allocator.home)
    cpp = amap.chunks_per_page
    victims = rng.sample(machine.nodes, 3)
    for node in victims:
        nid = node.id
        pt = node.page_table
        # A chunk the node does not share: its L1 line, RAC entry and
        # write permission are unreachable.
        chunk = rng.choice([c for c in range(len(directory.owner))
                            if not directory.is_cached_by(c, nid)])
        line = chunk << amap.chunk_shift
        node.l1.fill(line)
        node.rac.fill(line if node.rac_victim else chunk)
        node.owned[chunk] = 1
        # S-COMA valid bits: an unshared chunk of an S-COMA page, and
        # a bit on a page that is not in S-COMA mode.
        scoma = [p for p, m in enumerate(pt.mode) if m == PageMode.SCOMA]
        if scoma:
            page = rng.choice(scoma)
            cip = next((c for c in range(cpp) if not directory.is_cached_by(
                page * cpp + c, nid)), 0)
            pt.set_chunk_valid(page, cip)
        other = rng.choice([p for p, m in enumerate(pt.mode)
                            if m != PageMode.SCOMA])
        pt.set_chunk_valid(other, cpp - 1)
        # Page modes: HOME on a foreign page, CC-NUMA on an own one.
        foreign = [p for p, h in enumerate(homes) if h not in (-1, nid)]
        pt.mode[rng.choice(foreign)] = PageMode.HOME
        own = [p for p, h in enumerate(homes) if h == nid]
        if own:
            pt.mode[rng.choice(own)] = PageMode.CCNUMA
        # The clock: a duplicate entry (or a stray one), and the ledger.
        pt.scoma_clock.append(scoma[0] if scoma else other)
        node.pool.allocations += 1
    # A dirty owner outside a shared chunk's copyset.
    shared = [c for c in range(len(directory.owner))
              if directory.owner[c] == -1 and directory.copyset_of(c)]
    for chunk in rng.sample(shared, 3):
        directory.owner[chunk] = next(
            n for n in range(len(machine.nodes))
            if not directory.is_cached_by(chunk, n))


def branches(found: list[dict]) -> set:
    """The reporting branches a list of violation records exercised."""
    out = set()
    for v in found:
        kind = v["detail"].get("structure") or (
            "ledger" if "ledger" in v["message"]
            else "in_use" if "in_use" in v["detail"]
            else "valid" if "valid-bit" in v["message"]
            else "clock" if "clock" in v["message"]
            else "home" if "allocator home" in v["message"]
            else "own-home" if "own home" in v["message"] else "")
        out.add((v["invariant"], kind))
    return out


# -- tests ----------------------------------------------------------------
class TestEndStates:
    """Real machines: every architecture's end state, clean and with
    the seeded protocol bug."""

    @pytest.mark.parametrize("l1_ways", (1, 2), ids=("direct", "2-way"))
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    @pytest.mark.parametrize("app", ("fft", "em3d"))
    def test_clean_end_state(self, app, arch, l1_ways):
        assert assert_sweeps_match(end_state(app, arch, l1_ways)) == []

    @pytest.mark.parametrize("l1_ways", (1, 2), ids=("direct", "2-way"))
    @pytest.mark.parametrize("arch", ("CCNUMA", "SCOMA", "ASCOMA"))
    def test_seeded_bug_end_state(self, arch, l1_ways):
        found = assert_sweeps_match(
            end_state("fft", arch, l1_ways, skip_node=1))
        assert found and {v["node"] for v in found} == {1}


class TestCorruptions:
    """Seeded corruptions on several nodes at once."""

    SHAPES = ("direct", "2-way", "victim-rac", "96-node", "wide-pages")

    @pytest.mark.parametrize("shape", SHAPES)
    def test_corrupted_machine(self, shape):
        machine = corruptible(shape)
        assert assert_sweeps_match(machine) == []
        corrupt(machine)
        found = assert_sweeps_match(machine)
        assert len({v["node"] for v in found}) >= 3
        reported = branches(found)
        assert {("cache-reachability", s)
                for s in ("l1", "rac", "scoma", "owned")} <= reported
        assert {("directory-swmr", ""), ("frame-accounting", "ledger"),
                ("frame-accounting", "in_use"), ("page-table", "valid"),
                ("page-table", "clock"), ("page-table", "home"),
                ("rac-exclusivity", "")} <= reported

    def test_every_branch_is_reported(self):
        """Across the shapes, every reporting branch of every sweep
        fires, the page-table's CC-NUMA-on-own-home one included."""
        reported = set()
        for shape in ("direct", "96-node"):
            machine = corruptible(shape)
            corrupt(machine)
            reported |= branches(assert_sweeps_match(machine))
        assert ("page-table", "own-home") in reported

    def test_clock_entry_outside_the_table(self):
        """A clock entry past the last page disagrees with the page
        modes like any other stray entry."""
        machine = corruptible("direct")
        node = next(n for n in machine.nodes if n.page_table.scoma_clock)
        node.page_table.scoma_clock.append(machine.n_pages + 7)
        found = assert_sweeps_match(machine)
        assert [v["invariant"] for v in found] == ["frame-accounting",
                                                   "page-table"]

    def test_violations_are_plain_data(self):
        """Records carry plain ints, so bundles serialise them."""
        import json
        machine = corruptible("direct")
        corrupt(machine)
        for check in STRUCTURAL_CHECKS:
            for v in check(machine):
                assert isinstance(v, Violation)
                json.dumps(v.as_dict())
                assert all(type(x) is int for x in (v.node, v.page, v.clock))
