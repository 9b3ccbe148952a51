"""The replay kernel's C text declares no value that Python owns.

``repro.sim.soatrace`` writes one enum block into ``_C_SOURCE`` from
the modules that own each layout (counter slots and offsets, the
``NodeStats``, page-cache, policy and allocator slots, the event ring's
codes, the trace's event kinds, the page modes, the placement codes)
and from its own control-block tables.  These tests read every enum
member back out of the C text and compare it with its Python owner, so
a hand-numbered member, a ``#define`` or a page mode, placement or
eviction-hook code written as a bare number fails here.  Two more hold
the counter rows to what some output reads: each slot is written by
the kernel and read by a report a run stores.  They need no compiler.
"""

from __future__ import annotations

import re

from repro.coherence import directory, protocol
from repro.core import policy
from repro.interconnect import bus, network
from repro.kernel import allocation, freelist
from repro.kernel.allocation import PLACEMENT_CODES
from repro.kernel.vm import PageMode
from repro.mem import dram
from repro.runtime import RunSpec
from repro.sim import events, machine, node, soatrace, stats, trace

#: The modules whose row layouts and codes the kernel reads.
OWNERS = (stats, node, machine, dram, bus, network, directory, protocol,
          freelist, policy, allocation, events, trace)

#: The model counter rows handed to the kernel: owner and slot prefix.
COUNTERS = ((dram, "MEM_"), (bus, "BUS_"), (network, "NET_"),
            (directory, "DIR_"), (protocol, "PROTO_"))

#: The kernel's C text without its comments.
C_TEXT = re.sub(r"/\*.*?\*/", "", soatrace._C_SOURCE, flags=re.S)


def enum_members() -> list[str]:
    """Every enum member of the C text, as written."""
    return [member.strip()
            for body in re.findall(r"\benum\s*\{(.*?)\}", C_TEXT, flags=re.S)
            for member in body.split(",") if member.strip()]


def python_value(name: str) -> int:
    """The value Python gives *name*, looked up in the module that owns
    it; fails when no module, or more than one value, does."""
    if name in PageMode.__members__:
        return PageMode[name]
    placement = {cls.__name__: code for cls, code in PLACEMENT_CODES.items()}
    if name in placement:
        return placement[name]
    control = {table.prefix + key: code for table in soatrace._CONTROL
               for key, code in table.codes.items()}
    control["IN_PYTHON"] = soatrace._IN_PYTHON
    if name in control:
        return control[name]
    values = {getattr(owner, name) for owner in OWNERS
              if type(getattr(owner, name, None)) is int}
    assert len(values) == 1, f"C enum member {name} has no Python owner"
    return values.pop()


def test_every_enum_member_takes_its_value_from_python():
    members = enum_members()
    assert members
    for member in members:
        name, eq, value = member.partition("=")
        assert eq, f"C enum member {member!r} is numbered by the C text"
        assert int(value) == python_value(name.strip()), member


def test_enum_block_is_one_declaration_per_name():
    names = [member.partition("=")[0].strip() for member in enum_members()]
    assert len(names) == len(set(names))
    assert C_TEXT.count("enum") == 1


def test_no_value_is_spelled_in_the_c_text():
    assert "#define" not in C_TEXT
    mode = r"(?:modes\[[^\]]*\]|\bmode|\bfault)\s*(?:==|!=|=)\s*-?\d"
    code = r"P_(?:PLACEMENT|EVICT_HOOK)\]\s*(?:[=!<>]=?)\s*-?\d"
    for pattern in (mode, code):
        found = re.findall(pattern, C_TEXT)
        assert not found, f"bare literal in the kernel: {found}"


def test_every_param_slot_is_read_by_the_kernel():
    """``run_vector`` fills ``params`` by name; each name it must fill is
    one the C text reads."""
    read = set(re.findall(r"P\[P_(\w+)\]", C_TEXT))
    assert read == set(soatrace._PARAMS.codes)


def test_python_only_code_is_no_kernel_code():
    """``IN_PYTHON`` stands for a hint, eviction hook or placement
    the kernel leaves to Python, so no code it takes may equal it."""
    for codes in (soatrace._HINT.codes.values(),
                  soatrace._HOOK.codes.values(), PLACEMENT_CODES.values()):
        assert soatrace._IN_PYTHON not in codes


def test_every_counter_slot_is_written_by_the_kernel():
    """A counter slot the kernel is handed is one it writes (``++``,
    ``+=`` or ``=``): a slot no replay writes reads 0 on every run and
    counts nothing."""
    unwritten = [name for owner, prefix in COUNTERS
                 for name, value in vars(owner).items()
                 if name.startswith(prefix) and type(value) is int
                 and not re.search(rf"\b{name}\s*\]\s*(?:\+\+|\+=|=(?!=))",
                                   C_TEXT)]
    assert unwritten == []


def test_every_counter_slot_reaches_a_stored_report():
    """A counter slot is one a stored result reads: adding 1 to any slot
    of the machine's counter row or of a node's changes
    ``utilisation_report()`` or the protocol counts ``Engine.run``
    stores under ``extra["protocol"]``.  A slot nothing reads is state
    every run pays to write and no output can show."""
    engine = RunSpec.make("em3d", "ASCOMA", 0.9, 0.1).engine()
    extra = engine.run().extra
    mach = engine.machine

    def reported():
        proto = mach.protocol
        return (mach.utilisation_report(),
                {"remote_fetches": proto.remote_fetches,
                 "three_hop": proto.three_hop_fetches,
                 "write_stalls": proto.write_stalls})

    assert reported() == (extra["utilisation"], extra["protocol"])
    unread = []
    for r, row in enumerate([mach.counters, *mach.blocks.counters]):
        for slot in range(len(row)):
            row[slot] += 1
            if reported() == (extra["utilisation"], extra["protocol"]):
                unread.append((r, slot))
            row[slot] -= 1
    assert unread == []
