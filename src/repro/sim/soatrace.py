"""Structure-of-arrays replay substrate: the compiled replay kernel.

Every run inside the kernel's model replays here: a small compiled
kernel runs the reference loop's arithmetic over the machine's own
state buffers: directory copysets, owners and
refetch counters, page homes and the home allocator's counters,
page-table modes and S-COMA valid masks, TLB reference bits, L1 tags,
RAC slots, ownership bytes, free-frame pools, the second-chance
clocks, the policy rows (VC-NUMA's break-even tallies), the bank, bus
and port queues, and every counter -- each node's ``NodeStats`` row and
model counters, the machine's network, directory and protocol
counters -- are dense buffers the models own from construction (see
:class:`~repro.sim.node.NodeBlocks`), and the kernel reads and writes
them in place.  The kernel is a direct transliteration of
``Engine._run_reference`` and ``Engine._shared_ref``:
page faults with the home allocator's first touch
(``Engine._page_fault``, ``HomeAllocator.home_of``), forced evictions
(``Node.choose_victim``, ``Node.evict_scoma_page``) and relocation
hints (``Engine._handle_relocation_hint``, ``Node.relocate_to_scoma``)
included.  Two kinds of event still reach Python.  A page fault at
which ``acquire_frame`` would run the pageout daemon (or that needs a
Python-only hook) is decided *before mutating anything* and handed
whole to ``Engine._shared_ref``.  A relocation hint that needs Python
-- a daemon due at the hint, a break-even evaluation falling due, a
``MIGRATE`` decision -- exits *after* its access
completes, resumably, to ``Engine._handle_relocation_hint``.  Either
way Python sees identical state and produces identical arithmetic.

Bit-identical output to the reference loop is the contract: same
``RunResult.to_dict()``, same goldens, same store hashes (see
``tests/test_perf_parity.py``'s two-way differential matrix).

Implementation notes
--------------------
* The kernel is plain C compiled on first use with the system C
  compiler (``cc``/``gcc``) into a shared library keyed by source,
  flags and compiler (see :func:`_build_library`) under
  ``$REPRO_VECTOR_CACHE`` (default ``~/.cache/repro/vector``) and
  loaded through :mod:`cffi` in ABI mode -- no ``Python.h``, no
  build-time dependency.  ``$REPRO_VECTOR_CFLAGS`` adds compiler flags
  (CI builds a sanitized kernel this way).  When cffi or a compiler
  is missing, or a run is outside the kernel's model (an associative
  L1, or an ``event``-granularity invariant checker -- see
  :func:`_eligible`), :func:`run_vector` returns ``None`` and the
  engine degrades loss-free to ``_run_reference`` (a single
  ``RuntimeWarning`` flags environment problems such as a missing
  compiler or a corrupt kernel cache; see :func:`_load_kernel`).
  Copyset and S-COMA valid bitmaps are multi-word, so there is no
  node-count or chunks-per-page ceiling; and every watched transition
  the kernel performs (faults, S-COMA mappings, evictions, flushes,
  relocations, invalidations, demotions) goes through a bounded
  in-kernel event ring whose entries are published at the next exit
  with the reference loop's clocks, details and order.
* There is one copy of the machine state: :func:`run_vector` only
  points the kernel's ``SoaState`` at the models' buffers, so the
  Python exits, the pageout daemon, the invariant checker's sweeps and
  every post-run consumer (``utilisation_report``, the result) read
  the bytes the kernel wrote, counters included.  Each node's policy
  inputs -- ``initial_mode`` and ``on_relocation_hint`` evaluated for
  a free and a dry pool, the threshold and the daemon's next run --
  are refreshed after every exit that can change them; the C code
  never branches on the architecture.
* The C text declares no value that Python owns.  It opens with one
  enum block that :func:`_declarations` writes from the modules owning
  each layout: the counter rows' slots and offsets (the kernel's
  ``mem_access`` counts ``row[MEM_ACCESSES]++`` on the node's row from
  ``CTR_MEM`` on, as ``BankedMemory.access`` counts
  ``row[MEM_ACCESSES] += 1``), the ``NodeStats``, page-cache,
  policy and allocator slots, the event ring's codes, the trace's
  event kinds, the page modes and the placement codes.  The kernel's
  own control block -- ``params`` and ``ctl`` slots, exit codes, hint
  and eviction-hook codes -- is the name tables of this module
  (``_CONTROL``), which :func:`run_vector` uses by the same names.  So
  a layout changes in one place, and the kernel's ``.so`` with it.
* Which loop replays a run is a runtime matter: it must never enter
  ``RunSpec.spec_hash`` (see ``repro.runtime.spec``).
"""

from __future__ import annotations

import glob
import hashlib
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
import warnings

import numpy as np

from ..core.policy import ArchitecturePolicy, RelocationDecision
from ..core.vcnuma import VCNUMAPolicy
from ..kernel.allocation import PLACEMENT_CODES
from ..kernel.vm import PageMode
from .events import ROW_KINDS, ROW_WIDTH
from .trace import EV_WRITE

__all__ = ["run_vector", "vector_available"]


class _Names:
    """A table of the kernel's own names, numbered in order from 0: the
    C text declares ``<prefix><NAME>`` for each, and Python reads the
    same number as ``table.NAME``."""

    def __init__(self, prefix: str, names: str) -> None:
        self.prefix = prefix
        self.codes = {name: code for code, name in enumerate(names.split())}
        vars(self).update(self.codes)


# The kernel's own control block, named once for both sides.
#: ``params[]`` slots, set once per run; :func:`run_vector` fills them
#: by name.
_PARAMS = _Names("P_", """
    N QUANTUM NO_LIMIT LINE_SHIFT CHUNK_SHIFT CPP_MASK SET_MASK RAC_MASK
    RAC_VICTIM HIT_CYCLES RAC_CYCLES DSM2 GRANT_EX STALL_INV SKIP_NODE
    BANK_MASK MEM_SERVICE MEM_OCC MEM_MAXQ BUS_OCC BUS_MAXQ NET_OCC
    NET_MAXQ LPC N_PAGES N_SETS N_BANKS RAC_ENTRIES PC_SHIFT
    N_CHUNKS CS_WORDS SV_WORDS WATCH RING_CAP PAGE_FAULT PAGE_REMAP
    FLUSH_LINE RELOC_INT MANDATORY EVICT_CC EVICT_HOOK BREAK_EVEN MIN_EVAL
    CLK_CAP PLACEMENT QUOTA SEED""")
#: ``ctl[]`` slots: where a kernel exit left off, and what it needs.
_CTL = _Names("C_", "IN_SLICE BEST LIMIT NOW RING HINT HINT_CLOCK")
#: ``soa_run``'s exit codes.
_EXIT = _Names("RC_", "DONE RESIDUAL DAEMON BARRIER DEADLOCK RING HINT")
#: The relocation decisions the kernel takes (``RelocationDecision``
#: names); any other (``MIGRATE``) is taken in Python.
_HINT = _Names("H_", "SKIP RELOCATE RELOCATE_IF_FREE")
#: The eviction hooks the kernel runs: the base no-op and
#: ``BreakEvenDetector.record_eviction``.
_HOOK = _Names("HOOK_", "NONE BREAK_EVEN")
_CONTROL = (_PARAMS, _CTL, _EXIT, _HINT, _HOOK)
#: The hint, eviction-hook or placement code of a choice only Python
#: makes.
_IN_PYTHON = -1

_HINT_CODES = {getattr(RelocationDecision, name): code
               for name, code in _HINT.codes.items()}
_HOOK_CODES = {ArchitecturePolicy.on_page_evicted: _HOOK.NONE,
               VCNUMAPolicy.on_page_evicted: _HOOK.BREAK_EVEN}


def _declarations() -> str:
    """The enum block that opens the kernel's C text: every name it
    reads, with the value its owning module gives it."""
    from ..coherence import directory, protocol
    from ..core import policy
    from ..interconnect import bus, network
    from ..kernel import allocation, freelist
    from ..mem import dram
    from . import events, machine, node, stats, trace

    # Each owner lends the kernel its module-level ints of these prefixes.
    owners = ((stats, ("S_", "N_STATS")), (node, ("CTR_", "N_CTR")),
              (dram, ("MEM_",)), (bus, ("BUS_",)),
              (machine, ("M_",)), (network, ("NET_",)),
              (directory, ("DIR_",)), (protocol, ("PROTO_",)),
              (freelist, ("PC_", "N_PC")), (policy, ("POL_", "N_POL")),
              (allocation, ("AL_",)), (events, ("R_", "ROW_WIDTH")),
              (trace, ("EV_",)))
    groups = [(owner.__name__,
               [(name, value) for name, value in vars(owner).items()
                if name.startswith(prefixes) and type(value) is int])
              for owner, prefixes in owners]
    groups.append(("PageMode", [(mode.name, mode) for mode in PageMode]))
    groups.append(("PLACEMENT_CODES", [(cls.__name__, code) for cls, code
                                       in PLACEMENT_CODES.items()]))
    groups += [(f"{__name__}: {table.prefix}*",
                [(table.prefix + name, code)
                 for name, code in table.codes.items()])
               for table in _CONTROL]
    groups.append((__name__, [("IN_PYTHON", _IN_PYTHON)]))
    return "enum {\n" + "".join(
        f"    /* {where} */\n"
        + "".join(f"    {name} = {int(value)},\n" for name, value in members)
        for where, members in groups) + "};\n"


#: The C array type of each buffer dtype the ``SoaState`` fields point
#: at (``dtype.name`` is computed in Python, per call).
_C_ARRAY = {np.dtype(t): f"{np.dtype(t).name}_t[]"
            for t in (np.int64, np.uint64, np.uint8)}

_STRUCT = """
typedef struct {
    const int64_t *P;
    const uint8_t *kinds;
    const int64_t *args;
    const int64_t *tr_off;
    const int64_t *tr_len;
    int64_t *pos;
    int64_t *clock;
    int64_t *arrival;
    int64_t *barrier_id;
    uint8_t *finished;
    uint8_t *waiting;
    int64_t *ctl;
    int64_t *l1_tags;
    int64_t *rac;
    uint8_t *owned;
    uint8_t *ever;
    uint64_t *copyset;
    int64_t *owner;
    int64_t *refetch;
    int64_t *modes;
    uint64_t *scoma_valid;
    int64_t *pc_hits;
    uint8_t *ref_bits;
    int64_t *home;
    int64_t *alloc;
    const int64_t *net_base;
    int64_t *net_port;
    int64_t *mem_busy;
    int64_t *bus_busy;
    int64_t *pc;
    int64_t *clk;
    int64_t *pol;
    const int64_t *fault_mode;
    const int64_t *hint_mode;
    const int64_t *next_run;
    const int64_t *thr;
    int64_t *st;
    int64_t *ctr;
    int64_t *mach;
    uint64_t *inv_scratch;
    int64_t *ring;
} SoaState;
"""

_CDEF = _STRUCT + """
int64_t soa_run(SoaState *s);
"""

# The kernel proper: a line-for-line transliteration of the scalar
# machinery it replaces.  Source comments reference the Python it
# mirrors; every formula (queue clamps, leg timestamps, counter sites,
# mutation order) must match repro.sim.engine / repro.coherence /
# repro.interconnect / repro.mem exactly -- the two-way parity matrix
# is the enforcement.
_C_SOURCE = "#include <stdint.h>\n" + _STRUCT + _declarations() + r"""
/* Bounded event ring: every transition the kernel performs that the
 * reference loop publishes is recorded here when an EventBus subscriber
 * watches its kind (bit R_* of P_WATCH), and published by run_vector
 * at the next kernel exit -- identical events, identical clocks,
 * identical order to what the reference loop publishes.  An entry is
 * (kind, node, chunk or page, clock, detail a, detail b). */
static void ring_push(SoaState *s, int64_t kind, int64_t node, int64_t where,
                      int64_t clk, int64_t a, int64_t b) {
    if (!(s->P[P_WATCH] >> kind & 1)) return;
    int64_t *e = &s->ring[s->ctl[C_RING] * ROW_WIDTH];
    e[0] = kind; e[1] = node; e[2] = where; e[3] = clk; e[4] = a; e[5] = b;
    s->ctl[C_RING]++;
}

/* Network.one_way: same-node messages are free and uncounted. */
static int64_t one_way(SoaState *s, int64_t src, int64_t dst, int64_t now) {
    if (src == dst) return 0;
    int64_t base = s->net_base[src * s->P[P_N] + dst];
    int64_t arrival = now + base;
    int64_t busy = s->net_port[dst];
    int64_t queue = busy > arrival ? busy - arrival : 0;
    if (queue > s->P[P_NET_MAXQ]) queue = s->P[P_NET_MAXQ];
    s->net_port[dst] = arrival + queue + s->P[P_NET_OCC];
    int64_t *row = &s->mach[M_NET];
    row[NET_MESSAGES]++;
    if (queue) { row[NET_CONTENDED]++; row[NET_QUEUE] += queue; }
    return base + queue;
}

static int64_t round_trip(SoaState *s, int64_t src, int64_t dst, int64_t now) {
    int64_t out = one_way(s, src, dst, now);
    return out + one_way(s, dst, src, now + out);
}

/* BankedMemory.access */
static int64_t mem_access(SoaState *s, int64_t node, int64_t chunk,
                          int64_t now) {
    int64_t *busy = &s->mem_busy[node * s->P[P_N_BANKS]
                                 + (chunk & s->P[P_BANK_MASK])];
    int64_t queue = *busy > now ? *busy - now : 0;
    if (queue > s->P[P_MEM_MAXQ]) queue = s->P[P_MEM_MAXQ];
    *busy = now + queue + s->P[P_MEM_OCC];
    int64_t *row = &s->ctr[node * N_CTR + CTR_MEM];
    row[MEM_ACCESSES]++;
    if (queue) { row[MEM_CONTENDED]++; row[MEM_QUEUE] += queue; }
    return s->P[P_MEM_SERVICE] + queue;
}

/* SplitTransactionBus.transact */
static int64_t bus_transact(SoaState *s, int64_t node, int64_t now) {
    int64_t busy = s->bus_busy[node];
    int64_t queue = busy > now ? busy - now : 0;
    if (queue > s->P[P_BUS_MAXQ]) queue = s->P[P_BUS_MAXQ];
    s->bus_busy[node] = now + queue + s->P[P_BUS_OCC];
    int64_t *row = &s->ctr[node * N_CTR + CTR_BUS];
    row[BUS_TRANSACTIONS]++;
    if (queue) { row[BUS_CONTENDED]++; row[BUS_QUEUE] += queue; }
    return queue;
}

static void rac_drop(SoaState *s, int64_t node, int64_t key) {
    int64_t *slot = &s->rac[node * s->P[P_RAC_ENTRIES]
                            + (key & s->P[P_RAC_MASK])];
    if (*slot == key) *slot = -1;
}

static void rac_fill(SoaState *s, int64_t node, int64_t key) {
    s->rac[node * s->P[P_RAC_ENTRIES] + (key & s->P[P_RAC_MASK])] = key;
}

/* Machine._invalidate_chunk + Node.invalidate_chunk. */
static void invalidate_chunk_at(SoaState *s, int64_t node, int64_t chunk,
                                int64_t now) {
    if (node == s->P[P_SKIP_NODE]) return;
    int64_t lpc = s->P[P_LPC];
    int64_t first = chunk * lpc;
    int64_t *tags = &s->l1_tags[node * s->P[P_N_SETS]];
    for (int64_t line = first; line < first + lpc; line++) {
        int64_t slot = line & s->P[P_SET_MASK];
        if (tags[slot] == line) tags[slot] = -1;
    }
    if (s->P[P_RAC_VICTIM]) {
        for (int64_t line = first; line < first + lpc; line++)
            rac_drop(s, node, line);
    } else {
        rac_drop(s, node, chunk);
    }
    s->owned[node * s->P[P_N_CHUNKS] + chunk] = 0;
    int64_t pidx = node * s->P[P_N_PAGES] + (chunk >> s->P[P_PC_SHIFT]);
    if (s->modes[pidx] == SCOMA) {
        int64_t cip = chunk & s->P[P_CPP_MASK];
        s->scoma_valid[pidx * s->P[P_SV_WORDS] + (cip >> 6)]
            &= ~((uint64_t)1 << (cip & 63));
    }
    ring_push(s, R_INVALIDATE, node, chunk, now, 0, 0);
}

/* CoherenceProtocol._invalidate_all: invalidate each sharer in
 * ascending id order, all round trips issued at the same `now` (port
 * state still accumulates); one write stall per call.  The sharer set
 * is the multi-word mask fetch_raw left in inv_scratch. */
static int64_t invalidate_all(SoaState *s, int64_t chunk,
                              int64_t origin, int64_t now) {
    int64_t worst = 0;
    for (int64_t w = 0; w < s->P[P_CS_WORDS]; w++) {
        uint64_t m = s->inv_scratch[w];
        while (m) {
            int64_t sh = (w << 6) + __builtin_ctzll(m);
            m &= m - 1;
            invalidate_chunk_at(s, sh, chunk, now);
            int64_t rt = round_trip(s, origin, sh, now);
            if (rt > worst) worst = rt;
        }
    }
    s->mach[M_PROTO + PROTO_STALLS]++;
    return s->P[P_STALL_INV] ? worst : 0;
}

typedef struct {
    int64_t refetch, forwarded, has_inv, hint, prev_owner, exclusive;
} DirOut;

/* Directory.fetch_raw, relocation hint included: a refetch that takes
 * the requester's counter for the page to the threshold resets it and
 * flags the hint. */
static DirOut fetch_raw(SoaState *s, int64_t node, int64_t chunk,
                        int64_t page, int64_t is_write, int64_t threshold,
                        int64_t count_refetch) {
    DirOut o = {0, 0, 0, 0, -1, 0};
    int64_t W = s->P[P_CS_WORDS];
    uint64_t *cs = &s->copyset[chunk * W];
    int64_t bw = node >> 6;
    uint64_t bit = (uint64_t)1 << (node & 63);
    o.refetch = (cs[bw] & bit) != 0;
    int64_t owner = s->owner[chunk];
    if (owner != -1 && owner != node) {
        o.forwarded = 1;
        s->mach[M_DIR + DIR_FORWARDS]++;
        s->owner[chunk] = -1;
    }
    if (is_write) {
        int64_t inv = 0;
        for (int64_t w = 0; w < W; w++) {
            uint64_t others = cs[w];
            if (w == bw) others &= ~bit;
            s->inv_scratch[w] = others;
            inv += __builtin_popcountll(others);
            cs[w] = 0;
        }
        cs[bw] = bit;
        s->owner[chunk] = node;
        if (inv) {
            o.has_inv = 1;
            s->mach[M_DIR + DIR_INVALIDATIONS] += inv;
        }
    } else {
        uint64_t any = 0;
        for (int64_t w = 0; w < W; w++) any |= cs[w];
        cs[bw] |= bit;
        if (owner == node) {
            /* still the owner */
        } else if (s->P[P_GRANT_EX] && any == 0) {
            s->owner[chunk] = node;
            o.exclusive = 1;
        }
    }
    if (o.refetch && count_refetch) {
        s->mach[M_DIR + DIR_REFETCHES]++;
        if (threshold > 0) {
            int64_t *count = &s->refetch[page * s->P[P_N] + node];
            if (*count + 1 >= threshold) {
                o.hint = 1;
                s->mach[M_DIR + DIR_HINTS]++;
                *count = 0;
            } else {
                (*count)++;
            }
        }
    }
    o.prev_owner = (owner != node) ? owner : -1;
    return o;
}

/* CoherenceProtocol.remote_fetch_raw after the directory step. */
static int64_t remote_after_dir(SoaState *s, DirOut *o, int64_t node,
                                int64_t chunk, int64_t home,
                                int64_t is_write, int64_t now) {
    int64_t lat = one_way(s, node, home, now);
    lat += mem_access(s, home, chunk, now + lat);
    if (o->forwarded) {  /* dirty at prev_owner, not the requester */
        s->mach[M_PROTO + PROTO_THREE_HOP]++;
        lat += one_way(s, home, node, now + lat);
        if (!is_write) {
            s->owned[o->prev_owner * s->P[P_N_CHUNKS] + chunk] = 0;
            ring_push(s, R_DEMOTE, o->prev_owner, chunk, now + lat, 0, 0);
        }
    }
    lat += one_way(s, home, node, now + lat);
    if (o->has_inv)
        lat += invalidate_all(s, chunk, home, now + lat);
    s->mach[M_PROTO + PROTO_REMOTE]++;
    return lat;
}

/* CoherenceProtocol.local_fetch_raw after the directory step. */
static int64_t local_after_dir(SoaState *s, DirOut *o, int64_t node,
                               int64_t chunk, int64_t is_write,
                               int64_t now) {
    int64_t lat = mem_access(s, node, chunk, now);
    if (o->forwarded) {  /* dirty at prev_owner, not the requester */
        s->mach[M_PROTO + PROTO_THREE_HOP]++;
        lat += round_trip(s, node, o->prev_owner, now + lat);
        if (!is_write) {
            s->owned[o->prev_owner * s->P[P_N_CHUNKS] + chunk] = 0;
            ring_push(s, R_DEMOTE, o->prev_owner, chunk, now + lat, 0, 0);
        }
    }
    if (o->has_inv)
        lat += invalidate_all(s, chunk, node, now + lat);
    return lat;
}

/* CoherenceProtocol.upgrade */
static int64_t upgrade(SoaState *s, int64_t node, int64_t chunk,
                       int64_t page, int64_t home, int64_t now) {
    DirOut o = fetch_raw(s, node, chunk, page, 1, 0, 0);
    int64_t lat = (home == node) ? 0 : round_trip(s, node, home, now);
    if (o.has_inv)
        lat += invalidate_all(s, chunk, home, now + lat);
    return lat;
}

/* DirectMappedCache.fill */
static int64_t l1_fill(SoaState *s, int64_t node, int64_t line) {
    int64_t *tag = &s->l1_tags[node * s->P[P_N_SETS]
                               + (line & s->P[P_SET_MASK])];
    int64_t victim = *tag;
    if (victim == line) return -1;
    *tag = line;
    return victim;
}

/* Engine._l1_fill / plain l1.fill, chosen per rac_fill_policy. */
static void l1_fill_tail(SoaState *s, int64_t node, int64_t line) {
    int64_t victim = l1_fill(s, node, line);
    if (s->P[P_RAC_VICTIM] && victim != -1
        && s->modes[node * s->P[P_N_PAGES]
                    + (victim >> s->P[P_LINE_SHIFT])] == CCNUMA)
        rac_fill(s, node, victim);
}

/* Engine._classify_remote */
static void classify(SoaState *s, int64_t node, int64_t chunk,
                     int64_t refetch, int64_t lat) {
    int64_t *st = &s->st[node * N_STATS];
    uint8_t *ever = &s->ever[node * s->P[P_N_CHUNKS] + chunk];
    if (refetch) {
        st[S_CONF_CAPC]++;
        st[S_CONF_CAPC_LAT] += lat;
        *ever = 1;
    } else {
        st[S_COLD]++;
        st[S_COLD_LAT] += lat;
        if (*ever) st[S_INDUCED_COLD]++;
        else { st[S_ESSENTIAL_COLD]++; *ever = 1; }
    }
}

/* ---- Page management: faults, evictions and relocations ---- */

/* HomeAllocator.home_of in the variant P_PLACEMENT names (first
 * touch up to the quota with a round-robin spill, round robin, or a
 * splitmix64 hash of the page; see kernel/allocation.py).  Returns the
 * page's home; for an unassigned page that is the node its first touch
 * by nid picks, and `assign` makes the choice (the home, the node's
 * count and the cursor of the allocator row).  Pure when `assign` is
 * 0. */
static int64_t home_of(SoaState *s, int64_t page, int64_t nid, int assign) {
    int64_t home = s->home[page];
    if (home >= 0) return home;
    int64_t n = s->P[P_N], quota = s->P[P_QUOTA];
    int64_t *al = s->alloc, *count = al + AL_COUNT;
    int64_t rr = al[AL_RR];
    if (s->P[P_PLACEMENT] == HomeAllocator) {
        if (quota == 0 || count[nid] < quota) {
            home = nid;
        } else {
            for (int64_t k = 0; k < n && home < 0; k++) {
                if (count[rr] < quota) home = rr;   /* _next_under_quota */
                rr = (rr + 1) % n;
            }
            if (home < 0) {          /* all at quota: the least loaded */
                home = 0;
                for (int64_t i = 1; i < n; i++)
                    if (count[i] < count[home]) home = i;
            }
        }
    } else if (s->P[P_PLACEMENT] == RoundRobinAllocator) {
        home = rr;
        rr = (rr + 1) % n;
    } else {                                        /* RandomAllocator */
        uint64_t x = (uint64_t)page * 0x9E3779B97F4A7C15ULL
                     + (uint64_t)s->P[P_SEED];
        x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
        x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
        x ^= x >> 31;
        home = (int64_t)(x % (uint64_t)n);
    }
    if (assign) {
        s->home[page] = home;
        count[home]++;
        al[AL_RR] = rr;
    }
    return home;
}

/* PageTable.scoma_clock, a deque, as a per-node ring buffer of
 * P_CLK_CAP slots; pc[PC_HEAD] is clock[0], pc[PC_LEN] its length. */
static void clock_append(SoaState *s, int64_t nid, int64_t page) {
    int64_t cap = s->P[P_CLK_CAP];
    int64_t *pc = &s->pc[nid * N_PC];
    s->clk[nid * cap + (pc[PC_HEAD] + pc[PC_LEN]) % cap] = page;
    pc[PC_LEN]++;
}

/* deque.rotate(-1): clock[0] moves to the back. */
static void clock_rotate(SoaState *s, int64_t nid) {
    int64_t cap = s->P[P_CLK_CAP];
    int64_t *pc = &s->pc[nid * N_PC];
    int64_t *buf = &s->clk[nid * cap];
    int64_t front = buf[pc[PC_HEAD]];
    pc[PC_HEAD] = (pc[PC_HEAD] + 1) % cap;
    buf[(pc[PC_HEAD] + pc[PC_LEN] - 1) % cap] = front;
}

/* Node.choose_victim: one second-chance revolution over the clock;
 * the caller guarantees a non-empty clock. */
static int64_t choose_victim(SoaState *s, int64_t nid) {
    int64_t cap = s->P[P_CLK_CAP];
    int64_t *pc = &s->pc[nid * N_PC];
    int64_t *buf = &s->clk[nid * cap];
    uint8_t *ref = &s->ref_bits[nid * s->P[P_N_PAGES]];
    for (int64_t k = 0, len = pc[PC_LEN]; k < len; k++) {
        int64_t page = buf[pc[PC_HEAD]];
        if (!ref[page]) return page;
        ref[page] = 0;
        clock_rotate(s, nid);
    }
    return buf[pc[PC_HEAD]];
}

/* Node.flush_page: L1 lines, RAC entries, owned chunks and the node's
 * directory copyset bits (and ownership) for every chunk of the page.
 * Every page-management publish carries `clk`, the clock the reference
 * loop stamps at the miss.  Returns the L1 lines flushed. */
static int64_t flush_page(SoaState *s, int64_t nid, int64_t page,
                          int64_t clk) {
    /* DirectMappedCache.flush_page over the page's consecutive sets */
    int64_t lpp = (int64_t)1 << s->P[P_LINE_SHIFT];
    int64_t cpp = s->P[P_CPP_MASK] + 1;
    int64_t first = page * lpp;
    int64_t span = lpp < s->P[P_N_SETS] ? lpp : s->P[P_N_SETS];
    int64_t *tags = &s->l1_tags[nid * s->P[P_N_SETS]];
    int64_t flushed = 0;
    for (int64_t off = 0; off < span; off++) {
        int64_t slot = (first + off) & s->P[P_SET_MASK];
        int64_t tag = tags[slot];
        if (tag != -1 && (tag >> s->P[P_LINE_SHIFT]) == page) {
            tags[slot] = -1;
            flushed++;
        }
    }
    /* RemoteAccessCache.flush_page: entries are lines or chunks */
    int64_t rac_span = s->P[P_RAC_VICTIM] ? lpp : cpp;
    int64_t lo = page * rac_span, hi = lo + rac_span;
    int64_t *rac = &s->rac[nid * s->P[P_RAC_ENTRIES]];
    for (int64_t e = 0; e < s->P[P_RAC_ENTRIES]; e++)
        if (rac[e] >= lo && rac[e] < hi) rac[e] = -1;
    /* owned.discard + Directory.drop_node_from_page */
    int64_t c0 = page * cpp;
    uint8_t *owned = &s->owned[nid * s->P[P_N_CHUNKS]];
    int64_t W = s->P[P_CS_WORDS], bw = nid >> 6;
    uint64_t bit = (uint64_t)1 << (nid & 63);
    for (int64_t chunk = c0; chunk < c0 + cpp; chunk++) {
        owned[chunk] = 0;
        uint64_t *cs = &s->copyset[chunk * W + bw];
        if (*cs & bit) {
            *cs &= ~bit;
            if (s->owner[chunk] == nid) s->owner[chunk] = -1;
        }
    }
    s->st[nid * N_STATS + S_LINES_FLUSHED] += flushed;
    ring_push(s, R_FLUSH, nid, page, clk, flushed, 0);
    return flushed;
}

/* May the kernel force-evict one of nid's S-COMA pages?  It needs a
 * page to evict and an eviction hook it models (P_EVICT_HOOK: not
 * IN_PYTHON), and the detector must not fall due for an evaluation:
 * record_eviction runs one once its evictions reach two per cached
 * page, and never fewer than P_MIN_EVAL.  Pure. */
static int evict_ok(SoaState *s, int64_t nid) {
    int64_t cached = s->pc[nid * N_PC + PC_LEN];
    if (cached == 0 || s->P[P_EVICT_HOOK] == IN_PYTHON) return 0;
    if (s->P[P_EVICT_HOOK] == HOOK_NONE) return 1;
    int64_t cadence = 2 * cached;
    if (cadence < s->P[P_MIN_EVAL]) cadence = s->P[P_MIN_EVAL];
    return s->pol[nid * N_POL + POL_EVICTIONS] + 1 < cadence;
}

/* Node.evict_scoma_page(page, forced=True) for an eviction evict_ok()
 * admitted.  page is choose_victim()'s pick, clock[0], so the clock's
 * deque.remove drops the front; the page goes CC-NUMA for a hybrid
 * (P_EVICT_CC), unmapped otherwise.  Returns K_OVERHD cycles. */
static int64_t evict_scoma_page(SoaState *s, int64_t nid, int64_t page,
                                int64_t clk) {
    int64_t flushed = flush_page(s, nid, page, clk);
    int64_t pidx = nid * s->P[P_N_PAGES] + page;
    int64_t *pc = &s->pc[nid * N_PC];
    /* PageTable.unmap_scoma */
    for (int64_t w = 0; w < s->P[P_SV_WORDS]; w++)
        s->scoma_valid[pidx * s->P[P_SV_WORDS] + w] = 0;
    pc[PC_HEAD] = (pc[PC_HEAD] + 1) % s->P[P_CLK_CAP];
    pc[PC_LEN]--;
    s->modes[pidx] = s->P[P_EVICT_CC] ? CCNUMA : UNMAPPED;
    s->ref_bits[pidx] = 0;                          /* TLB shootdown */
    pc[PC_FREE]++;                                  /* pool.release */
    pc[PC_RELEASES]++;
    s->refetch[page * s->P[P_N] + nid] = 0;         /* reset_refetch */
    if (s->P[P_EVICT_HOOK] == HOOK_BREAK_EVEN) {    /* record_eviction */
        int64_t *pol = &s->pol[nid * N_POL];
        pol[POL_EVICTIONS]++;
        pol[s->pc_hits[pidx] < s->P[P_BREAK_EVEN] ? POL_LOSERS
                                                 : POL_WINNERS]++;
    }
    s->pc_hits[pidx] = -1;                          /* pagecache_hits.pop */
    int64_t *st = &s->st[nid * N_STATS];
    st[S_EVICTIONS]++;
    st[S_FORCED_EVICTIONS]++;
    ring_push(s, R_EVICT, nid, page, clk, flushed, 1);
    return s->P[P_PAGE_REMAP] + s->P[P_FLUSH_LINE] * flushed;
}

/* Node.map_scoma (frame already allocated): PageTable.map_scoma plus a
 * zeroed page-cache hit count. */
static void map_scoma(SoaState *s, int64_t nid, int64_t page, int64_t clk) {
    int64_t pidx = nid * s->P[P_N_PAGES] + page;
    s->modes[pidx] = SCOMA;
    for (int64_t w = 0; w < s->P[P_SV_WORDS]; w++)
        s->scoma_valid[pidx * s->P[P_SV_WORDS] + w] = 0;
    clock_append(s, nid, page);
    s->pc_hits[pidx] = 0;
    ring_push(s, R_MAP_SCOMA, nid, page, clk, 0, 0);
}

/* Node.relocate_to_scoma of a CC-NUMA page (frame already allocated).
 * Returns K_OVERHD cycles. */
static int64_t relocate_to_scoma(SoaState *s, int64_t nid, int64_t page,
                                 int64_t clk) {
    int64_t flushed = flush_page(s, nid, page, clk);
    s->ref_bits[nid * s->P[P_N_PAGES] + page] = 0;  /* TLB shootdown */
    map_scoma(s, nid, page, clk);
    s->refetch[page * s->P[P_N] + nid] = 0;         /* reset_refetch */
    s->st[nid * N_STATS + S_RELOCATIONS]++;
    ring_push(s, R_RELOCATE, nid, page, clk, flushed, 0);
    return s->P[P_RELOC_INT] + s->P[P_PAGE_REMAP]
           + s->P[P_FLUSH_LINE] * flushed;
}

/* Engine._handle_relocation_hint for a hint at `now`: the policy's
 * decision for the pool's state (H_*, see hint_mode), then
 * acquire_frame and relocate_to_scoma -- after a forced eviction when
 * the pool is dry and the decision is RELOCATE.  A dry pool with an
 * empty clock has no frame to take or evict: the hint is skipped.
 * Returns the K_OVERHD cycles, or -1, before any mutation, when the
 * hint needs Python: a MIGRATE decision, a daemon acquire_frame would
 * run, or a forced eviction evict_ok() refuses. */
static int64_t relocation_hint(SoaState *s, int64_t nid, int64_t page,
                               int64_t now, int64_t clk) {
    int64_t *pc = &s->pc[nid * N_PC];
    int64_t *st = &s->st[nid * N_STATS];
    int64_t free = pc[PC_FREE];
    int64_t decision = s->hint_mode[nid * 2 + (free > 0 ? 0 : 1)];
    if (decision == IN_PYTHON) return -1;
    if (decision != H_SKIP) {
        if (free < pc[PC_FREE_MIN] && now >= s->next_run[nid])
            return -1;                              /* daemon due */
        if (free == 0 && decision == H_RELOCATE && pc[PC_LEN]
            && !evict_ok(s, nid))
            return -1;
    }
    if (decision == H_SKIP || (free == 0 && (decision == H_RELOCATE_IF_FREE
                                             || pc[PC_LEN] == 0))) {
        st[S_SKIPPED_RELOCATIONS]++;
        return 0;
    }
    int64_t overhead = free == 0                    /* forced eviction */
        ? evict_scoma_page(s, nid, choose_victim(s, nid), clk) : 0;
    pc[PC_FREE]--;                                  /* pool.try_allocate */
    pc[PC_ALLOCS]++;
    overhead += relocate_to_scoma(s, nid, page, clk);
    st[S_K_OVERHD] += overhead;
    return overhead;
}

/* The mode a page fault of (nid, page) at `now` asks for -- HOME, or
 * the policy's initial_mode for the pool's state -- or -1 when the
 * fault must be serviced by Engine._page_fault in Python: a home the
 * kernel cannot place (P_PLACEMENT is IN_PYTHON), a pageout daemon that
 * acquire_frame would run, or a mandatory page cache's forced eviction
 * evict_ok() refuses.  Pure: reads state only. */
static int64_t fault_mode(SoaState *s, int64_t nid, int64_t page,
                          int64_t now) {
    if (s->home[page] < 0 && s->P[P_PLACEMENT] == IN_PYTHON) return -1;
    int64_t home = home_of(s, page, nid, 0);
    if (home == nid) return HOME;
    const int64_t *pc = &s->pc[nid * N_PC];
    int64_t free = pc[PC_FREE];
    int64_t mode = s->fault_mode[nid * 2 + (free > 0 ? 0 : 1)];
    if (mode == SCOMA) {
        if (free < pc[PC_FREE_MIN]
            && now + s->P[P_PAGE_FAULT] >= s->next_run[nid])
            return -1;                              /* daemon due */
        if (free == 0 && s->P[P_MANDATORY] && !evict_ok(s, nid))
            return -1;
    }
    return mode;
}

/* Engine._page_fault for a mode fault_mode() admitted at `clk`:
 * assigns the home on the machine-wide first touch and maps the page.
 * Returns the kernel cycles (K_BASE, plus K_OVERHD of a forced
 * eviction). */
static int64_t page_fault(SoaState *s, int64_t nid, int64_t page,
                          int64_t mode, int64_t clk) {
    int64_t *st = &s->st[nid * N_STATS];
    int64_t kernel = s->P[P_PAGE_FAULT];
    st[S_K_BASE] += kernel;
    st[S_PAGE_FAULTS]++;
    int64_t home = home_of(s, page, nid, 1);
    if (mode == SCOMA) {
        int64_t *pc = &s->pc[nid * N_PC];
        if (pc[PC_FREE] == 0) {                     /* acquire_frame */
            if (s->P[P_MANDATORY]) {
                /* Mandatory page cache: force-evict a victim now. */
                int64_t overhead = evict_scoma_page(
                    s, nid, choose_victim(s, nid), clk);
                st[S_K_OVERHD] += overhead;
                kernel += overhead;
            } else {
                mode = CCNUMA;                      /* hybrid */
            }
        }
        if (mode == SCOMA) {
            pc[PC_FREE]--;
            pc[PC_ALLOCS]++;
            map_scoma(s, nid, page, clk);
        }
    }
    if (mode != SCOMA) s->modes[nid * s->P[P_N_PAGES] + page] = mode;
    ring_push(s, R_FAULT, nid, page, clk, mode, home);
    return kernel;
}

/* Engine._shared_ref.  Returns elapsed cycles, or -1 when a page fault
 * needs the scalar path (see fault_mode); -1 is returned strictly
 * before any mutation, so Python can redo the whole event against
 * identical state.  A relocation hint the kernel cannot take is left
 * in ctl[C_HINT] (its miss clock in ctl[C_HINT_CLOCK]) after the
 * access completes; the returned cycles then exclude the hint's. */
static int64_t shared_ref(SoaState *s, int64_t nid, int64_t line,
                          int64_t is_write, int64_t now) {
    int64_t *st = &s->st[nid * N_STATS];
    int64_t slot = line & s->P[P_SET_MASK];
    int64_t *tags = &s->l1_tags[nid * s->P[P_N_SETS]];
    int64_t chunk = line >> s->P[P_CHUNK_SHIFT];
    if (tags[slot] == line) {                       /* L1 hit */
        st[S_L1_HITS]++;
        uint8_t *ownedp = &s->owned[nid * s->P[P_N_CHUNKS] + chunk];
        if (is_write && !*ownedp) {
            int64_t page = line >> s->P[P_LINE_SHIFT];
            int64_t lat = upgrade(s, nid, chunk, page, s->home[page], now);
            *ownedp = 1;
            st[S_UPGRADES]++;
            st[S_U_SH_MEM] += lat;
            return s->P[P_HIT_CYCLES] + lat;
        }
        return s->P[P_HIT_CYCLES];
    }
    /* L1 miss: a fault's pure pre-check before any mutation. */
    int64_t page = line >> s->P[P_LINE_SHIFT];
    int64_t pidx = nid * s->P[P_N_PAGES] + page;
    int64_t fault = UNMAPPED;
    if (s->modes[pidx] == UNMAPPED) {
        fault = fault_mode(s, nid, page, now);
        if (fault < 0) return -1;
    }
    int64_t start = now;
    st[S_L1_MISSES]++;
    s->ref_bits[pidx] = 1;
    int64_t kernel = fault != UNMAPPED
        ? page_fault(s, nid, page, fault, start) : 0;
    int64_t mode = s->modes[pidx];
    now += kernel;
    int64_t lat = bus_transact(s, nid, now);
    uint8_t *ownedp = &s->owned[nid * s->P[P_N_CHUNKS] + chunk];
    int64_t home = s->home[page];
    int64_t hint = 0;
    if (mode == HOME) {
        DirOut o = fetch_raw(s, nid, chunk, page, is_write, 0, 0);
        lat += local_after_dir(s, &o, nid, chunk, is_write, now + lat);
        st[S_HOME]++;
        st[S_HOME_LAT] += lat;
        if (is_write || o.exclusive) *ownedp = 1;
    } else if (mode == SCOMA) {
        int64_t cip = chunk & s->P[P_CPP_MASK];
        uint64_t *sv = &s->scoma_valid[pidx * s->P[P_SV_WORDS]];
        if ((sv[cip >> 6] >> (cip & 63)) & 1) {
            lat += mem_access(s, nid, chunk, now + lat);
            st[S_SCOMA]++;
            s->pc_hits[pidx]++;
            st[S_SCOMA_LAT] += lat;
            if (is_write && !*ownedp) {
                lat += upgrade(s, nid, chunk, page, home, now + lat);
                *ownedp = 1;
                st[S_UPGRADES]++;
            }
        } else {
            DirOut o = fetch_raw(s, nid, chunk, page, is_write, 0, 0);
            int64_t fl = remote_after_dir(s, &o, nid, chunk, home,
                                          is_write, now + lat);
            lat += s->P[P_DSM2] + fl;
            sv[cip >> 6] |= (uint64_t)1 << (cip & 63);
            classify(s, nid, chunk, o.refetch, lat);
            if (is_write || o.exclusive) *ownedp = 1;
        }
    } else {                                        /* CCNUMA */
        int64_t key = s->P[P_RAC_VICTIM] ? line : chunk;
        if (s->rac[nid * s->P[P_RAC_ENTRIES]
                   + (key & s->P[P_RAC_MASK])] == key) {
            lat += s->P[P_RAC_CYCLES];
            st[S_RAC]++;
            st[S_RAC_LAT] += lat;
            if (is_write && !*ownedp) {
                lat += upgrade(s, nid, chunk, page, home, now + lat);
                *ownedp = 1;
                st[S_UPGRADES]++;
            }
        } else {
            DirOut o = fetch_raw(s, nid, chunk, page, is_write,
                                 s->thr[nid], 1);
            int64_t fl = remote_after_dir(s, &o, nid, chunk, home,
                                          is_write, now + lat);
            lat += s->P[P_DSM2] + fl;
            if (!s->P[P_RAC_VICTIM]) rac_fill(s, nid, chunk);
            classify(s, nid, chunk, o.refetch, lat);
            if (is_write || o.exclusive) *ownedp = 1;
            hint = o.hint;
        }
    }
    /* The L1 fill precedes a relocation: the access completed first,
     * and the remap's page flush must purge this line too. */
    l1_fill_tail(s, nid, line);
    st[S_U_SH_MEM] += lat;
    if (hint) {
        int64_t overhead = relocation_hint(s, nid, page, now + lat, start);
        if (overhead < 0) {
            s->ctl[C_HINT] = page;
            s->ctl[C_HINT_CLOCK] = start;
        } else {
            kernel += overhead;
        }
    }
    return kernel + lat;
}

/* The reference loop's scheduler + slice runner.  Exits to Python only for
 * a residual reference (RC_RESIDUAL, before it mutates anything; see
 * fault_mode), a relocation hint that needs Python (RC_HINT, after its
 * access), a due pageout daemon (RC_DAEMON), a full barrier
 * (RC_BARRIER), a full event ring (RC_RING), deadlock, or completion;
 * ctl[] carries the resume point across RC_RESIDUAL / RC_HINT /
 * RC_DAEMON / RC_RING. */
int64_t soa_run(SoaState *s) {
    const int64_t n = s->P[P_N];
    /* Worst-case ring entries one shared reference can record: a fault
     * with a forced eviction (4), one demotion or n-1 invalidations, and
     * a relocation over a forced eviction (5); exit to flush below
     * that. */
    const int64_t ring_room = s->P[P_WATCH] ? n + 9 : 0;
    int64_t best, limit, now;
    if (s->ctl[C_IN_SLICE]) {
        best = s->ctl[C_BEST];
        limit = s->ctl[C_LIMIT];
        now = s->ctl[C_NOW];
        s->ctl[C_IN_SLICE] = 0;
        goto inner;
    }
    for (;;) {
        /* Pick the runnable node with the smallest clock. */
        best = -1;
        {
            int64_t best_clock = 0, runner_up = 0;
            int has_best = 0, has_runner = 0;
            for (int64_t i = 0; i < n; i++) {
                if (s->finished[i] || s->waiting[i]) continue;
                int64_t c = s->clock[i];
                if (!has_best || c < best_clock) {
                    runner_up = best_clock;
                    has_runner = has_best;
                    best_clock = c;
                    best = i;
                    has_best = 1;
                } else if (!has_runner || c < runner_up) {
                    runner_up = c;
                    has_runner = 1;
                }
            }
            if (best == -1) {
                for (int64_t i = 0; i < n; i++)
                    if (!s->finished[i]) return RC_DEADLOCK;
                return RC_DONE;
            }
            limit = has_runner ? runner_up + s->P[P_QUANTUM]
                               : s->P[P_NO_LIMIT];
            now = s->clock[best];
        }
        /* run_daemon_if_due: checked once per fresh slice. */
        if (s->pc[best * N_PC + PC_FREE] < s->pc[best * N_PC + PC_FREE_MIN]
            && now >= s->next_run[best]) {
            s->ctl[C_IN_SLICE] = 1;
            s->ctl[C_BEST] = best;
            s->ctl[C_LIMIT] = limit;
            s->ctl[C_NOW] = now;
            return RC_DAEMON;
        }
    inner:
        {
            int64_t off = s->tr_off[best];
            int64_t p = s->pos[best];
            int64_t e = s->tr_len[best];
            const uint8_t *kinds = s->kinds + off;
            const int64_t *args = s->args + off;
            while (p < e && now < limit) {
                uint8_t ev = kinds[p];
                int64_t arg = args[p];
                if (ev <= EV_WRITE) {
                    if (ring_room
                        && s->P[P_RING_CAP] - s->ctl[C_RING] < ring_room) {
                        s->pos[best] = p;
                        s->ctl[C_IN_SLICE] = 1;
                        s->ctl[C_BEST] = best;
                        s->ctl[C_LIMIT] = limit;
                        s->ctl[C_NOW] = now;
                        return RC_RING;
                    }
                    int64_t r = shared_ref(s, best, arg,
                                           ev == EV_WRITE, now);
                    if (r < 0 || s->ctl[C_HINT] >= 0) {
                        if (r >= 0) {               /* completed access */
                            now += r;
                            p++;
                        }
                        s->pos[best] = p;
                        s->ctl[C_IN_SLICE] = 1;
                        s->ctl[C_BEST] = best;
                        s->ctl[C_LIMIT] = limit;
                        s->ctl[C_NOW] = now;
                        return r < 0 ? RC_RESIDUAL : RC_HINT;
                    }
                    now += r;
                    p++;
                } else if (ev == EV_COMPUTE) {
                    s->st[best * N_STATS + S_U_INSTR] += arg;
                    now += arg;
                    p++;
                } else if (ev == EV_LOCAL) {
                    s->st[best * N_STATS + S_U_LC_MEM] += arg;
                    now += arg;
                    p++;
                } else {                             /* EV_BARRIER */
                    p++;
                    s->waiting[best] = 1;
                    s->barrier_id[best] = arg;
                    s->arrival[best] = now;
                    break;
                }
            }
            s->pos[best] = p;
            s->clock[best] = now;
            if (p >= e && !s->waiting[best]) s->finished[best] = 1;
            if (s->waiting[best]) {
                int64_t all = 1;
                for (int64_t i = 0; i < n; i++)
                    if (!s->finished[i] && !s->waiting[i]) { all = 0; break; }
                if (all) return RC_BARRIER;
            }
        }
    }
}
"""


# ---------------------------------------------------------------------------
# Kernel build & load
# ---------------------------------------------------------------------------

_KERNEL = None  # None = not tried yet; False = unavailable; (ffi, lib) = ok


def _cache_dir() -> str:
    return (os.environ.get("REPRO_VECTOR_CACHE")
            or os.path.join(os.path.expanduser("~"), ".cache", "repro",
                            "vector"))


#: Flags of every kernel build.  ``$REPRO_VECTOR_CFLAGS`` appends to
#: them (a sanitizer build, for instance); both are part of the
#: library's cache key.
_CFLAGS = ("-O2", "-shared", "-fPIC")


def _cflags() -> list[str]:
    return [*_CFLAGS, *shlex.split(os.environ.get("REPRO_VECTOR_CFLAGS", ""))]


def _compiler_id(cc: str) -> str:
    """The compiler binary's resolved path, size and mtime.  A different
    or upgraded compiler gets its own library, and telling compilers
    apart costs no compiler run when a process loads the kernel."""
    real = os.path.realpath(cc)
    st = os.stat(real)
    return f"{real}:{st.st_size}:{st.st_mtime_ns}"


class _UnusableCache(Exception):
    """``$REPRO_VECTOR_CACHE`` cannot be created or written."""


def _build_library() -> str | None:
    """Compile the kernel into a shared library keyed by what built it.

    The library is ``soakernel-<source+flags>-<compiler>.so`` under
    :func:`_cache_dir`: the first part hashes the C source and the
    compiler flags, the second the compiler's identity.  With no
    compiler on ``PATH``, any library built from the same source with
    the same flags loads, so a prebuilt cache keeps working.

    Returns the ``.so`` path, or ``None`` when no library exists and
    none can be built; raises :class:`_UnusableCache` when the cache
    directory cannot be created or written, so the warning names it.
    The build is atomic (compile to a temp name, ``os.replace`` into
    place) so concurrent processes -- the executor's worker pool warms
    up in parallel -- race benignly.
    """
    flags = _cflags()
    key = hashlib.sha256("\0".join([_C_SOURCE, *flags]).encode()
                         ).hexdigest()[:16]
    cache = _cache_dir()
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        built = sorted(glob.glob(os.path.join(glob.escape(cache),
                                              f"soakernel-{key}-*.so")))
        return built[0] if built else None
    try:
        cc_key = hashlib.sha256(_compiler_id(cc).encode()).hexdigest()[:8]
        so_path = os.path.join(cache, f"soakernel-{key}-{cc_key}.so")
        if os.path.exists(so_path):
            return so_path
        try:
            os.makedirs(cache, exist_ok=True)
            fd, c_path = tempfile.mkstemp(suffix=".c", dir=cache)
        except OSError as exc:
            raise _UnusableCache(
                f"kernel cache directory {cache} is unusable: {exc}") from exc
        with os.fdopen(fd, "w") as f:
            f.write(_C_SOURCE)
        tmp_so = c_path[:-2] + ".so"
        try:
            proc = subprocess.run(
                [cc, *flags, "-o", tmp_so, c_path],
                capture_output=True, timeout=120)
            if proc.returncode != 0:
                return None
            os.replace(tmp_so, so_path)
        finally:
            for leftover in (c_path, tmp_so):
                try:
                    os.unlink(leftover)
                except OSError:
                    pass
        return so_path
    except (OSError, subprocess.SubprocessError):
        return None


def _fail(reason: str):
    """Memoize unavailability and warn exactly once per process.

    cffi being absent stays *silent* (it is a genuinely optional
    dependency); everything past that point -- no compiler, a failed
    build, an unwritable ``$REPRO_VECTOR_CACHE``, a corrupted cached
    ``.so`` that will not rebuild -- warns, because the user has the
    pieces for the vector kernel and is losing it to an environment
    problem.  Results are unaffected either way: the engine degrades
    loss-free to the reference loop.
    """
    global _KERNEL
    _KERNEL = False
    warnings.warn(
        f"vector kernel unavailable ({reason}); falling back to the"
        " reference loop (results are identical, replay is slower)",
        RuntimeWarning, stacklevel=4)
    return None


def _load_kernel():
    """Lazily compile + dlopen the kernel; memoized process-wide."""
    global _KERNEL
    if _KERNEL is not None:
        return _KERNEL or None
    try:
        import cffi
    except ImportError:
        _KERNEL = False
        return None
    try:
        so_path = _build_library()
    except _UnusableCache as exc:
        return _fail(str(exc))
    except Exception as exc:  # unexpected build-machinery failure
        return _fail(f"kernel build error: {exc}")
    if so_path is None:
        return _fail("no C compiler found or compilation failed")
    ffi = cffi.FFI()
    ffi.cdef(_CDEF)
    try:
        lib = ffi.dlopen(so_path)
    except OSError:
        # A corrupted or stale cached .so (truncated write, wrong arch,
        # bit rot): discard it and rebuild once from source.
        try:
            os.unlink(so_path)
        except OSError:
            pass
        try:
            so_path = _build_library()
            if so_path is None:
                return _fail("cached kernel was corrupt and the rebuild"
                             " failed")
            lib = ffi.dlopen(so_path)
        except Exception as exc:
            return _fail(f"cached kernel was corrupt: {exc}")
    _KERNEL = (ffi, lib)
    return _KERNEL


def vector_available() -> bool:
    """True when the compiled kernel can be built and loaded here."""
    return _load_kernel() is not None


# ---------------------------------------------------------------------------
# Eligibility + orchestration
# ---------------------------------------------------------------------------


def _eligible(engine) -> bool:
    """Cheap pre-flight: is this run inside the kernel's model?

    A run falls back to ``_run_reference`` when an invariant checker
    sweeps at ``event`` granularity -- its sweeps read the machine
    mid-access, at each page-management publish, which the kernel never
    exposes -- or when it has a shape the dense arrays cannot carry
    (associative L1, out-of-range reference args).  Every kind reaches
    its subscribers on the kernel: faults, S-COMA mappings, evictions,
    flushes, relocations, invalidations and demotions through the event
    ring, migrations, daemon runs, barriers and the run's end from the
    Python exits that perform them.
    """
    if not engine._l1_direct:
        return False
    if getattr(engine.checker, "granularity", None) == "event":
        return False
    ref_hi = engine.workload.soa()[5]
    lines_total = engine.workload.total_shared_pages << engine._line_shift
    return ref_hi < lines_total


def run_vector(engine) -> list[int] | None:
    """Run the engine's replay through the compiled SoA kernel.

    Returns the per-node finish clocks (plain ints), or ``None`` when
    the kernel is unavailable or the run is ineligible -- in which
    case nothing has been mutated and the caller falls back to
    ``_run_reference``.

    The kernel works on the machine's own state buffers, counters
    included (see :class:`~repro.sim.node.NodeBlocks`): this function
    only points the ``SoaState`` struct at them, so every Python exit
    reads and writes exactly the bytes the kernel does.  Its own
    per-run arrays -- scheduler state, exit control, policy inputs --
    are read and written through memoryviews.
    """
    kernel = _load_kernel()
    if kernel is None or not _eligible(engine):
        return None
    ffi, lib = kernel

    machine = engine.machine
    config = engine.config
    nodes = machine.nodes
    directory = machine.directory
    network = machine.network
    allocator = machine.allocator
    blocks = machine.blocks
    n = config.n_nodes
    n_pages = machine.n_pages
    cpp = machine.amap.chunks_per_page
    mem0 = nodes[0].memory
    bus0 = machine.buses[0]

    # --- trace SoA ---------------------------------------------------
    kinds_all, args_all, tr_off, tr_len = (
        memoryview(np.ascontiguousarray(a)) for a in engine.workload.soa()[:4])

    # --- scheduler state ---------------------------------------------
    pos = memoryview(np.zeros(n, np.int64))
    clock = memoryview(np.zeros(n, np.int64))
    arrival = memoryview(np.zeros(n, np.int64))
    barrier_id = memoryview(np.full(n, -1, np.int64))
    finished = memoryview(np.array([length == 0 for length in tr_len],
                                   np.uint8))
    waiting = memoryview(np.zeros(n, np.uint8))
    ctl = memoryview(np.zeros(len(_CTL.codes), np.int64))
    ctl[_CTL.HINT] = -1

    # --- event ring + invalidation scratch ---------------------------
    # The ring records the kernel's transitions of each watched kind:
    # bit `code` of P_WATCH stands for events.ROW_KINDS[code].
    events = machine.events
    ring_cap = max(1024, 2 * n + 20)
    ring = np.zeros((ring_cap, ROW_WIDTH), dtype=np.int64)
    inv_scratch = np.zeros(directory.words, dtype=np.uint64)

    # --- per-node policy inputs, refreshed at Python exits -----------
    fault_mode = memoryview(np.zeros(2 * n, np.int64))
    hint_mode = memoryview(np.zeros(2 * n, np.int64))
    next_run = memoryview(np.zeros(n, np.int64))
    thr = memoryview(np.zeros(n, np.int64))

    # --- params, by name; the policy variants are picked once per run
    policy = engine.policy
    detector = getattr(nodes[0].policy_state, "detector", None)
    costs = nodes[0].costs
    pc_shift = engine._line_shift - engine._chunk_shift
    values = dict(
        N=n, QUANTUM=engine.quantum, NO_LIMIT=sys.maxsize,
        LINE_SHIFT=engine._line_shift, CHUNK_SHIFT=engine._chunk_shift,
        CPP_MASK=engine._cpp_mask, SET_MASK=nodes[0].l1.set_mask,
        RAC_MASK=nodes[0].rac.entry_mask, RAC_VICTIM=engine._rac_victim,
        HIT_CYCLES=engine._hit_cycles, RAC_CYCLES=engine._rac_cycles,
        DSM2=engine._dsm2, GRANT_EX=directory.grant_exclusive,
        STALL_INV=machine.protocol.stall_on_invalidate,
        SKIP_NODE=config.debug_skip_invalidate_node,
        BANK_MASK=mem0.bank_mask, MEM_SERVICE=mem0.service_cycles,
        MEM_OCC=mem0.occupancy_cycles, MEM_MAXQ=mem0.max_queue,
        BUS_OCC=bus0.occupancy, BUS_MAXQ=bus0.max_queue,
        NET_OCC=network.port_occupancy,
        NET_MAXQ=network.max_queue, LPC=1 << engine._chunk_shift,
        N_PAGES=n_pages, N_SETS=blocks.l1_tags.shape[1],
        N_BANKS=blocks.mem_busy.shape[1], RAC_ENTRIES=blocks.rac.shape[1],
        PC_SHIFT=pc_shift, N_CHUNKS=n_pages * cpp,
        CS_WORDS=directory.words, SV_WORDS=nodes[0].page_table.sv_words,
        WATCH=sum(1 << code for code, kind in enumerate(ROW_KINDS)
                  if events.watching(kind)),
        RING_CAP=ring_cap, PAGE_FAULT=costs.page_fault,
        PAGE_REMAP=costs.page_remap, FLUSH_LINE=costs.flush_per_line,
        RELOC_INT=costs.relocation_interrupt,
        MANDATORY=engine._mandatory_scoma, EVICT_CC=policy.evict_to_ccnuma,
        EVICT_HOOK=_HOOK_CODES.get(
            getattr(policy.on_page_evicted, "__func__", None), _IN_PYTHON),
        BREAK_EVEN=getattr(detector, "break_even", 0),
        MIN_EVAL=getattr(detector, "min_evictions_per_eval", 0),
        CLK_CAP=blocks.clk.shape[1],
        PLACEMENT=PLACEMENT_CODES.get(type(allocator), _IN_PYTHON),
        QUOTA=allocator.quota, SEED=getattr(allocator, "seed", 0))
    params = np.array([values[name] for name in _PARAMS.codes], np.int64)

    # --- wire the C struct: each field points at its buffer (a field
    # with none is a KeyError, never a NULL pointer) ------------------
    buffers = dict(
        P=params, kinds=kinds_all, args=args_all, tr_off=tr_off,
        tr_len=tr_len, pos=pos, clock=clock, arrival=arrival,
        barrier_id=barrier_id, finished=finished, waiting=waiting, ctl=ctl,
        l1_tags=blocks.l1_tags, rac=blocks.rac,
        owned=blocks.owned, ever=blocks.ever, copyset=directory.copyset,
        owner=directory.owner, refetch=directory.refetch_count,
        modes=blocks.modes, scoma_valid=blocks.scoma_valid,
        pc_hits=blocks.pc_hits, ref_bits=blocks.ref_bits,
        home=allocator.home, alloc=allocator.row, net_base=network._base,
        net_port=network.port_busy_until, mem_busy=blocks.mem_busy,
        bus_busy=blocks.bus_busy, pc=blocks.pc, clk=blocks.clk,
        pol=blocks.policy, fault_mode=fault_mode, hint_mode=hint_mode,
        next_run=next_run, thr=thr, st=blocks.stats, ctr=blocks.counters,
        mach=machine.counters, inv_scratch=inv_scratch, ring=ring)
    keepalive = {
        field: ffi.from_buffer(_C_ARRAY[np.asarray(buffers[field]).dtype],
                               buffers[field])
        for field, _ in ffi.typeof("SoaState").fields}
    state = ffi.new("SoaState *", keepalive)

    def _mode_code(node, free_frames):
        """policy.initial_mode as the kernel's fault mode: S-COMA, or
        CC-NUMA for any other answer, as in Engine._page_fault."""
        scoma = (policy.initial_mode(node.policy_state, free_frames)
                 == PageMode.SCOMA)
        return PageMode.SCOMA if scoma else PageMode.CCNUMA

    def _hint_code(node, free_frames):
        """policy.on_relocation_hint as the kernel's H_* code."""
        return _HINT_CODES.get(
            policy.on_relocation_hint(node.policy_state, free_frames),
            _IN_PYTHON)

    def _policy_in(i):
        """Node i's policy-derived kernel inputs, for a free and a dry
        pool.  Only Python exits change them (daemon runs, faults and
        hints run in Python, and the break-even evaluations they
        reach), and only for the node that took the exit."""
        node = nodes[i]
        next_run[i] = node.daemon.next_run_at
        thr[i] = node.policy_state.effective_threshold()
        fault_mode[2 * i] = _mode_code(node, 1)
        fault_mode[2 * i + 1] = _mode_code(node, 0)
        hint_mode[2 * i] = _hint_code(node, 1)
        hint_mode[2 * i + 1] = _hint_code(node, 0)

    def _flush_ring():
        """Publish the ring's rows (see ``EventBus.publish_rows``).

        Runs before any other Python-side work at every kernel exit, so
        the publish order matches the reference loop exactly.
        """
        count = ctl[_CTL.RING]
        if count:
            events.publish_rows(ring[:count], pc_shift)
            ctl[_CTL.RING] = 0

    # --- drive the kernel --------------------------------------------
    # Only residual, hint and daemon exits change policy inputs, so
    # those are all that refresh them.
    for i in range(n):
        _policy_in(i)
    while True:
        rc = lib.soa_run(state)
        _flush_ring()
        if rc == _EXIT.RESIDUAL:
            best = ctl[_CTL.BEST]
            now = ctl[_CTL.NOW]
            at = tr_off[best] + pos[best]
            ctl[_CTL.NOW] = now + engine._shared_ref(
                nodes[best], args_all[at], kinds_all[at] == EV_WRITE, now)
            pos[best] += 1
            _policy_in(best)
        elif rc == _EXIT.HINT:
            # The access completed in the kernel; the hint's work runs
            # at the access's end, with the clock its miss stamped.
            best = ctl[_CTL.BEST]
            now = ctl[_CTL.NOW]
            if events.kind_observers:
                events.clock = ctl[_CTL.HINT_CLOCK]
            ctl[_CTL.NOW] = now + engine._handle_relocation_hint(
                nodes[best], ctl[_CTL.HINT], now)
            ctl[_CTL.HINT] = -1
            _policy_in(best)
        elif rc == _EXIT.RING:
            pass  # flushed above; re-enter with a drained ring
        elif rc == _EXIT.DAEMON:
            best = ctl[_CTL.BEST]
            nodes[best].run_daemon_if_due(ctl[_CTL.NOW])
            _policy_in(best)
        elif rc == _EXIT.BARRIER:
            engine._release_barrier(nodes, clock, arrival, waiting, pos,
                                    tr_len, finished, barrier_id)
        elif rc == _EXIT.DEADLOCK:
            raise RuntimeError("deadlock: all unfinished nodes are waiting"
                               " at a barrier that never released")
        else:
            return clock.tolist()
