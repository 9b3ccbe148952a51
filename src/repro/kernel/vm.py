"""Per-node virtual-memory state: page modes and S-COMA page bookkeeping.

Every node classifies each shared page it has touched into one of three
mapping modes (paper, Section 2):

* ``HOME``   -- the page's home is this node; accesses go to local DRAM.
* ``SCOMA``  -- the page is backed by a frame of the local page cache;
  each 128-byte chunk has a valid bit (set when remote data has been
  fetched into the frame, cleared by invalidation or page flush).
* ``CCNUMA`` -- the page maps straight to its remote home; only the L1
  and the RAC can cache its data.

The page table also maintains the *clock* of S-COMA pages used by the
pageout daemon's second-chance scan.

State is dense and page-indexed: a mode per page, and per page
``sv_words`` 64-bit words of chunk-valid bits (chunk ``c`` of a page is
bit ``c & 63`` of word ``c >> 6``).  A machine hands every node a row of
its machine-wide blocks, which the replay kernel reads and writes in
place; a table built on its own allocates the rows itself.  Page
faults are counted once, as the node's ``page_faults``.
"""

from __future__ import annotations

import enum

import numpy as np

from .freelist import N_PC, PC_HEAD, PC_LEN

__all__ = ["ClockRing", "DEFAULT_PAGES", "PageMode", "PageTable"]

#: Pages a page-indexed model covers when it is built on its own (a
#: machine passes its workload's page count instead).
DEFAULT_PAGES = 256


class PageMode(enum.IntEnum):
    """A page's mapping on a node; the replay kernel reads the
    member names."""

    UNMAPPED = 0
    HOME = 1
    SCOMA = 2
    CCNUMA = 3


class ClockRing:
    """The second-chance clock: a FIFO of S-COMA pages with re-queue.

    Pages sit in a ring buffer (the ``clk`` row, one slot more than the
    table has pages, so a corrupted duplicate entry still fits); the
    front's index and the length are the ``PC_HEAD``/``PC_LEN`` slots of
    the node's page-cache row.  Supports the deque operations the
    daemon, the fault path and the audits use.
    """

    __slots__ = ("_buf", "_pc", "_cap")

    def __init__(self, buf, pc) -> None:
        self._buf = memoryview(buf)
        self._pc = memoryview(pc)
        self._cap = len(buf)

    def __len__(self) -> int:
        return self._pc[PC_LEN]

    def __getitem__(self, i: int) -> int:
        n = self._pc[PC_LEN]
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("clock index out of range")
        return self._buf[(self._pc[PC_HEAD] + i) % self._cap]

    def __iter__(self):
        buf, cap, head = self._buf, self._cap, self._pc[PC_HEAD]
        return iter([buf[(head + i) % cap] for i in range(self._pc[PC_LEN])])

    def append(self, page: int) -> None:
        pc = self._pc
        n = pc[PC_LEN]
        if n == self._cap:
            raise RuntimeError("S-COMA clock overflow")
        self._buf[(pc[PC_HEAD] + n) % self._cap] = page
        pc[PC_LEN] = n + 1

    def pop(self) -> int:
        page = self[-1]
        self._pc[PC_LEN] -= 1
        return page

    def rotate(self, n: int = 1) -> None:
        """``deque.rotate``; the daemon's second chance is ``rotate(-1)``."""
        pc, buf, cap = self._pc, self._buf, self._cap
        length = pc[PC_LEN]
        if not length:
            return
        for _ in range(-n):         # the front moves to the back
            page = buf[pc[PC_HEAD]]
            pc[PC_HEAD] = (pc[PC_HEAD] + 1) % cap
            buf[(pc[PC_HEAD] + length - 1) % cap] = page
        for _ in range(n):          # the back moves to the front
            page = buf[(pc[PC_HEAD] + length - 1) % cap]
            pc[PC_HEAD] = (pc[PC_HEAD] - 1) % cap
            buf[pc[PC_HEAD]] = page

    def remove(self, page: int) -> None:
        """Drop *page*; ``ValueError`` when it is not in the clock."""
        pc = self._pc
        if pc[PC_LEN] and self._buf[pc[PC_HEAD]] == page:
            # Evictions take the front: the daemon's scan and the
            # second-chance victim both stop at clock[0].
            pc[PC_HEAD] = (pc[PC_HEAD] + 1) % self._cap
            pc[PC_LEN] -= 1
            return
        pages = list(self)
        pages.remove(page)
        for i, kept in enumerate(pages):
            self._buf[(pc[PC_HEAD] + i) % self._cap] = kept
        pc[PC_LEN] -= 1


class PageTable:
    """One node's shared-page mapping state.

    The optional rows are this node's slices of the machine-wide blocks:
    *modes* (``int64`` per page), *scoma_valid* (``uint64``, pages x
    ``sv_words``), *pc* (the page-cache row it shares with the free
    pool) and *clk* (the clock's ring buffer).  Without them the table
    allocates rows of its own for ``DEFAULT_PAGES`` pages.
    """

    def __init__(self, chunks_per_page: int, modes=None, scoma_valid=None,
                 pc=None, clk=None) -> None:
        if chunks_per_page <= 0:
            raise ValueError("chunks_per_page must be positive")
        self.chunks_per_page = chunks_per_page
        self.full_mask = (1 << chunks_per_page) - 1
        self.sv_words = (chunks_per_page + 63) >> 6
        if modes is None:
            modes = np.zeros(DEFAULT_PAGES, np.int64)
            scoma_valid = np.zeros((DEFAULT_PAGES, self.sv_words), np.uint64)
            pc = np.zeros(N_PC, np.int64)
            clk = np.zeros(DEFAULT_PAGES + 1, np.int64)
        #: page -> PageMode (UNMAPPED is 0).
        self.mode = memoryview(modes)
        #: S-COMA valid bits, word ``page * sv_words + (chunk >> 6)``.
        self.scoma_valid = memoryview(scoma_valid.reshape(-1))
        #: Second-chance clock over S-COMA pages (FIFO with re-queue).
        self.scoma_clock = ClockRing(clk, pc)

    # -- queries -----------------------------------------------------------
    def mode_of(self, page: int) -> int:
        return self.mode[page]

    def scoma_page_count(self) -> int:
        return len(self.scoma_clock)

    def chunk_valid(self, page: int, chunk_in_page: int) -> bool:
        word = self.scoma_valid[page * self.sv_words + (chunk_in_page >> 6)]
        return bool(word >> (chunk_in_page & 63) & 1)

    def valid_chunks(self, page: int) -> int:
        """Population count of valid chunks in an S-COMA page."""
        first = page * self.sv_words
        return sum(self.scoma_valid[w].bit_count()
                   for w in range(first, first + self.sv_words))

    def valid_mask(self, page: int) -> int:
        """The page's valid bits as one integer (chunk c is bit c)."""
        mask = 0
        first = page * self.sv_words
        for w in range(first + self.sv_words - 1, first - 1, -1):
            mask = mask << 64 | self.scoma_valid[w]
        return mask

    # -- transitions ---------------------------------------------------------
    def map_home(self, page: int) -> None:
        self._assert_unmapped(page)
        self.mode[page] = PageMode.HOME

    def map_ccnuma(self, page: int) -> None:
        self._assert_unmapped(page)
        self.mode[page] = PageMode.CCNUMA

    def map_scoma(self, page: int) -> None:
        """Map *page* into the local page cache with all chunks invalid."""
        current = self.mode[page]
        if current == PageMode.SCOMA:
            raise RuntimeError(f"page {page} already in S-COMA mode")
        if current == PageMode.HOME:
            raise RuntimeError(f"page {page} is home-mapped; cannot S-COMA map")
        self.mode[page] = PageMode.SCOMA
        self._clear_valid(page)
        self.scoma_clock.append(page)

    def unmap_scoma(self, page: int, to_ccnuma: bool = True) -> None:
        """Evict *page* from the page cache.

        ``to_ccnuma=True`` (hybrids) leaves the page mapped to its remote
        home; ``False`` (pure S-COMA) returns it to UNMAPPED so the next
        touch takes a fresh page fault.
        """
        if self.mode[page] != PageMode.SCOMA:
            raise RuntimeError(f"page {page} is not in S-COMA mode")
        self._clear_valid(page)
        self.scoma_clock.remove(page)
        self.mode[page] = PageMode.CCNUMA if to_ccnuma else PageMode.UNMAPPED

    def convert_ccnuma_to_home(self, page: int) -> None:
        """Page migration landed here: the node becomes the home."""
        if self.mode[page] != PageMode.CCNUMA:
            raise RuntimeError(f"page {page} is not CC-NUMA mapped")
        self.mode[page] = PageMode.HOME

    def convert_home_to_ccnuma(self, page: int) -> None:
        """Page migrated away: the old home keeps a CC-NUMA mapping."""
        if self.mode[page] != PageMode.HOME:
            raise RuntimeError(f"page {page} is not home-mapped")
        self.mode[page] = PageMode.CCNUMA

    def set_chunk_valid(self, page: int, chunk_in_page: int) -> None:
        self.scoma_valid[page * self.sv_words + (chunk_in_page >> 6)] |= \
            1 << (chunk_in_page & 63)

    def clear_chunk_valid(self, page: int, chunk_in_page: int) -> None:
        self.scoma_valid[page * self.sv_words + (chunk_in_page >> 6)] &= \
            ~(1 << (chunk_in_page & 63))

    def _clear_valid(self, page: int) -> None:
        first = page * self.sv_words
        for w in range(first, first + self.sv_words):
            self.scoma_valid[w] = 0

    def _assert_unmapped(self, page: int) -> None:
        if self.mode[page]:
            raise RuntimeError(
                f"page {page} already mapped as {PageMode(self.mode[page]).name}")
