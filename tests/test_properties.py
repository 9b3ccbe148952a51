"""Property-based tests (hypothesis) for core data-structure invariants."""

from collections import Counter

from hypothesis import given, strategies as st

from repro.coherence.directory import Directory
from repro.kernel.allocation import HomeAllocator
from repro.kernel.freelist import FreePagePool
from repro.mem.address import AddressMap
from repro.mem.cache import DirectMappedCache
from repro.mem.rac import RemoteAccessCache
from tests.conftest import DirOut

lines = st.integers(min_value=0, max_value=1 << 20)
nodes4 = st.integers(min_value=0, max_value=3)


class TestCacheProperties:
    @given(st.lists(lines, max_size=200))
    def test_cache_never_holds_duplicate_sets(self, refs):
        cache = DirectMappedCache(2048, 32)
        for line in refs:
            if not cache.lookup(line):
                cache.fill(line)
        resident = [t for t in cache.tags if t != -1]
        sets = [t & cache.set_mask for t in resident]
        assert len(sets) == len(set(sets))
        # Every resident line sits in its own set.
        for s, t in enumerate(cache.tags):
            if t != -1:
                assert t & cache.set_mask == s

    @given(st.lists(lines, max_size=100),
           st.integers(min_value=0, max_value=50))
    def test_flush_page_removes_exactly_that_page(self, refs, page):
        amap = AddressMap()
        cache = DirectMappedCache(8192, 32, amap)
        for line in refs:
            cache.fill(line)
        before = {t for t in cache.tags if t != -1}
        flushed = cache.flush_page(page)
        after = {t for t in cache.tags if t != -1}
        gone = before - after
        assert all(amap.page_of_line(t) == page for t in gone)
        assert len(gone) == flushed
        assert not any(amap.page_of_line(t) == page for t in after)

    @given(st.lists(lines, max_size=200))
    def test_lookup_after_fill_always_hits(self, refs):
        cache = DirectMappedCache(1024, 32)
        for line in refs:
            cache.fill(line)
            assert cache.lookup(line)


class TestRACProperties:
    @given(st.lists(st.integers(min_value=0, max_value=10_000), max_size=200),
           st.sampled_from([1, 2, 4, 8]))
    def test_rac_membership_consistent(self, chunks, entries):
        rac = RemoteAccessCache(entries)
        resident: dict[int, int] = {}
        for chunk in chunks:
            rac.fill(chunk)
            resident[chunk & rac.entry_mask] = chunk
        for slot, chunk in resident.items():
            assert rac.lookup(chunk)


class TestDirectoryProperties:
    @given(st.lists(st.tuples(nodes4,
                              st.integers(min_value=0, max_value=63),
                              st.booleans()),
                    max_size=300))
    def test_writer_is_sole_sharer_after_write(self, ops):
        d = Directory(4, 32)
        last_writer: dict[int, int] = {}
        for node, chunk, is_write in ops:
            d.fetch_raw(node, chunk, chunk // 32, is_write, threshold=0)
            if is_write:
                last_writer[chunk] = node
                assert d.sharers(chunk) == [node]
                assert d.owner[chunk] == node

    @given(st.lists(st.tuples(nodes4, st.integers(0, 63)), max_size=300))
    def test_reader_always_in_copyset_after_fetch(self, ops):
        d = Directory(4, 32)
        for node, chunk in ops:
            d.fetch_raw(node, chunk, chunk // 32, False, 0)
            assert d.is_cached_by(chunk, node)

    @given(st.lists(st.tuples(nodes4, st.integers(0, 63)), max_size=200),
           nodes4, st.integers(0, 1))
    def test_drop_node_is_idempotent(self, ops, victim, page):
        d = Directory(4, 32)
        for node, chunk in ops:
            d.fetch_raw(node, chunk, chunk // 32, False, 0)
        d.drop_node_from_page(victim, page)
        assert d.drop_node_from_page(victim, page) == 0

    @given(st.integers(min_value=1, max_value=30))
    def test_hint_cadence_matches_threshold(self, threshold):
        d = Directory(4, 32)
        d.fetch_raw(0, 0, 0, False, threshold)  # join copyset
        hints = 0
        n = threshold * 3
        for _ in range(n):
            if DirOut(*d.fetch_raw(0, 0, 0, False, threshold)).relocation_hint:
                hints += 1
        assert hints == n // threshold


class TestAllocatorProperties:
    @given(st.lists(st.tuples(st.integers(0, 127), nodes4), min_size=1,
                    max_size=300))
    def test_homes_sticky_and_balanced(self, touches):
        total_pages = 128
        alloc = HomeAllocator(4, total_pages)
        first_seen: dict[int, int] = {}
        for page, toucher in touches:
            home = alloc.home_of(page, toucher)
            first_seen.setdefault(page, home)
            assert home == first_seen[page]
        counts = Counter(h for h in alloc.home if h != -1)
        assert all(c <= alloc.quota for c in counts.values())

    @given(st.integers(min_value=1, max_value=8),
           st.integers(min_value=0, max_value=200))
    def test_quota_covers_all_pages(self, n_nodes, total):
        alloc = HomeAllocator(n_nodes, total)
        assert alloc.quota * n_nodes >= total


class TestFreePoolProperties:
    @given(st.lists(st.booleans(), max_size=300),
           st.integers(min_value=1, max_value=50))
    def test_free_count_bounded(self, ops, capacity):
        pool = FreePagePool(capacity, capacity * 10)
        held = 0
        for allocate in ops:
            if allocate:
                if pool.try_allocate():
                    held += 1
            elif held:
                pool.release()
                held -= 1
        assert 0 <= pool.free <= pool.capacity
        assert pool.free + held == pool.capacity
        assert pool.in_use == held


class TestAddressMapProperties:
    @given(st.integers(min_value=0, max_value=1 << 30))
    def test_line_decomposition_consistent(self, line):
        amap = AddressMap()
        page = amap.page_of_line(line)
        chunk = amap.chunk_of_line(line)
        assert amap.page_of_chunk(chunk) == page
        assert amap.line_id(page, amap.line_in_page(line)) == line
        assert line in amap.lines_of_chunk(chunk)
        assert chunk in amap.chunks_of_page(page)

    @given(st.integers(min_value=0, max_value=1 << 20))
    def test_chunk_in_page_bounds(self, line):
        amap = AddressMap()
        assert 0 <= amap.chunk_in_page(line) < amap.chunks_per_page
