"""Unit tests for the direct-mapped L1 model."""

import pytest

from repro.mem.address import AddressMap
from repro.mem.cache import DirectMappedCache


@pytest.fixture
def cache():
    return DirectMappedCache(8192, 32)  # 256 sets, the paper's L1


class TestBasics:
    def test_sizes(self, cache):
        assert cache.n_sets == 256

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            DirectMappedCache(1000, 32)
        with pytest.raises(ValueError):
            DirectMappedCache(96, 32)  # 3 sets: not a power of two

    def test_miss_then_hit(self, cache):
        assert not cache.lookup(42)
        cache.fill(42)
        assert cache.lookup(42)

    def test_conflict_eviction(self, cache):
        cache.fill(1)
        victim = cache.fill(1 + 256)  # same set
        assert victim == 1
        assert not cache.lookup(1)
        assert cache.lookup(257)

    def test_fill_same_line_is_noop(self, cache):
        cache.fill(5)
        assert cache.fill(5) == -1

    def test_fill_empty_set_returns_minus_one(self, cache):
        assert cache.fill(9) == -1


class TestInvalidation:
    def test_invalidate_resident_line(self, cache):
        cache.fill(7)
        assert cache.invalidate_line(7)
        assert not cache.lookup(7)

    def test_invalidate_absent_line(self, cache):
        assert not cache.invalidate_line(7)

    def test_invalidate_wrong_tag_same_set(self, cache):
        cache.fill(7)
        assert not cache.invalidate_line(7 + 256)
        assert cache.lookup(7)


class TestFlushPage:
    def test_flush_removes_all_page_lines(self, cache):
        amap = AddressMap()
        page = 3
        lines = [amap.line_id(page, i) for i in range(0, 128, 8)]
        for line in lines:
            cache.fill(line)
        flushed = cache.flush_page(page)
        assert flushed == len(lines)
        for line in lines:
            assert not cache.lookup(line)

    def test_flush_leaves_other_pages(self, cache):
        amap = AddressMap()
        mine = amap.line_id(1, 5)
        # Same set as `mine` requires a line id differing by a multiple
        # of 256; page 3 line 5 = 389, page 1 line 5 = 133: both map to
        # set 133.  Use page 0 and page 2 lines instead (disjoint sets).
        other = amap.line_id(2, 6)
        cache.fill(mine)
        cache.fill(other)
        cache.flush_page(1)
        assert not cache.lookup(mine)
        assert cache.lookup(other)

    def test_flush_empty_page_returns_zero(self, cache):
        assert cache.flush_page(9) == 0

    def test_flush_counts_stat(self, cache):
        """The flushed-line count a node adds to its ``lines_flushed``
        stat is what the flush returns."""
        amap = AddressMap()
        cache.fill(amap.line_id(2, 0))
        assert cache.flush_page(2) == 1

    def test_flush_with_cache_smaller_than_page(self):
        # 2 KiB cache = 64 sets < 128 lines/page: sets wrap.
        small = DirectMappedCache(2048, 32)
        amap = AddressMap()
        for i in range(128):
            small.fill(amap.line_id(4, i))
        flushed = small.flush_page(4)
        assert flushed == 64  # one resident line per set
        assert all(t == -1 for t in small.tags)

    def test_resident_lines_of_page(self, cache):
        amap = AddressMap()
        cache.fill(amap.line_id(5, 0))
        cache.fill(amap.line_id(5, 1))
        assert sorted(cache.resident_lines_of_page(5)) == [
            amap.line_id(5, 0), amap.line_id(5, 1)]

    def test_clear(self, cache):
        cache.fill(1)
        cache.clear()
        assert not cache.lookup(1)
