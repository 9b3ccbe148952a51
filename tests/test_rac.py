"""Unit tests for the Remote Access Cache."""

import pytest

from repro.mem.rac import RemoteAccessCache


class TestSingleEntry:
    """The paper's RAC: a single 128-byte chunk buffer."""

    def test_holds_last_chunk_only(self):
        rac = RemoteAccessCache(1)
        rac.fill(10)
        assert rac.lookup(10)
        rac.fill(11)
        assert not rac.lookup(10)
        assert rac.lookup(11)

    def test_miss_then_hit(self):
        rac = RemoteAccessCache(1)
        assert not rac.lookup(4)
        rac.fill(4)
        assert rac.lookup(4)

    def test_invalidate(self):
        rac = RemoteAccessCache(1)
        rac.fill(4)
        assert rac.invalidate_chunk(4)
        assert not rac.lookup(4)

    def test_invalidate_absent(self):
        rac = RemoteAccessCache(1)
        assert not rac.invalidate_chunk(4)

    def test_invalidate_wrong_chunk_same_slot(self):
        rac = RemoteAccessCache(1)
        rac.fill(4)
        assert not rac.invalidate_chunk(5)
        assert rac.lookup(4)


class TestMultiEntry:
    def test_direct_mapping(self):
        rac = RemoteAccessCache(4)
        rac.fill(0)
        rac.fill(1)
        rac.fill(4)  # conflicts with 0
        assert not rac.lookup(0)
        assert rac.lookup(1)
        assert rac.lookup(4)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            RemoteAccessCache(3)
        with pytest.raises(ValueError):
            RemoteAccessCache(0)

    def test_flush_page_drops_only_that_page(self):
        rac = RemoteAccessCache(64)
        chunks_per_page = 32
        rac.fill(5)            # page 0
        rac.fill(33)           # page 1
        flushed = rac.flush_page(0, chunks_per_page)
        assert flushed == 1
        assert not rac.lookup(5)
        assert rac.lookup(33)

    def test_flush_page_multiple_resident(self):
        rac = RemoteAccessCache(64)
        rac.fill(0)
        rac.fill(1)
        rac.fill(2)
        assert rac.flush_page(0, 32) == 3

    def test_clear(self):
        rac = RemoteAccessCache(2)
        rac.fill(0)
        rac.fill(1)
        rac.clear()
        assert not rac.lookup(0) and not rac.lookup(1)
