"""Unit tests for the coherence directory and refetch counting."""

import pytest

from repro.coherence.directory import Directory
from tests.conftest import DirOut


@pytest.fixture
def directory():
    return Directory(n_nodes=4, chunks_per_page=32)


class TestCopysets:
    def test_first_read_is_not_refetch(self, directory):
        out = DirOut(*directory.fetch_raw(1, chunk=0, page=0, is_write=False,
                                          threshold=0))
        assert not out.refetch
        assert directory.is_cached_by(0, 1)

    def test_second_read_by_same_node_is_refetch(self, directory):
        directory.fetch_raw(1, 0, 0, False, 0)
        out = DirOut(*directory.fetch_raw(1, 0, 0, False, 0))
        assert out.refetch

    def test_read_by_other_node_is_not_refetch(self, directory):
        directory.fetch_raw(1, 0, 0, False, 0)
        out = DirOut(*directory.fetch_raw(2, 0, 0, False, 0))
        assert not out.refetch
        assert directory.sharers(0) == [1, 2]

    def test_write_invalidates_other_sharers(self, directory):
        directory.fetch_raw(1, 0, 0, False, 0)
        directory.fetch_raw(2, 0, 0, False, 0)
        out = DirOut(*directory.fetch_raw(3, 0, 0, True, 0))
        assert set(out.invalidations) == {1, 2}
        assert directory.sharers(0) == [3]

    def test_write_does_not_invalidate_self(self, directory):
        directory.fetch_raw(1, 0, 0, False, 0)
        out = DirOut(*directory.fetch_raw(1, 0, 0, True, 0))
        assert out.invalidations == ()

    def test_write_sets_owner(self, directory):
        directory.fetch_raw(1, 0, 0, True, 0)
        assert directory.owner[0] == 1

    def test_read_after_remote_write_forwards(self, directory):
        directory.fetch_raw(1, 0, 0, True, 0)
        out = DirOut(*directory.fetch_raw(2, 0, 0, False, 0))
        assert out.forwarded
        assert out.prev_owner == 1
        assert directory.owner[0] == -1  # clean after writeback

    def test_owner_rereading_does_not_forward(self, directory):
        directory.fetch_raw(1, 0, 0, True, 0)
        out = DirOut(*directory.fetch_raw(1, 0, 0, False, 0))
        assert not out.forwarded

    def test_write_after_remote_write_forwards_and_invalidates(self, directory):
        directory.fetch_raw(1, 0, 0, True, 0)
        out = DirOut(*directory.fetch_raw(2, 0, 0, True, 0))
        assert out.forwarded
        assert out.invalidations == (1,)
        assert directory.owner[0] == 2


class TestRefetchCounting:
    def test_counter_increments_on_refetch(self, directory):
        directory.fetch_raw(1, 0, 0, False, threshold=10)
        directory.fetch_raw(1, 0, 0, False, threshold=10)
        assert directory.refetches_of(0, 1) == 1

    def test_threshold_zero_disables_counting(self, directory):
        directory.fetch_raw(1, 0, 0, False, threshold=0)
        directory.fetch_raw(1, 0, 0, False, threshold=0)
        assert directory.refetches_of(0, 1) == 0
        assert directory.total_refetches == 1  # still counted globally

    def test_hint_fires_at_threshold(self, directory):
        directory.fetch_raw(1, 0, 0, False, threshold=3)
        hints = []
        for _ in range(6):
            out = DirOut(*directory.fetch_raw(1, 0, 0, False, threshold=3))
            hints.append(out.relocation_hint)
        # Counter: 1,2,3(hint+reset),1,2,3(hint+reset)
        assert hints == [False, False, True, False, False, True]

    def test_counter_resets_after_hint(self, directory):
        directory.fetch_raw(1, 0, 0, False, threshold=2)
        directory.fetch_raw(1, 0, 0, False, threshold=2)
        directory.fetch_raw(1, 0, 0, False, threshold=2)
        assert directory.refetches_of(0, 1) == 0

    def test_counters_are_per_page_per_node(self, directory):
        for _ in range(3):
            directory.fetch_raw(1, 0, 0, False, threshold=10)
            directory.fetch_raw(2, 0, 0, False, threshold=10)
            directory.fetch_raw(1, 32, 1, False, threshold=10)
        assert directory.refetches_of(0, 1) == 2
        assert directory.refetches_of(0, 2) == 2
        assert directory.refetches_of(1, 1) == 2

    def test_count_refetch_false_skips_counter(self, directory):
        directory.fetch_raw(1, 0, 0, False, threshold=5)
        directory.fetch_raw(1, 0, 0, False, threshold=5, count_refetch=False)
        assert directory.refetches_of(0, 1) == 0

    def test_reset_refetch(self, directory):
        directory.fetch_raw(1, 0, 0, False, threshold=10)
        directory.fetch_raw(1, 0, 0, False, threshold=10)
        directory.reset_refetch(0, 1)
        assert directory.refetches_of(0, 1) == 0

    def test_relocation_hint_counter(self, directory):
        for _ in range(4):
            directory.fetch_raw(1, 0, 0, False, threshold=3)
        assert directory.relocation_hints == 1


class TestDropNodeFromPage:
    def test_drop_removes_from_all_chunks(self, directory):
        for chunk in (0, 1, 5):
            directory.fetch_raw(1, chunk, 0, False, 0)
        dropped = directory.drop_node_from_page(1, 0)
        assert dropped == 3
        for chunk in (0, 1, 5):
            assert not directory.is_cached_by(chunk, 1)

    def test_drop_preserves_other_nodes(self, directory):
        directory.fetch_raw(1, 0, 0, False, 0)
        directory.fetch_raw(2, 0, 0, False, 0)
        directory.drop_node_from_page(1, 0)
        assert directory.is_cached_by(0, 2)

    def test_drop_clears_ownership(self, directory):
        directory.fetch_raw(1, 0, 0, True, 0)
        directory.drop_node_from_page(1, 0)
        assert directory.owner[0] == -1

    def test_drop_only_affects_given_page(self, directory):
        directory.fetch_raw(1, 0, 0, False, 0)     # page 0
        directory.fetch_raw(1, 32, 1, False, 0)    # page 1
        assert directory.drop_node_from_page(1, 0) == 1
        assert directory.is_cached_by(32, 1)

    def test_next_fetch_after_drop_is_cold(self, directory):
        directory.fetch_raw(1, 0, 0, False, 0)
        directory.drop_node_from_page(1, 0)
        out = DirOut(*directory.fetch_raw(1, 0, 0, False, 0))
        assert not out.refetch  # induced cold miss, not a refetch


class TestValidation:
    def test_rejects_zero_nodes(self):
        with pytest.raises(ValueError):
            Directory(0, 32)
