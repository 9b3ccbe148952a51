"""Unit tests for the Node model's page-management operations."""

import pytest

from repro.coherence.directory import Directory
from repro.core import ASCOMAPolicy, SCOMAPolicy, VCNUMAPolicy
from repro.kernel.vm import PageMode
from repro.sim.config import SystemConfig
from repro.sim.node import Node


def make_node(policy=None, cache_frames=4, pressure=0.5):
    cfg = SystemConfig(n_nodes=4, memory_pressure=pressure,
                       model_contention=False)
    amap = cfg.address_map()
    directory = Directory(4, amap.chunks_per_page)
    policy = policy or ASCOMAPolicy(threshold=8, increment=4)
    node = Node(0, cfg, amap, directory, policy, cache_frames,
                cache_frames + 10)
    return node, directory, amap


class TestInvalidation:
    def test_invalidate_chunk_clears_l1_rac_valid(self):
        node, directory, amap = make_node()
        page, chunk = 5, 5 * amap.chunks_per_page
        assert node.pool.try_allocate()
        node.map_scoma(page)
        node.page_table.set_chunk_valid(page, 0)
        for line in amap.lines_of_chunk(chunk):
            node.l1.fill(line)
        node.rac.fill(chunk)
        node.owned[chunk] = 1

        node.invalidate_chunk(chunk)
        assert all(not node.l1.lookup(line) for line in amap.lines_of_chunk(chunk))
        assert not node.rac.lookup(chunk)
        assert not node.owned[chunk]
        assert not node.page_table.chunk_valid(page, 0)

    def test_demote_only_drops_ownership(self):
        node, _, amap = make_node()
        chunk = 3
        node.owned[chunk] = 1
        node.l1.fill(amap.lines_of_chunk(chunk)[0])
        node.demote_chunk(chunk)
        assert not node.owned[chunk]
        assert node.l1.lookup(amap.lines_of_chunk(chunk)[0])


class TestFlushPage:
    def test_flush_drops_directory_membership(self):
        node, directory, amap = make_node()
        page = 2
        chunk = page * amap.chunks_per_page
        directory.fetch_raw(0, chunk, page, False, 0)
        node.l1.fill(amap.line_id(page, 0))
        flushed = node.flush_page(page)
        assert flushed == 1
        assert not directory.is_cached_by(chunk, 0)

    def test_flush_clears_owned_chunks(self):
        node, _, amap = make_node()
        page = 2
        chunk = page * amap.chunks_per_page + 3
        node.owned[chunk] = 1
        node.flush_page(page)
        assert not node.owned[chunk]


class TestEviction:
    def test_evict_returns_frame_and_downgrades(self):
        node, _, amap = make_node()
        assert node.pool.try_allocate()
        free_before = node.pool.free
        node.map_scoma(7)
        cost = node.evict_scoma_page(7, forced=False)
        assert cost > 0
        assert node.pool.free == free_before + 1
        assert node.page_table.mode_of(7) == PageMode.CCNUMA
        assert node.stats.evictions == 1

    def test_scoma_policy_evicts_to_unmapped(self):
        node, _, _ = make_node(policy=SCOMAPolicy())
        node.pool.try_allocate()
        node.map_scoma(7)
        node.evict_scoma_page(7, forced=True)
        assert node.page_table.mode_of(7) == PageMode.UNMAPPED
        assert node.stats.forced_evictions == 1

    def test_evict_resets_refetch_counter(self):
        node, directory, amap = make_node()
        page = 7
        directory.refetch_count[page * directory.n_nodes + 0] = 5
        node.pool.try_allocate()
        node.map_scoma(page)
        node.evict_scoma_page(page, forced=False)
        assert directory.refetches_of(page, 0) == 0

    def test_evict_reports_pagecache_hits_to_policy(self):
        policy = VCNUMAPolicy(threshold=8, break_even=4, increment=4,
                              min_evictions_per_eval=1)
        node, _, _ = make_node(policy=policy)
        # Two losing evictions reach the detector's cadence (2 x 1 page).
        for _ in range(2):
            node.pool.try_allocate()
            node.map_scoma(7)
            node.pagecache_hits[7] = 3  # below break-even of 4: a loser
            node.evict_scoma_page(7, forced=True)
        assert node.policy_state.detector.threshold > 8


class TestRelocation:
    def test_relocate_ccnuma_page(self):
        node, directory, amap = make_node()
        page = 3
        node.page_table.map_ccnuma(page)
        node.pool.try_allocate()
        cost = node.relocate_to_scoma(page)
        assert cost >= node.costs.relocation_interrupt + node.costs.page_remap
        assert node.page_table.mode_of(page) == PageMode.SCOMA
        assert node.stats.relocations == 1

    def test_relocate_flushes_cached_lines(self):
        node, _, amap = make_node()
        page = 3
        line = amap.line_id(page, 0)
        node.page_table.map_ccnuma(page)
        node.l1.fill(line)
        node.pool.try_allocate()
        node.relocate_to_scoma(page)
        assert not node.l1.lookup(line)


class TestVictimSelection:
    def test_unreferenced_page_chosen(self):
        node, _, _ = make_node()
        for page in (1, 2, 3):
            node.pool.try_allocate()
            node.map_scoma(page)
        node.ref_bits[1] = True
        node.ref_bits[2] = False
        node.ref_bits[3] = True
        assert node.choose_victim() == 2

    def test_all_referenced_falls_back_to_front(self):
        node, _, _ = make_node()
        for page in (1, 2, 3):
            node.pool.try_allocate()
            node.map_scoma(page)
            node.ref_bits[page] = True
        victim = node.choose_victim()
        assert victim in (1, 2, 3)
        # All reference bits were cleared by the rotation.
        assert all(not node.ref_bits[p] for p in (1, 2, 3))

    def test_empty_cache_raises(self):
        node, _, _ = make_node()
        with pytest.raises(RuntimeError):
            node.choose_victim()


class TestDaemonIntegration:
    def test_acquire_frame_runs_daemon_when_low(self):
        node, _, _ = make_node(cache_frames=3)
        # Fill the cache with cold pages (ref bits cleared).
        for page in (1, 2, 3):
            assert node.pool.try_allocate()
            node.map_scoma(page)
            node.ref_bits[page] = False
        assert node.pool.free == 0
        got = node.acquire_frame(now=10**6)
        assert got
        assert node.stats.daemon_runs == 1
        assert node.stats.evictions >= 1

    def test_daemon_thrash_reported_to_policy(self):
        policy = ASCOMAPolicy(threshold=8, increment=4)
        node, _, _ = make_node(policy=policy, cache_frames=3)
        for page in (1, 2, 3):
            node.pool.try_allocate()
            node.map_scoma(page)
            node.ref_bits[page] = True  # everything hot
        node.run_daemon_if_due(now=10**6)
        assert node.stats.daemon_thrash == 1
        assert node.policy_state.backoff.threshold > 8
