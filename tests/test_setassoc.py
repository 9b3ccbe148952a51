"""Unit tests for the set-associative L1 (conflict-miss sensitivity study)."""

import pytest

from repro.mem.address import AddressMap
from repro.mem.cache import DirectMappedCache
from repro.mem.setassoc import SetAssociativeCache


@pytest.fixture
def cache():
    return SetAssociativeCache(8192, 32, ways=2)  # 128 sets x 2 ways


class TestBasics:
    def test_geometry(self, cache):
        assert cache.n_sets == 128
        assert cache.ways == 2

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(8192, 32, ways=0)
        with pytest.raises(ValueError):
            SetAssociativeCache(8192, 32, ways=3)  # 85.33 sets
        with pytest.raises(ValueError):
            SetAssociativeCache(96 * 32, 32, ways=1)  # 96 sets: not pow2

    def test_miss_then_hit(self, cache):
        assert not cache.lookup(5)
        cache.fill(5)
        assert cache.lookup(5)

    def test_two_conflicting_lines_coexist(self, cache):
        a, b = 5, 5 + 128
        cache.fill(a)
        cache.fill(b)
        assert cache.contains(a) and cache.contains(b)

    def test_third_conflicting_line_evicts_lru(self, cache):
        a, b, c = 5, 5 + 128, 5 + 256
        cache.fill(a)
        cache.fill(b)
        victim = cache.fill(c)
        assert victim == a
        assert not cache.contains(a)
        assert cache.contains(b) and cache.contains(c)

    def test_lookup_refreshes_lru(self, cache):
        a, b, c = 5, 5 + 128, 5 + 256
        cache.fill(a)
        cache.fill(b)
        cache.lookup(a)           # a becomes MRU
        victim = cache.fill(c)
        assert victim == b

    def test_refill_same_line_is_noop(self, cache):
        cache.fill(5)
        assert cache.fill(5) == -1


class TestFlushPage:
    def test_flush_page(self, cache):
        amap = AddressMap()
        lines = [amap.line_id(3, i) for i in range(0, 64, 4)]
        for line in lines:
            cache.fill(line)
        flushed = cache.flush_page(3)
        assert flushed == len(lines)
        assert not any(cache.contains(line) for line in lines)

    def test_flush_keeps_other_pages(self, cache):
        amap = AddressMap()
        mine = amap.line_id(1, 0)
        other = amap.line_id(2, 1)
        cache.fill(mine)
        cache.fill(other)
        cache.flush_page(1)
        assert cache.contains(other)

    def test_resident_lines_of_page(self, cache):
        amap = AddressMap()
        cache.fill(amap.line_id(7, 0))
        cache.fill(amap.line_id(7, 1))
        assert len(cache.resident_lines_of_page(7)) == 2

    def test_clear(self, cache):
        cache.fill(1)
        cache.clear()
        assert not cache.contains(1)


class TestAgainstDirectMapped:
    def test_one_way_matches_direct_mapped_hits(self):
        """A 1-way associative cache must behave like the direct-mapped one."""
        assoc = SetAssociativeCache(2048, 32, ways=1)
        direct = DirectMappedCache(2048, 32)
        import random
        rng = random.Random(7)
        refs = [rng.randrange(0, 4096) for _ in range(2000)]
        for line in refs:
            ha = assoc.lookup(line)
            hd = direct.lookup(line)
            assert ha == hd
            if not ha:
                assoc.fill(line)
                direct.fill(line)

    def test_higher_associativity_never_fewer_hits_on_loop(self):
        """Associativity removes conflict misses on a cyclic working set
        that fits the cache (the textbook LRU caveat applies only when
        the set is larger than the cache)."""
        refs = [0, 256] * 50  # conflict in 256-set direct, coexist in 2-way

        def hits(cache) -> int:
            count = 0
            for line in refs:
                if cache.lookup(line):
                    count += 1
                else:
                    cache.fill(line)
            return count

        assert (hits(SetAssociativeCache(8192, 32, ways=2))
                > hits(DirectMappedCache(8192, 32)))


class TestEngineIntegration:
    def test_engine_runs_with_associative_l1(self):
        from repro.core import CCNUMAPolicy
        from repro.sim.config import SystemConfig
        from repro.sim.engine import simulate
        from tests.conftest import make_micro_workload

        wl = make_micro_workload()
        cfg = SystemConfig(n_nodes=2, l1_ways=2, memory_pressure=0.5,
                           model_contention=False)
        result = simulate(wl, CCNUMAPolicy(), cfg)
        assert result.aggregate().shared_misses() > 0

    def test_associativity_reduces_conflict_refetches(self):
        """More ways -> fewer L1 conflict misses -> fewer remote refetches
        -- the mechanism the whole hybrid story depends on."""
        from repro.core import CCNUMAPolicy
        from repro.sim.config import SystemConfig
        from repro.sim.engine import simulate
        from repro.workloads import synthetic

        wl = synthetic.generate(n_nodes=2, home_pages_per_node=8,
                                remote_pages_per_node=8, sweeps=6,
                                lines_per_visit=8, hot_fraction=1.0,
                                home_lines_per_sweep=16, line_repeats=1,
                                write_fraction=0.0, seed=5)
        results = {}
        for ways in (1, 8):
            cfg = SystemConfig(n_nodes=2, l1_ways=ways, memory_pressure=0.5,
                               model_contention=False)
            results[ways] = simulate(wl, CCNUMAPolicy(), cfg).aggregate()
        assert results[8].l1_hits >= results[1].l1_hits
        assert results[8].CONF_CAPC <= results[1].CONF_CAPC
