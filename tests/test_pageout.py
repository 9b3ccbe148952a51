"""Unit tests for the pageout daemon's second-chance scan and thrash signal."""


from repro.kernel.costs import KernelCosts
from repro.kernel.freelist import FreePagePool
from repro.kernel.pageout import PageoutDaemon
from repro.kernel.vm import DEFAULT_PAGES, PageTable


class Harness:
    """Minimal stand-in for a node: ref bits + eviction wiring."""

    def __init__(self, cache_frames=4, total_frames=100):
        self.page_table = PageTable(32)
        self.pool = FreePagePool(cache_frames, total_frames,
                                 free_min_frac=0.02, free_target_frac=0.04)
        self.ref_bits = bytearray(DEFAULT_PAGES)
        self.evicted: list[int] = []
        self.daemon = PageoutDaemon(self.page_table, self.pool,
                                    KernelCosts(), self.ref_bits,
                                    base_interval=1000)

    def map_page(self, page, referenced=True):
        assert self.pool.try_allocate()
        self.page_table.map_scoma(page)
        self.ref_bits[page] = referenced

    def run(self, now):
        """One daemon run, evicting through this harness."""
        return self.daemon.run(now, self._evict)

    def _evict(self, page):
        self.page_table.unmap_scoma(page, to_ccnuma=True)
        self.pool.release()
        self.evicted.append(page)


class TestSecondChance:
    def test_evicts_unreferenced_pages(self):
        h = Harness()
        for p in range(4):
            h.map_page(p, referenced=False)
        result = h.run(now=0)
        assert result.reclaimed >= 1
        assert not result.thrashing
        assert h.evicted  # cold pages went first

    def test_referenced_pages_survive_one_run(self):
        h = Harness()
        for p in range(4):
            h.map_page(p, referenced=True)
        result = h.run(now=0)
        assert result.reclaimed == 0
        assert result.thrashing
        assert h.evicted == []

    def test_reference_bits_cleared_by_scan(self):
        h = Harness()
        for p in range(4):
            h.map_page(p, referenced=True)
        h.run(now=0)
        assert all(not h.ref_bits[p] for p in range(4))

    def test_second_run_evicts_if_not_retouched(self):
        h = Harness()
        for p in range(4):
            h.map_page(p, referenced=True)
        h.run(now=0)
        result = h.run(now=h.daemon.interval)
        assert result.reclaimed >= 1

    def test_retouched_pages_survive_second_run(self):
        h = Harness()
        for p in range(4):
            h.map_page(p, referenced=True)
        h.run(now=0)
        for p in range(4):
            h.ref_bits[p] = True  # application touched them again
        result = h.run(now=h.daemon.interval)
        assert result.reclaimed == 0 and result.thrashing

    def test_stops_at_target(self):
        h = Harness(cache_frames=10)
        for p in range(10):
            h.map_page(p, referenced=False)
        result = h.run(now=0)
        # Deficit was free_target (pool empty); no more than needed evicted.
        assert result.reclaimed == result.target
        assert len(h.evicted) == result.target


class TestScheduling:
    def test_due_requires_low_pool(self):
        h = Harness()
        assert not h.daemon.due(now=0)  # pool full
        for p in range(4):
            h.map_page(p)
        assert h.daemon.due(now=0)

    def test_rate_limited(self):
        h = Harness()
        for p in range(4):
            h.map_page(p)
        h.run(now=0)
        assert not h.daemon.due(now=h.daemon.interval - 1)
        assert h.daemon.due(now=h.daemon.interval)

    def test_stretch_interval(self):
        h = Harness()
        h.daemon.stretch_interval(2.0)
        assert h.daemon.interval == 2000
        h.daemon.stretch_interval(2.0, cap=3000)
        assert h.daemon.interval == 3000

    def test_stretch_interval_cap_below_base_wins(self):
        # Regression: the base_interval floor used to be applied after
        # the cap, so a cap below base_interval was silently ignored
        # and the interval stayed at 1000 instead of clamping to 500.
        h = Harness()
        assert h.daemon.base_interval == 1000
        h.daemon.stretch_interval(2.0, cap=500)
        assert h.daemon.interval == 500

    def test_stretch_interval_cap_is_absolute_ceiling(self):
        h = Harness()
        h.daemon.stretch_interval(8.0, cap=3000)
        assert h.daemon.interval == 3000
        # A later stretch with a tighter cap pulls the interval down.
        h.daemon.stretch_interval(2.0, cap=1500)
        assert h.daemon.interval == 1500

    def test_reset_interval(self):
        h = Harness()
        h.daemon.stretch_interval(4.0)
        h.daemon.reset_interval()
        assert h.daemon.interval == h.daemon.base_interval

    def test_run_cost_scales_with_scan(self):
        h = Harness()
        for p in range(4):
            h.map_page(p, referenced=True)
        result = h.run(now=0)
        assert result.cost == KernelCosts().daemon_run_cost(result.scanned)
