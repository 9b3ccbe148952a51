"""Unit tests for kernel substrates: costs, allocation, free pool, VM."""

from dataclasses import fields, replace

import pytest

from repro.harness.experiment import scaled_policy
from repro.kernel.allocation import HomeAllocator
from repro.kernel.costs import KernelCosts
from repro.kernel.freelist import FreePagePool
from repro.kernel.vm import PageMode, PageTable
from repro.sim.config import SystemConfig
from repro.sim.engine import simulate
from repro.workloads import generate_workload, migratory


def cost_cells(costs: KernelCosts) -> list[dict]:
    """Two small cells between them charging every kernel cost: fft on
    AS-COMA at 90% runs the pageout daemon, and the migratory app on
    migrating CC-NUMA relocates and migrates pages."""
    cells = (("ASCOMA", 0.9, generate_workload("fft", 0.05)),
             ("CCNUMAMIG", 0.5, migratory.generate(scale=0.05)))
    return [simulate(wl, scaled_policy(arch),
                     SystemConfig(n_nodes=wl.n_nodes, memory_pressure=pressure,
                                  kernel=costs)).to_dict()
            for arch, pressure, wl in cells]


@pytest.fixture(scope="module")
def default_cost_cells():
    return cost_cells(KernelCosts())


class TestKernelCosts:
    def test_defaults_positive(self):
        costs = KernelCosts()
        assert costs.page_fault > 0
        assert costs.relocation_interrupt > 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            KernelCosts(page_fault=-1)

    def test_daemon_run_cost_composition(self):
        costs = KernelCosts(context_switch=100, daemon_dispatch=50,
                            daemon_scan_per_page=10)
        assert costs.daemon_run_cost(pages_scanned=3) == 2 * 100 + 50 + 30

    def test_flush_cost_linear(self):
        costs = KernelCosts(flush_per_line=10)
        assert costs.flush_cost(0) == 0
        assert costs.flush_cost(7) == 70

    def test_relocation_includes_interrupt_and_remap(self):
        costs = KernelCosts()
        assert costs.relocation_cost(0) == (costs.relocation_interrupt
                                            + costs.page_remap)

    def test_eviction_excludes_interrupt(self):
        costs = KernelCosts()
        assert costs.eviction_cost(5) == (costs.page_remap
                                          + 5 * costs.flush_per_line)

    @pytest.mark.parametrize("name", [f.name for f in fields(KernelCosts)])
    def test_every_cost_moves_a_result(self, name, default_cost_cells):
        """A cost no run charges is a knob that changes nothing."""
        costs = KernelCosts()
        doubled = replace(costs, **{name: 2 * getattr(costs, name)})
        assert cost_cells(doubled) != default_cost_cells


class TestHomeAllocator:
    def test_first_touch_wins_under_quota(self):
        alloc = HomeAllocator(4, total_shared_pages=8)  # quota 2
        assert alloc.home_of(0, toucher=3) == 3
        assert alloc.home_of(1, toucher=3) == 3

    def test_assignment_is_sticky(self):
        alloc = HomeAllocator(4, 8)
        alloc.home_of(0, 3)
        assert alloc.home_of(0, 1) == 3

    def test_round_robin_after_quota(self):
        alloc = HomeAllocator(4, 8)  # quota 2
        for page in range(2):
            alloc.home_of(page, 0)
        third = alloc.home_of(2, 0)  # node 0 over quota: spills
        assert third == 1  # the round-robin cursor's first node under quota
        assert alloc.home_of(3, 0) == 2

    def test_balanced_when_one_node_touches_everything(self):
        alloc = HomeAllocator(4, 16)  # quota 4
        for page in range(16):
            alloc.home_of(page, 0)
        assert alloc.imbalance() == 0
        assert alloc.pages_homed_at(0) == 4

    def test_overflow_beyond_all_quotas_spills_to_least_loaded(self):
        alloc = HomeAllocator(2, 2)  # quota 1
        alloc.home_of(0, 0)
        alloc.home_of(1, 0)
        alloc.home_of(2, 0)  # everyone at quota: least-loaded fallback
        assert alloc.imbalance() <= 1

    def test_rejects_bad_toucher(self):
        with pytest.raises(ValueError):
            HomeAllocator(4, 8).home_of(0, toucher=9)

    def test_assigned(self):
        alloc = HomeAllocator(2, 4)
        assert not alloc.assigned(0)
        alloc.home_of(0, 0)
        assert alloc.assigned(0)


class TestFreePagePool:
    def test_allocate_until_empty(self):
        pool = FreePagePool(2, total_frames=100)
        assert pool.try_allocate()
        assert pool.try_allocate()
        assert not pool.try_allocate()
        assert pool.free == 0 and pool.allocations == 2

    def test_release_returns_frame(self):
        pool = FreePagePool(1, 100)
        pool.try_allocate()
        pool.release()
        assert pool.free == 1

    def test_release_overflow_raises(self):
        pool = FreePagePool(1, 100)
        with pytest.raises(RuntimeError):
            pool.release()

    def test_water_marks_scale_with_total(self):
        pool = FreePagePool(100, total_frames=1000,
                            free_min_frac=0.01, free_target_frac=0.05)
        assert pool.free_min == 10
        assert pool.free_target == 50

    def test_water_marks_clamped_to_capacity(self):
        pool = FreePagePool(3, total_frames=1000,
                            free_min_frac=0.01, free_target_frac=0.05)
        assert pool.free_min <= 3
        assert pool.free_target <= 3

    def test_below_min_and_target(self):
        pool = FreePagePool(10, 100, free_min_frac=0.02,
                            free_target_frac=0.05)
        assert not pool.below_min
        for _ in range(9):
            pool.try_allocate()
        assert pool.below_min and pool.below_target

    def test_deficit_to_target(self):
        pool = FreePagePool(10, 100, free_min_frac=0.02,
                            free_target_frac=0.05)
        for _ in range(8):
            pool.try_allocate()
        assert pool.deficit_to_target() == pool.free_target - 2

    def test_in_use(self):
        pool = FreePagePool(5, 100)
        pool.try_allocate()
        assert pool.in_use == 1

    def test_rejects_bad_fractions(self):
        with pytest.raises(ValueError):
            FreePagePool(5, 100, free_min_frac=0.5, free_target_frac=0.1)


class TestPageTable:
    def test_modes(self):
        pt = PageTable(32)
        assert pt.mode_of(0) == PageMode.UNMAPPED
        pt.map_home(0)
        assert pt.mode_of(0) == PageMode.HOME
        pt.map_ccnuma(1)
        assert pt.mode_of(1) == PageMode.CCNUMA

    def test_double_map_rejected(self):
        pt = PageTable(32)
        pt.map_home(0)
        with pytest.raises(RuntimeError):
            pt.map_ccnuma(0)

    def test_scoma_map_starts_invalid(self):
        pt = PageTable(32)
        pt.map_scoma(5)
        assert pt.mode_of(5) == PageMode.SCOMA
        assert pt.valid_chunks(5) == 0

    def test_valid_bits(self):
        pt = PageTable(32)
        pt.map_scoma(5)
        pt.set_chunk_valid(5, 3)
        assert pt.chunk_valid(5, 3)
        assert not pt.chunk_valid(5, 2)
        pt.clear_chunk_valid(5, 3)
        assert not pt.chunk_valid(5, 3)

    def test_ccnuma_to_scoma_is_counted_remap(self):
        pt = PageTable(32)
        pt.map_ccnuma(1)
        pt.map_scoma(1)
        assert pt.mode_of(1) == PageMode.SCOMA
        assert list(pt.scoma_clock) == [1]

    def test_unmap_scoma_to_ccnuma(self):
        pt = PageTable(32)
        pt.map_scoma(1)
        pt.unmap_scoma(1, to_ccnuma=True)
        assert pt.mode_of(1) == PageMode.CCNUMA
        assert pt.valid_mask(1) == 0

    def test_unmap_scoma_to_unmapped(self):
        pt = PageTable(32)
        pt.map_scoma(1)
        pt.unmap_scoma(1, to_ccnuma=False)
        assert pt.mode_of(1) == PageMode.UNMAPPED

    def test_unmap_non_scoma_rejected(self):
        pt = PageTable(32)
        pt.map_ccnuma(1)
        with pytest.raises(RuntimeError):
            pt.unmap_scoma(1)

    def test_clock_tracks_scoma_pages(self):
        pt = PageTable(32)
        pt.map_scoma(1)
        pt.map_scoma(2)
        assert list(pt.scoma_clock) == [1, 2]
        pt.unmap_scoma(1)
        assert list(pt.scoma_clock) == [2]
        assert pt.scoma_page_count() == 1

    def test_home_to_scoma_rejected(self):
        pt = PageTable(32)
        pt.map_home(1)
        with pytest.raises(RuntimeError):
            pt.map_scoma(1)

    def test_rejects_nonpositive_chunk_count(self):
        with pytest.raises(ValueError):
            PageTable(0)

    def test_clock_remove_of_missing_page_raises(self):
        pt = PageTable(32)
        pt.map_scoma(1)
        with pytest.raises(ValueError):
            pt.scoma_clock.remove(2)

    def test_wide_pages_supported(self):
        # Python's arbitrary-precision masks place no 64-chunk ceiling
        # on a page (the vector kernel mirrors this with multi-word
        # bitmaps).
        pt = PageTable(65)
        pt.map_scoma(1)
        pt.set_chunk_valid(1, 64)
        assert pt.chunk_valid(1, 64)
        assert not pt.chunk_valid(1, 63)
        assert pt.valid_chunks(1) == 1
        assert pt.full_mask == (1 << 65) - 1
