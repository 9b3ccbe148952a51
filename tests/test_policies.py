"""Unit tests for the five architecture policies."""

import pytest

from repro.core import (ASCOMAPolicy, CCNUMAPolicy, POLICIES, RNUMAPolicy,
                        SCOMAPolicy, VCNUMAPolicy, make_policy)
from repro.core.policy import RelocationDecision
from repro.kernel.costs import KernelCosts
from repro.kernel.freelist import FreePagePool
from repro.kernel.pageout import DaemonRunResult, PageoutDaemon
from repro.kernel.vm import DEFAULT_PAGES, PageMode, PageTable


def daemon_result(reclaimed, target):
    return DaemonRunResult(reclaimed=reclaimed, scanned=0, target=target,
                           cost=0)


def make_daemon():
    pt = PageTable(32)
    pool = FreePagePool(4, 100)
    return PageoutDaemon(pt, pool, KernelCosts(), bytearray(DEFAULT_PAGES),
                         base_interval=1000)


class TestRegistry:
    def test_all_architectures_present(self):
        assert set(POLICIES) == {"CCNUMA", "CCNUMAMIG", "SCOMA", "RNUMA",
                                 "VCNUMA", "ASCOMA"}

    @pytest.mark.parametrize("name", ["ccnuma", "S-COMA", "as_coma", "AsCoMa"])
    def test_name_normalisation(self, name):
        assert make_policy(name) is not None

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown architecture"):
            make_policy("numa")

    def test_kwargs_forwarded(self):
        policy = make_policy("rnuma", threshold=7)
        assert policy.make_node_state().threshold == 7


class TestCCNUMA:
    def test_always_ccnuma_mode(self):
        policy = CCNUMAPolicy()
        state = policy.make_node_state()
        assert policy.initial_mode(state, free_frames=100) == PageMode.CCNUMA

    def test_threshold_disabled(self):
        state = CCNUMAPolicy().make_node_state()
        assert state.effective_threshold() == 0

    def test_no_page_cache(self):
        assert not CCNUMAPolicy().uses_page_cache

    def test_hint_skipped(self):
        policy = CCNUMAPolicy()
        assert policy.on_relocation_hint(policy.make_node_state(), 5) == \
            RelocationDecision.SKIP


class TestSCOMA:
    def test_always_scoma_mode_even_when_dry(self):
        policy = SCOMAPolicy()
        state = policy.make_node_state()
        assert policy.initial_mode(state, free_frames=0) == PageMode.SCOMA

    def test_evicts_to_unmapped(self):
        assert not SCOMAPolicy().evict_to_ccnuma

    def test_threshold_disabled(self):
        assert SCOMAPolicy().make_node_state().effective_threshold() == 0


class TestRNUMA:
    def test_starts_ccnuma(self):
        policy = RNUMAPolicy()
        state = policy.make_node_state()
        assert policy.initial_mode(state, free_frames=100) == PageMode.CCNUMA

    def test_paper_default_threshold(self):
        assert RNUMAPolicy().make_node_state().threshold == 64

    def test_relocates_unconditionally(self):
        policy = RNUMAPolicy()
        state = policy.make_node_state()
        assert policy.on_relocation_hint(state, free_frames=0) == \
            RelocationDecision.RELOCATE

    def test_no_backoff_on_thrash(self):
        policy = RNUMAPolicy(threshold=16)
        state = policy.make_node_state()
        daemon = make_daemon()
        policy.on_daemon_result(state, daemon_result(0, 4), daemon)
        assert state.effective_threshold() == 16  # unchanged

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError):
            RNUMAPolicy(threshold=0)


class TestVCNUMA:
    def test_starts_ccnuma(self):
        policy = VCNUMAPolicy()
        state = policy.make_node_state()
        assert policy.initial_mode(state, 100) == PageMode.CCNUMA

    def test_relocates_unconditionally(self):
        policy = VCNUMAPolicy()
        assert policy.on_relocation_hint(policy.make_node_state(), 0) == \
            RelocationDecision.RELOCATE

    def test_threshold_rises_after_losing_evictions(self):
        policy = VCNUMAPolicy(threshold=16, break_even=8, increment=8,
                              min_evictions_per_eval=4)
        state = policy.make_node_state()
        for _ in range(4):  # 4 evictions with 0 page-cache hits: all losers
            policy.on_page_evicted(state, page=1, pagecache_hits=0,
                                   cached_pages=2)
        assert state.effective_threshold() == 24

    def test_threshold_recovers_after_winning_evictions(self):
        policy = VCNUMAPolicy(threshold=16, break_even=8, increment=8,
                              min_evictions_per_eval=4)
        state = policy.make_node_state()
        for _ in range(4):
            policy.on_page_evicted(state, 1, pagecache_hits=0, cached_pages=2)
        for _ in range(4):
            policy.on_page_evicted(state, 1, pagecache_hits=100,
                                   cached_pages=2)
        assert state.effective_threshold() == 16

    def test_evaluation_cadence_respected(self):
        policy = VCNUMAPolicy(threshold=16, break_even=8, increment=8,
                              min_evictions_per_eval=8)
        state = policy.make_node_state()
        for _ in range(7):
            policy.on_page_evicted(state, 1, pagecache_hits=0, cached_pages=1)
        assert state.effective_threshold() == 16  # not evaluated yet


class TestASCOMA:
    def test_scoma_first_while_frames_free(self):
        policy = ASCOMAPolicy()
        state = policy.make_node_state()
        assert policy.initial_mode(state, free_frames=1) == PageMode.SCOMA

    def test_ccnuma_when_pool_dry(self):
        policy = ASCOMAPolicy()
        state = policy.make_node_state()
        assert policy.initial_mode(state, free_frames=0) == PageMode.CCNUMA

    def test_never_force_evicts_for_relocation(self):
        policy = ASCOMAPolicy()
        state = policy.make_node_state()
        assert policy.on_relocation_hint(state, free_frames=0) == \
            RelocationDecision.RELOCATE_IF_FREE

    def test_thrash_raises_threshold_and_stretches_daemon(self):
        policy = ASCOMAPolicy(threshold=16, increment=8)
        state = policy.make_node_state()
        daemon = make_daemon()
        policy.on_daemon_result(state, daemon_result(0, 4), daemon)
        assert state.effective_threshold() == 24
        assert daemon.interval > daemon.base_interval

    def test_relocation_disabled_after_consecutive_thrash(self):
        policy = ASCOMAPolicy(threshold=16, increment=8, disable_after=3)
        state = policy.make_node_state()
        daemon = make_daemon()
        for _ in range(3):
            policy.on_daemon_result(state, daemon_result(0, 4), daemon)
        assert state.effective_threshold() == 0  # relocation off

    def test_recovery_lowers_threshold_and_re_enables(self):
        policy = ASCOMAPolicy(threshold=16, increment=8, disable_after=2)
        state = policy.make_node_state()
        daemon = make_daemon()
        for _ in range(2):
            policy.on_daemon_result(state, daemon_result(0, 4), daemon)
        assert state.effective_threshold() == 0
        policy.on_daemon_result(state, daemon_result(4, 4), daemon)
        assert state.effective_threshold() > 0
        assert daemon.interval == daemon.base_interval

    def test_threshold_never_drops_below_base(self):
        policy = ASCOMAPolicy(threshold=16, increment=8)
        state = policy.make_node_state()
        daemon = make_daemon()
        for _ in range(5):
            policy.on_daemon_result(state, daemon_result(4, 4), daemon)
        assert state.backoff.threshold == 16

    def test_ablation_flags(self):
        no_first = ASCOMAPolicy(scoma_first=False)
        state = no_first.make_node_state()
        assert no_first.initial_mode(state, 100) == PageMode.CCNUMA

        no_adapt = ASCOMAPolicy(adaptive=False, threshold=16)
        state = no_adapt.make_node_state()
        no_adapt.on_daemon_result(state, daemon_result(0, 4), make_daemon())
        assert state.effective_threshold() == 16

    def test_describe_mentions_backoff(self):
        desc = ASCOMAPolicy().describe()
        assert "backoff" in desc
        assert desc["scoma_first"] is True


class TestDescribe:
    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_every_policy_describes_itself(self, name):
        desc = make_policy(name).describe()
        # Display names may carry punctuation the registry key drops.
        assert desc["name"].replace("-", "") == name
        assert "uses_page_cache" in desc
