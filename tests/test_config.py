"""Unit tests for SystemConfig and its derived quantities."""

import pytest

from repro.sim.config import SystemConfig


class TestDefaults:
    def test_paper_table3_values(self):
        cfg = SystemConfig()
        assert cfg.l1_size_bytes == 8192
        assert cfg.line_bytes == 32
        assert cfg.chunk_bytes == 128
        assert cfg.page_bytes == 4096
        assert cfg.clock_mhz == 120

    def test_table4_latencies(self):
        cfg = SystemConfig()
        assert cfg.l1_hit_cycles == 1
        assert cfg.local_memory_cycles == 50
        assert cfg.rac_hit_cycles == 36
        assert cfg.remote_min_cycles() == 180

    def test_remote_to_local_ratio_is_paper_value(self):
        assert SystemConfig().remote_to_local_ratio() == pytest.approx(3.6)

    def test_address_map_geometry(self):
        amap = SystemConfig().address_map()
        assert amap.lines_per_page == 128
        assert amap.chunks_per_page == 32


class TestCacheFrames:
    @pytest.mark.parametrize("pressure,home,expected", [
        (0.1, 100, 900),   # 10% pressure: 9x home pages free
        (0.5, 100, 100),
        (0.9, 100, 11),
        (1.0, 100, 0),     # no free memory at all
    ])
    def test_cache_frames(self, pressure, home, expected):
        cfg = SystemConfig(memory_pressure=pressure)
        assert cfg.cache_frames(home) == expected

    def test_total_frames(self):
        cfg = SystemConfig(memory_pressure=0.5)
        assert cfg.total_frames(100) == 200

    def test_negative_home_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig().cache_frames(-1)

    def test_ideal_pressure_boundary(self):
        """At p = H/(H+R) the cache holds exactly R pages."""
        h, r = 60, 40
        p = h / (h + r)
        cfg = SystemConfig(memory_pressure=p)
        assert cfg.cache_frames(h) == r


class TestValidation:
    def test_pressure_bounds(self):
        with pytest.raises(ValueError):
            SystemConfig(memory_pressure=0.0)
        with pytest.raises(ValueError):
            SystemConfig(memory_pressure=1.5)

    def test_nodes_positive(self):
        with pytest.raises(ValueError):
            SystemConfig(n_nodes=0)

    def test_rac_must_beat_remote(self):
        with pytest.raises(ValueError):
            SystemConfig(rac_hit_cycles=500)

    def test_skipped_invalidation_node_is_on_the_machine(self):
        """A node id the machine lacks would drop no invalidation, so
        the checker's self-test would inject nothing."""
        for node in (-1, 0, 7):
            assert SystemConfig(debug_skip_invalidate_node=node)
        for node in (-2, 8, 99):
            with pytest.raises(ValueError, match="debug_skip_invalidate"):
                SystemConfig(debug_skip_invalidate_node=node)
        with pytest.raises(ValueError):
            SystemConfig(debug_skip_invalidate_node=5).with_nodes(4)


class TestCopies:
    def test_at_pressure(self):
        cfg = SystemConfig(memory_pressure=0.5)
        other = cfg.at_pressure(0.9)
        assert other.memory_pressure == 0.9
        assert cfg.memory_pressure == 0.5  # original untouched
        assert other.n_nodes == cfg.n_nodes

    def test_with_nodes(self):
        assert SystemConfig().with_nodes(4).n_nodes == 4

    def test_describe_contains_key_rows(self):
        desc = SystemConfig().describe()
        assert "L1 Cache" in desc and "RAC" in desc and "Network" in desc
        assert "3.60" in desc["Remote:local ratio"]
