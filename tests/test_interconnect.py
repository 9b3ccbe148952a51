"""Unit tests for the switch topology, the network model and the bus."""

import pytest

from repro.interconnect.bus import SplitTransactionBus
from repro.interconnect.network import Network
from repro.interconnect.topology import SwitchTopology


class TestSwitchTopology:
    def test_self_is_zero_hops(self):
        assert SwitchTopology(8).hops(3, 3) == 0

    def test_same_switch_one_hop(self):
        topo = SwitchTopology(8, radix=4)
        assert topo.hops(0, 3) == 1

    def test_cross_switch_two_hops(self):
        topo = SwitchTopology(8, radix=4)
        assert topo.hops(0, 4) == 2

    def test_small_machine_is_single_crossbar(self):
        topo = SwitchTopology(4, radix=4)
        for a in range(4):
            for b in range(4):
                assert topo.hops(a, b) == (0 if a == b else 1)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            SwitchTopology(8).hops(0, 8)

    def test_bad_radix_rejected(self):
        with pytest.raises(ValueError):
            SwitchTopology(8, radix=1)


class TestNetwork:
    def test_min_one_way(self):
        net = Network(SwitchTopology(8), propagation=2, fall_through=4)
        assert net.min_one_way(0, 1) == 6
        assert net.min_one_way(0, 4) == 8
        assert net.min_one_way(2, 2) == 0

    def test_one_way_uncontended_equals_min(self):
        net = Network(SwitchTopology(8), port_occupancy=0)
        assert net.one_way(0, 1, now=0) == net.min_one_way(0, 1)

    def test_same_node_is_free(self):
        net = Network(SwitchTopology(8))
        assert net.one_way(3, 3, now=0) == 0

    def test_input_port_contention(self):
        net = Network(SwitchTopology(8), propagation=2, fall_through=4,
                      port_occupancy=8)
        first = net.one_way(0, 1, now=0)
        second = net.one_way(2, 1, now=0)  # same destination port
        assert second == first + 8

    def test_contention_drains_over_time(self):
        net = Network(SwitchTopology(8), port_occupancy=8)
        net.one_way(0, 1, now=0)
        assert net.one_way(2, 1, now=100) == net.min_one_way(2, 1)

    def test_round_trip(self):
        net = Network(SwitchTopology(8), port_occupancy=0)
        assert net.round_trip(0, 1, 0) == 12

    def test_stats(self):
        net = Network(SwitchTopology(8), port_occupancy=8)
        net.one_way(0, 1, 0)
        net.one_way(2, 1, 0)
        stats = net.utilisation_stats()
        assert stats["messages"] == 2
        assert stats["contended_messages"] == 1

    def test_rejects_negative_params(self):
        with pytest.raises(ValueError):
            Network(SwitchTopology(4), propagation=-1)


class TestBus:
    def test_back_to_back_queues(self):
        bus = SplitTransactionBus(occupancy=4)
        assert bus.transact(0) == 0
        assert bus.transact(0) == 4
        assert bus.transact(0) == 8

    def test_queue_drains(self):
        bus = SplitTransactionBus(occupancy=4)
        bus.transact(0)
        assert bus.transact(10) == 0

    def test_stats(self):
        bus = SplitTransactionBus(occupancy=4)
        bus.transact(0)
        bus.transact(0)
        s = bus.utilisation_stats()
        assert s["transactions"] == 2 and s["contended"] == 1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SplitTransactionBus(occupancy=-1)
