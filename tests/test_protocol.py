"""Unit tests for the coherence protocol's latency composition."""


from repro.coherence.directory import Directory
from repro.coherence.protocol import CoherenceProtocol
from repro.interconnect.network import Network
from repro.interconnect.topology import SwitchTopology
from repro.mem.dram import BankedMemory
from tests.conftest import DirOut


def make_protocol(n_nodes=4, contention=False):
    directory = Directory(n_nodes, 32)
    network = Network(SwitchTopology(n_nodes), propagation=2, fall_through=4,
                      port_occupancy=8 if contention else 0)
    memories = [BankedMemory(4, 50, 20) for _ in range(n_nodes)]
    invalidated = []
    demoted = []
    protocol = CoherenceProtocol(
        directory, network, memories,
        invalidate_chunk=lambda n, c, now=None: invalidated.append((n, c)),
        demote_chunk=lambda n, c, now=None: demoted.append((n, c)))
    return protocol, invalidated, demoted


class TestRemoteFetch:
    def test_two_hop_latency(self):
        protocol, _, _ = make_protocol()
        lat, _ = protocol.remote_fetch_raw(node=1, chunk=0, page=0, home=0,
                                           is_write=False, threshold=0, now=0)
        # request (6) + memory (50) + response (6)
        assert lat == 62

    def test_three_hop_costs_more(self):
        protocol, _, _ = make_protocol()
        protocol.remote_fetch_raw(2, 0, 0, 0, True, 0, 0)  # node 2 dirties chunk
        lat, out = protocol.remote_fetch_raw(1, 0, 0, 0, False, 0, 100)
        assert DirOut(*out).forwarded
        assert lat > 62
        assert protocol.three_hop_fetches == 1

    def test_forwarded_read_demotes_owner(self):
        protocol, _, demoted = make_protocol()
        protocol.remote_fetch_raw(2, 0, 0, 0, True, 0, 0)
        protocol.remote_fetch_raw(1, 0, 0, 0, False, 0, 100)
        assert (2, 0) in demoted

    def test_write_invalidates_and_stalls(self):
        protocol, invalidated, _ = make_protocol()
        protocol.remote_fetch_raw(1, 0, 0, 0, False, 0, 0)
        protocol.remote_fetch_raw(2, 0, 0, 0, False, 0, 0)
        lat, _ = protocol.remote_fetch_raw(3, 0, 0, 0, True, 0, 100)
        assert set(invalidated) == {(1, 0), (2, 0)}
        assert lat > 62  # invalidation round trip added
        assert protocol.write_stalls == 1

    def test_refetch_flag_passed_through(self):
        protocol, _, _ = make_protocol()
        protocol.remote_fetch_raw(1, 0, 0, 0, False, 0, 0)
        _, out = protocol.remote_fetch_raw(1, 0, 0, 0, False, 0, 0)
        assert DirOut(*out).refetch

    def test_counts_fetches(self):
        protocol, _, _ = make_protocol()
        protocol.remote_fetch_raw(1, 0, 0, 0, False, 0, 0)
        protocol.remote_fetch_raw(1, 1, 0, 0, False, 0, 0)
        assert protocol.remote_fetches == 2


class TestLocalFetch:
    def test_local_latency_is_memory_only(self):
        protocol, _, _ = make_protocol()
        lat, _ = protocol.local_fetch_raw(0, 0, 0, False, 0)
        assert lat == 50

    def test_local_fetch_of_remotely_dirty_chunk(self):
        protocol, _, _ = make_protocol()
        protocol.remote_fetch_raw(1, 0, 0, 0, True, 0, 0)
        lat, out = protocol.local_fetch_raw(0, 0, 0, False, 100)
        assert DirOut(*out).forwarded
        assert lat > 50

    def test_local_write_invalidates_sharers(self):
        protocol, invalidated, _ = make_protocol()
        protocol.remote_fetch_raw(1, 0, 0, 0, False, 0, 0)
        protocol.local_fetch_raw(0, 0, 0, True, 100)
        assert (1, 0) in invalidated


class TestUpgrade:
    def test_upgrade_round_trip(self):
        protocol, _, _ = make_protocol()
        protocol.remote_fetch_raw(1, 0, 0, 0, False, 0, 0)
        lat = protocol.upgrade(1, 0, 0, 0, 100)
        assert lat >= 12  # request/response network legs

    def test_upgrade_at_home_is_free_without_sharers(self):
        protocol, _, _ = make_protocol()
        protocol.local_fetch_raw(0, 0, 0, False, 0)
        assert protocol.upgrade(0, 0, 0, 0, 100) == 0

    def test_upgrade_invalidates_other_sharers(self):
        protocol, invalidated, _ = make_protocol()
        protocol.remote_fetch_raw(1, 0, 0, 0, False, 0, 0)
        protocol.remote_fetch_raw(2, 0, 0, 0, False, 0, 0)
        protocol.upgrade(1, 0, 0, 0, 100)
        assert (2, 0) in invalidated
        assert (1, 0) not in invalidated


class TestContention:
    def test_port_contention_raises_latency(self):
        quiet, _, _ = make_protocol(contention=False)
        busy, _, _ = make_protocol(contention=True)
        base, _ = quiet.remote_fetch_raw(1, 0, 0, 0, False, 0, 0)
        # Hammer the same home at the same instant.
        lats = [busy.remote_fetch_raw(n, c, 0, 0, False, 0, 0)[0]
                for n, c in ((1, 0), (2, 1), (3, 2))]
        assert max(lats) > base
