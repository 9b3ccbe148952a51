"""Interconnect substrates: switch topology, network latency/contention,
coherent bus."""

from .bus import SplitTransactionBus
from .network import Network
from .topology import SwitchTopology

__all__ = [
    "Network",
    "SplitTransactionBus",
    "SwitchTopology",
]
