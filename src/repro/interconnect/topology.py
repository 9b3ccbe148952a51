"""Interconnect topology: hop counts between nodes.

The paper's machine uses a 4x4-switch network whose latency is a
propagation delay per switch plus a fall-through delay, with only input
port contention modelled (Table 3).  For the 8-node (and 4-node lu)
configurations studied, every pair of distinct nodes is a small constant
number of switch traversals apart.
"""

from __future__ import annotations

import math

__all__ = ["SwitchTopology"]


class SwitchTopology:
    """Multistage network of `radix`-way switches (the paper's 4x4 switch).

    Nodes sharing a first-level switch are one switch apart; otherwise
    the message climbs ceil(log_radix n) stages.  For n <= radix this is
    a single crossbar: every remote pair is 1 hop.
    """

    def __init__(self, n_nodes: int, radix: int = 4) -> None:
        if n_nodes <= 0:
            raise ValueError("need at least one node")
        if radix < 2:
            raise ValueError("switch radix must be >= 2")
        self.n_nodes = n_nodes
        self.radix = radix
        self.stages = max(1, math.ceil(math.log(max(n_nodes, 2), radix)))

    def hops(self, src: int, dst: int) -> int:
        if not (0 <= src < self.n_nodes and 0 <= dst < self.n_nodes):
            raise ValueError(f"node out of range: {src} -> {dst} (n={self.n_nodes})")
        if src == dst:
            return 0
        if src // self.radix == dst // self.radix:
            return 1
        return self.stages
