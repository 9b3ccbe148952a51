"""Machine assembly: nodes + directory + network + protocol wiring.

Builds the full simulated multiprocessor for one (architecture,
workload, pressure) combination and wires the cross-node callbacks:
chunk invalidation (writes) and owner demotion (reads of dirty data)
reach into the victim node's L1/RAC/page-cache state.

All machine state the replay kernel reads or writes is allocated here,
once: the directory, the home allocator and the network own their
buffers, the per-node families (counters included) are rows of
:attr:`Machine.blocks`, and the network's, directory's and protocol's
counters share one row, :attr:`Machine.counters`.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from ..coherence.directory import N_DIR, Directory
from ..coherence.protocol import N_PROTO, CoherenceProtocol
from ..core.policy import ArchitecturePolicy
from ..interconnect.bus import SplitTransactionBus
from ..interconnect.network import N_NET, Network
from ..interconnect.topology import SwitchTopology
from ..kernel.allocation import make_allocator
from .config import SystemConfig
from .events import EventBus
from .node import CTR_BUS, N_CTR, Node, NodeBlocks

__all__ = ["Machine"]

#: Where the network's, directory's and protocol's counters start in the
#: machine's counter row, and its length; the replay kernel reads
#: these names (``mach[M_DIR + DIR_HINTS]``).
M_NET, M_DIR, M_PROTO, N_MACHINE = accumulate((0, N_NET, N_DIR, N_PROTO))


def _cross_node_callbacks(nodes: list[Node], skip_node: int):
    """The protocol's ``invalidate_chunk`` and ``demote_chunk``: each
    reaches into the victim node.  They close over the node list, not
    the machine, so a machine holds no reference cycle and is freed as
    soon as its last user lets go of it."""

    def invalidate_chunk(node_id: int, chunk: int,
                         now: int | None = None) -> None:
        if node_id == skip_node:
            # Deliberate protocol bug used to exercise the invariant
            # checker (repro.check): the victim keeps a stale copy that
            # the directory no longer knows about.
            return
        nodes[node_id].invalidate_chunk(chunk, now)

    def demote_chunk(node_id: int, chunk: int,
                     now: int | None = None) -> None:
        nodes[node_id].demote_chunk(chunk, now)

    return invalidate_chunk, demote_chunk


class Machine:
    """The assembled multiprocessor."""

    def __init__(self, config: SystemConfig, policy: ArchitecturePolicy,
                 home_pages_per_node: int, total_shared_pages: int,
                 n_pages: int = 0) -> None:
        self.config = config
        self.policy = policy
        self.amap = config.address_map()
        #: Pages every page-indexed buffer covers: the workload's shared
        #: pages, or more when *n_pages* (the pages its trace references)
        #: says so.
        self.n_pages = max(total_shared_pages, n_pages, 1)
        #: Shared rare-event bus (near-zero cost while unobserved).
        self.events = EventBus()
        #: The network's, directory's and protocol's counters (``M_*``).
        self.counters = counters = np.zeros(N_MACHINE, np.int64)

        self.directory = Directory(config.n_nodes, self.amap.chunks_per_page,
                                   self.n_pages,
                                   grant_exclusive=config.protocol == "mesi",
                                   counters=counters[M_DIR:M_PROTO])
        self.network = Network(
            topology=SwitchTopology(config.n_nodes, config.switch_radix),
            propagation=config.net_propagation_cycles,
            fall_through=config.net_fall_through_cycles,
            port_occupancy=(config.net_port_occupancy_cycles
                            if config.model_contention else 0),
            counters=counters[M_NET:M_DIR],
        )
        self.allocator = make_allocator(config.home_placement,
                                        config.n_nodes,
                                        total_shared_pages, self.n_pages)
        self.blocks = NodeBlocks(config.n_nodes, config, self.amap,
                                 self.n_pages)

        cache_frames = (config.cache_frames(home_pages_per_node)
                        if policy.uses_page_cache else 0)
        if policy.mandatory_page_cache:
            # A pure S-COMA machine cannot run with zero frames: every
            # remote access must be backed by a local page.
            cache_frames = max(1, cache_frames)
        total_frames = config.total_frames(home_pages_per_node)
        self.nodes = [
            Node(i, config, self.amap, self.directory, policy,
                 cache_frames, total_frames, events=self.events,
                 blocks=self.blocks)
            for i in range(config.n_nodes)
        ]
        self.buses = [SplitTransactionBus(
            config.bus_occupancy_cycles if config.model_contention else 0,
            busy_until=self.blocks.bus_busy[i:i + 1],
            counters=self.blocks.counters[i, CTR_BUS:N_CTR])
            for i in range(config.n_nodes)]

        invalidate_chunk, demote_chunk = _cross_node_callbacks(
            self.nodes, config.debug_skip_invalidate_node)
        self.protocol = CoherenceProtocol(
            self.directory, self.network,
            memories=[n.memory for n in self.nodes],
            invalidate_chunk=invalidate_chunk,
            demote_chunk=demote_chunk,
            stall_on_invalidate=config.consistency == "sc",
            counters=counters[M_PROTO:N_MACHINE],
        )

    # -- introspection ----------------------------------------------------
    def page_cache_frames(self) -> int:
        return self.nodes[0].pool.capacity if self.nodes else 0

    def utilisation_report(self) -> dict:
        return {
            "network": self.network.utilisation_stats(),
            "memory": [n.memory.utilisation_stats() for n in self.nodes],
            "buses": [b.utilisation_stats() for b in self.buses],
            "directory": {
                "refetches": self.directory.total_refetches,
                "relocation_hints": self.directory.relocation_hints,
                "forwards": self.directory.forwards,
                "invalidations": self.directory.invalidations_sent,
            },
        }
