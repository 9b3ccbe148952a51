"""Directory-based write-invalidate coherence over 128-byte DSM chunks.

Transactions are not logged message by message.  What an observer can
watch of them is their effect on the nodes, published on the machine's
event bus (:mod:`repro.sim.events`): an ``invalidate`` event per
invalidated sharer and a ``demote`` event per owner demoted by a
forwarded read.
"""

from .directory import Directory
from .protocol import CoherenceProtocol

__all__ = [
    "CoherenceProtocol",
    "Directory",
]
