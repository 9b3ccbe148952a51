"""Memory-hierarchy substrates: address map, L1 cache, RAC, DRAM banks."""

from .address import AddressMap
from .cache import DirectMappedCache
from .dram import BankedMemory
from .rac import RemoteAccessCache
from .setassoc import SetAssociativeCache

__all__ = [
    "AddressMap",
    "BankedMemory",
    "DirectMappedCache",
    "RemoteAccessCache",
    "SetAssociativeCache",
]
