"""Neighbor caching for packets addressed to sleeping nodes.

An active hop-neighbor of a sleeping destination stores the packet and hands
it over once the two are awake together. Volumes per destination, and their
total, the occupancy, are maintained incrementally and must always match the
sums recomputed from the entries. A network's caches share one holder index
(destination -> holders with volume); ``_bump`` keeps it.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from ecsim.core import NodeId
from ecsim.traffic import Packet


class StoreResult(Enum):
    ACCEPTED = "accepted"
    REJECTED_FULL = "full"


class CacheEntry(NamedTuple):
    packet: Packet
    stored_at: float


class CacheStore:
    """FIFO packet cache of node ``holder``, bounded in bits."""

    def __init__(self, capacity_bits: int, holder: NodeId = 0, index: dict | None = None):
        if capacity_bits < 0:
            raise ValueError("cache capacity must be >= 0")
        self.capacity_bits = capacity_bits
        self.holder = holder
        self._index: dict[NodeId, set[NodeId]] = {} if index is None else index
        self._entries: list[CacheEntry] = []
        self._volume_by_dst: dict[NodeId, int] = {}
        self._used_bits = 0

    @property
    def used_bits(self) -> int:
        return self._used_bits

    @property
    def free_bits(self) -> int:
        return self.capacity_bits - self._used_bits

    def entry_count(self) -> int:
        return len(self._entries)

    def volume_for(self, dst: NodeId) -> int:
        """Cached bits destined for ``dst`` (V maintained incrementally)."""
        return self._volume_by_dst.get(dst, 0)

    def recomputed_volumes(self) -> dict[NodeId, int]:
        """Volume per destination recomputed from entries (consistency check)."""
        out: dict[NodeId, int] = {}
        for entry in self._entries:
            out[entry.packet.dst] = out.get(entry.packet.dst, 0) + entry.packet.size_bits
        return out

    def destinations(self) -> list[NodeId]:
        # _bump pops a volume that reaches zero: every listed one is positive.
        return sorted(self._volume_by_dst)

    def hosting_delay(self, dst: NodeId, now: float) -> float | None:
        """Current hosting delay of the oldest entry for ``dst``, if any."""
        for entry in self._entries:
            if entry.packet.dst == dst:
                return now - entry.stored_at
        return None

    def store(self, packet: Packet, now: float) -> StoreResult:
        """Store a packet for a sleeping destination. A packet has one keeper:
        the caller passes one that no cache holds."""
        if packet.size_bits > self.free_bits:
            return StoreResult.REJECTED_FULL
        self._entries.append(CacheEntry(packet, now))
        self._bump(packet.dst, packet.size_bits)
        return StoreResult.ACCEPTED

    def deliver_on_wake(self, woken: NodeId) -> list[CacheEntry]:
        """Pop all entries destined for the woken node, in stored (FIFO) order."""
        if woken not in self._volume_by_dst:
            return []
        handed: list[CacheEntry] = []
        kept: list[CacheEntry] = []
        for entry in self._entries:
            (handed if entry.packet.dst == woken else kept).append(entry)
        self._entries = kept
        for entry in handed:
            self._bump(woken, -entry.packet.size_bits)
        return handed

    def evict_expired(self, now: float) -> list[Packet]:
        """Drop delay-sensitive entries past deadline."""
        dropped: list[Packet] = []
        kept: list[CacheEntry] = []
        for entry in self._entries:
            packet = entry.packet
            if packet.past_deadline(now):
                dropped.append(packet)
                self._bump(packet.dst, -packet.size_bits)
            else:
                kept.append(entry)
        self._entries = kept
        return dropped

    def _bump(self, dst: NodeId, delta: int) -> None:
        old = self._volume_by_dst.get(dst, 0)
        value = old + delta
        if value < 0:
            raise AssertionError("cache volume accounting went negative")
        self._used_bits += delta
        if value:
            self._volume_by_dst[dst] = value
            if not old:  # the volume just turned positive (sizes are never zero)
                self._index.setdefault(dst, set()).add(self.holder)
        else:
            del self._volume_by_dst[dst]
            self._index[dst].discard(self.holder)
            if not self._index[dst]:
                del self._index[dst]
