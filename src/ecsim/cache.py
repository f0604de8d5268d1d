"""Neighbor caching for packets addressed to sleeping nodes.

An active hop-neighbor of a sleeping destination stores the packet and hands
it over when the destination wakes. Volumes per destination are maintained
incrementally and must always match the recomputed sum. Total occupancy is
the sum of those volumes, one term per destination rather than per entry, and
must likewise match the sum recomputed from the entries. A network's caches
share one holder index (destination -> holders with volume); ``_bump`` keeps it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ecsim.core import NodeId
from ecsim.traffic import Packet, PacketClass


class StoreResult(Enum):
    ACCEPTED = "accepted"
    DUPLICATE = "duplicate"
    REJECTED_FULL = "full"


@dataclass(frozen=True)
class CacheEntry:
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
        self._ids: set[int] = set()
        self._volume_by_dst: dict[NodeId, int] = {}

    @property
    def used_bits(self) -> int:
        return sum(self._volume_by_dst.values())

    @property
    def free_bits(self) -> int:
        return self.capacity_bits - self.used_bits

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
        """Store a packet for a sleeping destination; idempotent per packet id."""
        if packet.id in self._ids:
            return StoreResult.DUPLICATE
        if packet.size_bits > self.free_bits:
            return StoreResult.REJECTED_FULL
        self._entries.append(CacheEntry(packet=packet, stored_at=now))
        self._ids.add(packet.id)
        self._bump(packet.dst, packet.size_bits)
        return StoreResult.ACCEPTED

    def deliver_on_wake(self, woken: NodeId) -> list[CacheEntry]:
        """Pop all entries destined for the woken node, in stored (FIFO) order."""
        handed = [e for e in self._entries if e.packet.dst == woken]
        if handed:
            self._entries = [e for e in self._entries if e.packet.dst != woken]
            for entry in handed:
                self._forget(entry.packet)
        return handed

    def evict_expired(self, now: float) -> list[Packet]:
        """Drop delay-sensitive entries past deadline."""
        dropped: list[Packet] = []
        kept: list[CacheEntry] = []
        for entry in self._entries:
            packet = entry.packet
            if (packet.klass is PacketClass.DELAY_SENSITIVE and packet.deadline is not None
                    and now > packet.deadline):
                dropped.append(packet)
                self._forget(packet)
            else:
                kept.append(entry)
        self._entries = kept
        return dropped

    def _forget(self, packet: Packet) -> None:
        self._ids.discard(packet.id)
        self._bump(packet.dst, -packet.size_bits)

    def _bump(self, dst: NodeId, delta: int) -> None:
        old = self._volume_by_dst.get(dst, 0)
        value = old + delta
        if value < 0:
            raise AssertionError("cache volume accounting went negative")
        if value:
            self._volume_by_dst[dst] = value
            if not old:  # the volume just turned positive (sizes are never zero)
                self._index.setdefault(dst, set()).add(self.holder)
        else:
            del self._volume_by_dst[dst]
            self._index[dst].discard(self.holder)
            if not self._index[dst]:
                del self._index[dst]
