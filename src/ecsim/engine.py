"""Deterministic discrete-event loop: event core, energy accounting,
store-and-forward and the neighbour cache. Where schemes differ, the engine
calls the run's scheme plane (``ecsim.schemes``).

One simulation owns one heap of ``Event`` tuples ordered by (time, seq), its
own RNG streams and all mutable world state, so identical (config, seed)
pairs give bit-identical results. Each event reaches its handler through one
module-level table. Energy is charged lazily: whenever a node is touched,
the elapsed interval is billed at its current radio mode's power, in place
on the node's float residual.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import deque
from typing import TYPE_CHECKING, Iterable, NamedTuple

from ecsim import report as report_mod
from ecsim.cache import CacheStore, StoreResult
from ecsim.core import EnergyAccount, EventKind, NodeId, NodePhase, RadioMode, consume, sum_in_order
from ecsim.schemes import RELAY_QUIET_SLOTS, SchemePlane
from ecsim.topology import (
    ConnectivityGraph,
    Grid,
    Position,
    build_connectivity,
    connected_components,
    hop_distances,
    move_step,
    refresh_node,
    repair_distances,
)
from ecsim.traffic import Packet, PacketClass, generate, tx_delay

if TYPE_CHECKING:
    from ecsim.config import ScenarioConfig

# The enum members the event path reads, bound to module names. On Python
# 3.10 and 3.11 (the CI floor, and the benchmark's interpreter) reading
# a member off its class, such as ``NodePhase.SLEEP``, costs about ten times
# a module global read, and every event makes dozens of these reads.
MODE_TX, MODE_RX, MODE_IDLE, MODE_SLEEP = (
    RadioMode.ACTIVE_TX, RadioMode.ACTIVE_RX, RadioMode.IDLE, RadioMode.SLEEP
)
PHASE_ACTIVE, PHASE_SLEEP = NodePhase.ACTIVE, NodePhase.SLEEP
PACKET_ARRIVAL, TX_COMPLETE, SLOT_BOUNDARY, ROUND_SETUP = (
    EventKind.PACKET_ARRIVAL, EventKind.TX_COMPLETE, EventKind.SLOT_BOUNDARY, EventKind.ROUND_SETUP
)
SLEEP_EXPIRY, IDLE_EXPIRY, MOBILITY_STEP, NODE_DEATH, CACHE_DELIVERY = (
    EventKind.SLEEP_EXPIRY, EventKind.IDLE_EXPIRY, EventKind.MOBILITY_STEP,
    EventKind.NODE_DEATH, EventKind.CACHE_DELIVERY,
)
ELASTIC, DELAY_SENSITIVE = PacketClass.ELASTIC, PacketClass.DELAY_SENSITIVE
ACCEPTED, DUPLICATE = StoreResult.ACCEPTED, StoreResult.DUPLICATE


class Event(NamedTuple):
    """One queued event.

    Events order by ``(time, seq)``. ``seq`` is unique within a simulation,
    so a comparison never reaches ``kind`` or ``payload``, and events at
    equal times run in the order they were pushed.
    """

    time: float
    seq: int
    kind: EventKind
    node: NodeId | None
    payload: dict


# --------------------------------------------------------------------------
# Runtime state


class PacketWork:
    """What every scheme records about one generated packet: its terminal
    state (None while in flight), whether its destination was asleep at
    creation, and how often it was deferred."""

    __slots__ = ("packet", "state", "dst_asleep", "defer_count")

    def __init__(self, packet: Packet, dst_asleep: bool):
        self.packet = packet
        self.state: str | None = None
        self.dst_asleep = dst_asleep
        self.defer_count = 0


class SimNode:
    """Mutable per-node simulation state. The battery is two floats in
    joules, billed in place: ``e_residual`` and its initial ``e_max``."""

    __slots__ = (
        "nid",
        "e_residual",
        "e_max",
        "alive",
        "phase",
        "phase_epoch",
        "tx_active",
        "rx_active",
        "mode",
        "mode_epoch",
        "last_touch",
        "outbox",
        "cache",
        "time_in_mode",
        "death_time",
        "wake_at",
        "last_relay_slot",
        "retry_heap",
    )

    def __init__(self, nid: NodeId, initial_energy: float, cache_capacity: int,
                 holders_by_dst: dict[NodeId, set[NodeId]]):
        self.nid = nid
        self.e_residual = self.e_max = initial_energy
        self.alive = True
        self.phase = PHASE_ACTIVE
        self.phase_epoch = 0
        self.tx_active = False
        self.rx_active = 0
        self.mode = MODE_IDLE
        self.mode_epoch = 0
        self.last_touch = 0.0
        self.outbox: deque[PacketWork] = deque()
        self.cache = CacheStore(cache_capacity, nid, holders_by_dst)
        self.time_in_mode = {mode: 0.0 for mode in RadioMode}
        self.death_time: float | None = None
        self.wake_at: float | None = None  # scheduled sleep exit, while sleeping
        self.last_relay_slot = -(10**9)  # absolute slot of last forwarding work
        self.retry_heap: list[float] = []  # retry times of packets deferred here

    @property
    def account(self) -> EnergyAccount:
        """Validated snapshot of the battery."""
        return EnergyAccount(self.e_residual, self.e_max)

    @property
    def awake(self) -> bool:
        return self.alive and self.phase is not PHASE_SLEEP


# Terminal packet states.
DELIVERED = "delivered"
DELIVERED_LATE = "delivered-late"
LOST_DEADLINE = "lost-deadline"
LOST_DEAD = "lost-dead"
LOST_NO_CACHE = "lost-no-cache"


# Random placements tried before a scenario is declared unable to connect.
PLACEMENT_ATTEMPTS = 200


class Simulation:
    """One deterministic simulation run of a scenario under one scheme."""

    def __init__(self, config: "ScenarioConfig", seed: int, collect_trace: bool = False):
        config.validate_runtime()
        self.config = config
        self.seed = seed
        self.horizon = config.horizon_s
        self.round_length = config.round_s
        self.slots_per_round = config.slots_per_round
        self.slot_width = config.round_s / config.slots_per_round
        self.params = config.energy
        # Power per radio mode; ``EnergyModelParams.power`` defines it.
        self.mode_power = {mode: self.params.power(mode) for mode in RadioMode}
        self.link_bps = config.link_bps
        self.retry_s = config.retry_s

        master = random.Random(seed)
        placement_rng = random.Random(master.randrange(2**63))
        traffic_rng = random.Random(master.randrange(2**63))
        self.mobility_rng = random.Random(master.randrange(2**63))

        # The underlying graph model assumes initial connectivity, so
        # placements are rejection-sampled (deterministically) until the
        # topology is one component.
        self.grid, self.graph = self._place_connected(config, placement_rng)
        # Destination -> alive nodes caching for it, kept by the caches alone.
        self.holders_by_dst: dict[NodeId, set[NodeId]] = {}
        self.nodes = {
            nid: SimNode(nid, config.initial_energy_j, config.cache_capacity_bits,
                         self.holders_by_dst)
            for nid in range(config.node_count)
        }
        self.plane: SchemePlane = config.scheme.plane(self)

        self.now = 0.0
        self.round_index = -1
        self.round_start = 0.0
        self.current_slot = 0
        self._heap: list[Event] = []
        self._seq = 0

        # Every generated packet by id, ended or not.
        self.work: dict[int, PacketWork] = {}
        self._dist_cache: dict[NodeId, dict[NodeId, int]] = {}

        # Running sums: adding them up later in another order would change
        # the reported floats.
        self.delivered_bits_ok = 0
        self.delay_sum = 0.0
        self.timeseries: list[tuple[float, float, float]] = []
        self.trace: list[tuple[float, int, str, str]] | None = [] if collect_trace else None

        deadline_offset = config.deadline_rounds * config.round_s
        traffic_until = min(config.traffic_horizon_s or self.horizon, self.horizon)
        self.packets = (
            generate(config.flows, traffic_until, traffic_rng, deadline_offset)
            if config.flows and traffic_until > 0
            else []
        )
        # Packet ids are list indexes, so ``self.packets[pid]`` finds a packet.
        for packet in self.packets:
            self.push(packet.created_at, PACKET_ARRIVAL, packet.src,
                       packet_id=packet.id)

        self.push(0.0, ROUND_SETUP)
        if config.p_move > 0 and config.node_count > 0:
            self.push(config.mobility_step_s, MOBILITY_STEP)
        # Deaths are predicted on each mode change; a node that keeps its
        # first mode dies on this prediction.
        for node in self.nodes.values():
            self._schedule_death(node)
        self.plane.start(self)

    @staticmethod
    def _place_connected(config, rng: random.Random) -> tuple[Grid, ConnectivityGraph]:
        for _ in range(PLACEMENT_ATTEMPTS):
            grid = Grid(config.grid_width, config.grid_height)
            for nid in range(config.node_count):
                grid.place(
                    nid,
                    Position(rng.randrange(config.grid_width), rng.randrange(config.grid_height)),
                )
            graph = build_connectivity(grid)
            if config.node_count <= 1 or len(connected_components(graph)) == 1:
                return grid, graph
        raise RuntimeError(
            f"no connected placement of {config.node_count} nodes on a "
            f"{config.grid_width}x{config.grid_height} grid in {PLACEMENT_ATTEMPTS} attempts"
        )

    # -- event plumbing ----------------------------------------------------

    def push(self, time: float, kind: EventKind, node: NodeId | None = None, **payload) -> None:
        heapq.heappush(self._heap, Event(time, self._seq, kind, node, payload))
        self._seq += 1

    def pending(self) -> list[Event]:
        """The queued events, in no particular order."""
        return list(self._heap)

    def peek_time(self) -> float | None:
        """Time of the earliest queued event; None when the queue is empty."""
        return self._heap[0].time if self._heap else None

    def step(self) -> Event | None:
        """Process the earliest pending event; None when the queue is empty."""
        if not self._heap:
            return None
        event = heapq.heappop(self._heap)
        assert event.time >= self.now - 1e-9, "event causality violated"
        self.now = max(self.now, event.time)
        _HANDLERS[event.kind](self, event)
        return event

    def run(self) -> "report_mod.MetricsReport":
        while self._heap and self._heap[0].time <= self.horizon + 1e-9:
            self.step()
        self._finalize()
        return report_mod.finalize(self)

    def _finalize(self) -> None:
        self.now = self.horizon
        for node in self.nodes.values():
            if node.alive:
                self._touch(node)
        self.timeseries.append(self._timeseries_row())

    def _timeseries_row(self) -> tuple[float, float, float]:
        alive = sum(1 for n in self.nodes.values() if n.alive)
        residual = sum_in_order(n.e_residual for n in self.nodes.values())
        return (self.now, alive / max(1, len(self.nodes)), residual)

    def trace_event(self, node: NodeId | None, kind: str, detail: str) -> None:
        if self.trace is not None:
            self.trace.append((self.now, -1 if node is None else node, kind, detail))

    # -- energy accounting -------------------------------------------------

    def _touch(self, node: SimNode) -> None:
        """Charge the elapsed interval at the node's current mode power."""
        now = self.now
        duration = now - node.last_touch
        if duration <= 0:
            node.last_touch = now
            return
        mode = node.mode
        before = node.e_residual
        node.e_residual = consume(before, self.mode_power[mode], duration)
        node.time_in_mode[mode] += duration
        if mode is MODE_TX or mode is MODE_RX:
            self.plane.radio_busy(self, node.nid, node.last_touch)
        if self.trace is not None:
            spent = before - node.e_residual
            self.trace.append(
                (now, node.nid, "mode", f"mode={mode.value};dur={duration!r};energy={spent!r}")
            )
        node.last_touch = now

    def _recompute_mode(self, node: SimNode) -> None:
        if node.phase is PHASE_SLEEP:
            new = MODE_SLEEP
        elif node.tx_active:
            new = MODE_TX
        elif node.rx_active > 0:
            new = MODE_RX
        else:
            new = MODE_IDLE
        if new is not node.mode:
            node.mode = new
            node.mode_epoch += 1
            self._schedule_death(node)

    def _schedule_death(self, node: SimNode) -> None:
        power = self.mode_power[node.mode]
        if not node.alive or power <= 0 or node.e_residual <= 0:
            return
        eta = self.now + node.e_residual / power
        if eta <= self.horizon + 1e-9:
            self.push(eta, NODE_DEATH, node.nid, epoch=node.mode_epoch)

    def set_phase(self, node: SimNode, phase: NodePhase, until: float | None = None) -> None:
        """Put ``node`` in ``phase``; with ``until``, arm its phase timer. A call
        with the current phase only re-arms it. Leaving SLEEP wakes the node."""
        woke = node.phase is PHASE_SLEEP and phase is not PHASE_SLEEP
        if phase is not node.phase:
            self._touch(node)
            node.phase = phase
            node.phase_epoch += 1
            node.wake_at = None
            self._recompute_mode(node)
        if until is not None:
            kind = IDLE_EXPIRY
            if phase is PHASE_SLEEP:
                node.wake_at = until
                kind = SLEEP_EXPIRY
            self.push(until, kind, node.nid, epoch=node.phase_epoch)
        if woke:
            self._after_wake(node)

    def _set_tx(self, node: SimNode, active: bool) -> None:
        self._touch(node)
        node.tx_active = active
        self._recompute_mode(node)

    def _bump_rx(self, node: SimNode, delta: int) -> None:
        self._touch(node)
        node.rx_active = max(0, node.rx_active + delta)
        self._recompute_mode(node)

    # -- packet terminal accounting -----------------------------------------

    def _finish(self, work: PacketWork, state: str) -> None:
        if work.state is not None:
            return
        work.state = state
        self.trace_event(work.packet.dst, "packet-" + state, f"pid={work.packet.id}")

    # -- handlers ------------------------------------------------------------

    def _on_packet_arrival(self, event: Event) -> None:
        pid = event.payload["packet_id"]
        nid = event.node
        node = self.nodes[nid]
        if event.payload.get("retry"):
            while node.retry_heap and node.retry_heap[0] <= self.now + 1e-9:
                heapq.heappop(node.retry_heap)
            # A deferred packet is held by its retry event alone, so nothing
            # has ended it in the meantime.
            work = self.work[pid]
            if not node.alive:
                self._finish(work, LOST_DEAD)
                return
        else:
            # An arrival without ``retry`` is the packet's first.
            packet = self.packets[pid]
            dst = self.nodes[packet.dst]
            work = PacketWork(packet, not dst.awake and dst.alive)
            self.work[pid] = work
            if not node.alive or not dst.alive:
                self._finish(work, LOST_DEAD)
                return
        # A flow's ends differ and a hop to the destination delivers: no
        # packet ever waits at its own destination.
        node.outbox.append(work)
        self._try_transmit(node)

    def _deliver(self, work: PacketWork) -> None:
        # First, so a phase change the plane makes is traced before the delivery.
        self.plane.delivered(self, work)
        packet = work.packet
        delay = self.now - packet.created_at
        on_time = (
            packet.klass is ELASTIC
            or packet.deadline is None
            or self.now <= packet.deadline + 1e-12
        )
        self._finish(work, DELIVERED if on_time else DELIVERED_LATE)
        self.delay_sum += delay
        if on_time:
            self.delivered_bits_ok += packet.size_bits

    def _try_transmit(self, node: SimNode) -> None:
        """Store-and-forward: move each queued packet one hop closer to its
        destination via an awake neighbor, cache it next to a sleeping
        destination, or defer until a blocking neighbor's wake-up."""
        while node.outbox and node.awake and not node.tx_active:
            # A queued packet is held by this outbox alone, and only this
            # loop or the node's death takes it out: it has not ended.
            work = node.outbox.popleft()
            packet = work.packet
            if (
                packet.klass is DELAY_SENSITIVE
                and packet.deadline is not None
                and self.now > packet.deadline
            ):
                self._finish(work, LOST_DEADLINE)
                continue
            dst_node = self.nodes[packet.dst]
            if not dst_node.alive:
                self._finish(work, LOST_DEAD)
                continue
            if not dst_node.awake and not self.config.cache_enabled:
                # Recovery disabled: traffic to a sleeping node is dropped.
                self._finish(work, LOST_NO_CACHE)
                continue
            dist = self._hop_distances(packet.dst)
            here = dist.get(node.nid)
            if here is None:
                self._defer(node, work, self.now + self.retry_s)
                continue
            if here == 1 and not dst_node.awake:
                if self._cache_here(node, work):
                    continue
                target = self._cache_target(node.nid, packet)
                if target is not None and self.graph.has_edge(node.nid, target):
                    self._start_tx(node, target, work)
                    break
                self._defer(node, work, self._neighbor_wake(node.nid, dist, here))
                continue
            closer = [
                v
                for v in self.graph.neighbors_of(node.nid)
                if dist.get(v, math.inf) < here and self.nodes[v].awake
            ]
            if closer:
                hop = min(closer, key=lambda v: (dist[v],) + self._relay_pref(v))
                self._start_tx(node, hop, work)
                break
            self._defer(node, work, self._neighbor_wake(node.nid, dist, here))

    def _relay_pref(self, v: NodeId) -> tuple:
        """Relay choice: the cluster head costs nothing extra (it is awake
        anyway), then healthy batteries, then already-active relays; the
        battery bucket rotates the role as a relay drains."""
        node = self.nodes[v]
        bucket = int(10 * node.e_residual / node.e_max) if node.e_max else 0
        abs_slot = self.round_index * self.slots_per_round + self.current_slot
        recent = abs_slot - node.last_relay_slot < RELAY_QUIET_SLOTS
        return (0 if v in self.plane.ch_ids else 1, -bucket, 0 if recent else 1, v)

    def _hop_distances(self, dst: NodeId) -> dict[NodeId, int]:
        """Hop counts to ``dst`` over the full alive topology (cached, and
        repaired in place after every edge change)."""
        dist = self._dist_cache.get(dst)
        if dist is None:
            dist = self._dist_cache[dst] = hop_distances(self.graph, dst)
        return dist

    def _repair_maps(self, lost: Iterable[NodeId], added: Iterable[tuple]) -> None:
        """After an edge change, repair every cached distance map in place."""
        for dist in self._dist_cache.values():
            repair_distances(self.graph, dist, lost, added)

    def _cache_here(self, node: SimNode, work: PacketWork) -> bool:
        """Park the packet in this node's cache for its sleeping neighbor."""
        packet = work.packet
        result = node.cache.store(packet, self.now)
        if result is ACCEPTED or result is DUPLICATE:
            self.trace_event(node.nid, "cache-store", f"pid={packet.id};dst={packet.dst}")
            return True
        return False

    def _cache_target(self, exclude: NodeId, packet: Packet) -> NodeId | None:
        """Active hop-neighbor of the sleeping destination with most free
        cache space (ties to smallest id)."""
        free_bits = {
            nid: self.nodes[nid].cache.free_bits
            for nid in self.graph.neighbors_of(packet.dst)
            if nid != exclude and self.nodes[nid].awake
        }
        candidates = [nid for nid, bits in free_bits.items() if bits >= packet.size_bits]
        return min(candidates, key=lambda nid: (-free_bits[nid], nid), default=None)

    def _neighbor_wake(self, nid: NodeId, dist: dict[NodeId, int], here: int) -> float:
        """Earliest wake among neighbors that could unblock forwarding."""
        wakes = [
            self.nodes[v].wake_at
            for v in self.graph.neighbors_of(nid)
            if dist.get(v, math.inf) <= here
            and self.nodes[v].alive
            and self.nodes[v].phase is PHASE_SLEEP
            and self.nodes[v].wake_at is not None
        ]
        if wakes:
            return max(self.now, min(wakes))
        return self.now + self.retry_s

    def _defer(self, node: SimNode, work: PacketWork, retry_at: float) -> None:
        retry_at = max(retry_at, self.now)
        work.defer_count += 1
        if work.defer_count > 3:
            # Repeatedly unforwardable (e.g. schedules never overlapping):
            # back off so hopeless packets stop flooding the event queue.
            backoff = min(self.retry_s * 2.0 ** (work.defer_count - 3), self.round_length)
            retry_at = max(retry_at, self.now + backoff)
        heapq.heappush(node.retry_heap, retry_at)
        self.push(retry_at, PACKET_ARRIVAL, node.nid,
                   packet_id=work.packet.id, retry=True)

    def _start_tx(self, sender: SimNode, receiver_id: NodeId, work: PacketWork) -> None:
        receiver = self.nodes[receiver_id]
        duration = tx_delay(work.packet.size_bits, self.link_bps)
        if work.packet.dst != receiver_id:
            # The receiver now owes onward forwarding: it stays
            # grant-ineligible for a few slots so the path survives.
            receiver.last_relay_slot = (
                self.round_index * self.slots_per_round + self.current_slot
            )
        self._set_tx(sender, True)
        self._bump_rx(receiver, +1)
        self.plane.transmit(self, work, sender.nid, receiver_id, duration)
        self.push(self.now + duration, TX_COMPLETE, receiver_id,
                   packet_id=work.packet.id, sender=sender.nid)
        self.trace_event(
            sender.nid, "tx-start", f"pid={work.packet.id};to={receiver_id}"
        )

    def _on_tx_complete(self, event: Event) -> None:
        pid = event.payload["packet_id"]
        sender = self.nodes[event.payload["sender"]]
        receiver = self.nodes[event.node]
        if sender.alive:
            self._set_tx(sender, False)
        if receiver.alive:
            self._bump_rx(receiver, -1)
        # A packet on the air is held by this event alone: it has not ended.
        work = self.work[pid]
        if not sender.alive or not receiver.alive:
            self._finish(work, LOST_DEAD)
        elif receiver.nid == work.packet.dst:
            self._deliver(work)
        else:
            receiver.outbox.append(work)
        if sender.alive:
            self._try_transmit(sender)
        if receiver.alive and work.state is None:
            self._try_transmit(receiver)

    def _on_slot_boundary(self, event: Event) -> None:
        slot = event.payload["slot"]
        for node in self.nodes.values():
            # Flush ongoing radio activity under every scheme: the split
            # billing shows in the trace's mode rows and in the float sums.
            if node.alive and (node.tx_active or node.rx_active):
                self._touch(node)
        self._evict_caches()
        self.plane.slot_boundary(self, slot)
        self.current_slot = slot + 1

    def _evict_caches(self) -> None:
        for node in self.nodes.values():
            if node.alive:  # only packets with a record are cached
                for packet in node.cache.evict_expired(self.now):
                    self._finish(self.work[packet.id], LOST_DEADLINE)

    def _after_wake(self, node: SimNode) -> None:
        """Resume a node that woke: schedule handovers of cached packets,
        then forward its queue.

        When the counterpart is asleep, the delivery is scheduled at its known
        wake time so entries cannot starve on missed coincidences. Entries
        whose holder drifted away from the destination re-enter the normal
        forwarding pipeline instead.
        """
        woken = node.nid
        # Holders are exactly the alive nodes caching something for ``woken``.
        for holder_id in sorted(self.holders_by_dst.get(woken, ())):
            holder = self.nodes[holder_id]
            self._hand_over(holder_id, woken, None if holder.awake else holder)
        # Entries for a destination are dropped when it dies: ``other`` is alive.
        for dst in node.cache.destinations():
            other = self.nodes[dst]
            now = other.awake or not self.graph.has_edge(woken, dst)
            self._hand_over(woken, dst, None if now else other)
        self._try_transmit(node)

    def _hand_over(self, holder: NodeId, woken: NodeId, sleeper: SimNode | None) -> None:
        """Hand ``holder``'s entries for ``woken`` over now, or when ``sleeper`` wakes."""
        at = self.now if sleeper is None else max(self.now, sleeper.wake_at)
        self.push(at, CACHE_DELIVERY, holder, woken=woken)

    def _on_phase_expiry(self, event: Event) -> None:
        node = self.nodes[event.node]
        # Phase changes and death bump the epoch: a match means the node is
        # alive and still in the phase the timer was armed in.
        if event.payload["epoch"] == node.phase_epoch:
            self.plane.expired(self, node)

    def _on_mobility_step(self, event: Event) -> None:
        p_step = min(1.0, self.config.p_move * self.config.mobility_step_s)
        moved: list[NodeId] = []
        for nid, node in self.nodes.items():
            if not node.alive:
                continue
            old = self.grid.position_of(nid)
            if move_step(self.grid, nid, self.mobility_rng, p_step) is not old:
                removed, added = refresh_node(self.graph, self.grid, nid)
                self._repair_maps((nid, *removed), [(nid, v) for v in added])
                moved.append(nid)
        self.plane.moved(self, moved)
        self.push(self.now + self.config.mobility_step_s, MOBILITY_STEP)

    def _on_round_setup(self, event: Event) -> None:
        # Flush ongoing activity into the closing round before a new one starts.
        for node in self.nodes.values():
            if node.alive:
                self._touch(node)
        self.round_index += 1
        self.round_start = self.now
        self.current_slot = 0
        self.timeseries.append(self._timeseries_row())
        self.plane.round_setup(self)
        for j in range(1, self.slots_per_round + 1):
            self.push(self.round_start + j * self.slot_width, SLOT_BOUNDARY,
                       slot=j - 1)
        self.push(self.round_start + self.round_length, ROUND_SETUP)

    def _on_node_death(self, event: Event) -> None:
        node = self.nodes[event.node]
        # Death bumps the mode epoch: a matching one means the node is alive.
        if event.payload["epoch"] != node.mode_epoch:
            return
        self._touch(node)
        if node.e_residual > 1e-9:
            return  # stale prediction
        self._kill(node)

    def _kill(self, node: SimNode) -> None:
        node.alive = False
        node.death_time = self.now
        node.e_residual = 0.0
        node.mode_epoch += 1
        node.phase_epoch += 1
        self.trace_event(node.nid, "death", "")
        while node.outbox:
            self._finish(node.outbox.popleft(), LOST_DEAD)
        for dst in node.cache.destinations():
            self._lose_cached(node, dst)
        # Cached copies elsewhere destined for the dead node can never deliver.
        for holder_id in sorted(self.holders_by_dst.get(node.nid, ())):
            self._lose_cached(self.nodes[holder_id], node.nid)
        self.grid.remove(node.nid)
        self._dist_cache.pop(node.nid, None)
        for dist in self._dist_cache.values():
            dist.pop(node.nid, None)
        self._repair_maps(self.graph.remove_node(node.nid), ())
        self.plane.death(self, node.nid)

    def _lose_cached(self, holder: SimNode, dst: NodeId) -> None:
        """Drop ``holder``'s entries for ``dst``: a dead node can never pass them on."""
        for entry in holder.cache.deliver_on_wake(dst):
            self._finish(self.work[entry.packet.id], LOST_DEAD)

    def _on_cache_delivery(self, event: Event) -> None:
        holder = self.nodes[event.node]
        woken = event.payload["woken"]
        if not holder.alive:
            return
        if not holder.awake:
            if holder.cache.volume_for(woken) > 0:
                self._hand_over(holder.nid, woken, holder)
            return
        entries = holder.cache.deliver_on_wake(woken)
        if not entries:
            return
        # A cached packet is held by this cache alone and has not ended.
        for entry in entries:
            holder.outbox.append(self.work[entry.packet.id])
        self._try_transmit(holder)


# Plain functions, not bound methods: a per-instance table of bound methods
# would make every Simulation a reference cycle that only the cyclic GC frees.
_HANDLERS = {
    PACKET_ARRIVAL: Simulation._on_packet_arrival,
    TX_COMPLETE: Simulation._on_tx_complete,
    SLOT_BOUNDARY: Simulation._on_slot_boundary,
    ROUND_SETUP: Simulation._on_round_setup,
    SLEEP_EXPIRY: Simulation._on_phase_expiry,
    IDLE_EXPIRY: Simulation._on_phase_expiry,
    MOBILITY_STEP: Simulation._on_mobility_step,
    NODE_DEATH: Simulation._on_node_death,
    CACHE_DELIVERY: Simulation._on_cache_delivery,
}


def run_simulation(
    config: "ScenarioConfig", seed: int, collect_trace: bool = False
) -> tuple["report_mod.MetricsReport", list | None]:
    """Run one scenario; returns (report, trace rows or None)."""
    sim = Simulation(config, seed, collect_trace=collect_trace)
    report = sim.run()
    return report, sim.trace
