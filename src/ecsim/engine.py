"""Deterministic discrete-event loop: event core, energy accounting,
store-and-forward and the neighbour cache. Where schemes differ, the engine
calls the run's scheme plane (``ecsim.schemes``).

One simulation owns two heaps ordered by (time, seq), its own RNG streams
and all mutable world state, so identical (config, seed) pairs give
bit-identical results. Phase timers, the most frequent item, are armed by
``set_phase`` alone as bare ``(time, seq, kind, node, epoch)`` tuples in
``_timers``, which ``run`` fires inline; every other event is an ``Event``
in ``_heap`` and reaches its handler through one module-level table. Both
take ``seq`` from one counter, so the two heaps merge into the single (time,
seq) order. A packet's first arrival and a node's death prediction are
pushed only when needed, under the (time, seq) key reserved when they were
made, so equal-time events run in the order they were made. Energy is
charged lazily: whenever a node is touched, the elapsed interval is billed
at its current radio mode's power, in place on the node's float residual.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from typing import TYPE_CHECKING, Iterable, NamedTuple

from ecsim import report as report_mod
from ecsim.cache import CacheStore, StoreResult
from ecsim.core import EnergyAccount, EventKind, NodeId, NodePhase, RadioMode, consume, sum_in_order
from ecsim.report import DELIVERED, DELIVERED_LATE, LOST_DEAD, LOST_DEADLINE, LOST_NO_CACHE
from ecsim.schemes import SchemePlane
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
from ecsim.traffic import Packet, generate, tx_delay

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
ACCEPTED = StoreResult.ACCEPTED
# Trace text per radio mode, built once: ``mode.value`` goes through Enum's
# Python-level descriptor.
MODE_ROW = {mode: f"mode={mode.value};dur=" for mode in RadioMode}
# ``Event(...)`` runs the NamedTuple's Python-level ``__new__``, a function
# call on every queued event; ``tuple.__new__(Event, fields)`` builds the
# same tuple without it.
_new_tuple = tuple.__new__


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


class ReprMemo(dict):
    """Float -> its ``repr`` text, each distinct value formatted once.

    Floats that compare equal have the same ``repr``, except ``0.0`` and
    ``-0.0``; a caller keys only values that cannot be ``-0.0``.
    """

    __slots__ = ()

    def __missing__(self, value: float) -> str:
        text = self[value] = repr(value)
        return text


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
        "death_key",
        "death_queued",
        "last_touch",
        "outbox",
        "cache",
        "time_in_mode",
        "death_time",
        "wake_at",
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
        # The live death prediction's (time, seq) key, and the key of the
        # last NODE_DEATH entry pushed for this node until it fires: a later
        # prediction waits for that entry to re-queue it. None when none.
        self.death_key: tuple[float, int] | None = None
        self.death_queued: tuple[float, int] | None = None
        self.last_touch = 0.0
        self.outbox: deque[PacketWork] = deque()
        self.cache = CacheStore(cache_capacity, nid, holders_by_dst)
        self.time_in_mode = {mode: 0.0 for mode in RadioMode}
        self.death_time: float | None = None
        self.wake_at: float | None = None  # scheduled sleep exit, while sleeping

    @property
    def account(self) -> EnergyAccount:
        """Validated snapshot of the battery."""
        return EnergyAccount(self.e_residual, self.e_max)

    @property
    def awake(self) -> bool:
        return self.alive and self.phase is not PHASE_SLEEP


# Random placements tried before a scenario is declared unable to connect.
PLACEMENT_ATTEMPTS = 200
# Seconds between mobility steps; each alive node moves with ``p_move`` per step.
MOBILITY_STEP_S = 1.0


class Simulation:
    """One deterministic simulation run of a scenario under one scheme.

    The run state lives in slots, so an attribute read costs the same however
    many there are. Without them, CPython 3.11 gives up the compact dict
    layout that instances of a class share at a 30th attribute, and every
    ``self.x`` read slows: each untraced benchmark workload ran 6-8 % slower.
    ``__weakref__`` lets a caller see that a finished run is freed.
    """

    __slots__ = (
        "config", "seed", "horizon", "round_length", "slots_per_round", "slot_width",
        "mode_power", "link_bps", "mobility_rng", "grid", "graph",
        "holders_by_dst", "nodes", "plane", "now", "round_index", "round_start",
        "_heap", "_timers", "timers_fired", "timers_stale", "work", "_dist_cache",
        "_next_hops", "delivered_bits_ok", "delay_sum", "timeseries", "trace", "float_text",
        "packets", "_seq", "__weakref__",
    )

    def __init__(self, config: "ScenarioConfig", seed: int, collect_trace: bool = False):
        config.validate_runtime()
        # ``from_dict``'s rule for ``seed``: None would seed from the OS.
        if type(seed) is not int:
            raise ValueError(f"seed: expected an int, got {seed!r}")
        self.config = config
        self.seed = seed
        self.horizon = config.horizon_s
        self.round_length = config.round_s
        self.slots_per_round = config.slots_per_round
        self.slot_width = config.round_s / config.slots_per_round
        # Power per radio mode; ``EnergyModelParams.power`` defines it.
        self.mode_power = {mode: config.energy.power(mode) for mode in RadioMode}
        self.link_bps = config.link_bps

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
        self._heap: list[Event] = []
        # Phase timers as (time, seq, kind, node, epoch); how many fired, and
        # how many of those found their epoch replaced. Not reported.
        self._timers: list[tuple[float, int, EventKind, NodeId, int]] = []
        self.timers_fired = self.timers_stale = 0

        # Every generated packet by id, ended or not.
        self.work: dict[int, PacketWork] = {}
        self._dist_cache: dict[NodeId, dict[NodeId, int]] = {}
        # (destination, holder) -> ``next_hops``; dropped at each edge change.
        self._next_hops: dict[tuple[NodeId, NodeId], tuple[NodeId, ...]] = {}

        # Running sums: adding them up later in another order would change
        # the reported floats.
        self.delivered_bits_ok = 0
        self.delay_sum = 0.0
        self.timeseries: list[tuple[float, float, float]] = []
        self.trace: list[tuple[float, int, str, str]] | None = [] if collect_trace else None
        # One simulation writes a few thousand ``mode`` rows from about a
        # thousand distinct floats.
        self.float_text = ReprMemo() if collect_trace else None

        deadline_offset = config.deadline_rounds * config.round_s
        traffic_until = min(config.traffic_horizon_s or self.horizon, self.horizon)
        self.packets = (
            generate(config.flows, traffic_until, traffic_rng, deadline_offset)
            if config.flows and traffic_until > 0
            else []
        )
        # Packet ids are list indexes, so ``self.packets[pid]`` finds a packet.
        # Packets are sorted by creation, and packet i's first arrival owns
        # seq i: one is queued at a time, and each queues the next.
        self._seq = len(self.packets)
        self._queue_arrival(0)

        self.push(0.0, ROUND_SETUP)
        if config.p_move > 0:
            self.push(MOBILITY_STEP_S, MOBILITY_STEP)
        # Deaths are predicted on each mode change; a node that keeps its
        # first mode dies on this prediction.
        for node in self.nodes.values():
            self._schedule_death(node)
        # Each scheme's expiry rule also decides a node's first phase.
        for node in self.nodes.values():
            self.plane.expired(self, node)

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
            if len(connected_components(graph)) == 1:
                return grid, graph
        raise RuntimeError(
            f"no connected placement of {config.node_count} nodes on a "
            f"{config.grid_width}x{config.grid_height} grid in {PLACEMENT_ATTEMPTS} attempts"
        )

    # -- event plumbing ----------------------------------------------------

    def push(self, time: float, kind: EventKind, node: NodeId | None = None, **payload) -> None:
        """Queue an ``Event`` in the event heap. Phase timers are armed by
        ``set_phase`` alone; a timer pushed here, with its ``epoch`` as
        payload, is fired by ``step`` in the same (time, seq) order."""
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, _new_tuple(Event, (time, seq, kind, node, payload)))

    def _queue_arrival(self, pid: int) -> None:
        """Queue packet ``pid``'s first arrival under its reserved seq, if the
        packet exists."""
        if pid < len(self.packets):
            packet = self.packets[pid]
            heapq.heappush(self._heap, _new_tuple(
                Event, (packet.created_at, pid, PACKET_ARRIVAL, packet.src, {"packet_id": pid})
            ))

    def pending(self) -> list[Event]:
        """The queued events, phase timers among them, in no particular order."""
        return self._heap + [
            _new_tuple(Event, (time, seq, kind, nid, {"epoch": epoch}))
            for time, seq, kind, nid, epoch in self._timers
        ]

    def peek_time(self) -> float | None:
        """Time of the earliest queued event; None when the queue is empty."""
        heads = [queue[0][0] for queue in (self._heap, self._timers) if queue]
        return min(heads, default=None)

    def step(self) -> Event | None:
        """Process the earliest pending event, a phase timer too, and return
        it; None, processing nothing, when no event is due by the horizon."""
        heap, timers = self._heap, self._timers
        if timers and (not heap or timers[0] < heap[0]):
            if timers[0][0] > self.horizon + 1e-9:
                return None
            time, seq, kind, nid, epoch = heapq.heappop(timers)
            event = _new_tuple(Event, (time, seq, kind, nid, {"epoch": epoch}))
        elif heap and heap[0].time <= self.horizon + 1e-9:
            event = heapq.heappop(heap)
        else:
            return None
        time = event.time
        assert time >= self.now - 1e-9, "event causality violated"
        if time > self.now:
            self.now = time
        _HANDLERS[event.kind](self, event)
        return event

    def run(self) -> "report_mod.MetricsReport":
        # A phase timer is fired here, as ``_on_phase_expiry`` would, with no
        # ``Event`` and no handler call: on the duty-cycle baselines, where
        # timers are 72 % of events, that cut run time by 8 %. Every other
        # event goes through ``step``.
        heap, timers, nodes = self._heap, self._timers, self.nodes
        expired, step, heappop = self.plane.expired, self.step, heapq.heappop
        limit = self.horizon + 1e-9
        fired = stale = 0
        while True:
            if timers and (not heap or timers[0] < heap[0]):
                time, _, _, nid, epoch = timers[0]
                if time > limit:
                    break
                heappop(timers)
                assert time >= self.now - 1e-9, "event causality violated"
                if time > self.now:
                    self.now = time
                fired += 1
                node = nodes[nid]
                if epoch == node.phase_epoch:
                    expired(self, node)
                else:
                    stale += 1
            elif step() is None:
                break
        self.timers_fired += fired
        self.timers_stale += stale
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
        return (self.now, alive / len(self.nodes), residual)

    def trace_event(self, node: NodeId | None, kind: str, detail: str = "", *args) -> None:
        """Trace row ``detail % args``; without a trace nothing is formatted."""
        if self.trace is not None:
            self.trace.append((self.now, -1 if node is None else node, kind, detail % args))

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
            # Neither key is -0.0: ``duration`` is above 0 here, and ``spent``
            # is ``before - max(0.0, ...)``, which is +0.0 or more.
            spent = before - node.e_residual
            text = self.float_text
            row = f"{MODE_ROW[mode]}{text[duration]};energy={text[spent]}"
            self.trace.append((now, node.nid, "mode", row))
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
            self._schedule_death(node)

    def _schedule_death(self, node: SimNode) -> None:
        """Predict the node's death in its current mode; the prediction
        replaces the one of the mode it left."""
        node.death_key = None
        power = self.mode_power[node.mode]
        if not node.alive or power <= 0:
            return
        # A battery the last billed interval emptied gives ``eta == now``.
        eta = self.now + node.e_residual / power
        if eta <= self.horizon + 1e-9:
            node.death_key = (eta, self._seq)
            self._seq += 1
            self._queue_death(node)

    def _queue_death(self, node: SimNode) -> None:
        """Push the live prediction unless an earlier entry for the node is
        queued: that entry re-queues it when it fires."""
        key = node.death_key
        if node.death_queued is None or key < node.death_queued:
            node.death_queued = key
            heapq.heappush(self._heap, _new_tuple(Event, (*key, NODE_DEATH, node.nid, {})))

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
            seq = self._seq
            self._seq = seq + 1
            heapq.heappush(self._timers, (until, seq, kind, node.nid, node.phase_epoch))
        if woke:
            self._after_wake(node)

    def _set_tx(self, node: SimNode, active: bool) -> None:
        self._touch(node)
        node.tx_active = active
        self._recompute_mode(node)

    def _bump_rx(self, node: SimNode, delta: int) -> None:
        self._touch(node)
        node.rx_active += delta
        assert node.rx_active >= 0, "receive count went negative"
        self._recompute_mode(node)

    # -- packet terminal accounting -----------------------------------------

    def _finish(self, work: PacketWork, state: str) -> None:
        # A packet has one keeper at a time, and only that keeper ends it.
        assert work.state is None, "packet ended twice"
        work.state = state
        self.trace_event(work.packet.dst, "packet-" + state, "pid=%d", work.packet.id)

    # -- handlers ------------------------------------------------------------

    def _on_packet_arrival(self, event: Event) -> None:
        pid = event.payload["packet_id"]
        nid = event.node
        node = self.nodes[nid]
        if event.payload.get("retry"):
            # A deferred packet is held by its retry event alone, so nothing
            # has ended it in the meantime.
            work = self.work[pid]
            if not node.alive:
                self._finish(work, LOST_DEAD)
                return
            # A retry that finds its holder asleep wakes it when it has a next
            # hop toward an alive destination: the plane (``retry_at``) timed
            # the retry for a meeting with it, or a move gave the holder a
            # route. A phase timer due at once hands it to the plane's
            # ``expired``: a duty cycle returns it to its window when its
            # radio frees, traffic-aware keeps it active. Otherwise the packet
            # waits in the outbox for the holder's own wake.
            dst = work.packet.dst
            if node.phase is PHASE_SLEEP and self.nodes[dst].alive and self.next_hops(dst, nid):
                self.set_phase(node, PHASE_ACTIVE, self.now)
        else:
            # An arrival without ``retry`` is the packet's first.
            self._queue_arrival(pid + 1)
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
        on_time = not packet.past_deadline(self.now)
        self._finish(work, DELIVERED if on_time else DELIVERED_LATE)
        self.delay_sum += delay
        if on_time:
            self.delivered_bits_ok += packet.size_bits

    def _try_transmit(self, node: SimNode) -> None:
        """Store-and-forward: move each queued packet one hop closer to its
        destination, to the first awake entry of the holder's ``next_hops``.
        When none is awake, the plane's ``retry_at``, handed the same tuple,
        parks the packet or says when to try again."""
        nodes = self.nodes
        while node.outbox and node.awake and not node.tx_active:
            # A queued packet is held by this outbox alone, and only this
            # loop or the node's death takes it out: it has not ended.
            work = node.outbox.popleft()
            packet = work.packet
            if packet.past_deadline(self.now):
                self._finish(work, LOST_DEADLINE)
                continue
            dst_node = nodes[packet.dst]
            if not dst_node.alive:
                self._finish(work, LOST_DEAD)
                continue
            if not dst_node.awake and not self.config.cache_enabled:
                # Recovery disabled: traffic to a sleeping node is dropped.
                self._finish(work, LOST_NO_CACHE)
                continue
            hops = self.next_hops(packet.dst, node.nid)
            for hop in hops:
                if nodes[hop].awake:
                    self._start_tx(node, hop, work)
                    return
            retry_at = self.plane.retry_at(self, node, work, hops)
            if retry_at is not None:
                self._defer(node, work, retry_at)

    def next_hops(self, dst: NodeId, nid: NodeId) -> tuple[NodeId, ...]:
        """``nid``'s neighbors strictly closer to the alive ``dst`` on its
        exact hop map, nearest first, ties to the smallest id; empty when
        ``nid`` has no hop count. Kept until an edge changes. The only reader
        of the maps: each is built here on first use and kept exact by
        ``_repair_maps`` and ``_kill``."""
        key = (dst, nid)
        hops = self._next_hops.get(key)
        if hops is None:
            dist = self._dist_cache.get(dst)
            if dist is None:
                dist = self._dist_cache[dst] = hop_distances(self.graph, dst)
            here = dist.get(nid)
            closer = () if here is None else [
                v for v in self.graph.neighbors_of(nid) if dist.get(v, here) < here
            ]
            hops = self._next_hops[key] = tuple(sorted(closer, key=lambda v: (dist[v], v)))
        return hops

    def _repair_maps(self, lost: Iterable[NodeId], added: Iterable[tuple]) -> None:
        """After an edge change, repair every cached distance map in place
        and drop every next-hop tuple."""
        for dist in self._dist_cache.values():
            repair_distances(self.graph, dist, lost, added)
        self._next_hops.clear()

    def _cache_here(self, node: SimNode, work: PacketWork) -> bool:
        """Park the packet in this node's cache for its sleeping neighbor."""
        packet = work.packet
        if node.cache.store(packet, self.now) is ACCEPTED:
            self.trace_event(node.nid, "cache-store", "pid=%d;dst=%d", packet.id, packet.dst)
            return True
        return False

    def _cache_target(self, sender: NodeId, packet: Packet) -> NodeId | None:
        """Awake hop-neighbor of the sleeping destination, within reach of
        ``sender``, with most free cache space (ties to smallest id)."""
        free_bits = {
            nid: self.nodes[nid].cache.free_bits
            for nid in self.graph.neighbors_of(packet.dst) & self.graph.neighbors_of(sender)
            if self.nodes[nid].awake
        }
        candidates = [nid for nid, bits in free_bits.items() if bits >= packet.size_bits]
        return min(candidates, key=lambda nid: (-free_bits[nid], nid), default=None)

    def park(self, node: SimNode, work: PacketWork) -> bool:
        """Park a packet that ``node`` holds one hop from its sleeping
        destination: in ``node``'s cache, else sent to the awake neighbor of
        both with the most free cache space. False when neither takes it."""
        if self._cache_here(node, work):
            return True
        target = self._cache_target(node.nid, work.packet)
        if target is None:
            return False
        self._start_tx(node, target, work)
        return True

    def _defer(self, node: SimNode, work: PacketWork, retry_at: float) -> None:
        work.defer_count += 1
        self.push(retry_at, PACKET_ARRIVAL, node.nid,
                   packet_id=work.packet.id, retry=True)

    def _start_tx(self, sender: SimNode, receiver_id: NodeId, work: PacketWork) -> None:
        receiver = self.nodes[receiver_id]
        duration = tx_delay(work.packet.size_bits, self.link_bps)
        self._set_tx(sender, True)
        self._bump_rx(receiver, +1)
        self.plane.transmit(self, work, sender.nid, receiver_id, duration)
        self.push(self.now + duration, TX_COMPLETE, receiver_id,
                   packet_id=work.packet.id, sender=sender.nid)
        self.trace_event(sender.nid, "tx-start", "pid=%d;to=%d", work.packet.id, receiver_id)

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
        self._evict_caches()
        self.plane.slot_boundary(self, event.payload["slot"])

    def _evict_caches(self) -> None:
        # Holders are exactly the alive nodes with cached entries, and only
        # packets with a record are cached. Eviction edits the index: read it first.
        for nid in sorted(set().union(*self.holders_by_dst.values())):
            for packet in self.nodes[nid].cache.evict_expired(self.now):
                self._finish(self.work[packet.id], LOST_DEADLINE)

    def _after_wake(self, node: SimNode) -> None:
        """Resume a node that woke: queue, at ``now``, the handovers of cached
        packets whose other end is awake, then forward its queue.

        Two nodes are awake together only after the later of their wakes, so
        that wake finds every pair that can hand over. Entries whose holder
        drifted away from the destination re-enter the normal forwarding
        pipeline at once.
        """
        woken = node.nid
        # Holders are exactly the alive nodes caching something for ``woken``;
        # the index holds no empty set.
        holders = self.holders_by_dst.get(woken)
        if holders:
            for holder_id in sorted(holders):
                if self.nodes[holder_id].awake:
                    self.push(self.now, CACHE_DELIVERY, holder_id, woken=woken)
        if node.cache.used_bits:
            # Entries for a destination are dropped when it dies: ``dst`` is alive.
            for dst in node.cache.destinations():
                if self.nodes[dst].awake or not self.graph.has_edge(woken, dst):
                    self.push(self.now, CACHE_DELIVERY, woken, woken=dst)
        if node.outbox:
            self._try_transmit(node)

    def _on_phase_expiry(self, event: Event) -> None:
        # ``run`` fires timers with its own copy of this body.
        node = self.nodes[event.node]
        self.timers_fired += 1
        # Phase changes and death bump the epoch: a match means the node is
        # alive and still in the phase the timer was armed in.
        if event.payload["epoch"] == node.phase_epoch:
            self.plane.expired(self, node)
        else:
            self.timers_stale += 1

    def _on_mobility_step(self, event: Event) -> None:
        alive = [nid for nid, node in self.nodes.items() if node.alive]
        # A mover's changed edges and the maps are repaired before the next node draws.
        for nid in move_step(self.grid, alive, self.mobility_rng, self.config.p_move):
            removed, added = refresh_node(self.graph, self.grid, nid)
            if removed or added:
                self._repair_maps((nid, *removed), [(nid, v) for v in added])
            self.trace_event(nid, "moved")
        self.push(self.now + MOBILITY_STEP_S, MOBILITY_STEP)

    def _on_round_setup(self, event: Event) -> None:
        # Flush ongoing activity into the closing round before a new one starts.
        for node in self.nodes.values():
            if node.alive:
                self._touch(node)
        self.round_index += 1
        self.round_start = self.now
        self.timeseries.append(self._timeseries_row())
        self.plane.round_setup(self)
        for j in range(1, self.slots_per_round + 1):
            self.push(self.round_start + j * self.slot_width, SLOT_BOUNDARY,
                       slot=j - 1)
        self.push(self.round_start + self.round_length, ROUND_SETUP)

    def _on_node_death(self, event: Event) -> None:
        node = self.nodes[event.node]
        key = (event.time, event.seq)
        if key == node.death_queued:
            node.death_queued = None
        if key != node.death_key:
            # Not the live prediction: an entry that fired before it re-queues
            # it. A dead node, or one whose mode predicts no death, has none.
            if node.death_key is not None:
                self._queue_death(node)
            return
        node.death_key = None
        self._touch(node)
        if node.e_residual > 1e-9:
            return  # stale prediction
        self._kill(node)

    def _kill(self, node: SimNode) -> None:
        node.alive = False
        node.death_time = self.now
        node.e_residual = 0.0
        node.death_key = None
        node.phase_epoch += 1
        self.trace_event(node.nid, "death")
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
        # A holder that fell asleep since keeps its entries until a wake
        # finds it and the destination awake together.
        if not holder.awake:
            return
        # A cached packet is held by this cache alone and has not ended.
        for entry in holder.cache.deliver_on_wake(event.payload["woken"]):
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
