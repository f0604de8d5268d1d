"""Schemes: each scheme's parsed parameters and its run-time behaviour.

Each scheme class declares its kind string (``name``), its parameters with
their defaults, the scenario keys that set them (``keys``, pairs of scenario
key and attribute) and ``plane``, the class of the per-run object that
carries the scheme out. ``SCHEMES`` is the only list of kinds.
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Union

from ecsim import cluster as cluster_mod
from ecsim.core import NodeId, NodePhase, sum_in_order
from ecsim.scheduler import (
    ActivityLedger,
    backward_diff,
    compute_idle,
    compute_sleep,
    pairwise_idle_decision,
    path_delay,
    sp_sleep,
)

if TYPE_CHECKING:
    from ecsim.engine import PacketWork, SimNode, Simulation

# Hot enum members bound to module names, as in ``ecsim.engine``: on Python
# 3.10 and 3.11 a class attribute read costs about ten times a global's.
PHASE_ACTIVE, PHASE_IDLE, PHASE_SLEEP = NodePhase.ACTIVE, NodePhase.IDLE, NodePhase.SLEEP

# Seconds between polls of a packet whose holder has no route to its destination.
RETRY_S = 0.5


class SchemePlane:
    """Per-run behaviour of a scheme. The engine calls these hooks where
    schemes differ:

    - ``start(sim)``: start-up, after every node's first death prediction;
    - ``round_setup(sim)``: a round has begun; its slots are not queued yet;
    - ``slot_boundary(sim, closed_slot)``: a slot closed, caches are evicted;
    - ``radio_busy(sim, nid, start)``: the radio was busy from ``start`` to now;
    - ``transmit(sim, work, sender, receiver, duration)``: a hop went on the air;
    - ``expired(sim, node)``: the node's phase timer ran out; it is alive and
      still in the phase the timer was armed in;
    - ``delivered(sim, work)``: a packet reached its destination, not yet ended;
    - ``death(sim, nid)``: a node died and left the topology;
    - ``retry_at(sim, node, work, dist, here)``: no neighbor of ``node``
      strictly closer to the packet's destination is awake; returns when
      ``node`` tries the packet again, or None when the hook parked it.

    ``retry_at`` holds every scheme's waiting rule, the meeting with the next
    hop's wake; every other hook does nothing here, which is all always-on
    needs. A move calls no hook: a sleeper that moves sleeps on until its
    ``wake_at``. A plane acts only through the simulation's ``set_phase``,
    which also arms the phase timer and wakes a sleeper, ``park`` and
    ``trace_event``. A retry that finds its holder asleep, with a hop count
    to the destination, wakes it with a phase timer due at once. A plane
    keeps no reference to the simulation (each hook is handed it), so a
    finished run is freed without the cyclic collector.
    """

    # Without a control plane there are no clusters, heads or sleep grants.
    clusters: tuple = ()
    sleep_audit: tuple = ()

    def __init__(self, sim: Simulation) -> None:
        # Rounds served as head and proxy; stays empty without elections.
        self.service_ledger = cluster_mod.ServiceLedger()

    def _nothing(self, sim: Simulation, *args) -> None:
        pass

    start = round_setup = slot_boundary = expired = _nothing
    radio_busy = transmit = delivered = death = _nothing

    def retry_at(self, sim: Simulation, node: SimNode, work: PacketWork,
                 dist: dict[NodeId, int], here: int | None) -> float | None:
        """The exact meeting, as in WiseMAC: the earliest wake of a strictly
        closer neighbor, which is the destination's own when it is one hop
        away. None of them is awake, so each sleeps until its ``wake_at``.
        A packet whose holder has no hop count polls every ``RETRY_S``, and
        from its fourth deferral on no sooner than a backoff that doubles up
        to one round, so that packets no route will unblock stop flooding
        the event queue."""
        now = sim.now
        if here is not None:
            nodes = sim.nodes
            return max(now, min(
                nodes[v].wake_at
                for v in sim.graph.neighbors_of(node.nid)
                if dist.get(v, math.inf) < here
            ))
        retry = now + RETRY_S
        deferred = work.defer_count
        if deferred >= 3:
            backoff = min(RETRY_S * 2.0 ** (deferred - 2), sim.round_length)
            retry = max(retry, now + backoff)
        return retry


def dispatch_scheme(
    scheme: PeriodicSleepWake | CoordinatedDutyCycle, now: float, offset: float = 0.0
) -> tuple[NodePhase, float]:
    """Phase at time ``now``, and the time of its next transition, for a node
    under a duty-cycle baseline: awake for ``listen`` seconds at the start of
    every ``period`` after ``offset``."""
    period = scheme.period
    listen = scheme.listen
    rel = now - offset
    cycle = math.floor(rel / period + 1e-9)
    within = rel - cycle * period
    if within < listen - 1e-9:
        return PHASE_ACTIVE, offset + cycle * period + listen
    return PHASE_SLEEP, offset + (cycle + 1) * period


class DutyCyclePlane(SchemePlane):
    """Duty-cycle baselines: each expiry re-applies the window the node is
    in, also for a sender woken for a meeting (``retry_at``). A sleeping node
    wakes at the start of its next window, so a meeting is less than a period
    away. No cache is tried: under staggered windows a holder and a
    destination that never share one would strand a parked packet.
    Coordinated windows are shared by every node; periodic (staggered) ones
    start i/N of a period late for node i."""

    staggered = False

    def __init__(self, sim: Simulation) -> None:
        super().__init__(sim)
        self.scheme = sim.config.scheme
        count = sim.config.node_count
        self.offset = {
            nid: (nid * self.scheme.period) / count if self.staggered else 0.0
            for nid in sim.nodes
        }
        self.busy_until: dict[NodeId, float] = {}  # latest end of each node's transfers

    def transmit(self, sim: Simulation, work: PacketWork, sender: NodeId, receiver: NodeId,
                 duration: float) -> None:
        end = sim.now + duration
        for nid in (sender, receiver):
            self.busy_until[nid] = max(self.busy_until.get(nid, 0.0), end)

    def tick(self, sim: Simulation, node: SimNode) -> None:
        """Apply the scheme's current window to ``node`` until its end."""
        phase, until = dispatch_scheme(self.scheme, sim.now, self.offset[node.nid])
        if phase is PHASE_SLEEP and (node.tx_active or node.rx_active):
            # Let the transfer finish; stay active and re-check at the radio's
            # free time, which ``transmit`` recorded.
            busy_end = max(sim.now, self.busy_until[node.nid])
            sim.set_phase(node, PHASE_ACTIVE, busy_end + 1e-9)
        else:
            sim.set_phase(node, phase, until)

    expired = tick

    def start(self, sim: Simulation) -> None:
        for node in sim.nodes.values():
            self.tick(sim, node)


class StaggeredPlane(DutyCyclePlane):
    staggered = True


def window_push(samples: deque, key: tuple, value: object = None) -> None:
    """Add ``(key, value)`` to a window-maximum deque. ``key`` is a
    ``(measure, time)`` pair with ``time`` no earlier than any in ``samples``.

    Entries whose key is strictly smaller can never be the maximum again and
    leave; keys therefore fall from front to back, and of equal keys the first
    added stays in front, as ``max`` would pick it.
    """
    while samples and samples[-1][0] < key:
        samples.pop()
    samples.append((key, value))


def window_front(samples: deque, cutoff: float) -> tuple | None:
    """Drop the entries of a window-maximum deque older than ``cutoff``;
    the ``(key, value)`` with the largest key among the rest, or None."""
    while samples and samples[0][0][1] < cutoff:
        samples.popleft()
    return samples[0] if samples else None


def _busy(node: SimNode) -> bool:
    """The node's radio is in use or it still has packets to forward."""
    return bool(node.tx_active or node.rx_active or node.outbox)


class TrafficAwarePlane(SchemePlane):
    """The paper's control plane. Each round, clusters elect a cluster head
    (CH) and a sleep proxy (SP). The head has no run-time duty: only its
    death, which re-elects both roles, is heard. At every slot boundary the
    proxy idles members whose traffic has stopped, the head among them, and
    grants sleep from a backward-difference traffic estimate, then sleeps
    on its own running mean."""

    def __init__(self, sim: Simulation) -> None:
        super().__init__(sim)
        # Traffic-active seconds per member and slot of the current round.
        self.ledger = ActivityLedger(sim.slot_width, sim.slots_per_round)
        self.clusters: list[cluster_mod.Cluster] = []
        self.sp_history: list[list[float]] = []  # this round's grants, one list per cluster
        # Each packet's [last arrival, (hosting, transmission) per hop, senders].
        self.paths: dict[int, list] = {}
        # Window-maximum candidates (``window_push``) per node: path delays as
        # ((delay, time), hops) and capacity sums as ((sum, time), None).
        self.dp_samples: defaultdict[NodeId, deque] = defaultdict(deque)
        self.cap_samples: defaultdict[NodeId, deque] = defaultdict(deque)
        self.cap_sums: dict[int, float] = {}  # capacity sum by neighbour count
        self.sleep_audit: list[dict] = []  # member sleep grants
        self.sp_sleep_audit: list[dict] = []  # SP self-sleeps

    # -- hooks ---------------------------------------------------------------

    def round_setup(self, sim: Simulation) -> None:
        self.ledger.start_round()
        self._form_round_clusters(sim)
        self.sp_history = [[] for _ in self.clusters]
        # Set-up phase idle assignment: every awake member re-enters idle
        # listening for its computed idle interval.
        for node in sim.nodes.values():
            if node.alive and node.phase is PHASE_ACTIVE:
                self._enter_idle(sim, node)

    def slot_boundary(self, sim: Simulation, closed_slot: int) -> None:
        if sim.round_index >= 1:
            self._sp_evaluation(sim, closed_slot)

    def radio_busy(self, sim: Simulation, nid: NodeId, start: float) -> None:
        """Distribute a radio-busy interval into the current round's slots."""
        lo = max(start, sim.round_start)
        hi = min(sim.now, sim.round_start + sim.round_length)
        if hi <= lo:
            return
        first = int((lo - sim.round_start) / sim.slot_width)
        last = int((hi - sim.round_start) / sim.slot_width - 1e-12)
        for idx in range(max(0, first), min(sim.slots_per_round - 1, last) + 1):
            slot_lo = sim.round_start + idx * sim.slot_width
            slot_hi = slot_lo + sim.slot_width
            overlap = min(hi, slot_hi) - max(lo, slot_lo)
            if overlap > 0:
                self.ledger.record_active(nid, idx, overlap)

    def transmit(self, sim: Simulation, work: PacketWork, sender: NodeId, receiver: NodeId,
                 duration: float) -> None:
        path = self.paths.setdefault(work.packet.id, [work.packet.created_at, [], []])
        path[1].append((sim.now - path[0], duration))
        path[2].append(sender)
        path[0] = sim.now + duration  # the hop's TX_COMPLETE time

    def expired(self, sim: Simulation, node: SimNode) -> None:
        if node.phase is PHASE_SLEEP:
            self._enter_idle(sim, node)
        else:
            # An idle window ran out, or a retry woke the node to send (the
            # engine's timer due at once): it is active until a proxy idles it.
            sim.set_phase(node, PHASE_ACTIVE)

    def retry_at(self, sim: Simulation, node: SimNode, work: PacketWork,
                 dist: dict[NodeId, int], here: int | None) -> float | None:
        """A packet one hop from its sleeping destination is parked next to
        it if a cache takes it; any other waits for its next hop's wake."""
        if here == 1 and sim.park(node, work):
            return None
        return super().retry_at(sim, node, work, dist, here)

    def delivered(self, sim: Simulation, work: PacketWork) -> None:
        dst = sim.nodes[work.packet.dst]  # a delivery's destination is alive
        if dst.phase is PHASE_IDLE:
            # Incoming traffic moves the destination into the active state.
            sim.set_phase(dst, PHASE_ACTIVE)
        # A flow's source and destination differ: a delivered packet made a hop.
        _, hops, senders = self.paths.pop(work.packet.id)
        key = (path_delay(hops), sim.now)
        # Packets move only by sends: the senders, then dst, are the nodes visited.
        for nid in dict.fromkeys(senders + [work.packet.dst]):
            window_push(self.dp_samples[nid], key, len(hops))

    def death(self, sim: Simulation, dead: NodeId) -> None:
        kept = []
        for cl, grants in zip(self.clusters, self.sp_history):
            if dead in cl.members:
                # This hook runs inside the engine's kill: every other member is alive.
                members = cl.members - {dead}
                if not members:
                    continue  # the cluster goes, and its grants with it
                if dead in (cl.ch, cl.sp):
                    energies = {m: sim.nodes[m].account for m in members}
                    cl = cluster_mod.elect_roles(members, energies, self.service_ledger)
                    self._wake_proxy(sim, cl)
                else:
                    cl = cluster_mod.Cluster(members=members, ch=cl.ch, sp=cl.sp)
            kept.append((cl, grants))
        self.clusters = [cl for cl, _ in kept]
        self.sp_history = [grants for _, grants in kept]

    # -- round set-up ----------------------------------------------------------

    def _form_round_clusters(self, sim: Simulation) -> None:
        alive = [nid for nid, node in sim.nodes.items() if node.alive]
        if not alive:
            self.clusters = []
            return
        energies = {nid: sim.nodes[nid].account for nid in alive}
        groups = None
        config = sim.config
        if config.cluster_policy == "grid":
            k = config.cluster_partition
            block_w = math.ceil(config.grid_width / k)
            block_h = math.ceil(config.grid_height / k)
            blocks: dict[tuple[int, int], set[NodeId]] = {}
            for nid in alive:
                pos = sim.grid.position_of(nid)
                blocks.setdefault((pos.x // block_w, pos.y // block_h), set()).add(nid)
            groups = [blocks[key] for key in sorted(blocks)]
        self.clusters = cluster_mod.form_clusters(
            sim.graph, energies, self.service_ledger, groups=groups
        )
        for cl in self.clusters:
            self._wake_proxy(sim, cl)

    def _wake_proxy(self, sim: Simulation, cl: cluster_mod.Cluster) -> None:
        """Control-plane wake: a sleeping proxy grants no sleep, so it re-enters
        idle. On the acceptance scenario, seeds 1-5, each device spends
        477.8/498.8/500.7/474.8/502.7 J without this wake, 448-474 J with it."""
        node = sim.nodes[cl.sp]
        if node.phase is PHASE_SLEEP:
            self._enter_idle(sim, node)

    # -- proxy duties ----------------------------------------------------------

    def _inbound_bits(self, sim: Simulation) -> dict[NodeId, int]:
        """Traffic about to reach each node: bits cached for it or queued for
        it at its neighbours; a node with none has no entry. Packets further
        away are the cache mechanism's job."""
        inbound: defaultdict[NodeId, int] = defaultdict(int)
        neighbors_of = sim.graph.neighbors_of
        # Holders are exactly the alive nodes with bits cached for ``dst``;
        # ints add up the same in any order.
        for dst, holders in sim.holders_by_dst.items():
            near = neighbors_of(dst)
            for h in holders:
                if h in near:
                    inbound[dst] += sim.nodes[h].cache.volume_for(dst)
        for node in sim.nodes.values():
            # Queued packets have not ended: only the outbox holds them. A
            # dead node's outbox is empty.
            if node.outbox:
                near = neighbors_of(node.nid)
                for work in node.outbox:
                    if work.packet.dst in near:
                        inbound[work.packet.dst] += work.packet.size_bits
        return inbound

    def _sp_evaluation(self, sim: Simulation, closed_slot: int) -> None:
        """Per-slot proxy duties: pairwise idling, sleep grants, SP self-sleep."""
        # Nothing below moves a packet or wakes a node, so inbound traffic
        # stays as read here for the whole pass.
        inbound = self._inbound_bits(sim)
        for cluster, grants in zip(self.clusters, self.sp_history):
            sp_node = sim.nodes[cluster.sp]  # every id keeps its node, dead or alive
            if not sp_node.awake:
                continue
            # The death hook drops a dying member at once: every member is alive.
            # A member with inbound traffic is left alone.
            quiet = [
                m for m in sorted(cluster.members)
                if m != cluster.sp and sim.nodes[m].awake and not inbound.get(m)
            ]
            for m in quiet:
                node = sim.nodes[m]
                if node.phase is not PHASE_ACTIVE:
                    continue
                for other in sorted(sim.graph.neighbors_of(m)):
                    if other not in cluster.members or not sim.nodes[other].awake:
                        continue
                    if pairwise_idle_decision(self.ledger, m, other):
                        self._enter_idle(sim, node)
                        sim.trace_event(m, "inform-sp", "sp=%d", cluster.sp)
                        break
            for m in quiet:
                # Idle assignment: an active member with no activity in the
                # closed slot returns to idle listening.
                node = sim.nodes[m]
                if node.phase is PHASE_ACTIVE and not _busy(node):
                    if not self.ledger.slot_value(m, closed_slot):
                        self._enter_idle(sim, node)
            for m in quiet:
                node = sim.nodes[m]
                if node.phase is not PHASE_IDLE or _busy(node):
                    continue
                if not self._sleep_eligible(m, closed_slot):
                    continue
                interval, min_cache_delay = self._grant_sleep(sim, m)
                if interval > 1e-9 and self._enter_sleep(sim, node, interval):
                    self.sleep_audit.append(
                        {
                            "node": m,
                            "time": sim.now,
                            "t_sleep": interval,
                            "round_length": sim.round_length,
                            "min_cache_delay": min_cache_delay,
                        }
                    )
                    grants.append(interval)
            # The loops above change no phase of the proxy: it is still awake.
            # With inbound traffic it stays so.
            if not inbound.get(sp_node.nid):
                self._sp_self_sleep(sim, grants, sp_node,
                                    closed_slot == sim.slots_per_round - 1)

    def _sp_self_sleep(self, sim: Simulation, grants: list[float], sp_node: SimNode,
                       last_duty: bool) -> None:
        """The proxy sleeps on the running mean of its cluster's ``grants``:
        between duties it naps up to the next boundary, and after its last
        duty of the round it takes the full interval. A mean shorter than the
        gap to the next boundary gives no nap: ``_enter_sleep`` refuses it."""
        interval = sp_sleep(grants, sim.slots_per_round, sim.round_length)
        if interval <= 1e-9 or _busy(sp_node):
            return
        realized = interval if last_duty else min(interval, sim.slot_width)
        if sp_node.phase is PHASE_ACTIVE:
            self._enter_idle(sim, sp_node)
        if self._enter_sleep(sim, sp_node, realized):
            self.sp_sleep_audit.append(
                {"node": sp_node.nid, "time": sim.now, "t_sleep": interval}
            )

    def _sleep_eligible(self, nid: NodeId, closed_slot: int) -> bool:
        # Only traffic is recorded, always as a positive share: an idle slot has
        # no entry, so a busy slot after it has no backward difference.
        if not self.ledger.slot_value(nid, closed_slot):
            # No traffic activity at all in the latest slot: sleep is enforced.
            return True
        diff = backward_diff(self.ledger, nid, closed_slot)
        return diff is not None and diff < 0.0

    # -- intervals -------------------------------------------------------------

    def _max_dp(self, sim: Simulation, nid: NodeId) -> tuple[float, int]:
        """Largest path delay of the last round and its hops, the latest of
        equal delays; (0.0, 1) at cold start."""
        best = window_front(self.dp_samples[nid], sim.now - sim.round_length)
        if best is None:
            return 0.0, 1
        return best[0][0], best[1]

    def _grant_sleep(self, sim: Simulation, nid: NodeId) -> tuple[float, float | None]:
        """Sleep interval for one member, from current capacities, cached
        backlog and the recent path-delay window, with the shortest hosting
        delay of the member's cached packets that went into it."""
        degree = len(sim.graph.neighbors_of(nid))
        cap_sum = self.cap_sums.get(degree)
        if cap_sum is None:
            cap_sum = self.cap_sums[degree] = sum_in_order((float(sim.link_bps),) * degree)
        samples = self.cap_samples[nid]
        window_push(samples, (cap_sum, sim.now))
        sup = window_front(samples, sim.now - sim.round_length)[0][0]
        if sup <= 0:
            return 0.0, None  # isolated node: stays awake
        # Holders are exactly the alive nodes with bits cached for ``nid``.
        holders = sim.holders_by_dst.get(nid)
        if holders is None:
            vol_sum, min_delay = 0, None  # the sums below, over no caches
        else:
            caches = [sim.nodes[h].cache for h in sorted(holders)]
            vol_sum = sum_in_order(float(cache.volume_for(nid)) for cache in caches)
            min_delay = min(cache.hosting_delay(nid, sim.now) for cache in caches)
        # The delay budget is a round fraction: it bounds how long a chunk of
        # sleep may defer traffic. Cached backlog, capacity dips and hosting
        # delays shorten it; measured path delays feed the idle window and
        # the hop exponent. The formula assumes, and nothing here rechecks:
        # both sums are >= 0 (link_bps > 0, volumes are bits), ``sup`` is the
        # maximum of a window holding ``cap_sum``, a measured path has at
        # least one hop, and the config validates the round length and the
        # budget (both > 0).
        _, hops = self._max_dp(sim, nid)
        interval = compute_sleep(cap_sum, vol_sum, sup, hops,
                                 sim.config.sleep_budget_rounds * sim.round_length,
                                 sim.round_length, min_delay)
        return interval, min_delay

    # -- phase changes ---------------------------------------------------------

    def _enter_idle(self, sim: Simulation, node: SimNode) -> None:
        """Idle listening for the computed interval; a sleeping node wakes."""
        delay, hops = self._max_dp(sim, node.nid)
        interval = compute_idle(sim.round_length, min(delay, sim.round_length), hops)
        sim.set_phase(node, PHASE_IDLE, sim.now + interval)

    def _enter_sleep(self, sim: Simulation, node: SimNode, interval: float) -> bool:
        """Put the node to sleep for at most ``interval`` seconds, with the
        wake-up aligned just before a slot boundary.

        Alignment clusters wake-ups so forwarding progresses in bursts at
        boundaries; the realized interval never exceeds the assigned one.
        Refuses a nap that would not reach the next boundary, and then
        returns False and leaves the node as it is.
        """
        wake_raw = sim.now + interval
        # Both the alignment and its 1e-6 offset are load-bearing. The offset
        # wakes the node before the boundary's proxy pass, which can grant
        # it its next nap at once. Measured on the acceptance scenario, seeds
        # 1-5 (delivery 0.983-1.000, 448-474 J per device, mean delay
        # 4.7-10.6 s with both): without the alignment each device spends
        # 657-686 J, and without the offset alone 659-689 J.
        aligned = math.floor(wake_raw / sim.slot_width + 1e-9) * sim.slot_width - 1e-6
        if aligned <= sim.now + 1e-9:
            return False
        sim.set_phase(node, PHASE_SLEEP, aligned)
        sim.trace_event(node.nid, "sleep-grant", "assigned=%r;realized=%r",
                        interval, aligned - sim.now)
        return True


# Scheme definitions: the parsed ``scheme`` value of a scenario.


@dataclass(frozen=True)
class TrafficAware:
    """The traffic-aware sleep-proxy scheme; intervals come from the scheduler."""

    name = "traffic-aware"
    keys = ()
    plane = TrafficAwarePlane


@dataclass(frozen=True)
class AlwaysOn:
    name = "always-on"
    keys = ()
    plane = SchemePlane


@dataclass(frozen=True)
class PeriodicSleepWake:
    """Staggered duty cycle: each node listens for the first ``duty`` share
    of every period, shifted by its own offset."""

    duty: float = 0.25
    period: float = 2.0
    name = "periodic"
    keys = (("duty", "duty"), ("period_s", "period"))
    plane = StaggeredPlane

    def __post_init__(self) -> None:
        if not 0.0 < self.duty <= 1.0:
            raise ValueError("duty must lie in (0, 1]")
        if self.period <= 0:
            raise ValueError("period must be > 0")

    # Cached: ``dispatch_scheme`` reads it at every window change.
    @cached_property
    def listen(self) -> float:
        return self.duty * self.period


@dataclass(frozen=True)
class CoordinatedDutyCycle:
    """Synchronized listen/sleep windows shared by all cluster members."""

    listen: float = 0.5
    sleep: float = 1.5
    name = "coordinated"
    keys = (("listen_s", "listen"), ("sleep_s", "sleep"))
    plane = DutyCyclePlane

    def __post_init__(self) -> None:
        if self.listen <= 0 or self.sleep <= 0:
            raise ValueError("listen and sleep windows must be > 0")

    @cached_property
    def period(self) -> float:
        return self.listen + self.sleep


Scheme = Union[TrafficAware, AlwaysOn, PeriodicSleepWake, CoordinatedDutyCycle]

SCHEMES: dict[str, type] = {
    cls.name: cls for cls in (TrafficAware, AlwaysOn, PeriodicSleepWake, CoordinatedDutyCycle)
}
