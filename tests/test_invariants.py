"""Cross-module invariants that need a full simulation to exercise."""

import math
from collections import Counter
from datetime import timedelta

import pytest
from hypothesis import Phase, assume, given, settings, strategies as st

from ecsim.config import from_dict
from ecsim.core import EventKind, NodePhase, RadioMode
from ecsim.engine import Simulation
from ecsim.scheduler import path_delay, sp_sleep
from ecsim.schemes import DutyCyclePlane, TrafficAwarePlane
from ecsim.topology import hop_distances

SCHEMES = ("traffic-aware", "periodic", "coordinated", "always-on")


def make_sim(seed=3, **overrides):
    raw = {
        "grid": {"width": 5, "height": 5},
        "nodes": 12,
        "initial_energy_j": 300.0,
        "round_s": 10.0,
        "horizon_s": 150.0,
        "traffic_horizon_s": 120.0,
        "p_move": 0.005,
        "flows": [
            {"src": 0, "dst": 7, "rate_pps": 0.6},
            {"src": 2, "dst": 11, "rate_pps": 0.4},
        ],
    }
    raw.update(overrides)
    return Simulation(from_dict(raw), seed)


def run_sim(seed=3, **overrides):
    sim = make_sim(seed, **overrides)
    sim.run()
    return sim


# Traffic-aware only: only its plane keeps the path records read here.
def test_delivered_delay_equals_component_sum():
    sim = make_sim()
    checked = []
    delivered = sim.plane.delivered

    def check_then_deliver(sim, work):
        # Per-hop hosting (queue/cache wait) plus transmission must telescope
        # to the measured end-to-end delay, read from the plane's path record.
        last_arrival, hops, _ = sim.plane.paths[work.packet.id]
        measured = sim.now - work.packet.created_at
        assert path_delay(hops) == pytest.approx(measured, abs=1e-9)
        assert last_arrival == sim.now
        checked.append(work.packet.id)
        delivered(sim, work)

    sim.plane.delivered = check_then_deliver
    sim.run()
    assert len(checked) > 10
    ended = {pid for pid, work in sim.work.items() if work.state in ("delivered", "delivered-late")}
    assert ended == set(checked)


def test_no_packet_silently_vanishes():
    for scheme in SCHEMES:
        sim = run_sim(scheme=scheme)
        # every generated packet is terminal or still held somewhere visible
        accounted = {pid for pid, work in sim.work.items() if work.state is not None}
        for node in sim.nodes.values():
            for work in node.outbox:
                accounted.add(work.packet.id)
            for entry in node.cache._entries:
                accounted.add(entry.packet.id)
        pending_retries = {
            e.payload["packet_id"]
            for e in sim.pending()
            if e.kind.name == "PACKET_ARRIVAL" and "packet_id" in e.payload
        }
        accounted |= pending_retries
        missing = [pid for pid in sim.work if pid not in accounted]
        assert missing == [], scheme


# Traffic-aware only: the baselines sleep on fixed windows, not on grants.
def test_sleep_intervals_all_come_from_grants():
    sim = run_sim()
    assert sim.plane.sleep_audit
    for grant in sim.plane.sleep_audit:
        assert grant["t_sleep"] < grant["round_length"]
    # realized sleep time per node never exceeds what was assigned in total
    for nid, node in sim.nodes.items():
        assigned = sum(g["t_sleep"] for g in sim.plane.sleep_audit if g["node"] == nid)
        assigned += sum(g["t_sleep"] for g in sim.plane.sp_sleep_audit if g["node"] == nid)
        from ecsim.core import RadioMode

        slept = node.time_in_mode[RadioMode.SLEEP]
        assert slept <= assigned + 1e-6


def test_roles_are_alive_members():
    # Tiny batteries kill nodes mid-round, so role repair runs. Roles are
    # checked after every event: by the horizon every cluster may be gone.
    for scheme in SCHEMES:
        sim = make_sim(initial_energy_j=20.0, horizon_s=150.0, scheme=scheme)
        checked = 0
        while sim.peek_time() is not None and sim.peek_time() <= sim.horizon:
            sim.step()
            for cluster in sim.plane.clusters:
                assert cluster.ch in cluster.members, scheme
                assert cluster.sp in cluster.members, scheme
                assert sim.nodes[cluster.ch].alive, scheme
                assert sim.nodes[cluster.sp].alive, scheme
                checked += 1
        if scheme == "traffic-aware":
            assert checked, scheme
        else:
            # Only traffic-aware has a control plane.
            assert not sim.plane.clusters and not sim.plane.ch_ids, scheme


def test_proxy_sleeps_on_its_own_clusters_grants_after_an_earlier_cluster_empties():
    sim = make_sim(seed=1, cluster={"policy": "grid", "partition": 2}, p_move=0.0)
    plane = sim.plane

    def grants(members):
        return [g["t_sleep"] for g in plane.sleep_audit
                if g["time"] > sim.round_start and g["node"] in members]

    # Stop at a boundary, before the round's last, where the second cluster
    # holds grants that differ from the first's; then the whole first dies.
    while True:
        event = sim.step()
        if (event.kind is EventKind.SLOT_BOUNDARY and sim.round_index >= 1
                and event.payload["slot"] < sim.slots_per_round - 1):
            first, later = plane.clusters[:2]
            if grants(later.members) and sum(grants(first.members)) != sum(grants(later.members)):
                break
    for nid in sorted(first.members):
        sim._touch(sim.nodes[nid])
        sim._kill(sim.nodes[nid])
    assert later in plane.clusters and first not in plane.clusters
    round_index, seen = sim.round_index, len(plane.sp_sleep_audit)
    while not (naps := [e for e in plane.sp_sleep_audit[seen:] if e["node"] == later.sp]):
        sim.step()
        assert sim.round_index == round_index, "the later proxy did not sleep this round"
    expected = sp_sleep(grants(later.members), sim.slots_per_round, sim.round_length,
                        sim.config.sleep_epsilon)
    assert naps[0]["t_sleep"] == expected


def test_dead_nodes_stay_dead_with_zero_energy():
    for scheme in SCHEMES:
        sim = run_sim(initial_energy_j=20.0, horizon_s=150.0, scheme=scheme)
        dead = [n for n in sim.nodes.values() if not n.alive]
        assert dead, f"{scheme}: tiny batteries should kill at least one node"
        for node in dead:
            assert node.account.e_residual == 0.0, scheme
            assert node.death_time is not None and node.death_time <= 150.0, scheme


def test_alive_fraction_series_monotone_non_increasing():
    for scheme in SCHEMES:
        sim = run_sim(
            initial_energy_j=25.0, horizon_s=200.0, traffic_horizon_s=150.0, scheme=scheme
        )
        fractions = [row[1] for row in sim.timeseries]
        assert all(a >= b - 1e-12 for a, b in zip(fractions, fractions[1:])), scheme


def test_phase_gates_sleeping_nodes_process_no_radio():
    for scheme in SCHEMES:
        sim = run_sim(scheme=scheme)
        # audited from the trace-free state: sleeping nodes never hold the radio
        for node in sim.nodes.values():
            if node.phase is NodePhase.SLEEP:
                assert not node.tx_active, scheme
                assert node.rx_active == 0, scheme


@st.composite
def small_scenarios(draw):
    """Small scenarios in which nodes die, caches fill and nodes move."""
    nodes = draw(st.integers(4, 12))
    flows = []
    for _ in range(draw(st.integers(1, 3))):
        src = draw(st.integers(0, nodes - 1))
        dst = draw(st.integers(0, nodes - 2))
        flows.append(
            {"src": src, "dst": dst + (dst >= src), "rate_pps": draw(st.floats(0.2, 1.5))}
        )
    raw = {
        "grid": {"width": draw(st.integers(2, 4)), "height": draw(st.integers(2, 4))},
        "nodes": nodes,
        "initial_energy_j": draw(st.floats(10.0, 80.0)),
        "round_s": 10.0,
        "horizon_s": 100.0,
        "traffic_horizon_s": 90.0,
        "p_move": draw(st.floats(0.0, 0.05)),
        "flows": flows,
        # One to five packets of 8,000 bits fill the cache.
        "cache": {
            "enabled": draw(st.integers(0, 3)) > 0,
            "capacity_bits": 8_000 * draw(st.integers(1, 5)),
        },
        # A slow link keeps packets on the air long enough for nodes to die
        # while they send or receive.
        "link_bps": draw(st.sampled_from([11_000_000.0, 20_000.0])),
    }
    if draw(st.booleans()):
        raw["cluster"] = {"policy": "grid", "partition": draw(st.integers(1, 2))}
    return raw, draw(st.integers(0, 10_000))


@st.composite
def strip_scenarios(draw):
    """Sparse strips 8-12 cells long and one or two cells high, in which hop
    maps run six or more levels deep and moves and deaths cut long paths."""
    width = draw(st.integers(8, 12))
    # Two nodes per column connect within PLACEMENT_ATTEMPTS on either height.
    nodes = 2 * width
    flows = []
    for _ in range(draw(st.integers(1, 2))):
        src = draw(st.integers(0, nodes - 1))
        dst = draw(st.integers(0, nodes - 2))
        flows.append(
            {"src": src, "dst": dst + (dst >= src), "rate_pps": draw(st.floats(0.2, 1.5))}
        )
    raw = {
        "grid": {"width": width, "height": draw(st.integers(1, 2))},
        "nodes": nodes,
        "initial_energy_j": draw(st.floats(20.0, 80.0)),
        "round_s": 10.0,
        "horizon_s": 60.0,
        "traffic_horizon_s": 50.0,
        "p_move": draw(st.floats(0.01, 0.05)),
        "flows": flows,
        "cache": {"enabled": True, "capacity_bits": 8_000 * draw(st.integers(1, 5))},
        "link_bps": draw(st.sampled_from([11_000_000.0, 20_000.0])),
    }
    return raw, draw(st.integers(0, 10_000)), draw(st.sampled_from(SCHEMES))


# The checks scan the whole event heap after every event; comprehensions
# over these aliases keep the test fast.
PACKET_ARRIVAL, TX_COMPLETE, NODE_DEATH, CACHE_DELIVERY = (
    EventKind.PACKET_ARRIVAL, EventKind.TX_COMPLETE, EventKind.NODE_DEATH,
    EventKind.CACHE_DELIVERY,
)
SLEEP_EXPIRY, SLEEP = EventKind.SLEEP_EXPIRY, NodePhase.SLEEP
TIMERS = (SLEEP_EXPIRY, EventKind.IDLE_EXPIRY)


def checked_simulation(raw, seed):
    """The simulation of ``raw`` for the every-event checks. Its plane keeps
    ``met``: the packets whose latest deferral a meeting timed, because their
    holder had a hop count."""
    sim = Simulation(from_dict(raw), seed)
    plane = sim.plane
    plane.met = set()
    retry_at = plane.retry_at

    def recorded(sim, node, work, dist, here):
        (plane.met.discard if here is None else plane.met.add)(work.packet.id)
        return retry_at(sim, node, work, dist, here)

    plane.retry_at = recorded
    return sim


def assert_structural_invariants(sim):
    nodes = sim.nodes
    # (a) The holder index lists exactly the caches with volume for each
    # destination, and holders and destinations are alive.
    cached = {}
    held = []  # one packet id per holding
    for nid, node in nodes.items():
        for dst in node.cache.destinations():
            assert node.cache.volume_for(dst) > 0
            cached.setdefault(dst, set()).add(nid)
        # (j) Each cache's running occupancy is the sum of its entries and
        # within its capacity.
        cache = node.cache
        assert cache.used_bits == sum(cache.recomputed_volumes().values()) <= cache.capacity_bits
        held.extend(work.packet.id for work in node.outbox)
        held.extend(entry.packet.id for entry in node.cache._entries)
        # (g) No outbox or cache holds a packet at its own destination.
        assert all(work.packet.dst != nid for work in node.outbox)
        assert all(entry.packet.dst != nid for entry in node.cache._entries)
    assert sim.holders_by_dst == cached
    for dst, holders in cached.items():
        assert nodes[dst].alive and all(nodes[h].alive for h in holders)
    # (b) Cluster members are alive, and each cluster has its own list of this
    # round's sleep grants (a plane without clusters has none).
    for cluster in sim.plane.clusters:
        assert all(nodes[m].alive for m in cluster.members)
    assert len(getattr(sim.plane, "sp_history", ())) == len(sim.plane.clusters)
    power = sim.params.power
    for node in nodes.values():
        # (e) A sleeping node's radio sleeps: it neither sends nor receives.
        if node.phase is SLEEP:
            assert node.mode is RadioMode.SLEEP and not node.tx_active and not node.rx_active
        # (f) The energy ledger closes: what a node spent is its time in each
        # mode times that mode's power.
        spent = sum(seconds * power(mode) for mode, seconds in node.time_in_mode.items())
        assert abs(node.account.e_max - node.account.e_residual - spent) <= 1e-6
    pending = sim.pending()
    held += [
        p["packet_id"]
        for _, _, kind, _, p in pending
        if kind is TX_COMPLETE or (kind is PACKET_ARRIVAL and "retry" in p)
    ]
    # (g) Nor does a pending retry.
    assert not [
        nid
        for _, _, kind, nid, p in pending
        if kind is PACKET_ARRIVAL and "retry" in p and sim.packets[p["packet_id"]].dst == nid
    ]
    # (k) A wake queues hand-overs only for its own instant: every queued one
    # is due now, and every cached pair whose ends are both awake has one.
    assert all(time == sim.now for time, _, kind, _, _ in pending if kind is CACHE_DELIVERY)
    queued = {(nid, p["woken"]) for _, _, kind, nid, p in pending if kind is CACHE_DELIVERY}
    assert not [
        (holder, dst)
        for dst, holders in cached.items()
        for holder in holders
        if nodes[holder].awake and nodes[dst].awake and (holder, dst) not in queued
    ]
    # (d) Each node has at most one timer whose epoch matches, and only an
    # alive node has one. An alive sleeping node has exactly one: a sleep
    # expiry at its ``wake_at``.
    live = [
        (nid, kind, time)
        for time, _, kind, nid, p in pending
        if kind in TIMERS and p["epoch"] == nodes[nid].phase_epoch
    ]
    assert len({nid for nid, _, _ in live}) == len(live)
    assert all(nodes[nid].alive for nid, _, _ in live)
    assert {nid: time for nid, kind, time in live if kind is SLEEP_EXPIRY} == {
        nid: node.wake_at for nid, node in nodes.items() if node.alive and node.phase is SLEEP
    }
    # (l) A dead node has no death prediction. An alive node's prediction has
    # a death entry queued at or before its (time, seq) key: the prediction
    # itself, or an earlier entry that re-queues it when it fires.
    earliest_death = {}
    for time, seq, kind, nid, _ in pending:
        if kind is NODE_DEATH and (time, seq) < earliest_death.get(nid, (math.inf, 0)):
            earliest_death[nid] = (time, seq)
    for nid, node in nodes.items():
        if not node.alive:
            assert node.death_key is None, nid
        elif node.death_key is not None:
            assert earliest_death.get(nid, (math.inf, 0)) <= node.death_key, nid
    # (n) A packet waits for a next hop no longer than a sleep lasts: every
    # pending retry that a meeting timed is due within one period of now
    # under the duty-cycle baselines, and within one round under the others,
    # whose sleep grants are shorter than a round. A retry timed while its
    # holder had no hop count polls with backoff, and a move may give the
    # holder a route before it is due, so only ``checked_simulation``'s
    # record tells the two apart. With staggered windows, drawn pairs that
    # never share a window meet this way (with 4 nodes, no two nodes share
    # one).
    if isinstance(sim.plane, DutyCyclePlane):
        latest = sim.now + sim.config.scheme.period
    else:
        latest = sim.now + sim.round_length
    assert not [
        (nid, p["packet_id"], time)
        for time, _, kind, nid, p in pending
        if kind is PACKET_ARRIVAL and "retry" in p and time > latest
        and p["packet_id"] in sim.plane.met
    ]
    # (m) First arrivals are queued one at a time, in packet order: while a
    # packet has not arrived, the next one's is the only one queued.
    firsts = [p["packet_id"] for _, _, kind, _, p in pending
              if kind is PACKET_ARRIVAL and "retry" not in p]
    assert firsts == ([len(sim.work)] if len(sim.work) < len(sim.packets) else [])
    # (c) An unended packet is held in exactly one place, an ended one nowhere:
    # outboxes, caches, pending retry arrivals and pending transmissions.
    counts = Counter(held)
    assert set(counts.values()) <= {1}, counts.most_common(1)
    assert counts.keys() == {pid for pid, work in sim.work.items() if work.state is None}
    # (h) Every cached distance map is an alive node's and exact on the
    # current graph.
    for dst, dist in sim._dist_cache.items():
        assert nodes[dst].alive and dist == hop_distances(sim.graph, dst)
    # (i) The proxy pass's inbound map equals a recount for every alive node:
    # volume cached for it at its neighbours plus bits for it queued there.
    if isinstance(sim.plane, TrafficAwarePlane):
        inbound = sim.plane._inbound_bits(sim)
        recount = {}
        for nid, node in nodes.items():
            if node.alive:
                near = [nodes[other] for other in sim.graph.neighbors_of(nid)]
                recount[nid] = sum(other.cache.volume_for(nid) for other in near) + sum(
                    work.packet.size_bits
                    for other in near
                    for work in other.outbox
                    if work.packet.dst == nid
                )
        assert {nid: bits for nid, bits in inbound.items() if bits} == {
            nid: bits for nid, bits in recount.items() if bits
        }


# One test per scheme, whose id names the scheme. A failing example is
# reported as drawn: shrinking replays whole checked runs until Hypothesis'
# 300 s shrink limit, which is longer than the rest of the suite takes.
@pytest.mark.parametrize("scheme", SCHEMES)
@settings(max_examples=12, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])
@given(small_scenarios())
def test_structural_invariants_after_every_event(scheme, scenario):
    raw, seed = scenario
    sim = checked_simulation({**raw, "scheme": scheme}, seed)
    assert_structural_invariants(sim)
    while sim.peek_time() is not None and sim.peek_time() <= sim.horizon:
        sim.step()
        assert_structural_invariants(sim)


@settings(max_examples=6, deadline=timedelta(seconds=30))
@given(strip_scenarios())
def test_structural_invariants_after_every_event_on_deep_maps(scenario):
    raw, seed, scheme = scenario
    sim = checked_simulation({**raw, "scheme": scheme}, seed)
    # The seed places the nodes: keep the draws whose flows need six levels.
    assume(max(max(hop_distances(sim.graph, f["dst"]).values()) for f in raw["flows"]) >= 6)
    assert_structural_invariants(sim)
    while sim.peek_time() is not None and sim.peek_time() <= sim.horizon:
        sim.step()
        assert_structural_invariants(sim)
