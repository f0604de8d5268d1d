import gc
import math
import re
import weakref

import pytest

from ecsim import engine, schemes
from ecsim import report as report_mod
from ecsim.cache import StoreResult
from ecsim.config import from_dict
from ecsim.core import EventKind, NodePhase
from ecsim.engine import PacketWork, Simulation, run_simulation
from ecsim.scheduler import ActivityLedger
from ecsim.schemes import CoordinatedDutyCycle, PeriodicSleepWake, dispatch_scheme
from test_acceptance import SCENARIO


def make_config(**overrides):
    raw = {
        "grid": {"width": 4, "height": 4},
        "nodes": 8,
        "initial_energy_j": 100.0,
        "round_s": 10.0,
        "horizon_s": 50.0,
        "p_move": 0.0,
        "flows": [{"src": 0, "dst": 5, "rate_pps": 0.5}],
    }
    raw.update(overrides)
    return from_dict(raw)


def cached_for_sleeping_node(holder):
    """A traced simulation at t = 14 s in which node 0 sleeps until 20 s and
    ``holder`` has cached, at 12 s, packets 0-2 for node 0 around packet 3
    for node 5. Packet 1 is delay-sensitive, with a deadline of 13 s.

    On seed 4, node 0's neighbours are 2, 4 and 7, and node 3 is two hops
    away through node 4."""
    from ecsim.traffic import Packet

    sim = Simulation(make_config(horizon_s=40.0, flows=[]), 4, collect_trace=True)
    assert sim.next_hops(0, 2) == sim.next_hops(0, 4) == (0,) and sim.next_hops(0, 3) == (4,)
    sim.now = 12.0
    sim.set_phase(sim.nodes[0], NodePhase.SLEEP, 20.0)
    for pid, dst in enumerate((0, 0, 0, 5)):
        sensitive = pid == 1
        packet = Packet(
            id=pid, src=6, dst=dst, size_bits=8_000, created_at=12.0,
            deadline=13.0 if sensitive else None,
        )
        sim.packets.append(packet)
        sim.work[pid] = PacketWork(packet, True)
    for pid in (0, 3, 1, 2):
        assert sim._cache_here(sim.nodes[holder], sim.work[pid])
    sim.now = 14.0
    return sim


class TestDispatchScheme:
    def test_periodic_half_duty(self):
        scheme = PeriodicSleepWake(duty=0.5, period=2.0)
        assert dispatch_scheme(scheme, 0.0) == (NodePhase.ACTIVE, pytest.approx(1.0))
        assert dispatch_scheme(scheme, 1.0) == (NodePhase.SLEEP, pytest.approx(2.0))

    def test_coordinated_windows(self):
        scheme = CoordinatedDutyCycle(listen=0.5, sleep=1.5)
        assert dispatch_scheme(scheme, 0.0) == (NodePhase.ACTIVE, pytest.approx(0.5))
        assert dispatch_scheme(scheme, 0.5)[0] is NodePhase.SLEEP
        assert dispatch_scheme(scheme, 2.0)[0] is NodePhase.ACTIVE

    def test_scheme_validation(self):
        with pytest.raises(ValueError):
            PeriodicSleepWake(duty=1.5, period=2.0)
        with pytest.raises(ValueError):
            CoordinatedDutyCycle(listen=0.0, sleep=1.0)


class TestRun:
    def test_zero_horizon_keeps_energy(self):
        config = make_config(horizon_s=0.0, flows=[])
        report, _ = run_simulation(config, 1)
        assert report.network["generated_packets"] == 0
        for per in report.per_node.values():
            assert per["consumed_j"] == pytest.approx(0.0, abs=1e-12)

    def test_always_on_idle_energy_closed_form(self):
        config = make_config(
            scheme={"kind": "always-on"}, flows=[], horizon_s=10.0, p_move=0.0
        )
        report, _ = run_simulation(config, 1)
        for per in report.per_node.values():
            assert per["consumed_j"] == pytest.approx(0.83 * 10.0, abs=1e-9)
            assert per["time_in_mode_s"]["idle"] == pytest.approx(10.0, abs=1e-9)

    def test_node_that_never_changes_mode_dies(self):
        config = make_config(
            grid={"width": 3, "height": 3}, nodes=6, initial_energy_j=60.0,
            scheme={"kind": "always-on"}, flows=[], horizon_s=200.0,
        )
        report, _ = run_simulation(config, 1)
        lifetime = 60.0 / 0.83
        assert report.network["first_death_s"] == pytest.approx(lifetime)
        for per in report.per_node.values():
            assert per["lifetime_s"] == pytest.approx(lifetime)
            idle = per["time_in_mode_s"]["idle"]
            assert idle == pytest.approx(lifetime)
            assert per["consumed_j"] == pytest.approx(idle * 0.83, abs=1e-6)

    def test_battery_emptied_by_the_interval_before_a_mode_change_dies_then(self):
        # The mode change makes the pending death prediction stale; the node
        # must still die at once rather than live on with an empty battery.
        sim = Simulation(make_config(flows=[], scheme={"kind": "always-on"}), 1)
        while sim.peek_time() < 1.0:
            sim.step()
        node = sim.nodes[1]
        node.e_residual = node.e_max = 0.83  # one second of idle listening
        sim.now = 1.0
        sim.set_phase(node, NodePhase.SLEEP, 3.0)
        assert node.e_residual == 0.0 and node.alive
        while sim.peek_time() <= 1.0:
            sim.step()
        assert not node.alive and node.death_time == 1.0

    def test_same_seed_reports_byte_identical(self):
        config = make_config(horizon_s=60.0, p_move=0.2)
        r1, t1 = run_simulation(config, 9, collect_trace=True)
        r2, t2 = run_simulation(config, 9, collect_trace=True)
        assert r1.to_json() == r2.to_json()
        assert t1 == t2

    def test_different_seeds_differ(self):
        config = make_config(horizon_s=60.0, p_move=0.2)
        r1, _ = run_simulation(config, 9)
        r2, _ = run_simulation(config, 10)
        assert r1.to_json() != r2.to_json()

    def test_event_causality(self):
        sim = Simulation(make_config(horizon_s=40.0), 3)
        last = 0.0
        while True:
            event = sim.step()
            if event is None or event.time > 40.0:
                break
            assert event.time >= last - 1e-9
            last = event.time

    def test_packet_conservation(self):
        config = make_config(horizon_s=80.0)
        sim = Simulation(config, 5)
        net = sim.run().network
        # every generated packet is in exactly one terminal state or in flight
        terminal = (
            net["delivered_packets"] + net["delivered_late_packets"] + sum(net["lost"].values())
        )
        assert net["in_flight_at_end"] >= 0
        assert terminal + net["in_flight_at_end"] == net["generated_packets"] == len(sim.work)

    def test_energy_monotone_and_closed(self):
        config = make_config(horizon_s=60.0)
        report, _ = run_simulation(config, 2)
        for per in report.per_node.values():
            assert per["residual_j"] >= 0.0
            assert per["consumed_j"] + per["residual_j"] == pytest.approx(100.0, abs=1e-6)
            modes = per["time_in_mode_s"]
            assert sum(modes.values()) == pytest.approx(per["lifetime_s"], abs=1e-6)


class TestStepTransitions:
    def test_sleep_expiry_moves_to_idle_and_arms_no_timer(self):
        sim = Simulation(make_config(horizon_s=40.0), 4)
        node = sim.nodes[1]
        sim.now = 12.0
        sim.set_phase(node, NodePhase.IDLE)
        assert sim.plane._enter_sleep(sim, node, 3.0)
        assert node.phase is NodePhase.SLEEP
        wake = node.wake_at
        assert wake <= 15.0
        sim.now = wake
        sim._on_phase_expiry(
            type("E", (), {"node": 1, "payload": {"epoch": node.phase_epoch}})()
        )
        assert node.phase is NodePhase.IDLE
        kinds = [e.kind for e in sim.pending() if e.node == 1 and e.time >= wake]
        assert EventKind.IDLE_EXPIRY not in kinds

    def test_stale_sleep_expiry_ignored(self):
        sim = Simulation(make_config(horizon_s=40.0), 4)
        node = sim.nodes[2]
        sim.now = 11.0
        sim.set_phase(node, NodePhase.IDLE)
        assert sim.plane._enter_sleep(sim, node, 4.0)
        old_epoch = node.phase_epoch
        sim.set_phase(node, NodePhase.IDLE)  # e.g. the proxy wake woke it early
        assert node.phase is NodePhase.IDLE
        sim._on_phase_expiry(type("E", (), {"node": 2, "payload": {"epoch": old_epoch}})())
        assert node.phase is NodePhase.IDLE  # stale event changed nothing

    def test_a_sleeper_that_moves_sleeps_until_its_wake(self):
        config = make_config(horizon_s=40.0, p_move=1.0)
        sim = Simulation(config, 4, collect_trace=True)
        node = sim.nodes[3]
        sim.now = 11.0
        sim.set_phase(node, NodePhase.IDLE)
        assert sim.plane._enter_sleep(sim, node, 5.0)
        wake, epoch = node.wake_at, node.phase_epoch
        sim._on_mobility_step(type("E", (), {"node": None, "payload": {}})())
        assert (11.0, 3, "moved", "") in sim.trace
        assert node.phase is NodePhase.SLEEP
        assert (node.wake_at, node.phase_epoch) == (wake, epoch)
        timers = [(e.kind, e.time) for e in sim.pending()
                  if e.node == 3 and e.payload.get("epoch") == epoch]
        assert timers == [(EventKind.SLEEP_EXPIRY, wake)]

    def test_a_cluster_head_can_sleep_longer_than_one_slot(self):
        sim = Simulation(make_config(), 1)
        plane = sim.plane
        grants = []
        while not grants:
            granted = len(plane.sleep_audit)
            assert sim.step() is not None, "no cluster head was granted sleep"
            heads = {cl.ch for cl in plane.clusters}
            grants = [g for g in plane.sleep_audit[granted:] if g["node"] in heads]
        grant = grants[0]
        assert grant["t_sleep"] > sim.slot_width
        assert sim.nodes[grant["node"]].wake_at - sim.now > sim.slot_width

    def test_next_hop_is_the_nearest_awake_neighbor_with_the_smallest_id(self):
        from ecsim.traffic import Packet

        # On seed 5, node 2 is two hops from node 1 through nodes 0, 3, 4 and 5.
        sim = Simulation(make_config(flows=[], scheme={"kind": "always-on"}), 5)
        assert sim.next_hops(1, 2) == (0, 3, 4, 5)
        assert all(sim.next_hops(1, v) == (1,) for v in (0, 3, 4, 5))
        sim.set_phase(sim.nodes[0], NodePhase.SLEEP, 20.0)
        relay = sim.nodes[3]
        relay.e_residual = 0.1 * relay.e_max  # a drained battery does not matter
        packet = Packet(id=0, src=2, dst=1, size_bits=8_000, created_at=0.0)
        sim.packets.append(packet)
        sim.work[0] = PacketWork(packet, False)
        sim.nodes[2].outbox.append(sim.work[0])
        sim._try_transmit(sim.nodes[2])
        sends = [(e.payload["sender"], e.node) for e in sim.pending()
                 if e.kind is EventKind.TX_COMPLETE]
        assert sends == [(2, 3)]

    def test_the_next_hop_follows_a_death_and_a_move(self):
        from ecsim.topology import refresh_node
        from ecsim.traffic import Packet

        # The topology of the test above: node 2 reaches node 1 through 0, 3,
        # 4 and 5, and node 0 sleeps.
        sim = Simulation(make_config(flows=[], scheme={"kind": "always-on"}), 5)
        sim.set_phase(sim.nodes[0], NodePhase.SLEEP, 20.0)
        holder = sim.nodes[2]

        def first_hop(pid):
            packet = Packet(id=pid, src=2, dst=1, size_bits=8_000, created_at=sim.now)
            sim.packets.append(packet)
            sim.work[pid] = PacketWork(packet, False)
            holder.outbox.append(sim.work[pid])
            sim._try_transmit(holder)
            [hop] = [e.node for e in sim.pending() if e.kind is EventKind.TX_COMPLETE
                     and e.payload["packet_id"] == pid and e.payload["sender"] == 2]
            while holder.tx_active:
                sim.step()
            return hop

        assert first_hop(0) == 3
        sim._touch(sim.nodes[3])
        sim._kill(sim.nodes[3])
        assert first_hop(1) == 4
        # The destination moves into the holder's cell: it is the nearest now.
        assert 1 not in sim.graph.neighbors_of(2)
        sim.grid.move(1, sim.grid.position_of(2))
        removed, added = refresh_node(sim.graph, sim.grid, 1)
        sim._repair_maps((1, *removed), [(1, v) for v in added])
        assert first_hop(2) == 1

    def test_same_phase_call_only_arms_the_timer(self):
        config = make_config(horizon_s=40.0, flows=[], scheme={"kind": "always-on"})
        sim = Simulation(config, 4, collect_trace=True)
        node = sim.nodes[1]
        sim.now = 5.0
        epoch = node.phase_epoch
        rows = len(sim.trace)
        sim.set_phase(node, NodePhase.ACTIVE, 7.0)
        assert node.phase is NodePhase.ACTIVE and node.phase_epoch == epoch
        assert len(sim.trace) == rows  # not touched: no mode row
        timers = [(e.kind, e.time, e.payload) for e in sim.pending() if e.node == 1
                  and e.kind in (EventKind.IDLE_EXPIRY, EventKind.SLEEP_EXPIRY)]
        assert timers == [(EventKind.IDLE_EXPIRY, 7.0, {"epoch": epoch})]
        sim.set_phase(node, NodePhase.IDLE)  # a change of phase is billed
        assert node.phase_epoch == epoch + 1
        assert [row[2] for row in sim.trace[rows:]] == ["mode"]

    def test_leaving_sleep_queues_handover_from_each_holder(self):
        from ecsim.traffic import Packet

        sim = Simulation(make_config(horizon_s=40.0, flows=[]), 4)
        holder = next(n for n in sorted(sim.nodes) if sim.graph.neighbors_of(n))
        dst = min(sim.graph.neighbors_of(holder))
        sleeper = sim.nodes[dst]
        sim.now = 12.0
        sim.set_phase(sleeper, NodePhase.SLEEP, 20.0)
        assert sleeper.wake_at == 20.0
        packet = Packet(id=0, src=holder, dst=dst, size_bits=8_000, created_at=12.0)
        sim.packets.append(packet)
        sim.work[0] = PacketWork(packet, True)
        assert sim._cache_here(sim.nodes[holder], sim.work[0])
        assert not [e for e in sim.pending() if e.kind is EventKind.CACHE_DELIVERY]
        sim.set_phase(sleeper, NodePhase.IDLE)
        assert sleeper.wake_at is None
        handovers = [(e.time, e.node, e.payload) for e in sim.pending()
                     if e.kind is EventKind.CACHE_DELIVERY]
        assert handovers == [(12.0, holder, {"woken": dst})]

    def test_arrival_for_sleeping_dst_is_cached_next_door(self):
        config = make_config(horizon_s=40.0, flows=[])
        sim = Simulation(config, 4)
        # pick any adjacent pair
        src = next(n for n in sorted(sim.nodes) if sim.graph.neighbors_of(n))
        dst = min(sim.graph.neighbors_of(src))
        from ecsim.traffic import Packet

        packet = Packet(
            id=len(sim.packets), src=src, dst=dst, size_bits=8_000, created_at=12.0,
        )
        sim.packets.append(packet)
        sim.now = 12.0
        dnode = sim.nodes[dst]
        sim.set_phase(dnode, NodePhase.IDLE)
        assert sim.plane._enter_sleep(sim, dnode, 6.0)
        sim._on_packet_arrival(
            type("E", (), {"node": src, "payload": {"packet_id": packet.id}})()
        )
        assert sim.nodes[src].cache.volume_for(dst) == 8_000

    def test_a_packet_for_a_sleeping_node_goes_to_a_cache_the_sender_reaches(self):
        from ecsim.traffic import Packet

        config = make_config(horizon_s=40.0, flows=[],
                             cache={"enabled": True, "capacity_bits": 16_000})
        sim = Simulation(config, 3)
        # On seed 3, node 0's neighbours are 3, 4 and 5, and node 3 reaches
        # node 5 but not node 4.
        assert sim.graph.neighbors_of(0) == {3, 4, 5}
        assert sim.graph.neighbors_of(3) & {4, 5} == {5}
        sim.now = 12.0
        sim.set_phase(sim.nodes[0], NodePhase.SLEEP, 20.0)
        # Node 3's cache is full, node 5 has room for one packet and node 4
        # for two.
        for pid, holder in enumerate((3, 3, 5)):
            filler = Packet(id=100 + pid, src=6, dst=1, size_bits=8_000, created_at=12.0)
            assert sim.nodes[holder].cache.store(filler, 12.0) is StoreResult.ACCEPTED
        packet = Packet(id=0, src=3, dst=0, size_bits=8_000, created_at=12.0)
        sim.packets.append(packet)
        sim._on_packet_arrival(type("E", (), {"node": 3, "payload": {"packet_id": 0}})())
        on_air = [(e.node, e.payload) for e in sim.pending() if e.kind is EventKind.TX_COMPLETE]
        assert on_air == [(5, {"packet_id": 0, "sender": 3})]
        assert sim.work[0].defer_count == 0

    def test_evicting_two_packets_for_one_destination_unindexes_once(self):
        from ecsim.traffic import Packet

        sim = Simulation(make_config(horizon_s=40.0, flows=[]), 4)
        for pid in (0, 1):
            packet = Packet(
                id=pid, src=0, dst=1, size_bits=8_000,
                created_at=1.0, deadline=2.0,
            )
            sim.packets.append(packet)
            sim.work[pid] = PacketWork(packet, True)
            assert sim._cache_here(sim.nodes[0], sim.work[pid])
        assert sim.holders_by_dst == {1: {0}}
        sim.now = 3.0
        sim._evict_caches()  # both expire at the same boundary
        assert sim.holders_by_dst == {}
        assert [sim.work[pid].state for pid in (0, 1)] == ["lost-deadline"] * 2

    def test_handover_to_a_sleeping_neighbor_caches_the_entries_again(self):
        sim = cached_for_sleeping_node(holder=2)
        holder = sim.nodes[2]
        rows = len(sim.trace)
        sim._on_cache_delivery(engine.Event(14.0, -1, EventKind.CACHE_DELIVERY, 2, {"woken": 0}))
        # The entries for node 0 took the outbox path and were cached again,
        # at the back and stamped now; the expired one left.
        assert [(e.packet.id, e.stored_at) for e in holder.cache._entries] == [
            (3, 12.0), (0, 14.0), (2, 14.0)
        ]
        assert [(row[1], row[2], row[3]) for row in sim.trace[rows:]] == [
            (2, "cache-store", "pid=0;dst=0"),
            (0, "packet-lost-deadline", "pid=1"),
            (2, "cache-store", "pid=2;dst=0"),
        ]
        assert [sim.work[pid].state for pid in range(4)] == [None, "lost-deadline", None, None]
        assert not holder.outbox and not holder.tx_active
        assert not [e for e in sim.pending() if e.kind is EventKind.TX_COMPLETE]

    def test_handover_that_finds_its_holder_asleep_queues_nothing(self):
        sim = cached_for_sleeping_node(holder=2)
        holder = sim.nodes[2]
        sim.set_phase(holder, NodePhase.SLEEP, 16.0)
        entries = list(holder.cache._entries)
        sim._on_cache_delivery(engine.Event(14.0, -1, EventKind.CACHE_DELIVERY, 2, {"woken": 0}))
        assert holder.cache._entries == entries  # first stamps kept
        assert not [e for e in sim.pending() if e.kind is EventKind.CACHE_DELIVERY]

    def test_the_wake_that_finds_both_ends_awake_queues_one_handover(self):
        sim = cached_for_sleeping_node(holder=2)
        holder = sim.nodes[2]
        sim.set_phase(holder, NodePhase.SLEEP, 16.0)
        sim._on_cache_delivery(engine.Event(14.0, -1, EventKind.CACHE_DELIVERY, 2, {"woken": 0}))
        sim.set_phase(sim.nodes[0], NodePhase.IDLE)  # its holder still sleeps
        assert not [e for e in sim.pending() if e.kind is EventKind.CACHE_DELIVERY]
        sim.now = 16.0
        sim.set_phase(holder, NodePhase.IDLE)
        handovers = [(e.time, e.node) for e in sim.pending()
                     if e.kind is EventKind.CACHE_DELIVERY and e.payload == {"woken": 0}]
        assert handovers == [(16.0, 2)]

    def test_periodic_sender_meets_a_receiver_it_never_shares_a_window_with(self):
        from ecsim.core import RadioMode
        from ecsim.traffic import Packet

        # Two nodes at the default 25 % duty over 2 s: node 0 listens in
        # [0, 0.5) of each period and node 1 in [1, 1.5).
        config = make_config(grid={"width": 2, "height": 2}, nodes=2, flows=[],
                             horizon_s=20.0, scheme={"kind": "periodic"})
        sim = Simulation(config, 1, collect_trace=True)
        assert sim.graph.has_edge(0, 1)
        sim.packets.append(Packet(id=0, src=0, dst=1, size_bits=8_000, created_at=0.1))
        sim.push(0.1, EventKind.PACKET_ARRIVAL, 0, packet_id=0)
        sim.run()
        rows = [row for row in sim.trace if row[2] in ("tx-start", "packet-delivered")]
        transfer = 8_000 / 11e6
        # Node 0 sleeps from 0.5 s and wakes for node 1's first window.
        assert rows == [(1.0, 0, "tx-start", "pid=0;to=1"),
                        (1.0 + transfer, 1, "packet-delivered", "pid=0")]
        assert "cache-store" not in [row[2] for row in sim.trace]
        # Node 0 sleeps three quarters of the 20 s but for its transfer, and
        # the 1e-9 s its radio is held past it.
        held = (1.0 + transfer + 1e-9) - 1.0
        assert sim.nodes[0].time_in_mode[RadioMode.SLEEP] == pytest.approx(15.0 - held, abs=1e-12)
        assert sim.nodes[1].time_in_mode[RadioMode.SLEEP] == pytest.approx(15.0, abs=1e-12)

    def test_traffic_aware_holder_meets_its_next_hops_wake_and_is_woken_for_it(self):
        from ecsim.traffic import Packet

        # On seed 4, node 7 is one hop from node 0, and nodes 2 and 4 are
        # one hop from both. No cache takes a packet, so none is parked.
        config = make_config(horizon_s=40.0, flows=[], cache={"capacity_bits": 0})
        sim = Simulation(config, 4, collect_trace=True)
        assert sim.graph.neighbors_of(7) & sim.graph.neighbors_of(0) == {2, 4}
        while sim.peek_time() <= 12.0:
            sim.step()
        sim.now = 12.0
        # The destination wakes after the two neighbours no farther from it.
        for nid, wake in ((0, 15.5), (2, 13.5), (4, 13.5), (7, None)):
            sim.set_phase(sim.nodes[nid], NodePhase.IDLE)
            if wake is not None:
                sim.set_phase(sim.nodes[nid], NodePhase.SLEEP, wake)
        sim.packets.append(Packet(id=0, src=7, dst=0, size_bits=8_000, created_at=12.0))
        sim.push(12.0, EventKind.PACKET_ARRIVAL, 7, packet_id=0)
        sim.step()
        retries = [e.time for e in sim.pending()
                   if e.kind is EventKind.PACKET_ARRIVAL and e.payload.get("retry")]
        assert retries == [sim.nodes[0].wake_at] == [15.5]
        holder = sim.nodes[7]
        sim.set_phase(holder, NodePhase.SLEEP, 18.0)
        rows = len(sim.trace)
        while sim.peek_time() <= 15.5:
            sim.step()
        # The retry woke the holder, which sent at once.
        assert holder.phase is NodePhase.ACTIVE
        assert [row for row in sim.trace[rows:] if row[2] == "tx-start"] == [
            (15.5, 7, "tx-start", "pid=0;to=0")
        ]

    def test_a_retry_for_a_dead_destination_leaves_its_holder_asleep(self):
        from ecsim.traffic import Packet

        # The topology of the test above: node 7 waits for node 0's wake at
        # 15.5 s, and no cache takes the packet.
        config = make_config(horizon_s=40.0, flows=[], cache={"capacity_bits": 0})
        sim = Simulation(config, 4)
        while sim.peek_time() <= 12.0:
            sim.step()
        sim.now = 12.0
        for nid, wake in ((0, 15.5), (2, 16.5), (4, 16.5), (7, None)):
            sim.set_phase(sim.nodes[nid], NodePhase.IDLE)
            if wake is not None:
                sim.set_phase(sim.nodes[nid], NodePhase.SLEEP, wake)
        sim.packets.append(Packet(id=0, src=7, dst=0, size_bits=8_000, created_at=12.0))
        sim.push(12.0, EventKind.PACKET_ARRIVAL, 7, packet_id=0)
        sim.step()
        holder = sim.nodes[7]
        sim.set_phase(holder, NodePhase.SLEEP, 18.0)
        sim._touch(sim.nodes[0])
        sim._kill(sim.nodes[0])
        while sim.peek_time() <= 15.5:
            sim.step()
        # The retry fired, neither waking the holder nor mapping the dead node.
        assert not [e for e in sim.pending() if e.kind is EventKind.PACKET_ARRIVAL]
        assert holder.phase is NodePhase.SLEEP and holder.wake_at == 18.0
        assert [work.packet.id for work in holder.outbox] == [0]
        assert 0 not in sim._dist_cache
        while sim.peek_time() <= 18.0:
            sim.step()
        assert not holder.outbox and sim.work[0].state == "lost-dead"

    @pytest.mark.parametrize("case", ["transmitting", "two hops away"])
    def test_handover_the_holder_cannot_renew_takes_the_outbox_path(self, case):
        holder_id = 2 if case == "transmitting" else 3  # node 3 is two hops from 0
        sim = cached_for_sleeping_node(holder_id)
        holder = sim.nodes[holder_id]
        if case == "transmitting":
            sim._set_tx(holder, True)
        rows = len(sim.trace)
        sim._on_cache_delivery(
            engine.Event(14.0, -1, EventKind.CACHE_DELIVERY, holder_id, {"woken": 0})
        )
        assert [e.packet.id for e in holder.cache._entries] == [3]
        assert "cache-store" not in [row[2] for row in sim.trace[rows:]]
        on_air = [e.payload["packet_id"] for e in sim.pending() if e.kind is EventKind.TX_COMPLETE]
        if case == "transmitting":
            # A busy radio leaves every entry queued, the expired one too.
            assert [work.packet.id for work in holder.outbox] == [0, 1, 2]
            assert on_air == []
        else:
            # The first entry goes on towards node 0 through node 4.
            assert [work.packet.id for work in holder.outbox] == [1, 2]
            assert on_air == [0]
            assert ("tx-start", "pid=0;to=4") in [(row[2], row[3]) for row in sim.trace[rows:]]

    def test_dead_node_emits_and_receives_nothing(self):
        config = make_config(horizon_s=30.0, initial_energy_j=5.0, flows=[])
        report, _ = run_simulation(config, 3)
        # 5 J at >= 0.13 W drains within 30 s under any schedule: all dead
        for per in report.per_node.values():
            assert per["residual_j"] == pytest.approx(0.0, abs=1e-9)
            assert per["lifetime_s"] <= 30.0
            assert sum(per["time_in_mode_s"].values()) == pytest.approx(
                per["lifetime_s"], abs=1e-6
            )

    def test_sleep_audit_constraints_hold(self):
        config = make_config(horizon_s=100.0, flows=[{"src": 0, "dst": 5, "rate_pps": 1.0}])
        sim = Simulation(config, 8)
        sim.run()
        assert sim.plane.sleep_audit, "expected at least one sleep assignment"
        for entry in sim.plane.sleep_audit:
            assert entry["t_sleep"] < entry["round_length"]
            if entry["min_cache_delay"] is not None:
                assert entry["t_sleep"] < entry["min_cache_delay"]

    def test_caching_disabled_drops_sleeping_dst_traffic(self):
        config = make_config(
            horizon_s=100.0,
            cache={"enabled": False, "capacity_bits": 10_000_000},
            flows=[{"src": 0, "dst": 5, "rate_pps": 1.0}],
        )
        sim = Simulation(config, 8)
        sim.run()
        assert any(work.state == "lost-no-cache" for work in sim.work.values())


class TestCustody:
    """A packet has one keeper at a time: ending it twice, or a receive
    count below zero, is a fault that the engine reports."""

    def test_ending_a_packet_twice_raises(self):
        sim = Simulation(make_config(), 1)
        work = PacketWork(sim.packets[0], False)
        sim._finish(work, engine.DELIVERED)
        with pytest.raises(AssertionError, match="ended twice"):
            sim._finish(work, engine.LOST_DEAD)
        assert work.state == engine.DELIVERED

    def test_receive_count_below_zero_raises(self):
        sim = Simulation(make_config(), 1)
        with pytest.raises(AssertionError, match="receive count went negative"):
            sim._bump_rx(sim.nodes[0], -1)


class TestEventQueue:
    def test_same_time_events_run_in_push_order(self):
        sim = Simulation(make_config(horizon_s=20.0, flows=[]), 4)
        # Stale phase epochs, empty caches and death entries that are not the
        # node's prediction (an earlier entry of its own stays queued) make
        # every one of these handlers a no-op.
        pushed = [
            (EventKind.NODE_DEATH, 1, {}),
            (EventKind.SLEEP_EXPIRY, 2, {"epoch": -1}),
            (EventKind.CACHE_DELIVERY, 3, {"woken": 4}),
            (EventKind.IDLE_EXPIRY, 1, {"epoch": -1}),
            (EventKind.NODE_DEATH, 5, {}),
            (EventKind.CACHE_DELIVERY, 1, {"woken": 2}),
            (EventKind.SLEEP_EXPIRY, 1, {"epoch": -3}),
        ]
        first = len(sim.pending())
        for kind, node, payload in pushed:
            sim.push(0.0, kind, node, **payload)
        ours = sorted(e.seq for e in sim.pending())[first:]
        seen = []
        while sim.peek_time() == 0.0:
            event = sim.step()
            if event.seq in ours:
                seen.append((event.kind, event.node, event.payload))
        assert seen == pushed

    def test_equal_time_deaths_keep_prediction_order_after_a_requeue(self):
        # Node 1's prediction is made before node 0's, for the same float
        # time, while an earlier entry of node 1 is queued: node 1's waits,
        # and node 0's is pushed. The early entry re-queues node 1's under
        # its own key, so node 1 still dies first.
        config = make_config(grid={"width": 2, "height": 2}, nodes=2, flows=[],
                             horizon_s=200.0, scheme={"kind": "always-on"})
        sim = Simulation(config, 1, collect_trace=True)
        node0, node1 = sim.nodes[0], sim.nodes[1]
        node1.e_residual = 1.0
        sim._schedule_death(node1)
        early = node1.death_key
        node1.e_residual = node0.e_residual = 50.0
        sim._schedule_death(node1)
        sim._schedule_death(node0)
        eta = 50.0 / 0.83
        assert node1.death_key[0] == node0.death_key[0] == eta
        assert node1.death_queued == early and node0.death_queued == node0.death_key
        sim.run()
        assert [row[:3] for row in sim.trace if row[2] == "death"] == [
            (eta, 1, "death"), (eta, 0, "death")
        ]

    def test_a_prediction_after_an_entry_fired_without_one_is_queued(self):
        # Node 1's first prediction is replaced by none; its entry fires
        # while the node has no prediction, and a later one still kills it.
        config = make_config(grid={"width": 2, "height": 2}, nodes=2, flows=[],
                             horizon_s=200.0, scheme={"kind": "always-on"})
        sim = Simulation(config, 1)
        node = sim.nodes[1]
        first = node.death_key
        node.e_residual = 1e6  # lasts beyond the horizon: no prediction
        sim._schedule_death(node)
        assert node.death_key is None and node.death_queued == first
        while sim.peek_time() <= first[0]:
            sim.step()
        assert node.alive and node.death_queued is None
        sim._touch(node)
        node.e_residual = 8.3  # ten seconds of idle listening
        sim._schedule_death(node)
        sim.run()
        assert not node.alive
        assert node.death_time == pytest.approx(first[0] + 10.0)

    def test_pending_and_peek_time(self):
        sim = Simulation(make_config(horizon_s=20.0), 4)
        events = sim.pending()
        assert events
        assert sim.peek_time() == min(e.time for e in events)
        popped = sim.step()
        assert popped.time == min(e.time for e in events)
        assert popped.seq not in {e.seq for e in sim.pending()}

    @pytest.mark.parametrize("drive", ["run", "step"])
    @pytest.mark.parametrize("timer_first", [True, False], ids=["timer-first", "event-first"])
    def test_a_timer_and_an_event_at_one_instant_run_in_push_order(
        self, monkeypatch, timer_first, drive
    ):
        # The timer and the event wait in different heaps; both take their
        # seq from one counter, so they run as if they shared one.
        sim = Simulation(make_config(horizon_s=10.0, flows=[], scheme={"kind": "always-on"}), 4)
        order = []
        monkeypatch.setitem(engine._HANDLERS, EventKind.CACHE_DELIVERY,
                            lambda sim, event: order.append("event"))
        sim.plane.expired = lambda sim, node: order.append("timer")

        def arm():
            sim.set_phase(sim.nodes[1], NodePhase.IDLE, 0.5)

        def push():
            sim.push(0.5, EventKind.CACHE_DELIVERY, 3, woken=4)

        for action in (arm, push) if timer_first else (push, arm):
            action()
        assert [t[2] for t in sim._timers] == [EventKind.IDLE_EXPIRY]
        assert not [e for e in sim._heap if e.kind is EventKind.IDLE_EXPIRY]
        if drive == "run":
            sim.run()
        else:
            while sim.step() is not None:
                pass
        assert order == (["timer", "event"] if timer_first else ["event", "timer"])


# The acceptance scenario, cut to its first minute.
MINUTE = dict(SCENARIO, horizon_s=60.0)
SCHEMES = ("traffic-aware", "periodic", "coordinated", "always-on")
TIMER_KINDS = (EventKind.SLEEP_EXPIRY, EventKind.IDLE_EXPIRY)


def counting_expired(sim):
    """Count the calls of ``sim``'s ``expired`` hook in the returned list."""
    calls = []
    expired = sim.plane.expired

    def counted(sim, node):
        calls.append(node.nid)
        expired(sim, node)

    sim.plane.expired = counted
    return calls


@pytest.mark.parametrize("kind", SCHEMES)
def test_stepping_until_none_ends_at_the_horizon(kind):
    # Rounds, slot boundaries and mobility steps each queue their next one
    # past the horizon: only the horizon ends the loop.
    sim = Simulation(from_dict({**MINUTE, "scheme": {"kind": kind}}), 1)
    steps = 0
    while sim.step() is not None:
        steps += 1
    assert steps > 0 and sim.now == 60.0
    assert sim.peek_time() > sim.horizon + 1e-9
    # Past the horizon a step processes nothing.
    pending = len(sim.pending())
    assert sim.step() is None and len(sim.pending()) == pending and sim.now == 60.0


@pytest.mark.parametrize("kind", SCHEMES)
def test_run_and_a_step_loop_agree_on_the_report_and_the_timers(kind):
    # ``run`` fires phase timers itself and ``step`` through
    # ``_on_phase_expiry``; both count every timer and the stale ones.
    stepped = Simulation(from_dict({**MINUTE, "scheme": {"kind": kind}}), 1)
    stepped_calls = counting_expired(stepped)
    timers = 0
    while (event := stepped.step()) is not None:
        timers += event.kind in TIMER_KINDS
    stepped._finalize()
    ran = Simulation(from_dict({**MINUTE, "scheme": {"kind": kind}}), 1)
    ran_calls = counting_expired(ran)
    text = ran.run().to_json()
    assert text == report_mod.finalize(stepped).to_json()
    assert "timers" not in text
    assert ran_calls == stepped_calls
    assert ran.timers_fired == stepped.timers_fired == timers
    assert ran.timers_stale == stepped.timers_stale == timers - len(ran_calls)
    if kind == "always-on":
        assert timers == 0
    else:
        assert timers > 0 and len(ran_calls) > 0
    if kind in ("traffic-aware", "periodic"):
        assert ran.timers_stale > 0


@pytest.mark.parametrize("kind", ["traffic-aware", "always-on", "periodic", "coordinated"])
def test_simulation_is_freed_without_cyclic_gc(kind):
    # A finished Simulation must not be a reference cycle: with the cyclic
    # collector off, dropping the last reference has to free it at once.
    config = make_config(horizon_s=40.0, initial_energy_j=30.0, scheme={"kind": kind})
    gc.collect()
    gc.disable()
    try:
        sim = Simulation(config, 3)
        sim.run()
        ref = weakref.ref(sim)
        del sim
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("collect_trace", [False, True])
@pytest.mark.parametrize("kind", ["traffic-aware", "always-on", "periodic", "coordinated"])
def test_a_simulation_keeps_only_the_attributes_it_declares(kind, collect_trace):
    # See the ``Simulation`` docstring: the run state lives in slots.
    sim = Simulation(make_config(scheme={"kind": kind}), 3, collect_trace=collect_trace)
    sim.run()
    assert not hasattr(sim, "__dict__")
    # Every declared slot holds a value: none is left over from removed state.
    assert all(hasattr(sim, name) for name in Simulation.__slots__ if name != "__weakref__")


def test_duty_cycle_node_sleeps_just_after_a_transfer_across_its_window_end():
    from ecsim.traffic import Packet

    config = make_config(
        flows=[], link_bps=20_000.0,
        scheme={"kind": "coordinated", "listen_s": 0.5, "sleep_s": 1.5},
    )
    sim = Simulation(config, 1)
    while sim.peek_time() == 0.0:
        sim.step()
    src = next(n for n in sorted(sim.nodes) if sim.graph.neighbors_of(n))
    dst = min(sim.graph.neighbors_of(src))
    packet = Packet(id=0, src=src, dst=dst, size_bits=8_000, created_at=0.3)
    sim.packets.append(packet)
    sim.work[0] = PacketWork(packet, False)
    sim.now = 0.3
    sim._start_tx(sim.nodes[src], dst, sim.work[0])
    end = 0.3 + 8_000 / 20_000.0  # the transfer outlasts the window, which closes at 0.5 s
    fell_asleep = {}
    while sim.peek_time() <= end + 1e-9:
        sim.step()
        for nid, node in sim.nodes.items():
            if node.phase is NodePhase.SLEEP:
                fell_asleep.setdefault(nid, sim.now)
    assert sim.work[0].state == "delivered"
    assert fell_asleep.pop(src) == fell_asleep.pop(dst) == end + 1e-9
    assert set(fell_asleep.values()) == {0.5}  # every other node at the window's end
    assert len(fell_asleep) == len(sim.nodes) - 2


def test_radio_busy_splits_an_interval_into_slots():
    # 10 slots of 1 s in a round that starts at 20 s.
    sim = Simulation(make_config(round_s=10.0, scheme={"kind": "traffic-aware"}), 1)
    sim.round_start = 20.0
    ledger = sim.plane.ledger
    sim.now = 22.25
    sim.plane.radio_busy(sim, 0, 20.5)  # across slots 0, 1 and 2
    assert [ledger.slot_value(0, s) for s in range(4)] == pytest.approx([0.5, 1.0, 0.25, None])
    sim.now = 31.0
    sim.plane.radio_busy(sim, 1, 29.25)  # clipped at the round's end, 30 s
    assert ledger.slot_value(1, 9) == pytest.approx(0.75)
    assert [ledger.slot_value(1, s) for s in range(9)] == [None] * 9
    sim.now = 20.5
    sim.plane.radio_busy(sim, 2, 19.0)  # clipped at the round's start
    assert ledger.slot_value(2, 0) == pytest.approx(0.5)
    assert ledger.cumulative_active(2) == pytest.approx(0.5)


def test_only_traffic_aware_records_slot_activity(monkeypatch):
    calls = []
    record = ActivityLedger.record_active

    def counted(self, node, slot, seconds):
        calls.append(seconds)
        record(self, node, slot, seconds)

    monkeypatch.setattr(ActivityLedger, "record_active", counted)
    for kind in ("periodic", "coordinated", "always-on", "traffic-aware"):
        calls.clear()
        run_simulation(make_config(scheme={"kind": kind}), 2)
        if kind == "traffic-aware":
            # Only busy time is recorded: an idle slot gets no entry.
            assert calls and min(calls) > 0.0
        else:
            assert calls == [], kind


@pytest.mark.parametrize("pending", [False, True])
def test_traffic_pending_for_a_member_keeps_it_from_idling(pending):
    # A member more active than an awake neighbour this round goes idle at a
    # slot boundary and informs the proxy, unless bits for it are queued at a
    # neighbour: then it is neither idled nor granted sleep.
    from ecsim.traffic import Packet

    sim = Simulation(make_config(flows=[], scheme={"kind": "traffic-aware"}), 4,
                     collect_trace=True)
    while sim.round_index < 1:
        sim.step()
    (cluster,) = sim.plane.clusters
    member, other = next(
        (m, min(sim.graph.neighbors_of(m) & cluster.members))
        for m in sorted(cluster.members - {cluster.ch, cluster.sp})
        if sim.graph.neighbors_of(m) & cluster.members
    )
    node = sim.nodes[member]
    sim.set_phase(node, NodePhase.ACTIVE)
    assert sim.nodes[other].awake
    sim.plane.ledger.record_active(member, 0, 0.5)  # the round just began: slot 0
    if pending:
        packet = Packet(id=0, src=other, dst=member, size_bits=8_000, created_at=sim.now)
        sim.packets.append(packet)
        sim.work[0] = PacketWork(packet, False)
        sim.nodes[other].outbox.append(sim.work[0])
    rows = len(sim.trace)
    assert sim.step().kind is EventKind.SLOT_BOUNDARY
    informed = [row for row in sim.trace[rows:] if row[1:3] == (member, "inform-sp")]
    assert not [g for g in sim.plane.sleep_audit if g["node"] == member]
    if pending:
        assert node.phase is NodePhase.ACTIVE and not informed
    else:
        assert node.phase is NodePhase.IDLE and informed


def test_round_set_up_wakes_a_sleeping_proxy_but_not_a_sleeping_head():
    # The head has no run-time duty, so only the proxy is woken for its role.
    sim = Simulation(make_config(flows=[], scheme={"kind": "traffic-aware"}), 4)
    while sim.peek_time() < sim.round_length:  # up to the second round's start
        sim.step()
    for node in sim.nodes.values():
        sim.set_phase(node, NodePhase.SLEEP, sim.now + 100.0)
    while sim.step().kind is not EventKind.ROUND_SETUP:
        pass
    (cluster,) = sim.plane.clusters
    assert sim.round_index == 1 and cluster.ch != cluster.sp
    assert sim.nodes[cluster.sp].phase is NodePhase.IDLE
    for m in cluster.members - {cluster.sp}:
        assert sim.nodes[m].phase is NodePhase.SLEEP, m


def test_pairwise_idling_idles_an_active_head_like_any_member():
    # A head more active than an awake neighbour this round goes idle at a
    # slot boundary and informs the proxy.
    sim = Simulation(make_config(flows=[], scheme={"kind": "traffic-aware"}), 4,
                     collect_trace=True)
    while sim.round_index < 1:
        sim.step()
    (cluster,) = sim.plane.clusters
    head = sim.nodes[cluster.ch]
    others = sim.graph.neighbors_of(head.nid) & cluster.members
    assert cluster.ch != cluster.sp and others
    for nid in others | {cluster.sp}:
        if not sim.nodes[nid].awake:
            sim.set_phase(sim.nodes[nid], NodePhase.IDLE, sim.now + 100.0)
    sim.set_phase(head, NodePhase.ACTIVE)
    sim.plane.ledger.record_active(head.nid, 0, 0.5)  # the round just began: slot 0
    rows = len(sim.trace)
    assert sim.step().kind is EventKind.SLOT_BOUNDARY
    assert head.phase is NodePhase.IDLE
    assert (head.nid, "inform-sp") in [row[1:3] for row in sim.trace[rows:]]


def live_timers(sim, nid):
    """The (kind, time) of each phase timer queued for ``nid`` in its
    current phase; a timer of an earlier phase is stale and left out."""
    epoch = sim.nodes[nid].phase_epoch
    return [(e.kind, e.time) for e in sim.pending()
            if e.node == nid and e.kind in TIMER_KINDS and e.payload["epoch"] == epoch]


def test_round_set_up_idles_each_active_node_with_no_timer():
    # An idle traffic-aware node listens until a proxy grants it sleep, a
    # delivery activates it or a retry wakes it: nothing ends idling by time.
    sim = Simulation(make_config(flows=[], scheme={"kind": "traffic-aware"}), 4)
    assert all(node.phase is NodePhase.ACTIVE for node in sim.nodes.values())
    assert sim.step().kind is EventKind.ROUND_SETUP
    for nid, node in sim.nodes.items():
        assert node.phase is NodePhase.IDLE, nid
        assert live_timers(sim, nid) == [], nid


def test_a_woken_proxy_idles_with_no_timer():
    sim = Simulation(make_config(flows=[], scheme={"kind": "traffic-aware"}), 4)
    sim.step()  # round set-up
    (cluster,) = sim.plane.clusters
    proxy = sim.nodes[cluster.sp]
    sim.now = 2.0
    assert sim.plane._enter_sleep(sim, proxy, 4.0)
    assert live_timers(sim, proxy.nid) == [(EventKind.SLEEP_EXPIRY, proxy.wake_at)]
    sim.plane._wake_proxy(sim, cluster)
    assert proxy.phase is NodePhase.IDLE and proxy.wake_at is None
    assert live_timers(sim, proxy.nid) == []


def test_a_member_the_proxy_idles_keeps_no_timer():
    # The member's traffic in the closed slot has no earlier slot to compare
    # with, so pairwise idling idles it and no sleep grant follows.
    sim = Simulation(make_config(flows=[], scheme={"kind": "traffic-aware"}), 4)
    while sim.round_index < 1:
        sim.step()
    (cluster,) = sim.plane.clusters
    member = next(
        m for m in sorted(cluster.members - {cluster.sp})
        if sim.graph.neighbors_of(m) & cluster.members
    )
    node = sim.nodes[member]
    sim.set_phase(node, NodePhase.ACTIVE)
    sim.plane.ledger.record_active(member, 0, 0.5)  # the round just began: slot 0
    assert sim.step().kind is EventKind.SLOT_BOUNDARY
    assert node.phase is NodePhase.IDLE
    assert not [g for g in sim.plane.sleep_audit if g["node"] == member]
    assert live_timers(sim, member) == []


def test_a_timer_on_an_awake_node_activates_it_with_no_timer():
    # A retry wakes an idle node to send through a timer due at once.
    sim = Simulation(make_config(flows=[], scheme={"kind": "traffic-aware"}), 4)
    sim.step()  # round set-up
    node = sim.nodes[2]
    assert node.phase is NodePhase.IDLE
    sim.plane.expired(sim, node)
    assert node.phase is NodePhase.ACTIVE
    assert live_timers(sim, 2) == []


def test_the_sleep_exponent_is_the_hops_of_the_last_rounds_longest_path():
    # The latest of equal delays counts; a path older than a round is forgotten.
    sim = Simulation(make_config(flows=[], scheme={"kind": "traffic-aware"}), 4)
    plane, samples = sim.plane, sim.plane.dp_samples[3]
    assert plane._max_dp_hops(sim, 3) == 1  # cold start
    for delay, time, hops in ((2.0, 1.0, 4), (1.0, 2.0, 2), (2.0, 3.0, 3), (0.5, 12.0, 5)):
        sim.now = time
        schemes.window_push(samples, (delay, time), hops)
    sim.now = 12.0
    assert plane._max_dp_hops(sim, 3) == 3
    sim.now = 13.5
    assert plane._max_dp_hops(sim, 3) == 5
    sim.now = 22.5
    assert plane._max_dp_hops(sim, 3) == 1


@pytest.mark.parametrize("kind", ["traffic-aware", "always-on", "periodic", "coordinated"])
def test_consume_runs_once_per_billed_interval(monkeypatch, kind):
    # Every billed interval is one ``consume`` call and one ``mode`` trace row.
    calls = []
    consume = engine.consume

    def counted(residual, power, duration):
        calls.append(duration)
        return consume(residual, power, duration)

    monkeypatch.setattr(engine, "consume", counted)
    config = make_config(horizon_s=40.0, initial_energy_j=30.0, scheme={"kind": kind})
    _, trace = run_simulation(config, 3, collect_trace=True)
    assert calls and min(calls) > 0.0
    assert len(calls) == sum(1 for row in trace if row[2] == "mode")


@pytest.mark.parametrize("defer_count, wait", [
    (0, 0.5), (2, 0.5), (3, 1.0), (4, 2.0), (6, 8.0), (7, 10.0),
])
@pytest.mark.parametrize("kind", ["traffic-aware", "always-on"])
def test_a_packet_without_a_route_polls_after_retry_s_and_a_capped_backoff(
    kind, defer_count, wait
):
    # ``RETRY_S`` until the third deferral, then a doubling backoff capped
    # at one round (10 s here).
    assert schemes.RETRY_S == 0.5
    sim = Simulation(make_config(scheme={"kind": kind}), 3)
    sim.now = 4.0
    work = PacketWork(sim.packets[0], False)
    work.defer_count = defer_count
    assert sim.plane.retry_at(sim, sim.nodes[0], work, ()) == 4.0 + wait


@pytest.mark.parametrize("p_move", [0.05, 0.5, 1.0])
def test_mobility_steps_every_second_with_p_move(monkeypatch, p_move):
    steps = []
    move_step = engine.move_step

    def recorded(grid, alive, rng, p):
        steps.append((sim.now, p))
        return move_step(grid, alive, rng, p)

    monkeypatch.setattr(engine, "move_step", recorded)
    sim = Simulation(make_config(horizon_s=12.0, p_move=p_move), 3)
    sim.run()
    assert engine.MOBILITY_STEP_S == 1.0
    assert steps == [(float(t), p_move) for t in range(1, 13)]


def test_a_move_that_changes_no_edge_keeps_every_map_and_next_hop_tuple(monkeypatch):
    from ecsim.topology import Position

    # On seed 5, node 0 at (2, 2) keeps its six neighbours at (1, 2), and
    # node 6 at (0, 0) neighbours node 7 alone.
    sim = Simulation(make_config(flows=[], scheme={"kind": "always-on"}), 5, collect_trace=True)
    for dst in sim.nodes:
        for nid in sim.nodes:
            sim.next_hops(dst, nid)
    maps = {dst: dict(dist) for dst, dist in sim._dist_cache.items()}
    table = dict(sim._next_hops)

    def move(nid, pos):
        def step(grid, alive, rng, p_move):
            grid.move(nid, pos)
            yield nid

        monkeypatch.setattr(engine, "move_step", step)
        rows = len(sim.trace)
        sim._on_mobility_step(engine.Event(sim.now, -1, EventKind.MOBILITY_STEP, None, {}))
        assert sim.trace[rows:] == [(sim.now, nid, "moved", "")]

    assert sorted(sim.graph.neighbors_of(0)) == [1, 2, 3, 4, 5, 7]
    move(0, Position(1, 2))
    assert sorted(sim.graph.neighbors_of(0)) == [1, 2, 3, 4, 5, 7]
    assert sim._dist_cache == maps
    assert sim._next_hops.keys() == table.keys()
    assert all(sim._next_hops[key] is hops for key, hops in table.items())
    assert sorted(sim.graph.neighbors_of(6)) == [7]
    move(6, Position(1, 1))
    assert sorted(sim.graph.neighbors_of(6)) != [7]
    assert sim._next_hops == {}


@pytest.mark.parametrize("deadline_rounds, round_s", [(0.5, 10.0), (2.0, 10.0), (3.0, 4.0)])
def test_a_delay_sensitive_deadline_is_deadline_rounds_rounds_after_creation(
    deadline_rounds, round_s
):
    config = make_config(
        deadline_rounds=deadline_rounds, round_s=round_s,
        flows=[{"src": 0, "dst": 5, "rate_pps": 2.0, "ds_fraction": 0.5}],
    )
    packets = Simulation(config, 3).packets
    sensitive = [p for p in packets if p.deadline is not None]
    assert sensitive and len(sensitive) < len(packets)
    for p in sensitive:
        assert p.deadline == p.created_at + deadline_rounds * round_s


@pytest.mark.parametrize("seed", [None, True, 1.5, "1"])
def test_a_seed_that_is_not_an_int_is_rejected(seed):
    # None would seed from the OS, so one (config, seed) pair could give two
    # reports; ``random.Random`` takes the others as they are.
    with pytest.raises(ValueError, match=re.escape(f"seed: expected an int, got {seed!r}")):
        run_simulation(make_config(), seed)


@pytest.mark.parametrize("kind", SCHEMES)
def test_each_scheme_decides_the_first_phase_by_its_expiry_rule(kind):
    # Right after set-up: the duty cycles put each node in its window at 0 s
    # with its timer at the window's end; the others leave it active, untimed.
    sim = Simulation(make_config(scheme={"kind": kind}), 3)
    timers = [e for e in sim.pending() if e.kind in TIMER_KINDS]
    if kind in ("traffic-aware", "always-on"):
        assert all(node.phase is NodePhase.ACTIVE for node in sim.nodes.values())
        assert not timers
        return
    live = {e.node: (e.kind, e.time) for e in timers
            if e.payload["epoch"] == sim.nodes[e.node].phase_epoch}
    scheme, count = sim.config.scheme, len(sim.nodes)
    offsets = [nid * scheme.period / count if kind == "periodic" else 0.0 for nid in sim.nodes]
    expected = {nid: dispatch_scheme(scheme, 0.0, offsets[nid]) for nid in sim.nodes}
    assert {nid: node.phase for nid, node in sim.nodes.items()} == {
        nid: phase for nid, (phase, _) in expected.items()
    }
    assert live == {
        nid: (EventKind.SLEEP_EXPIRY if phase is NodePhase.SLEEP else EventKind.IDLE_EXPIRY, until)
        for nid, (phase, until) in expected.items()
    }
    if kind == "periodic":
        # Staggered windows start some nodes asleep.
        assert {phase for phase, _ in expected.values()} == {NodePhase.ACTIVE, NodePhase.SLEEP}
