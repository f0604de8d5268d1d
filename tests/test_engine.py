import gc
import math
import weakref

import pytest

from ecsim import engine
from ecsim.config import from_dict
from ecsim.core import EventKind, NodePhase
from ecsim.engine import PacketWork, Simulation, run_simulation
from ecsim.scheduler import ActivityLedger
from ecsim.schemes import CoordinatedDutyCycle, PeriodicSleepWake, dispatch_scheme


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


class TestDispatchScheme:
    def test_periodic_half_duty(self):
        scheme = PeriodicSleepWake(duty=0.5, period=2.0)
        first = dispatch_scheme(scheme, 0.0)
        assert first.phase is NodePhase.ACTIVE
        assert first.until == pytest.approx(1.0)
        second = dispatch_scheme(scheme, 1.0)
        assert second.phase is NodePhase.SLEEP
        assert second.until == pytest.approx(2.0)

    def test_coordinated_windows(self):
        scheme = CoordinatedDutyCycle(listen=0.5, sleep=1.5)
        assert dispatch_scheme(scheme, 0.0).until == pytest.approx(0.5)
        assert dispatch_scheme(scheme, 0.5).phase is NodePhase.SLEEP
        assert dispatch_scheme(scheme, 2.0).phase is NodePhase.ACTIVE

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
    def test_sleep_expiry_moves_to_idle_and_schedules_idle_expiry(self):
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
        assert EventKind.IDLE_EXPIRY in kinds

    def test_stale_sleep_expiry_ignored(self):
        sim = Simulation(make_config(horizon_s=40.0), 4)
        node = sim.nodes[2]
        sim.now = 11.0
        sim.set_phase(node, NodePhase.IDLE)
        assert sim.plane._enter_sleep(sim, node, 4.0)
        old_epoch = node.phase_epoch
        sim.plane._enter_idle(sim, node)  # e.g. location change woke it early
        assert node.phase is NodePhase.IDLE
        sim._on_phase_expiry(type("E", (), {"node": 2, "payload": {"epoch": old_epoch}})())
        assert node.phase is NodePhase.IDLE  # stale event changed nothing

    def test_mobility_wake_on_location_change(self):
        config = make_config(horizon_s=40.0, p_move=1.0)
        sim = Simulation(config, 4)
        node = sim.nodes[3]
        sim.now = 11.0
        sim.set_phase(node, NodePhase.IDLE)
        assert sim.plane._enter_sleep(sim, node, 5.0)
        assert node.phase is NodePhase.SLEEP
        sim._on_mobility_step(type("E", (), {"node": None, "payload": {}})())
        assert node.phase is NodePhase.IDLE  # woken by the move

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
        from ecsim.traffic import Packet, PacketClass

        sim = Simulation(make_config(horizon_s=40.0, flows=[]), 4)
        holder = next(n for n in sorted(sim.nodes) if sim.graph.neighbors_of(n))
        dst = min(sim.graph.neighbors_of(holder))
        sleeper = sim.nodes[dst]
        sim.now = 12.0
        sim.set_phase(sleeper, NodePhase.SLEEP, 20.0)
        assert sleeper.wake_at == 20.0
        packet = Packet(id=0, src=holder, dst=dst, size_bits=8_000,
                        klass=PacketClass.ELASTIC, created_at=12.0)
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
        from ecsim.traffic import Packet, PacketClass

        packet = Packet(
            id=len(sim.packets), src=src, dst=dst, size_bits=8_000,
            klass=PacketClass.ELASTIC, created_at=12.0,
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

    def test_evicting_two_packets_for_one_destination_unindexes_once(self):
        from ecsim.traffic import Packet, PacketClass

        sim = Simulation(make_config(horizon_s=40.0, flows=[]), 4)
        for pid in (0, 1):
            packet = Packet(
                id=pid, src=0, dst=1, size_bits=8_000,
                klass=PacketClass.DELAY_SENSITIVE, created_at=1.0, deadline=2.0,
            )
            sim.packets.append(packet)
            sim.work[pid] = PacketWork(packet, True)
            assert sim._cache_here(sim.nodes[0], sim.work[pid])
        assert sim.holders_by_dst == {1: {0}}
        sim.now = 3.0
        sim._evict_caches()  # both expire at the same boundary
        assert sim.holders_by_dst == {}
        assert [sim.work[pid].state for pid in (0, 1)] == ["lost-deadline"] * 2

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


class TestEventQueue:
    def test_same_time_events_run_in_push_order(self):
        sim = Simulation(make_config(horizon_s=20.0, flows=[]), 4)
        # Stale epochs and empty caches make every one of these handlers a no-op.
        pushed = [
            (EventKind.NODE_DEATH, 1, {"epoch": -1}),
            (EventKind.SLEEP_EXPIRY, 2, {"epoch": -1}),
            (EventKind.CACHE_DELIVERY, 3, {"woken": 4}),
            (EventKind.IDLE_EXPIRY, 1, {"epoch": -1}),
            (EventKind.NODE_DEATH, 5, {"epoch": -2}),
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

    def test_pending_and_peek_time(self):
        sim = Simulation(make_config(horizon_s=20.0), 4)
        events = sim.pending()
        assert events
        assert sim.peek_time() == min(e.time for e in events)
        popped = sim.step()
        assert popped.time == min(e.time for e in events)
        assert popped.seq not in {e.seq for e in sim.pending()}


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


def test_duty_cycle_node_sleeps_just_after_a_transfer_across_its_window_end():
    from ecsim.traffic import Packet, PacketClass

    config = make_config(
        flows=[], link_bps=20_000.0,
        scheme={"kind": "coordinated", "listen_s": 0.5, "sleep_s": 1.5},
    )
    sim = Simulation(config, 1)
    while sim.peek_time() == 0.0:
        sim.step()
    src = next(n for n in sorted(sim.nodes) if sim.graph.neighbors_of(n))
    dst = min(sim.graph.neighbors_of(src))
    packet = Packet(id=0, src=src, dst=dst, size_bits=8_000, klass=PacketClass.ELASTIC,
                    created_at=0.3)
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
