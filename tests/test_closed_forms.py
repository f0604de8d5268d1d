"""Runs that must agree with a closed form, so that the results agree with
theory and not only with earlier runs.

Every case runs two nodes on a 2 x 1 grid, always in range of each other,
with no mobility, over 4000 s. Bounds are derived here from the model;
a form that fails is a finding about the simulator, not a bound to widen.

Periodic's delay has no case yet: a packet generated at a sleeping source
waits for the source's own window before it meets the destination's, so its
mean delay reads 1.32-1.36 s against the 0.563 s that coordinated meets
(ROADMAP item 21).
"""

import math

import pytest

from ecsim.config import from_dict
from ecsim.core import EnergyModelParams, RadioMode
from ecsim.engine import Simulation

HORIZON_S = 4000.0
LINE = {
    "grid": {"width": 2, "height": 1},
    "nodes": 2,
    "initial_energy_j": 1e6,
    "horizon_s": HORIZON_S,
    "p_move": 0.0,
    "flows": [],
}
FLOW = {"src": 0, "dst": 1, "rate_pps": 0.2}
SEEDS = (1, 2, 3, 4, 5)
POWER = EnergyModelParams()
TRANSFER_S = 8_000 / 11e6  # a default packet on the default link


def line(scheme, **overrides):
    return from_dict({**LINE, "scheme": scheme, **overrides})


def listen_time(offset, period, listen, horizon):
    """Seconds of [0, horizon] inside the windows [offset + k period,
    offset + k period + listen) over every integer k."""
    total = 0.0
    k = math.floor(-offset / period)  # the last window to start by 0 s
    while (start := offset + k * period) < horizon:
        total += max(0.0, min(start + listen, horizon) - max(start, 0.0))
        k += 1
    return total


def delivery_times(sim):
    """Packet id -> the time it reached its destination, from the trace."""
    return {
        int(detail.removeprefix("pid=")): time
        for time, _, kind, detail in sim.trace
        if kind in ("packet-delivered", "packet-delivered-late")
    }


@pytest.mark.parametrize("scheme, listen, period, staggered", [
    ({"kind": "coordinated", "listen_s": 0.5, "sleep_s": 1.5}, 0.5, 2.0, False),
    ({"kind": "periodic", "duty": 0.25, "period_s": 2.0}, 0.5, 2.0, True),
])
def test_a_duty_cycle_node_without_traffic_spends_its_windows_at_idle_power(
    scheme, listen, period, staggered
):
    # Staggered windows start i/N of a period late for node i.
    sim = Simulation(line(scheme), 1)
    sim.run()
    for nid, node in sim.nodes.items():
        offset = nid * period / len(sim.nodes) if staggered else 0.0
        awake = listen_time(offset, period, listen, HORIZON_S)
        assert awake == pytest.approx(1000.0)
        expected = awake * POWER.p_idle + (HORIZON_S - awake) * POWER.p_sleep
        assert abs(node.e_max - node.e_residual - expected) <= 1e-6, nid


def test_an_always_on_node_dies_when_idle_power_drains_its_battery():
    sim = Simulation(line("always-on", initial_energy_j=8.3), 1)
    sim.run()
    assert [node.death_time for node in sim.nodes.values()] == [8.3 / POWER.p_idle] * 2


@pytest.mark.parametrize("seed", SEEDS)
def test_coordinated_delay_is_the_wait_for_the_next_window_plus_a_transfer(seed):
    listen, sleep = 0.5, 1.5
    period = listen + sleep
    # A Poisson arrival falls at a uniform phase of the cycle: inside the
    # shared window (probability listen / period) it goes at once, else it
    # waits a time uniform on (0, sleep) for the next window.
    mean_wait = (sleep / period) * sleep / 2
    sd_wait = math.sqrt((sleep / period) * sleep**2 / 3 - mean_wait**2)
    assert mean_wait == pytest.approx(0.5625) and sd_wait == pytest.approx(0.496, abs=5e-4)
    scheme = {"kind": "coordinated", "listen_s": listen, "sleep_s": sleep}
    sim = Simulation(line(scheme, flows=[FLOW]), seed, collect_trace=True)
    sim.run()
    delays = [time - sim.packets[pid].created_at for pid, time in delivery_times(sim).items()]
    assert len(delays) > 700
    bound = 2 * sd_wait / math.sqrt(len(delays))
    assert abs(sum(delays) / len(delays) - (mean_wait + TRANSFER_S)) <= bound


@pytest.mark.parametrize("seed", SEEDS)
def test_an_always_on_packet_on_a_free_link_arrives_in_one_transfer(seed):
    sim = Simulation(line("always-on", flows=[FLOW]), seed, collect_trace=True)
    sim.run()
    arrived = delivery_times(sim)
    # Every packet created by the time the one before it arrived (the first
    # has none before it) finds the link free.
    free = [
        packet for packet in sim.packets
        if packet.created_at + TRANSFER_S <= HORIZON_S
        and (packet.id == 0 or packet.created_at >= arrived[packet.id - 1])
    ]
    assert len(free) > 700
    for packet in free:
        assert abs(arrived[packet.id] - packet.created_at - TRANSFER_S) <= 1e-12, packet.id


@pytest.mark.parametrize("seed", SEEDS)
def test_an_always_on_transfer_bills_its_radio_time_above_idle_listening(seed):
    # The sender transmits and the receiver receives for one transfer per
    # ``tx-start``, and listens idle for the rest of the horizon; no
    # transfer is on the air at the horizon.
    sim = Simulation(line("always-on", flows=[FLOW]), seed, collect_trace=True)
    sim.run()
    starts = sum(1 for _, nid, kind, _ in sim.trace if kind == "tx-start" and nid == 0)
    assert starts > 700
    sender, receiver = sim.nodes[0], sim.nodes[1]
    busy = starts * TRANSFER_S
    for node, mode, power in ((sender, RadioMode.ACTIVE_TX, POWER.p_tx),
                              (receiver, RadioMode.ACTIVE_RX, POWER.p_rx)):
        assert abs(node.time_in_mode[mode] - busy) <= 1e-9, node.nid
        expected = HORIZON_S * POWER.p_idle + busy * (power - POWER.p_idle)
        assert abs(node.e_max - node.e_residual - expected) <= 1e-6, node.nid
