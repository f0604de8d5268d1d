import math
import random

import pytest

from ecsim.traffic import FlowSpec, Packet, generate, tx_delay


def test_zero_rate_gives_empty_stream():
    flows = [FlowSpec(src=0, dst=1, rate_pps=0.0)]
    assert generate(flows, 100.0, random.Random(1)) == []


def test_poisson_count_concentrates():
    flows = [FlowSpec(src=0, dst=1, rate_pps=2.0, ds_fraction=0.0)]
    packets = generate(flows, 1000.0, random.Random(42))
    expected = 2000
    sigma = math.sqrt(expected)
    assert abs(len(packets) - expected) <= 3 * sigma


def test_same_seed_identical_streams():
    flows = [
        FlowSpec(src=0, dst=1, rate_pps=1.5),
        FlowSpec(src=2, dst=3, rate_pps=0.5, burst_on_s=5.0, burst_off_s=5.0),
    ]
    first = generate(flows, 200.0, random.Random(7))
    second = generate(flows, 200.0, random.Random(7))
    assert first == second


def test_stream_sorted_with_sequential_ids():
    flows = [
        FlowSpec(src=0, dst=1, rate_pps=1.0),
        FlowSpec(src=1, dst=2, rate_pps=1.0),
    ]
    packets = generate(flows, 100.0, random.Random(3))
    assert [p.id for p in packets] == list(range(len(packets)))
    times = [p.created_at for p in packets]
    assert times == sorted(times)


def test_stationary_halves_within_4_sigma():
    flows = [FlowSpec(src=0, dst=1, rate_pps=4.0, ds_fraction=0.0)]
    packets = generate(flows, 1000.0, random.Random(11))
    mid = 500.0
    first = sum(1 for p in packets if p.created_at < mid)
    second = len(packets) - first
    # Difference of two Poisson(2000) halves: sd = sqrt(4000).
    assert abs(first - second) <= 4 * math.sqrt(first + second)


def test_ds_fraction_and_deadlines():
    flows = [FlowSpec(src=0, dst=1, rate_pps=2.0, ds_fraction=1.0)]
    packets = generate(flows, 200.0, random.Random(5), deadline_offset=5.0)
    assert packets
    for p in packets:
        assert p.deadline == pytest.approx(p.created_at + 5.0)


def test_tx_delay_link_speed():
    assert tx_delay(11_000_000, 11e6) == pytest.approx(1.0, abs=1e-12)


def test_tx_delay_small_packet():
    assert tx_delay(8_000, 11e6) == pytest.approx(7.2727272727e-4, rel=1e-6)


def test_tx_delay_zero_capacity_rejected():
    with pytest.raises(ValueError):
        tx_delay(8_000, 0.0)


def test_tx_delay_linear_in_size_inverse_in_capacity():
    base = tx_delay(1_000, 1e6)
    assert tx_delay(2_000, 1e6) == pytest.approx(2 * base)
    assert tx_delay(1_000, 2e6) == pytest.approx(base / 2)


def test_packet_guards():
    with pytest.raises(ValueError):
        Packet(id=0, src=0, dst=1, size_bits=0, created_at=0.0)
    with pytest.raises(ValueError):
        Packet(
            id=0,
            src=0,
            dst=1,
            size_bits=100,
            created_at=5.0,
            deadline=5.0,
        )


def test_flow_validation():
    with pytest.raises(ValueError):
        FlowSpec(src=1, dst=1, rate_pps=1.0)
    with pytest.raises(ValueError):
        FlowSpec(src=0, dst=1, rate_pps=-1.0)
    with pytest.raises(ValueError):
        FlowSpec(src=0, dst=1, rate_pps=1.0, burst_on_s=5.0)
