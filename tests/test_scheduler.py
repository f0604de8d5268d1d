import math

import pytest
from hypothesis import given, settings, strategies as st

from ecsim.scheduler import (
    ActivityLedger,
    IdleDecision,
    InsufficientHistory,
    SLEEP_EPSILON,
    NoCapacityError,
    SleepInputs,
    backward_diff,
    compute_idle,
    compute_sleep,
    pairwise_idle_decision,
    path_delay,
    sp_sleep,
)
from ecsim.topology import ConnectivityGraph


def ledger_with(node, values, slot_width=10.0):
    ledger = ActivityLedger(slot_width=slot_width, slots_per_round=max(10, len(values)))
    for slot, value in enumerate(values):
        ledger.record_active(node, slot, value)
    return ledger


class TestBackwardDiff:
    def test_rising_activity(self):
        ledger = ledger_with(1, [3.0, 5.0])
        assert backward_diff(ledger, 1, 1) == pytest.approx(2.0, abs=1e-12)

    def test_constant_activity(self):
        ledger = ledger_with(1, [4.0, 4.0])
        assert backward_diff(ledger, 1, 1) == 0.0

    def test_declining_activity(self):
        ledger = ledger_with(1, [4.0, 1.0])
        assert backward_diff(ledger, 1, 1) == pytest.approx(-3.0, abs=1e-12)

    def test_slot_zero_has_no_history(self):
        ledger = ledger_with(1, [4.0])
        with pytest.raises(InsufficientHistory):
            backward_diff(ledger, 1, 0)

    def test_missing_slot_has_no_history(self):
        ledger = ledger_with(1, [4.0])
        with pytest.raises(InsufficientHistory):
            backward_diff(ledger, 1, 3)

    @settings(deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=10))
    def test_telescoping_sum(self, values):
        ledger = ledger_with(1, values, slot_width=1.0)
        total = sum(backward_diff(ledger, 1, s) for s in range(1, len(values)))
        clamped = [min(1.0, v) for v in values]
        assert total == pytest.approx(clamped[-1] - clamped[0], abs=1e-9)


class TestPairwiseIdle:
    def graph(self):
        graph = ConnectivityGraph()
        graph.add_node(1)
        graph.add_node(2)
        graph.add_edge(1, 2)
        return graph

    def test_more_active_node_goes_idle(self):
        ledger = ledger_with(1, [6.0])
        ledger.record_active(2, 0, 2.0)
        decision = pairwise_idle_decision(ledger, 1, 2, 0, self.graph())
        assert decision is IdleDecision.GO_IDLE

    def test_pending_traffic_blocks_idle(self):
        ledger = ledger_with(1, [6.0])
        ledger.record_active(2, 0, 2.0)
        decision = pairwise_idle_decision(ledger, 1, 2, 1_000, self.graph())
        assert decision is IdleDecision.NO_CHANGE

    def test_equal_times_no_change(self):
        ledger = ledger_with(1, [2.0])
        ledger.record_active(2, 0, 2.0)
        decision = pairwise_idle_decision(ledger, 1, 2, 0, self.graph())
        assert decision is IdleDecision.NO_CHANGE

    def test_non_neighbors_rejected(self):
        graph = ConnectivityGraph()
        graph.add_node(1)
        graph.add_node(2)
        ledger = ledger_with(1, [6.0])
        with pytest.raises(ValueError):
            pairwise_idle_decision(ledger, 1, 2, 0, graph)


class TestComputeIdle:
    def test_basic_division(self):
        assert compute_idle(10.0, 2.0, 4) == pytest.approx(2.0, abs=1e-12)

    def test_boundary_clamps_to_zero(self):
        assert compute_idle(10.0, 10.0, 3) == 0.0

    def test_lone_hop_full_round(self):
        assert compute_idle(10.0, 0.0, 1) == pytest.approx(10.0, abs=1e-12)

    def test_zero_hops_invalid(self):
        with pytest.raises(ValueError):
            compute_idle(10.0, 1.0, 0)

    @given(st.floats(0.1, 100.0), st.floats(0.0, 200.0), st.integers(1, 20))
    def test_output_in_range(self, round_length, max_dp, hops):
        out = compute_idle(round_length, max_dp, hops)
        assert 0.0 <= out <= round_length
        if max_dp < round_length:
            assert out == pytest.approx((round_length - max_dp) / hops, abs=1e-12)


class TestPathDelay:
    def test_single_hop(self):
        assert path_delay([(1.0, 0.5)]).total == pytest.approx(1.5, abs=1e-12)

    def test_all_zero(self):
        assert path_delay([(0.0, 0.0), (0.0, 0.0)]).total == 0.0

    def test_empty_path_invalid(self):
        with pytest.raises(ValueError):
            path_delay([])

    @given(
        st.lists(
            st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 5.0)), min_size=1, max_size=8
        )
    )
    def test_matches_plain_loop(self, hops):
        total = 0.0
        for hosting, tx in hops:
            total += hosting
            total += tx
        record = path_delay(hops)
        assert record.total == pytest.approx(total, abs=1e-9)
        assert record.hop_count == len(hops)


def sleep_inputs(**overrides):
    base = dict(
        capacities=(11e6,),
        volumes=(0.0,),
        sup_capacity=11e6,
        n_hops=2,
        path_delay=3.0,
        round_length=10.0,
        cache_delays=(8.0,),
    )
    base.update(overrides)
    return SleepInputs(**base)


class TestComputeSleep:
    def test_full_ratio_returns_path_delay(self):
        assert compute_sleep(sleep_inputs()) == pytest.approx(3.0, abs=1e-9)

    def test_backlog_equal_to_capacity_means_no_sleep(self):
        inputs = sleep_inputs(volumes=(11e6,))
        assert compute_sleep(inputs) == 0.0

    def test_half_ratio_squared(self):
        inputs = sleep_inputs(
            capacities=(5.5e6,), volumes=(0.0,), sup_capacity=11e6, n_hops=2, path_delay=4.0
        )
        assert compute_sleep(inputs) == pytest.approx(1.0, abs=1e-9)

    def test_round_clamp(self):
        inputs = sleep_inputs(path_delay=50.0, round_length=10.0, cache_delays=())
        out = compute_sleep(inputs)
        assert out < 10.0
        assert out == pytest.approx((1 - 1e-6) * 10.0, abs=1e-9)

    def test_cache_delay_clamp(self):
        inputs = sleep_inputs(path_delay=9.0, cache_delays=(0.5, 2.0))
        out = compute_sleep(inputs)
        assert out < 0.5

    def test_no_capacity_error(self):
        inputs = sleep_inputs(capacities=(0.0,), volumes=(0.0,), sup_capacity=0.0)
        with pytest.raises(NoCapacityError):
            compute_sleep(inputs)

    @settings(deadline=None)
    @given(
        st.floats(0.0, 11e6),
        st.floats(0.0, 11e6),
        st.integers(1, 6),
        st.floats(0.0, 9.0),
    )
    def test_monotone_decreasing_in_volume(self, v1, v2, hops, dp):
        lo, hi = sorted((v1, v2))
        out_lo = compute_sleep(
            sleep_inputs(volumes=(lo,), n_hops=hops, path_delay=dp, cache_delays=())
        )
        out_hi = compute_sleep(
            sleep_inputs(volumes=(hi,), n_hops=hops, path_delay=dp, cache_delays=())
        )
        assert out_hi <= out_lo + 1e-12

    @settings(deadline=None)
    @given(st.integers(1, 8), st.integers(1, 8), st.floats(0.0, 9.0), st.floats(0.1, 1.0))
    def test_monotone_decreasing_in_hops_when_ratio_below_one(self, n1, n2, dp, frac):
        lo, hi = sorted((n1, n2))
        inputs_lo = sleep_inputs(
            capacities=(frac * 11e6,), n_hops=lo, path_delay=dp, cache_delays=()
        )
        inputs_hi = sleep_inputs(
            capacities=(frac * 11e6,), n_hops=hi, path_delay=dp, cache_delays=()
        )
        assert compute_sleep(inputs_hi) <= compute_sleep(inputs_lo) + 1e-12

    def test_pure_function(self):
        inputs = sleep_inputs()
        assert compute_sleep(inputs) == compute_sleep(inputs)


class TestSpSleep:
    def test_constant_history(self):
        assert sp_sleep([2.0, 2.0, 2.0], 3) == pytest.approx(2.0, abs=1e-12)

    def test_all_zero(self):
        assert sp_sleep([0.0, 0.0, 0.0], 3) == 0.0

    def test_prefix_mean_supremum(self):
        # Hand oracle: prefix means 1/3, 4/3, 6/3 -> sup is 2.
        assert sp_sleep([1.0, 3.0, 2.0], 3) == pytest.approx(2.0, abs=1e-12)

    def test_empty_history_keeps_sp_active(self):
        assert sp_sleep([], 5) == 0.0

    def test_clamped_below_round(self):
        assert sp_sleep([30.0], 1, round_length=10.0) < 10.0

    def test_clamp_uses_epsilon(self):
        assert sp_sleep([100.0], 1, 10.0, 0.1) == 9.0

    @given(st.lists(st.floats(0.0, 9.0), min_size=1, max_size=12))
    def test_bounds_vs_mean_and_max(self, history):
        n = len(history)
        out = sp_sleep(history, n)
        assert out >= sum(history) / n - 1e-9
        assert out <= max(history) + 1e-9

    @given(
        st.lists(st.floats(0.0, allow_infinity=False), max_size=30),
        st.integers(1, 50),
        st.one_of(st.none(), st.floats(1e-6, 1e9)),
    )
    def test_equals_prefix_mean_supremum_bit_for_bit(self, history, n_evals, round_length):
        def reference():
            # The definition: the supremum of the running prefix means.
            best = -math.inf
            running = 0.0
            for value in history:
                running += value
                best = max(best, running / n_evals)
            if round_length is not None:
                best = min(best, (1.0 - SLEEP_EPSILON) * round_length)
            return max(0.0, best) if history else 0.0

        assert sp_sleep(history, n_evals, round_length).hex() == reference().hex()
