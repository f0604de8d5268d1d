import math

import pytest
from hypothesis import given, settings, strategies as st

from ecsim.core import sum_in_order
from ecsim.scheduler import (
    ActivityLedger,
    SLEEP_EPSILON,
    backward_diff,
    compute_sleep,
    pairwise_idle_decision,
    path_delay,
    sp_sleep,
)


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
        assert backward_diff(ledger, 1, 0) is None

    def test_missing_slot_has_no_history(self):
        ledger = ledger_with(1, [4.0])
        assert backward_diff(ledger, 1, 3) is None

    @settings(deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=10))
    def test_telescoping_sum(self, values):
        ledger = ledger_with(1, values, slot_width=1.0)
        total = sum(backward_diff(ledger, 1, s) for s in range(1, len(values)))
        clamped = [min(1.0, v) for v in values]
        assert total == pytest.approx(clamped[-1] - clamped[0], abs=1e-9)


# Pending traffic keeps a node from idling in the plane, which compares only
# quiet members: tests/test_engine.py covers that rule.
class TestPairwiseIdle:
    def test_more_active_node_goes_idle(self):
        ledger = ledger_with(1, [6.0])
        ledger.record_active(2, 0, 2.0)
        assert pairwise_idle_decision(ledger, 1, 2) is True
        assert pairwise_idle_decision(ledger, 2, 1) is False

    def test_equal_times_no_change(self):
        ledger = ledger_with(1, [2.0])
        ledger.record_active(2, 0, 2.0)
        assert pairwise_idle_decision(ledger, 1, 2) is False


class TestCumulativeActive:
    """Each node's total is kept between reads; a record or a new round drops it."""

    def test_record_after_a_read_gives_the_new_sum(self):
        ledger = ledger_with(1, [2.0])
        assert ledger.cumulative_active(1) == 2.0
        ledger.record_active(1, 3, 0.5)
        assert ledger.cumulative_active(1) == 2.5
        ledger.record_active(1, 3, 0.25)  # the same slot again
        assert ledger.cumulative_active(1) == 2.75

    def test_start_round_empties_it(self):
        ledger = ledger_with(1, [2.0, 1.0])
        assert ledger.cumulative_active(1) == 3.0
        ledger.start_round()
        assert ledger.cumulative_active(1) == 0
        ledger.record_active(1, 0, 0.5)
        assert ledger.cumulative_active(1) == 0.5

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 4), st.floats(0.0, 3.0),
                              st.integers(0, 9)), max_size=40))
    def test_matches_a_ledger_read_once(self, ops):
        ledger = ActivityLedger(slot_width=2.0, slots_per_round=5)
        records = []  # this round's, replayed into a fresh ledger
        for node, slot, seconds, draw in ops:
            if draw == 0:
                ledger.start_round()
                records = []
            ledger.record_active(node, slot, seconds)
            records.append((node, slot, seconds))
            fresh = ActivityLedger(slot_width=2.0, slots_per_round=5)
            for record in records:
                fresh.record_active(*record)
            for other in range(3):
                assert ledger.cumulative_active(other) == fresh.cumulative_active(other)


class TestPathDelay:
    def test_single_hop(self):
        assert path_delay([(1.0, 0.5)]) == pytest.approx(1.5, abs=1e-12)

    def test_all_zero(self):
        assert path_delay([(0.0, 0.0), (0.0, 0.0)]) == 0.0

    def test_empty_path_invalid(self):
        with pytest.raises(ValueError):
            path_delay([])

    def test_negative_component_invalid(self):
        with pytest.raises(ValueError):
            path_delay([(1.0, 0.5), (0.0, -0.1)])

    def test_hosting_delays_add_before_transmission_delays(self):
        # Hop by hop, each 1.0 rounds away against 1e16 (ulp 2, ties to even);
        # the hosting delays summed first survive as 4.0.
        hops = [(1.0, 1e16), (1.0, 0.0), (1.0, 0.0), (1.0, 0.0)]
        assert path_delay(hops) == 1e16 + 4.0

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
        assert path_delay(hops) == pytest.approx(total, abs=1e-9)


def sleep(**overrides):
    """``compute_sleep`` for one node fed by one 11 Mb/s link, with no cached
    backlog, a 3 s budget over two hops, a 10 s round and an 8 s hosting
    delay."""
    base = dict(
        cap_sum=11e6,
        vol_sum=0.0,
        sup_capacity=11e6,
        n_hops=2,
        path_delay=3.0,
        round_length=10.0,
        min_cache_delay=8.0,
    )
    base.update(overrides)
    return compute_sleep(**base)


class TestComputeSleep:
    def test_full_ratio_returns_path_delay(self):
        assert sleep() == pytest.approx(3.0, abs=1e-9)

    def test_backlog_equal_to_capacity_means_no_sleep(self):
        assert sleep(vol_sum=11e6) == 0.0

    def test_half_ratio_squared(self):
        assert sleep(cap_sum=5.5e6, path_delay=4.0) == pytest.approx(1.0, abs=1e-9)

    def test_round_clamp(self):
        out = sleep(path_delay=50.0, round_length=10.0, min_cache_delay=None)
        assert out < 10.0
        assert out == pytest.approx((1 - 1e-6) * 10.0, abs=1e-9)

    def test_cache_delay_clamp(self):
        assert sleep(path_delay=9.0, min_cache_delay=0.5) < 0.5

    def test_no_capacity_error(self):
        with pytest.raises(ValueError, match="without channel capacity"):
            sleep(cap_sum=0.0, sup_capacity=0.0)

    @settings(deadline=None)
    @given(
        st.floats(0.0, 11e6),
        st.floats(0.0, 11e6),
        st.integers(1, 6),
        st.floats(0.0, 9.0),
    )
    def test_monotone_decreasing_in_volume(self, v1, v2, hops, dp):
        lo, hi = sorted((v1, v2))
        out_lo = sleep(vol_sum=lo, n_hops=hops, path_delay=dp, min_cache_delay=None)
        out_hi = sleep(vol_sum=hi, n_hops=hops, path_delay=dp, min_cache_delay=None)
        assert out_hi <= out_lo + 1e-12

    @settings(deadline=None)
    @given(st.integers(1, 8), st.integers(1, 8), st.floats(0.0, 9.0), st.floats(0.1, 1.0))
    def test_monotone_decreasing_in_hops_when_ratio_below_one(self, n1, n2, dp, frac):
        lo, hi = sorted((n1, n2))
        out_lo = sleep(cap_sum=frac * 11e6, n_hops=lo, path_delay=dp, min_cache_delay=None)
        out_hi = sleep(cap_sum=frac * 11e6, n_hops=hi, path_delay=dp, min_cache_delay=None)
        assert out_hi <= out_lo + 1e-12

    def test_pure_function(self):
        assert sleep() == sleep()


class TestSleepInterval:
    @given(
        st.lists(st.floats(0.0, 1e8), max_size=8),
        st.lists(st.floats(0.0, 1e6), max_size=8),
        st.floats(1e6, 1e8),
        st.integers(1, 8),
        st.floats(0.0, 20.0),
        st.floats(8.0, 100.0),
        st.lists(st.floats(0.0, 100.0), max_size=5),
        st.floats(0.0, 0.1),
    )
    def test_scalar_path_equals_compute_sleep_bit_for_bit(
        self, capacities, volumes, headroom, hops, budget, round_length, delays, epsilon
    ):
        # ``sup`` dominates the capacity sum, and the volumes (at most 8e6
        # bits) fit the channel window (at least 8e6 bits).
        sup = sum_in_order(capacities) + headroom
        scalar = compute_sleep(
            sum_in_order(capacities), sum_in_order(volumes), sup, hops, budget, round_length,
            min(delays, default=None), epsilon,
        )

        def reference():
            # The definition, with every clamp applied to the per-link values.
            ratio = (sum_in_order(capacities) - sum_in_order(volumes)) / sup
            raw = min(1.0, max(0.0, ratio)) ** hops * budget
            bounds = [(1.0 - epsilon) * round_length]
            bounds += [(1.0 - epsilon) * delay for delay in delays]
            return max(0.0, min([raw] + bounds))

        assert scalar.hex() == reference().hex()

    def test_volume_above_the_channel_window_raises(self):
        # 11 Mb/s over a 10 s round carries 110 Mb at most.
        with pytest.raises(ValueError, match="channel window"):
            compute_sleep(11e6, 110e6 + 1.0, 11e6, 2, 3.0, 10.0, None)
        assert compute_sleep(11e6, 110e6, 11e6, 2, 3.0, 10.0, None) == 0.0


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
