import math

import pytest
from hypothesis import given, strategies as st

from ecsim.core import (
    EnergyAccount,
    EnergyModelParams,
    RadioMode,
    consume,
    fraction_remaining,
    sum_in_order,
)

PARAMS = EnergyModelParams()


def test_consume_zero_duration():
    assert consume(10.0, PARAMS.power(RadioMode.IDLE), 0.0) == 10.0


def test_consume_sleep_power():
    params = EnergyModelParams(p_sleep=0.1)
    assert consume(10.0, params.power(RadioMode.SLEEP), 5.0) == pytest.approx(9.5, abs=1e-9)


def test_consume_floors_at_zero_and_flags_dead():
    assert consume(0.2, PARAMS.power(RadioMode.ACTIVE_TX), 1.0) == 0.0


def test_consume_rejects_negative_duration():
    with pytest.raises(ValueError):
        consume(1.0, PARAMS.power(RadioMode.IDLE), -0.1)


@pytest.mark.parametrize(
    "residual,capacity,expected",
    [(5.0, 10.0, 0.5), (10.0, 10.0, 1.0), (0.0, 10.0, 0.0)],
)
def test_fraction_remaining(residual, capacity, expected):
    assert fraction_remaining(EnergyAccount(residual, capacity)) == expected


def test_fraction_remaining_rejects_zero_capacity():
    with pytest.raises(ValueError):
        fraction_remaining(EnergyAccount(0.0, 0.0))


def test_params_ordering_enforced():
    with pytest.raises(ValueError):
        EnergyModelParams(p_tx=0.5, p_rx=1.0)
    with pytest.raises(ValueError):
        EnergyModelParams(p_idle=0.1, p_sleep=0.1)  # idle must exceed sleep


def test_account_bounds_enforced():
    with pytest.raises(ValueError):
        EnergyAccount(e_residual=11.0, e_max=10.0)
    with pytest.raises(ValueError):
        EnergyAccount(e_residual=-1.0, e_max=10.0)


@given(
    st.lists(
        st.tuples(st.sampled_from(list(RadioMode)), st.floats(0.0, 50.0)),
        max_size=30,
    )
)
def test_energy_monotone_over_event_sequences(steps):
    residual = 100.0
    for mode, duration in steps:
        after = consume(residual, PARAMS.power(mode), duration)
        assert 0.0 <= after <= residual
        residual = after


@given(st.floats(0.0, 100.0))
def test_mode_power_ordering(duration):
    spent = {mode: 1e6 - consume(1e6, PARAMS.power(mode), duration) for mode in RadioMode}
    assert spent[RadioMode.ACTIVE_TX] >= spent[RadioMode.ACTIVE_RX]
    assert spent[RadioMode.ACTIVE_RX] >= spent[RadioMode.IDLE]
    if duration > 1e-9:
        assert spent[RadioMode.IDLE] > spent[RadioMode.SLEEP]
    assert spent[RadioMode.SLEEP] >= 0.0


@given(
    st.floats(0.0, 20.0),
    st.floats(0.0, 20.0),
    st.sampled_from(list(RadioMode)),
)
def test_consume_additive_in_duration(a, b, mode):
    power = PARAMS.power(mode)
    joined = consume(100.0, power, a + b)
    split = consume(consume(100.0, power, a), power, b)
    assert split == pytest.approx(joined, abs=1e-9)


AMOUNTS = st.floats(0.0, 1e6)


@st.composite
def draws(draw):
    """(residual, power, duration); in half the draws the drawn power and
    duration empty the residual exactly. A residual of -0.0, which no
    battery holds, checks that the clamp does not pass it through."""
    power = draw(st.sampled_from([PARAMS.power(mode) for mode in RadioMode]) | AMOUNTS)
    duration = draw(AMOUNTS)
    if draw(st.booleans()):
        residual = power * duration
    else:
        residual = draw(AMOUNTS | st.just(-0.0))
    return residual, power, duration


@given(draws())
def test_consume_clamps_at_zero_as_max_does(drawn):
    residual, power, duration = drawn
    after = consume(residual, power, duration)
    assert repr(after) == repr(max(0.0, residual - power * duration))
    # Never -0.0, which equals 0.0 but prints as "-0.0".
    assert math.copysign(1.0, after) == 1.0


def test_sum_in_order_rounds_after_every_addition():
    # Compensated summation (sum() since Python 3.12, math.fsum) gives 1.0.
    assert sum_in_order([0.1] * 10) == 0.9999999999999999
    assert sum_in_order([]) == 0
