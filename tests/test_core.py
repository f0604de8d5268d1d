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
    acct = EnergyAccount(e_residual=10.0, e_max=10.0)
    assert consume(acct, RadioMode.IDLE, 0.0, PARAMS).e_residual == 10.0


def test_consume_sleep_power():
    acct = EnergyAccount(e_residual=10.0, e_max=10.0)
    params = EnergyModelParams(p_sleep=0.1)
    out = consume(acct, RadioMode.SLEEP, 5.0, params)
    assert out.e_residual == pytest.approx(9.5, abs=1e-9)
    assert out.e_max == 10.0


def test_consume_floors_at_zero_and_flags_dead():
    acct = EnergyAccount(e_residual=0.2, e_max=10.0)
    out = consume(acct, RadioMode.ACTIVE_TX, 1.0, PARAMS)
    assert out.e_residual == 0.0


def test_consume_rejects_negative_duration():
    acct = EnergyAccount(e_residual=1.0, e_max=1.0)
    with pytest.raises(ValueError):
        consume(acct, RadioMode.IDLE, -0.1, PARAMS)


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
    acct = EnergyAccount(e_residual=100.0, e_max=100.0)
    last = acct.e_residual
    for mode, duration in steps:
        acct = consume(acct, mode, duration, PARAMS)
        assert acct.e_residual <= last
        last = acct.e_residual


@given(st.floats(0.0, 100.0))
def test_mode_power_ordering(duration):
    acct = EnergyAccount(e_residual=1e6, e_max=1e6)
    spent = {
        mode: acct.e_residual - consume(acct, mode, duration, PARAMS).e_residual
        for mode in RadioMode
    }
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
    acct = EnergyAccount(e_residual=100.0, e_max=100.0)
    joined = consume(acct, mode, a + b, PARAMS)
    split = consume(consume(acct, mode, a, PARAMS), mode, b, PARAMS)
    assert split.e_residual == pytest.approx(joined.e_residual, abs=1e-9)


def test_sum_in_order_rounds_after_every_addition():
    # Compensated summation (sum() since Python 3.12, math.fsum) gives 1.0.
    assert sum_in_order([0.1] * 10) == 0.9999999999999999
    assert sum_in_order([]) == 0
