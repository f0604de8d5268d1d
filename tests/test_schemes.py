"""The traffic-aware plane's window maxima against a brute-force ``max``."""

from collections import deque

from hypothesis import given, settings, strategies as st

from ecsim.schemes import window_front, window_push

# (time step, delay, hops, read instead of add). Steps of 0 put several
# samples at one instant; delays from a short list make equal ones common.
OPS = st.lists(
    st.tuples(
        st.sampled_from((0.0, 0.0, 0.1, 0.4, 1.0, 2.5)),
        st.sampled_from((0.0, 0.5, 1.0, 2.0)),
        st.integers(1, 4),
        st.booleans(),
    ),
    max_size=60,
)


def brute_force(samples, cutoff):
    """What the plane read before the deques: ``max`` over the window's
    (time, delay, hops) samples keyed on (delay, time), first of equals."""
    live = [s for s in samples if s[0] >= cutoff]
    if not live:
        return None
    time, delay, hops = max(live, key=lambda s: (s[1], s[0]))
    return (delay, time), hops


# A slot is 1.0 s here: the 0.3 s window is shorter than a slot.
@settings(max_examples=300, deadline=None)
@given(OPS, st.sampled_from((0.3, 1.0, 4.0)))
def test_window_front_matches_brute_force_max(ops, window):
    dq, samples, now = deque(), [], 0.0
    for step, delay, hops, read in ops:
        now += step
        if read:
            assert window_front(dq, now - window) == brute_force(samples, now - window)
        else:
            window_push(dq, (delay, now), hops)
            samples.append((now, delay, hops))
    assert window_front(dq, now - window) == brute_force(samples, now - window)


def test_equal_delays_at_one_instant_keep_the_first():
    dq = deque()
    window_push(dq, (2.0, 5.0), 3)
    window_push(dq, (2.0, 5.0), 1)
    window_push(dq, (1.0, 5.0), 4)
    assert window_front(dq, 4.0) == ((2.0, 5.0), 3)


def test_a_later_equal_delay_replaces_an_earlier_one():
    dq = deque()
    window_push(dq, (2.0, 1.0), 3)
    window_push(dq, (2.0, 1.5), 2)
    assert list(dq) == [((2.0, 1.5), 2)]
    assert window_front(dq, 1.2) == ((2.0, 1.5), 2)


def test_a_window_shorter_than_the_gap_empties():
    dq = deque()
    window_push(dq, (3.0, 0.0), 2)
    assert window_front(dq, 0.7 - 0.5) is None
    assert not dq
