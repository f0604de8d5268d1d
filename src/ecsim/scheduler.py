"""Traffic-history ledgers and the sleep interval computations.

All operations here are pure: identical inputs give bit-identical outputs.
The traffic-aware plane owns the ledger and calls these between events.
"""

from __future__ import annotations

from typing import Sequence

from ecsim.core import NodeId, sum_in_order

# Every sleep interval stays below (1 - SLEEP_EPSILON) of its bound, so a
# sleeper wakes strictly before the round or cache hosting delay ends.
SLEEP_EPSILON = 1e-6


class ActivityLedger:
    """Per-node, per-slot traffic-active seconds over one round window.

    A slot value counts seconds the node's radio was busy with traffic
    (transmit/receive) inside that slot. A slot never recorded reads as None;
    the simulator records only busy time, so for it that means idle.
    """

    def __init__(self, slot_width: float, slots_per_round: int):
        if slot_width <= 0:
            raise ValueError("slot_width must be > 0")
        if slots_per_round < 1:
            raise ValueError("slots_per_round must be >= 1")
        self.slot_width = slot_width
        self.slots_per_round = slots_per_round
        self._slots: dict[NodeId, dict[int, float]] = {}
        # Each node's cumulative_active, kept until its next record or round.
        self._totals: dict[NodeId, float] = {}

    def start_round(self) -> None:
        self._slots.clear()
        self._totals.clear()

    def record_active(self, node: NodeId, slot: int, seconds: float) -> None:
        if slot < 0 or slot >= self.slots_per_round:
            raise ValueError(f"slot index {slot} outside 0..{self.slots_per_round - 1}")
        if seconds < 0:
            raise ValueError("active seconds must be >= 0")
        series = self._slots.setdefault(node, {})
        series[slot] = min(self.slot_width, series.get(slot, 0.0) + seconds)
        self._totals.pop(node, None)

    def slot_value(self, node: NodeId, slot: int) -> float | None:
        return self._slots.get(node, {}).get(slot)

    def cumulative_active(self, node: NodeId) -> float:
        """Total recorded traffic-active seconds in the current round window."""
        total = self._totals.get(node)
        if total is None:
            total = self._totals[node] = sum_in_order(self._slots.get(node, {}).values())
        return total


def backward_diff(ledger: ActivityLedger, node: NodeId, slot: int) -> float | None:
    """Backward difference of the activity series: S(slot) - S(slot-1).

    Negative values mean declining traffic. None for slot 0 or unrecorded
    slots; the caller falls back to its default schedule.
    """
    if slot < 1:
        return None
    current = ledger.slot_value(node, slot)
    previous = ledger.slot_value(node, slot - 1)
    if current is None or previous is None:
        return None
    return current - previous


def pairwise_idle_decision(ledger: ActivityLedger, node_a: NodeId, node_b: NodeId) -> bool:
    """Whether ``node_a`` goes idle (and informs the SP): true when its
    cumulative active time is strictly larger than ``node_b``'s.

    The caller passes two nodes in direct contact, and as ``node_a`` only a
    node with no traffic pending for it.
    """
    return ledger.cumulative_active(node_a) > ledger.cumulative_active(node_b)


def path_delay(hops: Sequence[tuple[float, float]]) -> float:
    """End-to-end delay of a path of (hosting, transmission) pairs: every
    hosting delay summed in order, plus every transmission delay in order."""
    if not hops:
        raise ValueError("a path needs at least one hop")
    for hosting, tx in hops:
        if hosting < 0 or tx < 0:
            raise ValueError("delay components must be >= 0")
    return sum_in_order(h for h, _ in hops) + sum_in_order(t for _, t in hops)


def compute_sleep(cap_sum: float, vol_sum: float, sup_capacity: float, n_hops: int,
                  path_delay: float, round_length: float, min_cache_delay: float | None,
                  epsilon: float = SLEEP_EPSILON) -> float:
    """Sleep interval ((sum C - sum V) / sup C)^n * d_p, with hard clamps.

    ``cap_sum`` is the sum of the channel capacities (bits/s) toward the
    node, ``vol_sum`` the sum of the cached volumes (bits) destined for it,
    and ``sup_capacity`` the running supremum of the capacity sum over the
    observation window. ``min_cache_delay`` is the shortest current hosting
    delay of the oldest cached entries per holder (None when nothing is
    cached). The capacity ratio clamps to [0, 1] before exponentiation (backlog beyond
    capacity means: stay awake). The result is kept strictly below the round
    length and below the shortest current cache hosting delay, if any.
    """
    if sup_capacity <= 0:
        raise ValueError("sleep interval undefined without channel capacity")
    # Cached volume can never exceed what the channel window could carry.
    if vol_sum > sup_capacity * round_length + 1e-9:
        raise ValueError("cached volume exceeds the channel window volume")
    ratio = min(1.0, max(0.0, (cap_sum - vol_sum) / sup_capacity))
    raw = (ratio ** n_hops) * path_delay
    bound = (1.0 - epsilon) * round_length
    if min_cache_delay is not None:
        bound = min(bound, (1.0 - epsilon) * min_cache_delay)
    return max(0.0, min(raw, bound))


def sp_sleep(
    history: Sequence[float],
    n_evals: int,
    round_length: float | None = None,
    epsilon: float = SLEEP_EPSILON,
) -> float:
    """Sleep-proxy sleep interval: supremum of running prefix means.

    Each prefix sum of the assigned sleep intervals is divided by the number
    of evaluations ``n_evals``; the supremum over prefixes is returned,
    optionally clamped below ``(1 - epsilon)`` times the round length. An
    empty history keeps the SP active (0).
    """
    if n_evals < 1:
        raise ValueError("n_evals must be >= 1")
    if not history:
        return 0.0
    if any(h < 0 for h in history):
        raise ValueError("sleep history entries must be >= 0")
    # Entries are >= 0, so prefix sums never fall: the last mean is the supremum.
    best = sum_in_order(history) / n_evals
    if round_length is not None:
        best = min(best, (1.0 - epsilon) * round_length)
    return max(0.0, best)
