"""Traffic-history ledgers and the idle/sleep interval computations.

All operations here are pure: identical inputs give bit-identical outputs.
The traffic-aware plane owns the ledger and calls these between events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

from ecsim.core import NodeId, sum_in_order
from ecsim.topology import ConnectivityGraph

# Every sleep interval stays below (1 - SLEEP_EPSILON) of its bound, so a
# sleeper wakes strictly before the round or cache hosting delay ends.
SLEEP_EPSILON = 1e-6


class InsufficientHistory(Exception):
    """Raised when a backward difference is requested without enough slots."""


class NoCapacityError(ValueError):
    """Raised when a sleep interval is requested with zero channel capacity."""


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

    def start_round(self) -> None:
        self._slots.clear()

    def record_active(self, node: NodeId, slot: int, seconds: float) -> None:
        if slot < 0 or slot >= self.slots_per_round:
            raise ValueError(f"slot index {slot} outside 0..{self.slots_per_round - 1}")
        if seconds < 0:
            raise ValueError("active seconds must be >= 0")
        series = self._slots.setdefault(node, {})
        series[slot] = min(self.slot_width, series.get(slot, 0.0) + seconds)

    def slot_value(self, node: NodeId, slot: int) -> float | None:
        return self._slots.get(node, {}).get(slot)

    def cumulative_active(self, node: NodeId) -> float:
        """Total recorded traffic-active seconds in the current round window."""
        return sum_in_order(self._slots.get(node, {}).values())


def backward_diff(ledger: ActivityLedger, node: NodeId, slot: int) -> float:
    """Backward difference of the activity series: S(slot) - S(slot-1).

    Negative values mean declining traffic. Raises InsufficientHistory for
    slot 0 or unrecorded slots; the caller falls back to its default schedule.
    """
    if slot < 1:
        raise InsufficientHistory(f"slot {slot} has no predecessor")
    current = ledger.slot_value(node, slot)
    previous = ledger.slot_value(node, slot - 1)
    if current is None or previous is None:
        raise InsufficientHistory(f"slots {slot - 1}/{slot} not both recorded for node {node}")
    return current - previous


class IdleDecision(Enum):
    GO_IDLE = "go-idle"
    NO_CHANGE = "no-change"


def pairwise_idle_decision(
    ledger: ActivityLedger,
    node_a: NodeId,
    node_b: NodeId,
    pending_bits_for_a: int,
    graph: ConnectivityGraph,
) -> IdleDecision:
    """Compare cumulative active times of two in-contact nodes.

    The node with the strictly larger active time goes idle (and informs the
    SP) provided no traffic is pending for it.
    """
    if not graph.has_edge(node_a, node_b):
        raise ValueError(f"nodes {node_a} and {node_b} are not in direct contact")
    if pending_bits_for_a < 0:
        raise ValueError("pending traffic cannot be negative")
    t_a = ledger.cumulative_active(node_a)
    t_b = ledger.cumulative_active(node_b)
    if t_a > t_b and pending_bits_for_a == 0:
        return IdleDecision.GO_IDLE
    return IdleDecision.NO_CHANGE


def compute_idle(round_length: float, max_path_delay: float, n_hops: int) -> float:
    """Idle interval (T - max_dp) / n, clamped at zero."""
    if n_hops < 1:
        raise ValueError(f"n_hops must be >= 1, got {n_hops}")
    if round_length <= 0:
        raise ValueError("round_length must be > 0")
    return max(0.0, (round_length - max_path_delay) / n_hops)


@dataclass(frozen=True)
class PathDelayRecord:
    """Per-hop hosting and transmission delays of one end-to-end path."""

    hosting_delays: tuple[float, ...]
    tx_delays: tuple[float, ...]

    @property
    def hop_count(self) -> int:
        return len(self.hosting_delays)

    @property
    def total(self) -> float:
        return sum_in_order(self.hosting_delays) + sum_in_order(self.tx_delays)


def path_delay(hops: Sequence[tuple[float, float]]) -> PathDelayRecord:
    """Build the path-delay record from (hosting, transmission) pairs."""
    if not hops:
        raise ValueError("a path needs at least one hop")
    for hosting, tx in hops:
        if hosting < 0 or tx < 0:
            raise ValueError("delay components must be >= 0")
    return PathDelayRecord(
        hosting_delays=tuple(h for h, _ in hops),
        tx_delays=tuple(t for _, t in hops),
    )


@dataclass(frozen=True)
class SleepInputs:
    """Inputs for a sleep-interval computation for one node.

    ``capacities`` are channel capacities (bits/s) toward the node,
    ``volumes`` the cached traffic volumes (bits) destined for it, and
    ``sup_capacity`` the running supremum of the capacity sum over the
    observation window. ``cache_delays`` are the current hosting delays of
    the oldest cached entries per holder (empty when nothing is cached).
    """

    capacities: tuple[float, ...]
    volumes: tuple[float, ...]
    sup_capacity: float
    n_hops: int
    path_delay: float
    round_length: float
    cache_delays: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.n_hops < 1:
            raise ValueError("n_hops must be >= 1")
        if self.round_length <= 0:
            raise ValueError("round_length must be > 0")
        if self.path_delay < 0:
            raise ValueError("path_delay must be >= 0")
        if any(c < 0 for c in self.capacities) or any(v < 0 for v in self.volumes):
            raise ValueError("capacities and volumes must be >= 0")
        if self.sup_capacity < sum_in_order(self.capacities) - 1e-9:
            raise ValueError("sup_capacity must dominate the current capacity sum")
        # Cached volume can never exceed what the channel window could carry.
        window = self.sup_capacity * self.round_length
        if self.sup_capacity > 0 and sum_in_order(self.volumes) > window + 1e-9:
            raise ValueError("cached volume exceeds the channel window volume")


def compute_sleep(inputs: SleepInputs, epsilon: float = SLEEP_EPSILON) -> float:
    """Sleep interval ((sum C - sum V) / sup C)^n * d_p, with hard clamps.

    The capacity ratio clamps to [0, 1] before exponentiation (backlog beyond
    capacity means: stay awake). The result is kept strictly below the round
    length and below every current cache hosting delay.
    """
    if inputs.sup_capacity <= 0:
        raise NoCapacityError("sleep interval undefined without channel capacity")
    ratio = (sum_in_order(inputs.capacities) - sum_in_order(inputs.volumes)) / inputs.sup_capacity
    ratio = min(1.0, max(0.0, ratio))
    raw = (ratio ** inputs.n_hops) * inputs.path_delay
    bound = (1.0 - epsilon) * inputs.round_length
    if inputs.cache_delays:
        bound = min(bound, (1.0 - epsilon) * min(inputs.cache_delays))
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
