"""Shared domain types and the mode-power energy model.

Energy is tracked in joules, time in seconds, power in watts. A node's
battery only drains (no harvesting); hitting zero is a latched death state.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

# Node identifiers are plain non-negative ints with total order (used for
# deterministic tie-breaking throughout).
NodeId = int


class RadioMode(Enum):
    """Radio interface state; a node is in exactly one mode at any instant."""

    ACTIVE_TX = "tx"
    ACTIVE_RX = "rx"
    IDLE = "idle"
    SLEEP = "sleep"
    # Members are singletons compared by identity, so they hash by identity,
    # in C. Never iterate a set of them: its order would vary between runs.
    __hash__ = object.__hash__


class NodePhase(Enum):
    """Duty-cycle phase a scheme puts a node in; the radio mode follows it."""

    ACTIVE = "active"
    IDLE = "idle"
    SLEEP = "sleep"


class EventKind(Enum):
    PACKET_ARRIVAL = "packet-arrival"
    TX_COMPLETE = "tx-complete"
    SLOT_BOUNDARY = "slot-boundary"
    ROUND_SETUP = "round-setup"
    SLEEP_EXPIRY = "sleep-expiry"
    IDLE_EXPIRY = "idle-expiry"
    MOBILITY_STEP = "mobility-step"
    NODE_DEATH = "node-death"
    CACHE_DELIVERY = "cache-delivery"
    __hash__ = object.__hash__  # as RadioMode's


@dataclass(frozen=True)
class EnergyModelParams:
    """Per-mode power draw in watts.

    Defaults follow published WaveLAN PC card measurements; they are
    overridable config values, not ground truth.
    """

    p_tx: float = 1.4
    p_rx: float = 1.0
    p_idle: float = 0.83
    p_sleep: float = 0.13

    def __post_init__(self) -> None:
        if not (self.p_tx >= self.p_rx >= self.p_idle > self.p_sleep >= 0.0):
            raise ValueError(
                "power ordering violated: need p_tx >= p_rx >= p_idle > p_sleep >= 0, got "
                f"tx={self.p_tx} rx={self.p_rx} idle={self.p_idle} sleep={self.p_sleep}"
            )

    def power(self, mode: RadioMode) -> float:
        if mode is RadioMode.ACTIVE_TX:
            return self.p_tx
        if mode is RadioMode.ACTIVE_RX:
            return self.p_rx
        if mode is RadioMode.IDLE:
            return self.p_idle
        return self.p_sleep


@dataclass(frozen=True)
class EnergyAccount:
    """Snapshot of a battery: residual and initial capacity in joules.

    A running simulation keeps each battery as a float on its node and
    builds this validated snapshot when asked (``SimNode.account``)."""

    e_residual: float
    e_max: float

    def __post_init__(self) -> None:
        if self.e_max < 0:
            raise ValueError(f"e_max must be >= 0, got {self.e_max}")
        if not 0.0 <= self.e_residual <= self.e_max:
            raise ValueError(
                f"e_residual must lie in [0, e_max]: got {self.e_residual} with e_max={self.e_max}"
            )


def consume(residual: float, power: float, duration: float) -> float:
    """Residual energy after drawing ``power`` watts for ``duration`` seconds.

    Residual clamps at zero (death) rather than going negative.
    """
    if duration < 0:
        raise ValueError(f"duration must be >= 0, got {duration}")
    return max(0.0, residual - power * duration)


def fraction_remaining(account: EnergyAccount) -> float:
    """Residual energy as a fraction of initial capacity, in [0, 1]."""
    if account.e_max <= 0:
        raise ValueError("fraction_remaining requires e_max > 0")
    return account.e_residual / account.e_max


def sum_in_order(values: Iterable[float]) -> float:
    """Add from 0, left to right: ``sum()`` compensates float rounding since 3.12."""
    total = 0
    for value in values:
        total += value
    return total
