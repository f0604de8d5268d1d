"""Seeded traffic generation and link transmission timing.

Traffic is Poisson per flow, optionally modulated by exponential on/off
bursts. Generation is pure given (flows, horizon, rng), so a fixed seed
reproduces the exact packet list.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Packet:
    """A generated packet: delay-sensitive exactly when it has a deadline."""

    id: int
    src: int
    dst: int
    size_bits: int
    created_at: float
    deadline: float | None = None  # absolute, delay-sensitive only

    def __post_init__(self) -> None:
        if self.size_bits <= 0:
            raise ValueError("packet size must be > 0 bits")
        if self.deadline is not None and self.deadline <= self.created_at:
            raise ValueError("delay-sensitive packets need a deadline after creation")

    def past_deadline(self, now: float) -> bool:
        """Whether this is a delay-sensitive packet whose deadline lies before ``now``."""
        return self.deadline is not None and now > self.deadline


@dataclass(frozen=True)
class FlowSpec:
    """One src->dst packet flow: Poisson arrivals with optional on/off bursts."""

    src: int
    dst: int
    rate_pps: float
    packet_bits: int = 8_000
    ds_fraction: float = 0.3
    burst_on_s: float | None = None  # mean on-period; both burst params or neither
    burst_off_s: float | None = None

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError("flow src and dst must differ")
        if self.rate_pps < 0:
            raise ValueError("flow rate must be >= 0")
        if self.packet_bits <= 0:
            raise ValueError("packet size must be > 0 bits")
        if not 0.0 <= self.ds_fraction <= 1.0:
            raise ValueError("ds_fraction must lie in [0, 1]")
        if (self.burst_on_s is None) != (self.burst_off_s is None):
            raise ValueError("burst_on_s and burst_off_s must be set together")
        if self.burst_on_s is not None and (self.burst_on_s <= 0 or self.burst_off_s <= 0):
            raise ValueError("burst periods must be > 0")


def generate(
    flows: list[FlowSpec],
    horizon: float,
    rng: random.Random,
    deadline_offset: float = 20.0,
) -> list[Packet]:
    """Generate the full packet stream over [0, horizon), time-ordered. A
    delay-sensitive packet's deadline is ``deadline_offset`` after its creation.

    Output is sorted by (created_at, id); ids are assigned in that order.
    """
    if horizon <= 0:
        raise ValueError("horizon must be > 0")
    raw: list[tuple[float, int, int, int, bool]] = []
    for flow in flows:
        if flow.rate_pps == 0:
            continue
        for created_at in _arrival_times(flow, horizon, rng):
            is_ds = rng.random() < flow.ds_fraction
            raw.append((created_at, flow.src, flow.dst, flow.packet_bits, is_ds))
    raw.sort(key=lambda item: item[0])
    packets: list[Packet] = []
    for pid, (created_at, src, dst, bits, is_ds) in enumerate(raw):
        packets.append(
            Packet(
                id=pid,
                src=src,
                dst=dst,
                size_bits=bits,
                created_at=created_at,
                deadline=created_at + deadline_offset if is_ds else None,
            )
        )
    return packets


def _arrival_times(flow: FlowSpec, horizon: float, rng: random.Random) -> list[float]:
    """Poisson arrivals during on-periods of the flow's on/off process."""
    times: list[float] = []
    t = 0.0
    always_on = flow.burst_on_s is None
    while t < horizon:
        if always_on:
            window_end = horizon
        else:
            window_end = min(horizon, t + rng.expovariate(1.0 / flow.burst_on_s))
        while True:
            t += rng.expovariate(flow.rate_pps)
            if t >= window_end:
                break
            times.append(t)
        if always_on:
            break
        t = window_end + rng.expovariate(1.0 / flow.burst_off_s)
    return times


def tx_delay(size_bits: int, capacity_bps: float) -> float:
    """Transmission delay of one packet over one link."""
    if capacity_bps <= 0:
        raise ValueError("link capacity must be > 0")
    return size_bits / capacity_bps
