"""Scenario configuration: JSON ingestion, strict validation, defaults.

Validation is strict (unknown keys are errors) and exhaustive: all problems
are reported at once, not just the first.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ecsim.core import EnergyModelParams
from ecsim.engine import SCHEMES, Scheme, TrafficAware
from ecsim.traffic import FlowSpec

MAX_NODES_PER_CLUSTER = 50


class ConfigError(ValueError):
    """Carries every validation problem found in a scenario file."""

    def __init__(self, errors: list[str]):
        self.errors = errors
        super().__init__("; ".join(errors))


@dataclass
class ScenarioConfig:
    grid_width: int = 6
    grid_height: int = 6
    node_count: int = 30
    initial_energy_j: float = 100.0
    energy: EnergyModelParams = field(default_factory=EnergyModelParams)
    round_s: float = 10.0
    slots_per_round: int = 10
    p_move: float = 0.01
    mobility_step_s: float = 1.0
    flows: list[FlowSpec] = field(default_factory=list)
    cache_enabled: bool = True
    cache_capacity_bits: int = 10_000_000
    link_bps: float = 11_000_000.0
    scheme: Scheme = field(default_factory=TrafficAware)
    horizon_s: float = 100.0
    seed: int | None = None
    cluster_policy: str = "component"
    cluster_partition: int = 1
    deadline_rounds: float = 2.0
    retry_s: float = 0.5
    observation_window_s: float | None = None
    sleep_epsilon: float = 1e-6
    sleep_budget_rounds: float = 0.4
    traffic_horizon_s: float | None = None

    def validate_runtime(self) -> None:
        errors = _check_semantics(self)
        if errors:
            raise ConfigError(errors)

    def to_dict(self) -> dict:
        scheme = {"kind": self.scheme.name}
        for key, attr in self.scheme.keys:
            scheme[key] = getattr(self.scheme, attr)
        return {
            "grid": {"width": self.grid_width, "height": self.grid_height},
            "nodes": self.node_count,
            "initial_energy_j": self.initial_energy_j,
            "energy": {
                "p_tx": self.energy.p_tx,
                "p_rx": self.energy.p_rx,
                "p_idle": self.energy.p_idle,
                "p_sleep": self.energy.p_sleep,
            },
            "round_s": self.round_s,
            "slots_per_round": self.slots_per_round,
            "p_move": self.p_move,
            "mobility_step_s": self.mobility_step_s,
            "flows": [
                {
                    "src": f.src,
                    "dst": f.dst,
                    "rate_pps": f.rate_pps,
                    "packet_bits": f.packet_bits,
                    "ds_fraction": f.ds_fraction,
                    "deadline_offset_s": f.deadline_offset,
                    "burst_on_s": f.burst_on_s,
                    "burst_off_s": f.burst_off_s,
                }
                for f in self.flows
            ],
            "cache": {"enabled": self.cache_enabled, "capacity_bits": self.cache_capacity_bits},
            "link_bps": self.link_bps,
            "scheme": scheme,
            "horizon_s": self.horizon_s,
            "seed": self.seed,
            "cluster": {"policy": self.cluster_policy, "partition": self.cluster_partition},
            "deadline_rounds": self.deadline_rounds,
            "retry_s": self.retry_s,
            "observation_window_s": self.observation_window_s,
            "sleep_epsilon": self.sleep_epsilon,
            "sleep_budget_rounds": self.sleep_budget_rounds,
            "traffic_horizon_s": self.traffic_horizon_s,
        }


_TOP_KEYS = {
    "grid",
    "nodes",
    "initial_energy_j",
    "energy",
    "round_s",
    "slots_per_round",
    "p_move",
    "mobility_step_s",
    "flows",
    "cache",
    "link_bps",
    "scheme",
    "horizon_s",
    "seed",
    "cluster",
    "deadline_rounds",
    "retry_s",
    "observation_window_s",
    "sleep_epsilon",
    "sleep_budget_rounds",
    "traffic_horizon_s",
}

_FLOW_KEYS = {
    "src",
    "dst",
    "rate_pps",
    "packet_bits",
    "ds_fraction",
    "deadline_offset_s",
    "burst_on_s",
    "burst_off_s",
}


def _want_number(raw: dict, key: str, errors: list[str], default, minimum=None, maximum=None):
    if key not in raw or raw[key] is None:
        return default
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        errors.append(f"{key}: expected a number, got {value!r}")
        return default
    if minimum is not None and value < minimum:
        errors.append(f"{key}: must be >= {minimum}, got {value}")
        return default
    if maximum is not None and value > maximum:
        errors.append(f"{key}: must be <= {maximum}, got {value}")
        return default
    return value


def _parse_scheme(raw, errors: list[str]) -> Scheme:
    fallback = TrafficAware()
    if raw is None:
        return fallback
    if isinstance(raw, str):
        raw = {"kind": raw}
    if not isinstance(raw, dict):
        errors.append(f"scheme: expected an object or kind string, got {raw!r}")
        return fallback
    kind = raw.get("kind")
    cls = SCHEMES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        errors.append(f"scheme.kind: must be one of {tuple(SCHEMES)}, got {kind!r}")
        return fallback
    try:
        scheme = cls(**{attr: raw[key] for key, attr in cls.keys if key in raw})
    except (TypeError, ValueError) as exc:
        errors.append(f"scheme: {exc}")
        return fallback
    unknown = set(raw) - {"kind"} - {key for key, _ in cls.keys}
    if unknown:
        errors.append(f"scheme: unknown keys {sorted(unknown)}")
    return scheme


def _parse_flows(raw, node_count: int, errors: list[str]) -> list[FlowSpec]:
    if raw is None:
        return []
    if not isinstance(raw, list):
        errors.append(f"flows: expected a list, got {raw!r}")
        return []
    flows: list[FlowSpec] = []
    for i, item in enumerate(raw):
        label = f"flows[{i}]"
        if not isinstance(item, dict):
            errors.append(f"{label}: expected an object")
            continue
        unknown = set(item) - _FLOW_KEYS
        if unknown:
            errors.append(f"{label}: unknown keys {sorted(unknown)}")
            continue
        local: list[str] = []
        src = _want_number(item, "src", local, None, minimum=0)
        dst = _want_number(item, "dst", local, None, minimum=0)
        if src is None or dst is None:
            errors.append(f"{label}: src and dst are required")
            errors.extend(f"{label}.{e}" for e in local)
            continue
        if src >= node_count or dst >= node_count:
            errors.append(f"{label}: src/dst must reference existing nodes (< {node_count})")
            continue
        try:
            flows.append(
                FlowSpec(
                    src=int(src),
                    dst=int(dst),
                    rate_pps=item.get("rate_pps", 0.0),
                    packet_bits=item.get("packet_bits", 8_000),
                    ds_fraction=item.get("ds_fraction", 0.3),
                    deadline_offset=item.get("deadline_offset_s"),
                    burst_on_s=item.get("burst_on_s"),
                    burst_off_s=item.get("burst_off_s"),
                )
            )
        except (TypeError, ValueError) as exc:
            errors.append(f"{label}: {exc}")
        errors.extend(f"{label}.{e}" for e in local)
    return flows


def _check_semantics(cfg: ScenarioConfig) -> list[str]:
    errors: list[str] = []
    if 0.0 < cfg.horizon_s < cfg.round_s:
        # horizon 0 is the degenerate empty run; otherwise at least one round.
        errors.append(
            f"horizon_s: must be 0 or >= round_s ({cfg.round_s}), got {cfg.horizon_s}"
        )
    limit = MAX_NODES_PER_CLUSTER * (
        cfg.cluster_partition**2 if cfg.cluster_policy == "grid" else 1
    )
    if cfg.node_count > limit:
        errors.append(
            f"nodes: at most {MAX_NODES_PER_CLUSTER} per cluster partition "
            f"(limit {limit} here), got {cfg.node_count}"
        )
    for i, flow in enumerate(cfg.flows):
        if flow.src >= cfg.node_count or flow.dst >= cfg.node_count:
            errors.append(f"flows[{i}]: references nodes beyond node count")
    return errors


def from_dict(raw: dict) -> ScenarioConfig:
    """Build and validate a ScenarioConfig; raises ConfigError listing every
    problem found."""
    errors: list[str] = []
    if not isinstance(raw, dict):
        raise ConfigError(["config root must be a JSON object"])
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        errors.append(f"unknown keys {sorted(unknown)}")

    grid = raw.get("grid", {})
    if not isinstance(grid, dict) or set(grid) - {"width", "height"}:
        errors.append("grid: expected an object with width/height")
        grid = {}
    width = int(_want_number(grid, "width", errors, 6, minimum=1))
    height = int(_want_number(grid, "height", errors, 6, minimum=1))
    node_count = int(_want_number(raw, "nodes", errors, 30, minimum=1))
    initial = _want_number(raw, "initial_energy_j", errors, 100.0, minimum=0.0)

    energy_raw = raw.get("energy", {})
    energy = EnergyModelParams()
    if not isinstance(energy_raw, dict) or set(energy_raw) - {
        "p_tx",
        "p_rx",
        "p_idle",
        "p_sleep",
    }:
        errors.append("energy: expected an object with p_tx/p_rx/p_idle/p_sleep")
    else:
        try:
            energy = EnergyModelParams(
                p_tx=energy_raw.get("p_tx", 1.4),
                p_rx=energy_raw.get("p_rx", 1.0),
                p_idle=energy_raw.get("p_idle", 0.83),
                p_sleep=energy_raw.get("p_sleep", 0.13),
            )
        except (TypeError, ValueError) as exc:
            errors.append(f"energy: {exc}")

    round_s = _want_number(raw, "round_s", errors, 10.0, minimum=1e-9)
    slots = int(_want_number(raw, "slots_per_round", errors, 10, minimum=1))
    p_move = _want_number(raw, "p_move", errors, 0.01, minimum=0.0, maximum=1.0)
    mobility_step = _want_number(raw, "mobility_step_s", errors, 1.0, minimum=1e-9)
    link_bps = _want_number(raw, "link_bps", errors, 11_000_000.0, minimum=1e-9)
    horizon = _want_number(raw, "horizon_s", errors, 100.0, minimum=0.0)
    deadline_rounds = _want_number(raw, "deadline_rounds", errors, 2.0, minimum=0.0)
    retry_s = _want_number(raw, "retry_s", errors, 0.5, minimum=1e-9)
    obs_window = _want_number(raw, "observation_window_s", errors, None, minimum=1e-9)
    sleep_eps = _want_number(raw, "sleep_epsilon", errors, 1e-6, minimum=0.0, maximum=0.5)
    sleep_budget = _want_number(raw, "sleep_budget_rounds", errors, 0.4, minimum=1e-9, maximum=1.0)
    traffic_horizon = _want_number(raw, "traffic_horizon_s", errors, None, minimum=1e-9)

    seed = raw.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        errors.append(f"seed: expected an integer, got {seed!r}")
        seed = None

    cache_raw = raw.get("cache", {})
    cache_enabled, cache_bits = True, 10_000_000
    if not isinstance(cache_raw, dict) or set(cache_raw) - {"enabled", "capacity_bits"}:
        errors.append("cache: expected an object with enabled/capacity_bits")
    else:
        cache_enabled = cache_raw.get("enabled", True)
        if not isinstance(cache_enabled, bool):
            errors.append(f"cache.enabled: expected a bool, got {cache_enabled!r}")
            cache_enabled = True
        cache_bits = int(_want_number(cache_raw, "capacity_bits", errors, 10_000_000, minimum=0))

    cluster_raw = raw.get("cluster", {})
    policy, partition = "component", 1
    if not isinstance(cluster_raw, dict) or set(cluster_raw) - {"policy", "partition"}:
        errors.append("cluster: expected an object with policy/partition")
    else:
        policy = cluster_raw.get("policy", "component")
        if policy not in ("component", "grid"):
            errors.append(f"cluster.policy: must be 'component' or 'grid', got {policy!r}")
            policy = "component"
        partition = int(_want_number(cluster_raw, "partition", errors, 1, minimum=1))

    scheme = _parse_scheme(raw.get("scheme"), errors)
    flows = _parse_flows(raw.get("flows"), node_count, errors)

    cfg = ScenarioConfig(
        grid_width=width,
        grid_height=height,
        node_count=node_count,
        initial_energy_j=initial,
        energy=energy,
        round_s=round_s,
        slots_per_round=slots,
        p_move=p_move,
        mobility_step_s=mobility_step,
        flows=flows,
        cache_enabled=cache_enabled,
        cache_capacity_bits=cache_bits,
        link_bps=link_bps,
        scheme=scheme,
        horizon_s=horizon,
        seed=seed,
        cluster_policy=policy,
        cluster_partition=partition,
        deadline_rounds=deadline_rounds,
        retry_s=retry_s,
        observation_window_s=obs_window,
        sleep_epsilon=sleep_eps,
        sleep_budget_rounds=sleep_budget,
        traffic_horizon_s=traffic_horizon,
    )
    errors.extend(_check_semantics(cfg))
    if errors:
        raise ConfigError(errors)
    return cfg


def parse_config(path: str | Path) -> ScenarioConfig:
    """Load, parse and fully validate a scenario file."""
    text = Path(path).read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"invalid JSON: {exc}"]) from exc
    return from_dict(raw)
