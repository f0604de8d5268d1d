"""Scenario configuration: JSON ingestion, strict validation, defaults.

Validation is strict (unknown keys are errors) and exhaustive: all problems
are reported at once, not just the first.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

from ecsim.core import EnergyModelParams
from ecsim.schemes import SCHEMES, Scheme, TrafficAware
from ecsim.scheduler import SLEEP_EPSILON
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
    sleep_epsilon: float = SLEEP_EPSILON
    sleep_budget_rounds: float = 0.4
    traffic_horizon_s: float | None = None

    def validate_runtime(self) -> None:
        """Check a config built in Python as ``from_dict`` checks a file."""
        parsed = from_dict(self.to_dict())
        # ``from_dict`` reads a whole float as an int; here nothing converts
        # it, and the engine cannot count with a float.
        checked = [(key, self, parsed, attr) for key, attr, _ in _SCHEMA]
        checked += [
            (f"flows[{i}].{key}", flow, echo, attr)
            for i, (flow, echo) in enumerate(zip(self.flows, parsed.flows))
            for key, (attr, _, _) in _FIELDS[FlowSpec].items()
        ]
        errors = [
            f"{key}: expected an int, got {getattr(built, attr)!r}"
            for key, built, read, attr in checked
            if type(getattr(built, attr)) is not type(getattr(read, attr))
        ]
        if errors:
            raise ConfigError(errors)

    def to_dict(self) -> dict:
        out: dict = {}
        for key, attr, _ in _SCHEMA:
            group, _, name = key.rpartition(".")
            (out.setdefault(group, {}) if group else out)[name] = getattr(self, attr)
        out["energy"] = asdict(self.energy)
        out["flows"] = [
            {key: getattr(flow, attr) for key, (attr, _, _) in _FIELDS[FlowSpec].items()}
            for flow in self.flows
        ]
        out["scheme"] = {"kind": self.scheme.name}
        out["scheme"].update((key, getattr(self.scheme, attr)) for key, attr in self.scheme.keys)
        return out


def _want_number(key: str, value, errors: list[str], default, minimum=None, maximum=None):
    if value is None:
        # null leaves a key unset only where unset is its default.
        if default is not None:
            errors.append(f"{key}: expected a number, got None")
        return default
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        errors.append(f"{key}: expected a number, got {value!r}")
        return default
    if isinstance(value, float) and not math.isfinite(value):
        # NaN passes every bound check below, and an infinite horizon never
        # ends the traffic generator.
        errors.append(f"{key}: expected a finite number, got {value!r}")
        return default
    if minimum is not None and value < minimum:
        errors.append(f"{key}: must be >= {minimum}, got {value}")
        return default
    if maximum is not None and value > maximum:
        errors.append(f"{key}: must be <= {maximum}, got {value}")
        return default
    return value


# Parsers for one key's value: parse(dotted key, value, default, errors)
# returns the value, or the default after appending an error.


def _number(minimum=None, maximum=None):
    def parse(key, value, default, errors):
        return _want_number(key, value, errors, default, minimum, maximum)

    return parse


def _whole(minimum):
    """A count: a number with no fractional part (``5.0`` is read as 5)."""

    def parse(key, value, default, errors):
        value = _want_number(key, value, errors, default, minimum)
        if isinstance(value, float) and not value.is_integer():
            errors.append(f"{key}: expected a whole number, got {value!r}")
            return default
        return int(value) if isinstance(value, float) else value

    return parse


def _flag(key, value, default, errors):
    if isinstance(value, bool):
        return value
    errors.append(f"{key}: expected a bool, got {value!r}")
    return default


def _integer(key, value, default, errors):
    if value is None or (isinstance(value, int) and not isinstance(value, bool)):
        return value
    errors.append(f"{key}: expected an integer, got {value!r}")
    return default


def _one_of(*choices):
    def parse(key, value, default, errors):
        if value in choices:
            return value
        errors.append(f"{key}: must be {' or '.join(map(repr, choices))}, got {value!r}")
        return default

    return parse


# One row per single-valued scenario key: (dotted key, ScenarioConfig
# attribute, parser). A key's default is its attribute's dataclass default.
_SCHEMA = (
    ("grid.width", "grid_width", _whole(minimum=1)),
    ("grid.height", "grid_height", _whole(minimum=1)),
    ("nodes", "node_count", _whole(minimum=1)),
    ("initial_energy_j", "initial_energy_j", _number(minimum=1e-9)),
    ("round_s", "round_s", _number(minimum=1e-9)),
    ("slots_per_round", "slots_per_round", _whole(minimum=1)),
    ("p_move", "p_move", _number(minimum=0.0, maximum=1.0)),
    ("mobility_step_s", "mobility_step_s", _number(minimum=1e-9)),
    ("cache.enabled", "cache_enabled", _flag),
    ("cache.capacity_bits", "cache_capacity_bits", _whole(minimum=0)),
    ("link_bps", "link_bps", _number(minimum=1e-9)),
    ("horizon_s", "horizon_s", _number(minimum=0.0)),
    ("seed", "seed", _integer),
    ("cluster.policy", "cluster_policy", _one_of("component", "grid")),
    ("cluster.partition", "cluster_partition", _whole(minimum=1)),
    ("deadline_rounds", "deadline_rounds", _number(minimum=1e-9)),
    ("retry_s", "retry_s", _number(minimum=1e-9)),
    ("observation_window_s", "observation_window_s", _number(minimum=1e-9)),
    ("sleep_epsilon", "sleep_epsilon", _number(minimum=0.0, maximum=0.5)),
    ("sleep_budget_rounds", "sleep_budget_rounds", _number(minimum=1e-9, maximum=1.0)),
    ("traffic_horizon_s", "traffic_horizon_s", _number(minimum=1e-9)),
)

_DEFAULTS = {f.name: f.default for f in fields(ScenarioConfig)}


def _fields(cls, keys=()) -> dict:
    """Key -> (attribute, parser, default) for each field of the dataclass
    ``cls``, keyed as ``keys`` (pairs of key and attribute) names it, else by
    its own name. A field annotated ``int`` is a count."""
    names = {attr: key for key, attr in keys}
    count, number = _whole(minimum=0), _number()
    return {
        names.get(f.name, f.name): (f.name, count if f.type in ("int", int) else number, f.default)
        for f in fields(cls)
    }


# The fields of each object-valued key's dataclass, read once: every
# Simulation runs ``from_dict`` through ``validate_runtime``.
_FIELDS = {cls: _fields(cls, cls.keys) for cls in SCHEMES.values()}
_FIELDS[EnergyModelParams] = _fields(EnergyModelParams)
_FIELDS[FlowSpec] = _fields(FlowSpec, [("deadline_offset_s", "deadline_offset")])
# FlowSpec requires a rate; a flow entry without one has rate 0.
_FIELDS[FlowSpec]["rate_pps"] = ("rate_pps", _number(), 0.0)

# Object-valued keys -> their keys, in declaration order.
_NESTED = [key.split(".") for key, _, _ in _SCHEMA if "." in key]
_GROUPS = {group: [name for g, name in _NESTED if g == group] for group, _ in _NESTED}
_GROUPS["energy"] = list(_FIELDS[EnergyModelParams])

_TOP_KEYS = {key.split(".")[0] for key, _, _ in _SCHEMA} | {"energy", "flows", "scheme"}


def _parse_group(raw: dict, name: str, errors: list[str]) -> dict:
    """The object under ``name``; any other value, or an unknown key in it,
    is an error and gives {} (every key at its default)."""
    group = raw.get(name, {})
    keys = _GROUPS[name]
    if not isinstance(group, dict) or set(group) - set(keys):
        errors.append(f"{name}: expected an object with {'/'.join(keys)}")
        return {}
    return group


def _build(cls, label: str, given, errors: list[str]):
    """A ``cls`` from the object ``given``, each key checked by its parser
    before the dataclass checks the whole; None after appending the errors."""
    if not isinstance(given, dict):
        errors.append(f"{label}: expected an object")
        return None
    table = _FIELDS[cls]
    unknown = given.keys() - table.keys()
    if unknown:
        errors.append(f"{label}: unknown keys {sorted(unknown)}")
        return None
    found = len(errors)
    values = {}
    for key, (attr, parse, default) in table.items():
        if key in given:
            values[attr] = parse(f"{label}.{key}", given[key], default, errors)
        elif default is MISSING:
            errors.append(f"{label}.{key}: required")
        else:
            values[attr] = default
    if len(errors) > found:
        return None
    try:
        return cls(**values)
    except ValueError as exc:
        errors.append(f"{label}: {exc}")
        return None


def _parse_scheme(raw, errors: list[str]) -> Scheme:
    if raw is None:
        return TrafficAware()
    if isinstance(raw, str):
        raw = {"kind": raw}
    if not isinstance(raw, dict):
        errors.append(f"scheme: expected an object or kind string, got {raw!r}")
        return TrafficAware()
    given = dict(raw)
    kind = given.pop("kind", None)
    cls = SCHEMES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        errors.append(f"scheme.kind: must be one of {tuple(SCHEMES)}, got {kind!r}")
        return TrafficAware()
    return _build(cls, "scheme", given, errors) or TrafficAware()


def _parse_flows(raw, errors: list[str]) -> list[FlowSpec | None]:
    """The flow entries in order, a rejected one as None so that
    _check_semantics names each entry by its own index."""
    if raw is None:
        return []
    if not isinstance(raw, list):
        errors.append(f"flows: expected a list, got {raw!r}")
        return []
    return [_build(FlowSpec, f"flows[{i}]", item, errors) for i, item in enumerate(raw)]


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
        if flow is not None and (flow.src >= cfg.node_count or flow.dst >= cfg.node_count):
            errors.append(
                f"flows[{i}]: src/dst must reference existing nodes (< {cfg.node_count})"
            )
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
    groups = {"": raw} | {name: _parse_group(raw, name, errors) for name in _GROUPS}
    values = {}
    for key, attr, parse in _SCHEMA:
        group, _, name = key.rpartition(".")
        source, default = groups[group], _DEFAULTS[attr]
        values[attr] = parse(key, source[name], default, errors) if name in source else default
    values["energy"] = _build(EnergyModelParams, "energy", groups["energy"], errors)
    values["scheme"] = _parse_scheme(raw.get("scheme"), errors)
    values["flows"] = _parse_flows(raw.get("flows"), errors)
    cfg = ScenarioConfig(**values)
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
