import copy
import json
import math
from dataclasses import fields, replace

import pytest

from ecsim.config import _SCHEMA, _TOP_KEYS, ConfigError, ScenarioConfig, from_dict, parse_config
from ecsim.core import EnergyModelParams
from ecsim.engine import Simulation
from ecsim.schemes import AlwaysOn, CoordinatedDutyCycle, PeriodicSleepWake, TrafficAware
from ecsim.traffic import FlowSpec


def minimal():
    return {
        "grid": {"width": 5, "height": 5},
        "nodes": 10,
        "horizon_s": 100.0,
    }


def test_minimal_config_gets_defaults():
    cfg = from_dict(minimal())
    assert cfg.round_s == 10.0
    assert cfg.slots_per_round == 10
    assert cfg.link_bps == 11_000_000.0
    assert isinstance(cfg.scheme, TrafficAware)
    assert cfg.cache_enabled is True
    assert cfg.energy.p_tx == 1.4


@pytest.mark.parametrize(
    "override, message",
    [
        ({"nodez": 5}, "unknown keys ['nodez']"),
        # The program holds each of these as a constant.
        ({"mobility_step_s": 2.0}, "unknown keys ['mobility_step_s']"),
        ({"retry_s": 0.25}, "unknown keys ['retry_s']"),
        ({"observation_window_s": 20.0}, "unknown keys ['observation_window_s']"),
        ({"sleep_epsilon": 0.01}, "unknown keys ['sleep_epsilon']"),
        (
            {"flows": [{"src": 0, "dst": 1, "deadline_offset_s": 12.0}]},
            "flows[0]: unknown keys ['deadline_offset_s']",
        ),
    ],
)
def test_unknown_key_rejected(override, message):
    with pytest.raises(ConfigError) as err:
        from_dict({**minimal(), **override})
    assert message in err.value.errors


def test_out_of_range_duty_named_in_error():
    raw = minimal()
    raw["scheme"] = {"kind": "periodic", "duty": 1.5}
    with pytest.raises(ConfigError) as err:
        from_dict(raw)
    assert any("duty" in e for e in err.value.errors)


def test_all_errors_reported_not_just_first():
    raw = minimal()
    raw["nodes"] = -2
    raw["p_move"] = 7.0
    raw["bogus"] = 1
    with pytest.raises(ConfigError) as err:
        from_dict(raw)
    assert len(err.value.errors) >= 3


def test_flow_referencing_missing_node_rejected():
    raw = minimal()
    raw["flows"] = [{"src": 0, "dst": 99, "rate_pps": 1.0}]
    with pytest.raises(ConfigError) as err:
        from_dict(raw)
    assert any("flows[0]" in e for e in err.value.errors)


def test_cluster_capacity_limit():
    raw = minimal()
    raw["nodes"] = 51
    with pytest.raises(ConfigError) as err:
        from_dict(raw)
    assert any("50" in e for e in err.value.errors)
    raw["cluster"] = {"policy": "grid", "partition": 2}
    cfg = from_dict(raw)  # 51 <= 50 * 4 under a 2x2 partition
    assert cfg.cluster_partition == 2


def test_scheme_parsing_variants():
    raw = minimal()
    raw["scheme"] = {"kind": "coordinated", "listen_s": 0.4, "sleep_s": 1.2}
    cfg = from_dict(raw)
    assert isinstance(cfg.scheme, CoordinatedDutyCycle)
    raw["scheme"] = "periodic"
    cfg = from_dict(raw)
    assert isinstance(cfg.scheme, PeriodicSleepWake)
    assert cfg.scheme.duty == 0.25


@pytest.mark.parametrize("kind", ["sometimes-on", ["periodic"], None])
def test_unknown_scheme_kind_names_every_kind(kind):
    raw = minimal()
    raw["scheme"] = {"kind": kind}
    with pytest.raises(ConfigError) as err:
        from_dict(raw)
    (message,) = [e for e in err.value.errors if e.startswith("scheme")]
    for kind in ("traffic-aware", "always-on", "periodic", "coordinated"):
        assert kind in message


@pytest.mark.parametrize(
    "scheme",
    [
        {"kind": "periodic", "listen_s": 1},
        {"kind": "coordinated", "duty": 0.5},
        {"kind": "always-on", "duty": 0.5},
        {"kind": "traffic-aware", "period_s": 2.0},
    ],
)
def test_other_schemes_keys_rejected(scheme):
    raw = minimal()
    raw["scheme"] = scheme
    with pytest.raises(ConfigError) as err:
        from_dict(raw)
    assert any("unknown keys" in e for e in err.value.errors)


@pytest.mark.parametrize(
    "scheme",
    [
        {"kind": "traffic-aware"},
        {"kind": "always-on"},
        {"kind": "periodic", "duty": 0.4, "period_s": 3.0},
        {"kind": "coordinated", "listen_s": 0.7, "sleep_s": 2.5},
    ],
)
def test_every_scheme_roundtrips_through_to_dict(scheme):
    raw = minimal()
    raw["scheme"] = scheme
    cfg = from_dict(raw)
    assert cfg.to_dict()["scheme"] == scheme
    again = from_dict(cfg.to_dict())
    assert again.scheme == cfg.scheme


def test_roundtrip_through_to_dict():
    raw = minimal()
    raw["flows"] = [{"src": 1, "dst": 2, "rate_pps": 0.5, "ds_fraction": 0.5}]
    raw["scheme"] = {"kind": "periodic", "duty": 0.5, "period_s": 4.0}
    cfg = from_dict(raw)
    again = from_dict(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()


def test_parse_config_reads_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(minimal()))
    cfg = parse_config(path)
    assert cfg.node_count == 10


def test_parse_config_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        parse_config(path)


@pytest.mark.parametrize("make", [
    lambda path: path.mkdir(),
    lambda path: path.write_bytes(b"\xff{}"),
], ids=["directory", "not-utf-8"])
def test_parse_config_unreadable_file(tmp_path, make):
    # The file is part of the configuration: a file that cannot be read as
    # UTF-8 text is a config error, as a missing one is.
    path = tmp_path / "scenario.json"
    make(path)
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    [message] = err.value.errors
    assert message.startswith(f"cannot read {path}: ")


def test_energy_ordering_violation_reported():
    raw = minimal()
    raw["energy"] = {"p_tx": 0.1, "p_rx": 1.0, "p_idle": 0.8, "p_sleep": 0.1}
    with pytest.raises(ConfigError) as err:
        from_dict(raw)
    assert any("energy" in e for e in err.value.errors)


# Every scenario key set away from its default. The parametrized scheme
# covers each scheme's own keys.
EVERY_KEY = {
    "grid": {"width": 7, "height": 5},
    "nodes": 12,
    "initial_energy_j": 55.0,
    "energy": {"p_tx": 2.0, "p_rx": 1.5, "p_idle": 0.9, "p_sleep": 0.05},
    "round_s": 8.0,
    "slots_per_round": 8,
    "p_move": 0.05,
    "flows": [
        {
            "src": 1,
            "dst": 4,
            "rate_pps": 0.7,
            "packet_bits": 4000,
            "ds_fraction": 0.6,
            "burst_on_s": 3.0,
            "burst_off_s": 5.0,
        }
    ],
    "cache": {"enabled": False, "capacity_bits": 5000},
    "link_bps": 2_000_000.0,
    "horizon_s": 80.0,
    "seed": 9,
    "cluster": {"policy": "grid", "partition": 2},
    "deadline_rounds": 3.0,
    "sleep_budget_rounds": 0.6,
    "traffic_horizon_s": 70.0,
}

# Where each value of EVERY_KEY lands.
EVERY_ATTR = {
    "grid_width": 7,
    "grid_height": 5,
    "node_count": 12,
    "initial_energy_j": 55.0,
    "energy": EnergyModelParams(p_tx=2.0, p_rx=1.5, p_idle=0.9, p_sleep=0.05),
    "round_s": 8.0,
    "slots_per_round": 8,
    "p_move": 0.05,
    "flows": [FlowSpec(1, 4, 0.7, 4000, 0.6, 3.0, 5.0)],
    "cache_enabled": False,
    "cache_capacity_bits": 5000,
    "link_bps": 2_000_000.0,
    "horizon_s": 80.0,
    "seed": 9,
    "cluster_policy": "grid",
    "cluster_partition": 2,
    "deadline_rounds": 3.0,
    "sleep_budget_rounds": 0.6,
    "traffic_horizon_s": 70.0,
}


@pytest.mark.parametrize(
    "scheme, parsed",
    [
        ({"kind": "traffic-aware"}, TrafficAware()),
        ({"kind": "always-on"}, AlwaysOn()),
        ({"kind": "periodic", "duty": 0.4, "period_s": 3.0}, PeriodicSleepWake(0.4, 3.0)),
        ({"kind": "coordinated", "listen_s": 0.7, "sleep_s": 2.5}, CoordinatedDutyCycle(0.7, 2.5)),
    ],
)
def test_every_key_lands_on_its_attribute_and_roundtrips(scheme, parsed):
    raw = {**EVERY_KEY, "scheme": scheme}
    cfg = from_dict(copy.deepcopy(raw))
    assert cfg.to_dict() == raw
    assert cfg.scheme == parsed
    attrs = {f.name for f in fields(ScenarioConfig)} - {"scheme"}
    assert set(EVERY_ATTR) == attrs
    assert {attr: getattr(cfg, attr) for attr in attrs} == EVERY_ATTR
    default = ScenarioConfig()
    for attr in attrs:
        assert getattr(cfg, attr) != getattr(default, attr), attr
    for key in ("grid_width", "node_count", "slots_per_round", "cache_capacity_bits"):
        assert type(getattr(cfg, key)) is int, key


# (override of minimal(), an error message the override must give)
MALFORMED = [
    ({"grid": 5}, "grid: expected an object with width/height"),
    ({"grid": {"width": 5, "depth": 2}}, "grid: expected an object with width/height"),
    ({"energy": "low"}, "energy: expected an object with p_tx/p_rx/p_idle/p_sleep"),
    ({"energy": {"p_tx": 2.0, "p_warp": 1}}, "energy: expected an object with p_tx/p_rx/p_idle/p_sleep"),
    ({"cache": [1]}, "cache: expected an object with enabled/capacity_bits"),
    ({"cache": {"size": 4}}, "cache: expected an object with enabled/capacity_bits"),
    ({"cluster": "grid"}, "cluster: expected an object with policy/partition"),
    ({"cluster": {"policy": "grid", "k": 2}}, "cluster: expected an object with policy/partition"),
    ({"grid": {"width": 0}}, "grid.width: must be >= 1, got 0"),
    ({"grid": {"height": 0}}, "grid.height: must be >= 1, got 0"),
    ({"nodes": 0}, "nodes: must be >= 1, got 0"),
    ({"initial_energy_j": -1.0}, "initial_energy_j: must be >= 1e-09, got -1.0"),
    ({"initial_energy_j": 0.0}, "initial_energy_j: must be >= 1e-09, got 0.0"),
    ({"round_s": 0.0}, "round_s: must be >= 1e-09, got 0.0"),
    ({"slots_per_round": 0}, "slots_per_round: must be >= 1, got 0"),
    ({"p_move": -0.1}, "p_move: must be >= 0.0, got -0.1"),
    ({"p_move": 1.5}, "p_move: must be <= 1.0, got 1.5"),
    ({"link_bps": 0}, "link_bps: must be >= 1e-09, got 0"),
    ({"horizon_s": -5.0}, "horizon_s: must be >= 0.0, got -5.0"),
    ({"deadline_rounds": -1.0}, "deadline_rounds: must be >= 1e-09, got -1.0"),
    ({"sleep_budget_rounds": 0.0}, "sleep_budget_rounds: must be >= 1e-09, got 0.0"),
    ({"sleep_budget_rounds": 1.5}, "sleep_budget_rounds: must be <= 1.0, got 1.5"),
    ({"traffic_horizon_s": 0.0}, "traffic_horizon_s: must be >= 1e-09, got 0.0"),
    ({"cache": {"capacity_bits": -1}}, "cache.capacity_bits: must be >= 0, got -1"),
    ({"cluster": {"partition": 0}}, "cluster.partition: must be >= 1, got 0"),
    ({"cluster": {"policy": "ring"}}, "cluster.policy: must be 'component' or 'grid', got 'ring'"),
    ({"cache": {"enabled": "yes"}}, "cache.enabled: expected a bool, got 'yes'"),
    ({"seed": True}, "seed: expected an integer, got True"),
    ({"nodes": True}, "nodes: expected a number, got True"),
    ({"nodes": 2.5}, "nodes: expected a whole number, got 2.5"),
    ({"grid": {"width": 5.5}}, "grid.width: expected a whole number, got 5.5"),
    ({"grid": {"height": 4.2}}, "grid.height: expected a whole number, got 4.2"),
    ({"slots_per_round": 2.5}, "slots_per_round: expected a whole number, got 2.5"),
    ({"cluster": {"partition": 1.5}}, "cluster.partition: expected a whole number, got 1.5"),
    (
        {"cache": {"capacity_bits": 8000.5}},
        "cache.capacity_bits: expected a whole number, got 8000.5",
    ),
    ({"horizon_s": None}, "horizon_s: expected a number, got None"),
    ({"round_s": None}, "round_s: expected a number, got None"),
    ({"initial_energy_j": None}, "initial_energy_j: expected a number, got None"),
    ({"flows": [{"src": -1, "dst": 2}]}, "flows[0].src: must be >= 0, got -1"),
    (
        {"flows": [{"src": 1, "dst": 1}, {"src": 0, "dst": 99}]},
        "flows[1]: src/dst must reference existing nodes (< 10)",
    ),
    # A deadline at or before a packet's creation is rejected with the file,
    # not in the run.
    ({"deadline_rounds": 0}, "deadline_rounds: must be >= 1e-09, got 0"),
    ({"nodes": None}, "nodes: expected a number, got None"),
    # Nested keys follow the rules of the top-level ones.
    ({"flows": [{"src": 0.5, "dst": 1}]}, "flows[0].src: expected a whole number, got 0.5"),
    (
        {"flows": [{"src": 0, "dst": 1, "packet_bits": 2.5}]},
        "flows[0].packet_bits: expected a whole number, got 2.5",
    ),
    (
        {"flows": [{"src": 0, "dst": 1, "rate_pps": True}]},
        "flows[0].rate_pps: expected a number, got True",
    ),
    (
        {"flows": [{"src": 0, "dst": 1, "packet_bits": True}]},
        "flows[0].packet_bits: expected a number, got True",
    ),
    (
        {"flows": [{"src": 0, "dst": 1, "ds_fraction": None}]},
        "flows[0].ds_fraction: expected a number, got None",
    ),
    ({"flows": [{"dst": 1}]}, "flows[0].src: required"),
    ({"flows": [7]}, "flows[0]: expected an object"),
    ({"scheme": {"kind": "periodic", "duty": True}}, "scheme.duty: expected a number, got True"),
    (
        {"scheme": {"kind": "periodic", "period_s": None}},
        "scheme.period_s: expected a number, got None",
    ),
    ({"energy": {"p_tx": True}}, "energy.p_tx: expected a number, got True"),
    ({"energy": {"p_tx": None}}, "energy.p_tx: expected a number, got None"),
    # JSON's NaN and Infinity pass every bound; an infinite horizon would
    # never end the traffic generator.
    ({"p_move": math.nan}, "p_move: expected a finite number, got nan"),
    ({"link_bps": math.nan}, "link_bps: expected a finite number, got nan"),
    ({"horizon_s": math.inf}, "horizon_s: expected a finite number, got inf"),
    (
        {"flows": [{"src": 0, "dst": 1, "rate_pps": math.inf}]},
        "flows[0].rate_pps: expected a finite number, got inf",
    ),
    ({"energy": {"p_sleep": -math.inf}}, "energy.p_sleep: expected a finite number, got -inf"),
]


@pytest.mark.parametrize(
    "override, message", MALFORMED, ids=[json.dumps(o) for o, _ in MALFORMED]
)
def test_malformed_input_names_its_key(override, message):
    with pytest.raises(ConfigError) as err:
        from_dict({**minimal(), **override})
    assert message in err.value.errors


def _attribute_value(override):
    """(attribute, value) of a MALFORMED override that sets one scenario
    attribute, else None."""
    ((key, value),) = override.items()
    if isinstance(value, dict) and len(value) == 1:
        ((name, value),) = value.items()
        key = f"{key}.{name}"
    attr = {k: a for k, a, _ in _SCHEMA}.get(key)
    return None if attr is None else (attr, value)


# A non-finite value is checked through ``from_dict`` alone: should a check
# let it through, the run built here would never end.
BUILT = [
    (pair, m) for o, m in MALFORMED
    if (pair := _attribute_value(o)) is not None and "finite" not in m
]


@pytest.mark.parametrize("attr_value, message", BUILT, ids=[m for _, m in BUILT])
def test_a_config_built_in_python_is_checked_as_from_dict_checks_it(attr_value, message):
    attr, value = attr_value
    config = replace(from_dict(minimal()), **{attr: value})
    with pytest.raises(ConfigError) as err:
        Simulation(config, 1)
    assert message in err.value.errors
    assert len(BUILT) >= 20


COUNTS = [
    (key, attr) for key, attr, _ in _SCHEMA if type(getattr(ScenarioConfig(), attr)) is int
]


@pytest.mark.parametrize("key, attr", COUNTS)
def test_a_whole_float_count_is_read_as_an_int(key, attr):
    group, _, name = key.rpartition(".")
    raw = minimal()
    (raw.setdefault(group, {}) if group else raw)[name] = 2.0
    value = getattr(from_dict(raw), attr)
    assert value == 2 and type(value) is int


@pytest.mark.parametrize("key, attr", COUNTS)
@pytest.mark.parametrize(
    "value, expected", [(2.0, "expected an int"), (None, "expected a number")]
)
def test_a_config_built_in_python_holds_an_int_for_each_count(key, attr, value, expected):
    config = replace(from_dict(minimal()), **{attr: value})
    with pytest.raises(ConfigError) as err:
        Simulation(config, 1)
    assert err.value.errors == [f"{key}: {expected}, got {value!r}"]


@pytest.mark.parametrize("change, message", [
    ({"flows": [FlowSpec(0, 1, True)]}, "flows[0].rate_pps: expected a number, got True"),
    ({"scheme": PeriodicSleepWake(duty=True)}, "scheme.duty: expected a number, got True"),
])
def test_a_config_built_in_python_is_checked_key_by_key_in_nested_values(change, message):
    # Each dataclass accepts True, as a number; the file's rules do not.
    config = replace(from_dict(minimal()), **change)
    with pytest.raises(ConfigError) as err:
        Simulation(config, 1)
    assert err.value.errors == [message]


@pytest.mark.parametrize("flow, attr", [
    ({"src": 1.0, "dst": 2, "rate_pps": 1.0}, "src"),
    ({"src": 1, "dst": 2.0, "rate_pps": 1.0}, "dst"),
    ({"src": 1, "dst": 2, "rate_pps": 1.0, "packet_bits": 800.0}, "packet_bits"),
])
def test_a_whole_float_count_in_a_flow_is_read_as_an_int(flow, attr):
    (parsed,) = from_dict({**minimal(), "flows": [flow]}).flows
    assert type(getattr(parsed, attr)) is int


@pytest.mark.parametrize("overrides, message", [
    ({"node_count": 5.0, "grid_width": 4, "grid_height": 4}, "nodes: expected an int, got 5.0"),
    ({"slots_per_round": 4.0}, "slots_per_round: expected an int, got 4.0"),
    ({"grid_width": 4.0}, "grid.width: expected an int, got 4.0"),
    ({"flows": [FlowSpec(1.0, 2, 1.0)]}, "flows[0].src: expected an int, got 1.0"),
    ({"flows": [FlowSpec(1, 2.0, 1.0)]}, "flows[0].dst: expected an int, got 2.0"),
    (
        {"flows": [FlowSpec(1, 2, 1.0, packet_bits=800.0)]},
        "flows[0].packet_bits: expected an int, got 800.0",
    ),
])
def test_a_whole_float_count_built_in_python_is_rejected(overrides, message):
    # Unchecked, the first two raise TypeError inside the run, and the others
    # write a float into the report's config where the same scenario file
    # gives an int.
    with pytest.raises(ConfigError) as err:
        ScenarioConfig(**overrides).validate_runtime()
    assert err.value.errors == [message]


NUMBERS = [
    (key, attr) for key, attr, _ in _SCHEMA if type(getattr(ScenarioConfig(), attr)) is float
]


@pytest.mark.parametrize("key, attr", NUMBERS)
def test_none_for_a_number_built_in_python_is_rejected(key, attr):
    # Unchecked, horizon_s and round_s raise TypeError inside the checks, and
    # initial_energy_j passes them and fails the run.
    with pytest.raises(ConfigError) as err:
        ScenarioConfig(**{attr: None}).validate_runtime()
    assert err.value.errors == [f"{key}: expected a number, got None"]
    assert {"horizon_s", "round_s", "initial_energy_j"} <= {k for k, _ in NUMBERS}


@pytest.mark.parametrize("key, attr", NUMBERS)
def test_nan_for_a_number_built_in_python_is_rejected(key, attr):
    with pytest.raises(ConfigError) as err:
        ScenarioConfig(**{attr: math.nan}).validate_runtime()
    assert err.value.errors == [f"{key}: expected a finite number, got nan"]


@pytest.mark.parametrize("key, attr", COUNTS + NUMBERS)
def test_null_for_a_number_key_is_rejected(key, attr):
    group, _, name = key.rpartition(".")
    raw = minimal()
    (raw.setdefault(group, {}) if group else raw)[name] = None
    with pytest.raises(ConfigError) as err:
        from_dict(raw)
    assert err.value.errors == [f"{key}: expected a number, got None"]


UNSET = [key for key, attr, _ in _SCHEMA if getattr(ScenarioConfig(), attr) is None]


@pytest.mark.parametrize("key", UNSET)
def test_null_leaves_a_key_without_a_default_unset(key):
    # ``to_dict`` writes such a key as null, and ``ecsim compare`` parses
    # that dict again.
    assert from_dict({**minimal(), key: None}).to_dict()[key] is None
    assert {"seed", "traffic_horizon_s"} == set(UNSET)


def test_malformed_inputs_all_reported_in_one_error():
    raw, expected = {}, set()
    for override, message in MALFORMED:
        ((key, value),) = override.items()
        if key not in raw:
            raw[key] = value
            expected.add(message)
    with pytest.raises(ConfigError) as err:
        from_dict(raw)
    assert set(raw) == _TOP_KEYS
    assert expected <= set(err.value.errors)
