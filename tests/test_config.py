import json

import pytest

from ecsim.config import ConfigError, from_dict, parse_config
from ecsim.engine import CoordinatedDutyCycle, PeriodicSleepWake, TrafficAware


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


def test_unknown_top_level_key_rejected():
    raw = minimal()
    raw["nodez"] = 5
    with pytest.raises(ConfigError) as err:
        from_dict(raw)
    assert any("unknown keys" in e for e in err.value.errors)


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


def test_energy_ordering_violation_reported():
    raw = minimal()
    raw["energy"] = {"p_tx": 0.1, "p_rx": 1.0, "p_idle": 0.8, "p_sleep": 0.1}
    with pytest.raises(ConfigError) as err:
        from_dict(raw)
    assert any("energy" in e for e in err.value.errors)
