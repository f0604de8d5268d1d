"""Tests of the benchmark itself: its checks reject corrupted output, its
workloads are valid scenarios, and its tracer fails loudly and repeats."""

from __future__ import annotations

import copy
import dataclasses
import json
from pathlib import Path

import pytest

import checks
import layers
import run
from ecsim.config import from_dict
from ecsim.engine import Simulation
from ecsim.report import trace_csv
from ecsim.topology import ConnectivityGraph, connected_components
from workloads import ACCEPTANCE, WORKLOADS

SHORT = dict(ACCEPTANCE, horizon_s=200.0, traffic_horizon_s=150.0)


def simulate(raw: dict, seed: int = 3, trace: bool = False):
    sim = Simulation(from_dict(raw), seed, collect_trace=trace)
    report = json.loads(sim.run().to_json())
    rows = list(checks.read_trace(trace_csv(sim.trace).splitlines())) if trace else []
    return sim, report, rows


@pytest.fixture(scope="module")
def traced():
    raw = dict(SHORT, scheme={"kind": "traffic-aware"})
    _, report, rows = simulate(raw, trace=True)
    return raw, report, rows


def test_checks_pass_on_real_output(traced):
    raw, report, rows = traced
    assert report["network"]["delivered_packets"] > 0
    assert any(kind == "sleep-grant" for _, kind, _ in rows)
    assert checks.check_report(report, raw) == []
    assert checks.check_trace(rows, report, raw) == []


def test_consumed_energy_off_by_a_millijoule_is_caught(traced):
    raw, report, _ = traced
    bad = copy.deepcopy(report)
    bad["per_node"]["4"]["consumed_j"] += 1e-3
    problems = checks.check_energy(bad, raw)
    assert any("node 4" in p for p in problems)


def test_dropped_delivered_packet_is_caught(traced):
    raw, report, rows = traced
    bad = copy.deepcopy(report)
    bad["network"]["delivered_packets"] -= 1
    assert checks.check_packets(bad, raw)
    assert any("packet-delivered rows" in p for p in checks.check_trace(rows, bad, raw))


def test_sleep_grant_realized_above_assigned_is_caught(traced):
    raw, report, rows = traced
    bad = list(rows)
    index = next(i for i, (_, kind, _) in enumerate(bad) if kind == "sleep-grant")
    node = bad[index][0]
    bad[index] = (node, "sleep-grant", "assigned=1.0;realized=1.5")
    assert any("sleep grant" in p for p in checks.check_trace(bad, report, raw))


def test_disconnected_initial_graph_is_caught():
    graph = ConnectivityGraph()
    graph.add_edge(0, 1)
    graph.add_node(2)
    assert checks.check_connected(connected_components(graph))
    graph.add_edge(1, 2)
    assert checks.check_connected(connected_components(graph)) == []


@pytest.mark.parametrize("kind", ["periodic", "coordinated", "always-on"])
def test_scheme_checks_pass_on_baselines_and_catch_a_sleeper(kind):
    raw = dict(SHORT, scheme={"kind": kind})
    _, report, _ = simulate(raw)
    assert checks.check_report(report, raw) == []
    bad = copy.deepcopy(report)
    bad["per_node"]["0"]["time_in_mode_s"]["sleep"] += 5.0 if kind == "always-on" else 60.0
    assert checks.check_scheme(bad, raw)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_scenarios_validate_and_complete(name):
    ops = WORKLOADS[name](7)
    assert ops == WORKLOADS[name](7)
    assert len({(op.seed, op.scheme) for op in ops}) == len(ops)
    for op in {op.scheme: op for op in ops}.values():
        raw = op.scenario()
        from_dict(raw)  # the full scenario validates
        raw.update(horizon_s=20.0, traffic_horizon_s=15.0)
        sim, report, rows = simulate(raw, op.seed, trace=op.compare)
        assert checks.check_connected(connected_components(sim.graph)) == []
        assert checks.check_report(report, raw) == []
        if op.compare:
            assert checks.check_trace(rows, report, raw) == []


def test_tracer_names_a_missing_function_and_unwraps(monkeypatch):
    import ecsim.cluster
    import ecsim.scheduler

    original = ecsim.cluster.form_clusters
    monkeypatch.delattr(ecsim.scheduler, "compute_sleep")
    with pytest.raises(layers.MissingTarget, match=r"ecsim\.scheduler\.compute_sleep"):
        layers.Tracer().install()
    assert ecsim.cluster.form_clusters is original


def test_traced_counts_repeat_and_cover_every_layer(tmp_path):
    ops = [
        dataclasses.replace(op, raw=dict(op.raw, horizon_s=60.0, traffic_horizon_s=50.0))
        for op in WORKLOADS["demo-trace"](1)[:4]
    ]
    first, results = run.trace_layers(run.Bench("demo-trace", ops, tmp_path))
    second, _ = run.trace_layers(run.Bench("demo-trace", ops, tmp_path))
    assert run.failures(results) == 0
    for name, (value, unit) in first.items():
        if unit == "count":
            assert second[name][0] == value, name
    assert {name.split(".")[0] for name in first} >= {
        "engine", "cache", "scheduler", "cluster", "topology", "core", "traffic", "config",
        "report",
    }
    assert first["report.trace_rows"][0] > 0 and first["engine.events"][0] > 0
    declared = json.loads((Path(run.BENCH_DIR).parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {
        name: unit for name, (_, unit) in first.items()
    }
