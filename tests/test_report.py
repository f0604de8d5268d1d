import copy

import pytest

from ecsim.config import from_dict
from ecsim.engine import Simulation, run_simulation
from ecsim.report import compare, compare_csv, finalize, trace_csv


def small_config(**overrides):
    raw = {
        "grid": {"width": 4, "height": 4},
        "nodes": 6,
        "initial_energy_j": 100.0,
        "round_s": 10.0,
        "horizon_s": 40.0,
        "p_move": 0.0,
        "flows": [{"src": 0, "dst": 3, "rate_pps": 0.5}],
    }
    raw.update(overrides)
    return from_dict(raw)


def test_zero_traffic_report():
    report, _ = run_simulation(small_config(flows=[]), 1)
    net = report.network
    assert net["throughput_bps"] == 0.0
    assert net["mean_end_to_end_delay_s"] is None
    assert net["generated_packets"] == 0


def test_full_delivery_ratio_one():
    config = small_config(
        scheme={"kind": "always-on"}, flows=[{"src": 0, "dst": 3, "rate_pps": 0.5}],
        horizon_s=60.0, traffic_horizon_s=40.0,
    )
    report, _ = run_simulation(config, 2)
    assert report.network["generated_packets"] > 0
    assert report.network["delivery_ratio"] == 1.0


def test_report_is_pure_function_of_run():
    sim = Simulation(small_config(), 7)
    sim.run()
    first = finalize(sim)
    second = finalize(sim)
    assert first.to_json() == second.to_json()


def test_mean_of_means_consistency():
    report, _ = run_simulation(small_config(), 3)
    total = sum(per["consumed_j"] for per in report.per_node.values())
    assert report.network["mean_per_device_consumption_j"] == pytest.approx(
        total / len(report.per_node), abs=1e-9
    )


def test_trace_replay_matches_consumed():
    report, trace = run_simulation(small_config(), 5, collect_trace=True)
    consumed = {nid: 0.0 for nid in report.per_node}
    for _, node, kind, detail in trace:
        if kind == "mode":
            consumed[str(node)] += float(detail.split("energy=")[1])
    for nid, per in report.per_node.items():
        assert consumed[nid] == pytest.approx(per["consumed_j"], abs=1e-6)


def run_pair(seed=4):
    cfg_a = small_config(scheme={"kind": "always-on"})
    cfg_b = small_config(scheme={"kind": "periodic", "duty": 0.25, "period_s": 2.0})
    ra, _ = run_simulation(cfg_a, seed)
    rb, _ = run_simulation(cfg_b, seed)
    return [("always-on", ra), ("periodic", rb)]


def test_compare_identical_reports_zero_delta():
    reports = run_pair()
    same = [("a", reports[0][1]), ("b", reports[0][1])]
    rows = compare(same, baseline="a")
    for row in rows:
        if row["delta_vs_baseline_pct"] is not None:
            assert row["delta_vs_baseline_pct"] == pytest.approx(0.0, abs=1e-12)


def test_compare_delta_arithmetic():
    reports = run_pair()
    base = reports[0][1].network["mean_per_device_consumption_j"]
    other = reports[1][1].network["mean_per_device_consumption_j"]
    rows = compare(reports, baseline="always-on")
    row = next(
        r for r in rows
        if r["metric"] == "mean_per_device_consumption_j" and r["scheme"] == "periodic"
    )
    assert row["delta_vs_baseline_pct"] == pytest.approx((other - base) / base * 100.0)


def test_compare_row_count_is_metrics_times_schemes():
    reports = run_pair()
    rows = compare(reports)
    from ecsim.report import COMPARE_METRICS

    assert len(rows) == len(COMPARE_METRICS) * len(reports)


def test_compare_rejects_mismatched_scenarios():
    reports = run_pair()
    other_cfg = small_config(nodes=5, flows=[])
    other, _ = run_simulation(other_cfg, 4)
    with pytest.raises(ValueError):
        compare([reports[0], ("other", other)])


def test_compare_rejects_mismatched_seeds():
    a = run_pair(seed=4)[0]
    b = run_pair(seed=5)[1]
    with pytest.raises(ValueError):
        compare([a, b])


def test_compare_csv_shape():
    rows = compare(run_pair())
    text = compare_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "metric,scheme,value,delta_vs_baseline_pct"
    assert len(lines) == len(rows) + 1


def test_timeseries_csv_header_and_rows():
    report, _ = run_simulation(small_config(), 6)
    text = report.timeseries_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "time,alive_fraction,total_residual_j"
    assert len(lines) >= 2


def test_trace_csv_format():
    _, trace = run_simulation(small_config(), 6, collect_trace=True)
    text = trace_csv(trace)
    assert text.startswith("time,node,kind,detail\n")


def test_trace_csv_writes_what_per_row_formatting_writes():
    rows = [
        (0.0, 1, "mode", "a"),
        (0.0, -1, "round-start", ""),  # a shared time
        (1.0000001, 2, "moved", ""),
        (1.0000004, 2, "death", ""),  # equal to the sixth decimal
        (2.5, 3, "moved", ""),
        (1.0000001, 3, "death", ""),  # a time that comes back after another
        (2.5, 4, "moved", ""),
    ]
    expected = [f"{t:.6f},{node},{kind},{detail}" for t, node, kind, detail in rows]
    assert trace_csv(rows) == "\n".join(["time,node,kind,detail"] + expected) + "\n"


def test_mode_rows_write_each_float_as_its_repr():
    config = small_config(scheme={"kind": "coordinated"}, energy={"p_sleep": 0.0})
    _, trace = run_simulation(config, 3, collect_trace=True)
    # (mode, dur text, energy text) of each mode row
    fields = [
        tuple(field.split("=")[1] for field in detail.split(";"))
        for _, _, kind, detail in trace
        if kind == "mode"
    ]
    texts = [text for _, dur, energy in fields for text in (dur, energy)]
    assert texts and all(text == repr(float(text)) for text in texts)
    # A sleeping node at no power spends +0.0, never -0.0.
    asleep = {energy for mode, _, energy in fields if mode == "sleep"}
    assert asleep == {"0.0"}
