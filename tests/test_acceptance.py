"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured values. The heavyweight comparative experiment is shared by the
energy, throughput and caching criteria.
"""

import json
import random
import statistics
import time

import pytest

from ecsim.cli import main
from ecsim.cluster import ServiceLedger, elect_roles, select_ch
from ecsim.config import from_dict
from ecsim.core import EnergyAccount
from ecsim.engine import Simulation, run_simulation
from ecsim.scheduler import (
    ActivityLedger,
    backward_diff,
    compute_sleep,
    path_delay,
    sp_sleep,
)

SEEDS = (1, 2, 3, 4, 5)

SCENARIO = {
    "grid": {"width": 6, "height": 6},
    "nodes": 30,
    "initial_energy_j": 2000.0,
    "round_s": 10.0,
    "horizon_s": 2000.0,
    "traffic_horizon_s": 1950.0,
    "p_move": 0.001,
    "sleep_budget_rounds": 0.4,
    "deadline_rounds": 2.0,  # delay-sensitive deadline = 2 * round
    "flows": [
        {"src": 0, "dst": 17, "rate_pps": 0.5},
        {"src": 3, "dst": 22, "rate_pps": 0.4},
        {"src": 8, "dst": 29, "rate_pps": 0.5},
        {"src": 12, "dst": 5, "rate_pps": 0.4},
    ],
}

SLEEP_SCHEMES = ("periodic", "coordinated")


def ok(criterion: int, detail: str) -> None:
    print(f"[ACCEPTANCE] criterion {criterion}: PASS - {detail}")


def per_seed(reports) -> str:
    """Traffic-aware's figures per seed, the table a change of rules reports."""
    def column(key: str, fmt: str) -> str:
        return "/".join(format(r.network[key], fmt) for r in reports)

    return (
        f"traffic-aware seeds {SEEDS[0]}-{SEEDS[-1]}: "
        f"J/device {column('mean_per_device_consumption_j', '.1f')}, "
        f"delivery {column('delivery_ratio', '.4f')}, "
        f"mean delay {column('mean_end_to_end_delay_s', '.2f')} s"
    )


@pytest.fixture(scope="module")
def experiment():
    """Criteria 7-9 share one comparative experiment: 3 schemes x 5 seeds."""
    start = time.monotonic()
    runs = {}
    for kind in ("traffic-aware",) + SLEEP_SCHEMES:
        runs[kind] = []
        for seed in SEEDS:
            config = from_dict({**SCENARIO, "scheme": {"kind": kind}})
            report, _ = run_simulation(config, seed)
            runs[kind].append(report)
    return {"runs": runs, "elapsed": time.monotonic() - start}


def test_criterion_1_scheduler_unit_suite():
    start = time.monotonic()

    # CH-candidacy / SP score products (score = candidacy * residual share)
    from ecsim.cluster import compute_sp_score

    assert compute_sp_score(0.5, EnergyAccount(10.0, 10.0)) == pytest.approx(0.5, abs=1e-9)
    assert compute_sp_score(0.9, EnergyAccount(0.0, 10.0)) == pytest.approx(0.0, abs=1e-9)
    assert compute_sp_score(0.8, EnergyAccount(2.5, 10.0)) == pytest.approx(0.2, abs=1e-9)

    # backward difference of per-slot activity
    ledger = ActivityLedger(slot_width=10.0, slots_per_round=10)
    for slot, value in enumerate([3.0, 5.0]):
        ledger.record_active(1, slot, value)
    assert backward_diff(ledger, 1, 1) == pytest.approx(2.0, abs=1e-9)
    ledger2 = ActivityLedger(slot_width=10.0, slots_per_round=10)
    for slot, value in enumerate([4.0, 4.0, 1.0]):
        ledger2.record_active(1, slot, value)
    assert backward_diff(ledger2, 1, 1) == pytest.approx(0.0, abs=1e-9)
    assert backward_diff(ledger2, 1, 2) == pytest.approx(-3.0, abs=1e-9)

    # path delay
    assert path_delay([(1.0, 0.5)]) == pytest.approx(1.5, abs=1e-9)
    assert path_delay([(0.0, 0.0), (0.0, 0.0)]) == pytest.approx(0.0, abs=1e-9)
    hops = [(0.3, 0.01), (1.2, 0.02), (0.7, 0.005)]
    oracle = 0.0
    for hosting, tx in hops:
        oracle += hosting
        oracle += tx
    assert path_delay(hops) == pytest.approx(oracle, abs=1e-9)

    # sleep interval
    # (sum C, sum V, sup C, hops, d_p, round, shortest cache hosting delay)
    assert compute_sleep(11e6, 0.0, 11e6, 2, 3.0, 10.0, 8.0) == pytest.approx(3.0, abs=1e-9)
    assert compute_sleep(11e6, 11e6, 11e6, 2, 3.0, 10.0, None) == pytest.approx(0.0, abs=1e-9)
    assert compute_sleep(5.5e6, 0.0, 11e6, 2, 4.0, 10.0, None) == pytest.approx(1.0, abs=1e-9)

    # proxy sleep interval (supremum of prefix means)
    assert sp_sleep([2.0, 2.0, 2.0], 3) == pytest.approx(2.0, abs=1e-9)
    assert sp_sleep([0.0, 0.0, 0.0], 3) == pytest.approx(0.0, abs=1e-9)
    assert sp_sleep([1.0, 3.0, 2.0], 3) == pytest.approx(2.0, abs=1e-9)

    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    ok(1, f"all interval/score examples exact at 1e-9 in {elapsed:.3f}s")


def test_criterion_2_sleep_constraint_audit():
    start = time.monotonic()
    rng = random.Random(20260810)
    total_events = 0
    total_grants = 0
    violations = 0
    while total_events < 1000 or total_grants == 0:
        raw = {
            "grid": {"width": rng.randrange(4, 8), "height": rng.randrange(4, 8)},
            "nodes": rng.randrange(10, 26),
            "initial_energy_j": 500.0,
            "round_s": 10.0,
            "horizon_s": float(rng.randrange(80, 160)),
            "p_move": rng.choice([0.0, 0.001, 0.01]),
            "scheme": {"kind": "traffic-aware"},
        }
        nodes = raw["nodes"]
        raw["flows"] = [
            {
                "src": rng.randrange(nodes),
                "dst": (lambda s: rng.choice([d for d in range(nodes) if d != s]))(
                    rng.randrange(nodes)
                ),
                "rate_pps": rng.uniform(0.2, 0.8),
            }
            for _ in range(rng.randrange(1, 4))
        ]
        for flow in raw["flows"]:
            if flow["src"] == flow["dst"]:
                flow["dst"] = (flow["dst"] + 1) % nodes
        sim = Simulation(from_dict(raw), rng.randrange(1_000_000))
        while (t := sim.peek_time()) is not None and t <= sim.horizon + 1e-9:
            sim.step()
            total_events += 1
        sim._finalize()
        total_grants += len(sim.plane.sleep_audit)
        for grant in sim.plane.sleep_audit:
            if not grant["t_sleep"] < grant["round_length"]:
                violations += 1
            if grant["min_cache_delay"] is not None and not (
                grant["t_sleep"] < grant["min_cache_delay"]
            ):
                violations += 1
    elapsed = time.monotonic() - start
    assert violations == 0
    assert elapsed < 10.0
    ok(
        2,
        f"{total_grants} sleep assignments over {total_events} events, "
        f"100% within round/hosting bounds in {elapsed:.2f}s",
    )


def test_criterion_3_ch_election_oracle():
    rng = random.Random(99)
    for _ in range(1000):
        size = rng.randrange(1, 11)
        members = rng.sample(range(200), size)
        energies = {m: EnergyAccount(rng.uniform(0.0, 50.0), 50.0) for m in members}
        oracle = sorted(members, key=lambda m: (-energies[m].e_residual, m))[0]
        assert select_ch(set(members), energies) == oracle
    ok(3, "1000 random clusters match the exhaustive argmax oracle")


def test_criterion_4_sp_fairness():
    members = set(range(10))
    energies = {m: EnergyAccount(50.0 - m, 100.0) for m in members}
    ledger = ServiceLedger()
    for _ in range(50):
        elect_roles(members, energies, ledger)
    counts = [ledger.sp_count(m) for m in sorted(members)]
    assert min(counts) >= 1
    assert max(counts) - min(counts) <= 1
    ok(4, f"10 nodes / 50 rounds service counts {counts}")


def test_criterion_5_determinism(tmp_path):
    scenario = dict(SCENARIO, horizon_s=200.0, traffic_horizon_s=150.0)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = main([
            "run", "--config", str(path), "--seed", "42", "--out", str(out),
            "--trace", "--quiet",
        ])
        assert code == 0
        outs.append(out)
    report_a = (outs[0] / "report.json").read_bytes()
    report_b = (outs[1] / "report.json").read_bytes()
    trace_a = (outs[0] / "trace.csv").read_bytes()
    trace_b = (outs[1] / "trace.csv").read_bytes()
    assert report_a == report_b
    assert trace_a == trace_b
    ok(5, f"byte-identical report.json ({len(report_a)} B) and trace.csv ({len(trace_a)} B)")


def test_criterion_6_energy_ledger_closure():
    scenario = dict(SCENARIO, horizon_s=300.0, traffic_horizon_s=250.0)
    config = from_dict({**scenario, "scheme": {"kind": "traffic-aware"}})
    report, trace = run_simulation(config, 6, collect_trace=True)
    replayed = {nid: 0.0 for nid in report.per_node}
    for _, node, kind, detail in trace:
        if kind == "mode":
            replayed[str(node)] += float(detail.split("energy=")[1])
    worst_closure = 0.0
    worst_replay = 0.0
    for nid, per in report.per_node.items():
        worst_closure = max(
            worst_closure,
            abs(per["consumed_j"] + per["residual_j"] - scenario["initial_energy_j"]),
        )
        worst_replay = max(worst_replay, abs(replayed[nid] - per["consumed_j"]))
    assert worst_closure <= 1e-6
    assert worst_replay <= 1e-6
    ok(6, f"closure within {worst_closure:.2e} J, trace replay within {worst_replay:.2e} J")


def test_criterion_7_energy_conservation_margin(experiment):
    runs = experiment["runs"]
    ta = statistics.mean(r.network["mean_per_device_consumption_j"] for r in runs["traffic-aware"])
    margins = {}
    for baseline in SLEEP_SCHEMES:
        base = statistics.mean(
            r.network["mean_per_device_consumption_j"] for r in runs[baseline]
        )
        margins[baseline] = (base - ta) / base * 100.0
        assert ta <= 0.9 * base, (
            f"traffic-aware {ta:.2f} J/device must be >=10% below {baseline} {base:.2f}"
        )
    assert experiment["elapsed"] < 120.0
    ok(
        7,
        "mean consumption reduction "
        + ", ".join(f"{b}: {m:.1f}%" for b, m in margins.items())
        + f"; 15 runs in {experiment['elapsed']:.0f}s; "
        + per_seed(runs["traffic-aware"]),
    )


def test_criterion_8_throughput_non_degradation(experiment):
    runs = experiment["runs"]
    ta = statistics.mean(r.network["delivery_ratio"] for r in runs["traffic-aware"])
    details = []
    for baseline in SLEEP_SCHEMES:
        base = statistics.mean(r.network["delivery_ratio"] for r in runs[baseline])
        assert ta >= base - 0.02, (
            f"traffic-aware delivery {ta:.3f} below {baseline} {base:.3f} - 0.02"
        )
        details.append(f"{baseline}: {base:.3f}")
    ok(8, f"traffic-aware delivery {ta:.3f} vs " + ", ".join(details) + "; "
       + per_seed(runs["traffic-aware"]))


def test_criterion_9_caching_benefit(experiment):
    cached = experiment["runs"]["traffic-aware"][0]  # seed 1, caching enabled
    ratio_on = cached.network["sleeping_dst_delivery_ratio"]
    config_off = from_dict(
        {
            **SCENARIO,
            "scheme": {"kind": "traffic-aware"},
            "cache": {"enabled": False, "capacity_bits": 10_000_000},
        }
    )
    uncached, _ = run_simulation(config_off, SEEDS[0])
    ratio_off = uncached.network["sleeping_dst_delivery_ratio"] or 0.0
    assert cached.network["sleeping_dst"]["generated"] > 0
    assert ratio_on >= 0.95
    assert ratio_on > ratio_off
    ok(9, f"sleeping-destination delivery {ratio_on:.3f} with caching vs {ratio_off:.3f} without")


def test_criterion_10_lifetime_ordering():
    scenario = dict(
        SCENARIO, initial_energy_j=60.0, horizon_s=400.0, traffic_horizon_s=400.0
    )
    ta_report, _ = run_simulation(
        from_dict({**scenario, "scheme": {"kind": "traffic-aware"}}), SEEDS[0]
    )
    ao_report, _ = run_simulation(
        from_dict({**scenario, "scheme": {"kind": "always-on"}}), SEEDS[0]
    )
    ta_death = ta_report.network["first_death_s"]
    ao_death = ao_report.network["first_death_s"]
    assert ta_death is not None and ao_death is not None, "first death must occur in horizon"
    assert ta_death >= 1.5 * ao_death
    ok(10, f"first death {ta_death:.1f}s (traffic-aware) vs {ao_death:.1f}s (always-on), "
           f"ratio {ta_death / ao_death:.2f}")
