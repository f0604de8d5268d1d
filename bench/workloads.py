"""The benchmark's workloads: which simulations one run of a workload makes.

A workload turns the benchmark seed into a fixed panel of operations. One
operation is one simulation run: a raw scenario dict, a scheme and a
simulation seed. The same benchmark seed always gives the same panel. The
scenarios are copied here rather than read from ``tests/`` or
``scenarios/``, so that editing those files never changes the benchmark.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass

# The acceptance scenario (``SCENARIO`` in tests/test_acceptance.py); the
# workloads shorten its horizon so that one run covers many placements.
ACCEPTANCE = {
    "grid": {"width": 6, "height": 6},
    "nodes": 30,
    "initial_energy_j": 2000.0,
    "round_s": 10.0,
    "horizon_s": 2000.0,
    "traffic_horizon_s": 1950.0,
    "p_move": 0.001,
    "sleep_budget_rounds": 0.4,
    "deadline_rounds": 2.0,
    "flows": [
        {"src": 0, "dst": 17, "rate_pps": 0.5},
        {"src": 3, "dst": 22, "rate_pps": 0.4},
        {"src": 8, "dst": 29, "rate_pps": 0.5},
        {"src": 12, "dst": 5, "rate_pps": 0.4},
    ],
}

# scenarios/demo.json, the scenario a new user runs first.
DEMO = {
    "grid": {"width": 6, "height": 6},
    "nodes": 30,
    "initial_energy_j": 2000.0,
    "round_s": 10.0,
    "slots_per_round": 10,
    "p_move": 0.001,
    "horizon_s": 600.0,
    "traffic_horizon_s": 550.0,
    "flows": [
        {"src": 0, "dst": 17, "rate_pps": 0.5},
        {"src": 3, "dst": 22, "rate_pps": 0.4},
        {"src": 8, "dst": 29, "rate_pps": 0.5},
        {"src": 12, "dst": 5, "rate_pps": 0.4},
    ],
    "cache": {"enabled": True, "capacity_bits": 10000000},
    "scheme": {"kind": "traffic-aware"},
    "seed": 1,
}

DEMO_SCHEMES = ("traffic-aware", "periodic", "coordinated", "always-on")


# Panel sizes. The horizons are shorter than the scenarios' own so that one
# pass covers many placements: one simulation's cost depends on its
# placement, and a run has to read the same on any seed. One pass takes about
# 16 s on a 2-core machine.
TA_HORIZON_S = 400.0
TA_RUNS = 40
BASELINE_HORIZON_S = 300.0
BASELINE_SEEDS = 22
GRID_HORIZON_S = 80.0
GRID_FLOWS = 16  # 16 flows at 0.25 pps vary less across seeds than 8 at 0.5
GRID_RATE_PPS = 0.25
GRID_RUNS = 14
DEMO_HORIZON_S = 150.0
DEMO_SEEDS = 28


@dataclass(frozen=True)
class Op:
    """One simulation run of a workload."""

    scheme: str
    seed: int
    raw: dict  # scenario without its scheme; the op sets the scheme
    group: str = ""  # ops of one group share an output directory
    # As `ecsim compare --trace`: set up from a scenario file, write trace.csv
    # and, once the group is done, compare.csv.
    compare: bool = False

    @property
    def key(self) -> str:
        return f"{self.group}/{self.scheme}"

    def scenario(self) -> dict:
        raw = copy.deepcopy(self.raw)
        raw["scheme"] = {"kind": self.scheme}
        return raw


def _sim_seeds(workload: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{workload}/{seed}")
    return rng.sample(range(1, 2**31), count)


def _compressed(raw: dict, horizon_s: float, battery: bool = True) -> dict:
    """The scenario over a shorter horizon, traffic stopping at the same
    fraction of it. With ``battery`` the initial energy shrinks in the same
    ratio, so nodes drain to the same fraction by the end as over the full
    horizon."""
    scale = horizon_s / raw["horizon_s"]
    out = dict(raw, horizon_s=horizon_s, traffic_horizon_s=raw["traffic_horizon_s"] * scale)
    if battery:
        out["initial_energy_j"] = raw["initial_energy_j"] * scale
    return out


def ta_30(seed: int) -> list[Op]:
    raw = _compressed(ACCEPTANCE, TA_HORIZON_S)
    return [
        Op("traffic-aware", s, raw, group=f"seed{s}")
        for s in _sim_seeds("ta-30", seed, TA_RUNS)
    ]


def baselines_30(seed: int) -> list[Op]:
    raw = _compressed(ACCEPTANCE, BASELINE_HORIZON_S)
    return [
        Op(scheme, s, raw, group=f"seed{s}")
        for s in _sim_seeds("baselines-30", seed, BASELINE_SEEDS)
        for scheme in ("periodic", "coordinated")
    ]


def grid_scenario(rng: random.Random, nodes: int, width: int, partition: int,
                  horizon_s: float) -> dict:
    """Traffic-aware on a width x width grid in a partition x partition grid
    of clusters, with GRID_FLOWS flows whose end points ``rng`` picks."""
    pairs: list[tuple[int, int]] = []
    while len(pairs) < GRID_FLOWS:
        src, dst = rng.randrange(nodes), rng.randrange(nodes)
        if src != dst and (src, dst) not in pairs:
            pairs.append((src, dst))
    return {
        "grid": {"width": width, "height": width},
        "nodes": nodes,
        "initial_energy_j": 2000.0,
        "round_s": 10.0,
        "horizon_s": horizon_s,
        "traffic_horizon_s": horizon_s - 10.0,
        "p_move": 0.001,
        "flows": [{"src": s, "dst": d, "rate_pps": GRID_RATE_PPS} for s, d in pairs],
        "cluster": {"policy": "grid", "partition": partition},
    }


def grid_400(seed: int) -> list[Op]:
    rng = random.Random(f"grid-400/{seed}/flows")
    return [
        Op("traffic-aware", s, grid_scenario(rng, 400, 12, 3, GRID_HORIZON_S), group=f"seed{s}")
        for s in _sim_seeds("grid-400", seed, GRID_RUNS)
    ]


def demo_trace(seed: int) -> list[Op]:
    """``ecsim compare --config scenarios/demo.json --schemes <all four>
    --trace`` once per simulation seed, over a shorter horizon."""
    demo = _compressed(DEMO, DEMO_HORIZON_S, battery=False)
    return [
        Op(scheme, s, demo, group=f"seed{s}", compare=True)
        for s in _sim_seeds("demo-trace", seed, DEMO_SEEDS)
        for scheme in DEMO_SCHEMES
    ]


WORKLOADS = {
    "ta-30": ta_30,
    "baselines-30": baselines_30,
    "grid-400": grid_400,
    "demo-trace": demo_trace,
}
