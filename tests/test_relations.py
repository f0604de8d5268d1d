"""Relations between runs: pairs of runs whose outputs must be equal, or
must move in a known direction (metamorphic testing; Chen et al.,
"Metamorphic Testing: A Review of Challenges and Opportunities", ACM
Computing Surveys 51(1), 2018).

The reference digests and the golden pins say "the same as before"; a
change of behaviour re-records them. A relation still holds after that, so
it keeps checking behaviour. A relation that fails is a finding about the
simulator, not a test to loosen.

Every case runs the acceptance scenario cut to 600 s, at seeds 1 and 2.
Four relations also run on small scenarios that Hypothesis draws, in which
caches are disabled or fill, nodes die mid-transfer and clusters form on a
grid.
"""

import json
import math

import pytest
from hypothesis import Phase, given, settings

from ecsim.config import from_dict
from ecsim.engine import run_simulation
from ecsim.report import trace_csv
from test_acceptance import SCENARIO
from test_invariants import small_scenarios

SHORT = dict(SCENARIO, horizon_s=600.0, traffic_horizon_s=550.0)
SEEDS = (1, 2)

# A flow that never sends, added after the scenario's four.
SILENT_FLOW = {"src": 1, "dst": 20, "rate_pps": 0.0}

# Pairs of scenario overrides whose runs give the same bytes.
SAME = {
    "periodic at duty 1 is always-on": (
        {"scheme": {"kind": "periodic", "duty": 1.0}},
        {"scheme": "always-on"},
    ),
    "always-on without a cache": (
        {"scheme": "always-on", "cache": {"enabled": False}},
        {"scheme": "always-on"},
    ),
    "always-on at another sleep power": (
        {"scheme": "always-on", "energy": {"p_sleep": 0.01}},
        {"scheme": "always-on"},
    ),
    # Slots matter only to traffic-aware's proxy and to cache eviction, which
    # always-on never reaches; periodic evicts at slot boundaries.
    "always-on at another slot count": (
        {"scheme": "always-on", "slots_per_round": 5},
        {"scheme": "always-on"},
    ),
    **{
        f"{kind} with a silent flow": (
            {"scheme": kind, "flows": SCENARIO["flows"] + [SILENT_FLOW]},
            {"scheme": kind},
        )
        for kind in ("traffic-aware", "periodic", "coordinated")
    },
    # Clusters and sleep grants are traffic-aware's alone: the keys that set
    # them must not reach a duty-cycle baseline.
    **{
        f"{kind} with grid clusters and another sleep budget": (
            {"scheme": kind, "cluster": {"policy": "grid", "partition": 3},
             "sleep_budget_rounds": 1.0},
            {"scheme": kind},
        )
        for kind in ("periodic", "coordinated")
    },
}


def outputs(seed: int, scenario: dict, overrides: dict) -> tuple[str, str]:
    """``report.json``, without the keys that name the scheme and the config,
    and ``trace.csv`` of one traced run."""
    report, trace = run_simulation(from_dict({**scenario, **overrides}), seed, collect_trace=True)
    out = report.to_dict()
    for key in ("scheme", "config", "scenario_fingerprint"):
        del out["meta"][key]
    return json.dumps(out, sort_keys=True, indent=2), trace_csv(trace)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("changed, base", SAME.values(), ids=list(SAME))
def test_runs_that_must_agree_give_the_same_bytes(changed, base, seed):
    changed_report, changed_trace = outputs(seed, SHORT, changed)
    base_report, base_trace = outputs(seed, SHORT, base)
    assert changed_report == base_report
    assert changed_trace == base_trace


# The pairs of ``SAME`` that hold on any scenario, built for a drawn one:
# its silent flow joins the drawn flows between two of its nodes.
DRAWN = {
    "periodic at duty 1 is always-on": lambda raw: SAME["periodic at duty 1 is always-on"],
    "always-on without a cache": lambda raw: SAME["always-on without a cache"],
    **{
        f"{kind} with a silent flow": lambda raw, kind=kind: (
            {"scheme": kind, "flows": raw["flows"] + [{"src": 0, "dst": 1, "rate_pps": 0.0}]},
            {"scheme": kind},
        )
        for kind in ("traffic-aware", "periodic", "coordinated")
    },
}

# Each drawn example takes two runs of a few milliseconds each. A
# failing example is reported as drawn, without shrinking, as in
# ``test_invariants``.
DRAWN_SETTINGS = settings(max_examples=40, deadline=None,
                          phases=[Phase.explicit, Phase.reuse, Phase.generate])


@pytest.mark.parametrize("name", list(DRAWN))
@DRAWN_SETTINGS
@given(small_scenarios())
def test_runs_that_must_agree_give_the_same_bytes_on_drawn_scenarios(name, scenario):
    raw, seed = scenario
    changed, base = DRAWN[name](raw)
    assert outputs(seed, raw, changed) == outputs(seed, raw, base)


def assert_a_trace_changes_no_other_output(config, seed):
    texts = []
    for collect_trace in (False, True):
        report, trace = run_simulation(config, seed, collect_trace=collect_trace)
        assert (trace is not None) is collect_trace
        texts.append((report.to_json(), report.timeseries_csv()))
    assert texts[0] == texts[1]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", ["traffic-aware", "periodic", "coordinated", "always-on"])
def test_a_trace_changes_no_other_output(kind, seed):
    # Every other relation and reference run keeps its trace.
    assert_a_trace_changes_no_other_output(from_dict({**SHORT, "scheme": kind}), seed)


@pytest.mark.parametrize("kind", ["traffic-aware", "periodic", "coordinated", "always-on"])
@DRAWN_SETTINGS
@given(small_scenarios())
def test_a_trace_changes_no_other_output_on_drawn_scenarios(kind, scenario):
    raw, seed = scenario
    assert_a_trace_changes_no_other_output(from_dict({**raw, "scheme": kind}), seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_every_scheme_traces_the_same_moves(seed):
    # Moves are drawn from the alive nodes alone: while no node dies, every
    # scheme sees the same ones, and each must say so in its trace.
    moves = []
    for kind in ("traffic-aware", "periodic", "coordinated", "always-on"):
        report, trace = run_simulation(from_dict({**SHORT, "scheme": kind}), seed,
                                       collect_trace=True)
        assert report.network["first_death_s"] is None
        moves.append([(row[0], row[1]) for row in trace if row[2] == "moved"])
    assert moves[0]
    assert all(pairs == moves[0] for pairs in moves)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", ["always-on", "coordinated"])
def test_a_larger_battery_never_dies_first(kind, seed):
    first_deaths = []
    for energy in (40.0, 60.0, 80.0):
        config = from_dict({**SHORT, "horizon_s": 400.0, "initial_energy_j": energy, "scheme": kind})
        report, _ = run_simulation(config, seed)
        death = report.network["first_death_s"]
        first_deaths.append(math.inf if death is None else death)
    assert first_deaths[0] < math.inf, "the smallest battery must run out within 400 s"
    assert first_deaths == sorted(first_deaths)
