import random

import pytest
from hypothesis import given, settings, strategies as st

from ecsim.cluster import (
    ServiceLedger,
    assign_sp,
    candidacy_shares,
    compute_sp_score,
    elect_roles,
    form_clusters,
    select_ch,
)
from ecsim.core import EnergyAccount
from ecsim.topology import ConnectivityGraph


def accounts(**residuals):
    return {int(k): EnergyAccount(v, 10.0) for k, v in residuals.items()}


def test_select_ch_pairwise_higher_energy_wins():
    energies = {1: EnergyAccount(5.0, 10.0), 2: EnergyAccount(3.0, 10.0)}
    assert select_ch({1, 2}, energies) == 1


def test_select_ch_singleton():
    energies = {4: EnergyAccount(1.0, 10.0)}
    assert select_ch({4}, energies) == 4


def test_select_ch_tie_breaks_to_smallest_id():
    energies = {7: EnergyAccount(5.0, 10.0), 3: EnergyAccount(5.0, 10.0)}
    assert select_ch({7, 3}, energies) == 3


def test_select_ch_empty_rejected():
    with pytest.raises(ValueError):
        select_ch(set(), {})


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000))
def test_select_ch_matches_exhaustive_scan(seed):
    rng = random.Random(seed)
    size = rng.randrange(1, 11)
    members = rng.sample(range(100), size)
    energies = {n: EnergyAccount(rng.uniform(0.0, 10.0), 10.0) for n in members}
    # Independent oracle: exhaustive scan for max energy, smallest id on ties.
    best = sorted(members, key=lambda n: (-energies[n].e_residual, n))[0]
    assert select_ch(set(members), energies) == best


def test_sp_score_full_battery():
    assert compute_sp_score(0.5, EnergyAccount(10.0, 10.0)) == 0.5


def test_sp_score_zero_residual():
    assert compute_sp_score(0.9, EnergyAccount(0.0, 10.0)) == 0.0


def test_sp_score_product():
    assert compute_sp_score(0.8, EnergyAccount(2.5, 10.0)) == pytest.approx(0.2, abs=1e-12)


def test_sp_score_rejects_bad_inputs():
    with pytest.raises(ValueError):
        compute_sp_score(1.5, EnergyAccount(1.0, 10.0))
    with pytest.raises(ValueError):
        compute_sp_score(0.5, EnergyAccount(0.0, 0.0))


@given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=8))
def test_sp_score_monotone_in_residual(residuals):
    scores = [compute_sp_score(0.7, EnergyAccount(r, 10.0)) for r in sorted(residuals)]
    assert all(a <= b + 1e-12 for a, b in zip(scores, scores[1:]))


def test_candidacy_shares_normalized():
    shares = candidacy_shares({1, 2, 3}, accounts(**{"1": 2.0, "2": 3.0, "3": 5.0}))
    assert sum(shares.values()) == pytest.approx(1.0)
    assert shares[3] == pytest.approx(0.5)


def fresh_scores(members, sp_l_by_node):
    return {
        n: compute_sp_score(1.0, EnergyAccount(sp_l_by_node[n] * 10.0, 10.0)) for n in members
    }


def test_assign_sp_prefers_highest_score():
    # CH is a third node so both fresh candidates are in play.
    members = {1, 2, 3}
    scores = fresh_scores(members, {1: 0.9, 2: 0.4, 3: 0.95})
    ledger = ServiceLedger()
    assert assign_sp(members, ch=3, scores=scores, ledger=ledger) == 1


def test_assign_sp_fairness_prefers_least_served():
    members = {1, 2, 3}
    scores = fresh_scores(members, {1: 0.9, 2: 0.1, 3: 0.95})
    ledger = ServiceLedger()
    ledger.record_sp(1)  # node 1 already served once
    assert assign_sp(members, ch=3, scores=scores, ledger=ledger) == 2


def test_assign_sp_singleton_doubles_as_ch():
    members = {5}
    scores = fresh_scores(members, {5: 0.5})
    assert assign_sp(members, ch=5, scores=scores, ledger=ServiceLedger()) == 5


def test_assign_sp_ch_serves_only_when_uniquely_least_served():
    members = {1, 2, 3}
    scores = fresh_scores(members, {1: 1.0, 2: 0.5, 3: 0.4})
    ledger = ServiceLedger()
    ledger.record_sp(2)
    ledger.record_sp(3)
    # CH (node 1) alone holds the minimum count, so it serves.
    assert assign_sp(members, ch=1, scores=scores, ledger=ledger) == 1


def test_rotation_every_node_serves_once_per_n_rounds():
    members = set(range(10))
    energies = {n: EnergyAccount(10.0 - n * 0.1, 10.0) for n in members}
    ledger = ServiceLedger()
    for _ in range(10):
        elect_roles(members, energies, ledger)
    counts = [ledger.sp_count(n) for n in sorted(members)]
    assert counts == [1] * 10


def test_rotation_50_rounds_is_fair():
    members = set(range(10))
    energies = {n: EnergyAccount(10.0 - n * 0.1, 10.0) for n in members}
    ledger = ServiceLedger()
    for _ in range(50):
        elect_roles(members, energies, ledger)
    counts = [ledger.sp_count(n) for n in sorted(members)]
    assert min(counts) >= 1
    assert max(counts) - min(counts) <= 1


def test_form_clusters_single_component():
    graph = ConnectivityGraph()
    for n in range(5):
        graph.add_node(n)
    for a in range(5):
        for b in range(a + 1, 5):
            graph.add_edge(a, b)
    energies = {n: EnergyAccount(5.0 + n, 10.0) for n in range(5)}
    clusters = form_clusters(graph, energies, ServiceLedger())
    assert len(clusters) == 1
    assert clusters[0].members == frozenset(range(5))
    assert clusters[0].ch == 4  # highest residual


def test_form_clusters_two_components():
    graph = ConnectivityGraph()
    for n in range(5):
        graph.add_node(n)
    graph.add_edge(0, 1)
    graph.add_edge(1, 2)
    graph.add_edge(3, 4)
    energies = {n: EnergyAccount(5.0, 10.0) for n in range(5)}
    clusters = form_clusters(graph, energies, ServiceLedger())
    assert [c.members for c in clusters] == [frozenset({0, 1, 2}), frozenset({3, 4})]
    for cluster in clusters:
        assert cluster.ch in cluster.members
        assert cluster.sp in cluster.members


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_form_clusters_component_count_matches_union_find(seed):
    rng = random.Random(seed)
    n = rng.randrange(1, 15)
    graph = ConnectivityGraph()
    for i in range(n):
        graph.add_node(i)
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.15:
                graph.add_edge(a, b)
    energies = {i: EnergyAccount(rng.uniform(0.1, 10.0), 10.0) for i in range(n)}

    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in range(n):
        for b in graph.neighbors_of(a):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    oracle_count = len({find(i) for i in range(n)})

    clusters = form_clusters(graph, energies, ServiceLedger())
    assert len(clusters) == oracle_count
