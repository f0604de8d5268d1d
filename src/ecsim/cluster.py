"""Round-based cluster formation, cluster-head election and sleep-proxy
assignment with fair rotation.

The cluster head (CH) is elected by pairwise residual-energy comparison: the
higher-energy node of each compared pair survives, which reduces to the
residual-energy argmax (ties to the smallest id). The sleep proxy (SP) is the
highest-scoring node among those that have served least often; the CH takes
the SP role only when no other member is at the minimum service count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from ecsim.core import EnergyAccount, NodeId, sum_in_order
from ecsim.topology import ConnectivityGraph, connected_components


@dataclass
class Cluster:
    members: frozenset[NodeId]
    ch: NodeId
    sp: NodeId

    def __post_init__(self) -> None:
        if self.ch not in self.members or self.sp not in self.members:
            raise ValueError("CH and SP must be cluster members")


@dataclass
class ServiceLedger:
    """Per-node counts of rounds served in each role, including roles
    re-elected within a round after a death."""

    sp_rounds: dict[NodeId, int] = field(default_factory=dict)
    ch_rounds: dict[NodeId, int] = field(default_factory=dict)

    def sp_count(self, node: NodeId) -> int:
        return self.sp_rounds.get(node, 0)

    def ch_count(self, node: NodeId) -> int:
        return self.ch_rounds.get(node, 0)

    def record_sp(self, node: NodeId) -> None:
        self.sp_rounds[node] = self.sp_count(node) + 1

    def record_ch(self, node: NodeId) -> None:
        self.ch_rounds[node] = self.ch_count(node) + 1


def select_ch(members: Iterable[NodeId], energies: Mapping[NodeId, EnergyAccount]) -> NodeId:
    """Pairwise tournament on residual energy; equals argmax with id tie-break."""
    ordered = sorted(members)
    if not ordered:
        raise ValueError("cannot elect a cluster head from an empty member set")
    champion = ordered[0]
    for challenger in ordered[1:]:
        if energies[challenger].e_residual > energies[champion].e_residual:
            champion = challenger
    return champion


def candidacy_shares(
    members: Iterable[NodeId], energies: Mapping[NodeId, EnergyAccount]
) -> dict[NodeId, float]:
    """Normalized residual-energy share per member: c_l in [0, 1], summing to 1.

    A fully drained member set degenerates to uniform shares.
    """
    ordered = sorted(members)
    if not ordered:
        raise ValueError("cannot score an empty member set")
    total = sum_in_order(energies[n].e_residual for n in ordered)
    if total <= 0.0:
        return {n: 1.0 / len(ordered) for n in ordered}
    return {n: energies[n].e_residual / total for n in ordered}


def compute_sp_score(c_l: float, account: EnergyAccount) -> float:
    """Sleep-proxy score sp_l = c_l * residual fraction, in [0, c_l]."""
    if not 0.0 <= c_l <= 1.0:
        raise ValueError(f"c_l must lie in [0, 1], got {c_l}")
    if account.e_max <= 0:
        raise ValueError("compute_sp_score requires e_max > 0")
    return c_l * (account.e_residual / account.e_max)


def assign_sp(
    members: Iterable[NodeId],
    ch: NodeId,
    scores: Mapping[NodeId, float],
    ledger: ServiceLedger,
) -> NodeId:
    """Pick the SP for the round and record it in the service ledger.

    Among members at the minimum SP-service count, the highest sp_l wins
    (ties to the smallest id). The CH is skipped unless it alone holds the
    minimum count (or is the only member), which rotates the role through
    every node over time.
    """
    ordered = sorted(members)
    if not ordered:
        raise ValueError("cannot assign a sleep proxy in an empty cluster")
    low = min(ledger.sp_count(n) for n in ordered)
    pool = [n for n in ordered if ledger.sp_count(n) == low and n != ch]
    if not pool:
        pool = [ch]
    chosen = max(pool, key=lambda n: (scores[n], -n))
    ledger.record_sp(chosen)
    return chosen


def elect_roles(
    members: Iterable[NodeId],
    energies: Mapping[NodeId, EnergyAccount],
    ledger: ServiceLedger,
) -> Cluster:
    """Run CH election then SP assignment for one cluster for one round."""
    member_set = frozenset(members)
    ch = select_ch(member_set, energies)
    shares = candidacy_shares(member_set, energies)
    scores = {n: compute_sp_score(shares[n], energies[n]) for n in sorted(member_set)}
    sp = assign_sp(member_set, ch, scores, ledger)
    ledger.record_ch(ch)
    return Cluster(members=member_set, ch=ch, sp=sp)


def form_clusters(
    graph: ConnectivityGraph,
    energies: Mapping[NodeId, EnergyAccount],
    ledger: ServiceLedger,
    groups: list[set[NodeId]] | None = None,
) -> list[Cluster]:
    """Form clusters for a round and elect roles in each.

    Default policy: one cluster per connected component. ``groups`` overrides
    the grouping (e.g. a grid partition); empty groups are skipped.
    """
    if groups is None:
        groups = connected_components(graph)
    clusters: list[Cluster] = []
    for group in sorted((g for g in groups if g), key=min):
        clusters.append(elect_roles(group, energies, ledger))
    return clusters
