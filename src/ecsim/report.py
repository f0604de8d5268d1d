"""Metric accumulation, deterministic serialization and scheme comparison."""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ecsim.core import RadioMode, fraction_remaining

if TYPE_CHECKING:
    from ecsim.engine import Simulation

# Terminal packet states: the engine ends every packet in one of them.
DELIVERED = "delivered"
DELIVERED_LATE = "delivered-late"
LOST_DEADLINE = "lost-deadline"
LOST_DEAD = "lost-dead"
LOST_NO_CACHE = "lost-no-cache"

# Metrics carried into scheme comparison tables, in output order.
COMPARE_METRICS = (
    "mean_per_device_consumption_j",
    "delivery_ratio",
    "throughput_bps",
    "mean_end_to_end_delay_s",
    "mean_network_power_uw",
    "first_death_s",
    "sleeping_dst_delivery_ratio",
)


@dataclass
class MetricsReport:
    """Per-node and network-wide results of one simulation run."""

    meta: dict
    per_node: dict
    network: dict
    timeseries: list

    def to_dict(self) -> dict:
        return {"meta": self.meta, "per_node": self.per_node, "network": self.network}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def timeseries_csv(self) -> str:
        lines = ["time,alive_fraction,total_residual_j"]
        for t, frac, residual in self.timeseries:
            lines.append(f"{t:.6f},{frac!r},{residual!r}")
        return "\n".join(lines) + "\n"


def scenario_fingerprint(config_dict: dict) -> str:
    """Stable digest of a scenario, excluding the scheme under test."""
    trimmed = {k: v for k, v in config_dict.items() if k != "scheme"}
    blob = json.dumps(trimmed, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def finalize(sim: "Simulation") -> MetricsReport:
    """Derive the full report from a finished simulation."""
    config_dict = sim.config.to_dict()
    per_node: dict[str, dict] = {}
    total_consumed = 0.0
    for nid, node in sim.nodes.items():
        account = node.account
        consumed = account.e_max - account.e_residual
        total_consumed += consumed
        lifetime = node.death_time if node.death_time is not None else sim.horizon
        per_node[str(nid)] = {
            "consumed_j": consumed,
            "residual_j": account.e_residual,
            "fraction_remaining": fraction_remaining(account),
            "lifetime_s": lifetime,
            "time_in_mode_s": {mode.value: node.time_in_mode[mode] for mode in RadioMode},
            "sp_rounds": sim.plane.service_ledger.sp_count(nid),
            "ch_rounds": sim.plane.service_ledger.ch_count(nid),
        }

    node_count = len(sim.nodes)
    generated = len(sim.work)
    counts = Counter(work.state for work in sim.work.values())  # None: in flight
    delivered = counts[DELIVERED]
    arrived = delivered + counts[DELIVERED_LATE]  # packets whose delay is in delay_sum
    ratio = delivered / generated if generated else 0.0
    sleeping = [work.state for work in sim.work.values() if work.dst_asleep]
    sleeping_delivered = sleeping.count(DELIVERED)
    sleeping_ratio = sleeping_delivered / len(sleeping) if sleeping else None
    deaths = [n.death_time for n in sim.nodes.values() if n.death_time is not None]
    alive = sum(1 for n in sim.nodes.values() if n.alive)
    network = {
        "generated_packets": generated,
        "delivered_packets": delivered,
        "delivered_late_packets": counts[DELIVERED_LATE],
        "delivery_ratio": ratio,
        "throughput_bps": sim.delivered_bits_ok / sim.horizon if sim.horizon > 0 else 0.0,
        "mean_end_to_end_delay_s": sim.delay_sum / arrived if arrived else None,
        "total_consumed_j": total_consumed,
        "mean_per_device_consumption_j": total_consumed / node_count,
        "mean_network_power_uw": (
            total_consumed / sim.horizon * 1e6 if sim.horizon > 0 else 0.0
        ),
        "first_death_s": min(deaths, default=None),
        "alive_fraction_end": alive / node_count,
        "lost": {
            "deadline": counts[LOST_DEADLINE],
            "dead": counts[LOST_DEAD],
            "no_cache": counts[LOST_NO_CACHE],
        },
        "in_flight_at_end": counts[None],
        "sleeping_dst": {
            "generated": len(sleeping),
            "delivered": sleeping_delivered,
        },
        "sleeping_dst_delivery_ratio": sleeping_ratio,
        "sleep_assignments": len(sim.plane.sleep_audit),
    }
    meta = {
        "seed": sim.seed,
        "scheme": sim.config.scheme.name,
        "horizon_s": sim.horizon,
        "node_count": len(sim.nodes),
        "scenario_fingerprint": scenario_fingerprint(config_dict),
        "config": config_dict,
    }
    return MetricsReport(
        meta=meta, per_node=per_node, network=network, timeseries=list(sim.timeseries)
    )


def compare(reports: list[tuple[str, MetricsReport]], baseline: str | None = None) -> list[dict]:
    """Long-format comparison rows: one per (metric, scheme) with % delta vs
    the baseline scheme (first entry by default)."""
    if len(reports) < 2:
        raise ValueError("compare needs at least two reports")
    fingerprints = {r.meta["scenario_fingerprint"] for _, r in reports}
    seeds = {r.meta["seed"] for _, r in reports}
    if len(fingerprints) != 1 or len(seeds) != 1:
        raise ValueError("compared reports must share scenario and seed")
    baseline_name = baseline if baseline is not None else reports[0][0]
    by_name = dict(reports)
    if baseline_name not in by_name:
        raise ValueError(f"baseline scheme {baseline_name!r} not among reports")
    base = by_name[baseline_name]
    rows = []
    for metric in COMPARE_METRICS:
        base_value = base.network.get(metric)
        for name, rep in reports:
            value = rep.network.get(metric)
            delta = None
            if (
                isinstance(base_value, (int, float))
                and isinstance(value, (int, float))
                and base_value != 0
            ):
                delta = (value - base_value) / base_value * 100.0
            rows.append(
                {
                    "metric": metric,
                    "scheme": name,
                    "value": value,
                    "delta_vs_baseline_pct": delta,
                }
            )
    return rows


def compare_csv(rows: list[dict]) -> str:
    lines = ["metric,scheme,value,delta_vs_baseline_pct"]
    for row in rows:
        value = "" if row["value"] is None else repr(row["value"])
        delta = "" if row["delta_vs_baseline_pct"] is None else repr(row["delta_vs_baseline_pct"])
        lines.append(f"{row['metric']},{row['scheme']},{value},{delta}")
    return "\n".join(lines) + "\n"


def trace_csv(rows: list[tuple[float, int, str, str]]) -> str:
    lines = ["time,node,kind,detail"]
    # An instant writes about ten rows: format its time once.
    last, stamp = None, ""
    for t, node, kind, detail in rows:
        if t != last:
            last, stamp = t, f"{t:.6f}"
        lines.append(f"{stamp},{node},{kind},{detail}")
    return "\n".join(lines) + "\n"
