"""Correctness checks on one simulation run's outputs.

Every check compares the program's output with a value the benchmark
computes itself or with a property the simulated method must have; none
compares with stored output. Each function returns a list of problems, empty
when the check passes.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

ENERGY_TOL_J = 1e-6
TIME_TOL_S = 1e-6
THROUGHPUT_REL_TOL = 1e-9
MODES = ("tx", "rx", "idle", "sleep")
TERMINAL_ROWS = {
    "packet-delivered": ("delivered_packets",),
    "packet-delivered-late": ("delivered_late_packets",),
    "packet-lost-deadline": ("lost", "deadline"),
    "packet-lost-dead": ("lost", "dead"),
    "packet-lost-no-cache": ("lost", "no_cache"),
}


def power_by_mode(scenario: dict) -> dict[str, float]:
    """Mode powers in W: the scenario's, else the program's documented
    defaults (WaveLAN card figures)."""
    energy = scenario.get("energy", {})
    return {
        "tx": energy.get("p_tx", 1.4),
        "rx": energy.get("p_rx", 1.0),
        "idle": energy.get("p_idle", 0.83),
        "sleep": energy.get("p_sleep", 0.13),
    }


def check_energy(report: dict, scenario: dict) -> list[str]:
    """Per node: consumed = sum of mode time x mode power, consumed +
    residual = initial energy, and the mode times add up to the lifetime."""
    power = power_by_mode(scenario)
    initial = scenario["initial_energy_j"]
    problems = []
    for nid, node in report["per_node"].items():
        times = node["time_in_mode_s"]
        billed = sum(times[m] * power[m] for m in MODES)
        if abs(node["consumed_j"] - billed) > ENERGY_TOL_J:
            problems.append(f"node {nid}: consumed_j {node['consumed_j']!r} != billed {billed!r}")
        if abs(node["consumed_j"] + node["residual_j"] - initial) > ENERGY_TOL_J:
            problems.append(f"node {nid}: consumed_j + residual_j != initial {initial!r}")
        if abs(sum(times[m] for m in MODES) - node["lifetime_s"]) > TIME_TOL_S:
            problems.append(f"node {nid}: mode times do not add up to lifetime_s")
    return problems


def check_packets(report: dict, scenario: dict) -> list[str]:
    """Throughput matches the delivered count, and no packet is counted in
    more than one terminal state."""
    net = report["network"]
    problems = []
    sizes = {flow.get("packet_bits", 8000) for flow in scenario["flows"]}
    if len(sizes) != 1:
        problems.append(f"flows mix packet sizes {sorted(sizes)}; throughput check needs one")
    else:
        carried = net["throughput_bps"] * report["meta"]["horizon_s"]
        expected = sizes.pop() * net["delivered_packets"]
        if abs(carried - expected) > THROUGHPUT_REL_TOL * max(1.0, expected):
            problems.append(f"throughput x horizon {carried!r} != bits delivered {expected}")
    generated = net["generated_packets"]
    if generated <= 0:
        problems.append("no packets generated")
    ended = net["delivered_packets"] + net["delivered_late_packets"] + sum(net["lost"].values())
    if ended > generated:
        problems.append(f"{ended} packets ended but only {generated} generated")
    return problems


def off_window(scheme: dict) -> tuple[float, float]:
    """(period, off-window length) of a duty-cycle baseline, with the
    program's documented defaults."""
    if scheme["kind"] == "periodic":
        period = scheme.get("period_s", 2.0)
        return period, (1.0 - scheme.get("duty", 0.25)) * period
    listen, sleep = scheme.get("listen_s", 0.5), scheme.get("sleep_s", 1.5)
    return listen + sleep, sleep


def check_scheme(report: dict, scenario: dict) -> list[str]:
    """Properties each scheme must have, from its definition."""
    scheme = scenario["scheme"]
    problems = []
    if scheme["kind"] == "always-on":
        p_idle = power_by_mode(scenario)["idle"]
        for nid, node in report["per_node"].items():
            if node["time_in_mode_s"]["sleep"] != 0.0:
                problems.append(f"always-on node {nid} slept")
            if node["consumed_j"] < p_idle * node["lifetime_s"] - ENERGY_TOL_J:
                problems.append(f"always-on node {nid} consumed less than idle power allows")
    elif scheme["kind"] in ("periodic", "coordinated"):
        # Over a lifetime L the off windows cover share x L, give or take one
        # partial window at either end. A node may only lose sleep to its own
        # transfers, which hold its radio past the start of an off window.
        period, off = off_window(scheme)
        for nid, node in report["per_node"].items():
            times = node["time_in_mode_s"]
            nominal = off / period * node["lifetime_s"]
            if times["sleep"] > nominal + off + TIME_TOL_S:
                problems.append(f"{scheme['kind']} node {nid} slept beyond its off windows")
            if times["sleep"] < nominal - off - times["tx"] - times["rx"] - TIME_TOL_S:
                problems.append(
                    f"{scheme['kind']} node {nid} lost more sleep than its own transfers explain"
                )
    return problems


def check_report(report: dict, scenario: dict) -> list[str]:
    return (
        check_energy(report, scenario)
        + check_packets(report, scenario)
        + check_scheme(report, scenario)
    )


def check_connected(components: list) -> list[str]:
    """Right after construction the topology must be one component."""
    if len(components) != 1:
        return [f"initial topology has {len(components)} components, not 1"]
    return []


def read_trace(lines: Iterable[str]) -> Iterable[tuple[int, str, str]]:
    """(node, kind, detail) rows of a trace.csv, header skipped."""
    it = iter(lines)
    next(it, None)
    for line in it:
        _, node, kind, detail = line.rstrip("\n").split(",", 3)
        yield int(node), kind, detail


def _fields(detail: str) -> dict[str, str]:
    return dict(part.split("=", 1) for part in detail.split(";"))


def check_trace(rows: Iterable[tuple[int, str, str]], report: dict, scenario: dict) -> list[str]:
    """The trace agrees with the report: mode rows replay each node's
    consumption, terminal rows match the packet counts, and every sleep grant
    has realized <= assigned < round_s."""
    round_s = scenario.get("round_s", 10.0)
    replayed: dict[int, float] = {}
    terminal: Counter[str] = Counter()
    problems = []
    for node, kind, detail in rows:
        if kind == "mode":
            replayed[node] = replayed.get(node, 0.0) + float(_fields(detail)["energy"])
        elif kind in TERMINAL_ROWS:
            terminal[kind] += 1
        elif kind == "sleep-grant":
            grant = _fields(detail)
            assigned, realized = float(grant["assigned"]), float(grant["realized"])
            if not realized <= assigned < round_s:
                problems.append(
                    f"node {node}: sleep grant realized {realized!r}, assigned {assigned!r}"
                )
    for nid, node in report["per_node"].items():
        if abs(replayed.get(int(nid), 0.0) - node["consumed_j"]) > ENERGY_TOL_J:
            problems.append(f"node {nid}: trace mode rows do not sum to consumed_j")
    net = report["network"]
    for kind, path in TERMINAL_ROWS.items():
        value = net
        for part in path:
            value = value[part]
        if terminal[kind] != value:
            problems.append(f"{terminal[kind]} {kind} rows but the report counts {value}")
    return problems
