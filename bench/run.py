"""ecsim benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload ta-30 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. The workload's panel of simulations (see workloads.py) is replayed
in passes, the first always and each further one only while it is expected to
end within ``--seconds``. Each simulation's set-up and run times are scaled to
the reference machine's speed (see ``calibrate``) and the median over its
replays is taken; the metrics add these up over the panel.

``--trace 0`` prints the end-to-end metrics (set-up time, run time, peak
memory). ``--trace 1`` runs the panel once untraced and once with every
layer's public functions wrapped, and prints the per-layer counts and self
times with the tracing overhead. Every simulation's output is checked (see
checks.py); a simulation that raises or fails a check counts as failed. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks
import layers
from workloads import WORKLOADS, Op

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT = BENCH_DIR / "out"

# The calibration loop's time on the reference machine (2-core x86-64 host,
# Python 3.11) when nothing else loads its cores.
REFERENCE_CALIBRATION_S = 0.0140


def calibrate() -> float:
    """Host time of a fixed interpreter-bound loop that uses none of the
    program: heap, dict and float work like a discrete-event loop's.

    On a shared host other load slows every process by a factor that changes
    within seconds; the loop, timed next to each simulation, measures that
    factor so that it can be divided out.
    """
    start = perf_counter()
    heap: list[tuple[float, int]] = []
    table: dict[int, float] = {}
    for i in range(20_000):
        heapq.heappush(heap, ((i * 7919) % 1000 * 0.001, i))
        table[i % 97] = table.get(i % 97, 0.0) + i * 0.5
        if len(heap) > 64:
            heapq.heappop(heap)
    return perf_counter() - start


def import_program() -> None:
    """Put the checkout's ``src/`` first on the import path, or stop."""
    if not (SRC / "ecsim" / "__init__.py").is_file():
        raise SystemExit(f"bench: no program sources at {SRC / 'ecsim'}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import ecsim

    if Path(ecsim.__file__).resolve().parent != (SRC / "ecsim").resolve():
        raise SystemExit(f"bench: imported ecsim from {ecsim.__file__}, not from {SRC}")


@dataclass
class OpResult:
    setup_s: float
    run_s: float
    speed: float = 1.0  # reference calibration time / calibration time next to this run
    problems: list[str] = field(default_factory=list)
    packets: int = 0
    deaths: int = 0
    trace_rows: int = 0
    bytes_written: int = 0
    network: dict = field(default_factory=dict)


class Bench:
    """Runs a workload's operations, writes their outputs and checks them."""

    def __init__(self, name: str, ops: list[Op], out: Path = OUT):
        self.ops = ops
        self.group_size = Counter(op.group for op in ops)
        self.out = out / name
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.scenario_file = self.out / "scenario.json"
        self.digests: dict[str, str] = {}
        compared = [op.raw for op in ops if op.compare]
        if compared:
            self.scenario_file.write_text(json.dumps(compared[0], indent=2))

    def set_up(self, op: Op):
        from ecsim.config import from_dict, parse_config
        from ecsim.engine import Simulation

        if op.compare:
            # As `ecsim compare` does: parse the file, then swap the scheme in.
            raw = parse_config(self.scenario_file).to_dict()
            raw["scheme"] = {"kind": op.scheme}
            config = from_dict(raw)
        else:
            config = from_dict(op.scenario())
        return Simulation(config, op.seed, collect_trace=op.compare)

    def run_op(self, op: Op, group: list) -> OpResult:
        from ecsim.report import compare, compare_csv, trace_csv
        from ecsim.topology import connected_components

        start = perf_counter()
        sim = self.set_up(op)
        setup_s = perf_counter() - start
        problems = checks.check_connected(connected_components(sim.graph))

        start = perf_counter()
        report = sim.run()
        outdir = self.out / op.group / op.scheme
        outdir.mkdir(parents=True, exist_ok=True)
        text = report.to_json()
        written = [("report.json", text), ("timeseries.csv", report.timeseries_csv())]
        if op.compare:
            written.append(("trace.csv", trace_csv(sim.trace)))
        for name, body in written:
            (outdir / name).write_text(body)
        group.append((op.scheme, report))
        if op.compare and len(group) == self.group_size[op.group]:
            rows = compare_csv(compare(group, baseline=group[0][0]))
            (self.out / op.group / "compare.csv").write_text(rows)
            written.append(("compare.csv", rows))
        run_s = perf_counter() - start

        scenario = op.scenario()
        data = json.loads(text)
        problems += checks.check_report(data, scenario)
        if op.compare:
            with open(outdir / "trace.csv") as lines:
                problems += checks.check_trace(checks.read_trace(lines), data, scenario)
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.digests.setdefault(f"{op.seed}/{op.key}", digest) != digest:
            problems.append("report.json differs from an earlier run of the same seed")
        return OpResult(
            setup_s=setup_s,
            run_s=run_s,
            problems=problems,
            packets=len(sim.packets),
            deaths=sum(1 for node in sim.nodes.values() if not node.alive),
            trace_rows=len(sim.trace) if op.compare else 0,
            bytes_written=sum(len(body.encode()) for _, body in written),
            network=data["network"],
        )

    def run_pass(self, ops: list[Op]) -> list[OpResult | None]:
        """Run the ops once each, in order; None stands for an op that raised."""
        groups: dict[str, list] = {}
        results: list[OpResult | None] = []
        before = calibrate()
        for op in ops:
            try:
                result = self.run_op(op, groups.setdefault(op.group, []))
            except Exception:  # noqa: BLE001 - a raising op counts as failed
                print(f"bench: {op.key} seed {op.seed} raised:", file=sys.stderr)
                traceback.print_exc()
                result = None
            after = calibrate()
            if result is not None:
                result.speed = 2.0 * REFERENCE_CALIBRATION_S / (before + after)
            before = after
            if result is not None and result.problems:
                for problem in result.problems:
                    print(f"bench: {op.key} seed {op.seed}: {problem}", file=sys.stderr)
            results.append(result)
        return results


def failures(results: list[OpResult | None]) -> int:
    return sum(1 for r in results if r is None or r.problems)


def summed_median(passes: list[list[OpResult | None]], attr: str, scaled: bool) -> float:
    """Sum over ops of each op's median time over the passes in which it
    succeeded, each time scaled to the reference machine's speed if asked."""
    total = 0.0
    for i in range(len(passes[0])):
        values = [
            getattr(p[i], attr) * (p[i].speed if scaled else 1.0)
            for p in passes
            if p[i] is not None
        ]
        if values:
            total += statistics.median(values)
    return total


def measure(bench: Bench, seconds: float) -> tuple[dict, list]:
    """End-to-end metrics from untraced passes."""
    passes = []
    start = perf_counter()
    while True:
        began = perf_counter()
        passes.append(bench.run_pass(bench.ops))
        now = perf_counter()
        if now - start + (now - began) > seconds:
            break
    results = [r for p in passes for r in p]
    if len(passes) == 1:
        # Replay the first group anyway, to check that its outputs repeat.
        results += bench.run_pass(bench.ops[: bench.group_size[bench.ops[0].group]])
    print(
        f"unscaled host time: setup {summed_median(passes, 'setup_s', False):.4f} s, "
        f"run {summed_median(passes, 'run_s', False):.4f} s"
    )
    metrics = {
        "setup_s": (summed_median(passes, "setup_s", True), "s"),
        "run_s": (summed_median(passes, "run_s", True), "s"),
        "peak_mem_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, results


def unit_of(name: str) -> str:
    if name == "engine.events_per_s":
        return "1/s"
    if name.endswith("_s") or name.startswith("engine.step_s."):
        return "s"
    if name in ("engine.tx_per_arrival", "engine.deaths_per_prediction", "cache.stores_per_packet"):
        return "ratio"
    if name == "report.mean_consumption_j":
        return "J"
    if name == "report.bytes_written":
        return "bytes"
    return "count"


def trace_layers(bench: Bench) -> tuple[dict, list]:
    """Per-layer metrics: one untraced pass, then one traced pass."""
    with layers.Tracer():
        pass  # stops here, before any work, if a traced name is gone
    plain = bench.run_pass(bench.ops)
    tracer = layers.Tracer()
    with tracer:
        traced = bench.run_pass(bench.ops)
    done = [r for r in traced if r is not None]
    values = tracer.metrics()
    plain_run_s = sum(r.run_s for r in plain if r is not None)
    values["engine.events_per_s"] = values["engine.events"] / plain_run_s if plain_run_s else 0.0
    predictions = values["engine.events.node-death"]
    deaths = sum(r.deaths for r in done)
    values["engine.deaths_per_prediction"] = deaths / predictions if predictions else 0.0
    values["traffic.packets"] = sum(r.packets for r in done)
    values["report.trace_rows"] = sum(r.trace_rows for r in done)
    values["report.bytes_written"] = sum(r.bytes_written for r in done)
    values["report.delivered_packets"] = sum(r.network["delivered_packets"] for r in done)
    values["report.in_flight_at_end"] = sum(r.network["in_flight_at_end"] for r in done)
    values["report.mean_consumption_j"] = (
        statistics.fmean(r.network["mean_per_device_consumption_j"] for r in done) if done else 0.0
    )
    values["report.sleep_assignments"] = sum(r.network["sleep_assignments"] for r in done)
    values["trace.overhead_s"] = sum(r.run_s for r in done) - plain_run_s
    return {name: (value, unit_of(name)) for name, value in values.items()}, plain + traced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()

    began = perf_counter()
    bench = Bench(args.workload, WORKLOADS[args.workload](args.seed))
    if args.trace:
        metrics, results = trace_layers(bench)
    else:
        metrics, results = measure(bench, args.seconds)
    attempted, failed = len(results), failures(results)
    print(
        f"{args.workload} seed {args.seed}: {len(bench.ops)} simulations per pass, "
        f"{attempted} attempted, {failed} failed, {perf_counter() - began:.1f} s"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
