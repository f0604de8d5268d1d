"""Write the sha256 of every output of the byte-identity check to OUT/sha256.txt.

The check is the 15 acceptance runs (``SCENARIO`` from
``tests/test_acceptance.py`` under traffic-aware, periodic and coordinated,
seeds 1-5) and ``ecsim compare`` of all four schemes on
``scenarios/demo.json`` with seed 42, ``ecsim compare`` of all four
schemes on 12 generated small scenarios and on one large one, every run
with its trace. The generated ones reach what the others rarely do: a
disabled or full cache, and nodes that die while a packet is on the air. The
large one moves nodes about once a second on a 100-node graph in grid
clusters until batteries run out. That makes 227 files; two checkouts give
the same outputs when their ``sha256.txt`` files do not differ:

    python3 scripts/output_digests.py OUT

The benchmark times runs without a trace. After the traced runs, the script
runs the same jobs without ``--trace`` in a temporary directory and exits 1
when a ``report.json``, ``timeseries.csv`` or ``compare.csv`` differs from
its traced twin, or is missing on either side: a trace changes none of them.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import random
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from ecsim.cli import main  # noqa: E402

ACCEPTANCE_SCHEMES = ("traffic-aware", "periodic", "coordinated")
ACCEPTANCE_SEEDS = (1, 2, 3, 4, 5)
COMPARE_SCHEMES = "traffic-aware,periodic,coordinated,always-on"
GENERATED_COUNT = 12

# Many moves and deaths on a large graph, under every scheme.
LARGE_SEED = 5
LARGE = {
    "grid": {"width": 8, "height": 8},
    "nodes": 100,
    "initial_energy_j": 45.0,
    "round_s": 10.0,
    "horizon_s": 200.0,
    "traffic_horizon_s": 190.0,
    "p_move": 0.01,
    "flows": [
        {"src": 0, "dst": 57, "rate_pps": 0.5},
        {"src": 13, "dst": 88, "rate_pps": 0.5},
        {"src": 31, "dst": 4, "rate_pps": 0.5},
        {"src": 70, "dst": 22, "rate_pps": 0.5},
        {"src": 95, "dst": 40, "rate_pps": 0.5},
        {"src": 46, "dst": 99, "rate_pps": 0.5},
    ],
    "cluster": {"policy": "grid", "partition": 2},
}


def _acceptance_scenario() -> dict:
    """``SCENARIO`` from the acceptance tests, read from their source so that
    an interpreter without pytest can run this script."""
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SCENARIO" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError("tests/test_acceptance.py assigns no SCENARIO")


def _generated_scenarios(count: int) -> list[tuple[dict, int]]:
    """``count`` (scenario, seed) pairs drawn with a fixed seed over the ranges
    of ``small_scenarios`` in ``tests/test_invariants.py``, all on 20 kb/s
    links, so that packets stay on the air long enough for nodes to die
    while they send or receive."""
    rng = random.Random(20_000)
    out = []
    for _ in range(count):
        nodes = rng.randint(4, 12)
        flows = []
        for _ in range(rng.randint(1, 3)):
            src = rng.randint(0, nodes - 1)
            dst = rng.randint(0, nodes - 2)
            flows.append(
                {"src": src, "dst": dst + (dst >= src), "rate_pps": rng.uniform(0.2, 1.5)}
            )
        raw = {
            "grid": {"width": rng.randint(2, 4), "height": rng.randint(2, 4)},
            "nodes": nodes,
            "initial_energy_j": rng.uniform(10.0, 80.0),
            "round_s": 10.0,
            "horizon_s": 100.0,
            "traffic_horizon_s": 90.0,
            "p_move": rng.uniform(0.0, 0.05),
            "flows": flows,
            # One to five packets of 8,000 bits fill the cache.
            "cache": {"enabled": rng.randint(0, 3) > 0, "capacity_bits": 8_000 * rng.randint(1, 5)},
            "link_bps": 20_000.0,
        }
        if rng.random() < 0.5:
            raw["cluster"] = {"policy": "grid", "partition": rng.randint(1, 2)}
        out.append((raw, rng.randint(0, 10_000)))
    return out


def _run(argv: list[str]) -> None:
    code = main(argv)
    if code != 0:
        raise RuntimeError(f"ecsim {' '.join(argv)} exited {code}")


def run_jobs(out: Path, trace: bool = True) -> None:
    """Run every simulation of the check, writing its outputs under ``out``;
    without ``trace``, no run writes a trace."""
    traced = ["--trace"] if trace else []
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "acceptance.json"
        scenario.write_text(json.dumps(_acceptance_scenario()))
        jobs = [
            ["run", "--config", str(scenario), "--seed", str(seed), "--scheme", kind,
             "--out", str(out / "acceptance" / kind / f"seed={seed}"), "--quiet"]
            for kind in ACCEPTANCE_SCHEMES
            for seed in ACCEPTANCE_SEEDS
        ]
        jobs.append(
            ["compare", "--config", str(ROOT / "scenarios" / "demo.json"), "--seed", "42",
             "--schemes", COMPARE_SCHEMES, "--out", str(out / "compare"), "--quiet"]
        )
        large = Path(tmp) / "large.json"
        large.write_text(json.dumps(LARGE))
        jobs.append(
            ["compare", "--config", str(large), "--seed", str(LARGE_SEED), "--schemes",
             COMPARE_SCHEMES, "--out", str(out / "large"), "--quiet"]
        )
        for index, (raw, seed) in enumerate(_generated_scenarios(GENERATED_COUNT)):
            path = Path(tmp) / f"generated-{index:02d}.json"
            path.write_text(json.dumps(raw))
            jobs.append(
                ["compare", "--config", str(path), "--seed", str(seed), "--schemes",
                 COMPARE_SCHEMES, "--out", str(out / "generated" / f"{index:02d}"), "--quiet"]
            )
        with ProcessPoolExecutor(max_workers=min(len(jobs), os.cpu_count() or 1)) as pool:
            list(pool.map(_run, [job + traced for job in jobs]))


def digests(out: Path) -> dict[str, str]:
    """Relative path -> sha256 of every file under ``out``, but ``sha256.txt``."""
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(p for p in out.rglob("*") if p.is_file() and p.name != "sha256.txt")
    }


def main_digests(out: Path) -> int:
    if out.exists() and any(out.iterdir()):
        sys.exit(f"{out} is not empty: its files would be digested too")
    out.mkdir(parents=True, exist_ok=True)
    run_jobs(out)
    traced = digests(out)
    lines = [f"{digest}  {name}" for name, digest in traced.items()]
    (out / "sha256.txt").write_text("\n".join(lines) + "\n")
    print(f"{len(lines)} digests -> {out / 'sha256.txt'}")
    expected = {name: digest for name, digest in traced.items() if Path(name).name != "trace.csv"}
    with tempfile.TemporaryDirectory() as tmp:
        run_jobs(Path(tmp), trace=False)
        untraced = digests(Path(tmp))
    differing = sorted(n for n in expected.keys() | untraced.keys()
                       if expected.get(n) != untraced.get(n))
    for name in differing:
        print(f"untraced run differs: {name}")
    print(f"{len(expected)} untraced outputs compared, {len(differing)} differing")
    return 1 if differing else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python3 scripts/output_digests.py OUT")
    sys.exit(main_digests(Path(sys.argv[1])))
