"""Write the sha256 of every output of the byte-identity check to OUT/sha256.txt.

The check is the 15 acceptance runs (``SCENARIO`` from
``tests/test_acceptance.py`` under traffic-aware, periodic and coordinated,
seeds 1-5) and ``ecsim compare`` of all four schemes on
``scenarios/demo.json`` with seed 42, every run with its trace. That makes
58 files; two checkouts give the same outputs when their ``sha256.txt`` files
do not differ:

    python3 scripts/output_digests.py OUT
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
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


def _run(argv: list[str]) -> None:
    code = main(argv)
    if code != 0:
        raise RuntimeError(f"ecsim {' '.join(argv)} exited {code}")


def main_digests(out: Path) -> int:
    if out.exists() and any(out.iterdir()):
        sys.exit(f"{out} is not empty: its files would be digested too")
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "acceptance.json"
        scenario.write_text(json.dumps(_acceptance_scenario()))
        jobs = [
            ["run", "--config", str(scenario), "--seed", str(seed), "--scheme", kind,
             "--out", str(out / "acceptance" / kind / f"seed={seed}"), "--trace", "--quiet"]
            for kind in ACCEPTANCE_SCHEMES
            for seed in ACCEPTANCE_SEEDS
        ]
        jobs.append(
            ["compare", "--config", str(ROOT / "scenarios" / "demo.json"), "--seed", "42",
             "--schemes", COMPARE_SCHEMES, "--out", str(out / "compare"), "--trace", "--quiet"]
        )
        with ProcessPoolExecutor(max_workers=min(len(jobs), os.cpu_count() or 1)) as pool:
            list(pool.map(_run, jobs))
    lines = []
    for path in sorted(p for p in out.rglob("*") if p.is_file() and p.name != "sha256.txt"):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        lines.append(f"{digest}  {path.relative_to(out).as_posix()}")
    (out / "sha256.txt").write_text("\n".join(lines) + "\n")
    print(f"{len(lines)} digests -> {out / 'sha256.txt'}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python3 scripts/output_digests.py OUT")
    sys.exit(main_digests(Path(sys.argv[1])))
