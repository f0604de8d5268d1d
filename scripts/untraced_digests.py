"""Check the untraced outputs of the byte-identity check against the
committed digests.

The benchmark times runs without a trace, while ``output_digests.py`` runs
every simulation with one. This script runs the same simulations without
``--trace`` into OUT and compares the sha256 of each ``report.json``,
``timeseries.csv`` and ``compare.csv`` with its line in
``scripts/output_sha256.txt``: a trace changes none of them. It exits 1 when
a file differs, or when a file is missing on either side:

    python3 scripts/untraced_digests.py OUT
"""

from __future__ import annotations

import sys
from pathlib import Path

from output_digests import ROOT, digests, run_jobs

COMMITTED = ROOT / "scripts" / "output_sha256.txt"


def main_untraced(out: Path) -> int:
    if out.exists() and any(out.iterdir()):
        sys.exit(f"{out} is not empty: its files would be compared too")
    out.mkdir(parents=True, exist_ok=True)
    run_jobs(out, trace=False)
    expected = {}
    for line in COMMITTED.read_text().splitlines():
        digest, name = line.split("  ", 1)
        if Path(name).name != "trace.csv":
            expected[name] = digest
    got = digests(out)
    differing = sorted(n for n in expected.keys() | got.keys() if expected.get(n) != got.get(n))
    for name in differing:
        print(f"differs: {name}")
    print(f"{len(expected)} compared, {len(differing)} differing")
    return 1 if differing else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python3 scripts/untraced_digests.py OUT")
    sys.exit(main_untraced(Path(sys.argv[1])))
