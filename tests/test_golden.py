"""Byte contract: the demo scenario's outputs under every scheme are pinned.

`ecsim compare` runs `scenarios/demo.json` cut to a 60 s horizon, seed 42,
under all four schemes with traces on. The sha256 of every file it writes
must match the digests below. A change that is meant only to make the
simulator faster must leave them as they are. A change that alters
behaviour on purpose records the new digests and says why in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

from ecsim.cli import main

DEMO = Path(__file__).resolve().parents[1] / "scenarios" / "demo.json"
SCHEMES = ("traffic-aware", "periodic", "coordinated", "always-on")

GOLDEN = {
    "compare.csv": "38c2e51af4d8c9192afd310b47479828d4984a1bbf886e4846aac4cf8c4d41b9",
    "traffic-aware/report.json": (
        "ebe34c718b6c096fb2242b9540136679495adebe940289daa7d6d4363938c77c"
    ),
    "traffic-aware/timeseries.csv": (
        "7e758f668c41dcfbc9eabf7435e63ae6c91c36ed11cfe60efd70191cb233d2c1"
    ),
    "traffic-aware/trace.csv": (
        "0ffe3b2eff27174fd5097003dd7dfe996a0d1ced98612e1370f0c827f4cc0ccf"
    ),
    "periodic/report.json": (
        "cf96b0e70a63fda31ef165109fd2979de8660960cd0c2cce4a565a89d884d7d0"
    ),
    "periodic/timeseries.csv": (
        "32599f071c9f5e9ef3eae7d198bba6a5c82680ec9f8197236703c151bec64c96"
    ),
    "periodic/trace.csv": (
        "871898e46d7609dd6fcffefe7c3b867103b86d5d2706cc98a46bd0f7a60a69ac"
    ),
    "coordinated/report.json": (
        "b5a4028082359100f4676e18db7af5ac2a2fcff45edab89cdb497652f4834299"
    ),
    "coordinated/timeseries.csv": (
        "aced2a2e1d26917f4423b85afab1d172b3b12ef6613ed00c04fa6c09628694de"
    ),
    "coordinated/trace.csv": (
        "f026fbde3dd93e65d529bdad5d26120c2f86b0b4672f8dcbd623dc307692f0eb"
    ),
    "always-on/report.json": (
        "c338e18ad72ba3073fa40730c672ba9195840e39ea50b3ebbc31eda57dac01ea"
    ),
    "always-on/timeseries.csv": (
        "a3f248e80c02b4675f6baa68da6f1ae4823af41f743e02b334a2be42ead9b566"
    ),
    "always-on/trace.csv": (
        "e4e21e5ce68b3b41c8c2f0b23a883aaae6f808946482210ba3d8737836f7f935"
    ),
}


def test_demo_outputs_match_golden_digests(tmp_path):
    raw = json.loads(DEMO.read_text())
    raw["horizon_s"] = 60.0
    raw["traffic_horizon_s"] = 55.0
    config = tmp_path / "demo60.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    code = main([
        "compare", "--config", str(config), "--seed", "42",
        "--schemes", ",".join(SCHEMES), "--trace", "--out", str(out), "--quiet",
    ])
    assert code == 0
    written = sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file())
    assert written == sorted(GOLDEN)
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in GOLDEN}
    assert digests == GOLDEN
