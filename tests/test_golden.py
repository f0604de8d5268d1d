"""Byte contract: the demo scenario's outputs under every scheme are pinned.

`ecsim compare` runs `scenarios/demo.json`, seed 42, under all four schemes
with traces on, in three variants: cut to a 60 s horizon (no node dies);
with 25 J batteries over 100 s with faster mobility, so that nodes die under
every scheme and traffic-aware repairs the roles of dead cluster heads and
proxies; and split into a 2x2 grid of clusters with 40 J batteries and
frequent moves, so that traffic-aware wakes moved nodes and repairs roles
across several clusters. The sha256 of every file it writes must match the digests below. A
change that is meant only to make the simulator faster or smaller must leave
them as they are. A change that alters behaviour on purpose records the new
digests and says why in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from ecsim.cli import main

DEMO = Path(__file__).resolve().parents[1] / "scenarios" / "demo.json"
SCHEMES = ("traffic-aware", "periodic", "coordinated", "always-on")

GOLDEN = {
    "compare.csv": "5070d85a549e26f438975b8286d389f87c369992ff3ccbecb57fd2d4aa4d7db8",
    "traffic-aware/report.json": (
        "1ce3612a35c51f6e2f08a8aed143136d9391477082d8d57395abc2887fa16b13"
    ),
    "traffic-aware/timeseries.csv": (
        "3562644503fa9cec91428eb0df1f3eaa14fd7a220d38839ef9e82cf7c336b610"
    ),
    "traffic-aware/trace.csv": (
        "7a555f9859100f29e7eeff0999ca72236f89edf49c223b683624b98a74c9e0e7"
    ),
    "periodic/report.json": (
        "cf96b0e70a63fda31ef165109fd2979de8660960cd0c2cce4a565a89d884d7d0"
    ),
    "periodic/timeseries.csv": (
        "32599f071c9f5e9ef3eae7d198bba6a5c82680ec9f8197236703c151bec64c96"
    ),
    "periodic/trace.csv": (
        "48aa89458d28f59d750fc6264c542ef80f71feab34f2b2dd9f19741782f7420c"
    ),
    "coordinated/report.json": (
        "b5a4028082359100f4676e18db7af5ac2a2fcff45edab89cdb497652f4834299"
    ),
    "coordinated/timeseries.csv": (
        "aced2a2e1d26917f4423b85afab1d172b3b12ef6613ed00c04fa6c09628694de"
    ),
    "coordinated/trace.csv": (
        "2eee714d4fdaa9c6ef1b401c2d58c1a9cf3afb6e8403b1738336aa44493769a2"
    ),
    "always-on/report.json": (
        "eeb5094392253d6855149d15cd9ab09296dd942f89ae3574de8b60c119411cf6"
    ),
    "always-on/timeseries.csv": (
        "961cef27eb24d263e718f0115bda620607943a76e52e12e7dd28c60539290f26"
    ),
    "always-on/trace.csv": (
        "206ac4febf3ed2579f5f1f85276ff5fcc21ba05d8210c6356371d079a56b06e6"
    ),
}


# First deaths at 30-82 s depending on the scheme.
GOLDEN_DEATHS = {
    "compare.csv": "ec87536dad0f8e2d67a7d64e80d69647134c263d40a7322751f08d557c8df232",
    "traffic-aware/report.json": (
        "a7c2eba9dce748c9d8c0dd32c5ae6d3967b1a4a0df9eaea04f1d8a9c4ee1f2e3"
    ),
    "traffic-aware/timeseries.csv": (
        "c529871690bf42d3f2646ad754a2543a9912183645746382438e24184a0174f4"
    ),
    "traffic-aware/trace.csv": (
        "9644bd6cd0baf6e4086195530d9f384fb2279a6d6a015da3b03843adf339efdd"
    ),
    "periodic/report.json": (
        "f41b28c3aa6b8370c9c9a03aff2376b81686feb74c0b55e36f6accc98833ee21"
    ),
    "periodic/timeseries.csv": (
        "01c4af12a3d944f46bffd561175f72bbf2246c9db49334cf92012e091078df4d"
    ),
    "periodic/trace.csv": (
        "18d16232ab2ae9e3ed7aa20e0a874aa3b53df38916e9972a1ea213a43f058de3"
    ),
    "coordinated/report.json": (
        "c690e090950d2bc5fb2c1ed2ab0bb1252c48cfb0aaa2580a36ae8d3e65ceeea6"
    ),
    "coordinated/timeseries.csv": (
        "052c91048e26323fe24f3c158875f3ccc0b999a3b1ac36ba8d40f43809f99fe4"
    ),
    "coordinated/trace.csv": (
        "0dcc8f82c8074369a0bc005e508c5c8f48f28695d3d21ffed948dc00aeba83b4"
    ),
    "always-on/report.json": (
        "ed246fab28f94c1e9494fe850e7d9fb3823163e4ea10cd31c88c59564ce39327"
    ),
    "always-on/timeseries.csv": (
        "67e815c858f4506a00d33abea1d25f0273ad86426570baead79d848b7d66ef17"
    ),
    "always-on/trace.csv": (
        "e6fa345319a5045764d470be01cd35e08d0ee948cac9b2ad56cce37b37840410"
    ),
}


# Traffic-aware forms 4 clusters and sees 66 moves, 12 deaths and 897 sleep grants.
GOLDEN_GRID = {
    "compare.csv": "46d1235958412316d3d92107e5514e282c5607e7333fdc4853f6885162d513cf",
    "traffic-aware/report.json": (
        "54064ee074a15263062b349873e79cee5af7bf328d6d24b0c6174a082dcfcacf"
    ),
    "traffic-aware/timeseries.csv": (
        "9653ac131465b5b6ce86f049b366fb20383ceaa0e3922b5d9382f1c72ef7bce7"
    ),
    "traffic-aware/trace.csv": (
        "90964afc07ee5a2f329ba0899778a388a79b006a3ecdc0262a13cf0d9316666d"
    ),
    "periodic/report.json": (
        "d43ff5ab84a0deb9ece9f5ce8cdb93dd0892cd0687f0557e50d688194737f17d"
    ),
    "periodic/timeseries.csv": (
        "eebb868969273b3487285adc3546792516a2675386939a0d4d74457e2917126f"
    ),
    "periodic/trace.csv": (
        "d337eef3ce0218b08f30156ff23a5d4523bf1d58169040cc91a3b2d36a6976df"
    ),
    "coordinated/report.json": (
        "718fd28550e0e368e1221e221ed0596177601a71c301fe15c2112460e1f5ca47"
    ),
    "coordinated/timeseries.csv": (
        "aa8fa6f1102130ffad43c0cadf0dde6800c60c08794d503ea6860a914501f8b0"
    ),
    "coordinated/trace.csv": (
        "3b486219ceec318ec1737cdebdfa8db90781a258c1339ccfdb5ffa57b18ff4b5"
    ),
    "always-on/report.json": (
        "2bb4d1bd21718f260660ba0ce109bfd59e27f967ff1ae92bf0a381a9fa9d39f5"
    ),
    "always-on/timeseries.csv": (
        "62498ff46a9832138f12fcb11dca8119ca9a8dc1713f4deb3f27d6705147a95b"
    ),
    "always-on/trace.csv": (
        "047100f801e700c0e32367af8e6ddba7ed8d9fddc2054b8a85e97fb6e3f5e03a"
    ),
}


def compare_digests(tmp_path, trace: bool = True, **overrides) -> dict[str, str]:
    """sha256 of every file `ecsim compare` writes for the demo scenario
    with ``overrides`` applied, keyed by path under the output directory."""
    raw = json.loads(DEMO.read_text())
    raw.update(overrides)
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    code = main([
        "compare", "--config", str(config), "--seed", "42",
        "--schemes", ",".join(SCHEMES), "--out", str(out), "--quiet",
        *(["--trace"] if trace else []),
    ])
    assert code == 0
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in out.rglob("*")
        if p.is_file()
    }


def test_demo_outputs_match_golden_digests(tmp_path):
    assert compare_digests(tmp_path, horizon_s=60.0, traffic_horizon_s=55.0) == GOLDEN


def test_death_outputs_match_golden_digests(tmp_path):
    digests = compare_digests(
        tmp_path, initial_energy_j=25.0, horizon_s=100.0, traffic_horizon_s=90.0, p_move=0.01
    )
    assert digests == GOLDEN_DEATHS


def test_grid_cluster_outputs_match_golden_digests(tmp_path):
    digests = compare_digests(
        tmp_path,
        cluster={"policy": "grid", "partition": 2},
        p_move=0.02,
        initial_energy_j=40.0,
        horizon_s=120.0,
        traffic_horizon_s=110.0,
    )
    assert digests == GOLDEN_GRID


@pytest.mark.parametrize(
    "overrides",
    [{}, {"initial_energy_j": 25.0, "horizon_s": 100.0, "traffic_horizon_s": 90.0, "p_move": 0.01}],
    ids=["demo", "deaths"],
)
def test_untraced_outputs_match_traced(tmp_path, overrides):
    """Every pin comes from a traced run; an untraced run builds no trace
    text, and must still write the same reports and time series."""
    (tmp_path / "traced").mkdir()
    (tmp_path / "untraced").mkdir()
    traced = compare_digests(tmp_path / "traced", **overrides)
    untraced = compare_digests(tmp_path / "untraced", trace=False, **overrides)
    assert untraced == {
        path: digest for path, digest in traced.items() if not path.endswith("trace.csv")
    }
    assert len(untraced) == 1 + 2 * len(SCHEMES)  # compare.csv, reports, time series
