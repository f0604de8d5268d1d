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
    "compare.csv": "6fd16263031dc30fe1e0181aa497266e02e672bc127a7f700f1fd6cab42cc07a",
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
        "2808a85e77f996c6a978bf759dc263f619023bff3f2c4c8fc25b2b6e8ff2c1be"
    ),
    "periodic/timeseries.csv": (
        "3bbc795e67b2570e301817ff99a8127d7930fb35c063a11bc875e1683094f249"
    ),
    "periodic/trace.csv": (
        "689a77757cde2b263b0d3b5ac7f4a4f07aaf751a6e2fd6cf2f57b8cced6a4970"
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
    "compare.csv": "74840c658f05257423305e812663bad6ff766a2c0e50c92a92bd9047d3813d85",
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
        "7ea04f7c8c46ce644f9f629cf8848dcc4f8564780b6779bb17dbd7acfa7eca88"
    ),
    "periodic/timeseries.csv": (
        "499a43de60b89f314b6d113ca356f5c48d3a32abc06026cde5b3e432d8506ac3"
    ),
    "periodic/trace.csv": (
        "6db04349147b14e0fc5996b90614244afc90525f90f99a4e04a28c477c6f6c6b"
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
    "compare.csv": "3bf804969f0e8f4be53f2e9af1c328074ef90b629a985b3329de800a09626720",
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
        "95bf063646b93c332e98afd25a86c394cabf35b773e2edb85023731f8c91b3c5"
    ),
    "periodic/timeseries.csv": (
        "3b974b18ccc22868f472519a9c7e15f9fe5762089fe403a89776591f3c820a9e"
    ),
    "periodic/trace.csv": (
        "32b20b08eb4879e73d62eafafbeab7628820c4cd79c8c6db7c598e4d32378861"
    ),
    "coordinated/report.json": (
        "6a3824b9ad8703e4f6c095add73a7b4e1a67fcf3062cac4f43f4a8059a5c0da3"
    ),
    "coordinated/timeseries.csv": (
        "e2da959d321da8a93f24d1ca3d6e9f2f39deb1e46b0e2f13cd8ea0dc7041b428"
    ),
    "coordinated/trace.csv": (
        "f9ed186010ea3805eaec95c8ebe661a25559ff5ff830f51f6958f4f09c7a613a"
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
