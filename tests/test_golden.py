"""Byte contract: the demo scenario's outputs under every scheme are pinned.

`ecsim compare` runs `scenarios/demo.json`, seed 42, under all four schemes
with traces on, in three variants: cut to a 60 s horizon (no node dies);
with 25 J batteries over 100 s with faster mobility, so that nodes die under
every scheme and traffic-aware repairs the roles of dead cluster heads and
proxies; and split into a 2x2 grid of clusters with 40 J batteries and
frequent moves, so that moves reshape routes and traffic-aware repairs roles
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
    "compare.csv": "c718af64730186d4ffb2b4e975be57cf9da05f240b1832e12417434f3b432e74",
    "traffic-aware/report.json": (
        "f127a8c62af39c62cbf2fddf8030c0bb71586d2daa4f867c4b0f10f7c5211ef2"
    ),
    "traffic-aware/timeseries.csv": (
        "3679bf4a4648a40119c927317da7553f686687352ff30295b2824901fb4dc0cb"
    ),
    "traffic-aware/trace.csv": (
        "0b2d485e2da39c0a3c8c2f253f7986b1f8a3f0159f502670b4ec8723d3a2b69d"
    ),
    "periodic/report.json": (
        "fcd606e4e5670817a74e754d2a947ef67ab189b96c8fb024661665b98ca78ae7"
    ),
    "periodic/timeseries.csv": (
        "3bbc795e67b2570e301817ff99a8127d7930fb35c063a11bc875e1683094f249"
    ),
    "periodic/trace.csv": (
        "689a77757cde2b263b0d3b5ac7f4a4f07aaf751a6e2fd6cf2f57b8cced6a4970"
    ),
    "coordinated/report.json": (
        "9ef5720e9a8a090d68040fdf051a07725a04d6f56f00a676731a911c5786640f"
    ),
    "coordinated/timeseries.csv": (
        "aced2a2e1d26917f4423b85afab1d172b3b12ef6613ed00c04fa6c09628694de"
    ),
    "coordinated/trace.csv": (
        "2eee714d4fdaa9c6ef1b401c2d58c1a9cf3afb6e8403b1738336aa44493769a2"
    ),
    "always-on/report.json": (
        "fbb78490a3fa3069d25f2bd637915b9811158c5e32afd3d0afa0b9cff0712418"
    ),
    "always-on/timeseries.csv": (
        "7d31c9e2eba5c2d399622c7f1caec9fc8c55f5c7bc4ebc896a0ce50e15c047c8"
    ),
    "always-on/trace.csv": (
        "0541925cbf54d458968189e7cd6e5a3e783fc5b5165c3960b9f52373d46a3af2"
    ),
}


# First deaths at 30-82 s depending on the scheme.
GOLDEN_DEATHS = {
    "compare.csv": "7702140d7b5f1ae19f100c43f6bc43c69d1e0affcdd64c2e9676771f3db6951a",
    "traffic-aware/report.json": (
        "33ca5f9379be53c418828e767de50949078f7407988f39460d35552c2670a339"
    ),
    "traffic-aware/timeseries.csv": (
        "0e2c2e49ec04dddcaf9d7f40ab8e03b50d2b9a700fcbfee247efb8e8ea63d3d1"
    ),
    "traffic-aware/trace.csv": (
        "c586d27f60fa6710d00082a78fcb1af314c57cd693109af8d9a7598a9e26004c"
    ),
    "periodic/report.json": (
        "e64d2d8bcd33c1b235de3fbef75bd28bacefca2e358f2fa002117f7ff69328a1"
    ),
    "periodic/timeseries.csv": (
        "499a43de60b89f314b6d113ca356f5c48d3a32abc06026cde5b3e432d8506ac3"
    ),
    "periodic/trace.csv": (
        "6db04349147b14e0fc5996b90614244afc90525f90f99a4e04a28c477c6f6c6b"
    ),
    "coordinated/report.json": (
        "501347bdcbfbfb418a09e15f1b8fa1adf2577e6ff2f8cdd61634129a4146b882"
    ),
    "coordinated/timeseries.csv": (
        "6a733fbee028e1a59968e33bab093326e6f5197d3d9a3355b6149539d646a3ca"
    ),
    "coordinated/trace.csv": (
        "9d98289bba95331e23754eb2d1d5bcadeb8b8ea838d56e18cd972e117c550e51"
    ),
    "always-on/report.json": (
        "af17b12128e490d289744bc0c7ad34278a5ba8a97c100fe2c9680e7a0766087a"
    ),
    "always-on/timeseries.csv": (
        "a00b2dc51203815271d8987efa7652055ed81d05e27030666a7c646e6708f76e"
    ),
    "always-on/trace.csv": (
        "e654047b59255b43109eb4a35f100cddefb49fb58230afe65919e467d18cfb8e"
    ),
}


# Traffic-aware forms 4 clusters and traces 65 moves, 10 deaths and 1192 sleep grants.
GOLDEN_GRID = {
    "compare.csv": "86f1dcec59547a07927027a6287fb1a102cc45ce3c21bfbb83734298899f886e",
    "traffic-aware/report.json": (
        "30cab4c62f9ae3fdbc1c64db750ab7f963c5eaface5611de4b6f61e5cacd4eb0"
    ),
    "traffic-aware/timeseries.csv": (
        "3591a2d8ea6bf1586c7fe5f1b6a01ba9d6076848d12ec7fd0c0685df78f6b914"
    ),
    "traffic-aware/trace.csv": (
        "bbde44f72932fb337b6b1e30aaa5e6a7639d2d0fc43c7816cda8a6a40c7443dd"
    ),
    "periodic/report.json": (
        "2ded875d1c90a93b2d74234f0e0b18bb088b66702dd9ef63f4ccdb704d6ad009"
    ),
    "periodic/timeseries.csv": (
        "3b974b18ccc22868f472519a9c7e15f9fe5762089fe403a89776591f3c820a9e"
    ),
    "periodic/trace.csv": (
        "32b20b08eb4879e73d62eafafbeab7628820c4cd79c8c6db7c598e4d32378861"
    ),
    "coordinated/report.json": (
        "a7c4ab7bc7a2c69da8a9e6b7a38afdf294f224c972a51246dca91fa62d38d2be"
    ),
    "coordinated/timeseries.csv": (
        "f917a5a429b3cf1c14a50f9678ed1ca2c5260fb9eefac7e3473cc8dc39784d47"
    ),
    "coordinated/trace.csv": (
        "a245320cd8afafa810129907b7d6c2679369dc15f999198130499532cf34ab98"
    ),
    "always-on/report.json": (
        "17e0db68974922ccb2d88159620e0d80e78b1c6082b4fef75a2e98c3563254d6"
    ),
    "always-on/timeseries.csv": (
        "d819300ef17a6603fc4b5838f157fe740d4ea5e13971f0300a3af2f3c6a749e8"
    ),
    "always-on/trace.csv": (
        "6aaae0aaef2dc0435fc3e7c58d74360b93a60a6a675c2a865e60e86dc77f899e"
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
