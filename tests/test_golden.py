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
    "compare.csv": "38c2e51af4d8c9192afd310b47479828d4984a1bbf886e4846aac4cf8c4d41b9",
    "traffic-aware/report.json": (
        "ebe34c718b6c096fb2242b9540136679495adebe940289daa7d6d4363938c77c"
    ),
    "traffic-aware/timeseries.csv": (
        "7e758f668c41dcfbc9eabf7435e63ae6c91c36ed11cfe60efd70191cb233d2c1"
    ),
    "traffic-aware/trace.csv": (
        "407ef1f134aade4898860f4042935eb3c349219195c3034afa88ec3779555adf"
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


# First deaths at 30-82 s depending on the scheme.
GOLDEN_DEATHS = {
    "compare.csv": "1f0f94f1ea25ae77038c696763650a5d0e5c586938f061c4fedefd62d1487d8b",
    "traffic-aware/report.json": (
        "375c558a53053a8cfc9413231c711196dce4cc15d8c86c60824eef181ec88fe9"
    ),
    "traffic-aware/timeseries.csv": (
        "d4af34eeb717802d07058d3844b35d7a6dd35c72d751e9b69c925fbd374b32e4"
    ),
    "traffic-aware/trace.csv": (
        "d2998d57af29943ab8ad5960419c8a1ff1cc695031bf73b0eb7432cc4a71445f"
    ),
    "periodic/report.json": (
        "f41b28c3aa6b8370c9c9a03aff2376b81686feb74c0b55e36f6accc98833ee21"
    ),
    "periodic/timeseries.csv": (
        "01c4af12a3d944f46bffd561175f72bbf2246c9db49334cf92012e091078df4d"
    ),
    "periodic/trace.csv": (
        "9e6a31b7ee0111b70db579a5acf75230794b34cfd4dce1ca1abc8700744567aa"
    ),
    "coordinated/report.json": (
        "1c70627d0e8dde1073f5900e60c87abec89bef3417c657a0b84d2c42ba65d29a"
    ),
    "coordinated/timeseries.csv": (
        "2d92eaf9874cd76215a06666797f42bba2168e2ca354d75326770ff7b7432643"
    ),
    "coordinated/trace.csv": (
        "48cdf7489e622f956dd03a0a5ddc46c8cdcf0244b1a734e91f902e2d2eba9f49"
    ),
    "always-on/report.json": (
        "01a9f86b441278122116c0e7c1f120548f8427e76718a57978f290411fac9b62"
    ),
    "always-on/timeseries.csv": (
        "12ffac0a509e8b2062c79ee0e35adb42d5472366801639b2a17361920b924231"
    ),
    "always-on/trace.csv": (
        "d6267bd2efe5b42bdd1e09dfe4bbb6004dfb7b6ececbf324ce6fc9c45e102fa3"
    ),
}


# Traffic-aware forms 4 clusters and sees 66 moves, 12 deaths and 897 sleep grants.
GOLDEN_GRID = {
    "compare.csv": "c9a8cf7719637b98746715a44a3af64cd2c9db8c3d7962f7be14909292d5c2e5",
    "traffic-aware/report.json": (
        "284c9093a432072bfdd84f4609241015edd8795f97683037aa8ab513f7c9b4e0"
    ),
    "traffic-aware/timeseries.csv": (
        "9bfc8c028d95ec305f69679e61659347ef65b2a581be1b2051254ded9690210f"
    ),
    "traffic-aware/trace.csv": (
        "ea7dbfcdbcaa95c23a5ed30b0d1f98f735bfa76ab061341b0808935e63a6f541"
    ),
    "periodic/report.json": (
        "d43ff5ab84a0deb9ece9f5ce8cdb93dd0892cd0687f0557e50d688194737f17d"
    ),
    "periodic/timeseries.csv": (
        "eebb868969273b3487285adc3546792516a2675386939a0d4d74457e2917126f"
    ),
    "periodic/trace.csv": (
        "c4e9fc761ff680eba860e7b736c07244d5d62d607c40f4d16ef2d049ef268a2c"
    ),
    "coordinated/report.json": (
        "0d143e97bc2e60ca8e09e352da7ae048141b02c097e169e80e5eb50e16606008"
    ),
    "coordinated/timeseries.csv": (
        "be2d5a5abb3fd404ded39ad81ed06ba71e9a31f4db4f84fcf1ebbd548521ec90"
    ),
    "coordinated/trace.csv": (
        "0a4a31a9fa1a29c7437058c914eb31cba492577911bc6362b61f423b71e2679c"
    ),
    "always-on/report.json": (
        "f8b34d0ee1909a129bdd2b0b328adccbc782983446a7b6b76ac924755ca18fe4"
    ),
    "always-on/timeseries.csv": (
        "eccbb97fe1dae2963af35bc07f133f4111019ba258c2992a3ae4c79261c21c8a"
    ),
    "always-on/trace.csv": (
        "63727f50497b15e6a47e75cf32b5bd5ff4ebfba5e3234de0f1786ed9079a0b86"
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
