import json

import pytest

from ecsim.cli import main

SCENARIO = {
    "grid": {"width": 4, "height": 4},
    "nodes": 6,
    "initial_energy_j": 100.0,
    "round_s": 10.0,
    "horizon_s": 40.0,
    "p_move": 0.0,
    "flows": [{"src": 0, "dst": 3, "rate_pps": 0.5}],
}


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SCENARIO))
    return path


def test_run_writes_report(scenario_file, tmp_path):
    out = tmp_path / "out"
    code = main([
        "run", "--config", str(scenario_file), "--seed", "42",
        "--out", str(out), "--quiet",
    ])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["meta"]["seed"] == 42
    assert (out / "timeseries.csv").exists()
    assert not (out / "trace.csv").exists()


def test_run_with_trace(scenario_file, tmp_path):
    out = tmp_path / "out"
    code = main([
        "run", "--config", str(scenario_file), "--seed", "1",
        "--out", str(out), "--trace", "--quiet",
    ])
    assert code == 0
    assert (out / "trace.csv").read_text().startswith("time,node,kind,detail")


def test_run_is_reproducible(scenario_file, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main([
            "run", "--config", str(scenario_file), "--seed", "7",
            "--out", str(out), "--trace", "--quiet",
        ]) == 0
        outs.append(out)
    assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
    assert (outs[0] / "trace.csv").read_bytes() == (outs[1] / "trace.csv").read_bytes()


def test_config_error_exit_code_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**SCENARIO, "unknown_key": 1}))
    code = main(["run", "--config", str(bad), "--seed", "1",
                 "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 2


@pytest.mark.parametrize("make", [
    lambda path: None,
    lambda path: path.mkdir(),
    lambda path: path.write_bytes(b"\xff{}"),
], ids=["missing", "directory", "not-utf-8"])
def test_missing_config_exit_code_2(tmp_path, capsys, make):
    path = tmp_path / "scenario.json"
    make(path)
    code = main(["run", "--config", str(path), "--seed", "1",
                 "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot read {path}: ")
    assert not (tmp_path / "o").exists()


def test_unconnectable_placement_exit_code_3(tmp_path, capsys):
    # Three nodes on a 1000x1000 grid practically never share a 3x3 block.
    sparse = tmp_path / "sparse.json"
    grid = {"width": 1000, "height": 1000}
    sparse.write_text(json.dumps({**SCENARIO, "nodes": 3, "grid": grid, "flows": []}))
    code = main(["run", "--config", str(sparse), "--seed", "1",
                 "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 3
    err = capsys.readouterr().err
    assert "3 nodes" in err and "1000x1000" in err and "200 attempts" in err
    assert not (tmp_path / "o").exists()


def test_compare_emits_table(scenario_file, tmp_path):
    out = tmp_path / "cmp"
    code = main([
        "compare", "--config", str(scenario_file), "--seed", "3",
        "--schemes", "traffic-aware,periodic,always-on",
        "--out", str(out), "--quiet",
    ])
    assert code == 0
    text = (out / "compare.csv").read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "metric,scheme,value,delta_vs_baseline_pct"
    schemes = {line.split(",")[1] for line in lines[1:]}
    assert schemes == {"traffic-aware", "periodic", "always-on"}
    for scheme in schemes:
        assert (out / scheme / "report.json").exists()


@pytest.mark.parametrize("schemes", ["periodic,always-on", "always-on,periodic"])
def test_compare_deltas_are_against_the_first_scheme(scenario_file, tmp_path, schemes):
    out = tmp_path / "cmp"
    code = main([
        "compare", "--config", str(scenario_file), "--seed", "3",
        "--schemes", schemes, "--out", str(out), "--quiet",
    ])
    assert code == 0
    first = schemes.split(",")[0]
    rows = [line.split(",") for line in (out / "compare.csv").read_text().split("\n")[1:-1]]
    base = {metric: value for metric, scheme, value, _ in rows if scheme == first}
    checked = 0
    for metric, scheme, value, delta in rows:
        if scheme == first:
            assert delta in ("", "0.0")
        elif delta:
            expected = (float(value) - float(base[metric])) / float(base[metric]) * 100.0
            assert float(delta) == pytest.approx(expected)
            checked += 1
    assert checked


def test_compare_needs_two_schemes(scenario_file, tmp_path):
    code = main([
        "compare", "--config", str(scenario_file), "--seed", "3",
        "--schemes", "traffic-aware", "--out", str(tmp_path / "cmp"), "--quiet",
    ])
    assert code == 2


def test_compare_repeated_scheme_exit_code_2(scenario_file, tmp_path, capsys):
    code = main([
        "compare", "--config", str(scenario_file), "--seed", "3",
        "--schemes", "always-on,periodic,always-on", "--out", str(tmp_path / "cmp"), "--quiet",
    ])
    assert code == 2
    assert capsys.readouterr().err == "config error: --schemes: always-on listed more than once\n"
    assert not (tmp_path / "cmp").exists()


@pytest.mark.parametrize("argv", [
    ["compare", "--schemes", "always-on,periodic", "--seed", "3", "--baseline", "periodic"],
    ["sweep", "--param", "p_move", "--values", "0.0", "--seed", "2"],
], ids=["compare-baseline", "sweep-seed"])
def test_removed_option_exit_code_2(scenario_file, tmp_path, argv):
    # compare's baseline is the first of --schemes; sweep takes --seeds only.
    with pytest.raises(SystemExit) as exit_:
        main([*argv, "--config", str(scenario_file), "--out", str(tmp_path / "o"), "--quiet"])
    assert exit_.value.code == 2
    assert not (tmp_path / "o").exists()


def test_compare_unknown_scheme_exit_code_2(scenario_file, tmp_path):
    code = main([
        "compare", "--config", str(scenario_file), "--seed", "3",
        "--schemes", "traffic-aware,bogus", "--out", str(tmp_path / "cmp"), "--quiet",
    ])
    assert code == 2
    assert not (tmp_path / "cmp").exists()


@pytest.mark.parametrize(
    "option, items", [("--values", "0.1,abc"), ("--seeds", "1,x")], ids=["values", "seeds"]
)
def test_sweep_unparsable_list_exit_code_2(scenario_file, tmp_path, capsys, option, items):
    args = {"--values": "0.0,0.01", "--seeds": "1,2", option: items}
    code = main([
        "sweep", "--config", str(scenario_file), "--param", "p_move",
        *(arg for pair in args.items() for arg in pair),
        "--out", str(tmp_path / "sweep"), "--quiet",
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error: {option}: ")
    assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("values, seeds, point", [
    ("0.0,0.0", "3,3", "p_move=0.0/seed=3"),
    ("0.1,0.10", "1", "p_move=0.1/seed=1"),
    ("0.0,0.01", "2,02", "p_move=0.0/seed=2"),
], ids=["both", "values", "seeds"])
def test_sweep_points_sharing_a_directory_exit_code_2(
    scenario_file, tmp_path, capsys, values, seeds, point
):
    code = main([
        "sweep", "--config", str(scenario_file), "--param", "p_move",
        "--values", values, "--seeds", seeds, "--out", str(tmp_path / "sweep"), "--quiet",
    ])
    assert code == 2
    assert capsys.readouterr().err == f"config error: --values/--seeds: two points write {point}\n"
    assert not (tmp_path / "sweep").exists()


def test_sweep_writes_one_report_per_value(scenario_file, tmp_path):
    out = tmp_path / "sweep"
    code = main([
        "sweep", "--config", str(scenario_file), "--param", "nodes",
        "--values", "6,8,10", "--seeds", "2", "--out", str(out), "--quiet",
    ])
    assert code == 0
    reports = sorted(out.glob("nodes=*/seed=2/report.json"))
    assert len(reports) == 3
    counts = sorted(
        json.loads(p.read_text())["meta"]["node_count"] for p in reports
    )
    assert counts == [6, 8, 10]


def test_sweep_without_seeds_runs_seed_1(scenario_file, tmp_path):
    out = tmp_path / "sweep"
    code = main([
        "sweep", "--config", str(scenario_file), "--param", "p_move",
        "--values", "0.0,0.01", "--out", str(out), "--quiet",
    ])
    assert code == 0
    reports = sorted(out.glob("p_move=*/seed=*/report.json"))
    assert [p.relative_to(out).parent.as_posix() for p in reports] == [
        "p_move=0.0/seed=1", "p_move=0.01/seed=1",
    ]
    assert {json.loads(p.read_text())["meta"]["seed"] for p in reports} == {1}


def test_sweep_multiple_seeds(scenario_file, tmp_path):
    out = tmp_path / "sweep"
    code = main([
        "sweep", "--config", str(scenario_file), "--param", "p_move",
        "--values", "0.0,0.01", "--seeds", "1,2", "--out", str(out), "--quiet",
    ])
    assert code == 0
    assert len(list(out.glob("p_move=*/seed=*/report.json"))) == 4


def test_sweep_outputs_match_run(scenario_file, tmp_path):
    out = tmp_path / "sweep"
    code = main([
        "sweep", "--config", str(scenario_file), "--param", "nodes",
        "--values", "6,8", "--seeds", "1,2", "--out", str(out), "--quiet",
    ])
    assert code == 0
    assert len(list(out.glob("nodes=*/seed=*/report.json"))) == 4
    for nodes in (6, 8):
        config = tmp_path / f"nodes={nodes}.json"
        config.write_text(json.dumps({**SCENARIO, "nodes": nodes}))
        for seed in (1, 2):
            single = tmp_path / f"run-{nodes}-{seed}"
            assert main([
                "run", "--config", str(config), "--seed", str(seed),
                "--out", str(single), "--quiet",
            ]) == 0
            swept = out / f"nodes={nodes}" / f"seed={seed}"
            for name in ("report.json", "timeseries.csv"):
                assert (swept / name).read_bytes() == (single / name).read_bytes()


def test_sweep_with_scheme_keeps_swept_scheme_parameter(scenario_file, tmp_path):
    out = tmp_path / "sweep"
    code = main([
        "sweep", "--config", str(scenario_file), "--scheme", "coordinated",
        "--param", "scheme.listen_s", "--values", "0.1,0.4", "--out", str(out), "--quiet",
    ])
    assert code == 0
    schemes = {
        p.parent.parent.name: json.loads(p.read_text())["meta"]["config"]["scheme"]
        for p in out.glob("scheme_listen_s=*/seed=1/report.json")
    }
    assert schemes == {
        "scheme_listen_s=0.1": {"kind": "coordinated", "listen_s": 0.1, "sleep_s": 1.5},
        "scheme_listen_s=0.4": {"kind": "coordinated", "listen_s": 0.4, "sleep_s": 1.5},
    }


@pytest.mark.parametrize("command", ["run", "sweep", "compare"])
def test_scheme_option_naming_the_scenarios_kind_keeps_its_parameters(tmp_path, command):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({**SCENARIO, "scheme": {"kind": "periodic", "duty": 0.05}}))
    out = tmp_path / "out"
    common = ["--config", str(config), "--out", str(out), "--quiet"]
    argv = {
        "run": ["run", *common, "--seed", "1", "--scheme", "periodic"],
        "sweep": ["sweep", *common, "--param", "nodes", "--values", "6", "--scheme", "periodic"],
        "compare": ["compare", *common, "--seed", "1", "--schemes", "periodic,coordinated"],
    }[command]
    assert main(argv) == 0
    echoes = [json.loads(p.read_text())["meta"]["config"]["scheme"]
              for p in out.rglob("report.json")]
    expected = {"periodic": {"kind": "periodic", "duty": 0.05, "period_s": 2.0}}
    if command == "compare":  # another kind runs with its own defaults
        expected["coordinated"] = {"kind": "coordinated", "listen_s": 0.5, "sleep_s": 1.5}
    assert {echo["kind"]: echo for echo in echoes} == expected
    assert len(echoes) == len(expected)
