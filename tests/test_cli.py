import csv
import json
import os

import pytest
import yaml

from rownav.cli import main

FAST_SCENARIO = {
    "world": {"row_length": 6.0, "intra_row_space": 1.5, "seed": 21,
              "noise_sigma": 0.0, "canopy_overhang": 3.0},
    "camera": {"rays_h": 120, "rays_v": 60},
    "nmpc": {"v_max": 0.4, "omega_max": 0.5, "dt": 0.7},
    "start": {"x": 0.0, "y": 0.0, "theta": 0.0},
    "max_ticks": 60,
    "thresholds": {"collisions": 0, "v_avg": 0.3},
}


@pytest.fixture
def fast_config(tmp_path):
    path = tmp_path / "fast.yaml"
    path.write_text(yaml.safe_dump(FAST_SCENARIO))
    return str(path)


def test_run_writes_outputs_and_exits_zero(fast_config, tmp_path, capsys):
    out = str(tmp_path / "out")
    code = main(["run", "--config", fast_config, "--out", out])
    assert code == 0
    assert os.path.exists(os.path.join(out, "trajectory.csv"))
    assert os.path.exists(os.path.join(out, "metrics.json"))
    assert os.path.exists(os.path.join(out, "config_snapshot.yaml"))
    with open(os.path.join(out, "metrics.json")) as fh:
        metrics = json.load(fh)
    assert metrics["collisions"] == 0
    header = open(os.path.join(out, "trajectory.csv")).readline().strip()
    assert header == ("t,x,y,theta,v_cmd,omega_cmd,mode,"
                      "perception_status,solver_status")


def test_run_deterministic_csv(fast_config, tmp_path):
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    assert main(["run", "--config", fast_config, "--seed", "5", "--out", out1]) == 0
    assert main(["run", "--config", fast_config, "--seed", "5", "--out", out2]) == 0
    b1 = open(os.path.join(out1, "trajectory.csv"), "rb").read()
    b2 = open(os.path.join(out2, "trajectory.csv"), "rb").read()
    assert b1 == b2


def test_run_measuring_one_tick_reports_metrics(tmp_path, capsys):
    """A row short enough that one tick lies in its measured span still gets
    a report: statistics over one tick are defined."""
    config = tmp_path / "short.yaml"
    config.write_text(yaml.safe_dump({
        "world": {"row_length": 0.2, "seed": 42, "canopy_overhang": 6.0},
        "max_ticks": 60}))
    out = str(tmp_path / "out")
    assert main(["run", "--config", str(config), "--out", out]) == 0, \
        capsys.readouterr().err
    with open(os.path.join(out, "metrics.json")) as fh:
        metrics = json.load(fh)
    assert metrics["clearance_time"] is not None
    assert metrics["gamma_std"] == 0.0 and metrics["omega_std"] == 0.0


def test_run_config_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    data = dict(FAST_SCENARIO)
    data["pipeline"] = {"safety_margin_R": -0.1}
    bad.write_text(yaml.safe_dump(data))
    code = main(["run", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "pipeline.safety_margin_R" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    ("nmpc", "horizon_n", float("inf")),
    (None, "max_ticks", float("nan")),
    ("fallback", "creep_v", float("nan")),
    pytest.param("nmpc", "R_safe", int("9" * 400), id="nmpc-R_safe-400-digits"),
])
def test_run_non_finite_config_exit_two(tmp_path, capsys, section, key, value):
    bad = tmp_path / "bad.yaml"
    data = yaml.safe_load(yaml.safe_dump(FAST_SCENARIO))
    (data.setdefault(section, {}) if section else data)[key] = value
    bad.write_text(yaml.safe_dump(data))
    code = main(["run", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert code == 2
    path = f"{section}.{key}" if section else key
    assert f"config error: {path}: " in capsys.readouterr().err


@pytest.mark.parametrize("command, in_yaml", [
    ("run", True), ("run", False), ("sweep", False)],
    ids=["run-scenario-seed", "run-seed-override", "sweep-seed-override"])
def test_negative_seed_is_a_config_error(tmp_path, capsys, command, in_yaml):
    """A negative world seed, in the scenario or given as --seed, is named by
    its field before any world is generated, and nothing is written."""
    data = yaml.safe_load(yaml.safe_dump(FAST_SCENARIO))
    if in_yaml:
        data["world"]["seed"] = -1
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(data))
    grid = tmp_path / "grid.yaml"
    grid.write_text(yaml.safe_dump({"nmpc.K_lane": [0.5]}))
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg), "--out", str(out)]
    argv += ["--grid", str(grid)] if command == "sweep" else []
    argv += [] if in_yaml else ["--seed", "-1"]
    assert main(argv) == 2
    assert "config error: world.seed: must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_run_missing_config_exit_two(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.yaml"),
                 "--out", str(tmp_path / "out")])
    assert code == 2


def test_run_not_completed_exit_one(tmp_path, capsys):
    data = dict(FAST_SCENARIO)
    data["max_ticks"] = 5  # far too few ticks to clear the row
    cfg = tmp_path / "short.yaml"
    cfg.write_text(yaml.safe_dump(data))
    out = str(tmp_path / "out")
    code = main(["run", "--config", str(cfg), "--out", out])
    assert code == 1
    assert "not completed" in capsys.readouterr().out
    with open(os.path.join(out, "metrics.json")) as fh:
        metrics = json.load(fh)
    assert metrics["clearance_time"] is None


def test_run_bundled_scenario_resolves(tmp_path):
    from rownav.cli import resolve_config_path
    path = resolve_config_path("sim_straight")
    assert path.endswith("sim_straight.yaml")


def test_check_pass_and_fail(tmp_path, capsys):
    metrics = tmp_path / "metrics.json"
    metrics.write_text(json.dumps({"mae": 0.05, "collisions": 0,
                                   "v_avg": 0.39}))
    good = tmp_path / "good.yaml"
    good.write_text(yaml.safe_dump({"mae": 0.10, "collisions": 0}))
    assert main(["check", "--metrics", str(metrics),
                 "--thresholds", str(good)]) == 0
    out = capsys.readouterr().out
    assert "pass mae" in out

    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump({"collisions": 0, "v_avg": 0.5}))
    assert main(["check", "--metrics", str(metrics),
                 "--thresholds", str(bad)]) == 1
    assert "FAIL v_avg" in capsys.readouterr().out


def test_check_missing_metric_fails_by_name(tmp_path, capsys):
    metrics = tmp_path / "metrics.json"
    metrics.write_text(json.dumps({"mae": 0.05}))
    th = tmp_path / "th.yaml"
    th.write_text(yaml.safe_dump({"gamma_std": 0.1}))
    assert main(["check", "--metrics", str(metrics),
                 "--thresholds", str(th)]) == 1
    assert "gamma_std" in capsys.readouterr().out


def test_check_null_metric_is_named_not_missing(tmp_path, capsys):
    """A run that never cleared the row writes "clearance_time": null; the
    key is there, so check names the null instead of calling it missing."""
    metrics = tmp_path / "metrics.json"
    metrics.write_text(json.dumps({"clearance_time": None, "collisions": 0}))
    th = tmp_path / "th.yaml"
    th.write_text(yaml.safe_dump({"clearance_time": 60.0, "collisions": 0}))
    assert main(["check", "--metrics", str(metrics),
                 "--thresholds", str(th)]) == 1
    out = capsys.readouterr().out
    assert "FAIL clearance_time: null is not a number in metrics file" in out
    assert "missing" not in out


def test_check_empty_thresholds_vacuous_pass(tmp_path, capsys):
    metrics = tmp_path / "metrics.json"
    metrics.write_text(json.dumps({"mae": 0.05}))
    th = tmp_path / "th.yaml"
    th.write_text(yaml.safe_dump({}))
    assert main(["check", "--metrics", str(metrics),
                 "--thresholds", str(th)]) == 0
    assert "warning" in capsys.readouterr().out


def test_check_reads_thresholds_from_scenario(fast_config, tmp_path):
    metrics = tmp_path / "metrics.json"
    metrics.write_text(json.dumps({"collisions": 0, "v_avg": 0.35}))
    assert main(["check", "--metrics", str(metrics),
                 "--thresholds", fast_config]) == 0


@pytest.mark.parametrize("name, bound", [
    ("mae", "abc"),
    ("mae", float("nan")),
    ("mse", float("inf")),
    ("v_avg", float("-inf")),
    ("collisions", True),
    ("speed", 1.0),
])
def test_check_bounds_read_by_scenario_rules(tmp_path, capsys, name, bound):
    """A bound that is not a finite number, or names no known metric, is a
    config error naming thresholds.<name>, as it is in a scenario."""
    metrics = tmp_path / "metrics.json"
    metrics.write_text(json.dumps({"mae": 0.05, "mse": 0.01, "v_avg": 0.39,
                                   "collisions": 0}))
    th = tmp_path / "th.yaml"
    th.write_text(yaml.safe_dump({name: bound}))
    assert main(["check", "--metrics", str(metrics),
                 "--thresholds", str(th)]) == 2
    assert f"config error: thresholds.{name}: " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "check", "sweep-config", "sweep-grid"])
def test_repeated_yaml_key_is_a_config_error(fast_config, tmp_path, capsys,
                                             monkeypatch, command):
    """Every YAML file a command reads goes through one loader, and a
    mapping there that repeats a key is a config error (exit 2) naming the
    key and its line, before any scenario runs. Plain YAML loading keeps
    the last value: `check` would pass mae = 1.0 against the second bound."""
    runs = []
    monkeypatch.setattr("rownav.cli.execute_scenario", runs.append)
    twice = tmp_path / "twice.yaml"
    metrics = tmp_path / "metrics.json"
    metrics.write_text(json.dumps({"mae": 1.0}))
    grid = tmp_path / "grid.yaml"
    grid.write_text(yaml.safe_dump({"nmpc.K_lane": [0.5, 1.0]}))
    if command == "check":
        twice.write_text("mae: 0.01\nmae: 5.0\n")
        argv = ["check", "--metrics", str(metrics), "--thresholds", str(twice)]
        key = "mae"
    elif command == "sweep-grid":
        twice.write_text("nmpc.K_lane: [0.5]\nnmpc.K_lane: [1.0]\n")
        argv = ["sweep", "--config", fast_config, "--grid", str(twice)]
        key = "nmpc.K_lane"
    else:
        twice.write_text("max_ticks: 60\nmax_ticks: 5\n")
        argv = ([command.split("-")[0], "--config", str(twice),
                 "--out", str(tmp_path / "out")]
                + (["--grid", str(grid)] if command == "sweep-config" else []))
        key = "max_ticks"
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"config error: {twice}: line 2: key {key!r} "
                            "repeated in one mapping\n")
    assert captured.out == "" and runs == [] and not (tmp_path / "out").exists()


def test_check_metrics_file_not_an_object_exit_two(tmp_path, capsys):
    metrics = tmp_path / "metrics.json"
    metrics.write_text(json.dumps([1, 2]))
    th = tmp_path / "th.yaml"
    th.write_text(yaml.safe_dump({"mae": 0.1}))
    assert main(["check", "--metrics", str(metrics),
                 "--thresholds", str(th)]) == 2
    assert "expected a JSON object" in capsys.readouterr().err


def test_check_non_number_metric_fails_by_name(tmp_path, capsys):
    metrics = tmp_path / "metrics.json"
    metrics.write_text(json.dumps({"mae": "0.05", "collisions": 0}))
    th = tmp_path / "th.yaml"
    th.write_text(yaml.safe_dump({"mae": 0.1, "collisions": 0}))
    assert main(["check", "--metrics", str(metrics),
                 "--thresholds", str(th)]) == 1
    out = capsys.readouterr().out
    assert "FAIL mae: " in out
    assert "pass collisions = 0 (required == 0.0)" in out


def test_sweep_rows_and_fault_isolation(fast_config, tmp_path, capsys):
    grid = tmp_path / "grid.yaml"
    grid.write_text(yaml.safe_dump({"nmpc.K_lane": [0.5, 1.0, 2.0]}))
    out = str(tmp_path / "sweep")
    code = main(["sweep", "--config", fast_config, "--grid", str(grid),
                 "--out", out])
    assert code == 0
    stdout = capsys.readouterr().out
    assert stdout.count("nmpc.K_lane") == 3
    payload = json.loads(open(os.path.join(out, "sweep.json")).read())
    assert len(payload) == 3
    assert all(row["status"] == "ok" for row in payload)


def test_sweep_empty_grid_single_baseline(fast_config, tmp_path, capsys):
    grid = tmp_path / "grid.yaml"
    grid.write_text(yaml.safe_dump({}))
    assert main(["sweep", "--config", fast_config, "--grid", str(grid)]) == 0
    assert "baseline" in capsys.readouterr().out


def test_sweep_empty_value_list_is_a_config_error(fast_config, tmp_path, capsys):
    """A key with no values leaves the grid no cell: exit 2 naming the key,
    before any cell runs or the output directory is made."""
    grid = tmp_path / "grid.yaml"
    grid.write_text(yaml.safe_dump({"nmpc.horizon_n": [], "nmpc.K_lane": [1.0]}))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", fast_config, "--grid", str(grid),
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("config error: nmpc.horizon_n: empty value list, "
                            "so the sweep has no cell\n")
    assert captured.out == "" and not out.exists()


def test_sweep_non_string_grid_key_is_a_config_error(fast_config, tmp_path, capsys):
    """A YAML key that is not a string (here the integer 1) is no config path:
    exit 2 naming it, before the keys are sorted, any cell runs or the output
    directory is made."""
    grid = tmp_path / "grid.yaml"
    grid.write_text("1: [0.5]\nnmpc.K_lane: [1.0]\n")
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", fast_config, "--grid", str(grid),
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("config error: grid key 1: expected a dotted config "
                            "path such as nmpc.K_lane\n")
    assert captured.out == "" and not out.exists()


def test_sweep_bad_cell_flagged_others_run(fast_config, tmp_path, capsys):
    grid = tmp_path / "grid.yaml"
    grid.write_text(yaml.safe_dump({"pipeline.safety_margin_R": [0.3, -1.0]}))
    code = main(["sweep", "--config", fast_config, "--grid", str(grid)])
    assert code == 0
    out = capsys.readouterr().out
    assert "error" in out and "ok" in out


def test_sweep_table_columns_line_up_past_an_error_row(fast_config, tmp_path,
                                                       capsys):
    """The cell and status columns are as wide as their longest entry, so an
    `error: ...` row leaves every later column where the others have it."""
    grid = tmp_path / "grid.yaml"
    grid.write_text(yaml.safe_dump({"pipeline.safety_margin_R": [0.3, -1.0]}))
    assert main(["sweep", "--config", fast_config, "--grid", str(grid)]) == 0
    table = capsys.readouterr().out.splitlines()
    assert len(table) == 3 and table[2].split()[1] == "error:"
    assert len(table[2].split()[1] + table[2].split()[2]) > 16
    start = table[0].index(" ticks")
    for line in table:
        assert len(line) == len(table[0])
        assert line[start] == " "
        assert line[start + 1:start + 7].strip() == line.split()[-3]


def test_sweep_rows_count_ticks_from_the_run(fast_config, tmp_path, capsys):
    """Each sweep row carries its run's ticks, realign ticks and invalid-lane
    ticks, the counts of the trajectory `rownav run` writes for that cell;
    a cell that fails before running has none."""
    grid = tmp_path / "grid.yaml"
    grid.write_text(yaml.safe_dump({"start.theta": [0.0, 0.6, "bad"]}))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", fast_config, "--grid", str(grid),
                 "--out", str(out)]) == 0
    table = capsys.readouterr().out.splitlines()
    assert table[0].split()[-3:] == ["ticks", "realign", "invalid"]
    rows = json.loads((out / "sweep.json").read_text())
    assert [row["status"] for row in rows][:2] == ["ok", "ok"]
    assert rows[2]["status"].startswith("error: start.theta")
    assert [rows[2][k] for k in ("ticks", "realign_ticks", "invalid_lane_ticks")] \
        == [None] * 3
    assert table[3].split()[-3:] == ["-"] * 3
    for theta, row, line in zip((0.0, 0.6), rows, table[1:3]):
        data = yaml.safe_load(yaml.safe_dump(FAST_SCENARIO))
        data["start"]["theta"] = theta
        cfg = tmp_path / f"theta{theta}.yaml"
        cfg.write_text(yaml.safe_dump(data))
        run_out = tmp_path / f"run{theta}"
        assert main(["run", "--config", str(cfg), "--out", str(run_out)]) == 0
        with open(run_out / "trajectory.csv", newline="") as fh:
            ticks = list(csv.DictReader(fh))
        want = [len(ticks),
                sum(t["mode"] == "fallback_realign" for t in ticks),
                sum(t["perception_status"] == "invalid_lane" for t in ticks)]
        assert [row[k] for k in ("ticks", "realign_ticks", "invalid_lane_ticks")] == want
        assert line.split()[-3:] == [str(c) for c in want]
    assert rows[1]["realign_ticks"] > 0 and rows[1]["invalid_lane_ticks"] > 0


def test_sweep_seed_with_a_world_seed_grid_is_a_config_error(fast_config, tmp_path,
                                                             capsys, monkeypatch):
    """--seed would run one world under every world.seed label of the grid,
    so the pair is a config error before any cell runs."""
    runs = []
    monkeypatch.setattr("rownav.cli.execute_scenario", runs.append)
    grid = tmp_path / "grid.yaml"
    grid.write_text(yaml.safe_dump({"world.seed": [1, 2]}))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", fast_config, "--grid", str(grid),
                 "--seed", "5", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "config error: --seed would override the grid's world.seed" in captured.err
    assert captured.out == "" and runs == [] and not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_out_naming_a_file_exit_two(fast_config, tmp_path, capsys, monkeypatch,
                                    command):
    """An --out that names an existing file is an error (exit 2) found
    before any scenario runs, and the file is left as it was."""
    runs = []
    monkeypatch.setattr("rownav.cli.execute_scenario", runs.append)
    taken = tmp_path / "taken"
    taken.write_text("keep")
    grid = tmp_path / "grid.yaml"
    grid.write_text(yaml.safe_dump({"nmpc.K_lane": [0.5, 1.0]}))
    argv = [command, "--config", fast_config, "--out", str(taken)]
    argv += ["--grid", str(grid)] if command == "sweep" else []
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: --out {taken}: ")
    assert captured.out == "" and runs == [] and taken.read_text() == "keep"
