import pytest

from rownav.config import (ConfigError, dump_scenario, load_scenario,
                           scenario_from_dict, scenario_to_dict)


def test_defaults_build():
    cfg = scenario_from_dict({})
    assert cfg.nmpc.v_max == 0.4
    assert cfg.pipeline.f_points == 0.2
    assert cfg.span == cfg.world.row_length


def test_unknown_key_with_path():
    with pytest.raises(ConfigError) as exc:
        scenario_from_dict({"pipeline": {"f_poins": 0.2}})
    assert "pipeline.f_poins" in str(exc.value)


def test_invariant_violation_named():
    with pytest.raises(ConfigError) as exc:
        scenario_from_dict({"pipeline": {"f_points": 1.5}})
    assert "pipeline.f_points" in str(exc.value)


def test_degrees_rejected_by_range_check():
    # radians only: a degree-valued angle blows the (0, pi/2) bound
    with pytest.raises(ConfigError) as exc:
        scenario_from_dict({"pipeline": {"max_perp_angle": 70.0}})
    assert "pipeline.max_perp_angle" in str(exc.value)


def test_top_level_lane_mode_forwarded():
    cfg = scenario_from_dict({"lane_mode": "right_half",
                              "world": {"intra_row_space": 4.0}})
    assert cfg.pipeline.lane_mode == "right_half"
    assert cfg.desired_offset == pytest.approx(-1.0)


def test_bad_lane_mode():
    with pytest.raises(ConfigError):
        scenario_from_dict({"lane_mode": "middle"})


def test_targets_and_obstacles_parsed():
    cfg = scenario_from_dict({
        "world": {"extra_obstacles": [{"x": 10.0, "y": 0.0, "radius": 0.2}]},
        "targets": [{"x": 5.0, "y": 0.3, "standoff": 0.6}],
    })
    assert cfg.world.extra_obstacles[0].radius == 0.2
    assert cfg.targets[0].standoff == 0.6


def test_unknown_threshold_metric():
    with pytest.raises(ConfigError) as exc:
        scenario_from_dict({"thresholds": {"speed": 1.0}})
    assert "thresholds.speed" in str(exc.value)


def test_traverse_length_bounds():
    with pytest.raises(ConfigError):
        scenario_from_dict({"traverse_length": 30.0,
                            "world": {"row_length": 20.0}})
    cfg = scenario_from_dict({"traverse_length": 15.0,
                              "world": {"row_length": 20.0}})
    assert cfg.span == 15.0


def test_type_errors_reported():
    with pytest.raises(ConfigError) as exc:
        scenario_from_dict({"nmpc": {"horizon_n": 2.5},
                            "world": {"pergola": "yes"}})
    msg = str(exc.value)
    assert "nmpc.horizon_n" in msg
    assert "world.pergola" in msg


def test_snapshot_round_trip(tmp_path):
    cfg = scenario_from_dict({
        "world": {"intra_row_space": 2.5, "seed": 11},
        "nmpc": {"K_lane": 1.5},
        "thresholds": {"mae": 0.1},
        "lane_mode": "right_half",
    })
    path = str(tmp_path / "snap.yaml")
    dump_scenario(cfg, path)
    again = load_scenario(path)
    assert scenario_to_dict(again) == scenario_to_dict(cfg)


def test_yaml_load_errors_surface(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("pipeline: [not, a, mapping]")
    with pytest.raises(ConfigError):
        load_scenario(str(path))


@pytest.mark.parametrize("data, field", [
    ({"fallback": {"creep_v": float("nan")}}, "fallback.creep_v"),
    ({"nmpc": {"R_safe": float("nan")}}, "nmpc.R_safe"),
    ({"start": {"theta": float("inf")}}, "start.theta"),
    ({"world": {"row_length": float("-inf")}}, "world.row_length"),
    ({"nmpc": {"horizon_n": float("inf")}}, "nmpc.horizon_n"),
    ({"max_ticks": float("nan")}, "max_ticks"),
    ({"thresholds": {"mae": float("nan")}}, "thresholds.mae"),
])
def test_non_finite_numbers_rejected_with_path(data, field):
    """NaN and +-inf are config errors in float and integer fields alike,
    named by their dotted path; none reaches a range check or int()."""
    with pytest.raises(ConfigError) as exc:
        scenario_from_dict(data)
    assert [e for e in exc.value.errors if e.startswith(f"{field}: ")]
