import dataclasses
import math
import typing
from importlib import resources
from pathlib import Path

import pytest
import yaml

from rownav.cli import main
from rownav.config import (THRESHOLD_SENSE, ConfigError, ScenarioConfig, dump_scenario,
                           load_scenario, scenario_from_dict, scenario_to_dict)


def test_defaults_build():
    cfg = scenario_from_dict({})
    assert cfg.nmpc.v_max == 0.4
    assert cfg.pipeline.safety_margin_R == 0.3
    assert cfg.span == cfg.world.row_length


def test_unknown_key_with_path():
    with pytest.raises(ConfigError) as exc:
        scenario_from_dict({"pipeline": {"f_poins": 0.2}})
    assert "pipeline.f_poins" in str(exc.value)


def test_invariant_violation_named():
    with pytest.raises(ConfigError) as exc:
        scenario_from_dict({"pipeline": {"safety_margin_R": -0.1}})
    assert "pipeline.safety_margin_R" in str(exc.value)


def test_degrees_rejected_by_range_check():
    # radians only: a degree-valued field of view blows its radian bound
    with pytest.raises(ConfigError) as exc:
        scenario_from_dict({"camera": {"h_fov": 87.0, "v_fov": 58.0}})
    assert "camera.h_fov" in str(exc.value)
    assert "camera.v_fov" in str(exc.value)


def test_top_level_lane_mode_forwarded():
    cfg = scenario_from_dict({"lane_mode": "right_half",
                              "world": {"intra_row_space": 4.0},
                              "pipeline": {"safety_margin_R": 0.2}})
    assert cfg.pipeline.lane_mode == "right_half"
    assert cfg.pipeline.safety_margin_R == 0.2
    assert cfg.desired_offset == pytest.approx(-1.0)


def test_bad_lane_mode():
    with pytest.raises(ConfigError) as exc:
        scenario_from_dict({"lane_mode": "middle"})
    assert exc.value.errors[0].startswith("pipeline.lane_mode: must be one of")


@pytest.mark.parametrize("nested", ["left_half", "right_half"])
def test_lane_mode_given_in_both_places_is_an_error(nested):
    with pytest.raises(ConfigError) as exc:
        scenario_from_dict({"lane_mode": "right_half",
                            "pipeline": {"lane_mode": nested}})
    assert exc.value.errors == [
        "lane_mode: given both here and as pipeline.lane_mode"]


def test_module_constants_are_not_config_keys(tmp_path, capsys):
    """Fixed values of the perception, solver and supervisor rules are
    module constants, and the measured span is the row length: a file that
    sets one fails as a typo would."""
    fixed = {"pipeline": ["r_v", "f_points", "grid_extent_x", "grid_extent_y",
                          "min_border_span", "max_border_divergence",
                          "border_inlier_frac", "z_th_min", "z_th_max", "knn_k",
                          "knn_std_ratio", "grid_cell", "max_perp_angle",
                          "max_obstacle_points"],
             "nmpc": ["solver_max_iter", "penalty_init", "penalty_growth"],
             "fallback": ["align_tol", "max_row_heading_jump", "max_row_heading_rate",
                          "K_p", "v_during_realign", "search_omega",
                          "n_empty_for_end"]}
    data = {section: dict.fromkeys(names, 1.0) for section, names in fixed.items()}
    data["traverse_length"] = 10.0
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(data))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    for section, names in fixed.items():
        for name in names:
            assert f"config error: {section}.{name}: unknown key" in err
    assert "config error: traverse_length: unknown key" in err


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
    # the measured span is the row length, which must be positive
    with pytest.raises(ConfigError) as exc:
        scenario_from_dict({"world": {"row_length": 0.0}})
    assert "world.row_length" in str(exc.value)
    cfg = scenario_from_dict({"world": {"row_length": 15.0}})
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


def test_repeated_key_is_a_config_error(tmp_path):
    """A mapping that repeats a key, at any depth, is a config error naming
    the key and its line: plain YAML loading keeps the last value, so the
    first nmpc block below would be dropped without a word."""
    path = tmp_path / "twice.yaml"
    path.write_text("world:\n  seed: 1\n  row_length: 6.0\n  seed: 2\n")
    with pytest.raises(ConfigError) as exc:
        load_scenario(str(path))
    assert exc.value.errors == [f"{path}: line 4: key 'seed' repeated in one mapping"]
    path.write_text("nmpc:\n  K_travel: 2.0\nnmpc:\n  K_orient: 3.0\n")
    with pytest.raises(ConfigError) as exc:
        load_scenario(str(path))
    assert exc.value.errors == [f"{path}: line 3: key 'nmpc' repeated in one mapping"]


def test_merge_key_may_override_a_merged_key(tmp_path):
    """A key given next to a YAML merge (<<) replaces the merged value, as
    the merge rules say; it is not a repeated key."""
    path = tmp_path / "merge.yaml"
    path.write_text("targets:\n  - &t {x: 1.0, y: 0.5, standoff: 0.6}\n"
                    "  - {<<: *t, x: 2.0}\n")
    first, second = load_scenario(str(path)).targets
    assert (second.x, second.y, second.standoff) == (2.0, 0.5, 0.6)
    assert first.x == 1.0


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
    ({"nmpc": {"R_safe": 10**400}}, "nmpc.R_safe"),
    ({"thresholds": {"mae": 10**400}}, "thresholds.mae"),
])
def test_non_finite_numbers_rejected_with_path(data, field):
    """NaN, +-inf and integers past the float range are config errors in
    float and integer fields alike, named by their dotted path; none
    reaches a range check, float() or int()."""
    with pytest.raises(ConfigError) as exc:
        scenario_from_dict(data)
    assert [e for e in exc.value.errors if e.startswith(f"{field}: ")]


@pytest.mark.parametrize("data, field", [
    ({"world": {"extra_obstacles": [{"x": 9.0, "radius": -0.2}]}},
     "world.extra_obstacles[0].radius"),
    ({"world": {"plant_radius": -0.2}}, "world.plant_radius"),
    ({"world": {"plant_height": 0.0}}, "world.plant_height"),
    ({"world": {"canopy_points_per_plant": -5}}, "world.canopy_points_per_plant"),
    ({"world": {"canopy_points_per_plant": 0}}, "world.canopy_points_per_plant"),
    ({"camera": {"mount_height": -0.4}}, "camera.mount_height"),
    ({"camera": {"h_fov": 2.0 * math.pi + 1e-9}}, "camera.h_fov"),
])
def test_sim_fields_that_break_the_run_are_config_errors(tmp_path, capsys, data, field):
    """Values that would switch the collision check off, crash world
    generation or put the sensor underground are named by their dotted
    path before the run starts, and nothing is written."""
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(data))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"config error: {field}: must be" in capsys.readouterr().err
    assert not out.exists()


def test_full_circle_camera_is_valid():
    cfg = scenario_from_dict({"camera": {"h_fov": 2.0 * math.pi}})
    assert cfg.camera.h_fov == 2.0 * math.pi


def test_one_error_per_bad_field():
    # a value that fails to coerce keeps the default, so no range check
    # runs on a stand-in value
    with pytest.raises(ConfigError) as exc:
        scenario_from_dict({"world": {"row_length": "abc"}})
    assert exc.value.errors == ["world.row_length: expected a number, got 'abc'"]


# Non-default valid values the generic rule below cannot pick.
_SPECIAL = {"pipeline.lane_mode": "left_half"}


def _non_default(tp, default, path):
    """A valid value for a field of annotation `tp`, other than `default`."""
    if path in _SPECIAL:
        return _SPECIAL[path]
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if dataclasses.is_dataclass(tp):
        return _every_field(tp, path)
    if origin is list:
        return [_every_field(args[0], f"{path}[0]")]
    if origin is dict:
        return {name: 0.5 for name in THRESHOLD_SENSE}
    if tp is bool:
        return not default
    if tp is int:
        return default + 1
    if tp is float:
        return 0.9 * default if default else 0.05
    raise TypeError(f"{path}: no test value for a field of type {tp!r}")


def _settable(cls, path=""):
    """Dotted path of each settable value under `cls`: a field holding a
    dataclass is walked, and any other field, the targets list and the
    thresholds mapping included, is one value."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        here = f"{path}.{f.name}" if path else f.name
        if dataclasses.is_dataclass(hints[f.name]):
            yield from _settable(hints[f.name], here)
        else:
            yield here


def test_settable_value_count():
    """The scenario tree holds 38 settable values. A change that adds or
    removes a setting moves this pin and says why."""
    assert len(list(_settable(ScenarioConfig))) == 38


def _every_field(cls, path=""):
    """A mapping that sets every field of `cls`, recursively, off its default."""
    hints = typing.get_type_hints(cls)
    default = cls()
    return {f.name: _non_default(hints[f.name], getattr(default, f.name),
                                 f"{path}.{f.name}" if path else f.name)
            for f in dataclasses.fields(cls)}


def _leaves(data, path=()):
    """(key path, value) for every leaf of a nested mapping; lists are leaves."""
    for key, value in data.items():
        if isinstance(value, dict) and key != "thresholds":
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,), value


def _read(cfg, keys):
    value = cfg
    for key in keys:
        value = getattr(value, key)
    return value


def _plain(value):
    if isinstance(value, list):
        return [dataclasses.asdict(item) for item in value]
    return value


def test_every_field_of_the_tree_round_trips():
    """Each settable value, list entries and thresholds included, is read
    from a mapping alone and all of them together, and survives
    scenario_to_dict -> scenario_from_dict."""
    data = _every_field(ScenarioConfig)
    leaves = list(_leaves(data))
    assert [".".join(keys) for keys, _ in leaves] == list(_settable(ScenarioConfig))
    for keys, value in leaves:
        single = value
        for key in reversed(keys):
            single = {key: single}
        cfg = scenario_from_dict(single)
        assert _plain(_read(cfg, keys)) == value, keys
        assert _plain(_read(ScenarioConfig(), keys)) != value, keys
    cfg = scenario_from_dict(data)
    assert scenario_to_dict(cfg) == data
    assert scenario_from_dict(scenario_to_dict(cfg)) == cfg


_SHIPPED = [str(resources.files("rownav").joinpath("scenarios", name))
            for name in ("sim_straight.yaml", "sim_curved.yaml", "sim_half_lane.yaml",
                         "sim_obstacle.yaml", "sim_misaligned.yaml", "sim_target.yaml")]
_SHIPPED.append(str(Path(__file__).resolve().parents[1] / "bench" / "pergola_dense.yaml"))


@pytest.mark.parametrize("path", _SHIPPED, ids=lambda p: Path(p).stem)
def test_shipped_scenarios_round_trip(path):
    cfg = load_scenario(path)
    assert scenario_from_dict(scenario_to_dict(cfg)) == cfg
