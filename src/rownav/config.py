"""Scenario configuration: strict YAML loading and validation.

One nested mapping per scenario. Unknown keys are hard errors (silent
typos in tuning parameters are the dominant failure mode), every error
is reported with its dotted field path, and all units are SI with angles
in radians.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import yaml

from .nmpc import NmpcConfig
from .pipeline import LANE_MODES, PipelineConfig
from .sim import CameraSpec, ObstacleSpec, TargetSpec, WorldSpec
from .supervisor import FallbackConfig

# thresholds understood by the regression gate, with their comparison sense
THRESHOLD_SENSE = {
    "mae": "<=",
    "mse": "<=",
    "v_avg": ">=",
    "omega_std": "<=",
    "gamma_std": "<=",
    "clearance_time": "<=",
    "collisions": "==",
}


class ConfigError(ValueError):
    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass
class StartPose:
    x: float = 0.0
    y: float = 0.0
    theta: float = 0.0


@dataclass
class ScenarioConfig:
    world: WorldSpec = field(default_factory=WorldSpec)
    camera: CameraSpec = field(default_factory=CameraSpec)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    nmpc: NmpcConfig = field(default_factory=NmpcConfig)
    fallback: FallbackConfig = field(default_factory=FallbackConfig)
    start: StartPose = field(default_factory=StartPose)
    targets: list[TargetSpec] = field(default_factory=list)
    thresholds: dict[str, float] = field(default_factory=dict)
    traverse_length: float | None = None   # metrics span; defaults to row_length
    max_ticks: int = 400

    @property
    def span(self) -> float:
        return self.traverse_length if self.traverse_length is not None \
            else self.world.row_length

    @property
    def desired_offset(self) -> float:
        """Reference lateral offset implied by the lane mode."""
        mode = self.pipeline.lane_mode
        if mode == "right_half":
            return -self.world.intra_row_space / 4.0
        if mode == "left_half":
            return self.world.intra_row_space / 4.0
        return 0.0


_LIST_FIELDS = {
    ("WorldSpec", "extra_obstacles"): ObstacleSpec,
    ("ScenarioConfig", "targets"): TargetSpec,
}


def _coerce_scalar(value, target, path: str, errors: list[str]):
    if isinstance(target, bool):
        if isinstance(value, bool):
            return value
        errors.append(f"{path}: expected a boolean, got {value!r}")
        return target
    if isinstance(target, int) and not isinstance(target, bool):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            errors.append(f"{path}: expected an integer, got {value!r}")
            return target
        if isinstance(value, float) and not (math.isfinite(value)
                                             and value == int(value)):
            errors.append(f"{path}: expected an integer, got {value!r}")
            return target
        return int(value)
    if isinstance(target, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            errors.append(f"{path}: expected a number, got {value!r}")
            return target
        if not math.isfinite(value):
            errors.append(f"{path}: expected a finite number, got {value!r}")
            return target
        return float(value)
    if isinstance(target, str):
        if not isinstance(value, str):
            errors.append(f"{path}: expected a string, got {value!r}")
            return target
        return value
    errors.append(f"{path}: unsupported value {value!r}")
    return target


def _build_dataclass(cls, data, path: str, errors: list[str]):
    obj = cls()
    if data is None:
        return obj
    if not isinstance(data, dict):
        errors.append(f"{path}: expected a mapping")
        return obj
    names = {f.name for f in dataclasses.fields(cls)}
    for key, value in data.items():
        here = f"{path}.{key}"
        if key not in names:
            errors.append(f"{here}: unknown key")
            continue
        current = getattr(obj, key)
        item_cls = _LIST_FIELDS.get((cls.__name__, key))
        if item_cls is not None:
            if not isinstance(value, list):
                errors.append(f"{here}: expected a list")
                continue
            items = []
            for idx, entry in enumerate(value):
                items.append(_build_dataclass(item_cls, entry,
                                              f"{here}[{idx}]", errors))
            setattr(obj, key, items)
        elif dataclasses.is_dataclass(current):
            setattr(obj, key, _build_dataclass(type(current), value, here, errors))
        elif isinstance(current, dict):
            if not isinstance(value, dict):
                errors.append(f"{here}: expected a mapping")
                continue
            setattr(obj, key, dict(value))
        else:
            setattr(obj, key, _coerce_scalar(value, current, here, errors))
    return obj


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """Build and validate a scenario from a nested mapping."""
    errors: list[str] = []
    if not isinstance(data, dict):
        raise ConfigError(["top level: expected a mapping"])
    data = dict(data)
    lane_mode = data.pop("lane_mode", None)
    traverse_length = data.pop("traverse_length", None)
    max_ticks = data.pop("max_ticks", None)

    cfg = ScenarioConfig()
    known = {"world", "camera", "pipeline", "nmpc", "fallback", "start",
             "targets", "thresholds"}
    for key, value in data.items():
        here = key
        if key not in known:
            errors.append(f"{here}: unknown key")
            continue
        if key == "targets":
            if not isinstance(value, list):
                errors.append(f"{here}: expected a list")
                continue
            cfg.targets = [_build_dataclass(TargetSpec, entry, f"{here}[{i}]", errors)
                           for i, entry in enumerate(value)]
        elif key == "thresholds":
            if value is None:
                continue
            if not isinstance(value, dict):
                errors.append(f"{here}: expected a mapping")
                continue
            for name, bound in value.items():
                if name not in THRESHOLD_SENSE:
                    errors.append(f"{here}.{name}: unknown metric "
                                  f"(expected one of {sorted(THRESHOLD_SENSE)})")
                else:
                    cfg.thresholds[name] = _coerce_scalar(bound, 0.0, f"{here}.{name}",
                                                          errors)
        else:
            current = getattr(cfg, key)
            setattr(cfg, key, _build_dataclass(type(current), value, here, errors))

    if lane_mode is not None:
        if lane_mode not in LANE_MODES:
            errors.append(f"lane_mode: must be one of {LANE_MODES}")
        else:
            cfg.pipeline.lane_mode = lane_mode
    if traverse_length is not None:
        cfg.traverse_length = _coerce_scalar(traverse_length, 0.0,
                                             "traverse_length", errors)
    if max_ticks is not None:
        cfg.max_ticks = _coerce_scalar(max_ticks, 1, "max_ticks", errors)

    errors.extend(cfg.world.validate("world"))
    errors.extend(cfg.camera.validate("camera"))
    errors.extend(cfg.pipeline.validate("pipeline"))
    errors.extend(cfg.nmpc.validate("nmpc"))
    errors.extend(cfg.fallback.validate("fallback"))
    for i, tgt in enumerate(cfg.targets):
        errors.extend(tgt.validate(f"targets[{i}]"))
    if cfg.traverse_length is not None:
        if not 0.0 < cfg.traverse_length <= cfg.world.row_length:
            errors.append("traverse_length: must be in (0, world.row_length]")
    if cfg.max_ticks < 1:
        errors.append("max_ticks: must be >= 1")
    if errors:
        raise ConfigError(errors)
    return cfg


def load_scenario(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    if data is None:
        data = {}
    return scenario_from_dict(data)


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    """Normalized mapping for snapshots; round-trips through scenario_from_dict."""
    out = {
        "world": dataclasses.asdict(cfg.world),
        "camera": dataclasses.asdict(cfg.camera),
        "pipeline": dataclasses.asdict(cfg.pipeline),
        "nmpc": dataclasses.asdict(cfg.nmpc),
        "fallback": dataclasses.asdict(cfg.fallback),
        "start": dataclasses.asdict(cfg.start),
        "targets": [dataclasses.asdict(t) for t in cfg.targets],
        "thresholds": dict(cfg.thresholds),
        "max_ticks": cfg.max_ticks,
    }
    if cfg.traverse_length is not None:
        out["traverse_length"] = cfg.traverse_length
    return out


def dump_scenario(cfg: ScenarioConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(scenario_to_dict(cfg), fh, sort_keys=True)
