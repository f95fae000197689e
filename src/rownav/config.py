"""Scenario configuration: strict YAML loading and validation.

One nested mapping per scenario. Unknown keys are hard errors (silent
typos in tuning parameters are the dominant failure mode), every error
is reported with its dotted field path, and all units are SI with angles
in radians.

One builder, `_build`, reads every section, the top level and `rownav
check`'s bounds included: it types each field from its annotation and
then runs that section's own `validate`.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import types
import typing
from dataclasses import dataclass, field

import yaml

from .nmpc import NmpcConfig
from .pipeline import PipelineConfig
from .sim import CameraSpec, TargetSpec, WorldSpec
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

    def validate(self, path: str = "") -> list[str]:
        errs = [f"thresholds.{name}: unknown metric "
                f"(expected one of {sorted(THRESHOLD_SENSE)})"
                for name in self.thresholds if name not in THRESHOLD_SENSE]
        if self.traverse_length is not None:
            if not 0.0 < self.traverse_length <= self.world.row_length:
                errs.append("traverse_length: must be in (0, world.row_length]")
        if self.max_ticks < 1:
            errs.append("max_ticks: must be >= 1")
        return errs


# stands for a value that failed to coerce; the field keeps its default
_INVALID = object()

_SCALAR_KINDS = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}


def _typed(tp, value, path: str, errors: list[str]):
    """`value` coerced to the annotation `tp`, or _INVALID after an error."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:        # X | None
        return None if value is None else _typed(args[0], value, path, errors)
    if origin is list:
        if not isinstance(value, list):
            errors.append(f"{path}: expected a list")
            return _INVALID
        return [_typed(args[0], item, f"{path}[{i}]", errors)
                for i, item in enumerate(value)]
    if origin is dict or dataclasses.is_dataclass(tp):
        if value is not None and not isinstance(value, dict):
            errors.append(f"{path}: expected a mapping")
        value = value if isinstance(value, dict) else {}
        if origin is dict:
            return {key: _typed(args[1], item, f"{path}.{key}", errors)
                    for key, item in value.items()}
        return _build(tp, value, path, errors)
    kind = _SCALAR_KINDS.get(tp)
    if kind is None:
        raise TypeError(f"{path}: no coercion for a field of type {tp!r}")
    if tp is bool or tp is str:
        if isinstance(value, tp):
            return value
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        pass
    elif tp is int:
        if isinstance(value, int) or (math.isfinite(value) and value == int(value)):
            return int(value)
    elif abs(value) <= sys.float_info.max:   # finite, and an int within float range
        return float(value)
    else:
        kind = "a finite number"
    errors.append(f"{path}: expected {kind}, got {value!r}")
    return _INVALID


def _build(cls, data: dict, path: str, errors: list[str]):
    """A `cls` from `data`: each key must name a field, each value is coerced
    by the field's annotation (keeping the default if it fails, so one bad
    field gives one error), then the object's own `validate` runs."""
    obj = cls()
    hints = typing.get_type_hints(cls)
    for key, value in data.items():
        here = f"{path}.{key}" if path else key
        if key not in hints:
            errors.append(f"{here}: unknown key")
            continue
        typed = _typed(hints[key], value, here, errors)
        if typed is not _INVALID:
            setattr(obj, key, typed)
    if hasattr(obj, "validate"):
        errors.extend(obj.validate(path))
    return obj


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """Build and validate a scenario from a nested mapping."""
    if not isinstance(data, dict):
        raise ConfigError(["top level: expected a mapping"])
    data = dict(data)
    errors: list[str] = []
    if "lane_mode" in data:
        # Top-level shorthand for pipeline.lane_mode, checked as that field;
        # a pipeline value neither a mapping nor None is _build's error.
        lane_mode, pipeline = data.pop("lane_mode"), data.get("pipeline")
        if isinstance(pipeline, dict) and "lane_mode" in pipeline:
            errors.append("lane_mode: given both here and as pipeline.lane_mode")
        elif pipeline is None or isinstance(pipeline, dict):
            data["pipeline"] = {**(pipeline or {}), "lane_mode": lane_mode}
    cfg = _build(ScenarioConfig, data, "", errors)
    if errors:
        raise ConfigError(errors)
    return cfg


def load_scenario(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    return scenario_from_dict({} if data is None else data)


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    """Normalized mapping for snapshots; round-trips through scenario_from_dict."""
    out = dataclasses.asdict(cfg)
    if cfg.traverse_length is None:
        del out["traverse_length"]
    return out


def dump_scenario(cfg: ScenarioConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(scenario_to_dict(cfg), fh, sort_keys=True)
