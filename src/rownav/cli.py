"""Scenario runner and regression gate.

Subcommands:
  run    execute one scenario, write trajectory CSV + metrics JSON
  check  compare a metrics file against thresholds
  sweep  run the cross-product of parameter overrides

Exit codes: 0 success, 1 scenario or threshold failure, 2 config error.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys
from importlib import resources

import yaml

from .config import (THRESHOLD_SENSE, ConfigError, ScenarioConfig, dump_scenario,
                     load_scenario, read_yaml, scenario_from_dict)
from .core import heading_of, pose_from
from .metrics import MetricsReport, NotCompleted, compute_report
from .pipeline import PerceptionStatus
from .sim import RunLog, generate_world, run_scenario
from .supervisor import Mode

CSV_COLUMNS = ["t", "x", "y", "theta", "v_cmd", "omega_cmd",
               "mode", "perception_status", "solver_status"]


def resolve_config_path(name: str) -> str:
    """Accept a filesystem path or the name of a bundled scenario."""
    if os.path.exists(name):
        return name
    base = name if name.endswith(".yaml") else name + ".yaml"
    bundled = resources.files("rownav").joinpath("scenarios", base)
    if bundled.is_file():
        return str(bundled)
    raise ConfigError([f"config: no such file or bundled scenario: {name}"])


def _config_errors(messages) -> int:
    """Print each message as a config error; return the config-error exit code."""
    for message in messages:
        print(f"config error: {message}", file=sys.stderr)
    return 2


def _override_seed(cfg: ScenarioConfig, seed: int | None) -> ScenarioConfig:
    """`cfg` with a --seed override applied and checked as world.seed is."""
    if seed is not None:
        cfg.world.seed = seed
        errors = cfg.world.validate()
        if errors:
            raise ConfigError(errors)
    return cfg


def _make_out_dir(path: str) -> bool:
    """Create the output directory, or print why it cannot be made."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        print(f"error: --out {path}: {exc}", file=sys.stderr)
        return False
    return True


def _write_trajectory_csv(log: RunLog, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in log.records:
            p, c, solver = rec.pose, rec.command, rec.solver_status
            writer.writerow([repr(v) for v in (rec.t, p.x1, p.x2, heading_of(p), c.v, c.omega)]
                            + [rec.mode.value, rec.perception_status.value,
                               solver.value if solver is not None else ""])


def _tick_counts(records) -> dict[str, int]:
    """A run's ticks, realign ticks and invalid-lane ticks."""
    return {"ticks": len(records),
            "realign_ticks": sum(r.mode is Mode.FALLBACK_REALIGN for r in records),
            "invalid_lane_ticks": sum(r.perception_status is PerceptionStatus.INVALID_LANE
                                      for r in records)}


def execute_scenario(cfg: ScenarioConfig) -> tuple[RunLog, MetricsReport | None]:
    world = generate_world(cfg.world)
    start = pose_from(cfg.start.x, cfg.start.y, cfg.start.theta)
    log = run_scenario(world, start, cfg.camera, cfg.pipeline, cfg.nmpc,
                       cfg.fallback, cfg.targets, cfg.max_ticks)
    try:
        report = compute_report(log, world.centerline, cfg.span, cfg.desired_offset)
    except NotCompleted:
        report = None
    return log, report


def _cmd_run(args) -> int:
    try:
        cfg = _override_seed(load_scenario(resolve_config_path(args.config)),
                             args.seed)
    except ConfigError as exc:
        return _config_errors(exc.errors)
    except (OSError, yaml.YAMLError) as exc:
        return _config_errors([exc])

    out_dir = args.out
    if not _make_out_dir(out_dir):
        return 2
    written: list[str] = []
    try:
        log, report = execute_scenario(cfg)
        csv_path = os.path.join(out_dir, "trajectory.csv")
        _write_trajectory_csv(log, csv_path)
        written.append(csv_path)

        metrics_path = os.path.join(out_dir, "metrics.json")
        payload = report.as_dict() if report is not None else {
            "clearance_time": None, "collisions": log.collisions}
        with open(metrics_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(metrics_path)

        snap_path = os.path.join(out_dir, "config_snapshot.yaml")
        dump_scenario(cfg, snap_path)
        written.append(snap_path)
    except Exception as exc:  # unexpected failure: no partial outputs
        for path in written:
            try:
                os.remove(path)
            except OSError:
                pass
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if report is not None:
        print(report.as_text())
    if log.collision:
        print(f"FAIL: collision ({log.collision_note})")
        return 1
    if report is None:
        print("FAIL: row not completed")
        return 1
    print(f"ok: wrote {out_dir}")
    return 0


def check_thresholds(metrics: dict, thresholds: dict) -> tuple[bool, list[str]]:
    """Compare metrics to bounds on known metrics, as `_load_thresholds` reads
    them; returns (all_ok, report lines)."""
    lines = []
    ok = True
    if not thresholds:
        lines.append("warning: no thresholds given, vacuous pass")
        return True, lines
    for name in sorted(thresholds):
        bound, sense = thresholds[name], THRESHOLD_SENSE[name]
        value = metrics.get(name)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            ok = False
            # a run that never cleared the row writes "clearance_time": null
            shown = "null" if value is None else repr(value)
            why = ("missing from" if name not in metrics
                   else f"{shown} is not a number in")
            lines.append(f"FAIL {name}: {why} metrics file")
            continue
        passed = {"<=": value <= bound, ">=": value >= bound,
                  "==": value == bound}[sense]
        tag = "pass" if passed else "FAIL"
        lines.append(f"{tag} {name} = {value} (required {sense} {bound})")
        ok = ok and passed
    return ok, lines


def _load_thresholds(path: str) -> dict[str, float]:
    """Bounds from a thresholds YAML or a scenario's thresholds block,
    read by the same rules as a scenario's."""
    data = read_yaml(path)
    if isinstance(data, dict) and "thresholds" in data:
        data = data["thresholds"]
    if not isinstance(data, dict):
        raise ConfigError([f"{path}: expected a mapping of metric bounds"])
    return scenario_from_dict({"thresholds": data}).thresholds


def _cmd_check(args) -> int:
    try:
        with open(args.metrics, "r", encoding="utf-8") as fh:
            metrics = json.load(fh)
        if not isinstance(metrics, dict):
            raise ValueError(f"{args.metrics}: expected a JSON object of metrics")
        thresholds = _load_thresholds(args.thresholds)
    except ConfigError as exc:
        return _config_errors(exc.errors)
    except (OSError, ValueError, yaml.YAMLError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ok, lines = check_thresholds(metrics, thresholds)
    for line in lines:
        print(line)
    return 0 if ok else 1


def _set_dotted(data: dict, dotted: str, value) -> None:
    keys = dotted.split(".")
    here = data
    for key in keys[:-1]:
        here = here.setdefault(key, {})
        if not isinstance(here, dict):
            raise ConfigError([f"grid key {dotted}: {key} is not a mapping"])
    here[keys[-1]] = value


def _cmd_sweep(args) -> int:
    try:
        base = read_yaml(resolve_config_path(args.config)) or {}
        grid = read_yaml(args.grid) or {}
        if not isinstance(grid, dict):
            raise ConfigError([f"{args.grid}: expected a mapping of key -> list"])
        not_paths = [f"grid key {k!r}: expected a dotted config path such as "
                     f"nmpc.K_lane" for k in grid if not isinstance(k, str)]
        if not_paths:
            raise ConfigError(not_paths)
        empty = [f"{k}: empty value list, so the sweep has no cell"
                 for k in sorted(grid) if grid[k] == []]
        if empty:
            raise ConfigError(empty)
        if args.seed is not None and "world.seed" in grid:
            raise ConfigError(["--seed would override the grid's world.seed; "
                               "give the seeds in one place"])
        # validate the baseline and the seed override before sweeping
        _override_seed(scenario_from_dict(base), args.seed)
    except ConfigError as exc:
        return _config_errors(exc.errors)
    except (OSError, yaml.YAMLError) as exc:
        return _config_errors([exc])

    if args.out and not _make_out_dir(args.out):
        return 2

    keys = sorted(grid)
    value_lists = [grid[k] if isinstance(grid[k], list) else [grid[k]] for k in keys]
    cells = list(itertools.product(*value_lists)) if keys else [()]

    rows = []
    for combo in cells:
        data = yaml.safe_load(yaml.safe_dump(base))  # deep copy
        label = ", ".join(f"{k}={v}" for k, v in zip(keys, combo)) or "baseline"
        counts = dict.fromkeys(_tick_counts([]))     # None: the cell did not run
        report = None
        try:
            for key, value in zip(keys, combo):
                _set_dotted(data, key, value)
            cfg = _override_seed(scenario_from_dict(data), args.seed)
            log, report = execute_scenario(cfg)
            counts = _tick_counts(log.records)
            status = ("collision" if log.collision
                      else "not_completed" if report is None else "ok")
        except Exception as exc:
            status = f"error: {exc}"
        rows.append((label, status, report if status == "ok" else None, counts))

    cw = max(len("cell"), *(len(row[0]) for row in rows))
    sw = max(len("status"), *(len(row[1]) for row in rows))
    print(f"{'cell':<{cw}} {'status':<{sw}} {'v_avg':>7} {'mae':>7} {'omega_std':>10} "
          f"{'ticks':>6} {'realign':>7} {'invalid':>7}")
    for label, status, report, counts in rows:
        if report is not None:
            line = (f"{label:<{cw}} {status:<{sw}} {report.v_avg:>7.3f} "
                    f"{report.mae:>7.3f} {report.omega_std:>10.3f}")
        else:
            line = f"{label:<{cw}} {status:<{sw}} {'-':>7} {'-':>7} {'-':>10}"
        ticks, realign, invalid = ("-" if c is None else c for c in counts.values())
        print(f"{line} {ticks:>6} {realign:>7} {invalid:>7}")
    if args.out:
        payload = [{"cell": label, "status": status,
                    "metrics": report.as_dict() if report else None, **counts}
                   for label, status, report, counts in rows]
        with open(os.path.join(args.out, "sweep.json"), "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rownav", description="Row-crop navigation scenario harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("--config", required=True,
                       help="scenario YAML path or bundled scenario name")
    p_run.add_argument("--seed", type=int, default=None, help="world seed override")
    p_run.add_argument("--out", default="rownav_out", help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_check = sub.add_parser("check", help="compare metrics to thresholds")
    p_check.add_argument("--metrics", required=True, help="metrics JSON path")
    p_check.add_argument("--thresholds", required=True,
                         help="thresholds YAML (or scenario YAML with a thresholds block)")
    p_check.set_defaults(func=_cmd_check)

    p_sweep = sub.add_parser("sweep", help="run a parameter grid")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--grid", required=True,
                         help="YAML mapping of dotted config key -> list of values")
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    args = parser.parse_args(argv)
    return args.func(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
