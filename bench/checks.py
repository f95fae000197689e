"""Checks of one pass against computations made apart from rownav.

Each check returns a list of problems, empty when it holds. None of them
calls the program's own geometry, dynamics or metrics code: stems are
placed from the scenario's row geometry, poses are stepped with the
closed-form unicycle arc, and the path error, clearance time and lane
truth are worked out here from the logged poses. The checks cover
straight rows, which is what every workload runs.
"""

from __future__ import annotations

import math

import numpy as np

POSE_TOL = 1e-9        # m and rad: logged pose vs the closed-form arc
PLAN_STATE_TOL = 1e-6  # m and rad: plan states (substepped RK4) vs the arc
REPORT_TOL = 1e-12     # m and s: report vs the recomputation
LANE_OFFSET_TOL = 0.15  # m: fitted middle line vs the true lane centre at x = 0
LANE_ANGLE_TOL = 0.10   # rad: fitted middle line direction vs the row direction

def heading(pose) -> float:
    return 2.0 * math.atan2(pose.x4, pose.x3)


def angle_diff(a: float, b: float) -> float:
    return abs(math.remainder(a - b, 2.0 * math.pi))


def arc_step(x: float, y: float, th: float, v: float, w: float, dt: float):
    """Exact unicycle motion under a constant (v, w) held for dt."""
    if abs(w) < 1e-9:
        return x + v * dt * math.cos(th), y + v * dt * math.sin(th), th
    th2 = th + w * dt
    r = v / w
    return x + r * (math.sin(th2) - math.sin(th)), y - r * (math.cos(th2) - math.cos(th)), th2


def _pose_error(pose, x: float, y: float, th: float) -> float:
    return max(abs(pose.x1 - x), abs(pose.x2 - y), angle_diff(heading(pose), th))


def lane_offset(cfg) -> float:
    """Lateral position of the lane centre the lane mode asks for (left +)."""
    quarter = cfg.world.intra_row_space / 4.0
    return {"full": 0.0, "right_half": -quarter, "left_half": quarter}[cfg.pipeline.lane_mode]


def stem_circles(world_spec) -> tuple[np.ndarray, np.ndarray]:
    """Stem centres and radii: one plant every plant_spacing along each row
    side out to row_length + canopy_overhang, plus the extra obstacles."""
    if world_spec.curvature != 0.0:
        raise ValueError("the checks cover straight rows only")
    s = np.arange(0.0, world_spec.row_length + world_spec.canopy_overhang + 1e-9,
                  world_spec.plant_spacing)
    half = world_spec.intra_row_space / 2.0
    centres = [np.column_stack([s, np.full_like(s, side * half)]) for side in (1.0, -1.0)]
    radii = [np.full(2 * len(s), world_spec.plant_radius)]
    for obs in world_spec.extra_obstacles:
        centres.append(np.array([[obs.x, obs.y]]))
        radii.append(np.array([obs.radius]))
    return np.vstack(centres), np.concatenate(radii)


def check_poses(records, start, dt: float) -> list[str]:
    """Each pose follows from the previous pose and command by the exact arc."""
    problems = []
    x, y, th = start.x, start.y, start.theta
    for i, rec in enumerate(records):
        err = _pose_error(rec.pose, x, y, th)
        if err > POSE_TOL:
            problems.append(f"tick {i}: pose off the unicycle arc by {err:.3e}")
        x, y, th = arc_step(rec.pose.x1, rec.pose.x2, heading(rec.pose),
                            rec.command.v, rec.command.omega, dt)
    return problems


def check_commands(records, nmpc_cfg) -> list[str]:
    return [f"tick {i}: command ({rec.command.v}, {rec.command.omega}) outside "
            f"|v| <= {nmpc_cfg.v_max}, |omega| <= {nmpc_cfg.omega_max}"
            for i, rec in enumerate(records)
            if abs(rec.command.v) > nmpc_cfg.v_max
            or abs(rec.command.omega) > nmpc_cfg.omega_max]


def check_stems(records, world_spec) -> list[str]:
    """The rover centre stays outside every stem circle."""
    centres, radii = stem_circles(world_spec)
    problems = []
    for i, rec in enumerate(records):
        d = np.hypot(centres[:, 0] - rec.pose.x1, centres[:, 1] - rec.pose.x2)
        j = int(np.argmin(d - radii))
        if d[j] < radii[j]:
            problems.append(f"tick {i}: rover centre {d[j]:.3f} m from the stem at "
                            f"({centres[j, 0]:.2f}, {centres[j, 1]:.2f})")
    return problems


def check_report(cfg, log, report) -> list[str]:
    """The run passes the span before END_OF_ROW; clearance time and path
    MAE recomputed from the poses equal the report and meet the thresholds."""
    from rownav.config import THRESHOLD_SENSE

    records = log.records
    span = cfg.span
    problems = []
    if not (log.completed and records and records[-1].mode.value == "end_of_row"):
        problems.append("run did not end in END_OF_ROW")
    passed = [i for i, rec in enumerate(records[:-1]) if rec.pose.x1 > span]
    if not passed:
        return problems + [f"rover never passed x = {span} m before END_OF_ROW"]
    clearance = records[passed[0]].t - records[0].t
    if abs(clearance - report.clearance_time) > REPORT_TOL:
        problems.append(f"clearance_time {report.clearance_time} != recomputed {clearance}")
    lateral = [rec.pose.x2 for rec in records if 0.0 <= rec.pose.x1 <= span]
    if not lateral:
        return problems + ["no pose inside the measured span"]
    mae = float(np.abs(np.array(lateral) - lane_offset(cfg)).mean())
    if abs(mae - report.mae) > REPORT_TOL:
        problems.append(f"report mae {report.mae} != recomputed {mae}")
    values = {"mae": mae, "mse": report.mse, "v_avg": report.v_avg,
              "omega_std": report.omega_std, "gamma_std": report.gamma_std,
              "clearance_time": clearance, "collisions": log.collisions}
    for name, bound in cfg.thresholds.items():
        value, sense = values[name], THRESHOLD_SENSE[name]
        ok = {"<=": value <= bound, ">=": value >= bound, "==": value == bound}[sense]
        if not ok:
            problems.append(f"threshold {name}: {value} is not {sense} {bound}")
    return problems


def check_plans(records, perceptions, plans, nmpc_cfg) -> list[str]:
    """Every CONVERGED plan starts with the applied command, its predicted
    states follow its inputs, and states 1..n keep R_safe from every
    obstacle point up to solver_tol (the solver's own violation unit, m^2)."""
    problems = []
    r2 = nmpc_cfg.R_safe ** 2
    for i, rec in enumerate(records):
        if rec.solver_status is None or rec.solver_status.value != "converged":
            continue
        plan = plans.get(i)
        if plan is None:
            problems.append(f"tick {i}: CONVERGED without a captured plan")
            continue
        if plan.inputs[0] != rec.command:
            problems.append(f"tick {i}: command is not the plan's first input")
        x, y, th = 0.0, 0.0, 0.0
        for k, (state, u) in enumerate(zip(plan.predicted_states, plan.inputs + (None,))):
            err = _pose_error(state, x, y, th)
            if err > PLAN_STATE_TOL:
                problems.append(f"tick {i}: plan state {k} off its inputs by {err:.3e}")
            if u is not None:
                x, y, th = arc_step(x, y, th, u.v, u.omega, nmpc_cfg.dt)
        obstacles = perceptions[i].obstacles
        if obstacles is None or len(obstacles) == 0:
            continue
        states = np.array([(s.x1, s.x2) for s in plan.predicted_states[1:]])
        d2 = ((states[:, None, :] - obstacles[None, :, :]) ** 2).sum(axis=2)
        violation = r2 - float(d2.min())
        if violation > nmpc_cfg.solver_tol:
            problems.append(f"tick {i}: CONVERGED plan cuts {violation:.3e} m^2 "
                            f"inside R_safe")
    return problems


def lane_errors(cfg, records, perceptions) -> list[tuple[int, float, float]]:
    """(tick, offset error m, angle error rad) of the fitted middle line
    against the true lane centre, in the rover frame, on every OK tick."""
    centre = lane_offset(cfg)
    out = []
    for i, rec in enumerate(records):
        if rec.perception_status.value != "ok":
            continue
        th = heading(rec.pose)
        middle = perceptions[i].lane.middle
        true_b = (centre - rec.pose.x2) / math.cos(th)
        out.append((i, abs(middle.b - true_b), angle_diff(math.atan(middle.a), -th)))
    return out


def check_lanes(cfg, records, perceptions) -> list[str]:
    return [f"tick {i}: fitted middle line off the lane centre by {db:.3f} m, "
            f"{da:.3f} rad"
            for i, db, da in lane_errors(cfg, records, perceptions)
            if db > LANE_OFFSET_TOL or da > LANE_ANGLE_TOL]


def check_pass(cfg, rec) -> list[str]:
    """Every check on one PassRecord except check_lanes, which judges single
    ticks and is counted per tick instead."""
    records = rec.log.records
    return (check_poses(records, cfg.start, cfg.nmpc.dt)
            + check_commands(records, cfg.nmpc)
            + check_stems(records, cfg.world)
            + check_report(cfg, rec.log, rec.report)
            + check_plans(records, rec.perceptions, rec.plans, cfg.nmpc))
