"""The benchmark's own checks fail on logs tampered to break them.

    python3 -m pytest bench/test_checks.py -q

One untraced pass of row_straight is recorded once; each test tampers a
copy of one part of it and expects the matching check to name the tick.
"""

import dataclasses
import random

import numpy as np
import pytest

import checks
from loop import log_digest, run_pass
from run import MIN_TAIL_SAMPLES, tail
from workloads import import_rownav, load_workload

rownav = import_rownav()


@pytest.fixture(scope="module")
def straight():
    cfg = load_workload("row_straight", 0, "scenario")
    world = rownav.generate_world(cfg.world)
    return cfg, world, run_pass(rownav, cfg, world, traced=False)


def tampered(records, index, **changes):
    out = list(records)
    out[index] = dataclasses.replace(out[index], **changes)
    return out


def test_untampered_pass_has_no_problems(straight):
    cfg, _, rec = straight
    assert checks.check_pass(cfg, rec) == []
    assert checks.check_lanes(cfg, rec.log.records, rec.perceptions) == []


def test_traced_pass_logs_the_same_run(straight):
    cfg, world, rec = straight
    traced = run_pass(rownav, cfg, world, traced=True)
    assert log_digest(traced.log) == log_digest(rec.log)


def test_pose_off_the_arc_fails(straight):
    cfg, _, rec = straight
    pose = rec.log.records[10].pose
    records = tampered(rec.log.records, 10,
                       pose=dataclasses.replace(pose, x1=pose.x1 + 1e-6))
    problems = checks.check_poses(records, cfg.start, cfg.nmpc.dt)
    assert any(p.startswith("tick 10:") for p in problems)


def test_command_outside_bounds_fails(straight):
    cfg, _, rec = straight
    records = tampered(rec.log.records, 5,
                       command=rownav.ControlInput(1.01 * cfg.nmpc.v_max, 0.0))
    assert [p[:8] for p in checks.check_commands(records, cfg.nmpc)] == ["tick 5: "]
    records = tampered(rec.log.records, 6,
                       command=rownav.ControlInput(0.0, -1.01 * cfg.nmpc.omega_max))
    assert [p[:8] for p in checks.check_commands(records, cfg.nmpc)] == ["tick 6: "]


def test_pose_inside_a_stem_fails(straight):
    cfg, _, rec = straight
    stem_y = cfg.world.intra_row_space / 2.0
    records = tampered(rec.log.records, 20,
                       pose=rownav.pose_from(4 * cfg.world.plant_spacing,
                                             stem_y - 0.5 * cfg.world.plant_radius, 0.0))
    problems = checks.check_stems(records, cfg.world)
    assert len(problems) == 1 and problems[0].startswith("tick 20:")


def test_converged_plan_inside_r_safe_fails(straight):
    cfg, _, rec = straight
    tick = min(rec.plans)
    state = rec.plans[tick].predicted_states[2]
    perceptions = list(rec.perceptions)
    near = np.array([[state.x1 + 0.5 * cfg.nmpc.R_safe, state.x2]])
    perceptions[tick] = dataclasses.replace(
        perceptions[tick], obstacles=np.vstack([perceptions[tick].obstacles, near]))
    problems = checks.check_plans(rec.log.records, perceptions, rec.plans, cfg.nmpc)
    assert len(problems) == 1 and "inside R_safe" in problems[0]


def test_mae_that_disagrees_with_the_poses_fails(straight):
    cfg, _, rec = straight
    report = dataclasses.replace(rec.report, mae=rec.report.mae * 1.001)
    assert any("mae" in p for p in checks.check_report(cfg, rec.log, report))


@pytest.mark.parametrize("n, passes", [(MIN_TAIL_SAMPLES, 1), (86, 1), (88, 1), (105, 1),
                                       (157, 1), (1000, 1), (88, 2), (105, 3)])
def test_tail_keeps_ten_samples_beyond_it(n, passes):
    """n samples a pass, pooled over passes: ten of each pass lie beyond the tail."""
    rng = random.Random(n * passes)
    values = [rng.random() for _ in range(n * passes)]
    cut = tail(values, n)
    assert sum(v > cut for v in values) >= 10 * passes
    assert sum(v >= cut for v in values) >= 10 * passes + 1


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError):
        tail([1.0] * (MIN_TAIL_SAMPLES - 1))
