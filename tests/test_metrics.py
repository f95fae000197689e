import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rownav import metrics
from rownav.core import ControlInput, pose_from
from rownav.metrics import (NotCompleted, clearance_time, compute_report,
                            path_errors, velocity_and_heading_stats)
from rownav.pipeline import PerceptionStatus
from rownav.sim import Centerline, Mode, RunLog, TickRecord


def make_log(poses, commands, dt=0.7, collision=False):
    records = [TickRecord(k * dt, p, c, Mode.TRAVERSE, PerceptionStatus.OK, None)
               for k, (p, c) in enumerate(zip(poses, commands))]
    return RunLog(records=records, completed=True, collision=collision)


def straight_run(v=0.4, dt=0.7, n=80, offset=0.0, heading=0.0):
    poses = [pose_from(v * dt * k, offset, heading) for k in range(n)]
    commands = [ControlInput(v, 0.0)] * n
    return make_log(poses, commands, dt)


LINE = Centerline(0.0)


def test_clearance_time_constant_speed():
    log = straight_run(v=0.4, dt=0.7, n=80)
    t = clearance_time(log, LINE, 20.0)
    # first tick with s > 20 m at 0.28 m per tick is tick 72 (20.16 m)
    k = math.floor(20.0 / 0.28) + 1
    assert t == pytest.approx(k * 0.7)


def test_clearance_time_not_completed():
    log = straight_run(n=10)
    with pytest.raises(NotCompleted):
        clearance_time(log, LINE, 20.0)


def test_velocity_heading_stats_aligned_run():
    log = straight_run()
    v_avg, g_avg, g_std, w_std = velocity_and_heading_stats(log.records, LINE)
    assert v_avg == pytest.approx(0.4)
    assert g_avg == pytest.approx(0.0)
    assert g_std == pytest.approx(0.0)
    assert w_std == pytest.approx(0.0)


def test_report_over_a_span_of_one_tick():
    """Only the first tick lies in [0, row_length]: the statistics are
    those of that tick, not an error."""
    log = make_log([pose_from(0.1, 0.02, 0.05), pose_from(0.38, 0.0, 0.0)],
                   [ControlInput(0.4, 0.1), ControlInput(0.3, 0.0)])
    report = compute_report(log, LINE, row_length=0.2)
    assert report.clearance_time == pytest.approx(0.7)
    assert report.v_avg == pytest.approx(0.4)
    assert report.cum_gamma_avg == pytest.approx(0.05)
    assert report.gamma_std == 0.0 and report.omega_std == 0.0
    assert report.mae == pytest.approx(0.02)


def test_omega_std_two_level_commands():
    poses = [pose_from(0.1 * k, 0, 0) for k in range(10)]
    commands = [ControlInput(0.4, 0.1 if k % 2 == 0 else -0.1)
                for k in range(10)]
    log = make_log(poses, commands)
    _, _, _, w_std = velocity_and_heading_stats(log.records, LINE)
    assert w_std == pytest.approx(0.1)


def test_constant_heading_offset():
    log = straight_run(heading=0.05)
    _, g_avg, g_std, _ = velocity_and_heading_stats(log.records, LINE)
    assert g_avg == pytest.approx(0.05)
    assert g_std == pytest.approx(0.0, abs=1e-12)


def test_path_errors_alternating_offsets():
    poses = [pose_from(1.0, y, 0) for y in (0.1, -0.1, 0.1)]
    log = make_log(poses, [ControlInput(0.4, 0)] * 3)
    mae, mse = path_errors(log.records, LINE)
    assert mae == pytest.approx(0.1)
    assert mse == pytest.approx(0.01)


def test_path_errors_on_reference_zero():
    log = straight_run()
    assert path_errors(log.records, LINE) == (0.0, 0.0)


def test_path_errors_arc_reference():
    arc = Centerline(1.0 / 15.0)
    s = 5.0
    t = arc.tangent_angle(s)
    px, py = arc.point(s)
    # place the pose 0.2 m left of the arc along the local normal
    pose = pose_from(px + 0.2 * -math.sin(t), py + 0.2 * math.cos(t), t)
    log = make_log([pose], [ControlInput(0.4, 0)])
    mae, mse = path_errors(log.records, arc)
    assert mae == pytest.approx(0.2, abs=1e-9)
    assert mse == pytest.approx(0.04, abs=1e-9)


def test_path_errors_desired_offset():
    log = straight_run(offset=-1.0)
    mae, mse = path_errors(log.records, LINE, desired_offset=-1.0)
    assert mae == pytest.approx(0.0)


def test_report_fields_and_json():
    log = straight_run()
    rep = compute_report(log, LINE, 20.0)
    data = json.loads(json.dumps(rep.as_dict()))
    assert sorted(data) == ["clearance_time", "collisions", "cum_gamma_avg",
                            "gamma_std", "mae", "mse", "omega_std", "v_avg"]
    assert data["collisions"] == 0
    text = rep.as_text()
    assert all(key in text for key in data)


def test_report_jensen_inequality_guard():
    rng = np.random.default_rng(20)
    poses = [pose_from(0.28 * k, rng.uniform(-0.2, 0.2), 0.0)
             for k in range(80)]
    log = make_log(poses, [ControlInput(0.4, 0)] * 80)
    rep = compute_report(log, LINE, 20.0)
    assert rep.mae <= math.sqrt(rep.mse) + 1e-12


finite = st.floats(allow_nan=False, allow_infinity=False)


@given(st.lists(st.tuples(finite, finite), min_size=1, max_size=30),
       st.floats(-1.0, 1.0), finite)
@example([(0.0, 123456.789)] * 10, 0.0, 0.0)
def test_path_errors_mae_at_most_rms(points, curvature, desired_offset):
    log = make_log([pose_from(x, y, 0.0) for x, y in points],
                   [ControlInput(0.4, 0.0)] * len(points))
    with np.errstate(over="ignore"):    # errors past ~1e154 m square to inf
        mae, mse = path_errors(log.records, Centerline(curvature),
                               desired_offset)
    rms = math.sqrt(mse)
    assert mae <= rms + 1e-12 * max(1.0, rms)


def test_report_rejects_mae_above_rms(monkeypatch):
    monkeypatch.setattr(metrics, "path_errors", lambda *args: (0.5, 0.04))
    with pytest.raises(ValueError, match="exceeds sqrt"):
        compute_report(straight_run(), LINE, 20.0)


def test_metrics_invariant_under_rigid_transform():
    rng = np.random.default_rng(21)
    n = 60
    lats = rng.uniform(-0.2, 0.2, size=n)
    heads = rng.uniform(-0.1, 0.1, size=n)
    poses = [pose_from(0.3 * k, lats[k], heads[k]) for k in range(n)]
    cmds = [ControlInput(0.4, float(rng.uniform(-0.1, 0.1))) for _ in range(n)]
    log = make_log(poses, cmds)
    rep = compute_report(log, LINE, 15.0)

    # rotate and translate both the trajectory and the reference; the
    # straight reference through a transformed frame is emulated by
    # counter-transforming the poses instead
    ang, tx, ty = 0.7, 3.0, -2.0
    c, s = math.cos(ang), math.sin(ang)

    def transform(p):
        from rownav.core import heading_of
        x = c * p.x1 - s * p.x2 + tx
        y = s * p.x1 + c * p.x2 + ty
        return pose_from(x, y, heading_of(p) + ang)

    def back(p):
        from rownav.core import heading_of
        x = c * (p.x1 - tx) + s * (p.x2 - ty)
        y = -s * (p.x1 - tx) + c * (p.x2 - ty)
        return pose_from(x, y, heading_of(p) - ang)

    moved = [back(transform(p)) for p in poses]
    log2 = make_log(moved, cmds)
    rep2 = compute_report(log2, LINE, 15.0)
    assert rep2.mae == pytest.approx(rep.mae, abs=1e-9)
    assert rep2.mse == pytest.approx(rep.mse, abs=1e-9)
    assert rep2.cum_gamma_avg == pytest.approx(rep.cum_gamma_avg, abs=1e-9)
    assert rep2.gamma_std == pytest.approx(rep.gamma_std, abs=1e-9)


def test_mean_metrics_combine_over_concatenation():
    a = straight_run(offset=0.1, n=30)
    b = straight_run(offset=-0.2, n=50)
    mae_a, mse_a = path_errors(a.records, LINE)
    mae_b, mse_b = path_errors(b.records, LINE)
    combined = make_log(
        [r.pose for r in a.records] + [r.pose for r in b.records],
        [r.command for r in a.records] + [r.command for r in b.records])
    mae_c, mse_c = path_errors(combined.records, LINE)
    w = 30 / 80
    assert mae_c == pytest.approx(w * mae_a + (1 - w) * mae_b, abs=1e-12)
    assert mse_c == pytest.approx(w * mse_a + (1 - w) * mse_b, abs=1e-12)
