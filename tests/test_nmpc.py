import math

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

from rownav import nmpc
from rownav.core import BorderLine, ControlInput, QuatPose, heading_of, pose_from
from rownav.nmpc import (DegenerateCorridor, NearPerpendicular,
                         NmpcConfig, NmpcController, SolverStatus, align_cost,
                         dynamics, integrate_step, lane_cost, meyer_cost,
                         meyer_cost_gradient, obstacle_constraint, solve,
                         stage_cost, stage_cost_gradients)
from rownav.pipeline import LaneModel, apply_safety_margin


def lane(a_l=0.0, b_l=0.75, a_r=0.0, b_r=-0.75, margin=0.0):
    return LaneModel(BorderLine(a_l, b_l, "left"),
                     BorderLine(a_r, b_r, "right"), margin)


def random_lane(rng):
    a = rng.uniform(-0.25, 0.25)
    b_l = rng.uniform(0.6, 1.5)
    b_r = -rng.uniform(0.6, 1.5)
    return lane(a_l=a + rng.uniform(-0.05, 0.05), b_l=b_l,
                a_r=a + rng.uniform(-0.05, 0.05), b_r=b_r,
                margin=rng.uniform(0.0, 0.2))


# ---------------------------------------------------------------- dynamics

def test_dynamics_forward():
    d = dynamics(pose_from(0, 0, 0.0), ControlInput(1.0, 0.0))
    assert d == pytest.approx((1.0, 0.0, 0.0, 0.0))


def test_dynamics_pure_rotation():
    d = dynamics(pose_from(0, 0, 0.0), ControlInput(0.0, 1.0))
    assert d == pytest.approx((0.0, 0.0, 0.0, 0.5))


def test_dynamics_quarter_turn_heading():
    d = dynamics(pose_from(0, 0, math.pi / 2), ControlInput(1.0, 0.0))
    assert d[0] == pytest.approx(0.0, abs=1e-12)
    assert d[1] == pytest.approx(1.0)
    assert d[2] == pytest.approx(0.0, abs=1e-12)
    assert d[3] == pytest.approx(0.0, abs=1e-12)


def test_dynamics_norm_conserving_direction():
    # d/dt (x3^2 + x4^2) = 2 x3 x3' + 2 x4 x4' = 0 under the model
    rng = np.random.default_rng(0)
    for _ in range(100):
        pose = pose_from(0, 0, rng.uniform(-math.pi, math.pi))
        u = ControlInput(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        d = dynamics(pose, u)
        assert pose.x3 * d[2] + pose.x4 * d[3] == pytest.approx(0.0, abs=1e-15)


# ---------------------------------------------------------------- integrate

def test_integrate_zero_input_identity():
    pose = pose_from(1.0, -2.0, 0.4)
    out = integrate_step(pose, ControlInput(0.0, 0.0), 0.7)
    assert (out.x1, out.x2) == (1.0, -2.0)
    assert heading_of(out) == pytest.approx(0.4, abs=1e-15)


def test_integrate_pure_rotation_half_turn():
    out = integrate_step(pose_from(0, 0, 0.0), ControlInput(0.0, math.pi), 1.0)
    assert out.x1 == pytest.approx(0.0, abs=1e-9)
    assert out.x2 == pytest.approx(0.0, abs=1e-9)
    assert abs(out.x3) == pytest.approx(0.0, abs=1e-6)
    assert abs(out.x4) == pytest.approx(1.0, abs=1e-6)


def test_integrate_straight_line():
    out = integrate_step(pose_from(0, 0, 0.0), ControlInput(1.0, 0.0), 0.7)
    assert out.x1 == pytest.approx(0.7, abs=1e-9)
    assert out.x2 == pytest.approx(0.0, abs=1e-9)
    assert out.x3 == pytest.approx(1.0, abs=1e-12)


def closed_form_step(pose, u, dt):
    theta = heading_of(pose)
    if abs(u.omega) < 1e-15:
        return (pose.x1 + u.v * dt * math.cos(theta),
                pose.x2 + u.v * dt * math.sin(theta), theta)
    t2 = theta + u.omega * dt
    return (pose.x1 + u.v / u.omega * (math.sin(t2) - math.sin(theta)),
            pose.x2 - u.v / u.omega * (math.cos(t2) - math.cos(theta)), t2)


def test_integrate_matches_closed_form_at_bounds():
    for v in (-0.4, 0.4):
        for w in (-0.5, -0.1, 0.1, 0.5):
            pose = pose_from(0.3, -0.2, 0.25)
            got = integrate_step(pose, ControlInput(v, w), 0.7)
            x, y, th = closed_form_step(pose, ControlInput(v, w), 0.7)
            assert got.x1 == pytest.approx(x, abs=1e-6)
            assert got.x2 == pytest.approx(y, abs=1e-6)
            assert heading_of(got) == pytest.approx(th, abs=1e-6)


def test_integrate_unit_norm_drift():
    rng = np.random.default_rng(1)
    pose = pose_from(0, 0, 0.1)
    for _ in range(1000):
        u = ControlInput(rng.uniform(-0.4, 0.4), rng.uniform(-0.5, 0.5))
        pose = integrate_step(pose, u, 0.7)
        assert pose.unit_error() <= 1e-12


# ---------------------------------------------------------------- costs

def test_lane_cost_center_zero():
    assert lane_cost(pose_from(0, 0, 0), lane()) == pytest.approx(0.0)


def test_lane_cost_at_border_one():
    assert lane_cost(pose_from(0, 0.75, 0), lane()) == pytest.approx(1.0)


def test_lane_cost_halfway():
    assert lane_cost(pose_from(0, 0.375, 0), lane()) == pytest.approx(0.25)


def test_lane_cost_uses_inflated_lines():
    inflated = apply_safety_margin(lane(), 0.3)  # borders at +-0.45
    assert lane_cost(pose_from(0, 0.45, 0), inflated) == pytest.approx(1.0)


def test_lane_cost_degenerate_raises():
    degenerate = lane(b_l=0.0, b_r=0.0)
    with pytest.raises(DegenerateCorridor):
        lane_cost(pose_from(0, 0, 0), degenerate)


def test_align_cost_zero_when_aligned():
    assert align_cost(pose_from(0, 0, 0), lane()) == pytest.approx(0.0)


def test_align_cost_slope_mismatch():
    tilted = lane(a_l=0.1, a_r=0.1)
    assert align_cost(pose_from(0, 0, 0), tilted) == pytest.approx(0.01)


def test_align_cost_tan_identity():
    tilted = lane(a_l=0.1, a_r=0.1)
    pose = pose_from(0, 0, math.atan(0.1))
    assert align_cost(pose, tilted) == pytest.approx(0.0, abs=1e-9)


def test_align_cost_near_perpendicular_raises():
    with pytest.raises(NearPerpendicular):
        align_cost(pose_from(0, 0, math.pi / 2), lane())


def test_meyer_pure_forward():
    assert meyer_cost(pose_from(2, 0, 0), lane(), 1.0) == pytest.approx(-2.0)


def test_meyer_lateral_earns_nothing():
    assert meyer_cost(pose_from(0, 2, 0), lane(), 1.0) == pytest.approx(0.0)


def test_meyer_diagonal_projection():
    diag = lane(a_l=1.0, b_l=1.0, a_r=1.0, b_r=-1.0)
    assert meyer_cost(pose_from(1, 1, 0), diag, 1.0) == pytest.approx(-math.sqrt(2))


def test_obstacle_constraint_values():
    pose = pose_from(0, 0, 0)
    assert obstacle_constraint(pose, (0.3, 0.0), 0.3) == pytest.approx(0.0)
    assert obstacle_constraint(pose, (1.0, 0.0), 0.3) == pytest.approx(-0.91)
    assert obstacle_constraint(pose, (0.1, 0.0), 0.3) == pytest.approx(0.08)


def test_stage_cost_zero_at_nominal():
    cfg = NmpcConfig()
    u = ControlInput(0.3, 0.0)
    assert stage_cost(pose_from(0, 0, 0), u, u, lane(), cfg) == pytest.approx(0.0)


def test_stage_cost_input_change_penalty():
    cfg = NmpcConfig(K_lane=0.0, K_orient=0.0, r_weight_v=1.0, r_weight_omega=0.0)
    c = stage_cost(pose_from(0, 0, 0), ControlInput(0.1, 0.0),
                   ControlInput(0.0, 0.0), lane(), cfg)
    assert c == pytest.approx(0.01)


def test_stage_cost_border_contribution():
    cfg = NmpcConfig(K_lane=1.0, K_orient=0.0, r_weight_v=0.0, r_weight_omega=0.0)
    u = ControlInput(0.0, 0.0)
    c = stage_cost(pose_from(0, 0.75, 0), u, u, lane(), cfg)
    assert c == pytest.approx(1.0)


# ---------------------------------------------------------------- gradients

def fd_gradients(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(len(x)):
        dp = x.copy()
        dm = x.copy()
        dp[i] += h
        dm[i] -= h
        g[i] = (f(dp) - f(dm)) / (2.0 * h)
    return g


def test_stage_cost_gradients_match_central_differences():
    rng = np.random.default_rng(2)
    cfg = NmpcConfig()
    u_prev = ControlInput(0.1, -0.05)
    for _ in range(100):
        ln = random_lane(rng)
        theta = rng.uniform(-1.0, 1.0)
        pose = pose_from(rng.uniform(-1, 3), rng.uniform(-0.5, 0.5), theta)
        u = ControlInput(rng.uniform(-0.4, 0.4), rng.uniform(-0.5, 0.5))
        g_state, g_u = stage_cost_gradients(pose, u, u_prev, ln, cfg)

        def f_state(x):
            return stage_cost(QuatPose(*x), u, u_prev, ln, cfg)

        def f_u(uu):
            return stage_cost(pose, ControlInput(*uu), u_prev, ln, cfg)

        x0 = np.array([pose.x1, pose.x2, pose.x3, pose.x4])
        fd_state = fd_gradients(f_state, x0)
        fd_u = fd_gradients(f_u, np.array([u.v, u.omega]))
        scale = max(1.0, np.abs(fd_state).max())
        np.testing.assert_allclose(g_state, fd_state, rtol=1e-5,
                                   atol=1e-5 * scale)
        np.testing.assert_allclose(g_u, fd_u, rtol=1e-5, atol=1e-8)


def test_meyer_gradient_matches_central_differences():
    rng = np.random.default_rng(3)
    for _ in range(100):
        ln = random_lane(rng)
        pose = pose_from(rng.uniform(-1, 3), rng.uniform(-1, 1),
                         rng.uniform(-1, 1))
        K = rng.uniform(0.5, 2.0)
        g = meyer_cost_gradient(pose, ln, K)

        def f(x):
            return meyer_cost(QuatPose(*x), ln, K)

        fd = fd_gradients(f, np.array([pose.x1, pose.x2, pose.x3, pose.x4]))
        np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-9)


# ---------------------------------------------------------------- solve

CFG = NmpcConfig()


def test_solve_centered_goes_full_speed():
    ln = apply_safety_margin(lane(), 0.3)
    seq = solve(pose_from(0, 0, 0), ln, [], ControlInput(0, 0), CFG)
    assert seq.status is SolverStatus.CONVERGED
    assert seq.inputs[0].v >= 0.95 * CFG.v_max
    assert abs(seq.inputs[0].omega) <= 0.05


def test_solve_offset_steers_back_to_center():
    ln = apply_safety_margin(lane(), 0.3)
    seq = solve(pose_from(0, 0.3, 0), ln, [], ControlInput(0, 0), CFG)
    assert seq.inputs[0].omega < 0.0


def test_solve_obstacle_constraint_respected():
    ln = apply_safety_margin(lane(b_l=1.25, b_r=-1.25), 0.3)
    seq = solve(pose_from(0, 0, 0), ln, [(0.5, 0.0)], ControlInput(0, 0), CFG)
    assert seq.max_constraint_violation <= CFG.solver_tol
    for st in seq.predicted_states[1:]:
        g = CFG.R_safe ** 2 - (st.x1 - 0.5) ** 2 - st.x2 ** 2
        assert g <= CFG.solver_tol + 1e-12


def test_solve_infeasible_when_surrounded():
    ln = apply_safety_margin(lane(b_l=1.25, b_r=-1.25), 0.3)
    ring = [(0.25 * math.cos(a), 0.25 * math.sin(a))
            for a in np.linspace(0, 2 * math.pi, 16, endpoint=False)]
    seq = solve(pose_from(0, 0, 0), ln, ring, ControlInput(0, 0), CFG)
    assert seq.status is SolverStatus.INFEASIBLE


def _random_instance(rng, with_obstacle=False):
    ln = apply_safety_margin(random_lane(rng), 0.1)
    pose = pose_from(0.0, rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
    u_prev = ControlInput(rng.uniform(-0.2, 0.4), rng.uniform(-0.2, 0.2))
    obstacles = []
    if with_obstacle:
        obstacles.append((rng.uniform(1.0, 2.0), rng.uniform(-0.8, 0.8)))
    return pose, ln, obstacles, u_prev


def _mirror_sequence_checks(seq, mseq, tol=1e-3):
    for u, mu in zip(seq.inputs, mseq.inputs):
        assert mu.v == pytest.approx(u.v, abs=tol)
        assert mu.omega == pytest.approx(-u.omega, abs=tol)


def test_solver_mirror_symmetry():
    rng = np.random.default_rng(4)
    for _ in range(50):
        pose, ln, obstacles, u_prev = _random_instance(rng, with_obstacle=True)
        seq = solve(pose, ln, obstacles, u_prev, CFG)
        m_pose = QuatPose(pose.x1, -pose.x2, pose.x3, -pose.x4)
        m_lane = LaneModel(BorderLine(-ln.right.a, -ln.right.b, "left"),
                           BorderLine(-ln.left.a, -ln.left.b, "right"),
                           ln.margin)
        m_obs = [(ox, -oy) for ox, oy in obstacles]
        m_prev = ControlInput(u_prev.v, -u_prev.omega)
        mseq = solve(m_pose, m_lane, m_obs, m_prev, CFG)
        _mirror_sequence_checks(seq, mseq)


def test_solver_saturation_exact():
    rng = np.random.default_rng(5)
    for _ in range(50):
        pose, ln, obstacles, u_prev = _random_instance(rng)
        seq = solve(pose, ln, obstacles, u_prev, CFG)
        for u in seq.inputs:
            assert abs(u.v) <= CFG.v_max
            assert abs(u.omega) <= CFG.omega_max


def _objective(seq_inputs, pose, ln, u_prev, cfg):
    total = 0.0
    state = pose
    prev = u_prev
    for u in seq_inputs:
        total += stage_cost(state, u, prev, ln, cfg)
        state = integrate_step(state, u, cfg.dt)
        prev = u
    return total + meyer_cost(state, ln, cfg.K_travel)


def test_solver_beats_zero_control_baseline():
    rng = np.random.default_rng(6)
    for _ in range(50):
        pose, ln, obstacles, u_prev = _random_instance(rng)
        seq = solve(pose, ln, obstacles, u_prev, CFG)
        zero = [ControlInput(0.0, 0.0)] * CFG.horizon_n
        z_cost = _objective(zero, pose, ln, u_prev, CFG)
        assert seq.cost <= z_cost + 1e-9


def test_solver_beats_warm_start_candidate():
    rng = np.random.default_rng(7)
    for _ in range(20):
        pose, ln, obstacles, u_prev = _random_instance(rng)
        first = solve(pose, ln, obstacles, u_prev, CFG)
        again = solve(pose, ln, obstacles, u_prev, CFG, warm_start=first)
        shifted = list(first.inputs[1:]) + [first.inputs[-1]]
        warm_cost = _objective(shifted, pose, ln, u_prev, CFG)
        assert again.cost <= warm_cost + 1e-9


def test_predicted_state_chaining():
    rng = np.random.default_rng(8)
    for _ in range(50):
        pose, ln, obstacles, u_prev = _random_instance(rng)
        seq = solve(pose, ln, obstacles, u_prev, CFG)
        state = seq.predicted_states[0]
        assert state == pose
        for u, nxt in zip(seq.inputs, seq.predicted_states[1:]):
            state = integrate_step(state, u, CFG.dt)
            assert state.x1 == pytest.approx(nxt.x1, abs=1e-9)
            assert state.x2 == pytest.approx(nxt.x2, abs=1e-9)
            assert state.x3 == pytest.approx(nxt.x3, abs=1e-9)
            assert state.x4 == pytest.approx(nxt.x4, abs=1e-9)


def test_solve_reported_cost_matches_reconstruction():
    rng = np.random.default_rng(9)
    for with_obstacle in [False] * 10 + [True] * 10:
        pose, ln, obstacles, u_prev = _random_instance(rng, with_obstacle)
        seq = solve(pose, ln, obstacles, u_prev, CFG)
        rebuilt = _objective(list(seq.inputs), pose, ln, u_prev, CFG)
        assert seq.cost == pytest.approx(rebuilt, rel=1e-12, abs=1e-9)


@pytest.mark.parametrize("plan_v, success, expected", [
    (CFG.v_max, True, SolverStatus.CONVERGED),
    (CFG.v_max, False, SolverStatus.MAX_ITER),
    # full reverse loses to the zero plan, which no optimizer run produced
    (-CFG.v_max, True, SolverStatus.MAX_ITER),
], ids=["forward-success", "forward-stopped", "reverse-success"])
def test_solve_status_describes_returned_plan(monkeypatch, plan_v, success,
                                              expected):
    plan = np.array([plan_v, 0.0] * CFG.horizon_n)
    monkeypatch.setattr(nmpc, "minimize", lambda *args, **kwargs: OptimizeResult(
        x=plan.copy(), success=success, nit=1))
    ln = apply_safety_margin(lane(), 0.3)
    seq = solve(pose_from(0, 0, 0), ln, [], ControlInput(0, 0), CFG)
    assert [u.v for u in seq.inputs] == [max(plan_v, 0.0)] * CFG.horizon_n
    assert seq.status is expected


# ---------------------------------------------------------------- controller

def test_control_step_matches_solve_first_input():
    ln = apply_safety_margin(lane(), 0.3)
    ctrl = NmpcController(NmpcConfig())
    cmd = ctrl.control_step(pose_from(0, 0, 0), ln, [])
    seq = solve(pose_from(0, 0, 0), ln, [], ControlInput(0, 0), NmpcConfig())
    assert cmd == seq.inputs[0]


def test_control_step_deterministic_across_instances():
    ln = apply_safety_margin(lane(a_l=0.05, a_r=0.03), 0.2)
    obstacles = [(1.5, 0.2)]
    cmds = []
    for _ in range(2):
        ctrl = NmpcController(NmpcConfig())
        steps = []
        for _k in range(3):
            steps.append(ctrl.control_step(pose_from(0, 0.1, 0.05), ln, obstacles))
        cmds.append(steps)
    assert cmds[0] == cmds[1]


def test_control_step_infeasible_clears_warm_start():
    from rownav.nmpc import InfeasibleError
    ln = apply_safety_margin(lane(b_l=1.25, b_r=-1.25), 0.3)
    ctrl = NmpcController(NmpcConfig())
    ctrl.control_step(pose_from(0, 0, 0), ln, [])
    assert ctrl.last_sequence is not None
    ring = [(0.25 * math.cos(a), 0.25 * math.sin(a))
            for a in np.linspace(0, 2 * math.pi, 16, endpoint=False)]
    with pytest.raises(InfeasibleError):
        ctrl.control_step(pose_from(0, 0, 0), ln, ring)
    assert ctrl.last_sequence is None
