import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeResult
from scipy.optimize._numdiff import approx_derivative

from rownav import nmpc
from rownav.cli import resolve_config_path
from rownav.config import load_scenario
from rownav.core import BorderLine, ControlInput, QuatPose, heading_of, pose_from
from rownav.nmpc import (EPS_TAN, PENALTY_GROWTH, PENALTY_ROUNDS, NmpcConfig,
                         NmpcController, SolverStatus, _stage_partials,
                         _travel_partials, align_cost, dynamics, integrate_step,
                         lane_cost, meyer_cost, solve, stage_cost)
from rownav.pipeline import LaneModel
from rownav.sim import generate_world, run_scenario


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
    inflated = lane(margin=0.3)  # borders at +-0.45
    assert lane_cost(pose_from(0, 0.45, 0), inflated) == pytest.approx(1.0)


def test_lane_cost_floors_degenerate_corridor():
    """Borders that meet count as a corridor 1e-9 m wide, as in solve."""
    degenerate = lane(b_l=0.0, b_r=0.0)
    assert lane_cost(pose_from(0, 0, 0), degenerate) == 0.0
    assert lane_cost(pose_from(0, 1e-3, 0), degenerate) == pytest.approx(4e12)


def test_align_cost_zero_when_aligned():
    assert align_cost(pose_from(0, 0, 0), lane()) == pytest.approx(0.0)


def test_align_cost_slope_mismatch():
    tilted = lane(a_l=0.1, a_r=0.1)
    assert align_cost(pose_from(0, 0, 0), tilted) == pytest.approx(0.01)


def test_align_cost_tan_identity():
    tilted = lane(a_l=0.1, a_r=0.1)
    pose = pose_from(0, 0, math.atan(0.1))
    assert align_cost(pose, tilted) == pytest.approx(0.0, abs=1e-9)


def test_align_cost_floors_near_perpendicular():
    """Within EPS_TAN of +-90 deg the slope denominator counts as +-EPS_TAN,
    as in solve: the slope is at most 1 / EPS_TAN = 1000."""
    for theta in (math.pi / 2, -math.pi / 2, math.pi / 2 - 0.5 * EPS_TAN):
        assert align_cost(pose_from(0, 0, theta), lane()) == pytest.approx(1e6)
    outside = math.pi / 2 - 2.0 * EPS_TAN
    assert align_cost(pose_from(0, 0, outside), lane()) == pytest.approx(
        math.tan(outside) ** 2)


def test_meyer_pure_forward():
    assert meyer_cost(pose_from(2, 0, 0), lane(), 1.0) == pytest.approx(-2.0)


def test_meyer_lateral_earns_nothing():
    assert meyer_cost(pose_from(0, 2, 0), lane(), 1.0) == pytest.approx(0.0)


def test_meyer_diagonal_projection():
    diag = lane(a_l=1.0, b_l=1.0, a_r=1.0, b_r=-1.0)
    assert meyer_cost(pose_from(1, 1, 0), diag, 1.0) == pytest.approx(-math.sqrt(2))


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
    """_stage_partials, which the adjoint adds per step, against central
    differences of stage_cost."""
    rng = np.random.default_rng(2)
    cfg = NmpcConfig()
    u_prev = ControlInput(0.1, -0.05)
    for _ in range(100):
        ln = random_lane(rng)
        theta = rng.uniform(-1.0, 1.0)
        pose = pose_from(rng.uniform(-1, 3), rng.uniform(-0.5, 0.5), theta)
        u = ControlInput(rng.uniform(-0.4, 0.4), rng.uniform(-0.5, 0.5))
        p = _stage_partials(pose.x1, pose.x2, pose.x3, pose.x4, u.v, u.omega,
                            u_prev.v, u_prev.omega, ln, cfg)
        g_state, g_u = p[:4], p[4:]

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
    """_travel_partials, where the adjoint starts, against central
    differences of meyer_cost; the travel term does not read the heading."""
    rng = np.random.default_rng(3)
    for _ in range(100):
        ln = random_lane(rng)
        pose = pose_from(rng.uniform(-1, 3), rng.uniform(-1, 1),
                         rng.uniform(-1, 1))
        K = rng.uniform(0.5, 2.0)
        g = [*_travel_partials(ln, K), 0.0, 0.0]

        def f(x):
            return meyer_cost(QuatPose(*x), ln, K)

        fd = fd_gradients(f, np.array([pose.x1, pose.x2, pose.x3, pose.x4]))
        np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-9)


# ---------------------------------------------------------------- solve

CFG = NmpcConfig()


def clearance(state, obstacle):
    """R_safe^2 minus the squared distance: positive inside R_safe."""
    dx, dy = state.x1 - obstacle[0], state.x2 - obstacle[1]
    return CFG.R_safe * CFG.R_safe - dx * dx - dy * dy


def test_solve_centered_goes_full_speed():
    ln = lane(margin=0.3)
    seq = solve(pose_from(0, 0, 0), ln, [], ControlInput(0, 0), CFG)
    assert seq.status is SolverStatus.CONVERGED
    assert seq.inputs[0].v >= 0.95 * CFG.v_max
    assert abs(seq.inputs[0].omega) <= 0.05


def test_solve_offset_steers_back_to_center():
    ln = lane(margin=0.3)
    seq = solve(pose_from(0, 0.3, 0), ln, [], ControlInput(0, 0), CFG)
    assert seq.inputs[0].omega < 0.0


def test_solve_obstacle_constraint_respected():
    ln = lane(b_l=1.25, b_r=-1.25, margin=0.3)
    seq = solve(pose_from(0, 0, 0), ln, [(0.5, 0.0)], ControlInput(0, 0), CFG)
    assert seq.max_constraint_violation <= CFG.solver_tol
    for st in seq.predicted_states[1:]:
        g = CFG.R_safe ** 2 - (st.x1 - 0.5) ** 2 - st.x2 ** 2
        assert g <= CFG.solver_tol + 1e-12


@pytest.mark.parametrize("obstacles", [None, [], np.empty((0, 2)), np.empty((0, 3))])
def test_solve_reads_no_obstacle_as_none(obstacles):
    ln = lane(b_l=1.25, b_r=-1.25, margin=0.3)
    free = solve(pose_from(0, 0, 0), ln, [], ControlInput(0, 0), CFG)
    seq = solve(pose_from(0, 0, 0), ln, obstacles, ControlInput(0, 0), CFG)
    assert seq.inputs == free.inputs


@pytest.mark.parametrize("obstacles", [
    [[1.0, 0.0, 0.5], [2.0, 0.1, 0.7]],          # 3D points: (2, 3)
    [1.0, 0.0],                                  # one flat pair: (2,)
    np.zeros((2, 2, 2)),
])
def test_solve_rejects_obstacles_not_m_by_2(obstacles):
    """A (2, 3) array is not read as three 2D points."""
    ln = lane(b_l=1.25, b_r=-1.25, margin=0.3)
    with pytest.raises(ValueError, match=r"\(M, 2\)"):
        solve(pose_from(0, 0, 0), ln, obstacles, ControlInput(0, 0), CFG)


def test_solve_infeasible_when_surrounded():
    ln = lane(b_l=1.25, b_r=-1.25, margin=0.3)
    ring = [(0.25 * math.cos(a), 0.25 * math.sin(a))
            for a in np.linspace(0, 2 * math.pi, 16, endpoint=False)]
    seq = solve(pose_from(0, 0, 0), ln, ring, ControlInput(0, 0), CFG)
    assert seq.status is SolverStatus.INFEASIBLE


def test_solve_backs_off_from_inside_r_safe():
    """A post cell 0.257 m straight ahead, inside R_safe: every plan the
    optimizer reaches from its forward starts closes in, and the stop
    stays in violation, so solve returns the constant-reverse plan."""
    ln = lane(b_l=1.25, b_r=-1.25, margin=0.3)
    post = (0.257, 0.0)
    seq = solve(pose_from(0, 0, 0), ln, [post], ControlInput(0, 0), CFG)
    assert seq.status is SolverStatus.MAX_ITER
    assert seq.max_constraint_violation == 0.0
    assert seq.inputs == (ControlInput(-CFG.v_max, 0.0),) * CFG.horizon_n
    assert all(clearance(st, post) < 0.0
               for st in seq.predicted_states[1:])


WIDE = lane(b_l=1.25, b_r=-1.25, margin=0.3)


def test_penalty_rounds_restart_from_the_last_result(monkeypatch):
    """solve has one optimizer start: the first L-BFGS-B run starts at
    u_init (half speed, straight, with no warm start) and every later one
    at the previous round's clipped result. A post dead ahead on a
    symmetric lane, where the plan stays straight, takes every round."""
    starts, results = [], []
    hi = np.array([CFG.v_max, CFG.omega_max] * CFG.horizon_n)
    real_minimize = nmpc.minimize

    def recording(fun, x0, *args, **kwargs):
        starts.append(np.array(x0))
        res = real_minimize(fun, x0, *args, **kwargs)
        results.append(np.clip(res.x, -hi, hi))
        return res

    monkeypatch.setattr(nmpc, "minimize", recording)
    solve(pose_from(0, 0, 0), WIDE, [(1.2, 0.0)], ControlInput(CFG.v_max, 0), CFG)
    np.testing.assert_array_equal(starts[0], [0.5 * CFG.v_max, 0.0] * CFG.horizon_n)
    for start, previous in zip(starts[1:], results):
        np.testing.assert_array_equal(start, previous)
    assert len(starts) == PENALTY_ROUNDS


def test_lbfgsb_runs_on_one_openblas_thread(monkeypatch):
    """Every L-BFGS-B run of solve sees scipy's OpenBLAS pool at one
    thread, and solve leaves the pool at the count it found."""
    lib = nmpc._scipy_openblas()
    if lib is None:
        pytest.skip("this scipy ships no OpenBLAS of its own")
    seen = []
    real_minimize = nmpc.minimize

    def recording(*args, **kwargs):
        seen.append(lib.scipy_openblas_get_num_threads())
        return real_minimize(*args, **kwargs)

    monkeypatch.setattr(nmpc, "minimize", recording)
    before = lib.scipy_openblas_get_num_threads()
    lib.scipy_openblas_set_num_threads(2)
    try:
        solve(pose_from(0, 0, 0), WIDE, [(1.2, 0.0)], ControlInput(CFG.v_max, 0), CFG)
        after = lib.scipy_openblas_get_num_threads()
    finally:
        lib.scipy_openblas_set_num_threads(before)
    assert seen and set(seen) == {1}
    assert after == 2


@pytest.mark.parametrize("offset", [1e-3, -1e-3])
def test_post_just_off_the_axis_is_passed(offset):
    """1 mm off the axis of the symmetric lane breaks the mirror tie: the
    plan converges, turns away from the post, clears R_safe within
    solver_tol and ends beyond it."""
    post = (1.2, offset)
    seq = solve(pose_from(0, 0, 0), WIDE, [post], ControlInput(CFG.v_max, 0), CFG)
    assert seq.status is SolverStatus.CONVERGED
    assert seq.max_constraint_violation <= CFG.solver_tol
    assert all(clearance(st, post) <= CFG.solver_tol
               for st in seq.predicted_states[1:])
    assert all(u.omega * offset < 0.0 for u in seq.inputs)
    assert seq.predicted_states[-1].x1 > post[0]


def _random_instance(rng, with_obstacle=False):
    drawn = random_lane(rng)
    ln = LaneModel(drawn.left, drawn.right, 0.1)
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
    """Never worse than stopping, nor than constant reverse where that
    plan clears every obstacle."""
    rng = np.random.default_rng(6)
    reverse = [ControlInput(-CFG.v_max, 0.0)] * CFG.horizon_n
    for _ in range(50):
        pose, ln, obstacles, u_prev = _random_instance(rng)
        seq = solve(pose, ln, obstacles, u_prev, CFG)
        zero = [ControlInput(0.0, 0.0)] * CFG.horizon_n
        z_cost = _objective(zero, pose, ln, u_prev, CFG)
        assert seq.cost <= z_cost + 1e-9
        state, worst = pose, 0.0
        for u in reverse:
            state = integrate_step(state, u, CFG.dt)
            worst = max([worst] + [clearance(state, ob)
                                   for ob in obstacles])
        if worst <= CFG.solver_tol:
            r_cost = _objective(reverse, pose, ln, u_prev, CFG)
            assert seq.cost <= r_cost + 1e-9


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


def test_solve_violation_is_worst_obstacle_constraint():
    """The solver's reported violation is the worst clearance value
    over the predicted states after the first and every obstacle, the
    obstacles beyond the horizon's reach included."""
    rng = np.random.default_rng(12)
    instances = [_random_instance(rng, with_obstacle=True) for _ in range(8)]
    for _ in range(4):
        pose, ln, near, u_prev = _random_instance(rng, with_obstacle=True)
        far = rng.uniform([2.5, -4.0], [6.0, 4.0], size=(6, 2)).tolist()
        behind = rng.uniform([-6.0, -4.0], [-2.5, 4.0], size=(2, 2)).tolist()
        instances.append((pose, ln, far[:3] + near + behind + far[3:], u_prev))
    ring = [(0.25 * math.cos(a), 0.25 * math.sin(a))
            for a in np.linspace(0, 2 * math.pi, 16, endpoint=False)]
    instances.append((pose_from(0, 0, 0),
                      lane(b_l=1.25, b_r=-1.25, margin=0.3),
                      ring, ControlInput(0, 0)))
    violated = 0
    for pose, ln, obstacles, u_prev in instances:
        seq = solve(pose, ln, obstacles, u_prev, CFG)
        worst = max(clearance(st, ob)
                    for st in seq.predicted_states[1:] for ob in obstacles)
        assert seq.max_constraint_violation == pytest.approx(
            max(0.0, worst), rel=1e-12, abs=0.0)
        violated += worst > 0.0
    assert violated >= 2    # the ring, and a plan inside solver_tol


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
    ln = lane(margin=0.3)
    seq = solve(pose_from(0, 0, 0), ln, [], ControlInput(0, 0), CFG)
    assert [u.v for u in seq.inputs] == [max(plan_v, 0.0)] * CFG.horizon_n
    assert seq.status is expected


def _captured_objective(monkeypatch, pose, ln, obstacles, u_prev, cfg=CFG):
    """The penalized objective solve hands to minimize, and its args."""
    seen = []

    def stub(fun, x0, args=(), **kwargs):
        seen.append((fun, args))
        return OptimizeResult(x=np.array(x0), success=True, nit=0)

    monkeypatch.setattr(nmpc, "minimize", stub)
    solve(pose, ln, obstacles, u_prev, cfg)
    return seen[0]


def _float64_objective(u_flat, mu, pose, ln, obstacles, u_prev, cfg):
    """Reference: the objective summed on np.float64 scalars, the inputs
    and obstacle coordinates read straight out of their arrays, over the
    same module kernels and in the same order as solve."""
    n = cfg.horizon_n
    obs = np.asarray(obstacles, dtype=float).reshape(-1, 2)
    r2 = cfg.R_safe * cfg.R_safe
    states = [(pose.x1, pose.x2, pose.x3, pose.x4)]
    cost = 0.0
    pv, pw = u_prev.v, u_prev.omega
    for k in range(n):
        v, w = u_flat[2 * k], u_flat[2 * k + 1]
        assert type(v) is np.float64
        cost = nmpc._add_stage(cost, *states[k], v, w, pv, pw, ln, cfg)
        states.append(nmpc._integrate_raw(*states[k], v, w, cfg.dt)[0])
        pv, pw = v, w
    cost += nmpc._travel_term(states[n][0], states[n][1], ln, cfg.K_travel)
    pen = 0.0
    for k in range(1, n + 1):
        sx, sy = states[k][0], states[k][1]
        for ox, oy in obs:
            g = r2 - (sx - ox) ** 2 - (sy - oy) ** 2
            if g > 0.0:
                pen += g * g
    return cost + mu * pen


def test_objective_runs_on_floats_bit_equal_to_float64_loop(monkeypatch):
    """The objective value is a Python float, bit-equal to the np.float64
    loop: same L-BFGS-B iterates, at a fraction of the scalar overhead."""
    rng = np.random.default_rng(21)
    lo = np.array([-CFG.v_max, -CFG.omega_max] * CFG.horizon_n)
    checked = 0
    for n_obs in [0] * 4 + [1, 3, 8, 16]:
        pose, ln, _, u_prev = _random_instance(rng)
        obstacles = rng.uniform([0.0, -0.6], [1.5, 0.6], size=(n_obs, 2))
        fun, args = _captured_objective(monkeypatch, pose, ln, obstacles, u_prev)
        for _ in range(25):
            u = rng.uniform(lo, -lo)
            mu = args[0] * PENALTY_GROWTH ** int(rng.integers(0, 8))
            got, _ = fun(u, mu)
            assert type(got) is float
            ref = _float64_objective(u, mu, pose, ln, obstacles, u_prev, CFG)
            assert got.hex() == float(ref).hex()
            checked += 1
    assert checked == 200


def _box_point(rng, lo, n_faces, n_zeros):
    """A uniform point in the input box with n_faces coordinates moved onto
    a face and n_zeros onto 0.0."""
    u = rng.uniform(lo, -lo)
    picked = rng.permutation(len(u))
    faces, zeros = picked[:n_faces], picked[n_faces:n_faces + n_zeros]
    u[faces] = lo[faces] * rng.choice([-1.0, 1.0], size=n_faces)
    u[zeros] = 0.0
    return u


# The adjoint gradient is checked against scipy's central difference of the
# reference loop. A difference is only as good as its step: where a plan
# turns through a heading of +-90 deg the slope cost bends so sharply that
# the default step's truncation error reaches 1e-4 of the gradient. So g is
# compared with the difference at a tenth of that step, and may be off by
# GRAD_RTOL max(1, largest entry) plus the change between the two
# differences, which bounds the finer one's error.
GRAD_RTOL = 1e-6
FINE_STEP = 6e-7    # a tenth of approx_derivative's default 3-point step


def _assert_gradient_close(g, u, mu, pose, ln, obstacles, u_prev, cfg):
    lo = np.array([-cfg.v_max, -cfg.omega_max] * cfg.horizon_n)

    def central(step):
        return approx_derivative(_float64_objective, u, method="3-point",
                                 abs_step=step, bounds=(lo, -lo),
                                 args=(mu, pose, ln, obstacles, u_prev, cfg))

    coarse, fine = central(None), central(FINE_STEP)
    tol = GRAD_RTOL * max(1.0, np.abs(fine).max()) + np.abs(coarse - fine)
    assert np.all(np.abs(g - fine) <= tol)


def test_objective_gradient_bit_equal_to_approx_derivative(monkeypatch):
    """The objective's value is bit-equal to the np.float64 reference loop,
    and its adjoint gradient matches scipy's 3-point approx_derivative of
    that loop, as _assert_gradient_close states. A third of the points
    have coordinates on a face of the box, where the difference is
    one-sided."""
    rng = np.random.default_rng(22)
    lo = np.array([-CFG.v_max, -CFG.omega_max] * CFG.horizon_n)
    hi = -lo
    checked = on_face = 0
    for n_obs in [0] * 4 + [1, 3, 8, 16]:
        pose, ln, _, u_prev = _random_instance(rng)
        obstacles = rng.uniform([0.0, -0.6], [1.5, 0.6], size=(n_obs, 2))
        fun, args = _captured_objective(monkeypatch, pose, ln, obstacles, u_prev)
        for j in range(25):
            n_faces = int(rng.integers(1, 5)) if j % 2 == 0 else 0
            u = _box_point(rng, lo, n_faces, int(rng.integers(0, 3)))
            mu = args[0] * PENALTY_GROWTH ** int(rng.integers(0, 8))
            f, g = fun(u, mu)
            ref = _float64_objective(u, mu, pose, ln, obstacles, u_prev, CFG)
            assert f.hex() == float(ref).hex()
            _assert_gradient_close(g, u, mu, pose, ln, obstacles, u_prev, CFG)
            checked += 1
            on_face += bool(np.any(np.abs(u) == hi))
    assert checked == 200 and on_face >= checked // 3


def test_objective_gradient_where_the_slope_floor_binds(monkeypatch):
    """Started at a heading of +-90 deg and turning at most 5e-5 rad/s, every
    predicted heading pair has |x3^2 - x4^2| < EPS_TAN, where _align_term
    floors it; the gradient is the floored branch's. K_orient is 1e-4 so
    that the floored slope, 1e3, leaves the objective small enough for a
    central difference to resolve its gradient."""
    cfg = NmpcConfig(K_orient=1e-4)
    rng = np.random.default_rng(24)
    lo = np.array([-cfg.v_max, -cfg.omega_max] * cfg.horizon_n)
    for theta in (math.pi / 2, -math.pi / 2):
        pose, ln = pose_from(0.0, 0.1, theta), lane(margin=0.1)
        u_prev = ControlInput(0.1, 0.0)
        fun, args = _captured_objective(monkeypatch, pose, ln, [], u_prev, cfg)
        for _ in range(10):
            u = rng.uniform(lo, -lo) * np.array([1.0, 1e-4] * cfg.horizon_n)
            f, g = fun(u, args[0])
            ref = _float64_objective(u, args[0], pose, ln, [], u_prev, cfg)
            assert f.hex() == float(ref).hex()
            _assert_gradient_close(g, u, args[0], pose, ln, [], u_prev, cfg)


def _on_circle(rng, cx, cy, radii):
    angle = rng.uniform(-math.pi, math.pi, len(radii))
    return np.column_stack([cx + radii * np.cos(angle), cy + radii * np.sin(angle)])


def _reach_radii(pose, cfg):
    """R_safe, then every step's reach circle around the start, R_safe +
    (k+1) 1.1 v_max dt max(1, x3^2+x4^2) + 1e-6."""
    reach = 1.1 * cfg.v_max * cfg.dt * max(1.0, pose.x3 ** 2 + pose.x4 ** 2)
    return [cfg.R_safe] + [cfg.R_safe + (k + 1) * reach + 1e-6
                           for k in range(cfg.horizon_n)]


def _edge_obstacles(rng, pose, cfg):
    """Obstacles around pose: a 0.5 m lattice over a 6 x 8 m grid, points on
    every step's reach circle moved 1e-6 to 1e-3 m in or out, and points
    at R_safe."""
    cx, cy = pose.x1, pose.x2
    gx, gy = np.meshgrid(np.linspace(-3.0, 3.0, 13), np.linspace(-4.0, 4.0, 17))
    points = [np.column_stack([cx + gx.ravel(), cy + gy.ravel()])]
    radii = _reach_radii(pose, cfg)
    for radius in radii[1:]:
        shift = rng.choice([-1.0, 1.0], 8) * 10.0 ** rng.uniform(-6, -3, 8)
        points.append(_on_circle(rng, cx, cy, radius + shift))
    points.append(_on_circle(rng, cx, cy, np.full(8, radii[0])))
    return np.concatenate(points)


def _matches_all_obstacle_loop(f, g, u, mu, pose, ln, obstacles, u_prev, cfg):
    """Assert that f is the bits of the reference objective, which loops
    over every obstacle, and that g matches its central difference; return
    whether the clearance penalty is active at u."""
    args = (pose, ln, obstacles, u_prev, cfg)
    ref = _float64_objective(u, mu, *args)
    assert f.hex() == float(ref).hex()
    _assert_gradient_close(g, u, mu, *args)
    return ref != _float64_objective(u, 0.0, *args)


def test_objective_bit_equal_to_all_obstacle_reference_at_reach_edges(monkeypatch):
    """solve drops the obstacles no state of step k can reach; the objective
    stays bit-equal to the reference loop over every obstacle, and its
    gradient matches that loop's central difference. Starts lie off the
    origin, heading pairs have x3^2 + x4^2 from 0.25 to 4, and two thirds
    of the inputs have 2 to 6 coordinates on the box faces, where the plan
    moves furthest."""
    rng = np.random.default_rng(23)
    lo = np.array([-CFG.v_max, -CFG.omega_max] * CFG.horizon_n)
    checked = penalised = 0
    for scale2 in (0.25, 1.0, 1.0, 2.0, 4.0, 4.0):
        _, ln, _, u_prev = _random_instance(rng)
        half = rng.uniform(-math.pi / 2, math.pi / 2)
        s = math.sqrt(scale2)
        pose = QuatPose(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0),
                        s * math.cos(half), s * math.sin(half))
        obstacles = _edge_obstacles(rng, pose, CFG)
        fun, args = _captured_objective(monkeypatch, pose, ln, obstacles, u_prev)
        for j in range(20):
            n_faces = int(rng.integers(2, 7)) if j % 3 else 0
            u = _box_point(rng, lo, n_faces, 0)
            mu = args[0] * PENALTY_GROWTH ** int(rng.integers(0, 8))
            f, g = fun(u, mu)
            penalised += _matches_all_obstacle_loop(
                f, g, u, mu, pose, ln, obstacles, u_prev, CFG)
            checked += 1
    assert checked == 120 and penalised >= checked // 2


adjoint_cases = st.tuples(
    st.floats(-0.25, 0.25), st.floats(0.6, 1.5), st.floats(0.6, 1.5),
    st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
    st.floats(0.25, 4.0), st.floats(-math.pi / 2, math.pi / 2),
    st.lists(st.tuples(st.integers(0, CFG.horizon_n), st.floats(-math.pi, math.pi),
                       st.floats(-1e-3, 1e-3)), min_size=1, max_size=12),
    st.lists(st.sampled_from([-1.0, 1.0]) | st.floats(-1.0, 1.0),
             min_size=2 * CFG.horizon_n, max_size=2 * CFG.horizon_n),
    st.integers(0, 7))


@settings(max_examples=40)
@given(adjoint_cases)
def test_objective_gradient_matches_central_differences_property(case):
    """The adjoint gradient matches scipy's central difference of the
    reference loop, as _assert_gradient_close states: random lanes, starts whose heading
    pair has x3^2 + x4^2 from 0.25 to 4, obstacles within 1e-3 m of R_safe
    or of a reach circle around the start, inputs drawn on the box faces
    as often as inside, and every penalty weight of the loop."""
    a, b_l, b_r, x, y, scale2, half, placed, frac, e = case
    ln = lane(a_l=a, b_l=b_l, a_r=a, b_r=-b_r, margin=0.1)
    s = math.sqrt(scale2)
    pose = QuatPose(x, y, s * math.cos(half), s * math.sin(half))
    radii = _reach_radii(pose, CFG)
    obstacles = [(x + (radii[j] + dr) * math.cos(t), y + (radii[j] + dr) * math.sin(t))
                 for j, t, dr in placed]
    u_prev = ControlInput(0.1, -0.05)
    u = np.array(frac) * np.array([CFG.v_max, CFG.omega_max] * CFG.horizon_n)
    with pytest.MonkeyPatch.context() as mp:
        fun, args = _captured_objective(mp, pose, ln, obstacles, u_prev)
    mu = args[0] * PENALTY_GROWTH ** e
    f, g = fun(u, mu)
    ref = _float64_objective(u, mu, pose, ln, obstacles, u_prev, CFG)
    assert f.hex() == float(ref).hex()
    _assert_gradient_close(g, u, mu, pose, ln, obstacles, u_prev, CFG)


def test_objective_bit_equal_on_the_solves_of_the_post_pass(monkeypatch):
    """The post stretch of bundled sim_obstacle, 60 ticks from x = 6 m with
    the post at x = 10 m: every input the objective is evaluated at lies in
    the input box, and every 15th call's f is bit-equal to the reference
    loop over all the obstacle points perception handed to solve, and its
    g matches that loop's central difference."""
    cfg = load_scenario(resolve_config_path("sim_obstacle"))
    ncfg = cfg.nmpc
    lo = np.array([-ncfg.v_max, -ncfg.omega_max] * ncfg.horizon_n)
    solve_args = []
    calls = checked = penalised = 0
    real_solve, real_minimize = nmpc.solve, nmpc.minimize

    def recording_solve(*args, **kwargs):
        solve_args.append(args[:4])
        return real_solve(*args, **kwargs)

    def checking_minimize(fun, x0, args=(), **kwargs):
        def checked_fun(u, mu):
            nonlocal calls, checked, penalised
            assert np.all((lo <= u) & (u <= -lo))
            f, g = fun(u, mu)
            calls += 1
            if calls % 15 == 0:
                penalised += _matches_all_obstacle_loop(
                    f, g, u, mu, *solve_args[-1], ncfg)
                checked += 1
            return f, g
        return real_minimize(checked_fun, x0, args=args, **kwargs)

    monkeypatch.setattr(nmpc, "solve", recording_solve)
    monkeypatch.setattr(nmpc, "minimize", checking_minimize)
    log = run_scenario(generate_world(cfg.world), pose_from(6.0, 0.0, 0.0),
                       cfg.camera, cfg.pipeline, ncfg, cfg.fallback,
                       cfg.targets, 60)
    assert not log.collision and log.records[-1].pose.x1 > 12.0
    assert sum(len(args[2]) > 0 for args in solve_args) >= 40
    assert checked >= 100 and penalised >= 30


box_instances = st.tuples(
    st.floats(-0.25, 0.25), st.floats(0.6, 1.5), st.floats(0.6, 1.5),
    st.floats(-0.3, 0.3), st.floats(-0.3, 0.3),
    st.floats(-CFG.v_max, CFG.v_max), st.floats(-CFG.omega_max, CFG.omega_max),
    st.lists(st.tuples(st.floats(0.0, 2.5), st.floats(-0.8, 0.8)), max_size=3))


def _box_instance(case):
    a, b_l, b_r, y, theta, v, w, obstacles = case
    ln = lane(a_l=a, b_l=b_l, a_r=a, b_r=-b_r, margin=0.1)
    return pose_from(0.0, y, theta), ln, obstacles, ControlInput(v, w)


@settings(max_examples=12)
@given(box_instances)
def test_solve_inputs_inside_box_property(case):
    pose, ln, obstacles, u_prev = _box_instance(case)
    seq = solve(pose, ln, obstacles, u_prev, CFG)
    for u in seq.inputs:
        assert -CFG.v_max <= u.v <= CFG.v_max
        assert -CFG.omega_max <= u.omega <= CFG.omega_max


@settings(max_examples=12)
@given(box_instances)
def test_solve_never_worse_than_feasible_stop_property(case):
    pose, ln, obstacles, u_prev = _box_instance(case)
    assume(all(clearance(pose, ob) <= CFG.solver_tol
               for ob in obstacles))
    seq = solve(pose, ln, obstacles, u_prev, CFG)
    zero = [ControlInput(0.0, 0.0)] * CFG.horizon_n
    assert seq.status is not SolverStatus.INFEASIBLE
    assert seq.cost <= _objective(zero, pose, ln, u_prev, CFG) + 1e-9


plan_instances = box_instances.map(lambda case: case[:-1] + (case[-1][:2],))


def _rollout(inputs, pose):
    states = [pose]
    for u in inputs:
        states.append(integrate_step(states[-1], u, CFG.dt))
    return states


@settings(max_examples=25)
@given(plan_instances)
def test_solve_plan_properties(case):
    """Over drawn lanes, poses, previous inputs and 0-2 obstacle points, the
    plan solve returns: lies in the input box exactly; costs no more than
    the zero plan or constant reverse where that baseline clears every
    point within solver_tol; chains through integrate_step; and reports as
    its violation max(0, R_safe^2 - d^2) over its predicted states after
    the first and every point."""
    pose, ln, obstacles, u_prev = _box_instance(case)
    seq = solve(pose, ln, obstacles, u_prev, CFG)
    for u in seq.inputs:
        assert -CFG.v_max <= u.v <= CFG.v_max
        assert -CFG.omega_max <= u.omega <= CFG.omega_max

    for plan in ([ControlInput(0.0, 0.0)] * CFG.horizon_n,
                 [ControlInput(-CFG.v_max, 0.0)] * CFG.horizon_n):
        if all(clearance(state, ob) <= CFG.solver_tol
               for state in _rollout(plan, pose)[1:] for ob in obstacles):
            assert seq.cost <= _objective(plan, pose, ln, u_prev, CFG) + 1e-9

    assert seq.predicted_states[0] == pose
    for state, nxt in zip(_rollout(seq.inputs, pose)[1:], seq.predicted_states[1:]):
        for got, want in ((state.x1, nxt.x1), (state.x2, nxt.x2),
                          (state.x3, nxt.x3), (state.x4, nxt.x4)):
            assert abs(got - want) <= 1e-9

    worst = max([0.0] + [clearance(state, ob) for state in seq.predicted_states[1:]
                         for ob in obstacles])
    assert abs(seq.max_constraint_violation - worst) <= 1e-12


# ---------------------------------------------------------------- controller

def test_control_step_matches_solve_first_input():
    ln = lane(margin=0.3)
    ctrl = NmpcController(NmpcConfig())
    seq = ctrl.control_step(pose_from(0, 0, 0), ln, [])
    assert seq == solve(pose_from(0, 0, 0), ln, [], ControlInput(0, 0), NmpcConfig())
    assert ctrl.last_sequence is seq
    assert ctrl._u_prev == seq.inputs[0]


def test_control_step_deterministic_across_instances():
    ln = lane(a_l=0.05, a_r=0.03, margin=0.2)
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
    """An INFEASIBLE plan is returned, not raised, and leaves no warm start."""
    ln = lane(b_l=1.25, b_r=-1.25, margin=0.3)
    ctrl = NmpcController(NmpcConfig())
    ctrl.control_step(pose_from(0, 0, 0), ln, [])
    assert ctrl.last_sequence is not None
    ring = [(0.25 * math.cos(a), 0.25 * math.sin(a))
            for a in np.linspace(0, 2 * math.pi, 16, endpoint=False)]
    seq = ctrl.control_step(pose_from(0, 0, 0), ln, ring)
    assert seq.status is SolverStatus.INFEASIBLE
    assert seq.max_constraint_violation > CFG.solver_tol
    assert ctrl.last_sequence is None
