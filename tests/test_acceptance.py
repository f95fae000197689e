"""Acceptance gate: closed-loop scenario targets plus analytic suites.

Each test prints one pass line; run with `pytest tests/test_acceptance.py -v -s`
to see them. Scenario runs come from the bundled configs, so this module
also exercises the exact setups shipped with the package.
"""

import importlib.util
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from rownav.cli import execute_scenario, resolve_config_path
from rownav.config import load_scenario
from rownav.core import BorderLine, ControlInput, QuatPose, pose_from
from rownav.nmpc import (NmpcConfig, _stage_partials, integrate_step,
                         meyer_cost, solve, stage_cost, lane_cost, align_cost)
from rownav.pipeline import (LaneModel, PipelineConfig, PerceptionStatus,
                             OccupancyGrid, knn_outlier_filter, process,
                             shadow_fill)
from rownav.sim import Mode, generate_world
from rownav.supervisor import Mode as SupMode


def _bench_log_digest():
    """bench/loop.py's log_digest, the hash the benchmark compares passes by."""
    spec = importlib.util.spec_from_file_location(
        "bench_loop", Path(__file__).resolve().parents[1] / "bench" / "loop.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.log_digest


log_digest = _bench_log_digest()


def run_bundled(name):
    cfg = load_scenario(resolve_config_path(name))
    world = generate_world(cfg.world)
    t0 = time.monotonic()
    log, report = execute_scenario(cfg)
    elapsed = time.monotonic() - t0
    return cfg, world, log, report, elapsed


@pytest.fixture(scope="module")
def straight():
    return run_bundled("sim_straight")


@pytest.fixture(scope="module")
def curved():
    return run_bundled("sim_curved")


@pytest.fixture(scope="module")
def half_lane():
    return run_bundled("sim_half_lane")


@pytest.fixture(scope="module")
def obstacle():
    return run_bundled("sim_obstacle")


@pytest.fixture(scope="module")
def misaligned():
    return run_bundled("sim_misaligned")


@pytest.fixture(scope="module")
def target():
    return run_bundled("sim_target")


# log_digest of each bundled run: every pose, command, mode, status and
# note, bit for bit. Measured with numpy 2.4.6 and scipy 1.17.1; another
# numpy or scipy may move the last bits of a plan, and so every later tick.
RUN_DIGESTS = {
    "straight": "2c8cd0ffc664547d61e42f0ee5b9daa977a17d3b7565fadcda9520de3f054193",
    "curved": "53ff25da9eb0bbf74da87199f1746737d5bde00dff369a7d498bf4cc55e07518",
    "half_lane": "208ec91414135ca66aa417003f12a98e095b7b7b0552a4760b2c4ac769f0162f",
    "obstacle": "4aefe9066ccaf48496a6570f2edfbc6e3a86524b3943fe21b0b14cb7b405fb1e",
    "misaligned": "1b8ae5f7c5819a15acfd30bcb410e073910e9e0525e01ac227499932c41a336e",
    "target": "eb1b2eefd1fe7c096b12d88065a3f2fd4165283dec0c9a7ea489df9b84478253",
}


@pytest.mark.parametrize("run", list(RUN_DIGESTS))
def test_bundled_run_keeps_its_bytes(run, request):
    _, _, log, _, _ = request.getfixturevalue(run)
    assert log_digest(log) == RUN_DIGESTS[run]


def test_criterion_01_straight_row(straight):
    cfg, world, log, report, elapsed = straight
    assert log.completed, "straight run must reach the end of the row"
    assert log.collisions == 0
    assert report is not None
    assert report.v_avg >= 0.37
    assert report.mae <= 0.12
    assert report.omega_std <= 0.08
    assert elapsed < 60.0
    print(f"PASS criterion 1: straight row (v_avg={report.v_avg:.3f}, "
          f"mae={report.mae:.3f}, omega_std={report.omega_std:.3f}, "
          f"runtime={elapsed:.1f}s)")


def test_criterion_02_curved_row(curved):
    cfg, world, log, report, _ = curved
    assert log.completed
    assert log.collisions == 0
    assert report is not None
    assert report.mae <= 0.25
    assert report.v_avg >= 0.37
    print(f"PASS criterion 2: curved row (mae={report.mae:.3f}, "
          f"v_avg={report.v_avg:.3f})")


def test_criterion_03_half_lane(half_lane):
    cfg, world, log, report, _ = half_lane
    assert log.completed
    assert log.collisions == 0
    half_width = cfg.world.intra_row_space / 2.0
    lats = [world.centerline.project(r.pose.x1, r.pose.x2)[1]
            for r in log.records]
    tail = lats[int(0.75 * len(lats)):]
    target = cfg.desired_offset  # middle of the right lane
    worst = max(abs(l - target) for l in tail)
    assert worst <= 0.15
    assert all(abs(l) < half_width for l in lats), "no border crossing"
    print(f"PASS criterion 3: half lane (steady-state err={worst:.3f} m "
          f"to the 3/4-width line)")


def test_criterion_04_obstacle(obstacle):
    cfg, world, log, report, _ = obstacle
    assert log.completed
    assert log.collisions == 0
    obs = cfg.world.extra_obstacles[0]
    d_min = min(math.hypot(r.pose.x1 - obs.x, r.pose.x2 - obs.y)
                for r in log.records)
    assert d_min >= cfg.nmpc.R_safe - 0.05
    print(f"PASS criterion 4: obstacle pass-by (min distance {d_min:.3f} m "
          f">= {cfg.nmpc.R_safe - 0.05:.2f})")


@pytest.mark.parametrize("seed", [6, 7])
def test_obstacle_worlds_6_and_7_complete(seed):
    """Bundled sim_obstacle on world seeds 6 and 7. On seed 6 the realign
    spin once brought the post back into view 0.257 m ahead, inside
    R_safe, and every solve after that was infeasible until max_ticks;
    the constant-reverse plan that solve offers then backs the rover out."""
    cfg = load_scenario(resolve_config_path("sim_obstacle"))
    cfg.world.seed = seed
    log, report = execute_scenario(cfg)
    assert log.completed and log.collisions == 0
    assert report is not None
    print(f"PASS sim_obstacle world seed {seed}: clearance "
          f"{report.clearance_time:.1f} s in {len(log.records)} ticks")


def test_criterion_05_fault_recovery(misaligned):
    cfg, world, log, report, _ = misaligned
    modes = [r.mode for r in log.records]
    assert SupMode.FALLBACK_REALIGN in modes
    i_fb = modes.index(SupMode.FALLBACK_REALIGN)
    assert SupMode.TRAVERSE in modes[i_fb:]
    assert log.completed
    assert log.collisions == 0
    print("PASS criterion 5: 60-degree fault recovery "
          f"(realign ticks={modes.count(SupMode.FALLBACK_REALIGN)})")


def test_criterion_06_end_of_row(straight):
    cfg, world, log, report, _ = straight
    statuses = [r.perception_status for r in log.records]
    assert PerceptionStatus.EMPTY_FOV in statuses
    first_empty = statuses.index(PerceptionStatus.EMPTY_FOV)
    window = [r.mode for r in log.records[first_empty:first_empty + 3]]
    assert Mode.END_OF_ROW in window, "debounce must fire within 3 ticks"
    last = log.records[-1]
    assert last.command == ControlInput(0.0, 0.0)
    assert last.mode is Mode.END_OF_ROW
    print("PASS criterion 6: end-of-row stop "
          f"(debounce fired {window.index(Mode.END_OF_ROW) + 1} ticks after "
          "the view emptied, final command (0,0))")


def test_criterion_07_cost_closed_forms():
    rng = np.random.default_rng(100)
    for _ in range(1000):
        a = rng.uniform(-1.0, 1.0)
        b_l = rng.uniform(0.3, 2.0)
        b_r = -rng.uniform(0.3, 2.0)
        lane = LaneModel(BorderLine(a, b_l, "left"),
                         BorderLine(a, b_r, "right"), 0.0)
        x1 = rng.uniform(-2.0, 4.0)
        y_l = lane.inflated_left.y_at(x1)
        y_r = lane.inflated_right.y_at(x1)
        center = pose_from(x1, 0.5 * (y_l + y_r), 0.0)
        at_border = pose_from(x1, y_l, 0.0)
        assert abs(lane_cost(center, lane)) <= 1e-9
        assert abs(lane_cost(at_border, lane) - 1.0) <= 1e-9

        aligned = pose_from(x1, 0.0, math.atan(lane.a_avg))
        assert abs(align_cost(aligned, lane)) <= 1e-9

        pose = pose_from(rng.uniform(-2, 4), rng.uniform(-2, 2), 0.0)
        K = rng.uniform(0.1, 3.0)
        direction = np.array([1.0, lane.a_avg])
        direction = direction / np.linalg.norm(direction)
        projected = float(np.dot([pose.x1, pose.x2], direction))
        assert abs(meyer_cost(pose, lane, K) + K * projected) <= 1e-12
    print("PASS criterion 7: cost closed forms over 1000 random corridors")


def test_criterion_08_dynamics_suite():
    rng = np.random.default_rng(101)
    # unit-norm drift per integration step
    pose = pose_from(0, 0, 0.2)
    for _ in range(500):
        u = ControlInput(rng.uniform(-0.4, 0.4), rng.uniform(-0.5, 0.5))
        pose = integrate_step(pose, u, 0.7)
        assert pose.unit_error() <= 1e-12

    # integrator against the exact arc at the command bounds
    from rownav.sim import step_rover
    worst = 0.0
    for v in (-0.4, 0.4):
        for w in (-0.5, 0.5):
            start = pose_from(0.1, -0.3, 0.4)
            rk4 = integrate_step(start, ControlInput(v, w), 0.7)
            exact = step_rover(start, ControlInput(v, w), 0.7)
            worst = max(worst, abs(rk4.x1 - exact.x1), abs(rk4.x2 - exact.x2),
                        abs(rk4.x3 - exact.x3), abs(rk4.x4 - exact.x4))
    assert worst <= 1e-6

    # analytic stage-cost gradients against central differences
    cfg = NmpcConfig()
    u_prev = ControlInput(0.2, 0.1)
    max_rel = 0.0
    for _ in range(100):
        lane = LaneModel(BorderLine(rng.uniform(-0.2, 0.2), rng.uniform(0.6, 1.5),
                                    "left"),
                         BorderLine(rng.uniform(-0.2, 0.2), -rng.uniform(0.6, 1.5),
                                    "right"), 0.1)
        pose = pose_from(rng.uniform(-1, 3), rng.uniform(-0.4, 0.4),
                         rng.uniform(-0.9, 0.9))
        u = ControlInput(rng.uniform(-0.4, 0.4), rng.uniform(-0.5, 0.5))
        x0 = np.array([pose.x1, pose.x2, pose.x3, pose.x4, u.v, u.omega])
        analytic = np.array(_stage_partials(pose.x1, pose.x2, pose.x3, pose.x4,
                                            u.v, u.omega, u_prev.v, u_prev.omega,
                                            lane, cfg))

        def f(z):
            return stage_cost(QuatPose(*z[:4]), ControlInput(*z[4:]),
                              u_prev, lane, cfg)

        h = 1e-6
        fd = np.array([(f(x0 + h * e) - f(x0 - h * e)) / (2 * h)
                       for e in np.eye(6)])
        scale = max(1.0, float(np.abs(fd).max()))
        max_rel = max(max_rel, float(np.abs(analytic - fd).max()) / scale)
    assert max_rel <= 1e-5
    print(f"PASS criterion 8: dynamics suite (integrator err={worst:.2e}, "
          f"gradient rel err={max_rel:.2e})")


def test_criterion_09_solver_properties():
    rng = np.random.default_rng(102)
    cfg = NmpcConfig()
    checked = 0
    for _ in range(50):
        a = rng.uniform(-0.2, 0.2)
        lane = LaneModel(BorderLine(a + rng.uniform(-0.04, 0.04),
                                    rng.uniform(0.7, 1.5), "left"),
                         BorderLine(a + rng.uniform(-0.04, 0.04),
                                    -rng.uniform(0.7, 1.5), "right"), 0.1)
        pose = pose_from(0.0, rng.uniform(-0.3, 0.3), rng.uniform(-0.25, 0.25))
        u_prev = ControlInput(rng.uniform(0.0, 0.4), rng.uniform(-0.2, 0.2))
        obstacles = [(rng.uniform(1.2, 2.5), rng.uniform(-0.9, 0.9))]
        seq = solve(pose, lane, obstacles, u_prev, cfg)

        # saturation is exact
        for u in seq.inputs:
            assert abs(u.v) <= cfg.v_max and abs(u.omega) <= cfg.omega_max

        # never worse than stopping
        state, prev, zero_cost = pose, u_prev, 0.0
        for _k in range(cfg.horizon_n):
            zero_cost += stage_cost(state, ControlInput(0, 0), prev, lane, cfg)
            prev = ControlInput(0, 0)
        zero_cost += meyer_cost(state, lane, cfg.K_travel)
        assert seq.cost <= zero_cost + 1e-9

        # predicted states chain through the integrator
        state = seq.predicted_states[0]
        for u, nxt in zip(seq.inputs, seq.predicted_states[1:]):
            state = integrate_step(state, u, cfg.dt)
            for got, want in ((state.x1, nxt.x1), (state.x2, nxt.x2),
                              (state.x3, nxt.x3), (state.x4, nxt.x4)):
                assert abs(got - want) <= 1e-9

        # mirrored problem gives mirrored inputs
        m_pose = QuatPose(pose.x1, -pose.x2, pose.x3, -pose.x4)
        m_lane = LaneModel(BorderLine(-lane.right.a, -lane.right.b, "left"),
                           BorderLine(-lane.left.a, -lane.left.b, "right"),
                           lane.margin)
        m_seq = solve(m_pose, m_lane, [(ox, -oy) for ox, oy in obstacles],
                      ControlInput(u_prev.v, -u_prev.omega), cfg)
        for u, mu in zip(seq.inputs, m_seq.inputs):
            assert abs(mu.omega + u.omega) <= 1e-3
            assert abs(mu.v - u.v) <= 1e-3
        checked += 1
    assert checked == 50
    print("PASS criterion 9: solver properties on 50 randomized instances")


def test_criterion_10_pipeline_oracles():
    t0 = time.monotonic()
    rng = np.random.default_rng(103)
    cfg = PipelineConfig()

    # least-squares recovery on noiseless corridors spanning the grid
    for _ in range(10):
        a = rng.uniform(-0.08, 0.08)
        b_l = rng.uniform(0.6, 1.0)
        b_r = -rng.uniform(0.6, 1.0)
        xs = np.arange(0.3, 5.95, 0.02)
        cloud = np.vstack([
            np.column_stack([xs, a * xs + b_l, np.ones_like(xs)]),
            np.column_stack([xs, a * xs + b_r, np.ones_like(xs)]),
        ])
        res = process(cloud, cfg)
        assert res.status is PerceptionStatus.OK
        assert abs(res.lane.left.a - a) <= 1e-2
        assert abs(res.lane.right.a - a) <= 1e-2
        assert abs(res.lane.left.b - b_l) <= 0.05
        assert abs(res.lane.right.b - b_r) <= 0.05

        # mirroring the cloud mirrors the lane exactly
        mirrored = cloud.copy()
        mirrored[:, 1] *= -1.0
        mes = process(mirrored, cfg)
        assert mes.status is PerceptionStatus.OK
        assert abs(mes.lane.left.a + res.lane.right.a) <= 1e-9
        assert abs(mes.lane.left.b + res.lane.right.b) <= 1e-9

    # occlusion fill is idempotent
    for _ in range(5):
        occ = rng.random((60, 80)) < 0.04
        grid = OccupancyGrid(0.05, 0.0, -2.0, occ)
        once = shadow_fill(grid)
        twice = shadow_fill(once)
        np.testing.assert_array_equal(once.occupied, twice.occupied)

    # the noise filter removes a single injected far outlier
    cluster = rng.normal(0, 0.05, size=(120, 3))
    cloud = np.vstack([cluster, [[8.0, 8.0, 8.0]]])
    kept = knn_outlier_filter(cloud, 10, 1.0)
    assert len(kept) == 120
    assert not any(np.allclose(p, [8.0, 8.0, 8.0]) for p in kept)

    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(f"PASS criterion 10: pipeline oracle suite ({elapsed:.1f}s)")
