import gc
import math

import numpy as np
import pytest

from rownav import pipeline
from rownav.cli import resolve_config_path
from rownav.config import load_scenario
from rownav.core import ControlInput, heading_of, pose_from
from rownav.pipeline import PipelineConfig, PerceptionStatus, process
from rownav.nmpc import NmpcConfig
from rownav.sim import (CameraSpec, Centerline, LidarSpec, ObstacleSpec,
                        TargetSpec, WorldSpec, generate_world, render_cloud,
                        render_lidar, run_scenario, step_rover)
from rownav.supervisor import FallbackConfig, Mode


# ---------------------------------------------------------------- centerline

def test_centerline_straight():
    line = Centerline(20.0, 0.0)
    assert line.point(5.0) == (5.0, 0.0)
    assert line.tangent_angle(5.0) == 0.0
    assert line.project(5.0, 0.3) == (5.0, 0.3)


def test_centerline_arc_round_trip():
    line = Centerline(20.0, 1.0 / 15.0)
    for s in np.linspace(0.1, 19.9, 15):
        for lat in (-0.4, 0.0, 0.6):
            t = line.tangent_angle(s)
            px, py = line.point(s)
            x = px + lat * -math.sin(t)
            y = py + lat * math.cos(t)
            s2, lat2 = line.project(x, y)
            assert s2 == pytest.approx(s, abs=1e-9)
            assert lat2 == pytest.approx(lat, abs=1e-9)


def test_centerline_right_curve_sign():
    line = Centerline(20.0, -1.0 / 15.0)
    s2, lat = line.project(*line.point(3.0))
    assert s2 == pytest.approx(3.0, abs=1e-9)
    assert lat == pytest.approx(0.0, abs=1e-9)
    # a point to the left of travel has positive lateral offset
    t = line.tangent_angle(3.0)
    px, py = line.point(3.0)
    _, lat_left = line.project(px - 0.5 * math.sin(t), py + 0.5 * math.cos(t))
    assert lat_left == pytest.approx(0.5, abs=1e-9)


# ---------------------------------------------------------------- world

def test_world_rows_straddle_centerline():
    spec = WorldSpec(row_length=20.0, intra_row_space=1.5, seed=0)
    world = generate_world(spec)
    stems = world.stems
    assert np.allclose(np.abs(stems[:, 1]), 0.75)
    assert stems[:, 0].min() >= -1e-9
    assert stems[:, 0].max() <= 20.0 + 1e-9


def test_world_deterministic_per_seed():
    spec = WorldSpec(seed=3)
    w1 = generate_world(spec)
    w2 = generate_world(spec)
    np.testing.assert_array_equal(w1.points, w2.points)
    w3 = generate_world(WorldSpec(seed=4))
    assert w3.points.shape != w1.points.shape or not np.array_equal(
        w3.points, w1.points)


def test_world_pergola_has_high_canopy():
    world = generate_world(WorldSpec(intra_row_space=4.0, pergola=True, seed=1))
    overhead = world.points[(np.abs(world.points[:, 1]) < 1.0)
                            & (world.points[:, 0] > 1.0)
                            & (world.points[:, 0] < 19.0)]
    assert (overhead[:, 2] > 2.0).any()


def test_world_heights_within_plant_height():
    spec = WorldSpec(plant_height=1.7, seed=2)
    world = generate_world(spec)
    assert world.points[:, 2].max() <= 1.7 + 1e-9
    assert world.points[:, 2].min() > 0.0


def test_world_extra_obstacle_cluster():
    spec = WorldSpec(seed=5, extra_obstacles=[ObstacleSpec(10.0, 0.1, 0.2)])
    world = generate_world(spec)
    near = world.points[np.hypot(world.points[:, 0] - 10.0,
                                 world.points[:, 1] - 0.1) <= 0.2 + 1e-9]
    assert len(near) >= 60
    assert len(world.stems) == len(world.stem_radii)
    assert (world.stem_radii[-1]) == pytest.approx(0.2)


# ---------------------------------------------------------------- rendering

def test_render_empty_world():
    world = generate_world(WorldSpec(seed=0))
    world.points = np.zeros((0, 3))
    cloud = render_cloud(world, pose_from(0, 0, 0), CameraSpec(),
                         with_ground=False)
    assert cloud.shape == (0, 3)
    # with the ground plane on, downward rays return dirt instead
    ground = render_cloud(world, pose_from(0, 0, 0), CameraSpec())
    assert len(ground) > 0
    assert (ground[:, 2] < 0.05).all()


def test_render_corridor_splits_into_bands():
    world = generate_world(WorldSpec(seed=6, noise_sigma=0.0))
    cloud = render_cloud(world, pose_from(2.0, 0, 0), CameraSpec())
    plants = cloud[cloud[:, 2] > 0.15]
    assert len(plants) > 100
    gap = world.spec.intra_row_space / 2.0 - world.spec.plant_radius
    assert (np.abs(plants[:, 1]) > gap - 0.08).all()
    assert (plants[:, 1] > 0).any() and (plants[:, 1] < 0).any()


def test_render_respects_occlusion_range():
    world = generate_world(WorldSpec(seed=6))
    cam = CameraSpec(max_range=4.0)
    cloud = render_cloud(world, pose_from(0, 0, 0), cam)
    rng = np.hypot(np.hypot(cloud[:, 0], cloud[:, 1]),
                   cloud[:, 2] - cam.mount_height)
    assert rng.max() <= cam.max_range + 1e-6


def test_render_past_row_end_goes_empty():
    world = generate_world(WorldSpec(row_length=20.0, seed=6))
    cloud = render_cloud(world, pose_from(21.5, 0, 0), CameraSpec())
    res = process(cloud, PipelineConfig())
    assert res.status is PerceptionStatus.EMPTY_FOV


def test_render_noise_deterministic_with_seeded_rng():
    world = generate_world(WorldSpec(seed=7, noise_sigma=0.01))
    c1 = render_cloud(world, pose_from(1, 0, 0), CameraSpec(),
                      np.random.default_rng(42))
    c2 = render_cloud(world, pose_from(1, 0, 0), CameraSpec(),
                      np.random.default_rng(42))
    np.testing.assert_array_equal(c1, c2)


def test_render_lidar_sees_behind():
    world = generate_world(WorldSpec(seed=8))
    cloud = render_lidar(world, pose_from(10.0, 0, 0), LidarSpec())
    assert (cloud[:, 0] < -0.5).any()
    assert (cloud[:, 0] > 0.5).any()


# ---------------------------------------------------------------- stepping

def test_step_rover_straight():
    out = step_rover(pose_from(0, 0, 0), ControlInput(0.4, 0.0), 0.7)
    assert out.x1 == pytest.approx(0.28)
    assert out.x2 == pytest.approx(0.0)


def test_step_rover_pure_rotation():
    out = step_rover(pose_from(0, 0, 0), ControlInput(0.0, 0.5), 0.7)
    assert out.x1 == pytest.approx(0.0)
    assert out.x2 == pytest.approx(0.0)
    assert heading_of(out) == pytest.approx(0.35)


def test_step_rover_zero_identity():
    pose = pose_from(1.0, 2.0, 0.3)
    out = step_rover(pose, ControlInput(0.0, 0.0), 0.7)
    assert (out.x1, out.x2, out.x3, out.x4) == \
        (pose.x1, pose.x2, pose.x3, pose.x4)


def test_step_rover_arc_matches_circle():
    v, w, dt = 0.4, 0.5, 0.7
    pose = step_rover(pose_from(0, 0, 0), ControlInput(v, w), dt)
    radius = v / w
    # the rover stays on the circle centered at (0, radius)
    assert math.hypot(pose.x1 - 0.0, pose.x2 - radius) == pytest.approx(radius)


def test_step_rover_consistent_with_integrate():
    from rownav.nmpc import integrate_step
    rng = np.random.default_rng(14)
    for _ in range(30):
        pose = pose_from(rng.uniform(-1, 1), rng.uniform(-1, 1),
                         rng.uniform(-2, 2))
        u = ControlInput(rng.uniform(-0.4, 0.4), rng.uniform(-0.5, 0.5))
        exact = step_rover(pose, u, 0.7)
        rk4 = integrate_step(pose, u, 0.7)
        assert rk4.x1 == pytest.approx(exact.x1, abs=1e-6)
        assert rk4.x2 == pytest.approx(exact.x2, abs=1e-6)


# ---------------------------------------------------------------- scenarios

def quick_world(**kw):
    defaults = dict(row_length=8.0, intra_row_space=1.5, seed=21,
                    noise_sigma=0.0, canopy_overhang=3.0)
    defaults.update(kw)
    return generate_world(WorldSpec(**defaults))


def quick_camera():
    return CameraSpec(rays_h=120, rays_v=60)


def test_run_scenario_completes_and_replays():
    world = quick_world()
    log1 = run_scenario(world, pose_from(0, 0, 0), quick_camera(),
                        PipelineConfig(), NmpcConfig(), FallbackConfig(),
                        max_ticks=80)
    log2 = run_scenario(world, pose_from(0, 0, 0), quick_camera(),
                        PipelineConfig(), NmpcConfig(), FallbackConfig(),
                        max_ticks=80)
    assert log1.completed and not log1.collision
    assert log1.records[-1].mode is Mode.END_OF_ROW
    assert log1.records[-1].command == ControlInput(0.0, 0.0)
    assert len(log1.records) == len(log2.records)
    for r1, r2 in zip(log1.records, log2.records):
        assert r1.pose == r2.pose
        assert r1.command == r2.command
        assert r1.mode == r2.mode


def test_run_scenario_timestamps_strictly_increasing():
    world = quick_world()
    log = run_scenario(world, pose_from(0, 0, 0), quick_camera(),
                       PipelineConfig(), NmpcConfig(), FallbackConfig(),
                       max_ticks=80)
    ts = [r.t for r in log.records]
    assert all(b - a == pytest.approx(0.7) for a, b in zip(ts, ts[1:]))


def test_run_scenario_collision_flag_matches_bruteforce_sweep():
    world = quick_world()
    log = run_scenario(world, pose_from(0, 0, 0), quick_camera(),
                       PipelineConfig(), NmpcConfig(), FallbackConfig(),
                       max_ticks=80)
    hit = any((np.hypot(world.stems[:, 0] - r.pose.x1,
                        world.stems[:, 1] - r.pose.x2)
               < world.stem_radii).any() for r in log.records)
    assert hit == log.collision


def test_run_scenario_target_approach_and_resume():
    world = quick_world(intra_row_space=2.5, row_length=10.0)
    targets = [TargetSpec(x=4.0, y=0.4, standoff=0.6, detection_range=3.0)]
    log = run_scenario(world, pose_from(0, 0, 0), quick_camera(),
                       PipelineConfig(), NmpcConfig(), FallbackConfig(),
                       targets=targets, max_ticks=120)
    modes = [r.mode for r in log.records]
    assert Mode.TARGET_APPROACH in modes
    i_app = modes.index(Mode.TARGET_APPROACH)
    assert Mode.TRAVERSE in modes[i_app:]
    assert log.completed and not log.collision
    reached = min(math.hypot(r.pose.x1 - 4.0, r.pose.x2 - 0.4)
                  for r in log.records)
    assert reached <= 0.6 + 0.3  # stops about one standoff away


def test_run_scenario_max_ticks_bound():
    world = quick_world(row_length=50.0, canopy_overhang=0.0)
    log = run_scenario(world, pose_from(0, 0, 0), quick_camera(),
                       PipelineConfig(), NmpcConfig(), FallbackConfig(),
                       max_ticks=10)
    assert len(log.records) == 10
    assert not log.completed


def test_perception_error_becomes_invalid_lane(monkeypatch):
    """An exception out of a pipeline stage is an INVALID_LANE result that
    names it, and the closed loop runs on with that reason in its notes."""
    def broken(*args, **kwargs):
        raise RuntimeError("kNN tree exploded")

    monkeypatch.setattr(pipeline, "knn_outlier_filter", broken)
    world = quick_world()
    cloud = render_cloud(world, pose_from(2.0, 0, 0), quick_camera())
    res = process(cloud, PipelineConfig())
    reason = "perception error: RuntimeError: kNN tree exploded"
    assert res.status is PerceptionStatus.INVALID_LANE
    assert res.reason == reason and res.lane is None
    log = run_scenario(world, pose_from(0, 0, 0), quick_camera(),
                       PipelineConfig(), NmpcConfig(), FallbackConfig(),
                       max_ticks=5)
    assert len(log.records) == 5
    assert all(r.perception_status is PerceptionStatus.INVALID_LANE
               for r in log.records)
    assert reason in log.records[0].note


def test_run_scenario_retains_no_objects_between_passes():
    """A pass leaves nothing behind once its log is dropped: the third pass
    ends with as many live objects as the second (the first may fill
    import-time and first-call caches)."""
    cfg = load_scenario(resolve_config_path("sim_obstacle"))
    world = generate_world(cfg.world)
    start = pose_from(cfg.start.x, cfg.start.y, cfg.start.theta)
    counts = []
    for _ in range(3):
        run_scenario(world, start, cfg.camera, cfg.pipeline, cfg.nmpc,
                     cfg.fallback, cfg.targets, max_ticks=20)
        gc.collect()
        counts.append(len(gc.get_objects()))
    assert counts[2] == counts[1]
