import gc
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rownav import pipeline, sim
from rownav.cli import resolve_config_path
from rownav.config import load_scenario
from rownav.core import ControlInput, heading_of, pose_from
from rownav.pipeline import PipelineConfig, PerceptionStatus, process
from rownav.nmpc import NmpcConfig
from rownav.sim import (CameraSpec, Centerline, ObstacleSpec, TargetSpec, World,
                        WorldSpec, generate_world, render_cloud, run_scenario,
                        step_rover)
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
    # the nearest ground return lies beyond 0.5 m, so no ray hits
    cloud = render_cloud(world, pose_from(0, 0, 0), CameraSpec(max_range=0.5))
    assert cloud.shape == (0, 3)
    # within range, downward rays return dirt
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


# A 360-degree sweep sensor: the camera lattice with h_fov = 2*pi.
SWEEP = CameraSpec(h_fov=2.0 * math.pi, v_fov=math.radians(30.0), max_range=12.0,
                   rays_h=720, rays_v=16, mount_height=0.5)


def test_render_lidar_sees_behind():
    world = generate_world(WorldSpec(seed=8))
    cloud = render_cloud(world, pose_from(10.0, 0, 0), SWEEP)
    assert (cloud[:, 0] < -0.5).any()
    assert (cloud[:, 0] > 0.5).any()


def sorted_zbuffer(world, pose, cam, rng=None):
    """The renderer before its min-reduced z-buffer, kept as the reference:
    per-offset lists of ray ids and ranges, one lexsort, the first (nearest)
    entry of each run of equal ids, then the ground plane; a full-circle
    lattice wraps its azimuth index."""
    hit_radius = sim.HIT_RADIUS
    wrap_az = cam.h_fov == 2.0 * math.pi
    mount = cam.mount_height
    az_lo, n_az, d_az = -cam.h_fov / 2.0, cam.rays_h, cam.h_fov / cam.rays_h
    el_lo, n_el, d_el = -cam.v_fov / 2.0, cam.rays_v, cam.v_fov / cam.rays_v
    rel = sim._to_rover_frame(world.points, pose)
    rel[:, 2] -= mount
    rho = np.linalg.norm(rel, axis=1)
    near = (rho > 0.05) & (rho <= cam.max_range + hit_radius)
    rel = rel[near]
    rho = rho[near]
    az = np.arctan2(rel[:, 1], rel[:, 0])
    el = np.arctan2(rel[:, 2], np.hypot(rel[:, 0], rel[:, 1]))
    ci = (az - az_lo) / d_az - 0.5
    cj = (el - el_lo) / d_el - 0.5
    delta = np.arcsin(np.minimum(1.0, hit_radius / np.maximum(rho, hit_radius)))
    si = np.minimum(np.ceil(delta / d_az).astype(int), 4)
    sj = np.minimum(np.ceil(delta / d_el).astype(int), 4)
    i0 = np.round(ci).astype(int)
    j0 = np.round(cj).astype(int)

    max_si = int(si.max()) if len(si) else 0
    max_sj = int(sj.max()) if len(sj) else 0
    flat_ids, flat_rho = [], []
    for di in range(-max_si, max_si + 1):
        for dj in range(-max_sj, max_sj + 1):
            mask = (np.abs(di) <= si) & (np.abs(dj) <= sj)
            if not mask.any():
                continue
            ii = i0[mask] + di
            jj = j0[mask] + dj
            rr = rho[mask]
            if wrap_az:
                ii = np.mod(ii, n_az)
                ok = (jj >= 0) & (jj < n_el)
            else:
                ok = (ii >= 0) & (ii < n_az) & (jj >= 0) & (jj < n_el)
            if not ok.any():
                continue
            flat_ids.append(ii[ok] * n_el + jj[ok])
            flat_rho.append(rr[ok])

    img = np.full(n_az * n_el, np.inf)
    if flat_ids:
        ids = np.concatenate(flat_ids)
        rr = np.concatenate(flat_rho)
        order = np.lexsort((rr, ids))
        ids = ids[order]
        rr = rr[order]
        first = np.ones(len(ids), dtype=bool)
        first[1:] = ids[1:] != ids[:-1]
        img[ids[first]] = rr[first]

    az_centers = az_lo + (np.arange(n_az) + 0.5) * d_az
    el_centers = el_lo + (np.arange(n_el) + 0.5) * d_el
    sin_el = np.sin(el_centers)
    with np.errstate(divide="ignore"):
        ground = np.where(sin_el < 0.0, mount / -sin_el, np.inf)
    img = np.minimum(img.reshape(n_az, n_el), ground[None, :]).ravel()

    hit = img <= cam.max_range
    if not hit.any():
        return np.zeros((0, 3))
    ray_i, ray_j = np.divmod(np.nonzero(hit)[0], n_el)
    ranges = img[hit]
    if world.spec.noise_sigma > 0.0 and rng is not None:
        ranges = ranges + rng.normal(0.0, world.spec.noise_sigma, size=len(ranges))
    a = az_centers[ray_i]
    e = el_centers[ray_j]
    cos_e = np.cos(e)
    return np.column_stack([ranges * cos_e * np.cos(a),
                            ranges * cos_e * np.sin(a),
                            mount + ranges * np.sin(e)])


def assert_renders_like_reference(world, pose, cam, seed):
    """Same frame bytes, and the seeded noise rng left in the same state."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    cloud = render_cloud(world, pose, cam, rng)
    ref = sorted_zbuffer(world, pose, cam, ref_rng)
    assert cloud.shape == ref.shape
    assert cloud.tobytes() == ref.tobytes()
    assert rng.random() == ref_rng.random()


def cloud_world(points, noise_sigma=0.005):
    """A world holding only `points`: no rows, no stems."""
    return World(WorldSpec(noise_sigma=noise_sigma), Centerline(1.0),
                 np.asarray(points, dtype=float).reshape(-1, 3),
                 np.zeros((0, 2)), np.zeros(0))


_PERGOLA = str(Path(__file__).resolve().parents[1] / "bench" / "pergola_dense.yaml")
_RENDER_CONFIGS = ["sim_straight", "sim_curved", "sim_half_lane", "sim_obstacle",
                   "sim_misaligned", "sim_target", _PERGOLA]


@pytest.mark.parametrize("name", _RENDER_CONFIGS, ids=lambda n: Path(n).stem)
def test_render_matches_sorted_zbuffer_on_scenarios(name):
    """The min-reduced z-buffer renders every scenario's frames as the sorted
    one did, from the start pose and from three poses along the row, off
    the centre line and off its heading."""
    cfg = load_scenario(resolve_config_path(name))
    world = generate_world(cfg.world)
    line = world.centerline
    poses = [pose_from(cfg.start.x, cfg.start.y, cfg.start.theta)]
    for frac, lateral, turn in ((0.3, 0.1, 0.15), (0.6, -0.2, -0.25), (0.95, 0.0, 0.4)):
        s = frac * cfg.world.row_length
        (x, y), (nx, ny) = line.point(s), line.normal(s)
        poses.append(pose_from(x + lateral * nx, y + lateral * ny,
                               line.tangent_angle(s) + turn))
    for k, pose in enumerate(poses):
        assert_renders_like_reference(world, pose, cfg.camera, [cfg.world.seed, k])


def test_render_matches_sorted_zbuffer_across_the_sweep_seam():
    """A 360-degree lattice starts at az = -pi, and splats of points just
    behind the rover wrap across the +-pi seam."""
    assert -SWEEP.h_fov / 2.0 == -math.pi
    rng = np.random.default_rng(3)
    behind = np.column_stack([-2.0 + rng.normal(0.0, 0.01, 200),
                              rng.uniform(-0.03, 0.03, 200),
                              SWEEP.mount_height + rng.uniform(-0.2, 0.2, 200)])
    pose = pose_from(0, 0, 0)
    assert_renders_like_reference(cloud_world(behind), pose, SWEEP, 4)
    cloud = render_cloud(cloud_world(behind, 0.0), pose, SWEEP)
    seam = cloud[cloud[:, 0] < -1.5]
    assert (seam[:, 1] > 0).any() and (seam[:, 1] < 0).any()
    world = generate_world(WorldSpec(seed=8, noise_sigma=0.005))
    assert_renders_like_reference(world, pose_from(10.0, 0.1, 0.3), SWEEP, 5)


_coord = st.floats(-4.0, 4.0)
_near = st.floats(-0.05, 0.05)


@given(points=st.lists(st.tuples(_coord, _coord, st.floats(-1.0, 3.0)), max_size=30),
       near=st.lists(st.tuples(_near, _near, _near), max_size=4),
       dups=st.lists(st.integers(0, 100), max_size=6),
       sweep=st.booleans(), noise_sigma=st.sampled_from([0.0, 0.01]),
       theta=st.floats(-math.pi, math.pi), seed=st.integers(0, 2**32 - 1))
def test_render_matches_sorted_zbuffer_on_small_clouds(points, near, dups, sweep,
                                                       noise_sigma, theta, seed):
    """Small clouds with points beyond max_range, points within 5 cm of the
    sensor and duplicate points render as the sorted z-buffer did."""
    cam = CameraSpec(h_fov=2.0 * math.pi if sweep else math.radians(87.0),
                     max_range=2.5, rays_h=48, rays_v=12)
    x, y = 0.3, -0.2
    pts = [(x + px, y + py, pz) for px, py, pz in points]
    pts += [(x + dx, y + dy, cam.mount_height + dz) for dx, dy, dz in near]
    pts += [pts[i % len(pts)] for i in dups] if pts else []
    assert_renders_like_reference(cloud_world(pts, noise_sigma),
                                  pose_from(x, y, theta), cam, seed)



def ray_points(cam, rays, ranges):
    """Points seen from pose (0, 0, 0) at continuous ray indices (ci, cj):
    ci = 0 is the centre of the first azimuth ray, cj = 0 of the first
    elevation ray, and -1 or rays_h lie one ray beyond the lattice."""
    ci, cj = np.asarray(rays, dtype=float).T
    a = -cam.h_fov / 2.0 + (ci + 0.5) * cam.h_fov / cam.rays_h
    e = -cam.v_fov / 2.0 + (cj + 0.5) * cam.v_fov / cam.rays_v
    rho = np.asarray(ranges, dtype=float)
    return np.column_stack([rho * np.cos(e) * np.cos(a), rho * np.cos(e) * np.sin(a),
                            cam.mount_height + rho * np.sin(e)])


def _margin_cases():
    """(name, cam, points) where the z-buffer margin decides a ray."""
    # Rows of disks beyond each edge, each disk 4 rays wide both ways and
    # nearer the further out it sits, so the outermost one that reaches
    # the edge ray is the one that ray sees.
    outside = np.arange(1, 2 * sim.SPLAT_MAX + 2)
    ranges = 0.1 - 0.005 * outside
    edge = CameraSpec(max_range=2.5, rays_h=48, rays_v=12)
    n_az, n_el = edge.rays_h, edge.rays_v
    rays = [(-k, 6) for k in outside] + [(n_az - 1 + k, 4) for k in outside]
    rays += [(20, -k) for k in outside] + [(30, n_el - 1 + k) for k in outside]
    rays += [(-k, -k) for k in outside] + [(n_az - 1 + k, n_el - 1 + k) for k in outside]
    yield "edges_87deg", edge, ray_points(edge, rays, np.tile(ranges, 6))
    near = [0.06, 0.08, 0.12, 0.2]      # disks 4, 3, 2 and 1 rays wide on 48 rays
    sweep = CameraSpec(h_fov=2.0 * math.pi, max_range=2.5, rays_h=48, rays_v=12)
    seam = [-0.4, 0.3, 1.5, 3.4, 44.6, 46.5, 47.4, 47.6]
    rays = [(ci, 6) for ci in seam for _ in near]
    yield "seam_360deg", sweep, ray_points(sweep, rays, near * len(seam))
    rng = np.random.default_rng(9)
    for n_az in (2, 3):
        wide = CameraSpec(h_fov=2.0 * math.pi, max_range=2.5, rays_h=n_az, rays_v=12)
        rays = np.column_stack([rng.uniform(-0.5, n_az - 0.5, 60), rng.uniform(-3, 14, 60)])
        yield f"rays_h_{n_az}_360deg", wide, ray_points(wide, rays, rng.uniform(0.051, 0.4, 60))


@pytest.mark.parametrize("cam, points", [pytest.param(cam, points, id=name)
                                         for name, cam, points in _margin_cases()])
def test_render_matches_sorted_zbuffer_where_the_margin_decides(cam, points):
    """Disks centred off the lattice whose splats reach its edge rays, disks
    that straddle the +-pi seam, and 360-degree lattices narrower than the
    z-buffer margin, where one splat wraps onto a ray more than once."""
    pose = pose_from(0, 0, 0)
    assert_renders_like_reference(cloud_world(points), pose, cam, 11)
    # The off-lattice disks do reach it: the frame differs from open ground.
    assert not np.array_equal(render_cloud(cloud_world(points, 0.0), pose, cam),
                              render_cloud(cloud_world([], 0.0), pose, cam))


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
