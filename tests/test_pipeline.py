import math

import numpy as np
import pytest

from rownav.core import BorderLine, pose_from
from rownav.pipeline import (CorridorCollapsed, InsufficientSamples, LaneModel,
                             OccupancyGrid, PerceptionStatus, PipelineConfig,
                             apply_safety_margin, extract_border_samples,
                             fit_border_line, fov_empty_check, height_crop,
                             knn_outlier_filter, process, project_to_grid,
                             shadow_fill, split_lane, validate_lane,
                             voxel_downsample)
from rownav.sim import CameraSpec, WorldSpec, generate_world, render_cloud


def corridor_cloud(a_l=0.0, b_l=0.75, a_r=0.0, b_r=-0.75, x_lo=0.5, x_hi=4.0,
                   step=0.02, z=1.0, rng=None, noise=0.0):
    """Synthetic noiseless (or seeded-noise) corridor: walls exactly on the
    two lines. The construction itself is the oracle for the fits."""
    xs = np.arange(x_lo, x_hi, step)
    left = np.column_stack([xs, a_l * xs + b_l, np.full_like(xs, z)])
    right = np.column_stack([xs, a_r * xs + b_r, np.full_like(xs, z)])
    cloud = np.vstack([left, right])
    if noise > 0.0:
        cloud = cloud + rng.normal(0.0, noise, size=cloud.shape)
    return cloud


# ---------------------------------------------------------------- voxel

def test_voxel_empty():
    assert voxel_downsample([], 0.05).shape == (0, 3)


def test_voxel_two_points_one_cell_centroid():
    out = voxel_downsample([(0, 0, 0), (0.01, 0.01, 0.01)], 0.05)
    assert out.shape == (1, 3)
    np.testing.assert_allclose(out[0], [0.005, 0.005, 0.005], atol=1e-12)


def test_voxel_pigeonhole_bound():
    rng = np.random.default_rng(3)
    cloud = rng.random((1000, 3))  # unit cube
    out = voxel_downsample(cloud, 0.05)
    assert len(out) <= min(1000, 21 ** 3)
    # output stays inside the input bounding box
    assert out.min() >= cloud.min() - 1e-12
    assert out.max() <= cloud.max() + 1e-12


def test_voxel_centroids_match_bruteforce_grouping():
    rng = np.random.default_rng(4)
    cloud = rng.uniform(-1, 1, size=(300, 3))
    r_v = 0.1
    out = voxel_downsample(cloud, r_v)
    # oracle: dict-based grouping
    groups = {}
    for p in cloud:
        key = tuple(int(math.floor(c / r_v)) for c in p)
        groups.setdefault(key, []).append(p)
    expected = sorted(tuple(np.mean(v, axis=0)) for v in groups.values())
    got = sorted(tuple(p) for p in out)
    np.testing.assert_allclose(got, expected, atol=1e-12)


# ---------------------------------------------------------------- knn filter

def brute_force_knn_means(cloud, k):
    cloud = np.asarray(cloud, float)
    d = np.linalg.norm(cloud[:, None, :] - cloud[None, :, :], axis=2)
    means = []
    for i in range(len(cloud)):
        row = np.sort(d[i])
        means.append(row[1:k + 1].mean())
    return np.array(means)


def test_knn_small_cloud_passthrough():
    cloud = np.random.default_rng(5).random((8, 3))
    out = knn_outlier_filter(cloud, k=10, std_ratio=1.0)
    np.testing.assert_array_equal(out, cloud)


def test_knn_removes_far_outlier_keeps_cluster():
    rng = np.random.default_rng(6)
    cluster = rng.normal(0, 0.03, size=(100, 3))
    lone = np.array([[10.0, 0.0, 0.0]])
    cloud = np.vstack([cluster, lone])
    out = knn_outlier_filter(cloud, k=10, std_ratio=1.0)
    # oracle: brute-force neighbor statistic says exactly the lone point goes
    means = brute_force_knn_means(cloud, 10)
    thresh = means.mean() + means.std()
    assert (means > thresh).sum() == 1 and means[-1] > thresh
    assert len(out) == 100
    assert not any(np.allclose(p, lone[0]) for p in out)


def test_knn_uniform_lattice_unchanged():
    # every point's nearest k=2 neighbors sit at exactly one lattice step
    xs, ys = np.meshgrid(np.arange(6), np.arange(6))
    cloud = np.column_stack([xs.ravel() * 0.1, ys.ravel() * 0.1,
                             np.zeros(36)])
    means = brute_force_knn_means(cloud, 2)
    assert np.allclose(means, means[0])  # oracle confirms equal statistics
    out = knn_outlier_filter(cloud, k=2, std_ratio=0.0)
    assert len(out) == 36


# ---------------------------------------------------------------- crop / fov

def test_height_crop_ground_point_removed():
    assert len(height_crop([(0, 0, 0.05)], 0.15, 2.0)) == 0


def test_height_crop_keeps_mid():
    out = height_crop([(0, 0, 1.0)], 0.15, 2.0)
    assert len(out) == 1


def test_height_crop_sky_removed():
    assert len(height_crop([(0, 0, 2.5)], 0.15, 2.0)) == 0


def test_fov_empty_threshold():
    assert fov_empty_check(15, 100, 0.2) is True
    assert fov_empty_check(20, 100, 0.2) is False   # boundary is not below
    assert fov_empty_check(0, 0, 0.2) is True


# ---------------------------------------------------------------- grid

def test_project_empty_cloud_all_free():
    grid = project_to_grid([], PipelineConfig())
    assert not grid.occupied.any()


def test_project_single_point_single_cell():
    cfg = PipelineConfig()
    grid = project_to_grid([(1.0, 0.5, 1.0)], cfg)
    assert grid.occupied.sum() == 1
    i, j = map(int, np.argwhere(grid.occupied)[0])
    # the occupied cell contains the point
    assert grid.x_min + i * grid.cell <= 1.0 < grid.x_min + (i + 1) * grid.cell
    assert grid.y_min + j * grid.cell <= 0.5 < grid.y_min + (j + 1) * grid.cell


def test_project_two_points_same_cell_idempotent():
    cfg = PipelineConfig()
    grid = project_to_grid([(1.0, 0.5, 1.0), (1.01, 0.51, 0.2)], cfg)
    assert grid.occupied.sum() == 1


def test_project_discards_out_of_extent():
    cfg = PipelineConfig()
    grid = project_to_grid([(100.0, 0.0, 1.0), (-1.0, 0.0, 1.0)], cfg)
    assert not grid.occupied.any()


# ---------------------------------------------------------------- shadow

def make_grid(nx=40, ny=40, cell=0.05):
    return OccupancyGrid(cell, 0.0, -ny * cell / 2.0,
                         np.zeros((nx, ny), dtype=bool))


def test_shadow_empty_unchanged():
    grid = make_grid()
    out = shadow_fill(grid)
    assert not out.occupied.any()


def test_shadow_single_cell_fills_ray_behind():
    grid = make_grid()
    j_axis = grid.ny // 2  # centers at +cell/2: same-row cells share the angle
    occ = grid.occupied.copy()
    occ[10, j_axis] = True
    grid = OccupancyGrid(grid.cell, grid.x_min, grid.y_min, occ,
                         sensor_origin=(0.0, float(grid.y_centers()[j_axis])))
    out = shadow_fill(grid)
    # every cell behind on the same ray occupied, lateral rows untouched
    assert out.occupied[10:, j_axis].all()
    assert not out.occupied[:10, j_axis].any()
    lateral = out.occupied.copy()
    lateral[:, j_axis] = False
    assert not lateral.any()


def test_shadow_subsumption_of_farther_cell():
    grid = make_grid()
    j_axis = grid.ny // 2
    origin = (0.0, float(make_grid().y_centers()[j_axis]))
    occ1 = grid.occupied.copy()
    occ1[10, j_axis] = True
    near_only = shadow_fill(OccupancyGrid(grid.cell, 0.0, grid.y_min, occ1,
                                          sensor_origin=origin))
    occ2 = occ1.copy()
    occ2[25, j_axis] = True  # on the same ray, farther out
    both = shadow_fill(OccupancyGrid(grid.cell, 0.0, grid.y_min, occ2,
                                     sensor_origin=origin))
    np.testing.assert_array_equal(near_only.occupied, both.occupied)


def test_shadow_idempotent_on_random_grids():
    rng = np.random.default_rng(7)
    for _ in range(10):
        grid = make_grid()
        occ = rng.random(grid.occupied.shape) < 0.03
        grid = OccupancyGrid(grid.cell, grid.x_min, grid.y_min, occ)
        once = shadow_fill(grid)
        twice = shadow_fill(once)
        np.testing.assert_array_equal(once.occupied, twice.occupied)


def test_shadow_preserves_original_occupancy():
    rng = np.random.default_rng(8)
    grid = make_grid()
    occ = rng.random(grid.occupied.shape) < 0.05
    out = shadow_fill(OccupancyGrid(grid.cell, grid.x_min, grid.y_min, occ))
    assert (out.occupied | ~occ).all()  # occ implies out


# ---------------------------------------------------------------- borders

def test_border_samples_synthetic_corridor():
    cfg = PipelineConfig()
    grid = project_to_grid(corridor_cloud(), cfg)
    filled = shadow_fill(grid)
    left, right = extract_border_samples(filled)
    assert len(left) > 20 and len(right) > 20
    assert np.all(np.abs(left[:, 1] - 0.75) < 0.06)
    assert np.all(np.abs(right[:, 1] + 0.75) < 0.06)


def test_border_samples_one_side_empty():
    cfg = PipelineConfig()
    cloud = corridor_cloud()
    cloud = cloud[cloud[:, 1] > 0]  # keep only the left wall
    grid = shadow_fill(project_to_grid(cloud, cfg))
    left, right = extract_border_samples(grid)
    assert len(left) > 0
    assert len(right) == 0


def test_border_samples_inner_cell_wins():
    grid = make_grid()
    ys = grid.y_centers()
    occ = grid.occupied.copy()
    j_inner = int(np.argmin(np.abs(ys - 0.75)))
    j_outer = int(np.argmin(np.abs(ys - 0.95)))
    occ[12, j_inner] = True
    occ[12, j_outer] = True
    left, _ = extract_border_samples(
        OccupancyGrid(grid.cell, grid.x_min, grid.y_min, occ))
    assert len(left) == 1
    assert left[0, 1] == pytest.approx(ys[j_inner])


def test_fit_exact_line():
    xs = np.linspace(0, 3, 25)
    samples = np.column_stack([xs, 0.1 * xs + 0.75])
    line = fit_border_line(samples, "left")
    assert line.a == pytest.approx(0.1, abs=1e-12)
    assert line.b == pytest.approx(0.75, abs=1e-12)


def test_fit_two_points():
    line = fit_border_line([(0.0, 0.5), (1.0, 1.0)], "left")
    assert line.a == pytest.approx(0.5, abs=1e-12)
    assert line.b == pytest.approx(0.5, abs=1e-12)


def test_fit_matches_lstsq_oracle_under_noise():
    rng = np.random.default_rng(9)
    xs = np.linspace(0.5, 4.0, 60)
    ys = -0.75 + rng.normal(0, 0.02, size=xs.shape)
    samples = np.column_stack([xs, ys])
    line = fit_border_line(samples, "right")
    # independent oracle: normal equations via lstsq on the design matrix
    A = np.column_stack([xs, np.ones_like(xs)])
    a_ref, b_ref = np.linalg.lstsq(A, ys, rcond=None)[0]
    assert line.a == pytest.approx(a_ref, abs=1e-10)
    assert line.b == pytest.approx(b_ref, abs=1e-10)
    assert abs(line.a) <= 0.02
    assert abs(line.b + 0.75) <= 0.02


def test_fit_insufficient_samples():
    with pytest.raises(InsufficientSamples):
        fit_border_line([(1.0, 0.5)], "left")
    with pytest.raises(InsufficientSamples):
        fit_border_line([(1.0, 0.5), (1.0, 0.7)], "left")  # one distinct x


# ---------------------------------------------------------------- lane ops

def lane(a_l=0.0, b_l=0.75, a_r=0.0, b_r=-0.75, margin=0.0):
    return LaneModel(BorderLine(a_l, b_l, "left"),
                     BorderLine(a_r, b_r, "right"), margin)


def test_margin_flat_borders():
    out = apply_safety_margin(lane(), 0.3)
    assert out.inflated_left.b == pytest.approx(0.45)
    assert out.inflated_right.b == pytest.approx(-0.45)


def test_margin_zero_identity():
    out = apply_safety_margin(lane(), 0.0)
    assert out.inflated_left.b == out.left.b
    assert out.inflated_right.b == out.right.b


def test_margin_perpendicular_shift_on_slope():
    out = apply_safety_margin(lane(a_l=1.0, b_l=1.0, a_r=1.0, b_r=-1.0), 0.1)
    assert out.inflated_left.b == pytest.approx(1.0 - 0.1 * math.sqrt(2.0))


def test_margin_collapse_raises():
    with pytest.raises(CorridorCollapsed):
        apply_safety_margin(lane(b_l=0.2, b_r=-0.2), 0.3)


def test_split_full_identity():
    base = apply_safety_margin(lane(), 0.1)
    assert split_lane(base, "full") is base


def test_split_right_half_geometry():
    base = lane(b_l=2.0, b_r=-2.0)
    out = split_lane(base, "right_half")
    assert out.left.b == pytest.approx(0.0)
    assert out.right.b == pytest.approx(-2.0)
    assert out.middle.b == pytest.approx(-1.0)


def test_split_left_half_mirrors_right_half():
    base = lane(a_l=0.1, b_l=1.8, a_r=-0.05, b_r=-2.1, margin=0.2)
    right = split_lane(base, "right_half")
    mirrored = lane(a_l=0.05, b_l=2.1, a_r=-0.1, b_r=-1.8, margin=0.2)
    left = split_lane(mirrored, "left_half")
    assert left.left.a == pytest.approx(-right.right.a)
    assert left.left.b == pytest.approx(-right.right.b)
    assert left.right.a == pytest.approx(-right.left.a)
    assert left.right.b == pytest.approx(-right.left.b)


def test_validate_flat_ok():
    assert validate_lane(apply_safety_margin(lane(), 0.1),
                         math.radians(70)) is None


def test_validate_steep_border_rejected():
    steep = lane(a_l=math.tan(math.radians(80)))
    assert validate_lane(steep, math.radians(70)) is not None


def test_validate_collapsed_rejected():
    bad = lane(b_l=-0.1, b_r=0.1)
    assert validate_lane(bad, math.radians(70)) is not None


# ---------------------------------------------------------------- process

def test_process_noiseless_corridor_recovers_lines():
    cfg = PipelineConfig()
    res = process(corridor_cloud(), cfg)
    assert res.status is PerceptionStatus.OK
    assert abs(res.lane.left.a) <= 0.02
    assert abs(res.lane.right.a) <= 0.02
    assert res.lane.left.b == pytest.approx(0.75, abs=0.05)
    assert res.lane.right.b == pytest.approx(-0.75, abs=0.05)
    # at least one obstacle point per detected border
    assert (res.obstacles[:, 1] > 0).any()
    assert (res.obstacles[:, 1] < 0).any()


def test_process_ground_points_empty_fov():
    cloud = [(0.5 + 0.1 * i, 0.0, 0.05) for i in range(10)]
    res = process(cloud, PipelineConfig())
    assert res.status is PerceptionStatus.EMPTY_FOV


def test_process_rotated_corridor_invalid():
    cloud = corridor_cloud()
    ang = math.radians(85)
    c, s = math.cos(ang), math.sin(ang)
    rot = cloud.copy()
    rot[:, 0] = c * cloud[:, 0] - s * cloud[:, 1]
    rot[:, 1] = s * cloud[:, 0] + c * cloud[:, 1]
    res = process(rot, PipelineConfig())
    assert res.status is PerceptionStatus.INVALID_LANE


def test_process_empty_cloud_empty_fov():
    res = process([], PipelineConfig())
    assert res.status is PerceptionStatus.EMPTY_FOV


def test_process_obstacle_cap():
    cfg = PipelineConfig(max_obstacle_points=10)
    res = process(corridor_cloud(), cfg)
    assert res.ok
    assert len(res.obstacles) == 10


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_process_drops_non_finite_points(bad):
    world = generate_world(WorldSpec(seed=6))
    cloud = render_cloud(world, pose_from(2.0, 0, 0), CameraSpec())
    corrupted = cloud.copy()
    corrupted[::50, 1] = bad
    cfg = PipelineConfig()
    res = process(corrupted, cfg)
    ref = process(np.delete(cloud, np.s_[::50], axis=0), cfg)
    assert res.status is ref.status is PerceptionStatus.OK
    assert res.lane == ref.lane
    np.testing.assert_array_equal(res.obstacles, ref.obstacles)


# ---------------------------------------------------------------- properties

def test_y_negation_symmetry():
    rng = np.random.default_rng(10)
    for _ in range(5):
        # walls must stay clear of the axis over the full grid depth
        b_l = rng.uniform(0.6, 1.0)
        b_r = -rng.uniform(0.6, 1.0)
        a = rng.uniform(-0.08, 0.08)
        cloud = corridor_cloud(a_l=a, b_l=b_l, a_r=a, b_r=b_r,
                               rng=rng, noise=0.01)
        mirrored = cloud.copy()
        mirrored[:, 1] *= -1.0
        res = process(cloud, PipelineConfig())
        mes = process(mirrored, PipelineConfig())
        assert res.status is mes.status is PerceptionStatus.OK
        assert mes.lane.left.a == pytest.approx(-res.lane.right.a, abs=1e-9)
        assert mes.lane.left.b == pytest.approx(-res.lane.right.b, abs=1e-9)
        assert mes.lane.right.a == pytest.approx(-res.lane.left.a, abs=1e-9)
        assert mes.lane.right.b == pytest.approx(-res.lane.left.b, abs=1e-9)


def test_translation_equivariance():
    cfg = PipelineConfig()
    a = 0.06
    base = corridor_cloud(a_l=a, b_l=0.8, a_r=a, b_r=-0.7, x_lo=0.5, x_hi=4.0)
    res = process(base, cfg)
    dx = 0.25  # whole number of cells keeps the binning aligned
    shifted = base.copy()
    shifted[:, 0] += dx
    res2 = process(shifted, cfg)
    assert res.ok and res2.ok
    for before, after in ((res.lane.left, res2.lane.left),
                          (res.lane.right, res2.lane.right)):
        assert after.a == pytest.approx(before.a, abs=1e-6)
        assert after.b == pytest.approx(before.b - before.a * dx, abs=1e-6)


def test_obstacles_outside_inflated_corridor():
    cfg = PipelineConfig()
    res = process(corridor_cloud(), cfg)
    assert res.ok
    margin_slack = cfg.grid_cell  # cell centers are quantized
    for ox, oy in res.obstacles:
        y_l = res.lane.inflated_left.y_at(ox)
        y_r = res.lane.inflated_right.y_at(ox)
        inside = y_r + margin_slack < oy < y_l - margin_slack
        assert not inside, (ox, oy, y_l, y_r)


def test_pipeline_stages_never_invent_points():
    rng = np.random.default_rng(11)
    cloud = rng.uniform(-1, 1, size=(200, 3))
    down = voxel_downsample(cloud, 0.05)
    filt = knn_outlier_filter(down, 5, 1.0)
    crop = height_crop(filt, -0.5, 0.5)
    assert len(down) <= len(cloud)
    assert len(filt) <= len(down)
    assert len(crop) <= len(filt)
    # filter and crop return subsets; the voxel stage returns per-cell means
    as_set = {tuple(p) for p in filt}
    assert all(tuple(p) in as_set for p in crop)
