import functools
import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial import cKDTree

from rownav import pipeline
from rownav.cli import resolve_config_path
from rownav.config import load_scenario
from rownav.core import BorderLine, pose_from
from rownav.pipeline import (GRID_CELL, GRID_EXTENT_Y, GRID_NX, GRID_NY,
                             LANE_MODES, X_CENTERS, Y_CENTERS,
                             InsufficientSamples, LaneModel,
                             PerceptionStatus, PipelineConfig,
                             extract_border_samples, fit_border_line,
                             fov_empty_check, height_crop, knn_outlier_filter,
                             lane_from_borders, process, project_to_grid,
                             shadow_fill, voxel_downsample)
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


def reference_voxel_downsample(cloud, r_v):
    """Row-sort formulation: voxels grouped by np.unique over index rows,
    centroids accumulated with np.add.at in input order."""
    pts = np.asarray(cloud, dtype=float).reshape(-1, 3)
    if len(pts) == 0:
        return pts
    idx = np.floor(pts / r_v).astype(np.int64)
    _, inverse = np.unique(idx, axis=0, return_inverse=True)
    n_cells = int(inverse.max()) + 1
    sums = np.zeros((n_cells, 3))
    np.add.at(sums, inverse, pts)
    counts = np.bincount(inverse, minlength=n_cells).astype(float)
    return sums / counts[:, None]


@st.composite
def voxel_clouds(draw):
    """(cloud, r_v): finite clouds from two voxels to 1e7 m across, with
    coordinates on voxel boundaries and repeated points mixed in. The
    narrowest put several distinct points in one voxel, where the order
    of the centroid sum shows in its last bits."""
    r_v = draw(st.sampled_from([0.01, 0.05, 0.3, 1.0]))
    scale = draw(st.sampled_from([r_v, 1.0, 100.0, 1e7]))
    coord = st.one_of(
        st.floats(-scale, scale, allow_nan=False, allow_infinity=False),
        st.integers(-50, 50).map(lambda m: m * r_v))
    base = draw(hnp.arrays(np.float64, (draw(st.integers(1, 40)), 3),
                           elements=coord))
    repeats = draw(st.lists(st.integers(0, len(base) - 1), max_size=20))
    return np.vstack([base, base[repeats]]), r_v


def voxel_key_space(cloud, r_v):
    """n_x * n_y * n_z over the voxel index ranges of a non-empty cloud."""
    idx = np.floor(np.asarray(cloud, dtype=float).reshape(-1, 3) / r_v)
    return math.prod(int(hi) - int(lo) + 1
                     for lo, hi in zip(idx.min(axis=0), idx.max(axis=0)))


@given(voxel_clouds())
@example((np.array([[0.3, -0.2, 1.0]]), 0.05))
@example((np.array([[-0.05, 0.05, 0.0], [-0.05, 0.05, 0.0],
                    [-0.1, 0.0, 0.05]]), 0.05))
@example((np.array([[-1e7, 0.0, 1e7], [1e7, -1e7, 0.0],
                    [0.0, 1e7, -1e7]]), 0.01))                      # overflows
@example((np.array([[0.0, 0.0, 1e7], [0.0, 0.0, -1e7]]), 0.01))      # fits
@example((np.random.default_rng(1).uniform(-0.05, 0.05, (40, 3)), 0.05))
@example((np.array([[0.0, 0.0, 0.0], [2.0 ** 21 - 2] * 3]), 1.0))   # largest cube
def test_voxel_matches_row_sort_reference(case):
    """Where the index ranges give fewer than 2**63 keys, the voxels equal
    the row-sort reference bit for bit; elsewhere the cloud is a ValueError."""
    cloud, r_v = case
    if voxel_key_space(cloud, r_v) < 2 ** 63:
        assert np.array_equal(voxel_downsample(cloud, r_v),
                              reference_voxel_downsample(cloud, r_v))
    else:
        with pytest.raises(ValueError, match="voxel key space"):
            voxel_downsample(cloud, r_v)


def _line_to(bad):
    return np.array([[0.0, 0.0, 0.0], [bad, 0.0, 0.0], [1.5 * bad, 0.0, 0.0]])


@pytest.mark.parametrize("cloud, r_v", [
    *(pytest.param(_line_to(bad), 0.05, id=str(bad))
      for bad in (np.inf, -np.inf, np.nan, 1e19, -1e19)),
    pytest.param(np.array([[0.0, 0.0, 0.0], [2.0 ** 21 - 1] * 3]), 1.0,
                 id="key-space-2**63")])
def test_voxel_rejects_an_index_outside_int64(cloud, r_v):
    """A NaN or infinite coordinate has no voxel index, and 1e19 m at
    r_v = 0.05 has none in int64: ValueError, not a key from an invalid
    cast, which put 1e19 and 1.5e19 in one voxel. Index ranges of 2**21
    per axis multiply to 2**63 keys, one past the largest int64."""
    with pytest.raises(ValueError, match="outside int64"):
        voxel_downsample(cloud, r_v)


@pytest.mark.parametrize("r_v", [0.0, -0.05, np.inf, np.nan])
def test_voxel_rejects_a_resolution_that_is_not_positive_and_finite(r_v):
    """A zero, negative, infinite or NaN r_v has no voxel lattice: the
    error names r_v, not the cloud."""
    with pytest.raises(ValueError, match="^r_v must be positive and finite"):
        voxel_downsample(_line_to(1.0), r_v)


# ---------------------------------------------------------------- knn filter

def brute_force_knn_means(cloud, k):
    cloud = np.asarray(cloud, float)
    d = np.linalg.norm(cloud[:, None, :] - cloud[None, :, :], axis=2)
    means = []
    for i in range(len(cloud)):
        row = np.sort(d[i])
        means.append(row[1:k + 1].mean())
    return np.array(means)


@pytest.mark.parametrize("k, std_ratio, name", [
    (0, 1.0, "k"), (-3, 1.0, "k"),
    (10, np.nan, "std_ratio"), (10, np.inf, "std_ratio"), (10, -np.inf, "std_ratio")])
def test_knn_rejects_a_bad_k_or_std_ratio(k, std_ratio, name):
    """A k below 1 has no neighbour statistic, and a non-finite std_ratio
    keeps every point or none: the error names the parameter."""
    cloud = np.random.default_rng(7).random((12, 3))
    with pytest.raises(ValueError, match=f"^{name} must be"):
        knn_outlier_filter(cloud, k, std_ratio)


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


@settings(max_examples=40)
@given(hnp.arrays(float, st.tuples(st.integers(2, 40), st.just(3)),
                  elements=st.floats(-3.0, 3.0, width=32)),
       st.integers(1, 12), st.floats(0.0, 3.0))
def test_knn_keeps_what_the_brute_force_statistic_keeps(cloud, k, std_ratio):
    """On small clouds, duplicates included, the filter keeps exactly the
    points that a full distance matrix keeps under the same threshold."""
    assume(len(cloud) > k)
    out = knn_outlier_filter(cloud, k, std_ratio)
    means = brute_force_knn_means(cloud, k)
    mu = means.mean()
    keep = means <= mu + std_ratio * means.std() + 1e-12 * max(1.0, abs(mu))
    np.testing.assert_array_equal(out, cloud[keep])


def _recording_tree(queries, parties):
    """A cKDTree whose queries append (thread id, first row address, rows)
    to `queries`. A thread's first query waits until `parties` threads are
    querying, so every worker the filter starts is seen to take a chunk;
    one thread more or fewer breaks the barrier."""
    barrier = threading.Barrier(parties, timeout=10)
    seen = threading.local()

    class Tree(cKDTree):
        def query(self, x, *args, **kwargs):
            assert "workers" not in kwargs
            queries.append((threading.get_ident(), x.ctypes.data, len(x)))
            if not getattr(seen, "querying", False):
                seen.querying = True
                barrier.wait()
            return super().query(x, *args, **kwargs)
    return Tree


def _filter_on_cpus(cloud, k, std_ratio, cpus, workers):
    """knn_outlier_filter with the affinity mask showing `cpus` CPUs and a
    tree that expects `workers` querying threads; returns the output and
    the recorded (thread id, first row address, rows) of each chunk."""
    queries = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline.os, "sched_getaffinity",
                   lambda pid: set(range(cpus)), raising=False)
        mp.setattr(pipeline, "cKDTree", _recording_tree(queries, workers))
        out = knn_outlier_filter(cloud, k, std_ratio)
    return out, queries


def _assert_chunks_tile(queries, cloud, workers):
    """The chunks cover every row of `cloud` once, in order, and were
    queried by exactly `workers` distinct threads."""
    chunks = sorted(queries, key=lambda q: q[1])
    assert len(chunks) == workers * pipeline.KNN_CHUNKS_PER_WORKER
    assert sum(rows for _, _, rows in chunks) == len(cloud)
    row_bytes = cloud.strides[0]
    for (_, addr, rows), (_, next_addr, _) in zip(chunks, chunks[1:]):
        assert next_addr == addr + rows * row_bytes
    assert len({thread for thread, _, _ in chunks}) == workers


PER_WORKER = pipeline.KNN_QUERIES_PER_WORKER


@settings(max_examples=12)
@given(st.integers(2 * PER_WORKER, 5 * PER_WORKER), st.integers(0, 2 ** 32 - 1),
       st.integers(1, 12), st.floats(0.0, 3.0), st.booleans())
def test_knn_same_bits_on_one_cpu_and_on_four(n, seed, k, std_ratio, lattice):
    """Split across workers and chunks, the queries keep every bit of the
    keep mask. Lattice clouds, like voxel centroids, hold many tied
    distances."""
    cloud = np.random.default_rng(seed).normal(0.0, 1.0, size=(n, 3))
    if lattice:
        cloud = np.round(cloud / 0.05) * 0.05
    four_workers = min(4, n // PER_WORKER)
    one, one_queries = _filter_on_cpus(cloud, k, std_ratio, cpus=1, workers=1)
    four, four_queries = _filter_on_cpus(cloud, k, std_ratio, cpus=4,
                                         workers=four_workers)
    _assert_chunks_tile(one_queries, cloud, 1)
    _assert_chunks_tile(four_queries, cloud, four_workers)
    assert one.tobytes() == four.tobytes()


@pytest.mark.parametrize("n, workers", [
    (11, 1), (2 * PER_WORKER - 1, 1), (2 * PER_WORKER, 2), (9 * PER_WORKER, 4)])
def test_knn_workers_get_at_least_the_per_worker_cap(n, workers):
    """A cloud under twice the cap queries on one thread, whatever the mask;
    above it, one worker per cap's worth of points, up to the mask's CPUs."""
    cloud = np.random.default_rng(n).random((n, 3))
    _, queries = _filter_on_cpus(cloud, 10, 1.0, cpus=4, workers=workers)
    _assert_chunks_tile(queries, cloud, workers)


def test_knn_caller_takes_a_chunk_and_helpers_persist(monkeypatch):
    """The calling thread queries a chunk itself, and a second call reuses
    the first call's helper threads instead of starting new ones."""
    cloud = np.random.default_rng(5).random((4 * PER_WORKER, 3))
    monkeypatch.setattr(pipeline, "_knn_helpers", None)
    _, first = _filter_on_cpus(cloud, 10, 1.0, cpus=2, workers=2)
    assert threading.get_ident() in {thread for thread, _, _ in first}
    starts = []
    thread_start = threading.Thread.start

    def counting_start(self):
        starts.append(self.name)
        thread_start(self)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    _, second = _filter_on_cpus(cloud, 10, 1.0, cpus=2, workers=2)
    assert starts == []
    assert ({thread for thread, _, _ in second}
            == {thread for thread, _, _ in first})


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_knn_filters_in_a_forked_child(monkeypatch):
    """A child forked after the parent's helpers ran filters a cloud too:
    an inherited pool has no threads, so the child must not wait on it."""
    monkeypatch.setattr(pipeline.os, "sched_getaffinity",
                        lambda pid: {0, 1}, raising=False)
    cloud = np.random.default_rng(6).random((5 * PER_WORKER, 3))
    expected = knn_outlier_filter(cloud, 10, 1.0)
    pid = os.fork()
    if pid == 0:                                          # the child
        code = 1
        try:
            code = 0 if knn_outlier_filter(cloud, 10, 1.0).tobytes() == \
                expected.tobytes() else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            assert os.waitstatus_to_exitcode(status) == 0
            return
        time.sleep(0.05)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    pytest.fail("the forked child did not finish its kNN filter in 30 s")


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

def mask_of(cells):
    """Occupancy mask over the grid lattice holding the given (i, j) cells."""
    occupied = np.zeros((GRID_NX, GRID_NY), dtype=bool)
    for i, j in cells:
        occupied[i, j] = True
    return occupied


# Cells (i, GRID_NY // 2 + i) have x == y bit for bit: they lie on the 45 deg
# sight line from the sensor and share one angle bin.
DIAGONAL = [(i, GRID_NY // 2 + i) for i in range(min(GRID_NX, GRID_NY // 2))]


def test_grid_lattice_centres():
    assert X_CENTERS.shape == (GRID_NX,) and Y_CENTERS.shape == (GRID_NY,)
    assert X_CENTERS[0] == 0.5 * GRID_CELL
    # exact mirror symmetry about y = 0, and no cell centre on it
    np.testing.assert_array_equal(Y_CENTERS, -Y_CENTERS[::-1])
    assert not (Y_CENTERS == 0.0).any()
    for i, j in DIAGONAL:
        assert X_CENTERS[i] == Y_CENTERS[j]


def test_project_empty_cloud_all_free():
    occupied = project_to_grid([])
    assert occupied.shape == (GRID_NX, GRID_NY)
    assert not occupied.any()


def test_project_single_point_single_cell():
    occupied = project_to_grid([(1.0, 0.5, 1.0)])
    assert occupied.sum() == 1
    i, j = map(int, np.argwhere(occupied)[0])
    # the occupied cell contains the point
    y_min = -0.5 * GRID_EXTENT_Y
    assert i * GRID_CELL <= 1.0 < (i + 1) * GRID_CELL
    assert y_min + j * GRID_CELL <= 0.5 < y_min + (j + 1) * GRID_CELL


def test_project_two_points_same_cell_idempotent():
    occupied = project_to_grid([(1.0, 0.5, 1.0), (1.01, 0.51, 0.2)])
    assert occupied.sum() == 1


def test_project_discards_out_of_extent():
    occupied = project_to_grid([(100.0, 0.0, 1.0), (-1.0, 0.0, 1.0)])
    assert not occupied.any()


# ---------------------------------------------------------------- shadow

def test_shadow_empty_unchanged():
    assert not shadow_fill(mask_of([])).any()


def test_shadow_single_cell_fills_ray_behind():
    out = shadow_fill(mask_of([DIAGONAL[10]]))
    # every diagonal cell from the occupied one outward, and nothing else
    np.testing.assert_array_equal(out, mask_of(DIAGONAL[10:]))


def test_shadow_subsumption_of_farther_cell():
    near_only = shadow_fill(mask_of([DIAGONAL[10]]))
    both = shadow_fill(mask_of([DIAGONAL[10], DIAGONAL[25]]))  # same ray, farther
    np.testing.assert_array_equal(near_only, both)


def test_shadow_idempotent_on_random_grids():
    rng = np.random.default_rng(7)
    for _ in range(10):
        once = shadow_fill(rng.random((GRID_NX, GRID_NY)) < 0.03)
        np.testing.assert_array_equal(shadow_fill(once), once)


@st.composite
def occupancy_masks(draw):
    """Masks of up to 40 occupied cells, drawn from the whole lattice or from
    the 20 x 20 cells just in front of the sensor, where they shadow each
    other more often."""
    near = draw(st.booleans())
    i = st.integers(0, 19 if near else GRID_NX - 1)
    j = (st.integers(GRID_NY // 2 - 10, GRID_NY // 2 + 9) if near
         else st.integers(0, GRID_NY - 1))
    return mask_of(draw(st.lists(st.tuples(i, j), max_size=40)))


@given(occupancy_masks())
def test_shadow_fill_idempotent_property(occupied):
    once = shadow_fill(occupied)
    np.testing.assert_array_equal(shadow_fill(once), once)
    assert (once | ~occupied).all()


def test_shadow_preserves_original_occupancy():
    rng = np.random.default_rng(8)
    occupied = rng.random((GRID_NX, GRID_NY)) < 0.05
    out = shadow_fill(occupied)
    assert (out | ~occupied).all()  # occupied implies out


def test_shadow_sight_lines_are_computed_once_and_read_only():
    """Every frame uses the one lattice, so shadow_fill computes its
    sight-line table once per process, on first use rather than at import,
    and the shared arrays cannot be written."""
    bins, rng = pipeline._sight_lines()
    shadow_fill(shadow_fill(project_to_grid(corridor_cloud())))
    assert pipeline._sight_lines()[0] is bins
    assert pipeline._sight_lines.cache_info().misses == 1
    for table in (bins, rng):
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0
    env = dict(os.environ, PYTHONPATH=str(Path(pipeline.__file__).parents[1]))
    fresh = subprocess.run(
        [sys.executable, "-c", "import rownav.pipeline as p; "
         "print(p._sight_lines.cache_info().currsize)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert fresh.stdout.strip() == "0", fresh.stderr


# ---------------------------------------------------------------- borders

def test_border_samples_synthetic_corridor():
    occupied = project_to_grid(corridor_cloud())
    left, right = extract_border_samples(occupied, shadow_fill(occupied))
    assert len(left) > 20 and len(right) > 20
    assert np.all(np.abs(left[:, 1] - 0.75) < 0.06)
    assert np.all(np.abs(right[:, 1] + 0.75) < 0.06)


def test_border_samples_one_side_empty():
    cloud = corridor_cloud()
    cloud = cloud[cloud[:, 1] > 0]  # keep only the left wall
    occupied = project_to_grid(cloud)
    left, right = extract_border_samples(occupied, shadow_fill(occupied))
    assert len(left) > 0
    assert len(right) == 0


def test_border_samples_inner_cell_wins():
    j_inner = int(np.argmin(np.abs(Y_CENTERS - 0.75)))
    j_outer = int(np.argmin(np.abs(Y_CENTERS - 0.95)))
    occupied = mask_of([(12, j_inner), (12, j_outer)])
    left, _ = extract_border_samples(occupied, shadow_fill(occupied))
    assert len(left) == 1
    assert left[0, 1] == pytest.approx(Y_CENTERS[j_inner])


def reference_extract_border_samples(seen, filled):
    """Per-column loop: in each column up to a side's last seen one, the
    innermost seen cell of the side, else its innermost filled cell."""
    xs, ys = X_CENTERS, Y_CENTERS
    left_cols = np.nonzero(seen[:, ys > 0.0].any(axis=1))[0]
    right_cols = np.nonzero(seen[:, ys < 0.0].any(axis=1))[0]
    last_left = int(left_cols.max()) if left_cols.size else -1
    last_right = int(right_cols.max()) if right_cols.size else -1
    left, right = [], []
    for i in range(GRID_NX):
        js_fill = np.nonzero(filled[i])[0]
        if js_fill.size == 0:
            continue
        seen_y = ys[np.nonzero(seen[i])[0]]
        fill_y = ys[js_fill]
        if i <= last_left:
            pos = seen_y[seen_y > 0.0]
            if pos.size == 0:
                pos = fill_y[fill_y > 0.0]
            if pos.size:
                left.append((xs[i], pos.min()))
        if i <= last_right:
            neg = seen_y[seen_y < 0.0]
            if neg.size == 0:
                neg = fill_y[fill_y < 0.0]
            if neg.size:
                right.append((xs[i], neg.max()))
    return (np.array(left, dtype=float).reshape(-1, 2),
            np.array(right, dtype=float).reshape(-1, 2))


@given(occupancy_masks(), st.booleans())
@example(mask_of([]), False)
@example(mask_of([]), True)
@example(mask_of([(0, GRID_NY // 2 - 3), (0, GRID_NY // 2 + 2)]), False)  # one column
# left side seen at columns 2 and 10 only: column 6, on the 45 deg sight
# line through the cell of column 2, is read through fill
@example(mask_of([DIAGONAL[2], (10, GRID_NY // 2 + 15)]), True)
def test_border_samples_match_per_column_reference(occupied, fill):
    filled = shadow_fill(occupied) if fill else occupied
    got = extract_border_samples(occupied, filled)
    want = reference_extract_border_samples(occupied, filled)
    for side_got, side_want in zip(got, want):
        assert side_got.shape == side_want.shape
        assert side_got.tobytes() == side_want.tobytes()


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


# ---------------------------------------------------------------- lane gate

def gate(a_l=0.0, b_l=0.75, a_r=0.0, b_r=-0.75, **cfg):
    return lane_from_borders(BorderLine(a_l, b_l, "left"),
                             BorderLine(a_r, b_r, "right"), PipelineConfig(**cfg))


def test_margin_flat_borders():
    out = gate(safety_margin_R=0.3)
    assert out.inflated_left.b == pytest.approx(0.45)
    assert out.inflated_right.b == pytest.approx(-0.45)


def test_margin_zero_identity():
    out = gate(safety_margin_R=0.0)
    assert out.inflated_left.b == out.left.b
    assert out.inflated_right.b == out.right.b


def test_margin_perpendicular_shift_on_slope():
    out = gate(a_l=1.0, b_l=1.0, a_r=1.0, b_r=-1.0, safety_margin_R=0.1)
    assert out.inflated_left.b == pytest.approx(1.0 - 0.1 * math.sqrt(2.0))
    assert out.inflated_right.b == pytest.approx(-1.0 + 0.1 * math.sqrt(2.0))
    assert (out.inflated_left.a, out.inflated_right.a) == (1.0, 1.0)


def test_margin_collapse_rejected():
    assert gate(b_l=0.2, b_r=-0.2, safety_margin_R=0.3) == (
        "margin 0.3 m leaves no corridor at x=0 (left -0.100 <= right 0.100)")


def test_split_full_identity():
    out = gate(a_l=0.02, a_r=-0.01, safety_margin_R=0.1)
    assert out == LaneModel(BorderLine(0.02, 0.75, "left"),
                            BorderLine(-0.01, -0.75, "right"), 0.1)


def test_split_right_half_geometry():
    out = gate(b_l=2.0, b_r=-2.0, safety_margin_R=0.0, lane_mode="right_half")
    assert out.left.b == pytest.approx(0.0)
    assert out.left.side == "left"
    assert out.right.b == pytest.approx(-2.0)
    assert out.middle.b == pytest.approx(-1.0)


def test_split_left_half_mirrors_right_half():
    right = gate(a_l=0.1, b_l=1.8, a_r=-0.05, b_r=-2.1, safety_margin_R=0.2,
                 lane_mode="right_half")
    left = gate(a_l=0.05, b_l=2.1, a_r=-0.1, b_r=-1.8, safety_margin_R=0.2,
                lane_mode="left_half")
    assert left.left.a == pytest.approx(-right.right.a)
    assert left.left.b == pytest.approx(-right.right.b)
    assert left.right.a == pytest.approx(-right.left.a)
    assert left.right.b == pytest.approx(-right.left.b)
    assert left.inflated_right.b == pytest.approx(-right.inflated_left.b)


def test_validate_flat_ok():
    assert isinstance(gate(safety_margin_R=0.1), LaneModel)


def test_validate_steep_border_rejected():
    steep = math.tan(math.radians(80))
    assert gate(a_l=steep, a_r=steep, safety_margin_R=0.1) == (
        "left border at 80.0 deg is too close to perpendicular")


def test_validate_collapsed_rejected():
    """A full corridor that the margin leaves open can still collapse once
    the middle line takes the place of a border."""
    assert isinstance(gate(b_l=0.5, b_r=-0.5, safety_margin_R=0.3), LaneModel)
    for mode in ("right_half", "left_half"):
        reason = gate(b_l=0.5, b_r=-0.5, safety_margin_R=0.3, lane_mode=mode)
        assert reason.startswith("margin 0.3 m leaves no corridor at x=0")


def test_gates_run_in_order():
    # diverging borders also leave the origin outside and are steep
    assert gate(a_l=5.0, b_l=-0.1, a_r=0.0).startswith("borders diverge by ")
    assert gate(b_l=-0.1, b_r=-0.3) == "sensor origin outside the fitted corridor"
    # a collapsed corridor of steep borders reports the collapse
    steep = math.tan(math.radians(80))
    assert gate(a_l=steep, a_r=steep, safety_margin_R=0.3).startswith("margin ")


MIRRORED_MODE = {"full": "full", "right_half": "left_half",
                 "left_half": "right_half"}


def _gate_name(reason):
    """A rejection reason without its numbers and side names: the gate."""
    return re.sub(r"-?\d+\.\d+|left|right", "", reason)


@given(st.tuples(*[st.one_of(st.floats(-3.0, 3.0), st.sampled_from([-0.5, 0.0, 0.5]))
                   for _ in range(4)]),
       st.sampled_from([0.0, 0.1, 0.3, 1.0]), st.sampled_from(LANE_MODES))
@example((0.0, 0.75, 0.0, -0.75), 0.3, "right_half")
@example((0.05, 0.9, 0.02, -0.6), 0.3, "left_half")
def test_lane_gate_mirror_symmetry(coeffs, margin, mode):
    """Mirroring y -> -y swaps the borders and the half modes: the mirrored
    borders pass the same gates, and give the mirrored lane."""
    a_l, b_l, a_r, b_r = coeffs
    out = gate(a_l, b_l, a_r, b_r, safety_margin_R=margin, lane_mode=mode)
    mirrored = gate(-a_r, -b_r, -a_l, -b_l, safety_margin_R=margin,
                    lane_mode=MIRRORED_MODE[mode])
    if isinstance(out, str):
        assert isinstance(mirrored, str)
        assert _gate_name(mirrored) == _gate_name(out)
        return
    assert isinstance(mirrored, LaneModel)
    for got, want in ((mirrored.left, out.right), (mirrored.right, out.left),
                      (mirrored.inflated_left, out.inflated_right),
                      (mirrored.inflated_right, out.inflated_left),
                      (mirrored.middle, out.middle)):
        assert abs(got.a + want.a) <= 1e-12
        assert abs(got.b + want.b) <= 1e-12


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


def test_process_obstacle_cap(monkeypatch):
    monkeypatch.setattr(pipeline, "MAX_OBSTACLE_POINTS", 10)
    res = process(corridor_cloud(), PipelineConfig())
    assert res.ok
    assert len(res.obstacles) == 10


def reference_cap_obstacles(points, limit):
    """Pairwise loop: the k-th nearest point to the travel ray of each side,
    the nearer (then the y > 0 one) first, for k = 0, 1, ..."""
    if len(points) <= limit:
        return points
    ray_dist = np.where(points[:, 0] >= 0.0, np.abs(points[:, 1]),
                        np.hypot(points[:, 0], points[:, 1]))
    rng = np.hypot(points[:, 0], points[:, 1])
    order = np.lexsort((rng, ray_dist))
    pos = [i for i in order if points[i, 1] > 0.0]
    neg = [i for i in order if points[i, 1] <= 0.0]
    chosen = []
    rank = 0
    while len(chosen) < limit and (rank < len(pos) or rank < len(neg)):
        pair = [side[rank] for side in (pos, neg) if rank < len(side)]
        pair.sort(key=lambda i: (ray_dist[i], rng[i]))
        for i in pair:
            if len(chosen) < limit:
                chosen.append(i)
        rank += 1
    return points[np.array(chosen)]


@given(hnp.arrays(np.float64, st.tuples(st.integers(0, 40), st.just(2)),
                  elements=st.integers(-4, 4).map(lambda m: 0.25 * m)),
       st.integers(1, 50))
@example(np.array([[1.0, 0.5], [1.0, -0.5], [0.5, 1.0], [0.5, -1.0],
                   [-0.5, 0.0], [1.0, 0.0]]), 3)
def test_cap_obstacles_matches_pairwise_reference(points, limit):
    """Points on a coarse lattice, so ties in ray distance and range are
    common, with the limit both below and above the point count."""
    got = pipeline._cap_obstacles(points, limit)
    want = reference_cap_obstacles(points, limit)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


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
    assert (res.dropped_points, ref.dropped_points) == (len(cloud[::50]), 0)


def test_process_drops_zero_range_points():
    """Depth sensors report pixels without a return at the origin; such rows
    are dropped and counted, and a rendered cloud (none at the origin) keeps
    every point."""
    world = generate_world(WorldSpec(seed=6))
    cloud = render_cloud(world, pose_from(2.0, 0, 0), CameraSpec())
    assert pipeline._as_cloud(cloud).any(axis=1).all()
    corrupted = cloud.copy()
    corrupted[::50] = 0.0
    corrupted[1::50] = (0.0, 0.5, 1.0)       # x == 0 alone is a valid point
    cfg = PipelineConfig()
    res = process(corrupted, cfg)
    ref = process(np.delete(corrupted, np.s_[::50], axis=0), cfg)
    assert res.status is ref.status is PerceptionStatus.OK
    assert res.lane == ref.lane
    np.testing.assert_array_equal(res.obstacles, ref.obstacles)
    assert (res.dropped_points, ref.dropped_points) == (len(cloud[::50]), 0)


@pytest.mark.parametrize("frame", [np.zeros(4), None, np.zeros((6, 2)),
                                   np.zeros((3, 4))],
                         ids=["flat", "none", "xy", "xyzi"])
def test_process_rejects_a_frame_that_is_not_n_by_3(frame):
    """A frame that is not an (N, 3) cloud (a truncated flat buffer, no
    frame, XY or XYZI columns) is rejected with a reason, never reshaped
    into points or raised."""
    res = process(frame, PipelineConfig())
    assert res.status is PerceptionStatus.INVALID_LANE
    assert res.lane is None and res.dropped_points == 0
    assert res.reason.startswith("perception error: ValueError: ")
    assert "(N, 3)" in res.reason


@st.composite
def sensor_frames(draw):
    """Frames mixing ordinary points with the rows a depth sensor returns
    for a pixel without range (NaN or +-inf in some coordinate, or all
    zero) and points 1e7 m out on some or every axis."""
    coord = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
    rows = []
    for kind in draw(st.lists(st.sampled_from(["point", "non_finite", "zero", "far"]),
                              max_size=60)):
        row = list(draw(st.tuples(coord, coord, coord)))
        if kind == "non_finite":
            row[draw(st.integers(0, 2))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        elif kind == "zero":
            row = [0.0, 0.0, 0.0]
        elif kind == "far":
            for axis in draw(st.sets(st.integers(0, 2), min_size=1)):
                row[axis] = draw(st.sampled_from([1e7, -1e7]))
        rows.append(row)
    return np.array(rows, dtype=float).reshape(-1, 3)


@given(sensor_frames())
@example(np.array([[1.0, 0.5, 0.5], [np.nan, 0.0, 1.0], [0.0, 0.0, 0.0],
                   [1e7, -1e7, 1e7]]))
@example(np.array([[1e7, 1e7, 1e7], [1e7, 1e7, 1e7], [0.0, np.inf, 0.0]]))
@example(np.array([[1.0, 0.5, 0.5], [1.0, -0.5, 0.5], [1e7, 0.5, 0.5]]))
def test_process_ends_every_sensor_frame_in_a_status(frame):
    """process never raises, counts exactly the non-finite and all-zero rows
    as dropped, and rejects a frame whose voxel keys overflow int64 with a
    reason naming the voxel key."""
    cfg = PipelineConfig()
    res = process(frame, cfg)
    valid = np.isfinite(frame).all(axis=1) & frame.any(axis=1)
    assert res.dropped_points == len(frame) - valid.sum()
    if valid.any() and voxel_key_space(frame[valid], pipeline.R_V) >= 2 ** 63:
        assert res.status is PerceptionStatus.INVALID_LANE
        assert "voxel key space" in res.reason
    else:
        assert "perception error" not in res.reason


def _scenario_frames(config):
    """The scenario's pipeline config and depth frames rendered from its
    start pose and 1 m and 2 m further along +x, plus the first frame with
    every 37th row made NaN."""
    cfg = load_scenario(config)
    world = generate_world(cfg.world)
    rng = np.random.default_rng([cfg.world.seed, 1])
    frames = [render_cloud(world, pose_from(cfg.start.x + dx, cfg.start.y,
                                            cfg.start.theta), cfg.camera, rng)
              for dx in (0.0, 1.0, 2.0)]
    holed = frames[0].copy()
    holed[::37] = np.nan
    return cfg.pipeline, frames + [holed]


def _median_split_tree(pts, **_):
    return cKDTree(pts)


SCENARIO_CONFIGS = pytest.mark.parametrize("config", [
    *(resolve_config_path(f"sim_{name}") for name in
      ("straight", "curved", "half_lane", "obstacle", "misaligned", "target")),
    str(Path(__file__).resolve().parents[1] / "bench" / "pergola_dense.yaml"),
], ids=lambda path: Path(path).stem)


@SCENARIO_CONFIGS
def test_process_bit_equal_to_row_sort_voxels_and_median_split_tree(
        monkeypatch, config):
    cfg, frames = _scenario_frames(config)
    results = [process(frame, cfg) for frame in frames]
    monkeypatch.setattr(pipeline, "voxel_downsample", reference_voxel_downsample)
    monkeypatch.setattr(pipeline, "cKDTree", _median_split_tree)
    for frame, res in zip(frames, results):
        ref = process(frame, cfg)
        assert res.status is ref.status
        assert res.reason == ref.reason
        assert res.lane == ref.lane
        assert (res.obstacles is None) == (ref.obstacles is None)
        if ref.obstacles is not None:
            assert np.array_equal(res.obstacles, ref.obstacles)


@functools.lru_cache(maxsize=None)
def _perceived_frames(config):
    cfg, frames = _scenario_frames(config)
    return cfg, frames, [process(frame, cfg) for frame in frames]


@SCENARIO_CONFIGS
@settings(max_examples=36)
@given(st.integers(0, 3), st.integers(0, 2 ** 32 - 1))
def test_process_invariant_under_point_permutation(config, frame_id, seed):
    """The order of a frame's points does not change what is perceived: the
    same status and reason, the lane to 1e-9 (voxel centroids add their
    points in input order, so the last bits may move) and the same
    obstacle cells. Mirroring y is not such an invariance: points on a voxel
    boundary do not mirror onto one."""
    cfg, frames, results = _perceived_frames(config)
    frame, ref = frames[frame_id], results[frame_id]
    res = process(frame[np.random.default_rng(seed).permutation(len(frame))], cfg)
    assert res.status is ref.status
    assert res.reason == ref.reason
    assert res.dropped_points == ref.dropped_points
    assert (res.lane is None) == (ref.lane is None)
    if ref.lane is not None:
        for got, want in ((res.lane.left, ref.lane.left),
                          (res.lane.right, ref.lane.right)):
            assert got.a == pytest.approx(want.a, rel=0.0, abs=1e-9)
            assert got.b == pytest.approx(want.b, rel=0.0, abs=1e-9)
    assert (res.obstacles is None) == (ref.obstacles is None)
    if ref.obstacles is not None:
        assert np.array_equal(res.obstacles, ref.obstacles)


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
    margin_slack = GRID_CELL  # cell centers are quantized
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
