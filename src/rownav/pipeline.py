"""Depth point cloud to lane geometry pipeline.

Turns a rover-frame 3D cloud into two fitted row border lines plus the 2D
obstacle points the controller consumes. Stages, in order: voxel
downsampling, k-NN statistical noise removal, height crop, empty-view
check, 2D occupancy projection, occlusion fill behind occupied cells,
per-column border extraction, least-squares line fits, and the lane gate
(`lane_from_borders`). A frame is rejected as INVALID_LANE when a border
is missing, or when the gate finds, in this order: borders that diverge,
the sensor outside the fitted corridor, a corridor that the safety margin
(applied after the optional half-lane split) collapses, or a border too
close to perpendicular.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np
from scipy.spatial import cKDTree

from .core import BorderLine

LANE_MODES = ("full", "right_half", "left_half")

# Occupancy grid extent, m: forward from the sensor, and lateral, centred on it.
GRID_EXTENT_X = 6.0
GRID_EXTENT_Y = 8.0

# Angular bins used by the occlusion fill. One bin spans ~0.18 deg, below
# the angle a grid cell subtends anywhere inside the grid extent.
SHADOW_ANGLE_BINS = 2048

# Border evidence: samples under BORDER_INLIER_FRAC of their side's median
# |y| are obstacles, a side whose samples span under MIN_BORDER_SPAN (m)
# forward gets no fit, and borders whose directions differ by more than
# MAX_BORDER_DIVERGENCE (rad) are no row.
BORDER_INLIER_FRAC = 0.5
MIN_BORDER_SPAN = 0.3
MAX_BORDER_DIVERGENCE = 0.35

# Fewest kNN queries one worker thread is given. On sim_obstacle's voxel
# centroids, two workers took 0.58 of one worker's time with 1000 queries
# each, and 0.85 with 500: below ~1000, a thread's start eats its gain.
KNN_QUERIES_PER_WORKER = 1000

# Contiguous row chunks per query worker. Workers take the next unclaimed
# chunk until none is left, so one slow worker (a neighbour process took
# its CPU) holds up at most one chunk. In traced row_obstacle runs on a
# 2-vCPU host (~5.2k centroids per frame), the kNN p50 read 7.5-8.6 ms
# with 4, 8.7-8.8 ms with 2 and 8.0-9.7 ms with 8.
KNN_CHUNKS_PER_WORKER = 4


class InsufficientSamples(ValueError):
    """Raised when a border fit has fewer than two distinct sample columns."""


class PerceptionStatus(Enum):
    OK = "ok"
    EMPTY_FOV = "empty_fov"
    INVALID_LANE = "invalid_lane"


@dataclass
class PipelineConfig:
    r_v: float = 0.05                 # voxel resolution, m
    z_th_min: float = 0.15            # lower height crop, m
    z_th_max: float = 2.0             # upper height crop, m
    f_points: float = 0.2             # empty-view fraction threshold
    knn_k: int = 10
    knn_std_ratio: float = 1.0
    grid_cell: float = 0.05           # occupancy cell size, m
    safety_margin_R: float = 0.3      # border inflation distance, m
    max_perp_angle: float = math.radians(70.0)
    lane_mode: str = "full"
    max_obstacle_points: int = 30     # cap on points handed to the controller

    def validate(self, path: str = "pipeline") -> list[str]:
        errs = []
        if not self.r_v > 0:
            errs.append(f"{path}.r_v: must be > 0")
        if not self.z_th_min < self.z_th_max:
            errs.append(f"{path}.z_th_min: must be < {path}.z_th_max")
        if not 0.0 < self.f_points < 1.0:
            errs.append(f"{path}.f_points: must be in (0, 1)")
        if self.knn_k < 1:
            errs.append(f"{path}.knn_k: must be >= 1")
        if not self.grid_cell > 0:
            errs.append(f"{path}.grid_cell: must be > 0")
        if self.safety_margin_R < 0:
            errs.append(f"{path}.safety_margin_R: must be >= 0")
        if not 0.0 < self.max_perp_angle < math.pi / 2:
            errs.append(f"{path}.max_perp_angle: must be in (0, pi/2) radians")
        if self.lane_mode not in LANE_MODES:
            errs.append(f"{path}.lane_mode: must be one of {LANE_MODES}")
        if self.max_obstacle_points < 1:
            errs.append(f"{path}.max_obstacle_points: must be >= 1")
        return errs


@dataclass(frozen=True)
class OccupancyGrid:
    """Boolean occupancy over a forward-facing grid.

    Cell (i, j) covers x in [x_min + i*cell, x_min + (i+1)*cell) and the
    matching y slab. The sensor origin must fall inside the grid.
    """

    cell: float
    x_min: float
    y_min: float
    occupied: np.ndarray                       # bool, shape (nx, ny)
    sensor_origin: tuple[float, float] = (0.0, 0.0)
    observed: np.ndarray | None = None         # pre-fill occupancy, if filled

    @property
    def nx(self) -> int:
        return self.occupied.shape[0]

    @property
    def ny(self) -> int:
        return self.occupied.shape[1]

    def x_centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.nx) + 0.5) * self.cell

    def y_centers(self) -> np.ndarray:
        # Centered form keeps the lattice exactly symmetric about the grid
        # midline, which the mirror-symmetry guarantees rely on.
        mid = self.y_min + 0.5 * self.ny * self.cell
        return (np.arange(self.ny) + 0.5 - 0.5 * self.ny) * self.cell + mid

    def occupied_centers(self) -> np.ndarray:
        """(M, 2) array of occupied cell centers."""
        ii, jj = np.nonzero(self.occupied)
        xs = self.x_centers()[ii]
        ys = self.y_centers()[jj]
        return np.column_stack([xs, ys])


@dataclass(frozen=True)
class LaneModel:
    """Fitted borders plus the derived middle line and inflated borders.

    Each inflated border is its border shifted toward the corridor by
    `margin`, perpendicular to itself: the slope stays, the intercept
    moves by margin * sqrt(1 + a^2).
    """

    left: BorderLine
    right: BorderLine
    margin: float
    middle: BorderLine = field(init=False)
    inflated_left: BorderLine = field(init=False)
    inflated_right: BorderLine = field(init=False)

    def __post_init__(self):
        mid = BorderLine(0.5 * (self.left.a + self.right.a),
                         0.5 * (self.left.b + self.right.b), "middle")
        il = BorderLine(self.left.a,
                        self.left.b - self.margin * math.sqrt(1.0 + self.left.a ** 2),
                        "left")
        ir = BorderLine(self.right.a,
                        self.right.b + self.margin * math.sqrt(1.0 + self.right.a ** 2),
                        "right")
        object.__setattr__(self, "middle", mid)
        object.__setattr__(self, "inflated_left", il)
        object.__setattr__(self, "inflated_right", ir)

    @property
    def a_avg(self) -> float:
        return self.middle.a


@dataclass(frozen=True)
class PerceptionResult:
    status: PerceptionStatus
    lane: LaneModel | None = None
    obstacles: np.ndarray | None = None        # (M, 2) occupied cell centers
    reason: str = ""
    dropped_points: int = 0                    # invalid returns removed on entry

    @property
    def ok(self) -> bool:
        return self.status is PerceptionStatus.OK


def _as_cloud(cloud) -> np.ndarray:
    """Read a cloud as an (N, 3) float array; any other shape is a ValueError."""
    pts = np.asarray(cloud, dtype=float)
    if pts.size == 0:
        return pts.reshape(0, 3)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected an (N, 3) point cloud, got shape {pts.shape}")
    return pts


def voxel_downsample(cloud, r_v: float) -> np.ndarray:
    """Collapse each occupied voxel of side r_v to the centroid of its points.

    Rows come out in lexicographic order of the voxel index
    (floor(x/r_v), floor(y/r_v), floor(z/r_v)), and each centroid sums its
    voxel's points in input order before dividing by their count.

    Each voxel gets one int64 key, ordered as its index, and a single 1-D
    sort of the keys groups the points. The key is the index shifted by
    its minimum on every axis, in mixed radix over the index ranges
    n_x, n_y, n_z of the cloud. A cloud whose n_x * n_y * n_z reaches
    2**63 has no such key and raises ValueError; at r_v = 0.05 that takes
    a cloud ~1e5 m across on every axis. So does a voxel index outside
    int64, from a NaN or infinite coordinate (`process` drops those points
    first) or a finite one too large for r_v.
    """
    pts = _as_cloud(cloud)
    if len(pts) == 0:
        return pts
    idx = [np.floor(pts[:, c] / r_v) for c in range(3)]
    lows, highs = [q.min() for q in idx], [q.max() for q in idx]
    if not all(-2.0 ** 63 <= q < 2.0 ** 63 for q in lows + highs):
        raise ValueError(f"voxel index outside int64: a coordinate is NaN, "
                         f"infinite or too large for r_v = {r_v}")
    spans = [int(hi) - int(lo) + 1 for lo, hi in zip(lows, highs)]
    n_keys = math.prod(spans)
    if n_keys >= 2 ** 63:
        raise ValueError(f"voxel key space of {n_keys} keys lies outside int64 "
                         f"at r_v = {r_v}")
    key = np.zeros(len(pts), dtype=np.int64)
    for q, lo, span in zip(idx, lows, spans):
        key *= span
        key += q.astype(np.int64) - int(lo)
    _, inverse, counts = np.unique(key, return_inverse=True, return_counts=True)
    sums = np.column_stack([np.bincount(inverse, weights=pts[:, c])
                            for c in range(3)])
    return sums / counts[:, None]


def knn_outlier_filter(cloud, k: int, std_ratio: float) -> np.ndarray:
    """Drop points whose mean k-nearest-neighbor distance is anomalously large.

    A point is removed iff its mean distance to its k nearest neighbors
    exceeds mean + std_ratio * std of that statistic over the whole cloud.
    Clouds with at most k points pass through unchanged.

    The tree queries run on the calling thread and on helper threads that
    persist across calls: one worker per CPU in this process's affinity
    mask (so `taskset` limits the split), and one per
    KNN_QUERIES_PER_WORKER points at most. The rows are cut into
    KNN_CHUNKS_PER_WORKER contiguous chunks per worker, and each worker,
    the calling thread among them, queries the next unclaimed chunk until
    none is left. With one worker the calling thread queries every chunk.
    The helpers belong to the process that made them; a forked child makes
    its own. Each point's neighbours are found on their own, so the result
    is the same bits for any worker count and chunking.
    """
    pts = _as_cloud(cloud)
    n = len(pts)
    if n <= k:
        return pts.copy()
    # Sliding-midpoint splits build and query faster than median splits on
    # voxel centroids; the neighbour distances are exact either way.
    tree = cKDTree(pts, balanced_tree=False)
    dists = _query_in_chunks(tree, pts, k + 1)
    mean_d = dists[:, 1:].mean(axis=1)        # column 0 is the point itself
    mu = float(mean_d.mean())
    sigma = float(mean_d.std())
    # Tiny slack absorbs last-ulp rounding so degenerate (all-equal) clouds
    # survive intact.
    keep = mean_d <= mu + std_ratio * sigma + 1e-12 * max(1.0, abs(mu))
    return pts[keep]


def _query_workers(n_queries: int) -> int:
    """Worker threads for n_queries tree queries: the CPUs this process may
    run on, capped at one per KNN_QUERIES_PER_WORKER queries. Not
    os.cpu_count(), which counts every CPU of the host, whatever the mask."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_queries // KNN_QUERIES_PER_WORKER))


def _query_in_chunks(tree: cKDTree, pts: np.ndarray, k: int) -> np.ndarray:
    """Distances from each row of pts to its k nearest tree points, queried
    chunk by chunk by the calling thread and _query_workers - 1 helpers."""
    n = len(pts)
    workers = _query_workers(n)
    chunks = workers * KNN_CHUNKS_PER_WORKER
    bounds = [n * i // chunks for i in range(chunks + 1)]
    dists = np.empty((n, k))
    claim = threading.Lock()
    claimed = 0

    def take_chunks() -> None:
        nonlocal claimed
        while True:
            with claim:
                i = claimed
                claimed += 1
            if i >= chunks:
                return
            lo, hi = bounds[i], bounds[i + 1]
            dists[lo:hi] = tree.query(pts[lo:hi], k=k)[0]

    helpers = ([_helper_pool(workers - 1).submit(take_chunks)
                for _ in range(workers - 1)] if workers > 1 else [])
    try:
        take_chunks()
    finally:
        wait(helpers)
    for done in helpers:
        done.result()                         # re-raises a helper's error
    return dists


# (pid, size, pool) of the kNN helper threads. A pool inherited through
# fork has no threads and would never run its tasks, so it is keyed to the
# process that made it.
_knn_helpers: tuple[int, int, ThreadPoolExecutor] | None = None


def _helper_pool(size: int) -> ThreadPoolExecutor:
    """This process's kNN helper pool, with room for `size` threads. The
    pool starts a thread only when no idle one is left, so its threads live
    across calls. A pool that is replaced exits its threads once dropped."""
    global _knn_helpers
    pid = os.getpid()
    if _knn_helpers is None or _knn_helpers[0] != pid or _knn_helpers[1] < size:
        _knn_helpers = (pid, size, ThreadPoolExecutor(
            size, thread_name_prefix="rownav-knn"))
    return _knn_helpers[2]


def height_crop(cloud, z_min: float, z_max: float) -> np.ndarray:
    """Keep points with z_min <= z <= z_max, preserving order."""
    pts = _as_cloud(cloud)
    keep = (pts[:, 2] >= z_min) & (pts[:, 2] <= z_max)
    return pts[keep]


def fov_empty_check(n_remaining: int, n_original: int, f_points: float) -> bool:
    """True when the surviving fraction of points falls below f_points."""
    if n_original <= 0:
        return True
    return (n_remaining / n_original) < f_points


def project_to_grid(cloud, cfg: PipelineConfig) -> OccupancyGrid:
    """Flatten points onto the x-y occupancy grid; out-of-extent points drop."""
    cell = cfg.grid_cell
    nx = int(round(GRID_EXTENT_X / cell))
    ny = int(round(GRID_EXTENT_Y / cell))
    x_min = 0.0
    y_min = -0.5 * GRID_EXTENT_Y
    occupied = np.zeros((nx, ny), dtype=bool)
    pts = _as_cloud(cloud)
    i = np.floor((pts[:, 0] - x_min) / cell).astype(np.int64)
    j = np.floor((pts[:, 1] - y_min) / cell).astype(np.int64)
    ok = (i >= 0) & (i < nx) & (j >= 0) & (j < ny)
    occupied[i[ok], j[ok]] = True
    return OccupancyGrid(cell, x_min, y_min, occupied)


def shadow_fill(grid: OccupancyGrid) -> OccupancyGrid:
    """Mark cells hidden behind occupied cells, as seen from the sensor.

    Each cell is assigned the angular bin of its center as seen from the
    sensor origin; a cell becomes occupied when some occupied cell with the
    same bin sits at equal or smaller range. The rule is a pure function of
    per-bin minimum occupied range, so applying it twice changes nothing.
    """
    occ = grid.observed if grid.observed is not None else grid.occupied
    ox, oy = grid.sensor_origin
    cx = grid.x_centers() - ox
    cy = grid.y_centers() - oy
    gx, gy = np.meshgrid(cx, cy, indexing="ij")
    ang = np.arctan2(gy, gx)
    rng = np.hypot(gx, gy)
    width = 2.0 * math.pi / SHADOW_ANGLE_BINS
    bins = np.minimum(np.floor((ang + math.pi) / width).astype(np.int64),
                      SHADOW_ANGLE_BINS - 1)
    min_range = np.full(SHADOW_ANGLE_BINS, np.inf)
    np.minimum.at(min_range, bins[occ], rng[occ])
    filled = occ | (rng >= min_range[bins])
    return replace(grid, occupied=filled, observed=occ.copy())


def extract_border_samples(grid: OccupancyGrid) -> tuple[np.ndarray, np.ndarray]:
    """Innermost occupied cell center per column, split by side.

    For every x column the occupied cell with the smallest y > 0 becomes a
    left-border sample and the one with the largest y < 0 a right-border
    sample; columns lacking occupancy on a side contribute nothing there.

    Occlusion-filled cells matter only where nothing was directly seen:
    in a column whose side holds observed occupancy, the observed cells
    define the sample (an occlusion wedge cast into the corridor by a
    mid-lane obstacle must not drag the border inward), while columns a
    side never observed fall back to filled cells, which is what bridges
    the gaps between plants. Each side also stops at its last directly
    observed column: beyond the final plant the fill produces a diverging
    wedge along the last sight lines, occluded space rather than border.
    The filled cells are taken to include the observed ones, as
    `shadow_fill` makes them.
    """
    xs = grid.x_centers()
    ys = grid.y_centers()
    seen = grid.observed if grid.observed is not None else grid.occupied
    pos = ys > 0.0
    neg = ys < 0.0
    # y_centers ascend, so each side's lateral axis runs innermost first
    # once the right side is reversed.
    return (_innermost(xs, ys[pos], seen[:, pos], grid.occupied[:, pos]),
            _innermost(xs, ys[neg][::-1], seen[:, neg][:, ::-1],
                       grid.occupied[:, neg][:, ::-1]))


def _innermost(xs: np.ndarray, ys: np.ndarray, seen: np.ndarray,
               filled: np.ndarray) -> np.ndarray:
    """(x, y) of the first cell of each column, over the observed cells where
    the column saw any and the filled cells elsewhere, up to the last column
    that saw any."""
    saw = seen.any(axis=1)
    if not saw.any():
        return np.empty((0, 2))
    cells = np.where(saw[:, None], seen, filled)[:np.flatnonzero(saw)[-1] + 1]
    hit = cells.any(axis=1)
    return np.column_stack([xs[:len(cells)][hit], ys[cells.argmax(axis=1)[hit]]])


def fit_border_line(samples, side: str) -> BorderLine:
    """Ordinary least-squares fit y = a*x + b over the samples."""
    pts = np.asarray(samples, dtype=float).reshape(-1, 2)
    if len(pts) < 2 or np.unique(pts[:, 0]).size < 2:
        raise InsufficientSamples(f"{side}: need >= 2 samples with distinct x")
    x = pts[:, 0]
    y = pts[:, 1]
    xm = x.mean()
    ym = y.mean()
    dx = x - xm
    a = float((dx * (y - ym)).sum() / (dx * dx).sum())
    b = float(ym - a * xm)
    return BorderLine(a, b, side)


def lane_from_borders(left: BorderLine, right: BorderLine,
                      cfg: PipelineConfig) -> LaneModel | str:
    """The lane two fitted borders give, or the reason they give none.

    Two gates a hallucinated lane (both fits on the same physical wall,
    seen obliquely) fails while any real row passes: the row sides are
    near-parallel, and the sensor sits between them. Then the half-lane
    modes put the middle line in place of one border (right_half: the
    rover travels centered in the right half, i.e. at 3/4 of the full
    row width from the left border; left_half mirrors that), and the
    safety margin shifts each border toward the corridor by
    cfg.safety_margin_R, perpendicular to it. Last, the shifted borders
    must leave a corridor at x = 0, and no border may be too close to
    perpendicular.
    """
    divergence = abs(math.atan(left.a) - math.atan(right.a))
    if divergence > MAX_BORDER_DIVERGENCE:
        return f"borders diverge by {divergence:.2f} rad"
    if not left.b > 0.0 > right.b:
        return "sensor origin outside the fitted corridor"
    lane = LaneModel(left, right, cfg.safety_margin_R)
    if cfg.lane_mode == "right_half":
        lane = LaneModel(replace(lane.middle, side="left"), right, lane.margin)
    elif cfg.lane_mode == "left_half":
        lane = LaneModel(left, replace(lane.middle, side="right"), lane.margin)
    # |sqrt(1 + a_l^2) - sqrt(1 + a_r^2)| < 2 sqrt(1 + a_m^2), so a half
    # corridor collapses whenever the full one does: one check covers both.
    if lane.inflated_left.b <= lane.inflated_right.b:
        return (f"margin {lane.margin} m leaves no corridor at x=0 "
                f"(left {lane.inflated_left.b:.3f} <= "
                f"right {lane.inflated_right.b:.3f})")
    for border in (lane.left, lane.right):
        if abs(math.atan(border.a)) >= cfg.max_perp_angle:
            return (f"{border.side} border at "
                    f"{math.degrees(math.atan(border.a)):.1f} deg is too close "
                    f"to perpendicular")
    return lane


def _cap_obstacles(points: np.ndarray, limit: int) -> np.ndarray:
    """Keep the points nearest the forward travel ray, balanced by side.

    Distance is measured to the ray {(t, 0): t >= 0} rather than to the
    rover point: a pure range cap fills up with lateral wall cells and can
    starve the controller of the actual blocking obstacle ahead. Selection
    alternates between the y > 0 and y <= 0 sides so a marginally nearer
    wall cannot crowd the other border out of the constraint set: the k-th
    nearest of each side come before the (k+1)-th of either, the nearer
    of the two first, the y > 0 one on a tie.
    """
    if len(points) <= limit:
        return points
    ray_dist = np.where(points[:, 0] >= 0.0,
                        np.abs(points[:, 1]),
                        np.hypot(points[:, 0], points[:, 1]))
    rng = np.hypot(points[:, 0], points[:, 1])
    right = points[:, 1] <= 0.0
    order = np.lexsort((rng, ray_dist))
    in_order = right[order]
    rank = np.empty(len(points), dtype=np.int64)
    rank[order] = np.where(in_order, np.cumsum(in_order), np.cumsum(~in_order))
    return points[np.lexsort((right, rng, ray_dist, rank))[:limit]]


def process(cloud, cfg: PipelineConfig) -> PerceptionResult:
    """Run the full pipeline on a rover-frame cloud.

    The empty-view fraction compares the point count after the height crop
    against the count entering it (after downsampling and noise removal):
    voxelization changes the raw count by a sensor-dependent factor, which
    would make a raw-count ratio meaningless. Obstacle points are the
    occupied cell centers before the occlusion fill (filled cells are not
    physical obstacles), capped at cfg.max_obstacle_points. Invalid depth
    returns are dropped first and counted in dropped_points: points with a
    NaN or infinite coordinate, and points at exactly (0, 0, 0), where
    depth sensors put pixels that returned no range. An exception out of
    any stage, a cloud that is not (N, 3) included, becomes an INVALID_LANE
    result whose reason names it.
    """
    dropped = 0
    try:
        pts = _as_cloud(cloud)
        # The row mask and its copy cost ms on a dense frame, so build them
        # only when a whole-array check finds a bad value (a zero-range
        # point has x == 0).
        if not (np.isfinite(pts).all() and pts[:, 0].all()):
            n_in = len(pts)
            pts = pts[np.isfinite(pts).all(axis=1) & pts.any(axis=1)]
            dropped = n_in - len(pts)
        result = _perceive(pts, cfg)
    except Exception as exc:
        # process stays total: a fault in any stage rejects the frame, the
        # way MissionSupervisor.tick turns a solver error into INFEASIBLE.
        result = PerceptionResult(
            PerceptionStatus.INVALID_LANE,
            reason=f"perception error: {type(exc).__name__}: {exc}")
    return replace(result, dropped_points=dropped) if dropped else result


def _perceive(pts: np.ndarray, cfg: PipelineConfig) -> PerceptionResult:
    down = voxel_downsample(pts, cfg.r_v)
    filt = knn_outlier_filter(down, cfg.knn_k, cfg.knn_std_ratio)
    cropped = height_crop(filt, cfg.z_th_min, cfg.z_th_max)
    if fov_empty_check(len(cropped), len(filt), cfg.f_points):
        return PerceptionResult(PerceptionStatus.EMPTY_FOV,
                                reason="surviving point fraction below threshold")
    grid = project_to_grid(cropped, cfg)
    obstacles = _cap_obstacles(grid.occupied_centers(), cfg.max_obstacle_points)
    filled = shadow_fill(grid)
    left_samples, right_samples = extract_border_samples(filled)

    borders: dict[str, BorderLine] = {}
    for side, samples in (("left", left_samples), ("right", right_samples)):
        if not len(samples):
            continue
        # A mid-lane obstacle owns the innermost cell of its columns, which
        # would drag the fitted border into the corridor: samples sitting
        # far inside the side's median lateral distance are obstacle
        # evidence, not border evidence.
        med = np.median(np.abs(samples[:, 1]))
        samples = samples[np.abs(samples[:, 1]) >= BORDER_INLIER_FRAC * med]
        # A sliver of columns produces wildly extrapolated fits; demand a
        # minimum forward extent of evidence before trusting a side. A side
        # that spans it has two distinct x, all fit_border_line needs.
        if np.ptp(samples[:, 0]) < MIN_BORDER_SPAN:
            continue
        borders[side] = fit_border_line(samples, side)
    missing = [side for side in ("left", "right") if side not in borders]
    lane = (f"missing border: {', '.join(missing)}" if missing
            else lane_from_borders(borders["left"], borders["right"], cfg))
    if isinstance(lane, str):
        return PerceptionResult(PerceptionStatus.INVALID_LANE, obstacles=obstacles,
                                reason=lane)
    return PerceptionResult(PerceptionStatus.OK, lane=lane, obstacles=obstacles)
