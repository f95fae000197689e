"""Depth point cloud to lane geometry pipeline.

Turns a rover-frame 3D cloud into two fitted row border lines plus the 2D
obstacle points the controller consumes. Stages, in order: voxel
downsampling, k-NN statistical noise removal, height crop, empty-view
check, 2D occupancy projection, occlusion fill behind occupied cells,
per-column border extraction, least-squares line fits, safety-margin
inflation, optional half-lane split, and validity checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np
from scipy.spatial import cKDTree

from .core import BorderLine

LANE_MODES = ("full", "right_half", "left_half")

# Angular bins used by the occlusion fill. One bin spans ~0.18 deg, below
# the angle a grid cell subtends anywhere inside the default grid extent.
SHADOW_ANGLE_BINS = 2048


class InsufficientSamples(ValueError):
    """Raised when a border fit has fewer than two distinct sample columns."""


class CorridorCollapsed(ValueError):
    """Raised when margin inflation leaves no free corridor at x = 0."""


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
    grid_extent_x: float = 6.0        # forward extent, m
    grid_extent_y: float = 8.0        # lateral extent (centered), m
    safety_margin_R: float = 0.3      # border inflation distance, m
    max_perp_angle: float = math.radians(70.0)
    lane_mode: str = "full"
    max_obstacle_points: int = 30     # cap on points handed to the controller
    min_border_span: float = 0.3      # least x-extent of samples worth fitting, m
    max_border_divergence: float = 0.35  # rad between border directions
    border_inlier_frac: float = 0.5   # samples under this fraction of the
                                      # side's median |y| are obstacles, not
                                      # border evidence (0 disables)

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
        if not self.grid_extent_x > 0 or not self.grid_extent_y > 0:
            errs.append(f"{path}.grid_extent_x/grid_extent_y: must be > 0")
        if self.safety_margin_R < 0:
            errs.append(f"{path}.safety_margin_R: must be >= 0")
        if not 0.0 < self.max_perp_angle < math.pi / 2:
            errs.append(f"{path}.max_perp_angle: must be in (0, pi/2) radians")
        if self.lane_mode not in LANE_MODES:
            errs.append(f"{path}.lane_mode: must be one of {LANE_MODES}")
        if self.max_obstacle_points < 1:
            errs.append(f"{path}.max_obstacle_points: must be >= 1")
        if self.min_border_span < 0:
            errs.append(f"{path}.min_border_span: must be >= 0")
        if not 0.0 < self.max_border_divergence < math.pi / 2:
            errs.append(f"{path}.max_border_divergence: must be in (0, pi/2)")
        if not 0.0 <= self.border_inlier_frac < 1.0:
            errs.append(f"{path}.border_inlier_frac: must be in [0, 1)")
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
    """Fitted borders plus the derived middle line and inflated borders."""

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

    @property
    def ok(self) -> bool:
        return self.status is PerceptionStatus.OK


def _as_cloud(cloud) -> np.ndarray:
    pts = np.asarray(cloud, dtype=float)
    if pts.size == 0:
        return pts.reshape(0, 3)
    return pts.reshape(-1, 3)


def voxel_downsample(cloud, r_v: float) -> np.ndarray:
    """Collapse each occupied voxel of side r_v to the centroid of its points."""
    pts = _as_cloud(cloud)
    if len(pts) == 0:
        return pts
    idx = np.floor(pts / r_v).astype(np.int64)
    _, inverse = np.unique(idx, axis=0, return_inverse=True)
    n_cells = int(inverse.max()) + 1
    sums = np.zeros((n_cells, 3))
    np.add.at(sums, inverse, pts)
    counts = np.bincount(inverse, minlength=n_cells).astype(float)
    return sums / counts[:, None]


def knn_outlier_filter(cloud, k: int, std_ratio: float) -> np.ndarray:
    """Drop points whose mean k-nearest-neighbor distance is anomalously large.

    A point is removed iff its mean distance to its k nearest neighbors
    exceeds mean + std_ratio * std of that statistic over the whole cloud.
    Clouds with at most k points pass through unchanged.
    """
    pts = _as_cloud(cloud)
    n = len(pts)
    if n <= k:
        return pts.copy()
    tree = cKDTree(pts)
    dists, _ = tree.query(pts, k=k + 1)
    mean_d = dists[:, 1:].mean(axis=1)        # column 0 is the point itself
    mu = float(mean_d.mean())
    sigma = float(mean_d.std())
    # Tiny slack absorbs last-ulp rounding so degenerate (all-equal) clouds
    # survive intact.
    keep = mean_d <= mu + std_ratio * sigma + 1e-12 * max(1.0, abs(mu))
    return pts[keep]


def height_crop(cloud, z_min: float, z_max: float) -> np.ndarray:
    """Keep points with z_min <= z <= z_max, preserving order."""
    pts = _as_cloud(cloud)
    if len(pts) == 0:
        return pts
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
    nx = int(round(cfg.grid_extent_x / cell))
    ny = int(round(cfg.grid_extent_y / cell))
    x_min = 0.0
    y_min = -0.5 * cfg.grid_extent_y
    occupied = np.zeros((nx, ny), dtype=bool)
    pts = _as_cloud(cloud)
    if len(pts) > 0:
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
    if not occ.any():
        return replace(grid, occupied=occ.copy(), observed=occ.copy())
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
    """
    xs = grid.x_centers()
    ys = grid.y_centers()
    pos_mask = ys > 0.0
    neg_mask = ys < 0.0
    seen = grid.observed if grid.observed is not None else grid.occupied
    left_cols = np.nonzero(seen[:, pos_mask].any(axis=1))[0]
    right_cols = np.nonzero(seen[:, neg_mask].any(axis=1))[0]
    last_left = int(left_cols.max()) if left_cols.size else -1
    last_right = int(right_cols.max()) if right_cols.size else -1
    left, right = [], []
    for i in range(grid.nx):
        js_seen = np.nonzero(seen[i])[0]
        js_fill = np.nonzero(grid.occupied[i])[0]
        if js_fill.size == 0:
            continue
        seen_y = ys[js_seen]
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
    left_arr = np.array(left, dtype=float).reshape(-1, 2)
    right_arr = np.array(right, dtype=float).reshape(-1, 2)
    return left_arr, right_arr


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


def apply_safety_margin(lane: LaneModel, R: float) -> LaneModel:
    """Shift the borders toward the corridor interior by distance R.

    The shift is perpendicular to each border, so intercepts move by
    R*sqrt(1 + a^2) while slopes stay fixed.
    """
    out = LaneModel(lane.left, lane.right, R)
    if out.inflated_left.b <= out.inflated_right.b:
        raise CorridorCollapsed(
            f"margin {R} m leaves no corridor at x=0 "
            f"(left {out.inflated_left.b:.3f} <= right {out.inflated_right.b:.3f})")
    return out


def split_lane(lane: LaneModel, mode: str) -> LaneModel:
    """Restrict the lane to one half of the row, re-applying margins.

    right_half replaces the left border with the middle line (the rover
    then travels centered in the right half, i.e. at 3/4 of the full row
    width from the left border); left_half mirrors that.
    """
    if mode == "full":
        return lane
    if mode == "right_half":
        new_left = BorderLine(lane.middle.a, lane.middle.b, "left")
        return apply_safety_margin(LaneModel(new_left, lane.right, 0.0), lane.margin)
    if mode == "left_half":
        new_right = BorderLine(lane.middle.a, lane.middle.b, "right")
        return apply_safety_margin(LaneModel(lane.left, new_right, 0.0), lane.margin)
    raise ValueError(f"unknown lane mode: {mode!r}")


def validate_lane(lane: LaneModel, max_perp_angle: float) -> str | None:
    """Return a rejection reason, or None when the lane is usable."""
    for border in (lane.left, lane.right):
        if abs(math.atan(border.a)) >= max_perp_angle:
            return (f"{border.side} border at "
                    f"{math.degrees(math.atan(border.a)):.1f} deg is too close "
                    f"to perpendicular")
    if lane.inflated_left.b <= lane.inflated_right.b:
        return "corridor collapsed after margin inflation"
    return None


def _cap_obstacles(points: np.ndarray, limit: int) -> np.ndarray:
    """Keep the points nearest the forward travel ray, balanced by side.

    Distance is measured to the ray {(t, 0): t >= 0} rather than to the
    rover point: a pure range cap fills up with lateral wall cells and can
    starve the controller of the actual blocking obstacle ahead. Selection
    alternates between the y > 0 and y <= 0 sides so a marginally nearer
    wall cannot crowd the other border out of the constraint set.
    """
    if len(points) <= limit:
        return points
    ray_dist = np.where(points[:, 0] >= 0.0,
                        np.abs(points[:, 1]),
                        np.hypot(points[:, 0], points[:, 1]))
    rng = np.hypot(points[:, 0], points[:, 1])
    order = np.lexsort((rng, ray_dist))
    pos = [i for i in order if points[i, 1] > 0.0]
    neg = [i for i in order if points[i, 1] <= 0.0]
    chosen: list[int] = []
    rank = 0
    while len(chosen) < limit and (rank < len(pos) or rank < len(neg)):
        pair = [side[rank] for side in (pos, neg) if rank < len(side)]
        pair.sort(key=lambda i: (ray_dist[i], rng[i]))
        for i in pair:
            if len(chosen) < limit:
                chosen.append(i)
        rank += 1
    return points[np.array(chosen)]


def process(cloud, cfg: PipelineConfig) -> PerceptionResult:
    """Run the full pipeline on a rover-frame cloud.

    The empty-view fraction compares the point count after the height crop
    against the count entering it (after downsampling and noise removal):
    voxelization changes the raw count by a sensor-dependent factor, which
    would make a raw-count ratio meaningless. Obstacle points are the
    occupied cell centers before the occlusion fill (filled cells are not
    physical obstacles), capped at cfg.max_obstacle_points. Points with a
    NaN or infinite coordinate (invalid depth returns) are dropped first.
    """
    pts = _as_cloud(cloud)
    finite = np.isfinite(pts)
    if not finite.all():  # the row mask and its copy cost ms on a dense frame
        pts = pts[finite.all(axis=1)]
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

    borders: dict[str, BorderLine | None] = {"left": None, "right": None}
    for side, samples in (("left", left_samples), ("right", right_samples)):
        # A mid-lane obstacle owns the innermost cell of its columns, which
        # would drag the fitted border into the corridor: samples sitting
        # far inside the side's median lateral distance are obstacle
        # evidence, not border evidence.
        if len(samples) and cfg.border_inlier_frac > 0.0:
            med = np.median(np.abs(samples[:, 1]))
            samples = samples[np.abs(samples[:, 1])
                              >= cfg.border_inlier_frac * med]
        # A sliver of columns produces wildly extrapolated fits; demand a
        # minimum forward extent of evidence before trusting a side.
        if len(samples) and np.ptp(samples[:, 0]) < cfg.min_border_span:
            continue
        try:
            borders[side] = fit_border_line(samples, side)
        except InsufficientSamples:
            pass
    if borders["left"] is None or borders["right"] is None:
        missing = [s for s in ("left", "right") if borders[s] is None]
        return PerceptionResult(PerceptionStatus.INVALID_LANE, obstacles=obstacles,
                                reason=f"missing border: {', '.join(missing)}")

    # Two sanity checks a hallucinated lane (both fits on the same physical
    # wall, seen obliquely) fails while any real row passes: the row sides
    # are near-parallel, and the sensor sits between them.
    divergence = abs(math.atan(borders["left"].a) - math.atan(borders["right"].a))
    if divergence > cfg.max_border_divergence:
        return PerceptionResult(PerceptionStatus.INVALID_LANE, obstacles=obstacles,
                                reason=f"borders diverge by {divergence:.2f} rad")
    if not (borders["left"].b > 0.0 > borders["right"].b):
        return PerceptionResult(PerceptionStatus.INVALID_LANE, obstacles=obstacles,
                                reason="sensor origin outside the fitted corridor")

    try:
        lane = apply_safety_margin(
            LaneModel(borders["left"], borders["right"], 0.0), cfg.safety_margin_R)
        lane = split_lane(lane, cfg.lane_mode)
    except CorridorCollapsed as exc:
        return PerceptionResult(PerceptionStatus.INVALID_LANE, obstacles=obstacles,
                                reason=str(exc))
    problem = validate_lane(lane, cfg.max_perp_angle)
    if problem is not None:
        return PerceptionResult(PerceptionStatus.INVALID_LANE, obstacles=obstacles,
                                reason=problem)
    return PerceptionResult(PerceptionStatus.OK, lane=lane, obstacles=obstacles)
