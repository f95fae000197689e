"""Deterministic desk-scale vineyard simulator.

Generates two plant rows around an analytic centerline (straight or a
circular arc), renders depth clouds against the plant points and the
ground plane, integrates the rover with the exact unicycle update, and
closes the loop with the mission supervisor. One renderer serves every
depth sensor: a `CameraSpec` is a ray lattice, a limited-FOV depth camera
by default and a 360-degree sweep sensor with `h_fov = 2*pi`. Everything
is driven by a single seed, so identical inputs give bit-identical logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import ControlInput, Point2, QuatPose, heading_of, pose_from, wrap_angle
from .nmpc import NmpcConfig, NmpcController, SolverStatus
from .pipeline import PerceptionStatus, PipelineConfig, process
from .supervisor import (APPROACH_DONE_TOL, Detection, FallbackConfig,
                         MissionSupervisor, Mode)

HIT_RADIUS = 0.025   # m; the renderer sees each world point as a disk of this radius
SPLAT_MAX = 4        # rays; a disk splats onto at most this many rays each side of its centre


@dataclass
class ObstacleSpec:
    x: float = 0.0
    y: float = 0.0
    radius: float = 0.1

    def validate(self, path: str = "obstacle") -> list[str]:
        return [] if self.radius > 0 else [f"{path}.radius: must be > 0"]


@dataclass
class WorldSpec:
    row_length: float = 20.0          # measured traversal span, m
    intra_row_space: float = 1.5      # lateral distance between rows, m
    curvature: float = 0.0            # 1/m; 0 = straight
    plant_spacing: float = 0.75       # m along the row
    plant_radius: float = 0.2         # canopy radius, m
    plant_height: float = 2.0         # m
    canopy_points_per_plant: int = 220
    pergola: bool = False             # overhead canopy above the crop band
    noise_sigma: float = 0.0          # depth noise along the ray, m
    seed: int = 0
    extra_obstacles: list[ObstacleSpec] = field(default_factory=list)
    canopy_overhang: float = 0.0      # plants continue this far past row_length

    def validate(self, path: str = "world") -> list[str]:
        errs = [f"{path}.{name}: must be > 0"
                for name in ("row_length", "intra_row_space", "plant_spacing",
                             "plant_radius", "plant_height")
                if not getattr(self, name) > 0]
        if self.canopy_points_per_plant < 1:
            errs.append(f"{path}.canopy_points_per_plant: must be >= 1")
        errs += [f"{path}.{name}: must be >= 0"
                 for name in ("noise_sigma", "canopy_overhang", "seed")
                 if getattr(self, name) < 0]
        if abs(self.curvature) > 0:
            if 1.0 / abs(self.curvature) <= self.intra_row_space:
                errs.append(f"{path}.curvature: turn radius must exceed the row spacing")
        return errs


@dataclass
class CameraSpec:
    h_fov: float = math.radians(87.0)
    v_fov: float = math.radians(58.0)
    max_range: float = 6.0
    rays_h: int = 160
    rays_v: int = 90
    mount_height: float = 0.4

    def validate(self, path: str = "camera") -> list[str]:
        errs = []
        if not 0.0 < self.h_fov <= 2.0 * math.pi:
            errs.append(f"{path}.h_fov: must be in (0, 2*pi] radians")
        if not 0.0 < self.v_fov < math.pi:
            errs.append(f"{path}.v_fov: must be in (0, pi) radians")
        if not self.max_range > 0:
            errs.append(f"{path}.max_range: must be > 0")
        if self.rays_h < 2 or self.rays_v < 2:
            errs.append(f"{path}.rays_h/rays_v: must be >= 2")
        if not self.mount_height > 0:
            errs.append(f"{path}.mount_height: must be > 0")
        return errs


@dataclass
class TargetSpec:
    x: float = 0.0
    y: float = 0.0
    standoff: float = 0.5
    detection_range: float = 4.0

    def validate(self, path: str = "target") -> list[str]:
        errs = []
        if not self.standoff > 0:
            errs.append(f"{path}.standoff: must be > 0")
        if not self.detection_range > 0:
            errs.append(f"{path}.detection_range: must be > 0")
        return errs


@dataclass(frozen=True)
class Centerline:
    """Analytic reference path starting at the origin heading +x."""

    curvature: float = 0.0

    def point(self, s: float) -> tuple[float, float]:
        k = self.curvature
        if abs(k) < 1e-12:
            return (s, 0.0)
        return (math.sin(k * s) / k, (1.0 - math.cos(k * s)) / k)

    def tangent_angle(self, s: float) -> float:
        return self.curvature * s

    def normal(self, s: float) -> tuple[float, float]:
        t = self.tangent_angle(s)
        return (-math.sin(t), math.cos(t))

    def project(self, x: float, y: float) -> tuple[float, float]:
        """Arc-length coordinate and signed lateral offset (positive left)."""
        k = self.curvature
        if abs(k) < 1e-12:
            return (x, y)
        vx = x
        vy = y - 1.0 / k
        phi = math.atan2(k * vx, -k * vy)
        s = phi / k
        r = math.hypot(vx, vy)
        lateral = (1.0 - abs(k) * r) / k
        return (s, lateral)


@dataclass
class World:
    spec: WorldSpec
    centerline: Centerline
    points: np.ndarray        # (N, 3) world frame
    stems: np.ndarray         # (M, 2) collision circle centers
    stem_radii: np.ndarray    # (M,)


def generate_world(spec: WorldSpec) -> World:
    """Plant two rows of seeded-random canopy clusters around the centerline."""
    rng = np.random.default_rng(spec.seed)
    planted = spec.row_length + spec.canopy_overhang
    line = Centerline(spec.curvature)
    half = spec.intra_row_space / 2.0

    points: list[np.ndarray] = []
    stems: list[tuple[float, float]] = []
    radii: list[float] = []

    s_values = np.arange(0.0, planted + 1e-9, spec.plant_spacing)
    for side in (1.0, -1.0):
        for s in s_values:
            cx, cy = line.point(s)
            nx, ny = line.normal(s)
            sx = cx + side * half * nx
            sy = cy + side * half * ny
            stems.append((sx, sy))
            radii.append(spec.plant_radius)
            u = rng.random((spec.canopy_points_per_plant, 3))
            r = spec.plant_radius * np.sqrt(u[:, 0])
            phi = 2.0 * math.pi * u[:, 1]
            z = spec.plant_height * (1.0 - u[:, 2])
            points.append(np.column_stack([sx + r * np.cos(phi),
                                           sy + r * np.sin(phi), z]))

    if spec.pergola:
        # Overhead canopy spanning the corridor, above the usable crop band.
        per_step = max(10, spec.canopy_points_per_plant // 2)
        for s in s_values:
            cx, cy = line.point(s)
            nx, ny = line.normal(s)
            u = rng.random((per_step, 2))
            lat = (u[:, 0] - 0.5) * spec.intra_row_space
            z = 2.2 + 0.6 * u[:, 1]
            points.append(np.column_stack([cx + lat * nx, cy + lat * ny, z]))

    for obs in spec.extra_obstacles:
        count = max(60, int(300 * obs.radius))
        u = rng.random((count, 3))
        r = obs.radius * np.sqrt(u[:, 0])
        phi = 2.0 * math.pi * u[:, 1]
        z = 0.2 + 0.6 * u[:, 2]
        points.append(np.column_stack([obs.x + r * np.cos(phi),
                                       obs.y + r * np.sin(phi), z]))
        stems.append((obs.x, obs.y))
        radii.append(obs.radius)

    cloud = np.vstack(points) if points else np.zeros((0, 3))
    return World(spec=spec, centerline=line, points=cloud,
                 stems=np.array(stems, dtype=float).reshape(-1, 2),
                 stem_radii=np.array(radii, dtype=float))


def _to_rover_frame(points: np.ndarray, pose: QuatPose) -> np.ndarray:
    theta = heading_of(pose)
    c, s = math.cos(theta), math.sin(theta)
    dx = points[:, 0] - pose.x1
    dy = points[:, 1] - pose.x2
    out = np.empty_like(points)
    out[:, 0] = c * dx + s * dy
    out[:, 1] = -s * dx + c * dy
    out[:, 2] = points[:, 2]
    return out


def render_cloud(world: World, pose: QuatPose, cam: CameraSpec,
                 rng: np.random.Generator | None = None) -> np.ndarray:
    """Rover-frame depth cloud: the nearest return on each ray of the lattice.

    Ray (i, j) points at azimuth -h_fov/2 + (i + 0.5) h_fov/rays_h and
    elevation -v_fov/2 + (j + 0.5) v_fov/rays_v. Each world point is a disk
    of radius HIT_RADIUS; a ray that meets none but tilts downward returns
    the ground plane, like a depth camera staring at open dirt. With
    h_fov = 2*pi the lattice is a 360-degree sweep whose azimuth wraps at
    +-pi. Seeded noise is added along each hit ray, in ray order.
    """
    n_az, n_el = cam.rays_h, cam.rays_v
    az_lo, d_az = -cam.h_fov / 2.0, cam.h_fov / n_az
    el_lo, d_el = -cam.v_fov / 2.0, cam.v_fov / n_el
    mount = cam.mount_height

    rel = _to_rover_frame(world.points, pose)
    rel[:, 2] -= mount
    rho = np.linalg.norm(rel, axis=1)
    near = (rho > 0.05) & (rho <= cam.max_range + HIT_RADIUS)
    rel = rel[near]
    rho = rho[near]
    az = np.arctan2(rel[:, 1], rel[:, 0])
    el = np.arctan2(rel[:, 2], np.hypot(rel[:, 0], rel[:, 1]))

    # Continuous ray indices: ray i sits at az_lo + (i + 0.5) * d_az.
    i0 = np.round((az - az_lo) / d_az - 0.5).astype(int)
    j0 = np.round((el - el_lo) / d_el - 0.5).astype(int)
    delta = np.arcsin(HIT_RADIUS / rho)       # rho > 0.05 > HIT_RADIUS
    si = np.minimum(np.ceil(delta / d_az).astype(int), SPLAT_MAX)
    sj = np.minimum(np.ceil(delta / d_el).astype(int), SPLAT_MAX)

    # Keep the points whose disk reaches the lattice. Their centres then
    # lie within SPLAT_MAX rays of it, and their splats within 2 * SPLAT_MAX,
    # so they all land in a z-buffer with that margin on every side and no
    # splat needs a bounds check. A 360-degree sweep reaches every azimuth.
    wrap = cam.h_fov == 2.0 * math.pi
    reach = (j0 + sj >= 0) & (j0 - sj < n_el)
    if wrap:
        i0 %= n_az
    else:
        reach &= (i0 + si >= 0) & (i0 - si < n_az)
    margin = 2 * SPLAT_MAX
    n_col = n_el + 2 * margin
    base = (i0[reach] + margin) * n_col + (j0[reach] + margin)
    rho, si, sj = rho[reach], si[reach], sj[reach]

    # z-buffer over ray ids: each point splats its range onto the rays
    # within its disk, and each ray keeps the minimum, whatever the order
    # of the writes.
    buf = np.full((n_az + 2 * margin) * n_col, np.inf)
    max_si, max_sj = int(si.max(initial=0)), int(sj.max(initial=0))
    within_i = [si >= d for d in range(max_si + 1)]
    within_j = [sj >= d for d in range(max_sj + 1)]
    for di in range(-max_si, max_si + 1):
        for dj in range(-max_sj, max_sj + 1):
            mask = within_i[abs(di)] & within_j[abs(dj)]
            np.minimum.at(buf, base[mask] + (di * n_col + dj), rho[mask])
    buf = buf.reshape(-1, n_col)[:, margin:margin + n_el]
    if wrap:
        # The sweep folds its azimuth margin back onto the lattice, as many
        # times round as it takes when rays_h is below the margin.
        img = np.full((n_az, n_el), np.inf)
        np.minimum.at(img, (np.arange(len(buf)) - margin) % n_az, buf)
    else:
        img = buf[margin:margin + n_az]

    az_centers = az_lo + (np.arange(n_az) + 0.5) * d_az
    el_centers = el_lo + (np.arange(n_el) + 0.5) * d_el
    sin_el = np.sin(el_centers)
    with np.errstate(divide="ignore"):
        ground = np.where(sin_el < 0.0, mount / -sin_el, np.inf)
    img = np.minimum(img, ground)

    # Back-project each hit through per-ray trig tables, which hold the
    # values that trig on the gathered angles would give.
    rays = np.flatnonzero(img <= cam.max_range)
    ray_i, ray_j = np.divmod(rays, n_el)
    ranges = img.ravel()[rays]
    if world.spec.noise_sigma > 0.0 and rng is not None:
        ranges = ranges + rng.normal(0.0, world.spec.noise_sigma, size=len(ranges))
    out = np.empty((len(ranges), 3))
    range_xy = ranges * np.cos(el_centers)[ray_j]
    np.multiply(range_xy, np.cos(az_centers)[ray_i], out=out[:, 0])
    np.multiply(range_xy, np.sin(az_centers)[ray_i], out=out[:, 1])
    np.multiply(ranges, sin_el[ray_j], out=out[:, 2])
    out[:, 2] += mount
    return out


def step_rover(pose: QuatPose, u: ControlInput, dt: float) -> QuatPose:
    """Exact unicycle update under zero-order-hold inputs."""
    theta = heading_of(pose)
    if abs(u.omega) < 1e-12:
        return pose_from(pose.x1 + u.v * dt * math.cos(theta),
                         pose.x2 + u.v * dt * math.sin(theta),
                         theta)
    theta2 = theta + u.omega * dt
    x = pose.x1 + u.v / u.omega * (math.sin(theta2) - math.sin(theta))
    y = pose.x2 - u.v / u.omega * (math.cos(theta2) - math.cos(theta))
    return pose_from(x, y, wrap_angle(theta2))


@dataclass(frozen=True)
class TickRecord:
    t: float
    pose: QuatPose
    command: ControlInput
    mode: Mode
    perception_status: PerceptionStatus
    solver_status: SolverStatus | None
    note: str = ""


@dataclass
class RunLog:
    records: list[TickRecord]
    completed: bool = False
    collision: bool = False
    collision_note: str = ""

    @property
    def collisions(self) -> int:
        return 1 if self.collision else 0


def _check_collision(world: World, pose: QuatPose) -> str | None:
    if len(world.stems) == 0:
        return None
    d = np.hypot(world.stems[:, 0] - pose.x1, world.stems[:, 1] - pose.x2)
    hit = d < world.stem_radii
    if hit.any():
        i = int(np.argmin(np.where(hit, d, np.inf)))
        return (f"rover center {d[i]:.3f} m from stem at "
                f"({world.stems[i, 0]:.2f}, {world.stems[i, 1]:.2f})")
    return None


def run_scenario(world: World, start_pose: QuatPose, camera: CameraSpec,
                 pipeline_cfg: PipelineConfig, nmpc_cfg: NmpcConfig,
                 fallback_cfg: FallbackConfig | None = None,
                 targets: list[TargetSpec] | None = None,
                 max_ticks: int = 400) -> RunLog:
    """Closed loop: render, perceive, supervise, step; stop at end of row,
    collision, or the tick budget."""
    controller = NmpcController(nmpc_cfg)
    supervisor = MissionSupervisor(controller, fallback_cfg or FallbackConfig())
    noise_rng = np.random.default_rng([world.spec.seed, 1])
    pose = start_pose
    pending = list(targets or [])
    log = RunLog(records=[])

    for k in range(max_ticks):
        t = k * nmpc_cfg.dt
        cloud = render_cloud(world, pose, camera, noise_rng)
        perception = process(cloud, pipeline_cfg)

        detection = None
        theta = heading_of(pose)
        for tgt in list(pending):
            dx, dy = tgt.x - pose.x1, tgt.y - pose.x2
            dist = math.hypot(dx, dy)
            if dist <= tgt.standoff + APPROACH_DONE_TOL:
                pending.remove(tgt)
                continue
            bearing = wrap_angle(math.atan2(dy, dx) - theta)
            if dist <= tgt.detection_range and abs(bearing) <= camera.h_fov / 2.0:
                c, s = math.cos(theta), math.sin(theta)
                detection = Detection(Point2(c * dx + s * dy, -s * dx + c * dy),
                                      tgt.standoff)
                break

        cmd, info = supervisor.tick(pose, perception, detection)
        log.records.append(TickRecord(t, pose, cmd, info.mode,
                                      info.perception_status, info.solver_status,
                                      info.note))
        if info.mode is Mode.END_OF_ROW:
            log.completed = True
            break
        pose = step_rover(pose, cmd, nmpc_cfg.dt)
        hit = _check_collision(world, pose)
        if hit is not None:
            log.collision = True
            log.collision_note = hit
            break
    return log
