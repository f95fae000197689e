#!/usr/bin/env python3
"""Camera vs 360-degree sweep sensor on the same straight row.

Both are a `CameraSpec` fed to the same closed loop (`run_scenario`), the
sweep sensor with `h_fov = 2*pi`; only the depth source changes. Prints
one metric row per sensor, plus the same row re-run at a second seed to
show run-to-run spread.
"""

import math

from rownav.core import pose_from
from rownav.metrics import compute_report
from rownav.nmpc import NmpcConfig
from rownav.pipeline import PipelineConfig
from rownav.sim import CameraSpec, WorldSpec, generate_world, run_scenario

SWEEP = CameraSpec(h_fov=2.0 * math.pi, v_fov=math.radians(30.0), max_range=12.0,
                   rays_h=720, rays_v=16, mount_height=0.5)

print(f"{'sensor':<14} {'seed':>4} {'clearance':>10} {'v_avg':>7} "
      f"{'omega_std':>10} {'mae':>7}")
for seed in (42, 43):
    spec = WorldSpec(row_length=20.0, intra_row_space=1.5, seed=seed,
                     noise_sigma=0.005, canopy_overhang=4.0)
    world = generate_world(spec)
    for label, sensor in (("depth camera", CameraSpec()), ("sweep lidar", SWEEP)):
        log = run_scenario(world, pose_from(0, 0, 0), sensor, PipelineConfig(),
                           NmpcConfig(), max_ticks=140)
        if not log.completed:
            print(f"{label:<14} {seed:>4} {'did not finish':>10}")
            continue
        rep = compute_report(log, world.centerline, spec.row_length)
        print(f"{label:<14} {seed:>4} {rep.clearance_time:>9.1f}s "
              f"{rep.v_avg:>7.3f} {rep.omega_std:>10.3f} {rep.mae:>7.3f}")
