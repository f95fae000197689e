#!/usr/bin/env python3
"""Walk one depth frame through the perception pipeline, stage by stage.

Generates a narrow vineyard, renders a single camera frame from the row
entrance, and prints what each stage of the pipeline does to it. Writes
the pre- and post-occlusion occupancy grids as PGM images next to this
script.
"""

import os

import numpy as np

from rownav.cloud_io import write_pgm
from rownav.core import pose_from
from rownav.pipeline import (F_POINTS, KNN_K, KNN_STD_RATIO, R_V, Z_TH_MAX,
                             Z_TH_MIN, PipelineConfig, fov_empty_check,
                             height_crop, knn_outlier_filter, project_to_grid,
                             shadow_fill, process, voxel_downsample)
from rownav.sim import CameraSpec, WorldSpec, generate_world, render_cloud

out_dir = os.path.dirname(os.path.abspath(__file__))

world = generate_world(WorldSpec(row_length=20.0, intra_row_space=1.5,
                                 noise_sigma=0.005, seed=42))
camera = CameraSpec()
pose = pose_from(2.0, 0.05, 0.02)
cloud = render_cloud(world, pose, camera, np.random.default_rng(1))
print(f"rendered frame: {len(cloud)} points "
      f"(z from {cloud[:, 2].min():.2f} to {cloud[:, 2].max():.2f} m)")

down = voxel_downsample(cloud, R_V)
print(f"voxel downsample @ {R_V} m: {len(down)} points")

filtered = knn_outlier_filter(down, KNN_K, KNN_STD_RATIO)
print(f"k-NN noise filter (k={KNN_K}): {len(filtered)} points")

cropped = height_crop(filtered, Z_TH_MIN, Z_TH_MAX)
frac = len(cropped) / len(filtered)
print(f"height crop [{Z_TH_MIN}, {Z_TH_MAX}] m: {len(cropped)} points "
      f"({frac:.0%} survive; empty-view threshold is {F_POINTS:.0%})")
assert not fov_empty_check(len(cropped), len(filtered), F_POINTS)

occupied = project_to_grid(cropped)
write_pgm(occupied, os.path.join(out_dir, "grid_raw.pgm"))
filled = shadow_fill(occupied)
write_pgm(filled, os.path.join(out_dir, "grid_filled.pgm"))
print(f"occupancy grid: {occupied.sum()} cells occupied, "
      f"{filled.sum()} after occlusion fill "
      "(see grid_raw.pgm / grid_filled.pgm)")

result = process(cloud, PipelineConfig())
lane = result.lane
print(f"\npipeline verdict: {result.status.value}")
print(f"  left border   y = {lane.left.a:+.3f} x + {lane.left.b:+.3f}")
print(f"  right border  y = {lane.right.a:+.3f} x + {lane.right.b:+.3f}")
print(f"  middle line   y = {lane.middle.a:+.3f} x + {lane.middle.b:+.3f}")
print(f"  inflated corridor at x=0: [{lane.inflated_right.b:+.3f}, "
      f"{lane.inflated_left.b:+.3f}]")
print(f"  {len(result.obstacles)} obstacle points forwarded to the controller")
