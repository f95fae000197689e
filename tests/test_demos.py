"""Smoke test: the quick demos run to completion against the current package.

Each demo runs from a copy in a temporary directory, so the files it writes
(demo 01's PGM grids next to itself, demo 05's scratch directory under
TMPDIR) stay out of the source tree. Demo 01 must print the stage counts
and lane recorded below, so a change to any perception stage shows here.
Demo 02's post 2 cm off the axis must get a converged plan that turns.
Demo 04's metric table must read as recorded below, so a change to the
renderer or the closed loop that moves either sensor's run shows here.
Demo 03 takes tens of seconds and is left out.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


# Demo 01's report of each stage, from the rendered frame to the lane.
DEMO_01_LINES = [
    "rendered frame: 12526 points (z from -0.01 to 2.07 m)",
    "voxel downsample @ 0.05 m: 4878 points",
    "k-NN noise filter (k=10): 4542 points",
    "height crop [0.15, 2.0] m: 2628 points (58% survive; empty-view "
    "threshold is 20%)",
    "occupancy grid: 498 cells occupied, 6997 after occlusion fill "
    "(see grid_raw.pgm / grid_filled.pgm)",
    "",
    "pipeline verdict: ok",
    "  left border   y = -0.037 x + +0.603",
    "  right border  y = -0.003 x + -0.691",
    "  middle line   y = -0.020 x + -0.044",
    "  inflated corridor at x=0: [-0.391, +0.303]",
    "  30 obstacle points forwarded to the controller",
]

# sensor, seed, clearance, v_avg, omega_std, mae
DEMO_04_ROWS = [
    "depth camera 42 50.4s 0.400 0.016 0.005",
    "sweep lidar 42 50.4s 0.400 0.021 0.006",
    "depth camera 43 50.4s 0.400 0.011 0.004",
    "sweep lidar 43 50.4s 0.400 0.027 0.008",
]


@pytest.mark.parametrize("name", ["01_perception_pipeline", "02_controller_solo",
                                  "04_sensor_comparison", "05_cli_workflow"])
def test_demo_runs(name, tmp_path):
    script = tmp_path / f"{name}.py"
    shutil.copy(REPO / "demos" / script.name, script)
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    if name == "05_cli_workflow":
        # run, check and sweep each report their exit code instead of raising
        assert proc.stdout.count("(exit 0)") == 3, proc.stdout
    if name == "02_controller_solo":
        block = next(b.splitlines() for b in proc.stdout.split("\n\n")
                     if "off the axis" in b)
        assert "status=converged" in block[1], proc.stdout
        omegas = [float(w) for w in re.findall(r"([-+][\d.]+) rad/s\)", "\n".join(block))]
        assert len(omegas) == 5 and any(omegas), proc.stdout
    if name == "01_perception_pipeline":
        assert proc.stdout.splitlines() == DEMO_01_LINES, proc.stdout
    if name == "04_sensor_comparison":
        rows = [" ".join(line.split()) for line in proc.stdout.splitlines()[1:]]
        assert rows == DEMO_04_ROWS, proc.stdout
