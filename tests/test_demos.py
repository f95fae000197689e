"""Smoke test: the quick demos run to completion against the current package.

Each demo runs from a copy in a temporary directory, so the files it writes
(demo 01's PGM grids next to itself, demo 05's scratch directory under
TMPDIR) stay out of the source tree. Demos 03 and 04 take tens of seconds
each and are left out.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["01_perception_pipeline", "02_controller_solo",
                                  "05_cli_workflow"])
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
