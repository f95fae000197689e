"""The benchmark's workloads and how a run gets its inputs.

Every module of the benchmark imports rownav through import_rownav(), so
a run always measures the source tree of the checkout it sits in, never
an installed copy.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Each workload stresses a different layer; see README.md for why.
WORKLOADS = {
    "row_straight": SRC / "rownav" / "scenarios" / "sim_straight.yaml",
    "row_obstacle": SRC / "rownav" / "scenarios" / "sim_obstacle.yaml",
    "pergola_dense": BENCH / "pergola_dense.yaml",
}

# "scenario": the world seed written in the scenario file, whatever --seed
# is. "seed": --seed becomes the world seed (plants, canopy and depth noise).
WORLD_CHOICES = ("scenario", "seed")


def import_rownav():
    """Import rownav from this checkout's src/ and fail if it resolves elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import rownav
    found = Path(rownav.__file__).resolve().parent
    if found != SRC / "rownav":
        raise SystemExit(f"rownav imported from {found}, not from {SRC}")
    return rownav


def load_workload(name: str, seed: int, worlds: str):
    """Load and validate the workload's scenario, with its world seed set."""
    from rownav.config import load_scenario

    cfg = load_scenario(str(WORKLOADS[name]))
    if worlds == "seed":
        cfg.world.seed = seed
    elif worlds != "scenario":
        raise ValueError(f"worlds must be one of {WORLD_CHOICES}")
    return cfg
