"""Occupancy masks dumped as PGM images for eyeballing (0 = free, 255 =
occupied)."""

from __future__ import annotations

import numpy as np

from .pipeline import GRID_CELL


def write_pgm(occupied, path: str) -> None:
    """Dump an occupancy mask over the grid lattice as ASCII PGM; rows run
    along x (near row first)."""
    vals = np.where(occupied, 255, 0)
    nx, ny = vals.shape
    with open(path, "w", encoding="ascii") as fh:
        fh.write("P2\n")
        fh.write(f"# occupancy grid, cell={GRID_CELL} m\n")
        fh.write(f"{ny} {nx}\n255\n")
        for i in range(nx):
            fh.write(" ".join(str(v) for v in vals[i]) + "\n")
