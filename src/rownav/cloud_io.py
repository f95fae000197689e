"""File formats for point clouds and debug occupancy grids.

Clouds travel either as plain text (one "x y z" triple per line, meters)
or as packed little-endian float32 triples; the extension picks the
format (.xyz/.txt = text, .bin = binary). Occupancy grids can be dumped
as PGM images for eyeballing (0 = free, 255 = occupied).
"""

from __future__ import annotations

import os

import numpy as np

from .pipeline import OccupancyGrid

_TEXT_EXTS = {".xyz", ".txt"}
_BINARY_EXTS = {".bin"}


def _format_of(path: str) -> str:
    ext = os.path.splitext(path)[1].lower()
    if ext in _TEXT_EXTS:
        return "text"
    if ext in _BINARY_EXTS:
        return "binary"
    raise ValueError(f"unsupported cloud extension {ext!r} "
                     f"(expected one of {sorted(_TEXT_EXTS | _BINARY_EXTS)})")


def read_cloud(path: str) -> np.ndarray:
    """Load an (N, 3) cloud; format chosen by file extension."""
    if _format_of(path) == "text":
        data = np.loadtxt(path, dtype=float, ndmin=2)
        if data.size and data.shape[1] != 3:
            raise ValueError(f"{path}: rows hold {data.shape[1]} numbers, not x y z")
        return data.reshape(-1, 3)
    raw = np.fromfile(path, dtype="<f4")
    if raw.size % 3 != 0:
        raise ValueError(f"{path}: byte length is not a whole number of xyz triples")
    return raw.reshape(-1, 3).astype(float)


def write_cloud(path: str, cloud) -> None:
    """Save an (N, 3) cloud; format chosen by file extension. Anything
    else, an empty cloud included, raises ValueError."""
    pts = np.asarray(cloud, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) == 0:
        raise ValueError(f"cloud must be a non-empty (N, 3) array, got shape {pts.shape}")
    if _format_of(path) == "text":
        np.savetxt(path, pts, fmt="%.6f")
    else:
        pts.astype("<f4").tofile(path)


def write_pgm(grid: OccupancyGrid, path: str) -> None:
    """Dump a grid as ASCII PGM; rows run along x (near row first)."""
    vals = np.where(grid.occupied, 255, 0)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("P2\n")
        fh.write(f"# occupancy grid, cell={grid.cell} m\n")
        fh.write(f"{grid.ny} {grid.nx}\n255\n")
        for i in range(grid.nx):
            fh.write(" ".join(str(v) for v in vals[i]) + "\n")


def read_pgm(path: str) -> np.ndarray:
    """Read back a P2 grid dump as a boolean (nx, ny) array."""
    with open(path, "r", encoding="ascii") as fh:
        tokens: list[str] = []
        for line in fh:
            line = line.split("#", 1)[0]
            tokens.extend(line.split())
    if len(tokens) < 4 or tokens[0] != "P2":
        raise ValueError(f"{path}: not an ASCII PGM file")
    width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    if len(tokens) - 4 != width * height:
        raise ValueError(f"{path}: {len(tokens) - 4} pixel values for a "
                         f"{width} x {height} grid")
    vals = np.array(tokens[4:], dtype=int).reshape(height, width)
    if maxval <= 0:
        raise ValueError(f"{path}: bad maxval {maxval}")
    return vals > maxval // 2
