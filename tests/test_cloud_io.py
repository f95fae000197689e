import numpy as np

from rownav.cloud_io import write_pgm
from rownav.pipeline import GRID_NX, GRID_NY, project_to_grid


def test_pgm_round_trip(tmp_path):
    occupied = project_to_grid([(1.0, 0.5, 1.0), (2.0, -0.7, 1.0)])
    path = tmp_path / "grid.pgm"
    write_pgm(occupied, str(path))
    lines = path.read_text(encoding="ascii").splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "# occupancy grid, cell=0.05 m"
    # width (lateral cells), height (forward cells), maxval
    assert lines[2].split() == [str(GRID_NY), str(GRID_NX)]
    assert lines[3] == "255"
    rows = [[int(v) for v in line.split()] for line in lines[4:]]
    assert len(rows) == GRID_NX
    assert all(len(row) == GRID_NY for row in rows)
    np.testing.assert_array_equal(np.array(rows) == 255, occupied)
    assert {v for row in rows for v in row} == {0, 255}
