import numpy as np
import pytest

from rownav.cloud_io import read_cloud, read_pgm, write_cloud, write_pgm
from rownav.pipeline import project_to_grid
from rownav.sim import WorldSpec, generate_world


def test_xyz_round_trip(tmp_path):
    cloud = np.random.default_rng(0).uniform(-5, 5, size=(40, 3))
    path = str(tmp_path / "cloud.xyz")
    write_cloud(path, cloud)
    back = read_cloud(path)
    np.testing.assert_allclose(back, cloud, atol=1e-6)


def test_binary_round_trip(tmp_path):
    cloud = np.random.default_rng(1).uniform(-5, 5, size=(40, 3))
    path = str(tmp_path / "cloud.bin")
    write_cloud(path, cloud)
    back = read_cloud(path)
    np.testing.assert_allclose(back, cloud, atol=1e-6)  # float32 storage


def test_unknown_extension_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_cloud(str(tmp_path / "cloud.csv"), np.zeros((1, 3)))


@pytest.mark.parametrize("ext", [".xyz", ".bin"])
@pytest.mark.parametrize("cloud", [
    [[1, 2], [3, 4], [5, 6]],                    # six numbers, not two points
    [1.0, 2.0, 3.0],
    np.zeros((2, 4)),
    np.zeros((2, 3, 1)),
    np.zeros((0, 3)),
])
def test_write_rejects_a_cloud_not_n_by_3(tmp_path, ext, cloud):
    path = tmp_path / f"cloud{ext}"
    with pytest.raises(ValueError, match=r"\(N, 3\)"):
        write_cloud(str(path), cloud)
    assert not path.exists()


def test_truncated_binary_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\x00" * 10)  # not a multiple of 12
    with pytest.raises(ValueError):
        read_cloud(str(path))


@pytest.mark.parametrize("rows", ["1 2\n3 4\n5 6\n", "1 2 3 9\n4 5 6 9\n7 8 9 9\n"],
                         ids=["xy", "xyz-intensity"])
def test_text_cloud_without_three_columns_rejected(tmp_path, rows):
    path = tmp_path / "bad.xyz"
    path.write_text(rows)
    with pytest.raises(ValueError, match="bad.xyz"):
        read_cloud(str(path))


def test_empty_pgm_rejected(tmp_path):
    path = tmp_path / "empty.pgm"
    path.write_text("")
    with pytest.raises(ValueError, match="empty.pgm"):
        read_pgm(str(path))


def test_pgm_with_missing_pixels_rejected(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_text("P2\n3 2\n255\n0 255 0\n255 0\n")
    with pytest.raises(ValueError, match="short.pgm"):
        read_pgm(str(path))


def test_pgm_round_trip(tmp_path):
    grid = project_to_grid([(1.0, 0.5, 1.0), (2.0, -0.7, 1.0)])
    path = str(tmp_path / "grid.pgm")
    write_pgm(grid, path)
    with open(path) as fh:
        header = fh.readline().strip()
    assert header == "P2"
    back = read_pgm(path)
    np.testing.assert_array_equal(back, grid.occupied)


def test_world_export_feeds_pipeline(tmp_path):
    world = generate_world(WorldSpec(row_length=6.0, seed=9))
    path = str(tmp_path / "world.xyz")
    write_cloud(path, world.points)
    cloud = read_cloud(path)
    assert cloud.shape == world.points.shape
    np.testing.assert_allclose(cloud, world.points, atol=1e-6)
