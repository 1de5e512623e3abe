import numpy as np
import pytest

from mhdlab.errors import ConfigError
from mhdlab.snapshots import read_snapshot, write_snapshot
from mhdlab.grid import Grid


def test_roundtrip_bit_exact(tmp_path):
    g = Grid(shape=(9, 8, 1), extents=(1.5, 2.0, 1.0))
    rng = np.random.default_rng(7)
    arr = rng.standard_normal((3, 9, 8, 1))
    # awkward floats on purpose: subnormals, negative zero, huge values
    arr[0, 0, 0, 0] = 5e-324
    arr[1, 1, 1, 0] = -0.0
    arr[2, 2, 2, 0] = 1e300
    path = tmp_path / "field.dat"
    write_snapshot(path, g, "H", 0.125, arr)
    g2, name, t, back = read_snapshot(path)
    assert name == "H"
    assert t == 0.125
    assert g2.shape == g.shape
    assert g2.extents == g.extents
    assert back.shape == arr.shape
    # bit-exact: compare raw representations, not values (catches -0.0)
    assert np.array_equal(
        back.view(np.uint64), np.ascontiguousarray(arr).view(np.uint64)
    )


def test_scalar_field_roundtrip(tmp_path):
    g = Grid(shape=(5, 1, 1), extents=(np.pi, 1.0, 1.0))
    arr = np.linspace(0.0, 1.0, 5).reshape(5, 1, 1)
    path = tmp_path / "rho.dat"
    write_snapshot(path, g, "rho", 3.0, arr)
    _, name, t, back = read_snapshot(path)
    assert name == "rho"
    assert t == 3.0
    assert np.array_equal(back, arr)


def test_rejects_garbage(tmp_path):
    path = tmp_path / "bad.dat"
    path.write_bytes(b"not a snapshot at all")
    with pytest.raises(ConfigError):
        read_snapshot(path)


def test_rejects_truncated_payload(tmp_path):
    g = Grid(shape=(5, 5, 1), extents=(1.0, 1.0, 1.0))
    arr = np.ones((5, 5, 1))
    path = tmp_path / "trunc.dat"
    write_snapshot(path, g, "theta", 0.0, arr)
    blob = path.read_bytes()
    path.write_bytes(blob[:-16])
    with pytest.raises(ConfigError, match="payload"):
        read_snapshot(path)
