import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dfsphere.geometry import dfs_coord
from dfsphere.grids import (
    LatLonGrid,
    TorusGrid,
    dfs_double,
    grid_io_read,
    grid_io_write,
    sample_sphere,
)
from dfsphere.testfns import spherical_function, standard_combination


def coord_z(points):
    return np.asarray(points)[..., 2]


class TestSampleSphere:
    def test_constant(self):
        g = sample_sphere(lambda p: np.ones(np.asarray(p).shape[:-1]), 8, 4)
        assert_allclose(g.values, 1.0)

    def test_coordinate_column(self):
        # cos(theta) at theta = 0, pi/4, pi/2, 3pi/4, pi
        g = sample_sphere(coord_z, 8, 4)
        expected = [1.0, np.sqrt(2) / 2, 0.0, -np.sqrt(2) / 2, -1.0]
        for j, val in enumerate(expected):
            assert_allclose(g.values[j], val, atol=1e-15)

    def test_f3_matches_direct_formula(self):
        # oracle: evaluate the plateau formula directly at sampled grid nodes
        f = spherical_function(standard_combination())
        g = sample_sphere(f, 64, 32)
        rng = np.random.default_rng(0)
        rows = rng.integers(1, 32, size=100)
        cols = rng.integers(0, 64, size=100)
        lam = g.lambdas[cols]
        th = g.thetas[rows]
        pts = dfs_coord(lam, th)
        direct = np.zeros(100)
        for axis, w in [
            ((1.0, 0.0, 0.0), 1.0),
            ((0.0, 1.0, 0.0), 0.6),
            (tuple(-np.ones(3) / np.sqrt(3)), -0.4),
        ]:
            direct += w * np.clip(pts @ np.asarray(axis) - 0.5, 0, None) ** 4
        assert_allclose(g.values[rows, cols], direct, atol=1e-14)

    def test_pole_rows_constant(self):
        f = spherical_function(standard_combination())
        g = sample_sphere(f, 32, 16)
        assert g.pole_row_spread() == 0.0

    def test_rejects_odd_columns(self):
        with pytest.raises(ValueError, match="even"):
            sample_sphere(coord_z, 7, 4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_samples(self, bad):
        f = lambda x: np.where(x[..., 2] > 0.9, bad, 1.0)
        with pytest.raises(ValueError, match="non-finite"):
            sample_sphere(f, 16, 8)

    def test_propagates_evaluation_failure(self):
        def bad(points):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            sample_sphere(bad, 8, 4)


class TestDouble:
    def test_constant(self):
        g = sample_sphere(lambda p: np.ones(np.asarray(p).shape[:-1]), 8, 4)
        tg = dfs_double(g)
        assert_allclose(tg.values, 1.0)
        assert tg.bmc

    def test_coordinate_rows_are_cosine(self):
        g = sample_sphere(coord_z, 16, 8)
        tg = dfs_double(g)
        expected = np.broadcast_to(np.cos(tg.thetas)[:, None] + 0j, tg.values.shape)
        assert_allclose(tg.values, expected, atol=1e-15)

    def test_bmc_exact_for_random_smooth(self):
        f = spherical_function(standard_combination())
        tg = dfs_double(sample_sphere(f, 64, 32))
        assert tg.bmc_violation() == 0.0

    def test_pole_rows_constant(self):
        f = spherical_function(standard_combination())
        tg = dfs_double(sample_sphere(f, 64, 32))
        nth = tg.n_theta // 2
        assert np.all(tg.values[0] == tg.values[0, 0])      # theta = -pi (south)
        assert np.all(tg.values[nth] == tg.values[nth, 0])  # theta = 0 (north)

    def test_doubling_equals_direct_composition(self):
        # block construction vs sampling f(phi(.)) on the full torus grid
        f = spherical_function(standard_combination())
        tg = dfs_double(sample_sphere(f, 48, 24))
        L, T = np.meshgrid(tg.lambdas, tg.thetas)
        direct = f(dfs_coord(L, T))
        # pole rows of the direct path hit the poles only up to rounding
        assert np.max(np.abs(tg.values - direct)) < 1e-12

    def test_rejects_odd_columns(self):
        g = LatLonGrid(np.ones((5, 6), dtype=complex))
        bad = LatLonGrid(g.values[:, :5])
        with pytest.raises(ValueError, match="even"):
            dfs_double(bad)


class TestGridIO:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(21)
        vals = rng.normal(size=(16, 32)) + 1j * rng.normal(size=(16, 32))
        grid = TorusGrid(vals, bmc=False)
        path = tmp_path / "g.dfsg"
        grid_io_write(grid, path)
        back = grid_io_read(path)
        assert back.n_theta == 16 and back.n_lambda == 32
        assert back.bmc is False
        assert np.array_equal(back.values, grid.values)

    def test_bmc_flag_round_trip(self, tmp_path):
        f = spherical_function(standard_combination())
        grid = dfs_double(sample_sphere(f, 16, 8))
        path = tmp_path / "g.dfsg"
        grid_io_write(grid, path)
        assert grid_io_read(path).bmc is True

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.dfsg"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(ValueError, match="header"):
            grid_io_read(path)

    def test_rejects_odd_dimensions(self, tmp_path):
        import struct

        path = tmp_path / "odd.dfsg"
        payload = np.zeros(7 * 8, dtype="<c16").tobytes()
        path.write_bytes(b"DFSG" + struct.pack("<IQQB", 1, 8, 7, 0) + payload)
        with pytest.raises(ValueError, match="even"):
            grid_io_read(path)

    def test_rejects_truncated_payload(self, tmp_path):
        grid = TorusGrid(np.ones((8, 8), dtype=complex))
        path = tmp_path / "t.dfsg"
        grid_io_write(grid, path)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(ValueError, match="truncated"):
            grid_io_read(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_payload(self, tmp_path, bad):
        vals = np.ones((8, 8), dtype=complex)
        vals[3, 5] = bad
        path = tmp_path / "n.dfsg"
        grid_io_write(TorusGrid(vals), path)
        with pytest.raises(ValueError, match="non-finite"):
            grid_io_read(path)

    def test_large_round_trip_under_a_second(self, tmp_path):
        vals = np.zeros((2400, 2400), dtype=complex)
        vals[0, 0] = 1.0 + 2.0j
        grid = TorusGrid(vals)
        path = tmp_path / "big.dfsg"
        start = time.perf_counter()
        grid_io_write(grid, path)
        back = grid_io_read(path)
        elapsed = time.perf_counter() - start
        assert np.array_equal(back.values, vals)
        assert elapsed < 1.0
