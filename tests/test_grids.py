import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 32), st.integers(1, 32))
    def test_broadcast_nodes_match_meshgrid_sampling(self, half_lambda, n_theta_half):
        # reference: the interior rows evaluated on a full meshgrid of nodes
        f = spherical_function(standard_combination())
        n_lambda = 2 * half_lambda
        lam = -np.pi + 2.0 * np.pi * np.arange(n_lambda) / n_lambda
        theta = np.pi * np.arange(1, n_theta_half) / n_theta_half
        expected = f(dfs_coord(*np.meshgrid(lam, theta)))
        assert np.array_equal(sample_sphere(f, n_lambda, n_theta_half).values[1:-1], expected)

    def test_pole_rows_constant(self):
        f = spherical_function(standard_combination())
        g = sample_sphere(f, 32, 16)
        assert g.pole_row_spread() == 0.0

    def test_one_call_with_the_poles_exact(self):
        calls = []

        def f(points):
            calls.append(points.copy())
            return points[..., 2]

        g = sample_sphere(f, 8, 4)
        assert len(calls) == 1 and calls[0].shape == (5, 8, 3)
        assert np.array_equal(calls[0][0], np.broadcast_to([0.0, 0.0, 1.0], (8, 3)))
        assert np.array_equal(calls[0][-1], np.broadcast_to([0.0, 0.0, -1.0], (8, 3)))
        assert np.array_equal(calls[0][1:-1], dfs_coord(g.lambdas[None, :], g.thetas[1:-1, None]))

    def test_pole_rows_constant_when_f_varies_along_them(self):
        # f sees the same point across each pole row but answers differently
        g = sample_sphere(lambda p: np.arange(p[..., 0].size, dtype=float).reshape(p.shape[:-1]), 8, 4)
        assert np.array_equal(g.values[0], np.full(8, 0.0))
        assert np.array_equal(g.values[-1], np.full(8, 32.0))
        assert np.array_equal(g.values[1:-1], np.arange(8.0, 32.0).reshape(3, 8))

    def test_rejects_odd_columns(self):
        with pytest.raises(ValueError, match="even"):
            sample_sphere(coord_z, 7, 4)

    def test_rejects_no_colatitude_panel(self):
        with pytest.raises(ValueError, match="n_theta_half"):
            sample_sphere(coord_z, 8, 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_samples(self, bad):
        f = lambda x: np.where(x[..., 2] > 0.9, bad, 1.0)
        with pytest.raises(ValueError, match="non-finite"):
            sample_sphere(f, 16, 8)

    @pytest.mark.parametrize("f", [lambda p: 1.0, lambda p: p[..., 2].T, lambda p: p[0, :, 2]],
                             ids=["scalar", "transposed", "one-row"])
    def test_rejects_values_not_shaped_like_the_nodes(self, f):
        with pytest.raises(ValueError, match=r"shape other than \(5, 8\)"):
            sample_sphere(f, 8, 4)

    def test_complex_function_gives_complex128(self):
        g = sample_sphere(lambda p: np.exp(1j * np.asarray(p)[..., 0]), 16, 8)
        assert g.values.dtype == np.complex128
        assert_allclose(g.values[0], 1.0)

    @pytest.mark.parametrize("pole", [1.0, -1.0])
    def test_complex_only_at_a_pole_gives_complex128(self, pole):
        def f(points):
            z = np.asarray(points)[..., 2]
            return np.where(z == pole, z + 1j, z)

        g = sample_sphere(f, 8, 4)
        assert g.values.dtype == np.complex128
        row = 0 if pole > 0 else -1
        assert np.all(g.values[row] == pole + 1j)
        assert np.all(g.values[-1 - row] == -pole)
        assert np.array_equal(g.values[1:-1], sample_sphere(coord_z, 8, 4).values[1:-1])

    def test_single_panel_grid_is_poles_only(self):
        g = sample_sphere(coord_z, 8, 1)
        assert g.values.dtype == np.float64
        assert np.array_equal(g.values, [[1.0] * 8, [-1.0] * 8])

    def test_propagates_evaluation_failure(self):
        def bad(points):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            sample_sphere(bad, 8, 4)


class TestLatLonGrid:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.nan), complex(np.inf, 0.0)])
    def test_rejects_non_finite_samples(self, bad):
        # such a grid used to reach dfs_double and sh_analyze, which passed the NaN on
        values = np.ones((9, 16), dtype=type(bad))
        values[4, 7] = bad
        with pytest.raises(ValueError, match="non-finite"):
            LatLonGrid(values)


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

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_preserves_dtype_and_bmc(self, dtype):
        f = spherical_function(standard_combination())
        g = sample_sphere(lambda p: f(p).astype(dtype), 32, 16)
        tg = dfs_double(g)
        assert g.values.dtype == tg.values.dtype == dtype
        assert tg.bmc_violation() == 0.0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 24), st.integers(1, 24), st.integers(0, 2**32 - 1))
    def test_real_and_complex_doubling_agree(self, half_lambda, nth, seed):
        values = np.random.default_rng(seed).normal(size=(nth + 1, 2 * half_lambda))
        real = dfs_double(LatLonGrid(values))
        assert real.values.dtype == np.float64
        assert np.array_equal(real.values, dfs_double(LatLonGrid(values.astype(complex))).values)

    def test_rejects_odd_columns(self):
        g = LatLonGrid(np.ones((5, 6), dtype=complex))
        bad = LatLonGrid(g.values[:, :5])
        with pytest.raises(ValueError, match="even"):
            dfs_double(bad)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 16), st.integers(1, 16), st.booleans(), st.integers(0, 2**32 - 1))
    def test_matches_the_slice_and_roll_construction(self, half_lambda, nth, is_complex, seed):
        # pole rows are not constant here, so the averaging of each with its half-turn is exercised
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(nth + 1, 2 * half_lambda))
        if is_complex:
            values = values + 1j * rng.normal(size=values.shape)
        g = LatLonGrid(values)
        shift = g.n_lambda // 2
        out = np.empty((2 * nth, g.n_lambda), dtype=g.values.dtype)
        out[nth:] = g.values[:-1]
        out[0] = g.values[-1]
        for pole in (out[0], out[nth]):
            pole += np.roll(pole, shift)
            pole *= 0.5
        out[1:nth, :shift] = g.values[nth - 1:0:-1, shift:]
        out[1:nth, shift:] = g.values[nth - 1:0:-1, :shift]
        tg = dfs_double(g)
        assert tg.values.dtype == out.dtype
        assert np.array_equal(tg.values, out)
        assert tg.bmc


def roll_violation(values):
    """The glide residual over the whole grid: each sample against its row -j image rolled by half a turn."""
    n_theta, n_lambda = values.shape
    glide_image = np.roll(values[(-np.arange(n_theta)) % n_theta], n_lambda // 2, axis=1)
    return float(np.max(np.abs(values - glide_image)))


@st.composite
def bmc_probe_grids(draw):
    """Random torus grids of even sizes, n_theta = 2 included: doubled or not, real or complex, with at most one
    sample moved by one ulp or set to NaN, or one sample and its glide image both set to inf."""
    n_theta, n_lambda = 2 * draw(st.integers(1, 12)), 2 * draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=(n_theta // 2 + 1, n_lambda))
    if draw(st.booleans()):
        values = values + 1j * rng.normal(size=values.shape)
    if draw(st.booleans()):
        values = dfs_double(LatLonGrid(values)).values
    else:
        values = np.resize(values, (n_theta, n_lambda))
    j, k = draw(st.integers(0, n_theta - 1)), draw(st.integers(0, n_lambda - 1))
    change = draw(st.sampled_from(["none", "ulp", "nan", "inf"]))
    if change == "ulp":
        values.real[j, k] = np.nextafter(values.real[j, k], np.inf)
    elif change == "nan":
        values[j, k] = np.nan
    elif change == "inf":
        values[j, k] = values[-j, (k + n_lambda // 2) % n_lambda] = np.inf
    return TorusGrid(values)


class TestGlideSymmetry:
    @settings(max_examples=60, deadline=None)
    @given(bmc_probe_grids())
    def test_bmc_is_a_zero_violation(self, grid):
        with np.errstate(invalid="ignore"):  # inf - inf
            violation, oracle = grid.bmc_violation(), roll_violation(grid.values)
        assert grid.bmc == (violation == 0.0)
        assert np.array_equal(violation, oracle, equal_nan=True)


class TestGridDtype:
    @pytest.mark.parametrize("grid_type", [TorusGrid, LatLonGrid])
    def test_real_values_are_stored_as_float64(self, grid_type):
        assert grid_type(np.arange(16).reshape(4, 4)).values.dtype == np.float64
        assert grid_type(np.ones((4, 4), dtype=np.float32)).values.dtype == np.float64

    @pytest.mark.parametrize("shape", [(8,), (2, 4, 4)], ids=["1-d", "3-d"])
    @pytest.mark.parametrize("grid_type", [TorusGrid, LatLonGrid])
    def test_rejects_non_2d_values(self, grid_type, shape):
        with pytest.raises(ValueError, match="2-d"):
            grid_type(np.ones(shape))

    @pytest.mark.parametrize("grid_type", [TorusGrid, LatLonGrid])
    def test_complex_values_stay_complex128(self, grid_type):
        # a zero imaginary part is not scanned for and not dropped
        assert grid_type(np.ones((4, 4), dtype=complex)).values.dtype == np.complex128
        assert grid_type(np.ones((4, 4), dtype=np.complex64)).values.dtype == np.complex128


@pytest.fixture(scope="module")
def io_dir(tmp_path_factory):
    """A directory that outlives the examples of a hypothesis test."""
    return tmp_path_factory.mktemp("dfsg")


def dfsg_bytes(grid, directory):
    path = directory / "g.dfsg"
    grid_io_write(grid, path)
    return path.read_bytes()


@st.composite
def torus_grids(draw):
    """Random real or complex torus grids of even, possibly non-square, sizes."""
    shape = (2 * draw(st.integers(1, 16)), 2 * draw(st.integers(1, 16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=shape)
    if draw(st.booleans()):
        values = values + 1j * rng.normal(size=shape)
    if draw(st.booleans()):
        # a doubled grid, so that both values of the header's bmc flag are drawn
        return dfs_double(LatLonGrid(values[: shape[0] // 2 + 1]))
    return TorusGrid(values)


class TestGridIO:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(21)
        vals = rng.normal(size=(16, 32)) + 1j * rng.normal(size=(16, 32))
        grid = TorusGrid(vals)
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

    @settings(max_examples=25, deadline=None)
    @given(torus_grids())
    def test_round_trip_property(self, io_dir, grid):
        path = io_dir / "g.dfsg"
        grid_io_write(grid, path)
        back = grid_io_read(path)
        assert back.values.dtype == np.complex128
        assert back.bmc is grid.bmc
        assert np.array_equal(back.values, grid.values)

    @settings(max_examples=25, deadline=None)
    @given(torus_grids())
    def test_real_grid_writes_the_bytes_of_its_complex_cast(self, io_dir, grid):
        real = TorusGrid(grid.values.real)
        assert real.values.dtype == np.float64
        as_complex = TorusGrid(real.values.astype(complex))
        assert dfsg_bytes(real, io_dir) == dfsg_bytes(as_complex, io_dir)

    @settings(max_examples=25, deadline=None)
    @given(torus_grids(), st.data())
    def test_truncated_or_extended_file_is_rejected(self, io_dir, grid, data):
        raw = dfsg_bytes(grid, io_dir)
        cut = data.draw(st.integers(0, len(raw) - 1))
        path = io_dir / "bad.dfsg"
        for broken in (raw[:cut], raw + raw[cut:cut + 1]):
            path.write_bytes(broken)
            with pytest.raises(ValueError):
                grid_io_read(path)

    @settings(max_examples=25, deadline=None)
    @given(torus_grids(), st.sampled_from([(0, "4s"), (4, "<I"), (8, "<Q"), (16, "<Q"), (24, "<B")]), st.data())
    def test_mutated_magic_version_or_dimension_is_rejected(self, io_dir, grid, field, data):
        import struct

        offset, fmt = field
        raw = bytearray(dfsg_bytes(grid, io_dir))
        size = struct.calcsize(fmt)
        old = bytes(raw[offset:offset + size])
        raw[offset:offset + size] = data.draw(st.binary(min_size=size, max_size=size).filter(lambda b: b != old))
        path = io_dir / "bad.dfsg"
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError):
            grid_io_read(path)

    @settings(max_examples=25, deadline=None)
    @given(torus_grids())
    def test_bmc_flag_that_disagrees_with_the_payload_is_rejected(self, io_dir, grid):
        raw = bytearray(dfsg_bytes(grid, io_dir))
        assert raw[24] == grid.bmc
        raw[24] ^= 1
        path = io_dir / "bad.dfsg"
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="malformed grid file header"):
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

    def test_read_holds_the_file_at_most_twice(self, tmp_path):
        # the file's bytes and the decoded grid; a copy of the payload bytes would make it three times
        grid = TorusGrid(np.ones((512, 512), dtype=complex))
        path = tmp_path / "big.dfsg"
        grid_io_write(grid, path)
        tracemalloc.start()
        try:
            back = grid_io_read(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.values, grid.values)
        assert peak <= 2.2 * path.stat().st_size
