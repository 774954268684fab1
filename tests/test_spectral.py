import copy
from functools import partial
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dfsphere.geometry import UNIT_NORM_TOL, _unit_phases, dfs_coord, dfs_coord_inverse, glide_reflect
from dfsphere.grids import LatLonGrid, TorusGrid, dfs_double, sample_sphere
from dfsphere.spectral import (
    CoefficientTable,
    FoldedCoefficientTable,
    SpectralSet,
    basis_b,
    basis_e,
    basis_gram,
    coeff_io_read,
    coeff_io_write,
    compute_coefficients,
    dfs_fourier_sum,
    fold_coefficients,
    gram_matrix,
    orthogonal_indices,
    partial_sum_grid,
    partial_sum_torus,
    quadrature_rule,
    unfold_coefficients,
)
from dfsphere.analysis import Truncation, coefficient_table_for, decay_report, truncations
from dfsphere.sh_reference import SHCoefficients, _colatitude_table, _truncation_mask, sh_partial_sums
from dfsphere.spectral import _angle_phases, _colatitude_factor, _grid_sum, _phases, _truncated_block
from dfsphere.testfns import spherical_function, standard_combination


def coord_z(points):
    return np.asarray(points)[..., 2]


def combo():
    return spherical_function(standard_combination())


def cos_theta_table(n=32):
    return compute_coefficients(dfs_double(sample_sphere(coord_z, n, n // 2)))


def alternating(n):
    return np.where(np.arange(-(n // 2), n // 2) % 2 == 0, 1.0, -1.0)


def alternating_of(n):
    """(-1)**n of integer arrays, as floats."""
    return np.where(np.asarray(n) % 2 == 0, 1.0, -1.0)


def fft2_reference(values):
    """Reference transform: the full complex FFT, shifted and re-signed for the -pi origin."""
    N2, N1 = values.shape
    table = np.fft.fftshift(np.fft.fft2(values)) / (N1 * N2)
    return table * alternating(N2)[:, None] * alternating(N1)[None, :]


def ifft2_synthesis(table, omega, n_theta, n_lambda):
    """Reference grid synthesis: the members placed in a zero n_theta x n_lambda spectrum, then one ifft2."""
    n1, n2 = table.n1_values, table.n2_values
    inside = np.ones(table.values.shape, bool) if omega is None else omega.contains(n1[None, :], n2[:, None])
    j, k = np.nonzero(inside)
    spec = np.zeros((n_theta, n_lambda), dtype=complex)
    # the grids start at -pi in both angles
    spec[n2[j] % n_theta, n1[k] % n_lambda] = table.values[j, k] * (-1.0) ** (n1[k] + n2[j])
    return np.fft.ifft2(spec) * (n_theta * n_lambda)


def full_table_mirror(values):
    """(-1)^{n1} c_(n1, -n2) over the whole table, the reflection taken modulo its size."""
    N2, N1 = values.shape
    rows = (-np.arange(-(N2 // 2), N2 // 2) + N2 // 2) % N2
    return alternating(N1)[None, :] * values[rows, :]


def full_table_violation(values):
    """Reference symmetry figure: every residual of the full table."""
    resid = np.abs(values - full_table_mirror(values))
    scale = np.max(np.abs(values))
    return 0.0 if scale == 0 else float(np.max(resid) / scale)


def table_violation_matches(values):
    """symmetry_violation equals the full-table figure, NaN included."""
    return np.array_equal(CoefficientTable(values).symmetry_violation(), full_table_violation(values), equal_nan=True)


def index_conjugate_violation(table):
    """Reference conjugate-symmetry figure: n -> -n by modular index vectors into the whole table."""
    N2, N1 = table.values.shape
    rows = (-(table.n2_values) + N2 // 2) % N2
    cols = (-(table.n1_values) + N1 // 2) % N1
    resid = np.abs(table.values[np.ix_(rows, cols)] - np.conj(table.values))
    scale = np.max(np.abs(table.values))
    return 0.0 if scale == 0 else float(np.max(resid) / scale)


def full_table_fold(values):
    """Reference fold: symmetrize the full table, then keep rows n2 = 0 .. N2/2."""
    N2 = values.shape[0]
    symmetrized = 0.5 * (values + full_table_mirror(values))
    return np.vstack([symmetrized[N2 // 2:], symmetrized[:1]])


@st.composite
def doubled_tables(draw):
    """Coefficient tables of doubled random lat-lon grids, real or complex, non-square included."""
    n_lambda = 2 * draw(st.integers(1, 32))
    nth = draw(st.integers(1, 32))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=(nth + 1, n_lambda))
    if draw(st.booleans()):
        values = values + 1j * rng.normal(size=values.shape)
    values[0], values[-1] = values[0, 0], values[-1, 0]  # constant pole rows, as sampled
    return compute_coefficients(dfs_double(LatLonGrid(values)))


@st.composite
def real_grid_tables(draw):
    """Coefficient tables of real torus grids that are not BMC: random, or doubled and then one sample changed in place."""
    n_theta, n_lambda = 2 * draw(st.integers(1, 16)), 2 * draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return compute_coefficients(TorusGrid(rng.normal(size=(n_theta, n_lambda))))
    grid = dfs_double(LatLonGrid(rng.normal(size=(n_theta // 2 + 1, n_lambda))))
    grid.values[draw(st.integers(0, n_theta - 1)), draw(st.integers(0, n_lambda - 1))] = rng.normal()
    return compute_coefficients(grid)


@st.composite
def random_tables(draw):
    """Random complex coefficient tables of even, possibly non-square, sizes."""
    shape = (2 * draw(st.integers(1, 16)), 2 * draw(st.integers(1, 16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return CoefficientTable(rng.normal(size=shape) + 1j * rng.normal(size=shape))


@st.composite
def contiguous_ranges(draw):
    """Integer ranges within |n| <= 256: any lo .. hi, or the -N/2 .. N/2 - 1 of a whole table."""
    if draw(st.booleans()):
        half = draw(st.integers(1, 256))
        return np.arange(-half, half)
    lo = draw(st.integers(-256, 256))
    return np.arange(lo, draw(st.integers(lo, 256)) + 1)


class TestSpectralSet:
    def test_rectangle_size(self):
        assert SpectralSet("rectangle", 3).size == 7 * 7
        assert SpectralSet("rectangle", 3, half=True).size == 7 * 4

    def test_l1_ball_shell_counts(self):
        # the l1 sphere of radius r carries exactly 4r lattice points
        for h in (1, 2, 5):
            n1, n2 = SpectralSet("ball", h, "l1").members()
            r = np.abs(n1) + np.abs(n2)
            for radius in range(1, h + 1):
                assert np.count_nonzero(r == radius) == 4 * radius

    def test_l2_ball_membership_exact(self):
        s = SpectralSet("ball", 5, "l2")
        assert s.contains(3, 4)
        assert not s.contains(3, 5)
        assert not s.contains(4, 4)

    def test_half_excludes_negative(self):
        n1, n2 = SpectralSet("ball", 4, "l2", half=True).members()
        assert np.all(n2 >= 0)

    def test_symmetrized_is_union_with_reflection(self):
        half = SpectralSet("ball", 6, "l1", half=True)
        full = half.symmetrized()
        h1, h2 = half.members()
        mirrored = set(zip(h1.tolist(), h2.tolist())) | set(
            zip(h1.tolist(), (-h2).tolist())
        )
        f1, f2 = full.members()
        assert set(zip(f1.tolist(), f2.tolist())) == mirrored

    @settings(max_examples=100)
    @given(st.integers(-20, 20), st.integers(-20, 20), st.integers(0, 12))
    def test_membership_is_integer_exact(self, n1, n2, h):
        inside = bool(SpectralSet("ball", h, "l2").contains(n1, n2))
        assert inside == (n1 * n1 + n2 * n2 <= h * h)

    @pytest.mark.parametrize("degree", [2.5, -1, True])
    def test_rejects_fractional_or_negative_degree(self, degree):
        # a fractional degree used to pass here and fail later in dfs_fourier_sum with an IndexError
        with pytest.raises(ValueError, match="integers >= 0"):
            SpectralSet("rectangle", degree, half=True)

    @pytest.mark.parametrize("shape, norm", [("disk", "l2"), ("ball", "linf")], ids=["shape", "norm"])
    def test_rejects_unknown_shape_or_norm(self, shape, norm):
        with pytest.raises(ValueError, match="unknown"):
            SpectralSet(shape, 4, norm)


class TestCoefficientTable:
    @pytest.mark.parametrize("shape", [(8,), (2, 4, 4), (6, 5), (5, 6)], ids=["1-d", "3-d", "odd-n1", "odd-n2"])
    def test_rejects_non_2d_or_odd_table(self, shape):
        with pytest.raises(ValueError, match="2-d|even"):
            CoefficientTable(np.ones(shape))

    @pytest.mark.parametrize("n1, n2", [(8, 0), (-9, 0), (0, 8), (0, -9), ([0, 8], [0, 0])])
    def test_coeff_rejects_index_outside_table(self, n1, n2):
        # a 16 x 16 table holds n1, n2 in [-8, 8)
        with pytest.raises(ValueError, match="outside the table"):
            cos_theta_table(16).coeff(n1, n2)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 32), st.integers(1, 32), st.sampled_from(["random", "real grid", "zero"]),
           st.booleans(), st.integers(0, 2**32 - 1))
    def test_conjugate_violation_matches_the_index_formula(self, half2, half1, kind, with_nan, seed):
        rng = np.random.default_rng(seed)
        shape = (2 * half2, 2 * half1)
        if kind == "random":
            table = CoefficientTable(rng.normal(size=shape) + 1j * rng.normal(size=shape))
        elif kind == "real grid":
            table = compute_coefficients(TorusGrid(rng.normal(size=shape)))
        else:
            table = CoefficientTable(np.zeros(shape))
        if with_nan:
            table.values[rng.integers(shape[0]), rng.integers(shape[1])] = np.nan
        assert np.array_equal(table.conjugate_symmetry_violation(), index_conjugate_violation(table), equal_nan=True)


class TestComputeCoefficients:
    def test_constant(self):
        table = compute_coefficients(TorusGrid(np.ones((16, 16), dtype=complex)))
        assert_allclose(table.coeff(0, 0), 1.0, atol=1e-14)
        rest = table.values.copy()
        rest[8, 8] = 0.0
        assert np.max(np.abs(rest)) < 1e-14

    def test_cos_theta(self):
        # symbolic integral: c_(0,1) = c_(0,-1) = 1/2, everything else 0
        table = cos_theta_table()
        assert_allclose(table.coeff(0, 1), 0.5, atol=1e-13)
        assert_allclose(table.coeff(0, -1), 0.5, atol=1e-13)
        rest = table.values.copy()
        n2c, n1c = rest.shape[0] // 2, rest.shape[1] // 2
        rest[n2c + 1, n1c] = 0.0
        rest[n2c - 1, n1c] = 0.0
        assert np.max(np.abs(rest)) < 1e-13

    def test_single_mode_recovery(self):
        # plant exp(i(3 x1 - 2 x2)) and recover its unit coefficient
        n = 32
        lam = -np.pi + 2 * np.pi * np.arange(n) / n
        th = -np.pi + 2 * np.pi * np.arange(n) / n
        L, T = np.meshgrid(lam, th)
        table = compute_coefficients(TorusGrid(np.exp(1j * (3 * L - 2 * T))))
        assert_allclose(table.coeff(3, -2), 1.0, atol=1e-13)

    def test_bmc_symmetry_for_doubled_grid(self):
        table = compute_coefficients(dfs_double(sample_sphere(combo(), 128, 64)))
        assert table.symmetry_violation() <= 1e-10

    def test_conjugate_symmetry_for_real_grid(self):
        table = compute_coefficients(dfs_double(sample_sphere(combo(), 64, 32)))
        assert table.conjugate_symmetry_violation() <= 1e-12

    def test_rejects_odd_grid(self):
        with pytest.raises(ValueError, match="even"):
            TorusGrid(np.ones((15, 16), dtype=complex))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 32), st.integers(1, 32), st.booleans(), st.integers(0, 2**32 - 1))
    def test_matches_full_complex_fft(self, half2, half1, is_complex, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(2 * half2, 2 * half1))
        if is_complex:
            values = values + 1j * rng.normal(size=values.shape)
        reference = fft2_reference(values)
        table = compute_coefficients(TorusGrid(values))
        assert np.max(np.abs(table.values - reference)) <= 1e-14 * np.max(np.abs(reference))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 32), st.integers(1, 32), st.integers(0, 2**32 - 1))
    def test_real_grid_matches_its_complex_cast_bitwise(self, half2, half1, seed):
        values = np.random.default_rng(seed).normal(size=(2 * half2, 2 * half1))
        real = TorusGrid(values)
        assert real.values.dtype == np.float64
        cast = compute_coefficients(TorusGrid(values.astype(complex)))
        assert np.array_equal(compute_coefficients(real).values, cast.values)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.nan), "glide pair of infs"])
    def test_rejects_non_finite_samples(self, bad):
        if bad == "glide pair of infs":
            # an inf and its glide image (row -j, column k + n/2): the pair is equal but not finite
            values = np.ones((8, 8))
            values[2, 3] = values[-2, 7] = np.inf
            grid = TorusGrid(values)
        else:
            values = np.ones((8, 8), dtype=type(bad))
            values[3, 5] = bad
            grid = TorusGrid(values)
        with pytest.raises(ValueError, match="non-finite"):
            compute_coefficients(grid)

    def test_bmc_asymmetry_of_the_transform_is_not_erased(self):
        # the table is a plain transform of the doubled grid, so its BMC
        # symmetry holds to rounding, not exactly; C01 relies on that
        table = compute_coefficients(dfs_double(sample_sphere(combo(), 64, 32)))
        assert 0.0 < table.symmetry_violation() <= 1e-14


class TestPartialSums:
    def test_single_coefficient_is_constant(self):
        vals = np.zeros((8, 8), dtype=complex)
        vals[4, 4] = 1.0  # c_(0,0) = 1
        table = CoefficientTable(vals)
        out = partial_sum_torus(table, SpectralSet("rectangle", 0), np.array([0.3]), np.array([-1.0]))
        assert_allclose(out, 1.0, atol=1e-15)

    def test_whole_table_inverts_dft(self):
        grid = dfs_double(sample_sphere(combo(), 32, 16))
        table = compute_coefficients(grid)
        back = partial_sum_grid(table, None, grid.n_theta, grid.n_lambda)
        resid = np.abs(back.values - grid.values)
        scale = np.max(np.abs(grid.values))
        assert np.max(resid) / scale < 1e-12

    def test_full_range_reproduces_bandlimited_grid(self):
        from dfsphere.testfns import preset

        f = spherical_function(preset("bandlimited-4"))
        grid = dfs_double(sample_sphere(f, 32, 16))
        table = compute_coefficients(grid)
        omega = SpectralSet("rectangle", table.max_degree)
        back = partial_sum_grid(table, omega, grid.n_theta, grid.n_lambda)
        resid = np.abs(back.values - grid.values)
        scale = np.max(np.abs(grid.values))
        assert np.max(resid) / scale < 1e-12

    def test_cos_theta_rectangle_one(self):
        # independent oracle: direct two-term summation of the known series
        table = cos_theta_table()
        rng = np.random.default_rng(31)
        lam = rng.uniform(-np.pi, np.pi, 100)
        th = rng.uniform(-np.pi, np.pi, 100)
        out = partial_sum_torus(table, SpectralSet("rectangle", 1), lam, th)
        oracle = 0.5 * np.exp(1j * th) + 0.5 * np.exp(-1j * th)
        assert_allclose(out, oracle, atol=1e-12)
        assert_allclose(out.real, np.cos(th), atol=1e-12)

    def test_grid_path_matches_direct_path(self):
        table = compute_coefficients(dfs_double(sample_sphere(combo(), 64, 32)))
        omega = SpectralSet("ball", 9, "l2")
        n_theta, n_lambda = 24, 20
        grid = partial_sum_grid(table, omega, n_theta, n_lambda)
        direct = partial_sum_torus(
            table, omega, grid.lambdas[None, :], grid.thetas[:, None]
        )
        assert np.max(np.abs(grid.values - direct)) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(2, 12), st.integers(2, 12), st.sampled_from(["rectangle", "l1", "l2", None]),
        st.integers(0, 10), st.integers(0, 3), st.integers(0, 3), st.integers(0, 2**32 - 1),
    )
    def test_direct_path_matches_grid_path_on_random_tables(
        self, half2, half1, kind, degree, pad2, pad1, seed
    ):
        # random even table and target sizes; the target is the smallest even
        # grid that holds the block, widened by the pads
        rng = np.random.default_rng(seed)
        vals = rng.normal(size=(2 * half2, 2 * half1)) + 1j * rng.normal(size=(2 * half2, 2 * half1))
        table = CoefficientTable(vals / np.sum(np.abs(vals)))
        if kind is None:
            omega, (n_theta, n_lambda) = None, vals.shape
        else:
            shape, norm = ("rectangle", "l2") if kind == "rectangle" else ("ball", kind)
            omega = SpectralSet(shape, min(degree, table.max_degree), norm)
            n_theta = n_lambda = 2 * omega.degree + 2
        grid = partial_sum_grid(table, omega, n_theta + 2 * pad2, n_lambda + 2 * pad1)
        direct = partial_sum_torus(table, omega, grid.lambdas[None, :], grid.thetas[:, None])
        assert np.max(np.abs(grid.values - direct)) <= 1e-13

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 10), st.integers(1, 10), st.sampled_from(["rectangle", "l1", "l2", None]),
        st.integers(0, 9), st.integers(0, 3), st.integers(0, 3), st.integers(0, 2**32 - 1),
    )
    def test_pruned_synthesis_matches_full_ifft2(self, half2, half1, kind, degree, pad2, pad1, seed):
        # the all-rows synthesis against one full ifft2 of the padded spectrum,
        # and the lat-lon rows against the crop of the all-rows grid
        rng = np.random.default_rng(seed)
        vals = rng.normal(size=(2 * half2, 2 * half1)) + 1j * rng.normal(size=(2 * half2, 2 * half1))
        table = CoefficientTable(vals)
        if kind is None:
            omega, (n_theta, n_lambda) = None, vals.shape
        else:
            shape, norm = ("rectangle", "l2") if kind == "rectangle" else ("ball", kind)
            omega = SpectralSet(shape, min(degree, table.max_degree), norm)
            n_theta = n_lambda = 2 * omega.degree + 2
        n_theta, n_lambda = n_theta + 2 * pad2, n_lambda + 2 * pad1
        tol = 1e-13 * np.max(np.abs(vals))
        grid = partial_sum_grid(table, omega, n_theta, n_lambda).values
        assert np.max(np.abs(grid - ifft2_synthesis(table, omega, n_theta, n_lambda))) <= tol
        nth = n_theta // 2
        latlon = _grid_sum(table, omega, n_theta, n_lambda, (nth + np.arange(nth + 1)) % n_theta)
        assert np.max(np.abs(latlon - np.vstack([grid[nth:], grid[:1]]))) <= tol

    def test_whole_table_and_scalar_match_termwise_sum(self):
        # oracle: the series summed term by term over every stored index
        rng = np.random.default_rng(32)
        table = CoefficientTable(rng.normal(size=(6, 8)) + 1j * rng.normal(size=(6, 8)))
        lam = rng.uniform(-np.pi, np.pi, 20)
        th = rng.uniform(-np.pi, np.pi, 20)
        oracle = sum(
            table.coeff(a, b) * np.exp(1j * (a * lam + b * th))
            for a in table.n1_values for b in table.n2_values
        )
        assert_allclose(partial_sum_torus(table, None, lam, th), oracle, rtol=0, atol=1e-13)
        omega = SpectralSet("ball", 2, "l1")
        value = partial_sum_torus(table, omega, lam[0], th[0])
        assert type(value) is complex
        assert value == partial_sum_torus(table, omega, lam[:1], th[:1])[0]
        point = dfs_coord(lam[0], abs(th[0]))
        value = dfs_fourier_sum(table, SpectralSet("rectangle", 2, half=True), point)
        assert type(value) is complex

    def test_many_points_match_grid_path_in_bounded_memory(self):
        # 480^2 points at degree 8 span six slices of 2^21 // (2 * 17 + 17) =
        # 41120 points of the direct path; whole, its three 230400 x 17
        # complex tables alone would take 188 MB
        rng = np.random.default_rng(48)
        table = CoefficientTable(rng.normal(size=(18, 18)) + 1j * rng.normal(size=(18, 18)))
        omega = SpectralSet("rectangle", 8)
        grid = partial_sum_grid(table, omega, 480, 480)
        tracemalloc.start()
        try:
            direct = partial_sum_torus(table, omega, grid.lambdas[None, :], grid.thetas[:, None])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.max(np.abs(grid.values - direct)) <= 1e-12
        assert peak <= 96 * 2**20

    def test_many_sphere_points_match_grid_path_in_bounded_memory(self):
        # the folded sum at the sphere points of a 480^2 torus grid; whole, its
        # 230400 x 17 tables would take 188 MB. The table is exactly symmetric,
        # so the sum is glide invariant and equals the torus sum at every node
        table = unfold_coefficients(fold_coefficients(cos_theta_table(32)))
        grid = partial_sum_grid(table, SpectralSet("rectangle", 8), 480, 480)
        points = dfs_coord(grid.lambdas[None, :], grid.thetas[:, None])
        tracemalloc.start()
        try:
            folded = dfs_fourier_sum(table, SpectralSet("rectangle", 8, half=True), points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.max(np.abs(grid.values - folded)) <= 1e-12
        assert peak <= 96 * 2**20

    @settings(max_examples=25, deadline=None)
    @given(doubled_tables(), st.sampled_from(["rectangle", "l1", "l2"]), st.data())
    def test_folded_synthesis_is_glide_invariant(self, table, kind, data):
        # a partial sum over the symmetrized coefficients of a doubled grid is
        # glide invariant, on any even target grid that holds the block
        degree = data.draw(st.integers(0, table.max_degree))
        shape, norm = ("rectangle", "l2") if kind == "rectangle" else ("ball", kind)
        omega = SpectralSet(shape, degree, norm)
        pad2, pad1 = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
        full = unfold_coefficients(fold_coefficients(table))
        grid = partial_sum_grid(full, omega, 2 * (degree + 1 + pad2), 2 * (degree + 1 + pad1))
        assert grid.bmc_violation() <= 1e-12 * np.max(np.abs(grid.values))

    def test_degree_zero_set_and_empty_angles(self):
        # one-column phase tables sum the constant coefficient exactly; no points give shape (0,)
        rng = np.random.default_rng(54)
        table = CoefficientTable(rng.normal(size=(6, 8)) + 1j * rng.normal(size=(6, 8)))
        omega = SpectralSet("rectangle", 0)
        lam, th = rng.uniform(-np.pi, np.pi, (2, 7))
        assert np.all(partial_sum_torus(table, omega, lam, th) == table.coeff(0, 0))
        value = partial_sum_torus(table, omega, lam[0], th[0])
        assert type(value) is complex and value == table.coeff(0, 0)
        assert partial_sum_torus(table, omega, np.empty(0), np.empty(0)).shape == (0,)
        assert partial_sum_torus(table, None, np.empty(0), np.empty(0)).shape == (0,)

    def test_rejects_omega_beyond_table(self):
        table = cos_theta_table(16)
        with pytest.raises(ValueError, match="exceeds"):
            partial_sum_torus(table, SpectralSet("rectangle", 100), np.zeros(1), np.zeros(1))

    def test_rejects_half_domain_set(self):
        table = cos_theta_table(16)
        with pytest.raises(ValueError, match="full-domain"):
            partial_sum_torus(table, SpectralSet("rectangle", 1, half=True), np.zeros(1), np.zeros(1))

    @pytest.mark.parametrize("omega, size, match", [
        (SpectralSet("rectangle", 1, half=True), 16, "full-domain"),
        (SpectralSet("rectangle", 4), 8, "cannot hold"),
    ], ids=["half-domain", "target-below-block"])
    def test_grid_path_rejects_half_domain_set_or_small_target(self, omega, size, match):
        # the degree-4 block is 9 x 9, more rows than an 8 x 8 target has
        with pytest.raises(ValueError, match=match):
            partial_sum_grid(cos_theta_table(16), omega, size, size)


class TestPhases:
    @settings(max_examples=25, deadline=None)
    @given(contiguous_ranges(), st.integers(0, 64), st.integers(0, 2**32 - 1))
    def test_recurrence_matches_exp_of_outer(self, n, n_points, seed):
        # exp(1j * outer) itself carries the argument rounding |n x| eps / 2, so the bound grows with |n|
        x = np.random.default_rng(seed).uniform(-np.pi, np.pi, n_points)
        got = _phases(np.exp(1j * x), n)
        assert got.shape == (len(n), n_points)
        err = np.max(np.abs(got - np.exp(1j * np.outer(n, x))), initial=0.0)
        assert err <= (4 * np.max(np.abs(n)) + 32) * np.finfo(float).eps

    def test_single_column_is_exp_and_no_points_give_an_empty_table(self):
        # a range without 0 starts from the power w**n[0] itself
        w = np.exp(1j * np.random.default_rng(55).uniform(-np.pi, np.pi, 9))
        np.testing.assert_array_equal(_phases(w, np.arange(-37, -36)), w[None, :] ** -37)
        assert _phases(np.empty(0, dtype=complex), np.arange(-24, 25)).shape == (49, 0)


class TestBasis:
    def test_zero_index_is_one(self):
        assert_allclose(basis_e(0, 0, 1.2, -0.7), 1.0)

    def test_vertical_mode_is_cosine(self):
        rng = np.random.default_rng(41)
        lam = rng.uniform(-np.pi, np.pi, 50)
        th = rng.uniform(-np.pi, np.pi, 50)
        assert_allclose(basis_e(0, 1, lam, th), 2 * np.cos(th), atol=1e-14)

    def test_rejects_negative_n2(self):
        with pytest.raises(ValueError, match="n2"):
            basis_e(1, -1, 0.0, 0.0)

    def test_glide_invariance(self):
        # BMC members: n2 > 0, or n2 = 0 with even n1
        rng = np.random.default_rng(42)
        for _ in range(200):
            n1 = int(rng.integers(-6, 7))
            n2 = int(rng.integers(0, 7))
            if n2 == 0 and n1 % 2:
                continue
            lam = rng.uniform(-np.pi, np.pi)
            th = rng.uniform(-np.pi, np.pi)
            gl, gt = glide_reflect(lam, th)
            assert_allclose(basis_e(n1, n2, gl, gt), basis_e(n1, n2, lam, th), atol=1e-12)

    def test_odd_n1_zero_row_is_glide_antisymmetric(self):
        # e_(n1,0) with odd n1 picks a factor -1 under the glide reflection;
        # these members carry zero coefficients for any doubled grid
        lam, th = 0.7, 1.1
        gl, gt = glide_reflect(lam, th)
        assert_allclose(basis_e(1, 0, gl, gt), -basis_e(1, 0, lam, th), atol=1e-14)

    def test_basis_b_constant(self):
        rng = np.random.default_rng(43)
        p = rng.normal(size=(20, 3))
        p /= np.linalg.norm(p, axis=1, keepdims=True)
        assert_allclose(basis_b(0, 0, p), 1.0, atol=1e-15)

    def test_basis_b_north_pole(self):
        assert_allclose(basis_b(0, 1, np.array([0.0, 0.0, 1.0])), 2.0, atol=1e-15)

    def test_basis_b_matches_composition(self):
        rng = np.random.default_rng(44)
        p = rng.normal(size=(50, 3))
        p /= np.linalg.norm(p, axis=1, keepdims=True)
        lam, th = dfs_coord_inverse(p)
        assert_allclose(basis_b(2, 3, p), basis_e(2, 3, lam, th), atol=1e-15)


def b_func(n1, n2):
    return lambda pts: basis_b(n1, n2, pts)


class TestWeightedInnerProduct:
    def test_quadrature_rule_needs_four_nodes(self):
        with pytest.raises(ValueError, match="at least 4"):
            quadrature_rule(3)

    def test_constant(self):
        one = lambda p: np.ones(np.asarray(p).shape[:-1])
        val = gram_matrix([one, one], n_quad=128)[0, 1]
        assert_allclose(val, 2 * np.pi**2, atol=1e-8)

    def test_norm_of_folded_mode(self):
        # symbolic: the cross term integrates cos(2 n2 theta) over [0, pi] to 0
        val = gram_matrix([b_func(1, 2), b_func(1, 2)], n_quad=512)[0, 1]
        assert_allclose(val, 4 * np.pi**2, atol=1e-8)

    def test_orthogonal_pair(self):
        val = gram_matrix([b_func(1, 2), b_func(0, 3)], n_quad=512)[0, 1]
        assert abs(val) < 1e-10

    def test_gram_structure(self):
        """Orthogonality over the 9 x 5 block, with the known exception family.

        The glide-antisymmetric members (odd n1, n2 = 0) are not orthogonal to
        the odd-n2 modes that share their n1: the inner product is exactly
        -8 pi i / n2 (the pushed-down member equals a square wave in theta,
        whose Fourier expansion lives on those modes). All other pairs vanish.
        """
        indices = [(a, b) for a in range(-4, 5) for b in range(0, 5)]
        G = basis_gram(indices)
        expected_diag = np.array(
            [2 * np.pi**2 if b == 0 else 4 * np.pi**2 for a, b in indices]
        )
        assert_allclose(np.real(np.diag(G)), expected_diag, atol=1e-8)
        assert np.max(np.abs(np.imag(np.diag(G)))) < 1e-10
        for i, (a, b) in enumerate(indices):
            for j, (c, d) in enumerate(indices):
                if i == j:
                    continue
                val = G[i, j]
                exceptional = (
                    a == c
                    and a % 2 != 0
                    and ((b == 0 and d % 2 != 0) or (d == 0 and b % 2 != 0))
                )
                if exceptional:
                    m2 = d if b == 0 else b
                    closed_form = -8j * np.pi / m2 if b == 0 else 8j * np.pi / m2
                    # midpoint quadrature resolves these to O((m2 / n_quad)^2)
                    assert abs(val - closed_form) < 1e-3, (a, b, c, d)
                else:
                    assert abs(val) < 1e-10, (a, b, c, d)

    def test_orthogonal_family_gram_is_diagonal(self):
        # restricted to the true orthogonal family the Gram is diagonal
        G = basis_gram(orthogonal_indices(4))
        off = np.abs(G - np.diag(np.diag(G)))
        assert np.max(off) < 1e-10

    def test_basis_gram_matches_sampled_gram(self):
        # the separable Gram against the sphere-map quadrature, on the 45
        # members of the 9 x 5 block and on the 41 orthogonal ones among them
        block = [(a, b) for a in range(-4, 5) for b in range(0, 5)]
        sampled = gram_matrix([partial(basis_b, a, b) for a, b in block], n_quad=512)
        assert np.max(np.abs(basis_gram(block) - sampled)) <= 1e-12
        family = orthogonal_indices(4)
        rows = [block.index(nm) for nm in family]
        assert len(family) == 41
        assert np.max(np.abs(basis_gram(family) - sampled[np.ix_(rows, rows)])) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(-8, 8), st.integers(0, 8)), max_size=12))
    def test_basis_gram_matches_the_member_rows(self, indices):
        # oracle: one 1-D row per member, e_lam = exp(i n1 lam) and e_theta its
        # colatitude factor, and each Gram the product of the member rows
        lam, theta, w = quadrature_rule(512)
        e_lam = np.array([np.exp(1j * a * lam) for a, _ in indices]).reshape(-1, 512)
        e_theta = np.array([_colatitude_factor(a, b, theta) for a, b in indices]).reshape(-1, 512)
        expected = w * (e_lam @ e_lam.conj().T) * (e_theta @ e_theta.conj().T)
        G = basis_gram(indices)
        assert G.shape == expected.shape
        assert np.max(np.abs(G - expected), initial=0.0) <= 1e-12

    def test_fifty_random_pairs_orthogonal(self):
        # wider index range than the block test; orthogonal-family members only
        rng = np.random.default_rng(99)
        family = set(orthogonal_indices(8))
        pairs = []
        while len(pairs) < 50:
            n = (int(rng.integers(-8, 9)), int(rng.integers(0, 7)))
            m = (int(rng.integers(-8, 9)), int(rng.integers(0, 7)))
            if n == m or n not in family or m not in family:
                continue
            pairs.append((n, m))
        for n, m in pairs:
            val = gram_matrix([b_func(*n), b_func(*m)], n_quad=256)[0, 1]
            assert abs(val) < 1e-10, (n, m, val)


class TestDfsFourierSum:
    def test_constant_function(self):
        table = compute_coefficients(dfs_double(sample_sphere(
            lambda p: np.ones(np.asarray(p).shape[:-1]), 16, 8)))
        p = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        out = dfs_fourier_sum(table, SpectralSet("rectangle", 0, half=True), p)
        assert_allclose(out, 1.0, atol=1e-13)

    def test_reproduces_coordinate(self):
        table = cos_theta_table()
        rng = np.random.default_rng(51)
        p = rng.normal(size=(200, 3))
        p /= np.linalg.norm(p, axis=1, keepdims=True)
        out = dfs_fourier_sum(table, SpectralSet("rectangle", 1, half=True), p)
        assert_allclose(out, p[:, 2], atol=1e-12)

    def test_matches_symmetrized_torus_sum(self):
        table = compute_coefficients(dfs_double(sample_sphere(combo(), 128, 64)))
        rng = np.random.default_rng(52)
        p = rng.normal(size=(1000, 3))
        p /= np.linalg.norm(p, axis=1, keepdims=True)
        lam, th = dfs_coord_inverse(p)
        for shape, norm in [("rectangle", "l2"), ("ball", "l1"), ("ball", "l2")]:
            omega = SpectralSet(shape, 7, norm, half=True)
            s_sphere = dfs_fourier_sum(table, omega, p)
            s_torus = partial_sum_torus(table, omega.symmetrized(), lam, th)
            assert np.max(np.abs(s_sphere - s_torus)) < 1e-10

    def test_matches_member_by_member_basis_sum(self):
        # oracle: sum of c_n b_n(xi) over the members, one basis function at a time
        table = compute_coefficients(dfs_double(sample_sphere(combo(), 64, 32)))
        rng = np.random.default_rng(53)
        p = rng.normal(size=(300, 3))
        p /= np.linalg.norm(p, axis=1, keepdims=True)
        for shape, norm in [("rectangle", "l2"), ("ball", "l1"), ("ball", "l2")]:
            omega = SpectralSet(shape, 9, norm, half=True)
            oracle = sum(table.coeff(a, b) * basis_b(a, b, p) for a, b in zip(*omega.members()))
            assert np.max(np.abs(dfs_fourier_sum(table, omega, p) - oracle)) <= 1e-12

    def test_degree_zero_set_and_no_points(self):
        rng = np.random.default_rng(56)
        table = CoefficientTable(rng.normal(size=(6, 8)) + 1j * rng.normal(size=(6, 8)))
        omega = SpectralSet("rectangle", 0, half=True)
        p = rng.normal(size=(5, 3))
        p /= np.linalg.norm(p, axis=1, keepdims=True)
        assert np.all(dfs_fourier_sum(table, omega, p) == table.coeff(0, 0))
        value = dfs_fourier_sum(table, omega, p[0])
        assert type(value) is complex and value == table.coeff(0, 0)
        assert dfs_fourier_sum(table, SpectralSet("rectangle", 2, half=True), np.empty((0, 3))).shape == (0,)

    def test_rejects_full_domain_set(self):
        table = cos_theta_table(16)
        with pytest.raises(ValueError, match="half-domain"):
            dfs_fourier_sum(table, SpectralSet("rectangle", 1), np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ValueError, match="half-domain"):
            dfs_fourier_sum(table, None, np.array([0.0, 0.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("evaluate", [
        dfs_coord_inverse,
        partial(dfs_fourier_sum, cos_theta_table(16), SpectralSet("rectangle", 1, half=True)),
        partial(basis_b, 1, 2),
        partial(sh_partial_sums, SHCoefficients(1, np.ones((2, 3))), degrees=[1]),
    ], ids=["dfs_coord_inverse", "dfs_fourier_sum", "basis_b", "sh_partial_sums"])
    def test_rejects_non_finite_points(self, evaluate, bad):
        points = np.array([[0.0, 0.0, 1.0], [bad, 0.0, 0.0]])
        with pytest.raises(ValueError, match="unit sphere"):
            evaluate(points)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("angle", ["lam", "theta"])
    def test_torus_sum_rejects_non_finite_angles(self, angle, bad):
        # used to return NaN
        angles = {"lam": np.array([0.5, 1.0]), "theta": np.array([0.25, 2.0])}
        angles[angle][1] = bad
        with pytest.raises(ValueError, match="finite"):
            partial_sum_torus(cos_theta_table(16), SpectralSet("rectangle", 1), **angles)


class TestUnitPhases:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_point_phases_match_their_angles(self, seed):
        # random points, points 10^-1 .. 10^-300 from either pole, and the exact
        # poles with signed zeros, each with the angles it was made from
        rng = np.random.default_rng(seed)
        lam = np.concatenate([rng.uniform(-np.pi, np.pi, 64), np.zeros(4)])
        theta = np.concatenate([rng.uniform(0.0, np.pi, 32), 10.0 ** -rng.uniform(1, 300, 32), np.zeros(4)])
        south = np.arange(68) % 2 == 1
        south[:32] = False
        points = dfs_coord(lam, theta)
        points[-4:] = [[0.0, 0.0, 1.0], [0.0, -0.0, 1.0], [-0.0, -0.0, 1.0], [-0.0, 0.0, 1.0]]
        points[south, 2] *= -1.0  # the point at colatitude pi - theta
        points *= 1.0 + 0.999 * UNIT_NORM_TOL * rng.uniform(-1.0, 1.0, (68, 1))
        w_lam, w_theta = _unit_phases(points)

        eps = np.finfo(float).eps
        exact = np.exp(1j * np.stack([lam, theta]).astype(np.longdouble))
        exact[1, south] = -np.conj(exact[1, south])  # exp(i (pi - theta))
        for w, want in zip((w_lam, w_theta), exact):
            assert np.max(np.abs(np.abs(w) - 1.0)) <= 4 * eps
            assert np.max(np.abs(w - want)) <= 8 * eps
        assert np.all(w_lam[-4:] == 1.0)

        # basis_b takes theta = arccos(xi3 / |xi|), which errs by about
        # min(eps / r, r) at distance r from the axis: compare where that is far below 1e-12
        r = np.hypot(points[:, 0], points[:, 1])
        sharp = (r > 1e-2) | (r < 1e-15)
        table = compute_coefficients(dfs_double(sample_sphere(combo(), 64, 32)))
        omega = SpectralSet("rectangle", 9, half=True)
        oracle = sum(table.coeff(a, b) * basis_b(a, b, points[sharp]) for a, b in zip(*omega.members()))
        assert np.max(np.abs(dfs_fourier_sum(table, omega, points)[sharp] - oracle)) <= 1e-12


    def test_subnormal_distance_from_the_axis(self):
        # x and y below the smallest normal double still give a unit phase of their direction
        points = np.array([[5e-324, 5e-324, 1.0], [3e-320, -1e-320, -1.0], [-4e-310, 0.0, 1.0]])
        w_lam, _ = _unit_phases(points)
        eps = np.finfo(float).eps
        assert np.max(np.abs(np.abs(w_lam) - 1.0)) <= 4 * eps
        assert np.max(np.abs(np.angle(w_lam) - np.arctan2(points[:, 1], points[:, 0]))) <= 4 * eps


class TestFoldedBlock:
    @pytest.mark.parametrize("shape, norm", [("rectangle", "l2"), ("ball", "l1"), ("ball", "l2")])
    def test_half_domain_block_is_glide_symmetric(self, shape, norm):
        # rows -j are (-1)^{n1} times rows j, bit for bit, even for a table
        # without the symmetry; rows n2 >= 0 are those of the full-domain block
        rng = np.random.default_rng(57)
        table = CoefficientTable(rng.normal(size=(14, 12)) + 1j * rng.normal(size=(14, 12)))
        for d in range(table.max_degree + 1):
            n1, _, block, _ = _truncated_block(table, SpectralSet(shape, d, norm, half=True))
            assert np.array_equal(block[:d][::-1], (-1.0) ** n1 * block[d + 1:])
            full = _truncated_block(table, SpectralSet(shape, d, norm))[2]
            assert np.array_equal(block[d:], full[d:])

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(2, 12), st.sampled_from(["rectangle", "l1", "l2"]), st.data(), st.integers(0, 2**32 - 1),
    )
    def test_truncations_match_dfs_fourier_sum(self, half_grid, kind, data, seed):
        # the truncation synthesized on the lat-lon rows is the folded series
        # that dfs_fourier_sum evaluates at the same nodes
        degree = data.draw(st.integers(0, half_grid - 1))
        n_lambda = 2 * data.draw(st.integers(degree + 1, degree + 8))
        nth = data.draw(st.integers(degree + 1, degree + 8))
        a, b = np.random.default_rng(seed).normal(size=(2, 3))
        shape, norm = ("rectangle", "l2") if kind == "rectangle" else ("ball", kind)
        (t,) = truncations(lambda p: np.exp(p @ a) * np.cos(p @ b), [degree], shape, norm,
                           eval_size=(n_lambda, nth), grid_size=2 * half_grid)
        ref = t.reference
        points = dfs_coord(*np.meshgrid(ref.lambdas, ref.thetas))
        expected = dfs_fourier_sum(t.table, t.omega, points)
        got = t.synthesis.values
        # the north pole maps back to longitude 0 alone, the column n_lambda / 2
        gap = max(np.max(np.abs(got[1:] - expected[1:])), abs(got[0, n_lambda // 2] - expected[0, n_lambda // 2]))
        assert gap <= 1e-13 * np.max(np.abs(t.table.values))


def full_block(table, omega):
    """Every column n1 = -degree .. degree of the truncation block, folded for a half-domain set."""
    N2, N1 = table.values.shape
    n = np.arange(-omega.degree, omega.degree + 1)
    block = table.values[np.ix_(n + N2 // 2, n + N1 // 2)]
    block[~omega.contains(*np.meshgrid(n, n))] = 0.0
    if omega.half:
        block[: omega.degree] = (-1.0) ** n * block[: omega.degree : -1]
    return n, block


def full_point_sum(table, omega, w_lam, w_theta):
    """The separable sum over the full block at unit phases, in the kernel's order of operations."""
    n, block = full_block(table, omega)
    return np.einsum("kp,kp->p", block.T @ _phases(w_theta, n), _phases(w_lam, n))


def full_grid_sum(table, omega, n_theta, n_lambda, rows):
    """The full block's sum on torus grid rows: ifft along theta, then along lambda, as the kernel does."""
    n, block = full_block(table, omega)
    columns = np.zeros((n_theta, len(n)), dtype=complex)
    columns[n % n_theta] = block * (-1.0) ** n[:, None] * (-1.0) ** n[None, :]
    columns = np.fft.ifft(columns, axis=0, norm="forward")[rows]
    spec = np.zeros((columns.shape[0], n_lambda), dtype=complex)
    spec[:, n % n_lambda] = columns
    return np.fft.ifft(spec, axis=1, norm="forward")


def sliced_separable_sum(n1, n2, block, real, w_lam, w_theta):
    """The separable sum as its own slice loop once took it: 2^21 // (len(n1) + len(n2)) points per slice."""
    shape = np.broadcast(w_lam, w_theta).shape
    w_lam, w_theta = (np.broadcast_to(w, shape).ravel() for w in (w_lam, w_theta))
    out = np.empty(w_lam.size, dtype=complex)
    if real:
        block = np.where(n1 > 0, 2.0, 1.0) * block
    step = max(1, 2**21 // (len(n1) + len(n2)))
    for s in range(0, out.size, step):
        e_theta = block.T @ _phases(w_theta[s : s + step], n2)
        terms = np.einsum("kp,kp->p", e_theta, _phases(w_lam[s : s + step], n1))
        out[s : s + step] = terms.real if real else terms
    return out.reshape(shape) if shape else complex(out[0])


def sliced_sh_partial_sums(coeffs, points, degrees):
    """sh_partial_sums as its own slice loop once took it: 2^21 // (len(degrees) (2h + 1)) points per slice."""
    keep = _truncation_mask(coeffs, degrees)
    h = len(keep) - 1
    w_lam, w_theta = _unit_phases(points)
    shape = w_lam.shape
    w_lam, w_theta = w_lam.ravel(), w_theta.ravel()
    out = np.empty((keep.shape[1], w_lam.size), dtype=complex)
    step = max(1, 2**21 // (keep.shape[1] * (2 * h + 1)))
    for s in range(0, w_lam.size, step):
        np.einsum("kpd,kp->dp", _colatitude_table(coeffs, keep, w_theta[s : s + step]),
                  _phases(w_lam[s : s + step], np.arange(-h, h + 1)), out=out[:, s : s + step])
    return out.reshape(out.shape[:1] + shape)


@st.composite
def point_arrays(draw):
    """Unit sphere points of shape (3,), (n, 3) or (a, b, 3), with 0, 1 or a few hundred points."""
    count = st.sampled_from([0, 1]) | st.integers(100, 400)
    shape = draw(st.just(()) | st.tuples(count) | st.tuples(st.sampled_from([0, 1]) | st.integers(10, 20),
                                                         st.sampled_from([0, 1]) | st.integers(10, 20)))
    points = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=shape + (3,))
    return points / np.linalg.norm(points, axis=-1, keepdims=True)


@st.composite
def sums_of(draw, tables):
    """A table, a set within its range, unit sphere points and an even torus grid that holds the block."""
    table = draw(tables)
    kind = draw(st.sampled_from(["rectangle", "l1", "l2"]))
    shape, norm = ("rectangle", "l2") if kind == "rectangle" else ("ball", kind)
    omega = SpectralSet(shape, draw(st.integers(0, table.max_degree)), norm, half=draw(st.booleans()))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.normal(size=(draw(st.integers(1, 40)), 3))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    n_theta, n_lambda = (2 * (omega.degree + 1 + draw(st.integers(0, 4))) for _ in range(2))
    return table, omega, points, n_theta, n_lambda


class TestRealHalfPath:
    """Tables of real BMC grids sum their n1 >= 0 columns; every other table sums them all."""

    def test_only_real_bmc_grids_mark_their_table(self, tmp_path):
        # the mark follows the grid's values: its dtype and how it was made do not matter
        lat = sample_sphere(combo(), 16, 8)
        doubled = dfs_double(lat)
        for grid in (doubled, TorusGrid(doubled.values), TorusGrid(doubled.values.astype(complex))):
            assert compute_coefficients(grid)._half is not None
        nudged = doubled.values.copy()
        nudged[3, 5] = np.nextafter(nudged[3, 5], np.inf)
        unmarked = [
            compute_coefficients(TorusGrid(np.random.default_rng(62).normal(size=(16, 16)))),
            compute_coefficients(TorusGrid(nudged)),
            compute_coefficients(dfs_double(LatLonGrid(lat.values + 1j))),
            unfold_coefficients(fold_coefficients(compute_coefficients(doubled))),
            CoefficientTable(compute_coefficients(doubled).values),
        ]
        coeff_io_write(compute_coefficients(doubled), tmp_path / "c.dfsc")
        unmarked.append(coeff_io_read(tmp_path / "c.dfsc"))
        assert not any(t._half is not None for t in unmarked)

    @settings(max_examples=30, deadline=None)
    @given(sums_of(doubled_tables().filter(lambda t: t._half is not None)))
    def test_marked_sums_match_the_full_block_and_are_real(self, case):
        table, omega, points, n_theta, n_lambda = case
        plain = CoefficientTable(table.values)
        full = omega.symmetrized()
        lam, theta = dfs_coord_inverse(points)
        pairs = [
            (partial_sum_torus(table, full, lam, theta), partial_sum_torus(plain, full, lam, theta), full),
            (_grid_sum(table, omega, n_theta, n_lambda, slice(None)),
             full_grid_sum(plain, omega, n_theta, n_lambda, slice(None)), omega),
        ]
        if omega.half:
            pairs.append((dfs_fourier_sum(table, omega, points), full_point_sum(plain, omega, *_unit_phases(points)), omega))
        for got, want, summed in pairs:
            assert got.dtype == complex and np.all(got.imag == 0.0)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.sum(np.abs(full_block(plain, summed)[1]))

    @settings(max_examples=30, deadline=None)
    @given(sums_of(st.one_of(doubled_tables().filter(lambda t: t._half is None), real_grid_tables(), random_tables())),
           st.booleans())
    def test_unmarked_sums_are_the_full_block_bit_for_bit(self, io_dir, case, via_file):
        # tables of complex grids, of real grids that are not BMC and built by
        # hand, or any of them read back from a DFSC file
        table, omega, points, n_theta, n_lambda = case
        if via_file:
            coeff_io_write(table, io_dir / "c.dfsc")
            table = coeff_io_read(io_dir / "c.dfsc")
        full = omega.symmetrized()
        lam, theta = dfs_coord_inverse(points)
        assert np.array_equal(partial_sum_torus(table, full, lam, theta),
                              full_point_sum(table, full, *(_angle_phases(x) for x in (lam, theta))))
        assert np.array_equal(_grid_sum(table, omega, n_theta, n_lambda, slice(None)),
                              full_grid_sum(table, omega, n_theta, n_lambda, slice(None)))
        if omega.half:
            assert np.array_equal(dfs_fourier_sum(table, omega, points), full_point_sum(table, omega, *_unit_phases(points)))

    @settings(max_examples=30, deadline=None)
    @given(sums_of(doubled_tables().filter(lambda t: t._half is not None)))
    def test_marked_blocks_hold_the_table_entries(self, case):
        # the columns n1 >= 0 of the full block, unweighted: each kernel weights them itself
        table, omega, _, _, _ = case
        for half in (False, True):
            summed = SpectralSet(omega.shape, omega.degree, omega.norm, half=half)
            n1, n2, block, real = _truncated_block(table, summed)
            n, full = full_block(table, summed)
            assert real and np.array_equal(n1, n[omega.degree:]) and np.array_equal(n2, n)
            assert np.array_equal(block, full[:, omega.degree:])

    def test_grid_changed_after_doubling_sums_every_column(self):
        # once one sample moves, the grid is no longer BMC and its sums keep their imaginary part
        grid = dfs_double(LatLonGrid(np.random.default_rng(63).normal(size=(9, 16))))
        grid.values[3, 5] += 1.0
        table = compute_coefficients(grid)
        omega = SpectralSet("rectangle", 5, half=True)
        points = np.random.default_rng(64).normal(size=(20, 3))
        points /= np.linalg.norm(points, axis=1, keepdims=True)
        got = dfs_fourier_sum(table, omega, points)
        assert np.array_equal(got, full_point_sum(table, omega, *_unit_phases(points)))
        assert np.any(got.imag != 0.0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 16), st.integers(1, 16), st.integers(0, 2**32 - 1), st.data())
    def test_real_grid_and_its_complex_cast_sum_the_same_bits(self, half_lambda, nth, seed, data):
        grid = dfs_double(LatLonGrid(np.random.default_rng(seed).normal(size=(nth + 1, 2 * half_lambda))))
        real, cast = (compute_coefficients(g) for g in (grid, TorusGrid(grid.values.astype(complex))))
        _, omega, points, n_theta, n_lambda = data.draw(sums_of(st.just(real)))
        full = omega.symmetrized()
        lam, theta = dfs_coord_inverse(points)
        sums = [
            lambda t: partial_sum_torus(t, full, lam, theta),
            lambda t: _grid_sum(t, omega, n_theta, n_lambda, slice(None)),
        ]
        if omega.half:
            sums.append(lambda t: dfs_fourier_sum(t, omega, points))
        for total in sums:
            assert np.array_equal(total(real), total(cast))

    def test_marked_values_are_read_only_and_new_values_drop_the_mark(self):
        # an edit must not keep the half, or the sums would read only the n1 >= 0
        # columns and drop the imaginary part: [-1.808, -1.598] here
        table = coefficient_table_for(combo(), 64)
        edited = table.values.copy()
        edited[35, 34] += 1.0  # c_(2, 3)
        omega, lam, theta = SpectralSet("rectangle", 8), [0.3, 1.1], [0.7, -2.0]
        want = partial_sum_torus(CoefficientTable(edited), omega, lam, theta)
        assert_allclose(want, [-0.904 + 0.427j, -0.807 + 0.612j], atol=1e-3)
        with pytest.raises(ValueError, match="read-only"):
            table.values[35, 34] += 1.0
        assert table._half is not None
        rebuilt = type(table)(table.values.copy())
        assert rebuilt._half is None and rebuilt.values.flags.writeable
        # a deep copy or a pickled copy keeps a half of its own, so it has no values to edit either
        for copied in (copy.deepcopy(table), pickle.loads(pickle.dumps(table))):
            assert not np.shares_memory(copied._half, table._half)
            assert copied.values.tobytes() == table.values.tobytes() and not copied.values.flags.writeable
        table.values = edited
        assert table._half is None
        assert np.array_equal(partial_sum_torus(table, omega, lam, theta), want)

    def test_marked_scalar_is_a_complex_with_zero_imaginary_part(self):
        table = cos_theta_table(16)
        value = partial_sum_torus(table, SpectralSet("rectangle", 2), 0.3, 1.1)
        assert type(value) is complex and value.imag == 0.0
        value = dfs_fourier_sum(table, SpectralSet("rectangle", 2, half=True), dfs_coord(0.3, 1.1))
        assert type(value) is complex and value.imag == 0.0


class TestPointKernel:
    """Both expansions' point sums go through one sliced kernel; inside one slice they are the slice loops' bits."""

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(doubled_tables(), random_tables()), point_arrays(), st.integers(0, 12),
           st.lists(st.integers(0, 12), min_size=1, max_size=4), st.integers(0, 2**32 - 1), st.data())
    def test_point_sums_match_the_slice_loops(self, table, points, h, degrees, seed, data):
        kind = data.draw(st.sampled_from(["rectangle", "l1", "l2"]))
        shape, norm = ("rectangle", "l2") if kind == "rectangle" else ("ball", kind)
        half = SpectralSet(shape, data.draw(st.integers(0, table.max_degree)), norm, half=True)
        full = half.symmetrized()
        lam, theta = dfs_coord_inverse(points)
        pairs = [
            (dfs_fourier_sum(table, half, points), sliced_separable_sum(*_truncated_block(table, half), *_unit_phases(points))),
            (partial_sum_torus(table, full, lam, theta),
             sliced_separable_sum(*_truncated_block(table, full), _angle_phases(lam), _angle_phases(theta))),
        ]
        rng = np.random.default_rng(seed)
        coeffs = SHCoefficients(h, rng.normal(size=(h + 1, 2 * h + 1)) + 1j * rng.normal(size=(h + 1, 2 * h + 1)))
        degrees = sorted(min(d, h) for d in degrees)
        pairs.append((sh_partial_sums(coeffs, points, degrees), sliced_sh_partial_sums(coeffs, points, degrees)))
        for got, want in pairs:
            assert type(got) is type(want) and np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert np.shape(pairs[-1][0]) == (len(degrees),) + points.shape[:-1]
        assert (type(pairs[0][0]) is complex) == (points.shape == (3,))


class TestFold:
    @pytest.mark.parametrize("shape", [(8,), (5, 5)], ids=["1-d", "odd-columns"])
    def test_folded_table_rejects_bad_shape(self, shape):
        with pytest.raises(ValueError, match="folded table"):
            FoldedCoefficientTable(np.ones(shape))

    def test_fold_then_unfold_idempotent(self):
        table = compute_coefficients(dfs_double(sample_sphere(combo(), 32, 16)))
        folded = fold_coefficients(table)
        rebuilt = unfold_coefficients(folded)
        folded2 = fold_coefficients(rebuilt)
        assert np.array_equal(folded.values, folded2.values)
        assert np.array_equal(unfold_coefficients(folded2).values, rebuilt.values)

    def test_unfold_is_exactly_symmetric(self):
        table = compute_coefficients(dfs_double(sample_sphere(combo(), 32, 16)))
        rebuilt = unfold_coefficients(fold_coefficients(table))
        assert rebuilt.symmetry_violation() == 0.0

    def test_cos_theta_folds_to_single_entry(self):
        folded = fold_coefficients(cos_theta_table())
        vals = folded.values.copy()
        n1c = vals.shape[1] // 2
        assert_allclose(vals[1, n1c], 0.5, atol=1e-13)
        vals[1, n1c] = 0.0
        vals[0, n1c] = 0.0  # c_(0,0) may be ~0 but belongs to the n2 = 0 row
        assert np.max(np.abs(vals)) < 1e-13

    def test_rejects_asymmetric_table(self):
        rng = np.random.default_rng(61)
        vals = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        grid = TorusGrid(vals)
        table = compute_coefficients(grid)
        with pytest.raises(ValueError, match="not block-mirror-centrosymmetric"):
            fold_coefficients(table)

    @settings(max_examples=25, deadline=None)
    @given(doubled_tables())
    def test_paired_rows_match_full_table_formulas(self, table):
        assert table.symmetry_violation() == full_table_violation(table.values)
        assert np.array_equal(fold_coefficients(table).values, full_table_fold(table.values))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 32), st.integers(1, 32), st.integers(0, 2**32 - 1))
    def test_paired_rows_match_full_table_formulas_with_nan(self, half2, half1, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(2 * half2, 2 * half1)) + 1j * rng.normal(size=(2 * half2, 2 * half1))
        assert table_violation_matches(values)
        values[rng.integers(2 * half2), rng.integers(2 * half1)] = np.nan
        assert table_violation_matches(values)
        with pytest.raises(ValueError, match="symmetry violated"):
            fold_coefficients(CoefficientTable(values))

    @settings(max_examples=25, deadline=None)
    @given(doubled_tables())
    def test_fold_unfold_round_trips(self, table):
        folded = fold_coefficients(table)
        symmetrized = unfold_coefficients(folded)
        assert np.array_equal(fold_coefficients(symmetrized).values, folded.values)
        assert np.array_equal(unfold_coefficients(fold_coefficients(symmetrized)).values, symmetrized.values)

    def test_nan_entry_propagates_and_fold_raises(self):
        table = CoefficientTable(cos_theta_table(16).values.copy())  # a full copy, as the values of a half table are read-only
        table.values[3, 5] = np.nan
        assert np.isnan(table.symmetry_violation())
        assert np.isnan(table.conjugate_symmetry_violation())
        with pytest.raises(ValueError, match="symmetry violated"):
            fold_coefficients(table)


def rfft2_half_table(x):
    """Reference forward pass of a real grid: one out-of-place rfft2, then the centered table assembled from it."""
    N2, N1 = x.shape
    h2, h1 = N2 // 2, N1 // 2
    half = np.fft.rfft2(np.roll(x, (h2, h1), axis=(0, 1)), norm="forward")
    table = np.empty((N2, N1), dtype=complex)
    table[h2:, h1:] = half[:h2, :h1]
    table[:h2, h1:] = half[h2:, :h1]
    np.conjugate(half[h2::-1, h1:0:-1], out=table[: h2 + 1, :h1])
    np.conjugate(half[:h2:-1, h1:0:-1], out=table[h2 + 1 :, :h1])
    return table


def rfft2_coefficients(values):
    """Reference table of a grid: that of its real part plus, when its imaginary part is nonzero, i times that of it."""
    table = rfft2_half_table(values.real)
    if np.iscomplexobj(values) and np.any(values.imag):
        table += 1j * rfft2_half_table(values.imag)
    return table


def out_of_place_grid_sum(table, omega, n_theta, n_lambda, rows):
    """Reference grid sum: the theta ifft writes a fresh array, the rest as in _grid_sum."""
    return out_of_place_block_sum(*_truncated_block(table, omega), n_theta, n_lambda, rows)


def out_of_place_block_sum(n1, n2, block, real, n_theta, n_lambda, rows):
    """The reference grid sum of a truncation block."""
    block = block * alternating_of(n2)[:, None] * alternating_of(n1)[None, :]
    columns = np.zeros((n_theta, len(n1)), dtype=complex)
    columns[n2 % n_theta] = block
    columns = np.fft.ifft(columns, axis=0, norm="forward")[rows]
    spec = np.zeros((columns.shape[0], n_lambda // 2 + 1 if real else n_lambda), dtype=complex)
    spec[:, n1 % n_lambda] = columns
    if real:
        return np.fft.irfft(spec, n_lambda, axis=1, norm="forward").astype(complex)
    return np.fft.ifft(spec, axis=1, norm="forward")


def sign_row_mirror(values):
    """Reference mirrored half: the float row (-1)^{n1} times rows n2 = 0 .. -N2/2, as a complex product."""
    h2, N1 = values.shape[0] // 2, values.shape[1]
    return alternating(N1)[None, :] * values[h2::-1]


def sign_row_violation(values):
    """Reference symmetry figure from the sign-row mirror."""
    h2 = values.shape[0] // 2
    mirrored = sign_row_mirror(values)
    resid = np.maximum(np.max(np.abs(values[h2:] - mirrored[:h2])), np.max(np.abs(values[0] - mirrored[h2])))
    scale = np.max(np.abs(values))
    return 0.0 if scale == 0 else float(resid / scale)


def sign_row_fold(values):
    """Reference fold from the sign-row mirror."""
    h2 = values.shape[0] // 2
    half = sign_row_mirror(values)
    half[:h2] += values[h2:]
    half[h2] += values[0]
    half *= 0.5
    return half


def sign_row_unfold(folded):
    """Reference unfold: the rows n2 < 0 as the float sign row times the rows -n2."""
    n_half, N1 = folded.shape
    N2 = 2 * (n_half - 1)
    full = np.empty((N2, N1), dtype=complex)
    full[N2 // 2:] = folded[: N2 // 2]
    full[0] = folded[N2 // 2]
    full[N2 // 2 - 1:0:-1] = alternating(N1)[None, :] * folded[1:N2 // 2]
    return full


def same_bits_but_zero_signs(a, b):
    """a and b hold the same bits once each -0.0 component is read as +0.0.

    A complex product with the float -1.0 or 1.0 takes the sign of a zero
    component from its cross terms: (+0 + bi) times -1 has real part
    -0 - b*0, which is +0 for b < 0, where negation gives -0. Nonzero, NaN
    and inf components are the same either way.
    """
    return np.array_equal(a, b, equal_nan=True) and (a + 0.0).tobytes() == (b + 0.0).tobytes()


class TestInPlaceAndNegatedForms:
    """The in-place theta passes and the negated odd-n1 columns against the out-of-place and sign-row forms."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 32), st.integers(1, 32), st.booleans(), st.integers(0, 2**32 - 1))
    @example(1, 1, False, 0)
    @example(1, 1, True, 0)
    def test_forward_transform_is_the_rfft2_table_bit_for_bit(self, half2, half1, is_complex, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(2 * half2, 2 * half1))
        if is_complex:
            values = values + 1j * rng.normal(size=values.shape)
        assert compute_coefficients(TorusGrid(values)).values.tobytes() == rfft2_coefficients(values).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 48), st.integers(1, 48), st.booleans(), st.integers(0, 2**32 - 1))
    @example(1, 1, False, 0)
    @example(100, 64, False, 0)
    @example(48, 50, True, 0)
    def test_glide_rows_give_the_rfft2_table(self, half_lambda, nth, is_complex, seed):
        # a doubled grid of any even n_lambda and any nth >= 1: a real one is transformed from its glide-distinct rows
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(nth + 1, 2 * half_lambda))
        if is_complex:
            values = values + 1j * rng.normal(size=values.shape)
        grid = dfs_double(LatLonGrid(values))
        assert grid.bmc
        table, want = compute_coefficients(grid), rfft2_coefficients(grid.values)
        assert np.max(np.abs(table.values - want)) <= 1e-15 * np.max(np.abs(want))
        assert (table._half is not None) is not is_complex

    @pytest.mark.parametrize("n_lambda, nth", [(1024, 512), (512, 256)])
    def test_glide_rows_give_the_rfft2_table_bit_for_bit_on_power_of_two_sides(self, n_lambda, nth):
        grid = dfs_double(sample_sphere(combo(), n_lambda, nth))
        table = compute_coefficients(grid)
        assert table._half is not None
        assert table.values.tobytes() == rfft2_coefficients(grid.values).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 16), st.integers(1, 16), st.booleans(), st.integers(0, 2**32 - 1), st.data())
    def test_grid_one_ulp_from_bmc_takes_the_rolled_route(self, half_lambda, nth, is_complex, seed, data):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(nth + 1, 2 * half_lambda))
        if is_complex:
            values = values + 1j * rng.normal(size=values.shape)
        grid = dfs_double(LatLonGrid(values))
        j, k = data.draw(st.integers(0, 2 * nth - 1)), data.draw(st.integers(0, 2 * half_lambda - 1))
        real_part = grid.values.real
        real_part[j, k] = np.nextafter(real_part[j, k], np.inf)
        assert not grid.bmc
        table = compute_coefficients(grid)
        assert table.values.tobytes() == rfft2_coefficients(grid.values).tobytes()
        assert table._half is None

    @settings(max_examples=30, deadline=None)
    @given(sums_of(st.one_of(doubled_tables(), random_tables())), st.data())
    def test_grid_sum_is_the_out_of_place_sum_bit_for_bit(self, drawn, data):
        table, omega, _, n_theta, n_lambda = drawn
        rows = data.draw(st.one_of(st.just(slice(None)),
                                   st.lists(st.integers(0, n_theta - 1), min_size=1, max_size=n_theta).map(np.array)))
        for sub in (omega, omega.symmetrized()):
            got = _grid_sum(table, sub, n_theta, n_lambda, rows)
            assert got.tobytes() == out_of_place_grid_sum(table, sub, n_theta, n_lambda, rows).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(st.one_of(doubled_tables(), real_grid_tables(), random_tables()))
    def test_symmetry_violation_is_the_sign_row_figure_bit_for_bit(self, table):
        assert np.float64(table.symmetry_violation()).tobytes() == np.float64(sign_row_violation(table.values)).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(doubled_tables())
    def test_fold_and_unfold_are_the_sign_row_forms(self, table):
        folded = fold_coefficients(table).values
        assert same_bits_but_zero_signs(folded, sign_row_fold(table.values))
        assert same_bits_but_zero_signs(unfold_coefficients(FoldedCoefficientTable(folded)).values,
                                        sign_row_unfold(folded))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 16), st.integers(1, 16), st.integers(0, 2**32 - 1))
    def test_unfold_of_any_half_table_is_the_sign_row_form(self, half2, half1, seed):
        rng = np.random.default_rng(seed)
        shape = (half2 + 1, 2 * half1)
        folded = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        folded[rng.random(shape) < 0.2] = 0.0
        assert same_bits_but_zero_signs(unfold_coefficients(FoldedCoefficientTable(folded)).values,
                                        sign_row_unfold(folded))

    def test_negation_and_the_product_differ_in_zero_signs(self):
        # a real grid with N1/2 odd: the n1 = -N1/2 column is odd and purely imaginary, with real part +0
        table = compute_coefficients(dfs_double(LatLonGrid(np.random.default_rng(3).normal(size=(5, 6)))))
        folded = fold_coefficients(table).values
        got = unfold_coefficients(FoldedCoefficientTable(folded)).values
        product = sign_row_unfold(folded)
        assert np.array_equal(got, product) and got.tobytes() != product.tobytes()
        assert same_bits_but_zero_signs(got, product)


@st.composite
def half_tables(draw):
    """Tables of doubled real lat-lon grids of any even n_lambda and nth >= 1, whose pole rows were not constant."""
    n_lambda, nth = 2 * draw(st.integers(1, 40)), draw(st.integers(1, 40))
    values = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(nth + 1, n_lambda))
    return compute_coefficients(dfs_double(LatLonGrid(values)))


def half_block_of(full, omega):
    """The columns n1 >= 0 of a full table's block: what a half table with its values sums, by the real kernels."""
    n1, n2, block, _ = _truncated_block(full, omega)
    return n1[omega.degree :], n2, block[:, omega.degree :], True


class TestHalfTable:
    """A half table reads from its half the bits its full copy CoefficientTable(t.values.copy()) reads from its values."""

    @settings(max_examples=40, deadline=None)
    @given(sums_of(half_tables()), st.data())
    def test_half_table_reads_the_bits_of_its_full_copy(self, io_dir, case, data):
        table, omega, points, n_theta, n_lambda = case
        full = CoefficientTable(table.values.copy())
        assert table._half is not None and full._half is None
        bits = lambda x: np.asarray(x).tobytes()
        # the fold with the zero signs of its entries
        assert bits(fold_coefficients(table).values) == bits(fold_coefficients(full).values)
        assert bits(table.symmetry_violation()) == bits(full.symmetry_violation())
        half, got = (decay_report(t, 3, 0.9, 1, table.max_degree + 1) for t in (table, full))
        assert all(bits(getattr(half, k)) == bits(getattr(got, k)) for k in vars(got))
        assert bits(Truncation(table, None, omega, None, 0.0).tail_sum) == bits(Truncation(full, None, omega, None, 0.0).tail_sum)
        N2, N1 = full.values.shape
        n1 = np.array(data.draw(st.lists(st.integers(-(N1 // 2), N1 // 2 - 1), min_size=1, max_size=8)))
        n2 = np.array(data.draw(st.lists(st.integers(-(N2 // 2), N2 // 2 - 1), min_size=len(n1), max_size=len(n1))))
        assert bits(table.coeff(n1, n2)) == bits(full.coeff(n1, n2))
        assert type(table.coeff(n1[0], n2[0])) is type(full.coeff(n1[0], n2[0])) is np.complex128
        assert bits(table.coeff(n1[0], n2[0])) == bits(full.coeff(n1[0], n2[0]))
        assert dfsc_bytes(table, io_dir) == dfsc_bytes(full, io_dir)
        # the sums read the full copy's columns n1 >= 0 from the half
        lam, theta = dfs_coord_inverse(points)
        sym = omega.symmetrized()
        assert bits(partial_sum_torus(table, sym, lam, theta)) == bits(
            sliced_separable_sum(*half_block_of(full, sym), _angle_phases(lam), _angle_phases(theta)))
        assert bits(_grid_sum(table, omega, n_theta, n_lambda, slice(None))) == bits(
            out_of_place_block_sum(*half_block_of(full, omega), n_theta, n_lambda, slice(None)))
        if omega.half:
            assert bits(dfs_fourier_sum(table, omega, points)) == bits(
                sliced_separable_sum(*half_block_of(full, omega), *_unit_phases(points)))
        # omega=None sums every column of both
        assert bits(partial_sum_torus(table, None, lam, theta)) == bits(partial_sum_torus(full, None, lam, theta))


@pytest.fixture(scope="module")
def f3_grid_1024():
    """The doubled 1024^2 torus grid of f3-combo and its half table."""
    grid = dfs_double(sample_sphere(combo(), 1024, 512))
    return grid, compute_coefficients(grid)


def traced_peak(call, *args):
    """The result of call(*args) and the peak of traced memory while it ran, in bytes."""
    tracemalloc.start()
    try:
        return call(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


MIB = 2**20


class TestTransformMemory:
    """Peaks of the transforms under tracemalloc: the forward table with its half spectrum, and a grid sum with no lambda spectrum besides its output."""

    def test_forward_transform_holds_the_half_spectrum_and_the_table(self, f3_grid_1024):
        # the bound of a forward transform that held the 1024 x 513 half spectrum (8 MiB) and a 16 MiB full table together
        grid, _ = f3_grid_1024
        table, peak = traced_peak(compute_coefficients, grid)
        assert table._half is not None
        assert peak <= 24.5 * MIB

    def test_forward_transform_holds_only_the_half_spectrum(self, f3_grid_1024):
        # the half spectrum is 8.0 MiB, and no full table is made
        grid, _ = f3_grid_1024
        table, peak = traced_peak(compute_coefficients, grid)
        assert table._half is not None and table._half.nbytes == 1024 * 513 * 16
        assert peak <= 8.5 * MIB

    def test_fold_of_a_half_table_holds_the_fold_and_a_mirrored_half(self, f3_grid_1024):
        # the 513 x 1024 folded table (8 MiB) and the 513 x 513 mirrored rows (4 MiB), not a full 16 MiB table
        _, table = f3_grid_1024
        folded, peak = traced_peak(fold_coefficients, table)
        assert folded.values.nbytes == 513 * 1024 * 16
        assert peak <= 13 * MIB

    @pytest.mark.parametrize("marked", [True, False])
    def test_grid_synthesis_holds_little_besides_its_output(self, f3_grid_1024, marked):
        # the 512 x 512 complex output is 4 MiB; a separate lambda spectrum would add 2 MiB (marked) or 4 MiB
        _, table = f3_grid_1024
        if not marked:
            table = CoefficientTable(table.values.copy())
        synth, peak = traced_peak(partial_sum_grid, table, SpectralSet("rectangle", 64), 512, 512)
        assert (table._half is not None) is marked
        assert peak <= synth.values.nbytes + 1.5 * MIB

    def test_real_grid_sum_of_a_marked_table_holds_little_besides_its_output(self, f3_grid_1024):
        # the folded series on a 512 x 1024 target, by irfft into the real part of the output
        _, table = f3_grid_1024
        out, peak = traced_peak(_grid_sum, table, SpectralSet("ball", 100, half=True), 512, 1024, slice(None))
        assert table._half is not None and np.all(out.imag == 0.0)
        assert peak <= out.nbytes + 1.5 * MIB


@pytest.fixture(scope="module")
def io_dir(tmp_path_factory):
    """A directory that outlives the examples of a hypothesis test."""
    return tmp_path_factory.mktemp("dfsc")


def dfsc_bytes(table, directory):
    path = directory / "c.dfsc"
    coeff_io_write(table, path)
    return path.read_bytes()


class TestCoeffIO:
    @settings(max_examples=25, deadline=None)
    @given(random_tables())
    def test_round_trip_property(self, io_dir, table):
        path = io_dir / "c.dfsc"
        coeff_io_write(table, path)
        assert np.array_equal(coeff_io_read(path).values, table.values)

    @settings(max_examples=25, deadline=None)
    @given(random_tables(), st.data())
    def test_truncated_or_extended_file_is_rejected(self, io_dir, table, data):
        raw = dfsc_bytes(table, io_dir)
        cut = data.draw(st.integers(0, len(raw) - 1))
        path = io_dir / "bad.dfsc"
        for broken in (raw[:cut], raw + raw[cut:cut + 1]):
            path.write_bytes(broken)
            with pytest.raises(ValueError):
                coeff_io_read(path)

    @settings(max_examples=25, deadline=None)
    @given(
        random_tables(),
        st.sampled_from([(0, "4s"), (4, "<I"), (8, "<q"), (16, "<q"), (24, "<q"), (32, "<q"), (40, "B")]),
        st.data(),
    )
    def test_mutated_header_field_is_rejected(self, io_dir, table, field, data):
        # magic, version, each index bound and the normalization tag
        import struct

        offset, fmt = field
        raw = bytearray(dfsc_bytes(table, io_dir))
        size = struct.calcsize(fmt)
        old = bytes(raw[offset:offset + size])
        raw[offset:offset + size] = data.draw(st.binary(min_size=size, max_size=size).filter(lambda b: b != old))
        path = io_dir / "bad.dfsc"
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError):
            coeff_io_read(path)

    def test_round_trip(self, tmp_path):
        table = compute_coefficients(dfs_double(sample_sphere(combo(), 32, 16)))
        path = tmp_path / "c.dfsc"
        coeff_io_write(table, path)
        back = coeff_io_read(path)
        assert np.array_equal(back.values, table.values)

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.dfsc"
        path.write_bytes(b"XXXX" + b"\0" * 64)
        with pytest.raises(ValueError, match="header"):
            coeff_io_read(path)

    @pytest.mark.parametrize("bad", [np.nan, complex(0.0, np.inf)])
    def test_rejects_non_finite_payload(self, tmp_path, bad):
        import struct

        values = cos_theta_table(16).values.copy()  # a full copy, as the values of a half table are read-only
        values[2, 3] = bad
        path = tmp_path / "n.dfsc"
        path.write_bytes(b"DFSC" + struct.pack("<Iqqqq", 1, -8, 8, -8, 8) + b"\0" + values.astype("<c16").tobytes())
        with pytest.raises(ValueError, match="non-finite"):
            coeff_io_read(path)

    @pytest.mark.parametrize("bad", [np.nan, complex(0.0, np.inf)])
    def test_write_rejects_non_finite_payload_and_leaves_no_file(self, tmp_path, bad):
        # the writer used to write what the reader then rejected
        table = CoefficientTable(cos_theta_table(16).values.copy())
        table.values[2, 3] = bad
        path = tmp_path / "n.dfsc"
        with pytest.raises(ValueError, match="non-finite"):
            coeff_io_write(table, path)
        assert not path.exists()

    def test_rejects_unknown_normalization_tag(self, tmp_path):
        path = tmp_path / "c.dfsc"
        coeff_io_write(cos_theta_table(16), path)
        raw = bytearray(path.read_bytes())
        raw[40] = 255  # the tag follows magic, version and four index bounds
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="normalization tag 255"):
            coeff_io_read(path)

    def test_rejects_odd_dimensions(self, tmp_path):
        import struct

        # centered ranges n1 in [-2, 3), n2 in [-3, 3): a 6 x 5 table with its full payload
        path = tmp_path / "odd.dfsc"
        path.write_bytes(struct.pack("<4sIqqqqB", b"DFSC", 1, -2, 3, -3, 3, 0) + bytes(16 * 6 * 5))
        with pytest.raises(ValueError, match="even"):
            coeff_io_read(path)

    def test_rejects_truncation(self, tmp_path):
        table = cos_theta_table(16)
        path = tmp_path / "c.dfsc"
        coeff_io_write(table, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="truncated"):
            coeff_io_read(path)

    def test_read_holds_the_file_at_most_twice(self, tmp_path):
        # the file's bytes and the decoded table; a copy of the payload bytes would make it three times
        table = CoefficientTable(np.ones((512, 512), dtype=complex))
        path = tmp_path / "big.dfsc"
        coeff_io_write(table, path)
        tracemalloc.start()
        try:
            back = coeff_io_read(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.values, table.values)
        assert peak <= 2.2 * path.stat().st_size
