from functools import partial
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dfsphere.geometry import dfs_coord, dfs_coord_inverse, glide_reflect
from dfsphere.grids import TorusGrid, dfs_double, sample_sphere
from dfsphere.spectral import (
    CoefficientTable,
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
    unfold_coefficients,
    weighted_inner_product,
)
from dfsphere.testfns import spherical_function, standard_combination


def coord_z(points):
    return np.asarray(points)[..., 2]


def combo():
    return spherical_function(standard_combination())


def cos_theta_table(n=32):
    return compute_coefficients(dfs_double(sample_sphere(coord_z, n, n // 2)))


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
        # 480^2 points at degree 8 span four slices of the direct path; whole,
        # its three 230400 x 17 complex tables alone would take 188 MB
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

    def test_rejects_omega_beyond_table(self):
        table = cos_theta_table(16)
        with pytest.raises(ValueError, match="exceeds"):
            partial_sum_torus(table, SpectralSet("rectangle", 100), np.zeros(1), np.zeros(1))

    def test_rejects_half_domain_set(self):
        table = cos_theta_table(16)
        with pytest.raises(ValueError, match="full-domain"):
            partial_sum_torus(table, SpectralSet("rectangle", 1, half=True), np.zeros(1), np.zeros(1))


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
    def test_constant(self):
        one = lambda p: np.ones(np.asarray(p).shape[:-1])
        val = weighted_inner_product(one, one, n_quad=128)
        assert_allclose(val, 2 * np.pi**2, atol=1e-8)

    def test_norm_of_folded_mode(self):
        # symbolic: the cross term integrates cos(2 n2 theta) over [0, pi] to 0
        val = weighted_inner_product(b_func(1, 2), b_func(1, 2), n_quad=512)
        assert_allclose(val, 4 * np.pi**2, atol=1e-8)

    def test_orthogonal_pair(self):
        val = weighted_inner_product(b_func(1, 2), b_func(0, 3), n_quad=512)
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
            val = weighted_inner_product(b_func(*n), b_func(*m), n_quad=256)
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

    def test_rejects_full_domain_set(self):
        table = cos_theta_table(16)
        with pytest.raises(ValueError, match="half-domain"):
            dfs_fourier_sum(table, SpectralSet("rectangle", 1), np.array([0.0, 0.0, 1.0]))


class TestFold:
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
        grid = TorusGrid(vals, bmc=False)
        table = compute_coefficients(grid)
        with pytest.raises(ValueError, match="not block-mirror-centrosymmetric"):
            fold_coefficients(table)

    def test_nan_entry_propagates_and_fold_raises(self):
        table = cos_theta_table(16)
        table.values[3, 5] = np.nan
        assert np.isnan(table.symmetry_violation())
        assert np.isnan(table.conjugate_symmetry_violation())
        with pytest.raises(ValueError, match="symmetry violated"):
            fold_coefficients(table)


class TestCoeffIO:
    def test_round_trip(self, tmp_path):
        table = compute_coefficients(dfs_double(sample_sphere(combo(), 32, 16)))
        path = tmp_path / "c.dfsc"
        coeff_io_write(table, path)
        back = coeff_io_read(path)
        assert np.array_equal(back.values, table.values)
        assert back.normalization == "integral"

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.dfsc"
        path.write_bytes(b"XXXX" + b"\0" * 64)
        with pytest.raises(ValueError, match="header"):
            coeff_io_read(path)

    @pytest.mark.parametrize("bad", [np.nan, complex(0.0, np.inf)])
    def test_rejects_non_finite_payload(self, tmp_path, bad):
        table = cos_theta_table(16)
        table.values[2, 3] = bad
        path = tmp_path / "n.dfsc"
        coeff_io_write(table, path)
        with pytest.raises(ValueError, match="non-finite"):
            coeff_io_read(path)

    def test_rejects_truncation(self, tmp_path):
        table = cos_theta_table(16)
        path = tmp_path / "c.dfsc"
        coeff_io_write(table, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="truncated"):
            coeff_io_read(path)
