import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import lpmv

from dfsphere.geometry import dfs_coord, dfs_coord_inverse
from dfsphere.grids import sample_sphere
from dfsphere.sh_reference import (
    SHCoefficients,
    assoc_legendre,
    clenshaw_curtis_weights,
    legendre_table,
    sh_analyze,
    sh_evaluate,
    sh_partial_sums,
    sh_synthesize,
)
from dfsphere.testfns import preset, spherical_function


def synth_harmonic(n, k):
    """Spherical function Y_n^k built on the package's own normalization."""

    def f(points):
        p = np.asarray(points, dtype=float)
        z = np.clip(p[..., 2], -1, 1)
        lam = np.arctan2(p[..., 1], p[..., 0])
        P = legendre_table(n, abs(k), z)[-1]
        if k < 0:
            P = P * (-1.0) ** (abs(k) % 2)
        return P * np.exp(1j * k * lam)

    return f


def shell_partial_sums(coeffs, points, degrees):
    """Oracle: the series added coefficient by coefficient into per-degree shells."""
    p = np.asarray(points, dtype=float)
    z = np.clip(p[..., 2], -1.0, 1.0)
    lam = np.arctan2(p[..., 1], p[..., 0])
    h = degrees[-1]
    shells = np.zeros((h + 1,) + p.shape[:-1], dtype=complex)
    for k in range(-h, h + 1):
        P = legendre_table(h, abs(k), z)
        if k < 0:
            P = P * (-1.0) ** (abs(k) % 2)
        phase = np.exp(1j * k * lam)
        for i, n in enumerate(range(abs(k), h + 1)):
            shells[n] += coeffs.coeff(n, k) * P[i] * phase
    return np.cumsum(shells, axis=0)[degrees]


def random_triangle(h, seed):
    """Random coefficients on the triangle |k| <= n <= h, scaled to unit l1 norm."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(h + 1, 2 * h + 1)) + 1j * rng.normal(size=(h + 1, 2 * h + 1))
    n = np.arange(h + 1)[:, None]
    k = np.arange(-h, h + 1)[None, :]
    values[np.abs(k) > n] = 0.0
    return SHCoefficients(degree=h, values=values / np.sum(np.abs(values)))


class TestAssocLegendre:
    def test_constant_is_inverse_sqrt_4pi(self):
        assert_allclose(assoc_legendre(0, 0, 0.37), 1.0 / np.sqrt(4 * np.pi), atol=1e-15)

    def test_degree_one(self):
        t = np.linspace(-1, 1, 11)
        assert_allclose(assoc_legendre(1, 0, t), np.sqrt(3 / (4 * np.pi)) * t, atol=1e-14)

    def test_orthonormality_via_gauss_legendre(self):
        # oracle: Gauss-Legendre quadrature, exact for these polynomial products
        x, w = np.polynomial.legendre.leggauss(80)
        for k in (0, 1, 3, 7):
            P = legendre_table(32, k, x)
            G = 2 * np.pi * (P * w) @ P.T
            assert np.max(np.abs(G - np.eye(G.shape[0]))) < 1e-10

    def test_matches_scipy_normalization(self):
        # independent oracle: scipy's unnormalized lpmv (Condon-Shortley
        # included) times the orthonormality factor
        from math import factorial

        t = np.linspace(-0.95, 0.95, 9)
        for n, k in [(2, 1), (5, 3), (9, 0), (12, 7)]:
            norm = np.sqrt((2 * n + 1) / (4 * np.pi) * factorial(n - k) / factorial(n + k))
            assert_allclose(assoc_legendre(n, k, t), norm * lpmv(k, n, t), rtol=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="order"):
            assoc_legendre(2, 3, 0.0)
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            assoc_legendre(2, 1, 1.5)


def test_clenshaw_curtis_integrates_polynomials():
    # exact for degree <= n on the cosine-spaced nodes
    n = 12
    w = clenshaw_curtis_weights(n)
    x = np.cos(np.arange(n + 1) * np.pi / n)
    for deg in range(0, n + 1):
        exact = 2.0 / (deg + 1) if deg % 2 == 0 else 0.0
        assert_allclose(w @ x**deg, exact, atol=1e-13)


class TestAnalyze:
    def test_recovers_single_harmonic(self):
        co = sh_analyze(sample_sphere(synth_harmonic(3, 2), 32, 16), h=6)
        assert_allclose(co.coeff(3, 2), 1.0, atol=1e-10)
        vals = co.values.copy()
        vals[3, 2 + co.degree] = 0.0
        assert np.max(np.abs(vals)) < 1e-10

    def test_constant(self):
        one = lambda p: np.ones(np.asarray(p).shape[:-1])
        co = sh_analyze(sample_sphere(one, 32, 16), h=4)
        assert_allclose(co.coeff(0, 0), np.sqrt(4 * np.pi), atol=1e-10)
        vals = co.values.copy()
        vals[0, co.degree] = 0.0
        assert np.max(np.abs(vals)) < 1e-10

    def test_coordinate(self):
        # symbolic: xi3 = sqrt(4 pi / 3) Y_1^0
        f = lambda p: np.asarray(p)[..., 2]
        co = sh_analyze(sample_sphere(f, 32, 16), h=4)
        assert_allclose(co.coeff(1, 0), np.sqrt(4 * np.pi / 3), atol=1e-10)

    def test_insufficient_resolution_rejected(self):
        g = sample_sphere(lambda p: np.asarray(p)[..., 2], 16, 8)
        with pytest.raises(ValueError, match="under-resolves"):
            sh_analyze(g, h=12)

    def test_conjugate_symmetry_for_real_function(self):
        f = spherical_function(preset("f3-combo"))
        co = sh_analyze(sample_sphere(f, 64, 32), h=12)
        assert co.conjugate_symmetry_violation() < 1e-10

    def test_conjugate_symmetry_matches_triangle_loop(self):
        # reference: the loop over n and 0 <= k <= n; the vectorized form must
        # give the same float, bit for bit
        rng = np.random.default_rng(7)
        h = 9
        values = rng.normal(size=(h + 1, 2 * h + 1)) + 1j * rng.normal(size=(h + 1, 2 * h + 1))
        co = SHCoefficients(degree=h, values=values)
        worst = 0.0
        for n in range(h + 1):
            for k in range(n + 1):
                worst = max(worst, abs(co.coeff(n, -k) - (-1.0) ** k * np.conj(co.coeff(n, k))))
        assert co.conjugate_symmetry_violation() == worst

    def test_conjugate_symmetry_nan_propagates(self):
        f = spherical_function(preset("f3-combo"))
        co = sh_analyze(sample_sphere(f, 32, 16), h=6)
        co.values[4, 6 + 2] = np.nan
        assert np.isnan(co.conjugate_symmetry_violation())


class TestEvaluate:
    def sphere_points(self, n=300, seed=6):
        rng = np.random.default_rng(seed)
        p = rng.normal(size=(n, 3))
        return p / np.linalg.norm(p, axis=1, keepdims=True)

    def test_single_coefficient(self):
        vals = np.zeros((2, 3), dtype=complex)
        vals[1, 0 + 1] = 1.0
        co = SHCoefficients(degree=1, values=vals)
        p = self.sphere_points(100)
        assert_allclose(sh_evaluate(co, p), np.sqrt(3 / (4 * np.pi)) * p[:, 2], atol=1e-13)

    def test_projection_identity_on_bandlimited(self):
        f = spherical_function(preset("bandlimited-4"))
        co = sh_analyze(sample_sphere(f, 40, 20), h=6)
        p = self.sphere_points(200)
        assert_allclose(sh_evaluate(co, p), f(p), atol=1e-9)

    def test_analyze_twice_is_projection(self):
        f = spherical_function(preset("f3-combo"))
        co = sh_analyze(sample_sphere(f, 64, 32), h=10)

        def reconstruction(points):
            return sh_evaluate(co, points)

        co2 = sh_analyze(sample_sphere(reconstruction, 64, 32), h=10)
        assert np.max(np.abs(co2.values - co.values)) < 1e-12

    def test_parseval_for_bandlimited(self):
        f = spherical_function(preset("bandlimited-4"))
        co = sh_analyze(sample_sphere(f, 48, 24), h=8)
        power = np.sum(np.abs(co.values) ** 2)
        # oracle: surface quadrature of |f|^2 (longitude rule x Clenshaw-Curtis)
        g = sample_sphere(f, 256, 128)
        w = clenshaw_curtis_weights(128)
        quad = float(np.sum(np.abs(g.values) ** 2 @ np.full(256, 2 * np.pi / 256) * w))
        assert abs(power - quad) / quad < 1e-6

    def test_orthonormality_matrix_identity(self):
        # {Y_n^k : n <= 16} under the surface quadrature used above
        pairs = [(n, k) for n in range(0, 17) for k in range(-n, n + 1)]
        g_lam, g_th = 72, 36
        lam = -np.pi + 2 * np.pi * np.arange(g_lam) / g_lam
        th = np.pi * np.arange(g_th + 1) / g_th
        L, T = np.meshgrid(lam, th)
        pts = dfs_coord(L, T)
        w_th = clenshaw_curtis_weights(g_th)
        w = np.outer(w_th, np.full(g_lam, 2 * np.pi / g_lam)).ravel()
        A = np.array([np.ravel(synth_harmonic(n, k)(pts)) for n, k in pairs])
        G = (A * w) @ A.conj().T
        assert np.max(np.abs(G - np.eye(len(pairs)))) < 1e-9

    def test_partial_sums_share_prefix(self):
        f = spherical_function(preset("f3-combo"))
        co = sh_analyze(sample_sphere(f, 64, 32), h=12)
        p = self.sphere_points(50)
        s4, s8, s12 = sh_partial_sums(co, p, [4, 8, 12])
        assert_allclose(s4, sh_evaluate(co, p, degree=4), atol=1e-13)
        assert_allclose(s12, sh_evaluate(co, p), atol=1e-13)
        assert np.max(np.abs(s8 - s4)) > 0

    def test_synthesis_matches_shell_oracle(self):
        p = self.sphere_points(200, seed=11)
        degrees = [0, 3, 7, 7, 12]
        for seed in range(3):
            co = random_triangle(12, seed)
            oracle = shell_partial_sums(co, p, degrees)
            assert np.max(np.abs(sh_synthesize(co, *dfs_coord_inverse(p), degrees) - oracle)) <= 1e-13
            assert np.max(np.abs(sh_partial_sums(co, p, degrees) - oracle)) <= 1e-13

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 16), st.integers(1, 16), st.lists(st.integers(0, 10), min_size=1, max_size=4),
        st.integers(0, 2), st.integers(0, 2**32 - 1),
    )
    def test_grid_call_matches_points(self, half_lambda, n_theta_half, degrees, extra, seed):
        # a row of longitudes and a column of colatitudes against the same
        # grid given as sphere points
        degrees = sorted(degrees)
        co = random_triangle(degrees[-1] + extra, seed)
        lam = -np.pi + np.pi * np.arange(2 * half_lambda) / half_lambda
        theta = np.pi * np.arange(n_theta_half + 1) / n_theta_half
        grid = sh_synthesize(co, lam, theta[:, None], degrees)
        assert grid.shape == (len(degrees), n_theta_half + 1, 2 * half_lambda)
        transposed = sh_synthesize(co, lam[:, None], theta, degrees)
        assert np.max(np.abs(transposed - grid.transpose(0, 2, 1))) <= 1e-13
        points = dfs_coord(*np.meshgrid(lam, theta))
        assert np.max(np.abs(grid - sh_partial_sums(co, points, degrees))) <= 1e-13

    @pytest.mark.parametrize("degrees", [[], [-1], [8, 4], [13]], ids=["empty", "negative", "descending", "above-bound"])
    def test_rejects_bad_degree_list(self, degrees):
        co = random_triangle(12, 0)
        with pytest.raises(ValueError, match="ascending"):
            sh_partial_sums(co, self.sphere_points(5), degrees)

    def test_evaluate_rejects_negative_degree(self):
        with pytest.raises(ValueError, match="ascending"):
            sh_evaluate(random_triangle(4, 0), self.sphere_points(5), degree=-1)

    def test_truncation_error_comparable_to_dfs(self):
        # degree-32 truncation error of the plateau function within a factor
        # 10 of the rectangle truncation on the same evaluation grid
        from dfsphere.analysis import error_table

        f = spherical_function(preset("f3"))
        co = sh_analyze(sample_sphere(f, 160, 80), h=32)
        eval_size = (128, 64)
        g = sample_sphere(f, *eval_size)
        L, T = np.meshgrid(g.lambdas, g.thetas)
        sh_err = float(np.max(np.abs(sh_evaluate(co, dfs_coord(L, T)) - g.values)))
        rows = error_table(f, [32], eval_size=eval_size, oversample=8)
        ratio = rows[0].max_error / sh_err
        assert 0.1 <= ratio <= 10.0
