import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyval3d
from numpy.testing import assert_allclose
from scipy.special import lpmv

from dfsphere.geometry import dfs_coord
from dfsphere.grids import LatLonGrid, _colatitude_nodes, _periodic_nodes, sample_sphere
from dfsphere.sh_reference import (
    SHCoefficients,
    _legendre_orders,
    clenshaw_curtis_weights,
    sh_analyze,
    sh_partial_sums,
    sh_synthesize,
)
from dfsphere.testfns import preset, spherical_function


def legendre_table(h, k, t, s=None):
    """Oracle: Pbar_n^k(t), n = k .. h, with the seed rebuilt from order 0 on every call.

    sin theta is ``s`` when given, else sqrt(1 - t^2), which loses its
    relative accuracy near the poles. Returns shape (h - k + 1,) + t.shape.
    """
    if k < 0 or k > h:
        raise ValueError("order must satisfy 0 <= k <= degree bound")
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1.0):
        raise ValueError("argument must lie in [-1, 1]")
    s = np.sqrt(np.clip(1.0 - t * t, 0.0, None)) if s is None else np.asarray(s, dtype=float)
    pkk = np.full(t.shape, 1.0 / np.sqrt(4.0 * np.pi))
    for m in range(1, k + 1):
        pkk = -np.sqrt((2.0 * m + 1.0) / (2.0 * m)) * s * pkk
    out = np.empty((h - k + 1,) + t.shape)
    out[0] = pkk
    if h > k:
        out[1] = np.sqrt(2.0 * k + 3.0) * t * pkk
        for n in range(k + 2, h + 1):
            a = np.sqrt((4.0 * n * n - 1.0) / (n * n - k * k))
            b = np.sqrt(
                ((2.0 * n + 1.0) * (n - 1.0 - k) * (n - 1.0 + k))
                / ((2.0 * n - 3.0) * (n * n - k * k))
            )
            out[n - k] = a * t * out[n - k - 1] - b * out[n - k - 2]
    return out


def cos_phases(t):
    """Unit phases t + i sqrt(1 - t^2) of cosines t in [-1, 1], the sign of a zero t kept."""
    t = np.asarray(t, dtype=float)
    w = np.empty(t.shape, dtype=complex)
    w.real, w.imag = t, np.sqrt(1.0 - t * t)
    return w


def synth_harmonic(n, k):
    """Spherical function Y_n^k built on the package's own normalization."""

    def f(points):
        p = np.asarray(points, dtype=float)
        z = np.clip(p[..., 2], -1, 1)
        lam = np.arctan2(p[..., 1], p[..., 0])
        P = legendre_table(n, abs(k), z, np.hypot(p[..., 0], p[..., 1]))[-1]
        if k < 0:
            P = P * (-1.0) ** (abs(k) % 2)
        return P * np.exp(1j * k * lam)

    return f


def shell_partial_sums(coeffs, points, degrees):
    """Oracle: the series added coefficient by coefficient into per-degree shells."""
    p = np.asarray(points, dtype=float)
    z = np.clip(p[..., 2], -1.0, 1.0)
    r = np.hypot(p[..., 0], p[..., 1])
    lam = np.arctan2(p[..., 1], p[..., 0])
    h = degrees[-1]
    shells = np.zeros((h + 1,) + p.shape[:-1], dtype=complex)
    for k in range(-h, h + 1):
        P = legendre_table(h, abs(k), z, r)
        if k < 0:
            P = P * (-1.0) ** (abs(k) % 2)
        phase = np.exp(1j * k * lam)
        for i, n in enumerate(range(abs(k), h + 1)):
            shells[n] += coeffs.coeff(n, k) * P[i] * phase
    return np.cumsum(shells, axis=0)[degrees]


def per_order_analysis(grid, h):
    """Oracle: sh_analyze order by order, one product per k = -h .. h with its own (-1)^k P for k < 0."""
    w = clenshaw_curtis_weights(grid.n_theta_half)
    ghat = np.fft.fft(grid.values, axis=1) * (2.0 * np.pi / grid.n_lambda)
    values = np.zeros((h + 1, 2 * h + 1), dtype=complex)
    for k in range(-h, h + 1):
        P = legendre_table(h, abs(k), np.cos(grid.thetas), np.sin(grid.thetas))
        if k < 0:
            P = (-1.0) ** k * P
        values[abs(k):, k + h] = P @ (w * ghat[:, k % grid.n_lambda] * (-1.0) ** (k % 2))
    return values


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
        (P,) = _legendre_orders(0, cos_phases([0.37]))
        assert_allclose(P[-1], 1.0 / np.sqrt(4 * np.pi), atol=1e-15)

    def test_degree_one(self):
        t = np.linspace(-1, 1, 11)
        P0, P1 = _legendre_orders(1, cos_phases(t))
        assert_allclose(P0[-1], np.sqrt(3 / (4 * np.pi)) * t, atol=1e-14)
        # Pbar_1^1 = -sqrt(3 / 8 pi) sin theta, the sine read from the phases
        assert_allclose(P1[-1], -np.sqrt(3 / (8 * np.pi)) * np.sqrt(1 - t * t), atol=1e-14)

    def test_orthonormality_via_gauss_legendre(self):
        # oracle: Gauss-Legendre quadrature, exact for these polynomial products
        x, w = np.polynomial.legendre.leggauss(80)
        tables = list(_legendre_orders(32, cos_phases(x)))
        for k in (0, 1, 3, 7):
            P = tables[k]
            G = 2 * np.pi * (P * w) @ P.T
            assert np.max(np.abs(G - np.eye(G.shape[0]))) < 1e-10

    def test_matches_scipy_normalization(self):
        # independent oracle: scipy's unnormalized lpmv (Condon-Shortley
        # included) times the orthonormality factor
        from math import factorial

        t = np.linspace(-0.95, 0.95, 9)
        for n, k in [(2, 1), (5, 3), (9, 0), (12, 7)]:
            norm = np.sqrt((2 * n + 1) / (4 * np.pi) * factorial(n - k) / factorial(n + k))
            assert_allclose(list(_legendre_orders(n, cos_phases(t)))[k][-1], norm * lpmv(k, n, t), rtol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 40), st.lists(st.floats(-1.0, 1.0), max_size=12))
    def test_sweep_matches_per_order_oracle(self, h, t):
        # with the oracle's own sine, every order's table equals the oracle's bit for bit
        t = np.array(t + [-1.0, -0.0, 0.0, 1.0])
        tables = list(_legendre_orders(h, cos_phases(t)))
        assert len(tables) == h + 1
        for k, P in enumerate(tables):
            assert P.tobytes() == legendre_table(h, k, t).tobytes()


def test_clenshaw_curtis_integrates_polynomials():
    # exact for degree <= n on the cosine-spaced nodes
    n = 12
    w = clenshaw_curtis_weights(n)
    x = np.cos(np.arange(n + 1) * np.pi / n)
    for deg in range(0, n + 1):
        exact = 2.0 / (deg + 1) if deg % 2 == 0 else 0.0
        assert_allclose(w @ x**deg, exact, atol=1e-13)


def test_clenshaw_curtis_needs_a_panel():
    with pytest.raises(ValueError, match="panel"):
        clenshaw_curtis_weights(0)


class TestAnalyze:
    def test_recovers_single_harmonic(self):
        co = sh_analyze(sample_sphere(synth_harmonic(3, 2), 32, 16), h=6)
        assert_allclose(co.coeff(3, 2), 1.0, atol=1e-10)
        vals = co.values.copy()
        vals[3, 2 + co.degree] = 0.0
        assert np.max(np.abs(vals)) < 1e-10

    @staticmethod
    def polynomial_round_trip_error(h, d, n_lambda, nth, seed):
        """Max error of a random degree-d polynomial through sh_analyze at h and back, relative to the samples."""
        rng = np.random.default_rng(seed)
        powers = np.arange(d + 1)
        c = rng.normal(size=(d + 1,) * 3)
        c[np.add.outer(np.add.outer(powers, powers), powers) > d] = 0.0
        f = lambda p: polyval3d(p[..., 0], p[..., 1], p[..., 2], c)
        grid = sample_sphere(f, n_lambda, nth)
        lam, theta = rng.uniform(-np.pi, np.pi, size=20), rng.uniform(0.0, np.pi, size=15)
        points = dfs_coord(lam[None, :], theta[:, None])
        got = sh_partial_sums(sh_analyze(grid, h), points, [h])[0]
        want = f(points)
        return np.max(np.abs(got - want)) / np.max(np.abs(grid.values))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 8), st.data(), st.integers(0, 2**32 - 1))
    def test_random_polynomial_reproduced_at_random_sizes(self, h, data, seed):
        # the docstring's claim: a polynomial of degree <= h in x, y, z comes
        # back from sh_analyze at h on grids of at least 2h + 2 points per side
        d = data.draw(st.integers(0, h))
        n_lambda = 2 * data.draw(st.integers(h + 1, h + 8))
        nth = data.draw(st.integers(2 * h + 2, 2 * h + 16))
        assert self.polynomial_round_trip_error(h, d, n_lambda, nth, seed) <= 1e-12

    def test_polynomial_reproduced_near_a_pole(self):
        # seed 91 draws a colatitude 1.6e-5 from the south pole, where a sine
        # rebuilt as sqrt(1 - cos^2) read 2.17e-12 against this bound
        assert self.polynomial_round_trip_error(1, 1, 4, 4, 91) <= 1e-12

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_samples(self, bad):
        # a grid holding one NaN used to give 16 NaN coefficients of 28, with no error
        values = np.random.default_rng(5).normal(size=(9, 16))
        values[3, 4] = bad
        with pytest.raises(ValueError, match="non-finite"):
            sh_analyze(LatLonGrid(values), 3)

    def test_insufficient_resolution_rejected(self):
        g = sample_sphere(lambda p: np.asarray(p)[..., 2], 16, 8)
        with pytest.raises(ValueError, match="under-resolves"):
            sh_analyze(g, h=12)

    @pytest.mark.parametrize("complex_values", [False, True], ids=["real", "complex"])
    def test_matches_per_order_loop(self, complex_values):
        rng = np.random.default_rng(8)
        for n_lambda, nth, h in [(32, 16, 7), (50, 24, 11), (64, 50, 24)]:
            values = rng.normal(size=(nth + 1, n_lambda))
            if complex_values:
                values = values + 1j * rng.normal(size=values.shape)
            co = sh_analyze(LatLonGrid(values), h)
            oracle = per_order_analysis(LatLonGrid(values), h)
            assert np.max(np.abs(co.values - oracle)) <= 1e-15 * np.max(np.abs(oracle))

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

    @pytest.mark.parametrize("n, k", [(1, 2), (1, -2), (4, 0)])
    def test_coeff_rejects_index_outside_triangle(self, n, k):
        with pytest.raises(ValueError, match="triangle"):
            random_triangle(3, 0).coeff(n, k)

    @pytest.mark.parametrize("degree, shape", [(5, (2, 3)), (1, (2, 4)), (1, (3,)), (-1, (0, 0))],
                             ids=["lower-degree", "wide", "1-d", "negative-degree"])
    def test_rejects_values_of_another_degree(self, degree, shape):
        # values of the wrong shape used to be accepted and failed later with an IndexError
        with pytest.raises(ValueError, match="need shape"):
            SHCoefficients(degree, np.ones(shape))

    def test_real_or_list_values_are_stored_as_complex(self):
        # real values used to fail in the sums with "output array has wrong dimensions", a list with a TypeError
        for values in (np.eye(2, 3), np.eye(2, 3).tolist()):  # Y_1^0 and a padding entry
            co = SHCoefficients(1, values)
            assert co.values.dtype == np.complex128
            assert_allclose(sh_partial_sums(co, np.array([0.6, 0.0, 0.8]), [1])[0], np.sqrt(3 / (4 * np.pi)) * 0.8)

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
        assert_allclose(sh_partial_sums(co, p, [co.degree])[0], np.sqrt(3 / (4 * np.pi)) * p[:, 2], atol=1e-13)

    def test_projection_identity_on_bandlimited(self):
        f = spherical_function(preset("bandlimited-4"))
        co = sh_analyze(sample_sphere(f, 40, 20), h=6)
        p = self.sphere_points(200)
        assert_allclose(sh_partial_sums(co, p, [co.degree])[0], f(p), atol=1e-9)

    def test_analyze_twice_is_projection(self):
        f = spherical_function(preset("f3-combo"))
        co = sh_analyze(sample_sphere(f, 64, 32), h=10)

        def reconstruction(points):
            return sh_partial_sums(co, points, [co.degree])[0]

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
        assert_allclose(s4, sh_partial_sums(co, p, [4])[0], atol=1e-13)
        assert_allclose(s12, sh_partial_sums(co, p, [co.degree])[0], atol=1e-13)
        assert np.max(np.abs(s8 - s4)) > 0

    def test_synthesis_matches_shell_oracle(self):
        p = self.sphere_points(200, seed=11)
        degrees = [0, 3, 7, 7, 12]
        for seed in range(3):
            co = random_triangle(12, seed)
            oracle = shell_partial_sums(co, p, degrees)
            assert np.max(np.abs(sh_partial_sums(co, p, degrees) - oracle)) <= 1e-13

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 16), st.integers(1, 16), st.lists(st.integers(0, 10), min_size=1, max_size=4),
        st.integers(0, 2), st.integers(0, 2**32 - 1),
    )
    def test_grid_call_matches_points(self, half_lambda, n_theta_half, degrees, extra, seed):
        # the lat-lon grid against the same grid given as sphere points, on
        # grids of at least 2h + 1 longitudes, h the largest degree asked for;
        # a grid of fewer cannot hold the orders -h .. h
        degrees = sorted(degrees)
        co = random_triangle(degrees[-1] + extra, seed)
        n_lambda = 2 * (degrees[-1] + half_lambda)
        grid = sh_synthesize(co, n_lambda, n_theta_half, degrees)
        assert grid.shape == (len(degrees), n_theta_half + 1, n_lambda)
        points = dfs_coord(*np.meshgrid(_periodic_nodes(n_lambda), _colatitude_nodes(n_theta_half)))
        assert np.max(np.abs(grid - sh_partial_sums(co, points, degrees))) <= 1e-13
        if degrees[-1] > 0:
            with pytest.raises(ValueError, match="cannot hold"):
                sh_synthesize(co, 2 * degrees[-1], n_theta_half, degrees)

    @pytest.mark.parametrize("h", [1, 2, 7, 24])
    def test_tightest_grid_matches_points(self, h):
        # 2h + 2, the fewest even longitudes that hold the 2h + 1 orders, so
        # the orders +-h sit next to the Nyquist bin
        co = random_triangle(h, 40 + h)
        n_lambda, nth = 2 * h + 2, h + 3
        grid = sh_synthesize(co, n_lambda, nth, [h])
        points = dfs_coord(*np.meshgrid(_periodic_nodes(n_lambda), _colatitude_nodes(nth)))
        want = sh_partial_sums(co, points, [h])
        assert np.max(np.abs(grid - want)) <= 1e-13 * np.max(np.abs(want))

    def test_degree_zero_and_single_degree(self):
        # on the grid call and at points alike, on a 26 x 7 grid, which holds
        # the 25 orders of degree 12; degree 0 sums only the constant
        co = random_triangle(12, 3)
        points = dfs_coord(*np.meshgrid(_periodic_nodes(26), _colatitude_nodes(6)))
        for degrees in ([0], [5], [0, 12]):
            oracle = shell_partial_sums(co, points, degrees)
            assert np.max(np.abs(sh_synthesize(co, 26, 6, degrees) - oracle)) <= 1e-13
            assert np.max(np.abs(sh_partial_sums(co, points, degrees) - oracle)) <= 1e-13
        constant = co.coeff(0, 0) / np.sqrt(4 * np.pi)
        assert np.all(sh_synthesize(co, 2, 1, [0]) == constant)
        assert np.all(sh_partial_sums(co, points, [0]) == constant)
        # sizes are checked as sample_sphere checks them
        for n_lambda, nth, match in [(27, 6, "even"), (0, 6, "even"), (26, 0, "n_theta_half")]:
            with pytest.raises(ValueError, match=match):
                sh_synthesize(co, n_lambda, nth, [0])

    def test_slice_boundary_cuts_the_points(self):
        # at h = 12 and three degrees a slice holds 2^21 // (25 * (3 + 1)) = 20971
        # points, so these 30000 go in two slices
        co = random_triangle(12, 4)
        p = self.sphere_points(30000, seed=12)
        degrees = [0, 6, 12]
        assert np.max(np.abs(sh_partial_sums(co, p, degrees) - shell_partial_sums(co, p, degrees))) <= 1e-13

    def test_grid_and_points_in_bounded_memory(self):
        # h = 24 at the 512 x 257 grid: given as its 131584 points, A goes in
        # slices of 2^21 // (49 * (3 + 1)) = 10699 points (unsliced, it alone
        # would take 310 MB); given as the grid's sizes, A spans the 257
        # colatitudes only
        co = random_triangle(24, 5)
        lam, theta = _periodic_nodes(512), _colatitude_nodes(256)
        degrees = [8, 16, 24]

        def traced(call, *args):
            tracemalloc.start()
            try:
                return call(co, *args, degrees), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        grid, grid_peak = traced(sh_synthesize, 512, 256)
        scattered, points_peak = traced(sh_partial_sums, dfs_coord(*np.meshgrid(lam, theta)))
        assert np.max(np.abs(scattered - grid)) <= 1e-13
        assert points_peak <= 96 * 2**20
        assert grid_peak <= 12.8 * 2**20

    def test_many_points_in_bounded_memory(self):
        # 480^2 points at h = 12 and three degrees: whole, the colatitude table
        # alone would take 276 MB
        co = random_triangle(12, 6)
        points = dfs_coord(*np.meshgrid(_periodic_nodes(480), _colatitude_nodes(479)))
        degrees = [4, 8, 12]
        tracemalloc.start()
        try:
            scattered = sh_partial_sums(co, points, degrees)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.max(np.abs(scattered - sh_synthesize(co, 480, 479, degrees))) <= 1e-13
        assert peak <= 96 * 2**20

    @pytest.mark.parametrize("degrees", [[], [-1], [8, 4], [13], [2.5]],
                             ids=["empty", "negative", "descending", "above-bound", "fractional"])
    def test_rejects_bad_degree_list(self, degrees):
        co = random_triangle(12, 0)
        with pytest.raises(ValueError, match="ascending"):
            sh_partial_sums(co, self.sphere_points(5), degrees)

    def test_truncation_error_comparable_to_dfs(self):
        # degree-32 truncation error of the plateau function within a factor
        # 10 of the rectangle truncation on the same evaluation grid
        from dfsphere.analysis import error_table

        f = spherical_function(preset("f3"))
        co = sh_analyze(sample_sphere(f, 160, 80), h=32)
        eval_size = (128, 64)
        g = sample_sphere(f, *eval_size)
        L, T = np.meshgrid(g.lambdas, g.thetas)
        sh_err = float(np.max(np.abs(sh_partial_sums(co, dfs_coord(L, T), [co.degree])[0] - g.values)))
        rows = error_table(f, [32], eval_size=eval_size, oversample=8)
        ratio = rows[0].max_error / sh_err
        assert 0.1 <= ratio <= 10.0
