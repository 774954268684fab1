import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dfsphere.geometry import (
    dfs_coord,
    dfs_coord_inverse,
    glide_reflect,
    jacobian,
    wrap_angle,
)

angle = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def test_north_pole():
    assert_allclose(dfs_coord(0.0, 0.0), [0.0, 0.0, 1.0], atol=1e-15)


def test_equator_point():
    assert_allclose(dfs_coord(np.pi / 2, np.pi / 2), [0.0, 1.0, 0.0], atol=1e-15)


def test_output_on_unit_sphere():
    rng = np.random.default_rng(3)
    lam = rng.uniform(-np.pi, np.pi, 500)
    th = rng.uniform(-np.pi, np.pi, 500)
    p = dfs_coord(lam, th)
    assert_allclose(np.linalg.norm(p, axis=-1), 1.0, atol=1e-12)


def test_component_bound():
    rng = np.random.default_rng(4)
    p = dfs_coord(rng.uniform(-20, 20, 2000), rng.uniform(-20, 20, 2000))
    assert np.max(np.abs(p)) <= 1.0 + 1e-15


BROADCAST_SHAPES = [((), ()), ((7,), ()), ((), (5,)), ((1, 6), (4, 1)), ((3, 6), (3, 6)), ((2, 1, 3), (4, 1))]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(BROADCAST_SHAPES), st.integers(0, 2**32 - 1))
def test_matches_stacked_formula_bitwise(shapes, seed):
    # reference: the three coordinates formed separately and stacked
    rng = np.random.default_rng(seed)
    lam = rng.uniform(-np.pi, np.pi, shapes[0])
    th = rng.uniform(-np.pi, np.pi, shapes[1])
    ones = np.ones(np.broadcast_shapes(lam.shape, th.shape))
    expected = np.stack([np.cos(lam) * np.sin(th), np.sin(lam) * np.sin(th), np.cos(th) * ones], axis=-1)
    assert np.array_equal(dfs_coord(lam, th), expected)


def test_bmc_identity_random():
    # phi(lambda + pi, -theta) = phi(lambda, theta), up to rounding
    rng = np.random.default_rng(5)
    lam = rng.uniform(-np.pi, np.pi, 1000)
    th = rng.uniform(-np.pi, np.pi, 1000)
    assert_allclose(dfs_coord(lam + np.pi, -th), dfs_coord(lam, th), atol=1e-14)


@settings(max_examples=200)
@given(angle, angle)
def test_bmc_identity_via_glide(lam, th):
    gl, gt = glide_reflect(lam, th)
    assert_allclose(dfs_coord(gl, gt), dfs_coord(lam, th), atol=1e-13)


@settings(max_examples=200)
@given(angle, angle)
def test_glide_involution(lam, th):
    l1, t1 = glide_reflect(*glide_reflect(lam, th))
    l0, t0 = wrap_angle(lam), wrap_angle(th)
    # compare on the circle: wrapped values may differ by a full period only
    assert abs(wrap_angle(l1 - l0)) < 1e-12
    assert abs(wrap_angle(t1 - t0)) < 1e-12


def test_glide_example():
    gl, gt = glide_reflect(0.0, np.pi / 2)
    assert_allclose([gl, gt], [-np.pi, -np.pi / 2], atol=1e-15)


def test_wrap_angle_interval():
    x = np.array([-np.pi, np.pi, 3 * np.pi, -3 * np.pi, 0.0, 2 * np.pi])
    w = wrap_angle(x)
    assert np.all(w >= -np.pi) and np.all(w < np.pi)
    assert_allclose(np.mod(w - x, 2 * np.pi), 0.0, atol=1e-12)


class TestInverse:
    def test_north_pole_maps_to_origin(self):
        lam, th = dfs_coord_inverse(np.array([0.0, 0.0, 1.0]))
        assert lam == 0.0 and th == 0.0

    def test_south_pole_lambda_zero(self):
        lam, th = dfs_coord_inverse(np.array([0.0, 0.0, -1.0]))
        assert lam == 0.0
        assert_allclose(th, np.pi)

    def test_equator(self):
        lam, th = dfs_coord_inverse(np.array([1.0, 0.0, 0.0]))
        assert_allclose([lam, th], [0.0, np.pi / 2], atol=1e-15)

    def test_round_trip_from_sphere(self):
        rng = np.random.default_rng(7)
        p = rng.normal(size=(1000, 3))
        p /= np.linalg.norm(p, axis=1, keepdims=True)
        lam, th = dfs_coord_inverse(p)
        assert np.all(lam >= -np.pi) and np.all(lam < np.pi)
        assert np.all(th >= 0) and np.all(th <= np.pi)
        assert_allclose(dfs_coord(lam, th), p, atol=1e-12)

    def test_round_trip_near_poles(self):
        # stable down to ~1e-5 transverse distance; closer in, arccos
        # conditioning (~ulp / sin(theta)) dominates the representation
        eps = 1e-5
        p = np.array(
            [
                [eps, 0.0, np.sqrt(1 - eps * eps)],
                [0.0, -eps, -np.sqrt(1 - eps * eps)],
                [eps / 2, eps / 2, -np.sqrt(1 - eps * eps / 2)],
            ]
        )
        p /= np.linalg.norm(p, axis=1, keepdims=True)
        lam, th = dfs_coord_inverse(p)
        assert_allclose(dfs_coord(lam, th), p, atol=1e-12)

    def test_sub_ulp_pole_neighborhood_collapses_to_pole(self):
        # a transverse offset below sqrt(ulp) is unrepresentable in the z
        # coordinate: after normalization such points are the pole as far as
        # doubles can tell, and they map to the canonical (0, 0)
        eps = 1e-8
        p = np.array([eps, 0.0, np.sqrt(1.0 - eps * eps)])
        p = p / np.linalg.norm(p)
        assert p[2] == 1.0
        lam, th = dfs_coord_inverse(p)
        assert th == 0.0 and lam == 0.0

    def test_round_trip_from_torus_interior(self):
        # arccos conditioning degrades within ~1e-8 of the poles, so the
        # identity is checked on the interior with a small margin
        rng = np.random.default_rng(8)
        lam = rng.uniform(-np.pi, np.pi - 1e-9, 800)
        th = rng.uniform(0.01, np.pi - 0.01, 800)
        lam2, th2 = dfs_coord_inverse(dfs_coord(lam, th))
        assert_allclose(lam2, lam, atol=1e-12)
        assert_allclose(th2, th, atol=1e-12)

    def test_rejects_off_sphere(self):
        with pytest.raises(ValueError, match="unit sphere"):
            dfs_coord_inverse(np.array([0.0, 0.0, 1.1]))

    def test_rejects_points_without_three_coordinates(self):
        with pytest.raises(ValueError, match="shape"):
            dfs_coord_inverse(np.ones((4, 2)))

    def test_accepts_within_tolerance(self):
        dfs_coord_inverse(np.array([0.0, 0.0, 1.0 + 5e-10]))


class TestJacobian:
    def test_columns_at_equator(self):
        J = jacobian(0.0, np.pi / 2)
        assert_allclose(J[..., 0], [0.0, 1.0, 0.0], atol=1e-15)
        assert_allclose(J[..., 1], [0.0, 0.0, -1.0], atol=1e-15)

    def test_matches_central_differences(self):
        # independent oracle: central differences of the coordinate map
        rng = np.random.default_rng(11)
        lam = rng.uniform(-np.pi, np.pi, 100)
        th = rng.uniform(-np.pi, np.pi, 100)
        J = jacobian(lam, th)
        h = 1e-5
        d_lam = (dfs_coord(lam + h, th) - dfs_coord(lam - h, th)) / (2 * h)
        d_th = (dfs_coord(lam, th + h) - dfs_coord(lam, th - h)) / (2 * h)
        assert_allclose(J[..., 0], d_lam, atol=1e-6)
        assert_allclose(J[..., 1], d_th, atol=1e-6)

    def test_norm_identity(self):
        # ||J h||^2 = h1^2 sin(theta)^2 + h2^2
        rng = np.random.default_rng(12)
        lam = rng.uniform(-np.pi, np.pi, 2000)
        th = rng.uniform(-np.pi, np.pi, 2000)
        hvec = rng.normal(size=(2000, 2))
        J = jacobian(lam, th)
        jh = np.einsum("pij,pj->pi", J, hvec)
        lhs = np.sum(jh * jh, axis=1)
        rhs = hvec[:, 0] ** 2 * np.sin(th) ** 2 + hvec[:, 1] ** 2
        assert_allclose(lhs, rhs, atol=1e-12)

    def test_never_expands(self):
        rng = np.random.default_rng(13)
        lam = rng.uniform(-np.pi, np.pi, 1000)
        th = rng.uniform(-np.pi, np.pi, 1000)
        hvec = rng.normal(size=(1000, 2))
        J = jacobian(lam, th)
        jh = np.einsum("pij,pj->pi", J, hvec)
        assert np.all(
            np.linalg.norm(jh, axis=1) <= np.linalg.norm(hvec, axis=1) * (1 + 1e-14)
        )


def test_contraction():
    # ||phi(x) - phi(y)|| <= ||x - y|| in the flat metric of the plane
    rng = np.random.default_rng(14)
    x = rng.uniform(-np.pi, np.pi, size=(5000, 2))
    y = rng.uniform(-np.pi, np.pi, size=(5000, 2))
    d_sphere = np.linalg.norm(
        dfs_coord(x[:, 0], x[:, 1]) - dfs_coord(y[:, 0], y[:, 1]), axis=1
    )
    d_plane = np.linalg.norm(x - y, axis=1)
    assert np.all(d_sphere <= d_plane + 1e-12)
