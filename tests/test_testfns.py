import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from math import factorial
from numpy.testing import assert_allclose

from dfsphere.grids import dfs_double, sample_sphere
from dfsphere.testfns import (
    TestFunctionSpec,
    eval_counterexample,
    eval_f_nu,
    preset,
    preset_names,
    rotation_to,
    spec_from_dict,
    spec_to_dict,
    spherical_function,
    standard_combination,
)


def fd_derivative(g, t, order, h):
    """Central finite difference of given order (oracle helper)."""
    offsets = np.arange(order + 1)
    from math import comb

    coeffs = np.array([(-1) ** (order - j) * comb(order, j) for j in offsets])
    pts = t + (offsets - order / 2) * h
    return float(coeffs @ g(pts) / h**order)


class TestRotation:
    def test_orthogonal(self):
        for target in ([1, 0, 0], [0, 1, 0], [-1, -1, -1], [0, 0, -1], [0.3, -0.2, 0.9]):
            R = rotation_to(target)
            assert np.max(np.abs(R.T @ R - np.eye(3))) < 1e-12
            assert_allclose(np.linalg.det(R), 1.0, atol=1e-12)

    def test_maps_pole_to_target(self):
        t = np.array([-1.0, -1.0, -1.0]) / np.sqrt(3)
        assert_allclose(rotation_to(t) @ [0, 0, 1], t, atol=1e-14)

    def test_spec_rejects_non_orthogonal(self):
        with pytest.raises(ValueError, match="orthogonal"):
            TestFunctionSpec("f_nu", rotation=np.eye(3) * 1.001)

    def test_spec_rejects_2x2_rotation(self):
        with pytest.raises(ValueError, match="3x3"):
            TestFunctionSpec("f_nu", rotation=np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_spec_rejects_non_finite_rotation(self, bad):
        rotation = np.eye(3)
        rotation[0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            TestFunctionSpec("f_nu", rotation=rotation)


class TestFNu:
    def test_value_at_rotated_pole(self):
        # (0.7)^4 = 0.2401 with a = 0.3, nu = 3
        spec = TestFunctionSpec("f_nu", nu=3, a=0.3, rotation=rotation_to([1, 0, 0]))
        assert_allclose(eval_f_nu(spec, np.array([1.0, 0.0, 0.0])), 0.2401, atol=1e-15)

    def test_zero_off_cap(self):
        spec = TestFunctionSpec("f_nu", nu=3, a=0.3)
        rng = np.random.default_rng(1)
        p = rng.normal(size=(500, 3))
        p /= np.linalg.norm(p, axis=1, keepdims=True)
        vals = eval_f_nu(spec, p)
        assert np.all(vals[p[:, 2] <= 0.3] == 0.0)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(0, 5), st.floats(0.05, 0.95), st.one_of(st.floats(-2.0, -0.25), st.floats(0.25, 2.0)),
        st.integers(0, 2**32 - 1),
    )
    def test_power_chain_matches_pow(self, nu, a, weight, seed):
        rng = np.random.default_rng(seed)
        spec = TestFunctionSpec("f_nu", nu=nu, a=a, rotation=rotation_to(rng.normal(size=3)), weight=weight)
        p = rng.normal(size=(2000, 3))
        p /= np.linalg.norm(p, axis=1, keepdims=True)
        t = p @ spec.axis
        reference = weight * np.clip(t - a, 0, None) ** (nu + 1)
        got = eval_f_nu(spec, p)
        assert got.dtype == np.float64
        assert np.all(got[t <= a] == 0.0)
        assert np.all(np.abs(got - reference) <= 1e-15 * np.abs(reference))

    def test_single_point_in_and_out_of_the_cap(self):
        spec = TestFunctionSpec("f_nu", nu=2, a=0.5, weight=-2.0)
        assert float(eval_f_nu(spec, np.array([0.0, 0.0, 1.0]))) == -2.0 * 0.5**3
        assert float(eval_f_nu(spec, np.array([1.0, 0.0, 0.0]))) == 0.0

    @pytest.mark.parametrize("nu", [-1, 2.5, np.nan])
    def test_rejects_negative_or_fractional_order(self, nu):
        with pytest.raises(ValueError, match="nu"):
            TestFunctionSpec("f_nu", nu=nu)
        with pytest.raises(ValueError, match="nu"):
            spec_from_dict({"kind": "f_nu", "nu": nu})

    @pytest.mark.parametrize("kind", ["nope", ["f_nu"], {"kind": "f_nu"}], ids=["name", "list", "object"])
    def test_rejects_unknown_kind(self, kind):
        with pytest.raises(ValueError, match="unknown test function kind"):
            spec_from_dict({"kind": kind})

    def test_rejects_bad_cut(self):
        with pytest.raises(ValueError, match="a must lie"):
            TestFunctionSpec("f_nu", a=1.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_weight(self, bad):
        with pytest.raises(ValueError, match="weight must be finite"):
            TestFunctionSpec("f_nu", weight=bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", ["f_nu", "counterexample", "harmonic_probe", "constant", "coordinate"])
    def test_rejects_non_finite_cut_for_every_kind(self, kind, bad):
        with pytest.raises(ValueError, match="a must be finite"):
            TestFunctionSpec(kind, a=bad)

    @pytest.mark.parametrize("nu", [1, 2, 3])
    def test_smoothness_order_at_cut(self, nu):
        # 1-d oracle on t -> ((t - a)_+)^(nu+1): the nu-th derivative is
        # continuous across the cut, the (nu+1)-th jumps by (nu+1)!
        a = 0.5
        g = lambda t: np.clip(t - a, 0.0, None) ** (nu + 1)
        h = 1e-3
        left = fd_derivative(g, a - (nu + 2) * h, nu, h)
        right = fd_derivative(g, a + (nu + 2) * h, nu, h)
        # nu-th derivative continuous at the cut: both one-sided values small
        assert abs(left) < 1e-10
        assert abs(right) < factorial(nu + 1) * (nu + 2) * h * 1.01
        jump_left = fd_derivative(g, a - (nu + 3) * h, nu + 1, h)
        jump_right = fd_derivative(g, a + (nu + 3) * h, nu + 1, h)
        assert abs(jump_left) < 1e-8
        assert_allclose(jump_right, factorial(nu + 1), rtol=1e-6)


class TestCounterexample:
    def test_equator_value(self):
        # oracle: scalar stdlib evaluation of ln(ln 8)
        import math

        expected = math.log(math.log(8.0))
        val = eval_counterexample(np.array([1.0, 0.0, 0.0]))
        assert_allclose(val, expected, atol=1e-15)

    def test_poles_are_zero(self):
        assert eval_counterexample(np.array([0.0, 0.0, 1.0])) == 0.0
        assert eval_counterexample(np.array([0.0, 0.0, -1.0])) == 0.0

    def test_monotone_growth_towards_pole(self):
        z = np.linspace(0.0, 1.0 - 1e-12, 200)
        p = np.stack([np.sqrt(1 - z * z), np.zeros_like(z), z], axis=-1)
        vals = eval_counterexample(p)
        assert np.all(np.diff(vals) > 0)

    def test_composition_matches_sin_form(self):
        # f(phi(lambda, theta)) = ln(ln(8 / sin(theta))) away from the poles
        from dfsphere.geometry import dfs_coord

        rng = np.random.default_rng(2)
        lam = rng.uniform(-np.pi, np.pi, 300)
        th = rng.uniform(0.05, np.pi - 0.05, 300)
        composed = eval_counterexample(dfs_coord(lam, th))
        direct = np.log(np.log(8.0 / np.sin(th)))
        assert_allclose(composed, direct, atol=1e-12)


class TestStandardCombination:
    def test_documented_terms(self):
        specs = standard_combination()
        assert [s.weight for s in specs] == [1.0, 0.6, -0.4]
        assert_allclose(specs[0].axis, [1, 0, 0], atol=1e-14)
        assert_allclose(specs[1].axis, [0, 1, 0], atol=1e-14)
        assert_allclose(specs[2].axis, -np.ones(3) / np.sqrt(3), atol=1e-14)

    def test_cross_check_against_per_term_oracle(self):
        specs = standard_combination()
        f = spherical_function(specs)
        rng = np.random.default_rng(3)
        p = rng.normal(size=(200, 3))
        p /= np.linalg.norm(p, axis=1, keepdims=True)
        oracle = sum(
            s.weight * np.clip(p @ s.axis - s.a, 0, None) ** 4 for s in specs
        )
        assert_allclose(f(p), oracle, atol=1e-14)

    def test_third_derivative_lipschitz_along_meridian(self):
        # finite-difference probe across the cap edge of the leading term:
        # third-order quotients converge, fourth-order quotients stay bounded
        f = spherical_function(standard_combination())

        def path(t):
            return f(np.stack([np.cos(t), np.zeros_like(t), np.sin(t)], axis=-1))

        t_edge = np.arccos(0.5)  # edge of the cap around (1, 0, 0), in path angle
        d4 = [abs(fd_derivative(path, t_edge, 4, h)) for h in (1e-2, 1e-3)]
        assert max(d4) < 200.0  # bounded, no blow-up as h shrinks
        d3_gap = [
            abs(fd_derivative(path, t_edge, 3, h) - fd_derivative(path, t_edge, 3, h / 2))
            for h in (1e-2, 1e-3)
        ]
        assert d3_gap[1] < d3_gap[0]

    def test_doubled_grid_passes_bmc(self):
        tg = dfs_double(sample_sphere(spherical_function(standard_combination()), 64, 32))
        assert tg.bmc_violation() == 0.0
        nth = tg.n_theta // 2
        assert np.all(tg.values[0] == tg.values[0, 0])
        assert np.all(tg.values[nth] == tg.values[nth, 0])


class TestPresetsAndSerialization:
    def test_known_presets_exist(self):
        for name in ("constant", "coordinate-z", "f1", "f3", "f3-combo", "bandlimited-4"):
            assert name in preset_names()
            specs = preset(name)
            assert len(specs) >= 1

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset("nope")

    def test_coordinate_z(self):
        f = spherical_function(preset("coordinate-z"))
        rng = np.random.default_rng(4)
        p = rng.normal(size=(50, 3))
        p /= np.linalg.norm(p, axis=1, keepdims=True)
        assert_allclose(f(p), p[:, 2], atol=1e-15)

    def test_json_round_trip(self):
        specs = standard_combination()
        blob = json.dumps([spec_to_dict(s) for s in specs])
        back = [spec_from_dict(d) for d in json.loads(blob)]
        rng = np.random.default_rng(5)
        p = rng.normal(size=(100, 3))
        p /= np.linalg.norm(p, axis=1, keepdims=True)
        assert_allclose(
            spherical_function(back)(p), spherical_function(specs)(p), atol=1e-15
        )

    @pytest.mark.parametrize("term", [
        3, ["f_nu"], {"weight": 1.0}, {"kind": "f_nu", "a": None}, {"kind": "f_nu", "rotation": {"x": 1}},
        {"kind": "coordinate", "weight": "2"}, {"kind": "f_nu", "nu": "3"}, {"kind": "f_nu", "a": True},
        {"kind": "f_nu", "rotation": [["1", 0, 0], [0, 1, 0], [0, 0, 1]]},
    ], ids=["number", "list", "no-kind", "null-cut", "object-rotation",
            "string-weight", "string-nu", "boolean-cut", "string-rotation-entry"])
    def test_rejects_malformed_term(self, term):
        # the first five used to escape as an AttributeError, KeyError or TypeError; the strings were
        # read as numbers, as float("2") succeeds, and the boolean cut as 1, rejected only by its range
        with pytest.raises(ValueError, match="term"):
            spec_from_dict(term)

    def test_function_needs_a_term(self):
        # an empty sum used to fail with an IndexError on its first evaluation
        with pytest.raises(ValueError, match="at least one term"):
            spherical_function([])

    def test_real_valued_coefficients_conjugate_symmetric(self):
        from dfsphere.spectral import compute_coefficients

        for name in ("f1", "f3-combo", "bandlimited-4"):
            f = spherical_function(preset(name))
            table = compute_coefficients(dfs_double(sample_sphere(f, 32, 16)))
            assert table.conjugate_symmetry_violation() < 1e-12
