import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

import dfsphere
from dfsphere.analysis import (
    ErrorTableRow,
    adaptive_quadrature,
    coefficient_table_for,
    decay_report,
    error_table,
    fit_rate,
    hoelder_quotient_check,
    sobolev_probe,
    uniform_convergence_check,
    zeta_tail_sum,
)
from dfsphere.grids import dfs_double, sample_sphere
from dfsphere.spectral import CoefficientTable, compute_coefficients
from dfsphere.testfns import preset, spherical_function, standard_combination


def combo():
    return spherical_function(standard_combination())


class TestZetaTailSum:
    def test_first_shell(self):
        # the four points (+-1, 0), (0, +-1) contribute 4 * 1
        res = zeta_tail_sum(2, 1.0, h=1)
        assert_allclose(res.partial_sum, 4.0, atol=1e-15)

    def test_limit_is_scaled_zeta_two(self):
        res = zeta_tail_sum(2, 1.0, h=10)
        assert_allclose(res.limit, 2 * np.pi**2 / 3, atol=1e-12)

    def test_monotone_and_bounded(self):
        prev = 0.0
        for h in (1, 2, 5, 10, 50, 200, 1000):
            res = zeta_tail_sum(2, 1.0, h)
            assert res.partial_sum > prev
            assert res.partial_sum < res.limit
            prev = res.partial_sum

    def test_gap_below_integral_tail_bound(self):
        # sum over r > h of 4 r^(1-s) <= 4 integral_h^inf r^(1-s) dr
        for k, alpha in [(2, 1.0), (3, 0.5), (4, 0.9)]:
            s = k + alpha
            for h in (10, 100, 1000):
                res = zeta_tail_sum(k, alpha, h)
                bound = 4.0 * h ** (2.0 - s) / (s - 2.0)
                assert 0.0 < res.gap <= bound

    def test_rejects_divergent(self):
        with pytest.raises(ValueError, match="diverges"):
            zeta_tail_sum(1, 1.0, 10)

    def test_import_leaves_scipy_special_unloaded(self):
        # zeta_tail_sum imports scipy.special itself; `import dfsphere` must not
        src = os.path.dirname(os.path.dirname(dfsphere.__file__))
        code = "import sys, dfsphere; print('scipy.special' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"


class TestFitRate:
    def test_exact_power_law(self):
        rows = [
            ErrorTableRow(degree=h, shape="rectangle", n_terms=0, max_error=h**-3.0, elapsed=0.0)
            for h in (4, 8, 16, 32, 64)
        ]
        assert_allclose(fit_rate(rows), -3.0, atol=1e-9)

    def test_needs_three_usable_rows(self):
        rows = [
            ErrorTableRow(degree=4, shape="rectangle", n_terms=0, max_error=0.0, elapsed=0.0),
            ErrorTableRow(degree=8, shape="rectangle", n_terms=0, max_error=1e-3, elapsed=0.0),
            ErrorTableRow(degree=16, shape="rectangle", n_terms=0, max_error=1e-4, elapsed=0.0),
        ]
        with pytest.raises(ValueError, match="at least 3"):
            fit_rate(rows)


class TestErrorTable:
    def test_bandlimited_reproduced_exactly(self):
        f = spherical_function(preset("bandlimited-4"))
        rows = error_table(f, [4, 8], eval_size=(128, 64), oversample=8)
        for row in rows:
            assert row.max_error <= 1e-10

    def test_errors_strictly_decrease(self):
        rows = error_table(combo(), [16, 32, 64], eval_size=(256, 128), oversample=4)
        errs = [r.max_error for r in rows]
        assert errs[0] > errs[1] > errs[2]

    def test_n_terms_counts_half_domain(self):
        rows = error_table(combo(), [8], eval_size=(64, 32), grid_size=64)
        assert rows[0].n_terms == 17 * 9  # (2h+1)(h+1) for the rectangle

    def test_doubling_degree_beats_guaranteed_rate(self):
        rows = error_table(combo(), [32, 64], eval_size=(256, 128), oversample=4)
        assert rows[0].max_error / rows[1].max_error >= 2.0**2.7

    def test_rejects_unsorted_degrees(self):
        with pytest.raises(ValueError, match="ascending"):
            error_table(combo(), [16, 8])

    def test_elapsed_is_cumulative_from_call_start(self):
        from dfsphere.sh_reference import sh_analyze

        f = combo()
        sh = sh_analyze(sample_sphere(f, 128, 64), 24)
        start = time.perf_counter()
        rows = error_table(f, [8, 16, 24], eval_size=(128, 64), grid_size=128, sh_coefficients=sh)
        wall = time.perf_counter() - start
        elapsed = [r.elapsed for r in rows]
        assert elapsed == sorted(elapsed)
        assert elapsed[-1] >= 0.9 * wall


    def test_sh_column_memory_bounded(self):
        # the spherical-harmonics column on the default 512 x 257 reference;
        # its Legendre tables span the 257 colatitudes, not every grid point
        from dfsphere.sh_reference import sh_analyze

        f = combo()
        sh = sh_analyze(sample_sphere(f, 128, 64), 24)
        tracemalloc.start()
        try:
            rows = error_table(f, [8, 16, 24], sh_coefficients=sh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(0.1 <= r.max_error / r.sh_max_error <= 10.0 for r in rows)
        assert peak < 48 * 2**20


class TestDecayReport:
    def test_cos_theta_shells_vanish(self):
        f = lambda p: np.asarray(p)[..., 2]
        table = compute_coefficients(dfs_double(sample_sphere(f, 32, 16)))
        rep = decay_report(table, k=3, alpha=0.9, r_min=2, r_max=8)
        assert np.all(rep.shell_max < 1e-14)
        assert rep.slope == float("-inf")

    def test_combo_decay_exponent(self):
        table = coefficient_table_for(combo(), 128, oversample=4, grid_size=512)
        rep = decay_report(table, k=3, alpha=0.9, r_min=8, r_max=128)
        assert rep.slope <= -3.9
        assert rep.mann_kendall_frac >= 0.6

    def test_rescaled_sequence_bounded(self):
        table = coefficient_table_for(combo(), 128, oversample=4, grid_size=512)
        rep = decay_report(table, k=3, alpha=0.9, r_min=8, r_max=128)
        assert np.max(rep.rescaled) <= rep.rescaled[0] * 1.01

    def test_shell_parity_follows_z_parity(self):
        # under the BMC symmetry z -> -z acts as c_n -> (-1)^(n1 + n2) c_n, so a
        # z-even function has empty odd shells and a z-odd one empty even shells
        caps = standard_combination()
        f = combo()
        equatorial = spherical_function(caps[:2])  # cap axes (1, 0, 0), (0, 1, 0)
        z_odd = lambda p: 0.5 * (f(p) - f(np.asarray(p) * [1.0, 1.0, -1.0]))
        for g, empty_parity in ((equatorial, 1), (z_odd, 0)):
            table = compute_coefficients(dfs_double(sample_sphere(g, 256, 128)))
            rep = decay_report(table, k=3, alpha=0.9, r_min=1, r_max=64)
            largest = np.max(np.abs(table.values))
            empty = rep.radii % 2 == empty_parity
            assert np.max(rep.shell_max[empty]) <= 1e-14 * largest
            assert np.min(rep.shell_max[~empty][:8]) > 1e-6 * largest

    def test_cap_flags(self):
        table = coefficient_table_for(combo(), 32, grid_size=256)
        rep = decay_report(table, k=3, alpha=0.9, r_min=2, r_max=32, cap=1e-30)
        assert len(rep.flagged) > 0

    def test_mann_kendall_matches_pair_loop(self):
        # oracle: the all-pairs loop, counting pairs i < j with
        # rescaled[j] <= rescaled[i]; the fraction must agree bit for bit
        rng = np.random.default_rng(5)
        tables = [
            coefficient_table_for(combo(), 32, grid_size=128),
            CoefficientTable(rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))),
            CoefficientTable(rng.integers(0, 3, size=(64, 64)).astype(complex)),  # ties
        ]
        for table in tables:
            rep = decay_report(table, k=3, alpha=0.9, r_min=1, r_max=31)
            pairs = noninc = 0
            for i in range(len(rep.rescaled) - 1):
                pairs += len(rep.rescaled) - 1 - i
                noninc += int(np.count_nonzero(rep.rescaled[i + 1:] <= rep.rescaled[i]))
            assert rep.mann_kendall_frac == noninc / pairs

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_table(self, bad):
        table = coefficient_table_for(combo(), 16, grid_size=64)
        table.values[:] = bad
        with pytest.raises(ValueError, match="non-finite"):
            decay_report(table, 3, 0.9, r_min=1, r_max=16)
        table = coefficient_table_for(combo(), 16, grid_size=64)
        table.values[40, 30] = bad
        with pytest.raises(ValueError, match="non-finite"):
            decay_report(table, 3, 0.9, r_min=1, r_max=16)

    def test_incomplete_shells_rejected(self):
        table = coefficient_table_for(combo(), 16, grid_size=64)
        with pytest.raises(ValueError, match="incomplete"):
            decay_report(table, 3, 0.9, r_min=2, r_max=60)


class TestHoelder:
    def test_constant_function(self):
        f = lambda p: np.ones(np.asarray(p).shape[:-1])
        rep = hoelder_quotient_check(f, alpha=0.5, n_pairs=2000, seed=0)
        assert rep.holds
        assert rep.max_torus_quotient == 0.0
        assert rep.max_sphere_quotient == 0.0

    def test_coordinate(self):
        f = lambda p: np.asarray(p)[..., 2]
        rep = hoelder_quotient_check(f, alpha=0.5, n_pairs=10_000, seed=1)
        assert rep.holds
        assert rep.max_sphere_quotient < 2.0 ** 0.5 * 1.01  # diam(S^2)^(1-alpha)

    def test_combo(self):
        rep = hoelder_quotient_check(combo(), alpha=0.9, n_pairs=10_000, seed=2)
        assert rep.holds
        assert np.isfinite(rep.max_sphere_quotient)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            hoelder_quotient_check(combo(), alpha=1.0, n_pairs=10)


class TestAdaptiveQuadrature:
    def test_polynomial(self):
        assert_allclose(adaptive_quadrature(lambda t: t**4, 0.0, 2.0), 32.0 / 5.0, rtol=1e-12)

    def test_oscillatory(self):
        val = adaptive_quadrature(np.sin, 0.0, np.pi)
        assert_allclose(val, 2.0, rtol=1e-10)

    def test_matches_scipy_on_energy_integrand(self):
        from dfsphere.analysis import _energy_integrand

        for a, b in [(1e-4, 1e-2), (0.3, np.pi / 2)]:
            mine = adaptive_quadrature(_energy_integrand, a, b)
            ref, _ = quad(_energy_integrand, a, b, epsabs=0, epsrel=1e-12)
            assert_allclose(mine, ref, rtol=1e-9)


class TestSobolevProbe:
    def test_against_scipy_oracle(self):
        probe = sobolev_probe([1e-2, 1e-3])

        def torus_oracle(eps):
            total = 0.0
            for lo, hi in zip(*(lambda b: (b[:-1], b[1:]))(np.geomspace(eps, np.pi / 2, 40))):
                v, _ = quad(
                    lambda t: np.cos(t) ** 2 / (np.sin(t) ** 2 * np.log(8 / np.sin(t)) ** 2),
                    lo,
                    hi,
                    epsabs=0,
                    epsrel=1e-12,
                )
                total += v
            return 4 * np.pi * total

        assert_allclose(probe.torus_energy[0], torus_oracle(1e-2), rtol=1e-8)
        assert_allclose(probe.torus_energy[1], torus_oracle(1e-3), rtol=1e-8)

    def test_sphere_energy_converges_torus_diverges(self):
        probe = sobolev_probe([1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
        incr = probe.sphere_increments
        assert np.all(incr > 0)
        assert np.all(np.diff(incr) < 0)  # Cauchy behaviour
        assert probe.sphere_energy[-1] <= 8 * np.pi / np.log(8.0)
        for i in range(2, 5):
            assert probe.torus_ratio(i) >= 5.0
        assert probe.torus_energy[-1] / probe.sphere_energy[-1] >= 100.0

    def test_asymptotic_torus_growth_law(self):
        # oracle: E_T(eps) ~ 4 pi / (eps ln^2(8/eps)) near the cutoff
        probe = sobolev_probe([1e-5, 1e-6])
        for eps, val in zip(probe.epsilons, probe.torus_energy):
            law = 4 * np.pi / (eps * np.log(8.0 / eps) ** 2)
            assert 0.5 <= val / law <= 2.0

    def test_rejects_non_descending(self):
        with pytest.raises(ValueError, match="descending"):
            sobolev_probe([1e-3, 1e-2])

    def test_rejects_tiny_epsilon(self):
        with pytest.raises(ValueError, match="1e-8"):
            sobolev_probe([1e-3, 1e-9])


class TestUniformConvergence:
    def test_bandlimited_tail_vanishes(self):
        f = spherical_function(preset("bandlimited-4"))
        stages = uniform_convergence_check(f, [4, 8], eval_size=(128, 64), grid_size=128)
        assert stages[0].tail_sum < 1e-12
        assert stages[0].measured_error <= 1e-10
        assert all(s.dominated() for s in stages)

    def test_combo_tail_dominates_at_every_stage(self):
        stages = uniform_convergence_check(
            combo(), [8, 16, 32, 64], eval_size=(256, 128), grid_size=512
        )
        for s in stages:
            assert s.dominated(1e-8), (s.degree, s.measured_error, s.tail_sum)

    def test_tail_bound_monotone(self):
        stages = uniform_convergence_check(combo(), [8, 16, 32], eval_size=(128, 64), grid_size=256)
        tails = [s.tail_sum for s in stages]
        assert tails[0] > tails[1] > tails[2]


class TestConcurrency:
    def test_point_evaluation_thread_safe(self):
        # pure functions over immutable tables: concurrent calls agree with serial
        from concurrent.futures import ThreadPoolExecutor

        from dfsphere.spectral import SpectralSet, dfs_fourier_sum

        table = coefficient_table_for(combo(), 16, grid_size=128)
        omega = SpectralSet("rectangle", 12, half=True)
        rng = np.random.default_rng(77)
        batches = []
        for _ in range(8):
            p = rng.normal(size=(200, 3))
            batches.append(p / np.linalg.norm(p, axis=1, keepdims=True))
        serial = [dfs_fourier_sum(table, omega, p) for p in batches]
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(lambda p: dfs_fourier_sum(table, omega, p), batches))
        for s, p in zip(serial, parallel):
            assert np.array_equal(s, p)
