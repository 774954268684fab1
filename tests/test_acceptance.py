"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Three criteria state their claim in a form that follows from the
construction rather than from the pinned inputs:

* C2: the Gram is taken over the orthogonal basis, the push-down members
  with n2 > 0 or n1 even. The (odd n1, 0) members lie in the closed span of
  the odd-n2 sine modes with the same n1 (inner product -8 pi i / n2), so
  they are not part of it; ``tests/test_spectral.py`` pins that closed form.
* C8: the sign test compares each l1 shell with the next shell of the same
  parity. Under the BMC symmetry even shells carry only the z-even part of f
  and odd shells only the z-odd part, so neighbouring shells measure
  different functions.
* C10: the sphere energy converges like E_S(0) - 4 pi cos(eps) / ln(8/sin eps),
  so convergence is shown by the limit estimate
  E_S(eps) + 4 pi cos(eps) / ln(8/sin eps) agreeing across the epsilon ladder.

Every criterion must pass at its tolerance and within its runtime budget.
"""

import time
from functools import partial

import numpy as np

from dfsphere.analysis import (
    decay_report,
    error_table,
    fit_rate,
    hoelder_quotient_check,
    sobolev_probe,
    truncations,
    zeta_tail_sum,
)
from dfsphere.geometry import dfs_coord, dfs_coord_inverse, jacobian
from dfsphere.grids import dfs_double, sample_sphere
from dfsphere.spectral import (
    SpectralSet,
    basis_b,
    compute_coefficients,
    dfs_fourier_sum,
    gram_matrix,
    orthogonal_indices,
    partial_sum_torus,
)
from dfsphere.testfns import (
    TestFunctionSpec,
    preset,
    rotation_to,
    spherical_function,
    standard_combination,
)

_cache = {}


def combo():
    return spherical_function(standard_combination())


def combo_table_1024():
    if "combo1024" not in _cache:
        start = time.perf_counter()
        table = compute_coefficients(dfs_double(sample_sphere(combo(), 1024, 512)))
        _cache["combo1024"] = (table, time.perf_counter() - start)
    return _cache["combo1024"]


def report(cid, name, passed, detail, elapsed):
    status = "PASS" if passed else "FAIL"
    print(f"[ACCEPTANCE] {cid} {name}: {status} ({detail}; {elapsed:.2f}s)")


def random_sphere_points(rng, n):
    p = rng.normal(size=(n, 3))
    return p / np.linalg.norm(p, axis=1, keepdims=True)


def test_c01_bmc_coefficient_symmetry():
    table, build_time = combo_table_1024()
    start = time.perf_counter()
    violation = table.symmetry_violation()
    # construction time is charged to this criterion even if another test built it
    total = build_time + (time.perf_counter() - start)
    ok = violation <= 1e-10 and total <= 5.0
    report("C01", "BMC coefficient symmetry (1024^2)", ok, f"max rel asym {violation:.2e}", total)
    assert violation <= 1e-10
    assert total <= 5.0


def test_c02_basis_orthogonality_gram():
    start = time.perf_counter()
    # the orthogonal basis within |n1| <= 4, 0 <= n2 <= 4: every member except
    # the glide-antisymmetric (odd n1, 0) ones. Sampled through the sphere map,
    # independently of the separable basis_gram behind `dfs verify orthogonality`
    indices = orthogonal_indices(4)
    G = gram_matrix([partial(basis_b, a, b) for a, b in indices], n_quad=512)
    diag = np.real(np.diag(G))
    expected = np.array([2 * np.pi**2 if b == 0 else 4 * np.pi**2 for a, b in indices])
    diag_err = float(np.max(np.abs(diag - expected)))
    max_off = float(np.max(np.abs(G - np.diag(np.diag(G)))))
    elapsed = time.perf_counter() - start
    ok = max_off <= 1e-10 and diag_err <= 1e-8 and elapsed <= 10.0
    report(
        "C02",
        f"basis orthogonality Gram ({len(indices)} members)",
        ok,
        f"max off-diag {max_off:.2e}, diag err {diag_err:.2e}",
        elapsed,
    )
    assert len(indices) == 41
    assert diag_err <= 1e-8
    assert elapsed <= 10.0
    assert max_off <= 1e-10, (
        f"Gram of the orthogonal basis (n2 > 0 or n1 even) has off-diagonal "
        f"{max_off:.3e} > 1e-10"
    )


def test_c03_fold_sum_equivalence():
    start = time.perf_counter()
    table = compute_coefficients(dfs_double(sample_sphere(combo(), 128, 64)))
    rng = np.random.default_rng(2024)
    points = random_sphere_points(rng, 1000)
    lam, th = dfs_coord_inverse(points)
    worst = 0.0
    for _ in range(10):
        shape = rng.choice(["rectangle", "ball"])
        norm = rng.choice(["l1", "l2"])
        h = int(rng.integers(1, 13))
        omega = SpectralSet(shape, h, norm, half=True)
        s_sphere = dfs_fourier_sum(table, omega, points)
        s_torus = partial_sum_torus(table, omega.symmetrized(), lam, th)
        worst = max(worst, float(np.max(np.abs(s_sphere - s_torus))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed <= 5.0
    report("C03", "fold/sum equivalence", ok, f"max deviation {worst:.2e} over 10 random sets", elapsed)
    assert worst <= 1e-10
    assert elapsed <= 5.0


def test_c04_exact_reproduction_of_bandlimited():
    start = time.perf_counter()
    rng = np.random.default_rng(8)
    eval_size = (512, 256)

    def sup_error(f, h):
        rows = error_table(f, [h], eval_size=eval_size, grid_size=64)
        return rows[0].max_error

    worst = sup_error(lambda p: np.asarray(p)[..., 2], 8)
    for _ in range(3):
        specs = [
            TestFunctionSpec(
                "harmonic_probe",
                nu=int(deg),
                rotation=rotation_to(rng.normal(size=3)),
                weight=float(rng.uniform(-1, 1)),
            )
            for deg in rng.choice([2, 3, 5, 8], size=3, replace=False)
        ]
        worst = max(worst, sup_error(spherical_function(specs), 8))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed <= 5.0
    report("C04", "exact reproduction at h=8", ok, f"sup error {worst:.2e}", elapsed)
    assert worst <= 1e-10
    assert elapsed <= 5.0


def test_c05_zeta_identity():
    start = time.perf_counter()
    res = zeta_tail_sum(2, 1.0, h=10_000)
    limit_err = abs(res.limit - 2 * np.pi**2 / 3)
    elapsed = time.perf_counter() - start
    ok = res.gap <= 1e-3 and res.gap >= 0 and limit_err < 1e-12 and elapsed <= 1.0
    report("C05", "l1 zeta identity", ok, f"gap at h=1e4 {res.gap:.2e}, limit err {limit_err:.1e}", elapsed)
    assert limit_err < 1e-12
    assert 0 <= res.gap <= 1e-3
    assert elapsed <= 1.0


def test_c06_tail_sum_domination():
    start = time.perf_counter()
    stages = [(t.omega.degree, t.max_error, t.tail_sum)
              for t in truncations(combo(), [8, 16, 32, 64], eval_size=(512, 256), grid_size=1024)]
    bad = [s for s in stages if not s[1] <= s[2] + 1e-8]
    elapsed = time.perf_counter() - start
    detail = ", ".join(f"h={h}: err {err:.1e} <= tail {tail:.1e}" for h, err, tail in stages)
    ok = not bad and elapsed <= 30.0
    report("C06", "tail-sum domination", ok, detail, elapsed)
    assert not bad
    assert elapsed <= 30.0


def test_c07_convergence_rates():
    start = time.perf_counter()
    degrees = [16, 32, 64, 128]
    rows_combo = error_table(combo(), degrees, eval_size=(512, 256), oversample=4)
    slope_combo = fit_rate(rows_combo)
    f1 = spherical_function(preset("f1"))
    rows_f1 = error_table(f1, degrees, eval_size=(512, 256), oversample=4)
    slope_f1 = fit_rate(rows_f1)
    elapsed = time.perf_counter() - start
    ok = slope_combo <= -2.7 and slope_f1 <= -0.9 and elapsed <= 60.0
    report(
        "C07",
        "convergence rates",
        ok,
        f"f3-combo slope {slope_combo:.2f} (<= -2.7), f1 slope {slope_f1:.2f} (<= -0.9)",
        elapsed,
    )
    assert slope_combo <= -2.7
    assert slope_f1 <= -0.9
    assert elapsed <= 60.0


def test_c08_coefficient_decay_sign_test():
    start = time.perf_counter()
    table, _ = combo_table_1024()
    rep = decay_report(table, k=3, alpha=0.9, r_min=8, r_max=128)
    elapsed = time.perf_counter() - start
    ok = rep.frac_nonincreasing >= 0.6
    report(
        "C08",
        "coefficient decay trend",
        ok,
        f"same-parity non-increasing {rep.frac_nonincreasing:.2f} (>= 0.6 required), "
        f"all-pairs Mann-Kendall {rep.mann_kendall_frac:.2f}, raw decay slope {rep.slope:.2f}",
        elapsed,
    )
    assert rep.slope <= -3.9  # the decay itself beats the smoothness bound
    assert rep.mann_kendall_frac >= 0.6  # genuine decreasing trend, all pairs
    assert elapsed <= 10.0
    assert rep.frac_nonincreasing >= 0.6, (
        f"only {rep.frac_nonincreasing:.2f} of the rescaled shell maxima are <= those "
        f"of the previous same-parity shell (>= 0.6 required; all-pairs trend "
        f"fraction {rep.mann_kendall_frac:.2f}, decay slope {rep.slope:.2f})"
    )


def test_c09_hoelder_transfer():
    start = time.perf_counter()
    worst = None
    for name in ("coordinate-z", "f3-combo"):
        f = spherical_function(preset(name))
        for alpha in (0.3, 0.9):
            rep = hoelder_quotient_check(f, alpha=alpha, n_pairs=10_000, seed=123)
            if rep.n_violations:
                worst = (name, alpha, rep.n_violations)
    elapsed = time.perf_counter() - start
    ok = worst is None and elapsed <= 5.0
    report("C09", "Hoelder transfer (k=0)", ok, "all 4 x 10^4 pairwise inequalities hold", elapsed)
    assert worst is None, worst
    assert elapsed <= 5.0


def test_c10_sobolev_counterexample():
    start = time.perf_counter()
    probe = sobolev_probe([1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    incr = probe.sphere_increments
    shrinking = bool(np.all(np.diff(incr) < 0))
    # integrating by parts, E_S(eps) = 4 pi [int_eps^(pi/2) sin t / ln(8/sin t) dt
    # - cos(eps) / ln(8/sin eps)], so adding the boundary term back leaves an
    # estimate of the limit E_S(0) that moves only by O(eps^2)
    eps = probe.epsilons
    limits = probe.sphere_energy + 4.0 * np.pi * np.cos(eps) / np.log(8.0 / np.sin(eps))
    limit_spread = float(np.ptp(limits) / limits[-1])
    ratios = [probe.torus_ratio(i) for i in (2, 3, 4)]  # eps <= 1e-4
    divergence = float(probe.torus_energy[-1] / probe.sphere_energy[-1])
    elapsed = time.perf_counter() - start
    ok = shrinking and limit_spread <= 1e-3 and all(r >= 5 for r in ratios) and divergence >= 100
    report(
        "C10",
        "Sobolev counterexample",
        ok,
        f"increments shrink: {shrinking}, limit estimate {limits[-1]:.6f} spread "
        f"{limit_spread:.2e} (<= 1e-3 required), torus ratios "
        f"{', '.join(f'{r:.2f}' for r in ratios)} (>= 5), E_T/E_S {divergence:.0f} (>= 100)",
        elapsed,
    )
    assert shrinking
    assert all(r >= 5.0 for r in ratios)
    assert divergence >= 100.0
    assert elapsed <= 5.0
    assert limit_spread <= 1e-3, (
        f"limit estimates E_S(eps) + 4 pi cos(eps) / ln(8/sin eps) spread by "
        f"{limit_spread:.3e} of the total across the epsilon ladder (> 1e-3): "
        f"{', '.join(f'{v:.8f}' for v in limits)}"
    )


def test_c11_dfs_vs_sh_parity():
    start = time.perf_counter()
    from dfsphere.sh_reference import sh_analyze

    f = combo()
    degrees = [16, 32, 64]
    sh_co = sh_analyze(sample_sphere(f, 512, 256), 64)
    rows = error_table(
        f, degrees, eval_size=(256, 128), oversample=4, sh_coefficients=sh_co
    )
    ratios = [r.max_error / r.sh_max_error for r in rows]
    elapsed = time.perf_counter() - start
    ok = all(0.1 <= r <= 10.0 for r in ratios) and elapsed <= 120.0
    report(
        "C11",
        "DFS vs SH parity",
        ok,
        "ratios " + ", ".join(f"h={h}: {r:.2f}" for h, r in zip(degrees, ratios)),
        elapsed,
    )
    for r in ratios:
        assert 0.1 <= r <= 10.0
    assert elapsed <= 120.0


def test_c12_geometry_contraction_and_jacobian():
    start = time.perf_counter()
    rng = np.random.default_rng(12)
    x = rng.uniform(-np.pi, np.pi, size=(100_000, 2))
    y = rng.uniform(-np.pi, np.pi, size=(100_000, 2))
    d_sphere = np.linalg.norm(
        dfs_coord(x[:, 0], x[:, 1]) - dfs_coord(y[:, 0], y[:, 1]), axis=1
    )
    d_plane = np.linalg.norm(x - y, axis=1)
    contraction_ok = bool(np.all(d_sphere <= d_plane + 1e-12))

    lam = rng.uniform(-np.pi, np.pi, 10_000)
    th = rng.uniform(-np.pi, np.pi, 10_000)
    hvec = rng.normal(size=(10_000, 2))
    J = jacobian(lam, th)
    jh = np.einsum("pij,pj->pi", J, hvec)
    lhs = np.sum(jh * jh, axis=1)
    rhs = hvec[:, 0] ** 2 * np.sin(th) ** 2 + hvec[:, 1] ** 2
    jac_err = float(np.max(np.abs(lhs - rhs)))
    elapsed = time.perf_counter() - start
    ok = contraction_ok and jac_err <= 1e-12 and elapsed <= 1.0
    report(
        "C12",
        "geometry contraction + Jacobian identity",
        ok,
        f"contraction holds on 1e5 pairs, Jacobian identity residual {jac_err:.2e}",
        elapsed,
    )
    assert contraction_ok
    assert jac_err <= 1e-12
    assert elapsed <= 1.0
