"""Quantitative checks: truncation error tables, coefficient decay, the lattice
zeta identity, the pointwise Hoelder transfer, and the Sobolev energy probe.

Each check is a pure pipeline from a function (or coefficient table) to a
small report object; reports carry everything a caller needs to assert or
serialize.
"""

import time
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .geometry import dfs_coord
from .grids import sample_sphere, dfs_double
from .spectral import SpectralSet, compute_coefficients, partial_sum_grid

__all__ = [
    "ZetaTailResult",
    "zeta_tail_sum",
    "Truncation",
    "truncations",
    "ErrorTableRow",
    "error_table",
    "fit_rate",
    "DecayReport",
    "decay_report",
    "HoelderReport",
    "hoelder_quotient_check",
    "SobolevReport",
    "sobolev_probe",
    "ConvergenceStage",
    "uniform_convergence_check",
    "adaptive_quadrature",
]


# ---------------------------------------------------------------------------
# lattice zeta identity

@dataclass
class ZetaTailResult:
    partial_sum: float
    limit: float

    @property
    def gap(self):
        return self.limit - self.partial_sum


def zeta_tail_sum(k, alpha, h):
    """Partial sums of sum over nonzero n in Z^2 of |n|_1^-(k + alpha).

    The l1 shell of radius r contains exactly 4r lattice points, so the sum
    up to radius h is 4 * sum_{r <= h} r^{1 - k - alpha}, which increases to
    4 zeta(k + alpha - 1).
    """
    # imported here: scipy.special takes most of the time of `import dfsphere`
    from scipy.special import zeta as riemann_zeta

    if k + alpha <= 2:
        raise ValueError("series diverges for k + alpha <= 2")
    if h < 1:
        raise ValueError("need at least one shell")
    r = np.arange(1, h + 1, dtype=float)
    partial = 4.0 * float(np.sum(r ** (1.0 - k - alpha)))
    limit = 4.0 * float(riemann_zeta(k + alpha - 1.0))
    return ZetaTailResult(partial_sum=partial, limit=limit)


# ---------------------------------------------------------------------------
# truncation error tables

@dataclass
class ErrorTableRow:
    degree: int
    shape: str
    n_terms: int
    max_error: float
    elapsed: float
    sh_max_error: float | None = None


def coefficient_table_for(f, max_degree, oversample=4, grid_size=None):
    """Coefficient table of the doubled grid, oversampled past a degree bound."""
    if grid_size is None:
        grid_size = max(64, int(oversample) * int(max_degree))
        grid_size += grid_size % 2
    g = sample_sphere(f, grid_size, grid_size // 2)
    return compute_coefficients(dfs_double(g))


#: one degree of :func:`truncations`
Truncation = namedtuple("Truncation", "table reference omega torus max_error")


def truncations(
    f, degrees, shape="rectangle", norm="l2", eval_size=(512, 256), oversample=4, grid_size=None
):
    """Folded truncations of f at ascending degrees and their sup errors.

    Builds one coefficient table (see :func:`coefficient_table_for`) and one
    lat-lon reference grid of ``eval_size = (n_lambda, n_theta_half)``. For
    each degree it synthesizes the symmetrized half-domain truncation on the
    doubled evaluation grid with the inverse FFT, crops that torus grid to
    colatitudes in [0, pi] and yields a :class:`Truncation` carrying the table,
    the reference, the half-domain set, the torus grid and the sup error over
    the reference.
    """
    degrees = list(degrees)
    if degrees != sorted(degrees):
        raise ValueError("degrees must be ascending")
    table = coefficient_table_for(f, degrees[-1], oversample, grid_size)
    reference = sample_sphere(f, *eval_size)
    nth = reference.n_theta_half
    for h in degrees:
        omega = SpectralSet(shape, h, norm, half=True)
        torus = partial_sum_grid(table, omega.symmetrized(), 2 * nth, reference.n_lambda)
        upper = np.vstack([torus.values[nth:], torus.values[0:1]])
        err = float(np.max(np.abs(upper - reference.values)))
        yield Truncation(table, reference, omega, torus, err)


def error_table(
    f,
    degrees,
    shape="rectangle",
    norm="l2",
    eval_size=(512, 256),
    oversample=4,
    grid_size=None,
    sh_coefficients=None,
):
    """Sup-norm truncation errors for a list of degrees.

    Parameters
    ----------
    f : callable
        Spherical function.
    degrees : sequence of int
        Ascending truncation degrees.
    shape, norm : str
        Truncation geometry ("rectangle", or "ball" with "l1"/"l2" norm).
    eval_size : (n_lambda, n_theta_half)
        Evaluation grid for the sup norm.
    oversample : int
        Coefficient grid carries at least ``oversample * max(degrees)`` points
        per dimension.
    sh_coefficients : SHCoefficients, optional
        When given, a spherical-harmonics truncation error at each degree is
        recorded alongside (comparison baseline).

    Rows are computed in order; each row's ``elapsed`` is the wall time from
    the start of the call to the end of that row, so it includes the
    coefficient table, the reference grid and the spherical-harmonics sums.
    """
    start = time.perf_counter()
    degrees = list(degrees)
    rows = []
    for t in truncations(f, degrees, shape, norm, eval_size, oversample, grid_size):
        sh_error = None
        if sh_coefficients is not None:
            if not rows:  # one pass serves every degree; timed within the first row
                from .sh_reference import sh_synthesize

                sh_sums = sh_synthesize(sh_coefficients, t.reference.lambdas, t.reference.thetas[:, None], degrees)
            sh_error = float(np.max(np.abs(sh_sums[len(rows)] - t.reference.values)))
        rows.append(ErrorTableRow(
            degree=t.omega.degree,
            shape=shape if shape == "rectangle" else f"ball-{norm}",
            n_terms=t.omega.size,
            max_error=t.max_error,
            elapsed=time.perf_counter() - start,
            sh_max_error=sh_error,
        ))
    return rows


def fit_rate(rows):
    """Least-squares slope of log(max_error) against log(degree).

    Rows with non-positive error (exact reproduction) are unusable; at least
    three usable rows are required. Callers wanting an asymptotic rate should
    pass only degrees past the pre-asymptotic regime (>= 16 in the benchmarks).
    """
    usable = [(r.degree, r.max_error) for r in rows if r.max_error > 0.0]
    if len(usable) < 3:
        raise ValueError(f"need at least 3 rows with positive error, got {len(usable)}")
    hs = np.log([u[0] for u in usable])
    es = np.log([u[1] for u in usable])
    return float(np.polyfit(hs, es, 1)[0])


# ---------------------------------------------------------------------------
# coefficient decay across l1 shells

@dataclass
class DecayReport:
    radii: np.ndarray
    shell_max: np.ndarray
    rescaled: np.ndarray
    slope: float
    frac_nonincreasing: float
    mann_kendall_frac: float
    flagged: list = field(default_factory=list)


def decay_report(table, k, alpha, r_min=1, r_max=None, cap=None):
    """Shell maxima of |c_n| over l1 spheres and their rescaled trend.

    ``rescaled[r] = max over |n|_1 = r of |c_n| * r^(k + alpha)`` stays bounded
    for functions with k + alpha orders of smoothness. The report carries the
    fitted log-log slope of the raw maxima, the fraction of shells whose
    rescaled maximum does not exceed that of the previous shell of the same
    parity (``rescaled[r + 2] <= rescaled[r]``), and the Mann-Kendall
    all-pairs non-increasing fraction.

    Shells are compared with their same-parity neighbours because the BMC
    symmetry makes the reflection z -> -z act as c_n -> (-1)^(n1 + n2) c_n:
    even shells carry only the z-even part of f and odd shells only the
    z-odd part, so the shell maxima are two interleaved sequences.
    """
    if not np.all(np.isfinite(table.values)):
        raise ValueError("coefficient table holds non-finite values")
    n1 = table.n1_values
    n2 = table.n2_values
    radius = np.abs(n1)[None, :] + np.abs(n2)[:, None]
    limit = min(int(np.max(np.abs(n1))), int(np.max(np.abs(n2))))
    if r_max is None:
        r_max = limit
    if r_max > limit:
        raise ValueError(f"shells above radius {limit} are incomplete in this table")
    shell_max = np.zeros(int(radius.max()) + 1)
    np.maximum.at(shell_max, radius.ravel(), np.abs(table.values).ravel())
    radii = np.arange(r_min, r_max + 1)
    maxima = shell_max[radii]
    rescaled = maxima * radii.astype(float) ** (k + alpha)
    # shells below one ulp of the dominant coefficient are rounding noise;
    # when nothing rises above that floor the slope sentinel is -inf
    floor = np.max(np.abs(table.values)) * np.finfo(float).eps
    positive = maxima > floor
    if np.count_nonzero(positive) >= 2:
        slope = float(np.polyfit(np.log(radii[positive]), np.log(maxima[positive]), 1)[0])
    else:
        slope = float("-inf")
    diffs = rescaled[2:] - rescaled[:-2]
    frac = float(np.mean(diffs <= 0.0)) if diffs.size else 1.0
    # all pairs i < j with rescaled[j] <= rescaled[i]
    i, j = np.triu_indices(len(rescaled), 1)
    mk = float(np.mean(rescaled[j] <= rescaled[i])) if i.size else 1.0
    flagged = [] if cap is None else [int(r) for r, v in zip(radii, rescaled) if v > cap]
    return DecayReport(
        radii=radii,
        shell_max=maxima,
        rescaled=rescaled,
        slope=slope,
        frac_nonincreasing=frac,
        mann_kendall_frac=mk,
        flagged=flagged,
    )


# ---------------------------------------------------------------------------
# pointwise Hoelder transfer at k = 0

@dataclass
class HoelderReport:
    n_pairs: int
    n_violations: int
    max_torus_quotient: float
    max_sphere_quotient: float

    @property
    def holds(self):
        return self.n_violations == 0


def hoelder_quotient_check(f, alpha, n_pairs, seed=0, slack=1e-12):
    """Pairwise transfer inequality between torus and sphere quotients.

    For random torus points x, y with distinct sphere images, the composed
    function obeys

        |f(phi x) - f(phi y)| / ||x - y||^alpha
            <= |f(phi x) - f(phi y)| / ||phi x - phi y||^alpha,

    because the coordinate transform is 1-Lipschitz from the flat plane; the
    check verifies every sampled pair and reports the two maximal quotients.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    x = rng.uniform(-np.pi, np.pi, size=(n_pairs, 2))
    y = rng.uniform(-np.pi, np.pi, size=(n_pairs, 2))
    px = dfs_coord(x[:, 0], x[:, 1])
    py = dfs_coord(y[:, 0], y[:, 1])
    sphere_dist = np.linalg.norm(px - py, axis=1)
    distinct = sphere_dist > 1e-12
    x, y, px, py, sphere_dist = x[distinct], y[distinct], px[distinct], py[distinct], sphere_dist[distinct]
    torus_dist = np.linalg.norm(x - y, axis=1)
    fx = np.asarray(f(px))
    fy = np.asarray(f(py))
    df = np.abs(fx - fy)
    torus_q = df / torus_dist**alpha
    sphere_q = df / sphere_dist**alpha
    violations = int(np.count_nonzero(torus_q > sphere_q + slack))
    return HoelderReport(
        n_pairs=int(len(x)),
        n_violations=violations,
        max_torus_quotient=float(np.max(torus_q)) if len(x) else 0.0,
        max_sphere_quotient=float(np.max(sphere_q)) if len(x) else 0.0,
    )


# ---------------------------------------------------------------------------
# Sobolev energy probe

def adaptive_quadrature(fun, a, b, rel_tol=1e-10, max_depth=60):
    """Adaptive Simpson quadrature with Richardson acceptance per panel.

    Panels split until the Richardson estimate |S2 - S1| / 15 meets the
    relative tolerance; raises if the depth limit is hit before convergence.
    """
    def simpson(lo, hi, flo, fmid, fhi):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    total = 0.0
    mid0 = 0.5 * (a + b)
    stack = [(a, b, fun(a), fun(mid0), fun(b), 0)]
    while stack:
        lo, hi, flo, fmid, fhi, depth = stack.pop()
        mid = 0.5 * (lo + hi)
        lmid = 0.5 * (lo + mid)
        rmid = 0.5 * (mid + hi)
        flm = fun(lmid)
        frm = fun(rmid)
        whole = simpson(lo, hi, flo, fmid, fhi)
        left = simpson(lo, mid, flo, flm, fmid)
        right = simpson(mid, hi, fmid, frm, fhi)
        err = (left + right - whole) / 15.0
        scale = abs(left + right) + 1e-300
        if abs(err) <= rel_tol * scale or abs(err) < 1e-15:
            total += left + right + err
        elif depth >= max_depth:
            raise RuntimeError(f"quadrature did not converge on [{lo}, {hi}]")
        else:
            stack.append((lo, mid, flo, flm, fmid, depth + 1))
            stack.append((mid, hi, fmid, frm, fhi, depth + 1))
    return total


def _energy_integrand(theta):
    s = np.sin(theta)
    return np.cos(theta) ** 2 / (s * s * np.log(8.0 / s) ** 2)


@dataclass
class SobolevReport:
    epsilons: np.ndarray
    sphere_energy: np.ndarray
    torus_energy: np.ndarray

    @property
    def sphere_increments(self):
        return np.diff(self.sphere_energy)

    def torus_ratio(self, i):
        """E_T at epsilon_i over E_T at the previous (10x larger) cutoff."""
        return float(self.torus_energy[i] / self.torus_energy[i - 1])


def sobolev_probe(epsilons, rel_tol=1e-10):
    """Gradient energies of the log-log counterexample on shrinking cutoffs.

    For each cutoff the probe integrates

        E_S = 2 pi * int cos^2(t) / (sin(t) ln^2(8/sin t)) dt    (sphere)
        E_T = 2 pi * int cos^2(t) / (sin^2(t) ln^2(8/sin t)) dt  (torus)

    over [eps, pi - eps]. E_S converges as eps -> 0 while E_T grows like
    1 / (eps ln^2(1/eps)): the transform preserves square-integrability but
    not first-order Sobolev regularity.
    """
    eps = np.asarray(list(epsilons), dtype=float)
    if np.any(np.diff(eps) >= 0):
        raise ValueError("epsilons must be strictly descending")
    if eps[-1] < 1e-8:
        raise ValueError("smallest epsilon must be >= 1e-8")
    e_sphere = []
    e_torus = []
    for e in eps:
        # split at log-spaced breakpoints: the integrands vary over many
        # decades near the endpoints, one adaptive panel each is robust
        brk = np.geomspace(e, np.pi / 2.0, 24)
        s_val = 0.0
        t_val = 0.0
        for lo, hi in zip(brk[:-1], brk[1:]):
            s_val += adaptive_quadrature(lambda t: _energy_integrand(t) * np.sin(t), lo, hi, rel_tol)
            t_val += adaptive_quadrature(_energy_integrand, lo, hi, rel_tol)
        # mirror half [pi/2, pi - eps] by symmetry of the integrands
        e_sphere.append(2.0 * np.pi * 2.0 * s_val)
        e_torus.append(2.0 * np.pi * 2.0 * t_val)
    return SobolevReport(
        epsilons=eps,
        sphere_energy=np.array(e_sphere),
        torus_energy=np.array(e_torus),
    )


# ---------------------------------------------------------------------------
# uniform convergence against the coefficient tail bound

@dataclass
class ConvergenceStage:
    degree: int
    measured_error: float
    tail_sum: float

    def dominated(self, allowance=1e-8):
        return self.measured_error <= self.tail_sum + allowance


def uniform_convergence_check(
    f, degrees, shape="rectangle", norm="l2", eval_size=(512, 256), oversample=4, grid_size=None
):
    """Measured sup error vs. the coefficient tail bound, stage by stage.

    For nested truncations the sup error is bounded by the sum of |c_n| over
    the excluded indices; the tail is computed over the stored table (beyond
    it the coefficients are below the aliasing allowance).
    """
    stages = []
    for t in truncations(f, degrees, shape, norm, eval_size, oversample, grid_size):
        inside = t.omega.symmetrized().contains(t.table.n1_values[None, :], t.table.n2_values[:, None])
        tail = float(np.sum(np.abs(t.table.values[~inside])))
        stages.append(ConvergenceStage(degree=t.omega.degree, measured_error=t.max_error, tail_sum=tail))
    return stages
