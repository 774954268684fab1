"""Quantitative checks: truncation error tables, coefficient decay, the lattice
zeta identity, the pointwise Hoelder transfer, and the Sobolev energy probe.

Each check is a pure pipeline from a function (or coefficient table) to a
small report object; reports carry everything a caller needs to assert or
serialize.
"""

import time
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .geometry import dfs_coord
from .grids import LatLonGrid, sample_sphere, dfs_double
from .sh_reference import sh_synthesize
from .spectral import SpectralSet, _check_degrees, _grid_sum, compute_coefficients

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
]

#: relative gap accepted between the 20- and 40-point values of each panel of :func:`sobolev_probe`
_QUAD_RTOL = 1e-10
#: rounding allowed between the two quotients of :func:`hoelder_quotient_check`
_QUOTIENT_ATOL = 1e-12


# ---------------------------------------------------------------------------
# lattice zeta identity

@dataclass
class ZetaTailResult:
    partial_sum: float
    limit: float

    @property
    def gap(self):
        return self.limit - self.partial_sum


def _riemann_zeta(s):
    """Riemann zeta at real s > 1: the first 999 terms plus the Euler-Maclaurin
    tail from n = 1000, whose truncation error is O(n^(-s-5))."""
    n = 1000.0
    t = n**-s  # each tail term multiplies t first, so a large s underflows to 0, not inf * 0
    tail = n * t / (s - 1.0) + t / 2.0 + s * t / (12.0 * n) - s * t * (s + 1.0) * (s + 2.0) / (720.0 * n**3)
    return float(np.sum(np.arange(1.0, n) ** -s) + tail)


def zeta_tail_sum(k, alpha, h):
    """Partial sums of sum over nonzero n in Z^2 of |n|_1^-(k + alpha).

    The l1 shell of radius r contains exactly 4r lattice points, so the sum
    up to radius h is 4 * sum_{r <= h} r^{1 - k - alpha}, which increases to
    4 zeta(k + alpha - 1).
    """
    if not 2 < k + alpha < np.inf:
        raise ValueError(f"need a finite k + alpha > 2 (the series diverges below), got {k + alpha}")
    if h < 1:
        raise ValueError("need at least one shell")
    r = np.arange(1, h + 1, dtype=float)
    partial = 4.0 * float(np.sum(r ** (1.0 - k - alpha)))
    limit = 4.0 * _riemann_zeta(k + alpha - 1.0)
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


def coefficient_table_for(f, grid_size):
    """Coefficient table of f: sampled on the ``grid_size`` x ``grid_size / 2`` lat-lon
    grid, doubled to the ``grid_size`` x ``grid_size`` torus and transformed in full."""
    return compute_coefficients(dfs_double(sample_sphere(f, grid_size, grid_size // 2)))


class Truncation(namedtuple("Truncation", "table reference omega synthesis max_error")):
    """One degree of :func:`truncations`."""

    __slots__ = ()

    @property
    def tail_sum(self):
        """Sum of |c_n| over the stored table outside the symmetrized set: the
        paper's bound on the sup error (beyond the table the coefficients are
        below the aliasing allowance)."""
        inside = self.omega.symmetrized().contains(self.table.n1_values[None, :], self.table.n2_values[:, None])
        return float(np.sum(np.abs(self.table.values[~inside])))


def truncations(
    f, degrees, shape="rectangle", norm="l2", eval_size=(512, 256), oversample=4, grid_size=None
):
    """Folded truncations of f at ascending degrees and their sup errors.

    Builds one coefficient table (see :func:`coefficient_table_for`) of size
    ``grid_size``, by default ``max(64, oversample * degrees[-1])`` rounded up
    to even, and one lat-lon reference grid of ``eval_size = (n_lambda,
    n_theta_half)``. For each degree it synthesizes the folded series over the
    half-domain set, the same sum as :func:`~dfsphere.spectral.dfs_fourier_sum`,
    on the reference's rows only: the colatitudes 0 .. pi of the doubled grid,
    by a pruned inverse FFT that forms no other row. It yields a
    :class:`Truncation` carrying the table, the reference, the half-domain set,
    the synthesis as a :class:`~dfsphere.grids.LatLonGrid` and its sup error
    over the reference; its ``tail_sum`` is the paper's bound on that error.
    """
    degrees = _check_degrees(degrees)
    if grid_size is None:
        grid_size = max(64, int(oversample) * degrees[-1])
        grid_size += grid_size % 2
    table = coefficient_table_for(f, grid_size)
    reference = sample_sphere(f, *eval_size)
    nth = reference.n_theta_half
    # torus row nth + j lies at colatitude pi j / nth; row 2 nth wraps to the theta = -pi row
    rows = (nth + np.arange(nth + 1)) % (2 * nth)
    for h in degrees:
        omega = SpectralSet(shape, h, norm, half=True)
        synthesis = LatLonGrid(_grid_sum(table, omega, 2 * nth, reference.n_lambda, rows))
        err = float(np.max(np.abs(synthesis.values - reference.values)))
        yield Truncation(table, reference, omega, synthesis, err)


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

    Each ``max_error`` comes from :func:`truncations`, synthesized on the
    evaluation grid's own lat-lon rows. Each ``sh_max_error`` comes from the
    :func:`~dfsphere.sh_reference.sh_synthesize` sum at that row's degree on
    the same longitudes and colatitudes.

    Rows are computed in order; each row's ``elapsed`` is the wall time from
    the start of the call to the end of that row, so it includes the
    coefficient table, the reference grid and the spherical-harmonics sums of
    the rows before it.
    """
    start = time.perf_counter()
    rows = []
    for t in truncations(f, degrees, shape, norm, eval_size, oversample, grid_size):
        sh_error = None
        if sh_coefficients is not None:
            ref = t.reference
            (sh_sum,) = sh_synthesize(sh_coefficients, ref.lambdas, ref.thetas, [t.omega.degree])
            sh_error = float(np.max(np.abs(sh_sum - ref.values)))
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

    Rows of degree 0 or with non-positive error (exact reproduction) are
    unusable; at least three usable rows are required. Callers wanting an
    asymptotic rate should pass only degrees past the pre-asymptotic regime
    (>= 16 in the benchmarks).
    """
    usable = [(r.degree, r.max_error) for r in rows if r.degree > 0 and r.max_error > 0.0]
    if len(usable) < 3:
        raise ValueError(f"need at least 3 rows with positive degree and error, got {len(usable)}")
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


def decay_report(table, k, alpha, r_min=1, r_max=None):
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
    values = table.values  # one read: a half table assembles its values on each
    if not np.all(np.isfinite(values)):
        raise ValueError("coefficient table holds non-finite values")
    n1 = table.n1_values
    n2 = table.n2_values
    radius = np.abs(n1)[None, :] + np.abs(n2)[:, None]
    limit = table.max_degree + 1
    r_max = limit if r_max is None else r_max
    if r_max > limit:
        raise ValueError(f"shells above radius {limit} are incomplete in this table")
    if not 1 <= r_min <= r_max:
        raise ValueError(f"need 1 <= r_min <= r_max, got r_min={r_min}, r_max={r_max}")
    shell_max = np.zeros(int(radius.max()) + 1)
    np.maximum.at(shell_max, radius.ravel(), np.abs(values).ravel())
    radii = np.arange(r_min, r_max + 1)
    maxima = shell_max[radii]
    rescaled = maxima * radii.astype(float) ** (k + alpha)
    # shells below one ulp of the dominant coefficient are rounding noise;
    # when nothing rises above that floor the slope sentinel is -inf
    floor = np.max(np.abs(values)) * np.finfo(float).eps
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
    return DecayReport(
        radii=radii,
        shell_max=maxima,
        rescaled=rescaled,
        slope=slope,
        frac_nonincreasing=frac,
        mann_kendall_frac=mk,
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


def hoelder_quotient_check(f, alpha, n_pairs, seed=0):
    """Pairwise transfer inequality between torus and sphere quotients.

    For random torus points x, y with distinct sphere images, the composed
    function obeys

        |f(phi x) - f(phi y)| / ||x - y||^alpha
            <= |f(phi x) - f(phi y)| / ||phi x - phi y||^alpha,

    because the coordinate transform is 1-Lipschitz from the flat plane; the
    check verifies every sampled pair and reports the two maximal quotients.
    A pair whose quotients are NaN counts as a violation.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    if n_pairs < 1:
        raise ValueError(f"need at least one pair, got n_pairs={n_pairs}")
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
    violations = int(np.count_nonzero(~(torus_q <= sphere_q + _QUOTIENT_ATOL)))
    return HoelderReport(
        n_pairs=int(len(x)),
        n_violations=violations,
        max_torus_quotient=float(np.max(torus_q)) if len(x) else 0.0,
        max_sphere_quotient=float(np.max(sphere_q)) if len(x) else 0.0,
    )


# ---------------------------------------------------------------------------
# Sobolev energy probe

def _panel_integral(fun, lo, hi):
    """40-point Gauss-Legendre integrals of the elementwise fun over the broadcast panels [lo, hi].

    Raises unless each panel's 20-point value is within ``_QUAD_RTOL`` relative of it.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    mid, half = (0.5 * (hi + lo))[..., None], 0.5 * (hi - lo)
    # nodes built per call: at module level they would load numpy.polynomial on `import dfsphere`
    nodes = map(np.polynomial.legendre.leggauss, (20, 40))
    coarse, fine = (half * (fun(mid + half[..., None] * x) @ w) for x, w in nodes)
    gap = np.abs(fine - coarse)
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = np.where(gap > 0, gap / np.abs(fine), gap)  # NaN stays NaN, which argmax ranks worst
    if not np.all(gap <= _QUAD_RTOL):
        i = np.unravel_index(np.argmax(gap), gap.shape)
        raise RuntimeError(f"quadrature did not converge on [{lo[i]}, {hi[i]}]: 20/40-point gap {gap[i]:.3e}")
    return fine


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


def sobolev_probe(epsilons):
    """Gradient energies of the log-log counterexample on shrinking cutoffs.

    For each cutoff the probe integrates

        E_S = 2 pi * int cos^2(t) / (sin(t) ln^2(8/sin t)) dt    (sphere)
        E_T = 2 pi * int cos^2(t) / (sin^2(t) ln^2(8/sin t)) dt  (torus)

    over [eps, pi - eps]. E_S converges as eps -> 0 while E_T grows like
    1 / (eps ln^2(1/eps)): the transform preserves square-integrability but
    not first-order Sobolev regularity. The integrals over [eps, pi/2] are sums
    of 23 Gauss-Legendre panels (:func:`_panel_integral`), mirrored onto [pi/2, pi - eps].
    """
    eps = np.asarray(list(epsilons), dtype=float)
    if not (eps.size and np.all(np.diff(eps) < 0) and 1e-8 <= eps[-1] and eps[0] < np.pi / 2.0):
        raise ValueError(f"epsilons must be non-empty, strictly descending and within [1e-8, pi/2), got {eps}")
    # log-spaced breakpoints: the integrands vary over many decades near the cutoff
    brk = np.geomspace(eps, np.pi / 2.0, 24, axis=-1)
    lo, hi = brk[:, :-1], brk[:, 1:]
    s_val = _panel_integral(lambda t: _energy_integrand(t) * np.sin(t), lo, hi).sum(axis=-1)
    t_val = _panel_integral(_energy_integrand, lo, hi).sum(axis=-1)
    return SobolevReport(
        epsilons=eps,
        sphere_energy=2.0 * np.pi * 2.0 * s_val,
        torus_energy=2.0 * np.pi * 2.0 * t_val,
    )
