"""Correctness-first spherical harmonics expansion.

Used as the comparison baseline for the torus-side Fourier approximation.
Harmonics are orthonormal on the sphere (geodesy normalization, Condon-Shortley
phase included in the recurrence seed), so Y_n^k = Pbar_n^k(cos theta) e^{i k lambda}
with

    integral over S^2 of Y_n^k conj(Y_m^l) = delta_nm delta_kl.

Analysis uses an FFT in longitude and Clenshaw-Curtis quadrature in colatitude;
the equispaced-in-theta rows of a lat-lon grid are exactly the Chebyshev
(cosine-spaced) nodes in t = cos(theta). Analysis and synthesis serve the
orders k and -k with one Legendre table and one product, Pbar_n^-k =
(-1)^k Pbar_n^k being a sign on a column. Synthesis contracts the colatitude
table so built with a table of phases exp(i k lambda) over k: on a grid by
one matrix product, at scattered points by the point kernel of the folded
series, ``spectral._point_sum``, which owns the slices and their budget.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import _unit_phases
from .spectral import _angle_phases, _check_degrees, _phases, _point_sum

__all__ = [
    "SHCoefficients",
    "clenshaw_curtis_weights",
    "sh_analyze",
    "sh_partial_sums",
    "sh_synthesize",
]


def _legendre_orders(h, w):
    """Normalized associated Legendre tables Pbar_n^k(cos theta), n = k .. h, for k = 0 .. h in turn.

    cos and sin theta are the real and imaginary parts of the unit phases
    ``w`` = exp(i theta), so the sine keeps its relative accuracy at the
    poles. The seed Pbar_k^k = -sqrt((2k + 1) / 2k) sin theta Pbar_{k-1}^{k-1}
    (the minus sign carries the Condon-Shortley phase; Pbar_0^0 = 1/sqrt(4 pi))
    is carried from order to order, and a three-term recurrence in the degree
    fills each table, of shape (h - k + 1,) + w.shape. The seed underflows
    only for orders in the thousands.
    """
    t, s = w.real, w.imag
    pkk = np.full(w.shape, 1.0 / np.sqrt(4.0 * np.pi))
    for k in range(h + 1):
        if k:
            pkk = -np.sqrt((2.0 * k + 1.0) / (2.0 * k)) * s * pkk
        out = np.empty((h - k + 1,) + w.shape)
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
        yield out


def clenshaw_curtis_weights(n):
    """Weights for the nodes t_j = cos(j pi / n), j = 0..n, on [-1, 1].

    Exact for polynomials of degree <= n. O(n^2) construction via the cosine
    sum; adequate for the grid sizes used here.
    """
    if n < 1:
        raise ValueError("need at least one panel")
    j = np.arange(n + 1)
    k = np.arange(0, n + 1, 2)
    moments = 2.0 / (1.0 - k.astype(float) ** 2)  # integral of T_k, even k
    eps_k = np.where((k == 0) | (k == n), 0.5, 1.0)
    C = np.cos(np.outer(k, j) * np.pi / n)
    w = (2.0 / n) * (eps_k[:, None] * moments[:, None] * C).sum(axis=0)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


@dataclass
class SHCoefficients:
    """Triangular store of expansion coefficients up to a degree bound.

    ``values[n, k + degree]`` holds the coefficient of Y_n^k; entries with
    |k| > n are zero padding. ``values`` is stored as complex128 and must have
    the shape (degree + 1, 2 degree + 1).
    """

    degree: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=complex)
        shape = (self.degree + 1, 2 * self.degree + 1)
        if self.values.shape != shape:
            raise ValueError(f"degree-{self.degree} coefficients need shape {shape}, got {self.values.shape}")

    def coeff(self, n, k):
        if abs(k) > n or n > self.degree:
            raise ValueError("index outside the triangle")
        return self.values[n, k + self.degree]

    def conjugate_symmetry_violation(self):
        """Max |fhat_{n,-k} - (-1)^k conj(fhat_{n,k})| over the triangle (real sources).

        Non-finite entries give NaN.
        """
        h = self.degree
        k = np.arange(h + 1)
        resid = np.abs(self.values[:, h - k] - (-1.0) ** k * np.conj(self.values[:, h + k]))
        return float(np.max(resid[k[None, :] <= k[:, None]]))


def sh_analyze(grid, h):
    """Expansion coefficients fhat_{n,k} of a lat-lon grid up to degree h.

    fhat_{n,k} = integral of f conj(Y_n^k) over the sphere, computed by an FFT
    in longitude and Clenshaw-Curtis quadrature (with the sin(theta) surface
    factor absorbed by the t = cos(theta) substitution) in colatitude, on one
    Legendre sweep over the phases exp(i theta) of the grid's colatitudes.
    Exact up to rounding for spherical polynomials of degree <= h when the
    grid resolves them (resolution >= 2h + 2 in both directions).
    """
    nth = grid.n_theta_half
    nlam = grid.n_lambda
    if nlam < 2 * h + 2 or nth < 2 * h + 2:
        raise ValueError(
            f"grid {nlam} x {nth + 1} under-resolves degree {h}; need >= {2 * h + 2} in both directions"
        )
    w = clenshaw_curtis_weights(nth)
    # ghat[:, k] = (2 pi / nlam) * sum_l g[:, l] e^{-i k lambda_l}; the grid
    # starts at lambda = -pi, hence the (-1)^k factor relative to the raw FFT.
    ghat = np.fft.fft(grid.values, axis=1) * (2.0 * np.pi / nlam)
    values = np.zeros((h + 1, 2 * h + 1), dtype=complex)
    for k, P in enumerate(_legendre_orders(h, _angle_phases(grid.thetas))):
        # orders k and -k: the (-1)^k of the grid origin, times (-1)^k of Pbar_n^-k for -k
        rhs = ghat[:, [k, -k]] * (w[:, None] * [(-1.0) ** k, 1.0])
        values[k:, [h + k, h - k]] = P @ rhs
    return SHCoefficients(degree=h, values=values)


def _truncation_mask(coeffs, degrees):
    """keep[n, d] = n <= degrees[d] for n = 0 .. degrees[-1]; degrees must ascend within the store."""
    degrees = _check_degrees(degrees)
    if degrees[-1] > coeffs.degree:
        raise ValueError(f"ascending degrees must lie within 0 .. {coeffs.degree}, got {degrees}")
    return np.arange(degrees[-1] + 1)[:, None] <= np.asarray(degrees)


def _colatitude_table(coeffs, keep, w):
    """A[k + h, j, d] = sum over n <= degrees[d] of fhat_{n,k} Pbar_n^k(cos theta_j), k = -h .. h.

    ``w`` holds the 1-d unit phases exp(i theta_j) and ``keep`` the
    :func:`_truncation_mask` of the degrees, h their largest. Each Legendre
    table serves the orders k and -k, Pbar_n^-k = (-1)^k Pbar_n^k being a sign
    on the coefficients. Each real product reads the complex coefficients as
    float pairs and writes its (j, d) slab of A in place.
    """
    h = len(keep) - 1
    A = np.empty((2 * h + 1, len(w), keep.shape[1]), dtype=complex)
    for k, P in enumerate(_legendre_orders(h, w)):
        for m in {k, -k}:
            c = keep[k:] * coeffs.values[k:h + 1, coeffs.degree + m, None] * (1.0 if m >= 0 else (-1.0) ** k)
            np.dot(P.T, c.view(float), out=A[h + m].view(float))
    return A


def sh_synthesize(coeffs, lam, theta, degrees):
    """Truncations at each requested degree (ascending) on the grid of 1-D longitudes and colatitudes.

    The colatitude table (:func:`_colatitude_table`) contracted over k with the
    phases exp(i k lam), k = -h .. h: one matrix product. Returns shape
    (len(degrees), len(theta), len(lam)); a non-finite angle raises ValueError.
    """
    if np.ndim(lam) != 1 or np.ndim(theta) != 1:
        raise ValueError(f"longitudes and colatitudes must be 1-d, got {np.shape(lam)} and {np.shape(theta)}")
    keep = _truncation_mask(coeffs, degrees)
    h = len(keep) - 1
    sums = np.tensordot(_colatitude_table(coeffs, keep, _angle_phases(theta)),
                        _phases(_angle_phases(lam), np.arange(-h, h + 1)), (0, 0))
    return np.moveaxis(sums, 1, 0)


def sh_partial_sums(coeffs, points, degrees):
    """Truncations at each requested degree (ascending) at sphere points, shape (..., 3).

    :func:`spectral._point_sum` of :func:`_colatitude_table` over the orders
    k = -h .. h, h the largest degree, at the points' unit phases exp(i lam)
    and exp(i theta). Returns shape (len(degrees),) + points.shape[:-1].
    """
    keep = _truncation_mask(coeffs, degrees)
    return _point_sum(np.arange(1 - len(keep), len(keep)), lambda w: _colatitude_table(coeffs, keep, w),
                      *_unit_phases(points), lead=keep.shape[1:])
