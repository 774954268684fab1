"""Correctness-first spherical harmonics expansion.

Used as the comparison baseline for the torus-side Fourier approximation.
Harmonics are orthonormal on the sphere (geodesy normalization, Condon-Shortley
phase included in the recurrence seed), so Y_n^k = Pbar_n^k(cos theta) e^{i k lambda}
with

    integral over S^2 of Y_n^k conj(Y_m^l) = delta_nm delta_kl.

Analysis uses an FFT in longitude and Clenshaw-Curtis quadrature in colatitude;
the equispaced-in-theta rows of a lat-lon grid are exactly the Chebyshev
(cosine-spaced) nodes in t = cos(theta). Analysis and synthesis
(:func:`sh_synthesize`) each build one Legendre table per order |k|. Synthesis
sums each order's table over the degree into a colatitude table and then
contracts that with one table of phases exp(i k lambda) over k.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import dfs_coord_inverse
from .spectral import _phases

__all__ = [
    "SHCoefficients",
    "legendre_table",
    "clenshaw_curtis_weights",
    "sh_analyze",
    "sh_partial_sums",
    "sh_synthesize",
]


def legendre_table(h, k, t):
    """Normalized associated Legendre values Pbar_n^k(t) for n = k .. h.

    Three-term recurrence in the degree with the normalized seed
    Pbar_0^0 = 1/sqrt(4 pi); the Condon-Shortley phase (-1)^k is carried by
    the minus sign in the order-raising step. Stable for the moderate degrees
    used here (the recurrence underflows only for orders in the thousands).

    Returns an array of shape (h - k + 1,) + t.shape.
    """
    if k < 0 or k > h:
        raise ValueError("order must satisfy 0 <= k <= degree bound")
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1.0):
        raise ValueError("argument must lie in [-1, 1]")
    s = np.sqrt(np.clip(1.0 - t * t, 0.0, None))
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


def _order_tables(h, t):
    """(k, P) and (-k, (-1)^k P) for k = 0 .. h, P = legendre_table(h, k, t): one recurrence per |k|."""
    for k in range(h + 1):
        P = legendre_table(h, k, t)
        yield k, P
        if k:
            yield -k, (-1.0) ** k * P


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
    |k| > n are zero padding.
    """

    degree: int
    values: np.ndarray

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
    factor absorbed by the t = cos(theta) substitution) in colatitude. Exact
    up to rounding for spherical polynomials of degree <= h when the grid
    resolves them (resolution >= 2h + 2 in both directions).
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
    for k, P in _order_tables(h, np.cos(grid.thetas)):
        values[abs(k):, k + h] = P @ (w * ghat[:, k % nlam] * (-1.0) ** (k % 2))
    return SHCoefficients(degree=h, values=values)


def sh_partial_sums(coeffs, points, degrees):
    """Truncations at each requested degree (ascending) at sphere points, shape (..., 3).

    Returns one array per entry of ``degrees``, stacked along the first axis.
    """
    return sh_synthesize(coeffs, *dfs_coord_inverse(points), degrees)


def sh_synthesize(coeffs, lam, theta, degrees):
    """Truncations at each requested degree (ascending) at longitudes and colatitudes.

    ``lam`` and ``theta`` broadcast against each other. The per-order Legendre
    recurrences fill a colatitude table A[d, ..., k + h], the sum over n <=
    degrees[d] of fhat_{n,k} Pbar_n^|k|(cos theta) (times (-1)^k for k < 0), on
    the colatitudes only; one contraction over k with the phase table
    exp(i k lam), k = -h .. h, from one recurrence table on the longitudes,
    then gives the sums. A row of longitudes and a column of colatitudes give a
    grid, and the contraction is then one matrix product. Points go in slices
    along the leading broadcast axis, so that A and the phase table each stay
    within 2^21 entries unless one index of that axis alone holds more.
    Returns shape (len(degrees),) + the broadcast shape.
    """
    degrees = np.asarray(degrees)
    if not (degrees.ndim == 1 and degrees.size and 0 <= degrees[0] and degrees[-1] <= coeffs.degree
            and np.all(np.diff(degrees) >= 0)):
        raise ValueError(f"degrees must be a non-empty ascending list within 0 .. {coeffs.degree}")
    h = int(degrees[-1])
    keep = np.arange(h + 1) <= degrees[:, None]
    shape = np.broadcast(lam, theta).shape
    lam = np.array(lam, dtype=float, ndmin=max(len(shape), 1))
    t = np.array(np.cos(theta), ndmin=lam.ndim)
    out = np.empty((len(degrees),) + (shape or (1,)), dtype=complex)
    # entries per index of the leading axis, counted for the tables that vary along it
    per_index = max(len(degrees) * t[0].size if len(t) > 1 else 1, lam[0].size if len(lam) > 1 else 1)
    step = max(1, 2**21 // (per_index * (2 * h + 1)))
    for s in range(0, out.shape[1], step):
        rows = slice(s, s + step)
        t_rows, lam_rows = (x[rows] if len(x) > 1 else x for x in (t, lam))
        _synthesize_slice(out[:, rows], coeffs, keep, t_rows, lam_rows)
    return out.reshape((len(degrees),) + shape)


def _synthesize_slice(out, coeffs, keep, t, lam):
    """Fill ``out`` with the sums of :func:`sh_synthesize` at colatitude cosines ``t`` and longitudes ``lam``.

    A slice's tables are freed on return, before the next slice builds its own.
    """
    h = keep.shape[1] - 1
    A = np.empty((2 * h + 1, len(keep)) + t.shape, dtype=complex)
    for k, P in _order_tables(h, t):
        c = keep[:, abs(k):] * coeffs.values[abs(k):h + 1, k + coeffs.degree]
        # two real products: a complex one would first copy P to complex
        A[k + h].real, A[k + h].imag = np.tensordot(c.real, P, 1), np.tensordot(c.imag, P, 1)
    A = np.moveaxis(A, 0, -1)
    E = _phases(lam.ravel(), np.arange(-h, h + 1)).reshape(lam.shape + (2 * h + 1,))
    if t.shape[-1] == 1:  # colatitude constant along the last axis: rows of A times E transposed
        np.matmul(A, E.swapaxes(-1, -2), out=out[..., None, :])
    else:
        np.einsum("d...k,...k->d...", A, E, out=out)
