"""Slow, correctness-first spherical harmonics expansion.

Used as the comparison baseline for the torus-side Fourier approximation.
Harmonics are orthonormal on the sphere (geodesy normalization, Condon-Shortley
phase included in the recurrence seed), so Y_n^k = Pbar_n^k(cos theta) e^{i k lambda}
with

    integral over S^2 of Y_n^k conj(Y_m^l) = delta_nm delta_kl.

Analysis uses an FFT in longitude and Clenshaw-Curtis quadrature in colatitude;
the equispaced-in-theta rows of a lat-lon grid are exactly the Chebyshev
(cosine-spaced) nodes in t = cos(theta). Evaluation is the naive double sum.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SHCoefficients",
    "assoc_legendre",
    "legendre_table",
    "clenshaw_curtis_weights",
    "sh_analyze",
    "sh_evaluate",
    "sh_partial_sums",
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


def assoc_legendre(n, k, t):
    """Normalized associated Legendre value Pbar_n^k(t).

    Normalized so that 2 pi * integral over [-1, 1] of Pbar_n^k Pbar_m^k dt =
    delta_nm, i.e. Y_n^k = Pbar_n^k(cos theta) e^{i k lambda} is orthonormal
    on the sphere.
    """
    if k > n:
        raise ValueError("order k must not exceed degree n")
    return legendre_table(n, k, t)[-1]


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
    t = np.cos(grid.thetas)
    # ghat[:, k] = (2 pi / nlam) * sum_l g[:, l] e^{-i k lambda_l}; the grid
    # starts at lambda = -pi, hence the (-1)^k factor relative to the raw FFT.
    ghat = np.fft.fft(grid.values, axis=1) * (2.0 * np.pi / nlam)
    values = np.zeros((h + 1, 2 * h + 1), dtype=complex)
    for k in range(-h, h + 1):
        col = ghat[:, k % nlam] * (-1.0) ** (abs(k) % 2)
        P = legendre_table(h, abs(k), t)
        if k < 0:
            P = P * (-1.0) ** (abs(k) % 2)
        proj = P @ (w * col)
        for i, n in enumerate(range(abs(k), h + 1)):
            values[n, k + h] = proj[i]
    return SHCoefficients(degree=h, values=values)


def sh_evaluate(coeffs, points, degree=None):
    """Naive double-sum evaluation of the expansion at sphere points.

    Deliberately O(degree^2) work per point; ``degree`` truncates below the
    stored bound.
    """
    return sh_partial_sums(coeffs, points, [coeffs.degree if degree is None else degree])[-1]


def sh_partial_sums(coeffs, points, degrees):
    """Evaluations truncated at each requested degree (ascending), sharing work.

    Returns a list of arrays, one per entry of ``degrees``.
    """
    degrees = list(degrees)
    if degrees != sorted(degrees) or degrees[-1] > coeffs.degree:
        raise ValueError("degrees must ascend and stay within the stored bound")
    p = np.asarray(points, dtype=float)
    z = np.clip(p[..., 2], -1.0, 1.0)
    lam = np.arctan2(p[..., 1], p[..., 0])
    h = degrees[-1]
    # one recurrence per order; per-degree shells so truncations share work
    shells = np.zeros((h + 1,) + p.shape[:-1], dtype=complex)
    for k in range(-h, h + 1):
        P = legendre_table(h, abs(k), z)
        if k < 0:
            P = P * (-1.0) ** (abs(k) % 2)
        phase = np.exp(1j * k * lam)
        for i, n in enumerate(range(abs(k), h + 1)):
            c = coeffs.coeff(n, k)
            if c != 0:
                shells[n] += c * P[i] * phase
    snapshots = []
    acc = np.zeros(p.shape[:-1], dtype=complex)
    cut = 0
    for n in range(0, h + 1):
        acc += shells[n]
        while cut < len(degrees) and degrees[cut] == n:
            snapshots.append(acc.copy())
            cut += 1
    return snapshots
