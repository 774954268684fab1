"""Coordinate transform between the torus and the unit sphere.

The transform phi(lambda, theta) = (cos(lambda) sin(theta), sin(lambda) sin(theta),
cos(theta)) wraps the (longitude, colatitude) rectangle around the sphere twice;
it is invariant under the glide reflection (lambda, theta) -> (lambda + pi, -theta).
All functions are vectorized over trailing point dimensions and stateless.
"""

import numpy as np

__all__ = [
    "wrap_angle",
    "dfs_coord",
    "dfs_coord_inverse",
    "glide_reflect",
    "jacobian",
]

#: accepted deviation of the Euclidean norm from 1 for sphere-point inputs
UNIT_NORM_TOL = 1e-9


def wrap_angle(x):
    """Reduce angles to the canonical interval [-pi, pi)."""
    return np.mod(np.asarray(x, dtype=float) + np.pi, 2.0 * np.pi) - np.pi


def dfs_coord(lam, theta):
    """Map torus angles to points on the unit sphere.

    Parameters
    ----------
    lam, theta : array_like
        Longitude and colatitude in radians, any matching shape.

    Returns
    -------
    ndarray, shape (..., 3)
        Unit vectors (cos(lam) sin(theta), sin(lam) sin(theta), cos(theta)).
    """
    lam = np.asarray(lam, dtype=float)
    theta = np.asarray(theta, dtype=float)
    out = np.empty(np.broadcast_shapes(lam.shape, theta.shape) + (3,))
    st = np.sin(theta)
    np.multiply(np.cos(lam), st, out=out[..., 0])
    np.multiply(np.sin(lam), st, out=out[..., 1])
    out[..., 2] = np.cos(theta)
    return out


def _unit_phases(points):
    """exp(i lam) and exp(i theta) of sphere points, from their coordinates alone.

    (xi1 + i xi2) / r and (xi3 + i r) / |xi| with r = hypot(xi1, xi2): no
    transcendental call. The poles take exp(i lam) = 1. Raises ValueError
    unless the points have shape (..., 3) and every norm is finite and within
    ``UNIT_NORM_TOL`` of 1.
    """
    p = np.asarray(points, dtype=float)
    if p.shape[-1] != 3:
        raise ValueError(f"expected points of shape (..., 3), got {p.shape}")
    r = np.hypot(p[..., 0], p[..., 1])
    norm = np.sqrt(r * r + p[..., 2] ** 2)
    dev = np.abs(norm - 1.0)
    if not np.all(dev <= UNIT_NORM_TOL):  # NaN-safe: a non-finite point fails the comparison
        raise ValueError(f"input not on the unit sphere: max norm deviation {float(np.max(dev)):.3e}")
    w_lam = np.ones(r.shape, dtype=complex)
    np.divide(p[..., 0], r, out=w_lam.real, where=r > 0.0)
    np.divide(p[..., 1], r, out=w_lam.imag, where=r > 0.0)
    sub = (r > 0.0) & (r < np.finfo(float).tiny)
    if np.any(sub):  # a subnormal r has too few bits to divide by: scale those points by 2**64, exactly
        x, y = (p[sub][:, :2] * 2.0**64).T
        w_lam[sub] = (x + 1j * y) / np.hypot(x, y)
    w_theta = np.empty(r.shape, dtype=complex)
    np.divide(p[..., 2], norm, out=w_theta.real)
    np.divide(r, norm, out=w_theta.imag)
    return w_lam, w_theta


def dfs_coord_inverse(points):
    """Invert the coordinate transform on its fundamental domain.

    Parameters
    ----------
    points : array_like, shape (..., 3)
        Unit vectors. Norms may deviate from 1 by at most ``UNIT_NORM_TOL``;
        such points are projected radially onto the sphere.

    Returns
    -------
    lam, theta : ndarray
        lam = arg((x + i y) / r) reduced to [-pi, pi), theta = arccos(z / |xi|)
        in [0, pi]. Both poles map to lam = 0.

    Raises
    ------
    ValueError
        If any input norm deviates from 1 by more than ``UNIT_NORM_TOL``, or
        is not finite.
    """
    w_lam, w_theta = _unit_phases(points)
    lam = np.angle(w_lam)
    return np.where(lam >= np.pi, lam - 2.0 * np.pi, lam), np.arccos(np.clip(w_theta.real, -1.0, 1.0))


def glide_reflect(lam, theta):
    """Apply the glide reflection (lambda, theta) -> (lambda + pi, -theta).

    The result is reduced to [-pi, pi)^2. Applying the map twice is the
    identity up to angle wrapping.
    """
    return wrap_angle(np.asarray(lam, dtype=float) + np.pi), wrap_angle(-np.asarray(theta, dtype=float))


def jacobian(lam, theta):
    """Jacobian of the coordinate transform.

    Returns
    -------
    ndarray, shape (..., 3, 2)
        Columns are the partial derivatives with respect to lam and theta.
        For any h in R^2, ||J h||^2 = h1^2 sin(theta)^2 + h2^2, hence phi is
        1-Lipschitz as a map from the flat plane to R^3.
    """
    lam = np.asarray(lam, dtype=float)
    theta = np.asarray(theta, dtype=float)
    sl, cl = np.sin(lam), np.cos(lam)
    st, ct = np.sin(theta), np.cos(theta)
    rows = [
        [-sl * st, cl * ct],
        [cl * st, sl * ct],
        [np.zeros_like(st), -st],
    ]
    return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)
