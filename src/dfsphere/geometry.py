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


def dfs_coord_inverse(points):
    """Invert the coordinate transform on its fundamental domain.

    Parameters
    ----------
    points : array_like, shape (..., 3)
        Unit vectors. Norms may deviate from 1 by at most ``UNIT_NORM_TOL``.

    Returns
    -------
    lam, theta : ndarray
        lam = atan2(y, x) reduced to [-pi, pi), theta = arccos(z) in [0, pi].
        Both poles map to lam = 0.

    Raises
    ------
    ValueError
        If any input norm deviates from 1 by more than ``UNIT_NORM_TOL``, or
        is not finite.
    """
    p = np.asarray(points, dtype=float)
    if p.shape[-1] != 3:
        raise ValueError(f"expected points of shape (..., 3), got {p.shape}")
    dev = np.abs(np.sqrt(np.sum(p * p, axis=-1)) - 1.0)
    if not np.all(dev <= UNIT_NORM_TOL):  # NaN-safe: a non-finite point fails the comparison
        raise ValueError(f"input not on the unit sphere: max norm deviation {float(np.max(dev)):.3e}")
    theta = np.arccos(np.clip(p[..., 2], -1.0, 1.0))
    # atan2(0, 0) = 0, so the poles land on lam = 0 without special-casing;
    # the explicit branch only normalizes points with tiny off-axis noise.
    lam = np.arctan2(p[..., 1], p[..., 0])
    lam = np.where(lam >= np.pi, lam - 2.0 * np.pi, lam)
    at_pole = (np.abs(p[..., 0]) == 0.0) & (np.abs(p[..., 1]) == 0.0)
    lam = np.where(at_pole, 0.0, lam)
    return lam, theta


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
