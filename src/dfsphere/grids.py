"""Equispaced grids on the torus and the sphere, and the doubling construction.

A spherical function sampled on a longitude-colatitude grid is extended to the
full torus by copying samples through the glide reflection. Because samples are
copied rather than re-evaluated, the resulting grid satisfies the
block-mirror-centrosymmetric (BMC) identity exactly in floating point, and the
pole rows (theta = 0 and theta = -pi == pi) are exactly constant (BMC-1).
"""

import struct
from dataclasses import dataclass, field

import numpy as np

from .geometry import dfs_coord

__all__ = [
    "TorusGrid",
    "LatLonGrid",
    "sample_sphere",
    "dfs_double",
    "grid_io_write",
    "grid_io_read",
]

GRID_MAGIC = b"DFSG"
GRID_VERSION = 1


@dataclass
class TorusGrid:
    """Samples of a biperiodic function on a full-period equispaced grid.

    ``values[j, k]`` is the sample at (lambda_k, theta_j) with
    lambda_k = -pi + 2 pi k / n_lambda and theta_j = -pi + 2 pi j / n_theta.
    ``bmc`` asserts that the grid satisfies the glide-reflection identity
    value(lambda, theta) = value(lambda + pi, -theta) exactly.
    """

    values: np.ndarray
    bmc: bool = False

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=complex)
        if self.values.ndim != 2:
            raise ValueError("torus grid values must be a 2-d array")
        n_theta, n_lambda = self.values.shape
        if n_theta < 2 or n_lambda < 2 or n_theta % 2 or n_lambda % 2:
            raise ValueError(
                f"torus grid dimensions must be even and >= 2, got {n_theta} x {n_lambda}"
            )

    @property
    def n_theta(self):
        return self.values.shape[0]

    @property
    def n_lambda(self):
        return self.values.shape[1]

    @property
    def lambdas(self):
        return -np.pi + 2.0 * np.pi * np.arange(self.n_lambda) / self.n_lambda

    @property
    def thetas(self):
        return -np.pi + 2.0 * np.pi * np.arange(self.n_theta) / self.n_theta

    def glide_image(self):
        """Grid with the glide reflection applied as an index permutation."""
        rows = (-np.arange(self.n_theta)) % self.n_theta
        return np.roll(self.values[rows], self.n_lambda // 2, axis=1)

    def bmc_violation(self):
        """Max absolute deviation from the glide-reflection identity."""
        return float(np.max(np.abs(self.values - self.glide_image())))


@dataclass
class LatLonGrid:
    """Samples of a spherical function on the rectangle [-pi, pi) x [0, pi].

    ``values`` has shape (n_theta_half + 1, n_lambda); row j holds theta_j =
    pi j / n_theta_half, so the first and last rows are the poles.
    """

    values: np.ndarray
    n_theta_half: int = field(init=False)
    n_lambda: int = field(init=False)

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=complex)
        if self.values.ndim != 2 or self.values.shape[0] < 2:
            raise ValueError("lat-lon grid values must be 2-d with at least two rows")
        self.n_theta_half = self.values.shape[0] - 1
        self.n_lambda = self.values.shape[1]

    @property
    def lambdas(self):
        return -np.pi + 2.0 * np.pi * np.arange(self.n_lambda) / self.n_lambda

    @property
    def thetas(self):
        return np.pi * np.arange(self.n_theta_half + 1) / self.n_theta_half

    def pole_row_spread(self):
        """Max in-row variation of the two pole rows (ideally 0)."""
        top = np.max(np.abs(self.values[0] - self.values[0, 0]))
        bot = np.max(np.abs(self.values[-1] - self.values[-1, 0]))
        return float(max(top, bot))


def sample_sphere(f, n_lambda, n_theta_half):
    """Sample a spherical function on a longitude-colatitude grid.

    Parameters
    ----------
    f : callable
        Maps an array of unit vectors, shape (..., 3), to values, shape (...).
    n_lambda : int
        Number of longitude columns; must be even and >= 2.
    n_theta_half : int
        Number of colatitude panels on [0, pi]; the grid has n_theta_half + 1 rows.

    The pole rows are evaluated once each and broadcast, so they are exactly
    constant regardless of the behaviour of ``f`` near the poles. A non-finite
    sample raises ValueError.
    """
    if n_lambda < 2 or n_lambda % 2:
        raise ValueError(f"n_lambda must be even and >= 2, got {n_lambda}")
    if n_theta_half < 1:
        raise ValueError(f"n_theta_half must be >= 1, got {n_theta_half}")
    lam = -np.pi + 2.0 * np.pi * np.arange(n_lambda) / n_lambda
    theta = np.pi * np.arange(1, n_theta_half) / n_theta_half
    vals = np.empty((n_theta_half + 1, n_lambda), dtype=complex)
    if n_theta_half > 1:
        L, T = np.meshgrid(lam, theta)
        vals[1:-1] = f(dfs_coord(L, T))
    vals[0, :] = complex(np.asarray(f(np.array([0.0, 0.0, 1.0])), dtype=complex))
    vals[-1, :] = complex(np.asarray(f(np.array([0.0, 0.0, -1.0])), dtype=complex))
    if not np.all(np.isfinite(vals)):
        raise ValueError("sampled function returned non-finite values")
    return LatLonGrid(vals)


def dfs_double(g):
    """Double a lat-lon grid to a BMC-1 torus grid.

    The theta in [0, pi) rows are copied verbatim; the theta in (-pi, 0) rows
    are filled with the glide-reflected samples (column shift by pi requires an
    even number of columns). The theta = -pi row is the south-pole row.
    """
    if g.n_lambda % 2:
        raise ValueError("dfs_double requires an even n_lambda so the half-turn is a column shift")
    nth = g.n_theta_half
    shift = g.n_lambda // 2
    out = np.empty((2 * nth, g.n_lambda), dtype=complex)
    out[nth:] = g.values[:-1]
    out[0] = g.values[-1]
    if nth > 1:
        out[1:nth] = np.roll(g.values[nth - 1:0:-1], shift, axis=1)
    return TorusGrid(out, bmc=True)


def grid_io_write(grid, path):
    """Write a torus grid in the DFSG binary layout.

    Layout: magic ``DFSG``, version u32 LE, n_lambda u64 LE, n_theta u64 LE,
    bmc flag u8, then row-major complex values as little-endian float64 pairs.
    """
    header = GRID_MAGIC + struct.pack(
        "<IQQB", GRID_VERSION, grid.n_lambda, grid.n_theta, 1 if grid.bmc else 0
    )
    payload = np.ascontiguousarray(grid.values, dtype="<c16").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def grid_io_read(path):
    """Read a torus grid written by :func:`grid_io_write`."""
    with open(path, "rb") as fh:
        raw = fh.read()
    head_len = 4 + struct.calcsize("<IQQB")
    if len(raw) < head_len or raw[:4] != GRID_MAGIC:
        raise ValueError("malformed grid file header")
    version, n_lambda, n_theta, bmc_flag = struct.unpack("<IQQB", raw[4:head_len])
    if version != GRID_VERSION:
        raise ValueError(f"unsupported grid file version {version}")
    if n_theta % 2 or n_lambda % 2 or n_theta < 2 or n_lambda < 2:
        raise ValueError(f"grid dimensions must be even and >= 2, got {n_theta} x {n_lambda}")
    expected = n_theta * n_lambda * 16
    payload = raw[head_len:]
    if len(payload) != expected:
        raise ValueError(
            f"truncated or oversized grid payload: expected {expected} bytes, got {len(payload)}"
        )
    values = np.frombuffer(payload, dtype="<c16").reshape(n_theta, n_lambda)
    if not np.all(np.isfinite(values)):
        raise ValueError("grid payload holds non-finite values")
    return TorusGrid(values.astype(complex), bmc=bool(bmc_flag))
