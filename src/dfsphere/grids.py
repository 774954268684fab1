"""Equispaced grids on the torus and the sphere, and the doubling construction.

A spherical function sampled on a longitude-colatitude grid is extended to the
full torus by copying samples through the glide reflection. Because samples are
copied rather than re-evaluated, the resulting grid satisfies the
block-mirror-centrosymmetric (BMC) identity exactly in floating point, and the
pole rows (theta = 0 and theta = -pi == pi) are exactly constant (BMC-1).
Whether a torus grid is BMC is a fact of its values, which
:attr:`TorusGrid.bmc` reads off the pairs of samples that the reflection
matches; no caller states it.

A grid's dtype follows its samples: real samples are stored as float64 and
anything complex as complex128, so a real function stays real from sampling
through doubling to the transform. The DFSG file layout always stores complex
float64 pairs, whatever the dtype of the grid written.
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
_GRID_LAYOUT = ("grid", GRID_MAGIC, GRID_VERSION, "<4sIQQB")


def _periodic_nodes(n):
    """The n equispaced nodes -pi + 2 pi k / n, k = 0 .. n - 1, of a full period."""
    return -np.pi + 2.0 * np.pi * np.arange(n) / n


def _colatitude_nodes(nth):
    """The nth + 1 equispaced colatitudes pi k / nth, k = 0 .. nth, of a lat-lon grid, poles included."""
    return np.pi * np.arange(nth + 1) / nth


def _sample_array(values):
    """Contiguous float64 samples when ``values`` is real, complex128 otherwise."""
    return np.ascontiguousarray(values, dtype=float if np.isrealobj(values) else complex)


@dataclass
class TorusGrid:
    """Samples of a biperiodic function on a full-period equispaced grid.

    ``values[j, k]`` is the sample at (lambda_k, theta_j) with
    lambda_k = -pi + 2 pi k / n_lambda and theta_j = -pi + 2 pi j / n_theta.
    ``values`` is float64 when given real samples and complex128 otherwise.
    Whether the grid is BMC is computed from the values by :attr:`bmc`.
    """

    values: np.ndarray

    def __post_init__(self):
        self.values = _sample_array(self.values)
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
        return _periodic_nodes(self.n_lambda)

    @property
    def thetas(self):
        return _periodic_nodes(self.n_theta)

    def _glide_pairs(self):
        """The four pairs of views of ``values`` that the glide reflection (lambda, theta) -> (lambda + pi, -theta) matches.

        Row j pairs with row -j, column k with column k + n_lambda / 2: first
        the interior rows theta in (-pi, 0), in two column halves, each
        against its image among the rows theta in (0, pi); then each pole
        row, theta = -pi and theta = 0, one half against the other. Every
        sample lies in a pair, and the grid is BMC exactly when each pair is
        equal.
        """
        h, s, v = self.n_theta // 2, self.n_lambda // 2, self.values
        return ((v[1:h, :s], v[:h:-1, s:]), (v[1:h, s:], v[:h:-1, :s]),
                (v[0, :s], v[0, s:]), (v[h, :s], v[h, s:]))

    @property
    def bmc(self):
        """Whether value(lambda, theta) = value(lambda + pi, -theta) holds exactly at every sample.

        True exactly when :meth:`bmc_violation` is 0, so False as soon as one
        sample differs from its glide image or is not finite.
        """
        return all(np.array_equal(a, b) and np.isfinite(a).all() for a, b in self._glide_pairs())

    def bmc_violation(self):
        """Max absolute deviation of a sample from its glide image; NaN when a sample is NaN or an inf meets an inf."""
        return float(np.max([np.max(np.abs(a - b), initial=0.0) for a, b in self._glide_pairs()]))


@dataclass
class LatLonGrid:
    """Samples of a spherical function on the rectangle [-pi, pi) x [0, pi].

    ``values`` has shape (n_theta_half + 1, n_lambda); row j holds theta_j =
    pi j / n_theta_half, so the first and last rows are the poles. ``values``
    is float64 when given real samples and complex128 otherwise. A non-finite
    sample raises ValueError.
    """

    values: np.ndarray
    n_theta_half: int = field(init=False)
    n_lambda: int = field(init=False)

    def __post_init__(self):
        self.values = _sample_array(self.values)
        if self.values.ndim != 2 or self.values.shape[0] < 2:
            raise ValueError("lat-lon grid values must be 2-d with at least two rows")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("lat-lon grid holds non-finite samples")
        self.n_theta_half = self.values.shape[0] - 1
        self.n_lambda = self.values.shape[1]

    @property
    def lambdas(self):
        return _periodic_nodes(self.n_lambda)

    @property
    def thetas(self):
        return _colatitude_nodes(self.n_theta_half)

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

    ``f`` is called once, on the (n_theta_half + 1, n_lambda, 3) array of
    every node. The pole rows' points are exactly (0, 0, +-1), and each pole
    row is then set to its first sample, so it is exactly constant whatever
    ``f`` does there. The grid may take over the array ``f`` returns and
    overwrite its pole rows, so ``f`` must return one that nothing else
    holds. The grid is float64 when ``f`` returns real values and complex128
    otherwise. Values of another shape than the nodes, or a non-finite
    sample (:class:`LatLonGrid`), raise ValueError.
    """
    if n_lambda < 2 or n_lambda % 2:
        raise ValueError(f"n_lambda must be even and >= 2, got {n_lambda}")
    if n_theta_half < 1:
        raise ValueError(f"n_theta_half must be >= 1, got {n_theta_half}")
    points = dfs_coord(_periodic_nodes(n_lambda)[None, :], _colatitude_nodes(n_theta_half)[:, None])
    points[0], points[-1] = (0.0, 0.0, 1.0), (0.0, 0.0, -1.0)  # sin(pi) is not 0 in floating point
    vals = np.asarray(f(points))
    if vals.shape != points.shape[:-1]:
        raise ValueError(f"sampled function returned values of a shape other than {points.shape[:-1]}")
    grid = LatLonGrid(vals)
    grid.values[0], grid.values[-1] = grid.values[0, 0], grid.values[-1, 0]
    return grid


def dfs_double(g):
    """Double a lat-lon grid to a BMC-1 torus grid.

    The theta in [0, pi) rows are copied verbatim and the theta = -pi row is
    the south-pole row; the theta in (-pi, 0) rows are then filled from their
    glide images (column shift by pi: :class:`TorusGrid` rejects an odd n_lambda).
    The glide reflection maps each pole row to itself turned by half a
    revolution, so each half of it is set to the mean of the two halves: a
    row constant in lambda, as sampled pole rows are, comes through bit for
    bit, and any other row, such as that of a truncated series, still gives
    an exactly BMC grid. The torus grid keeps the dtype of ``g``.
    """
    nth = g.n_theta_half
    grid = TorusGrid(np.empty((2 * nth, g.n_lambda), dtype=g.values.dtype))
    grid.values[nth:] = g.values[:-1]
    grid.values[0] = g.values[-1]
    pairs = grid._glide_pairs()
    for image, source in pairs[:2]:
        image[...] = source
    for a, b in pairs[2:]:
        a[...] = b[...] = 0.5 * (a + b)
    return grid


def _write_container(path, layout, fields, values):
    """Write ``layout``'s magic, version and header ``fields``, then ``values`` row-major as complex float64 pairs."""
    _, magic, version, fmt = layout
    with open(path, "wb") as fh:
        fh.write(struct.pack(fmt, magic, version, *fields))
        fh.write(np.ascontiguousarray(values, dtype="<c16"))


def _read_container(path, layout, shape_of):
    """The header fields and complex128 values of a file written by :func:`_write_container`.

    A layout is (name, magic, version, little-endian struct format of the
    header). ``shape_of`` maps the header fields to the payload shape, raising
    ValueError on fields the layout rejects. The values are decoded from the
    file's bytes in place, so a read holds the file twice, not three times.
    """
    what, magic, version, fmt = layout
    with open(path, "rb") as fh:
        raw = fh.read()
    head_len = struct.calcsize(fmt)
    if len(raw) < head_len or not raw.startswith(magic):
        raise ValueError(f"malformed {what} file header")
    _, file_version, *fields = struct.unpack_from(fmt, raw)
    if file_version != version:
        raise ValueError(f"unsupported {what} file version {file_version}")
    shape = shape_of(*fields)
    expected = 16 * shape[0] * shape[1]
    if len(raw) - head_len != expected:
        raise ValueError(
            f"truncated or oversized {what} payload: expected {expected} bytes, got {len(raw) - head_len}"
        )
    values = np.frombuffer(raw, dtype="<c16", offset=head_len).reshape(shape)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} payload holds non-finite values")
    return fields, values.astype(complex)


def grid_io_write(grid, path):
    """Write a torus grid in the DFSG binary layout.

    Layout: magic ``DFSG``, version u32 LE, n_lambda u64 LE, n_theta u64 LE,
    bmc flag u8, then row-major complex values as little-endian float64 pairs.
    The flag is 1 when the grid is BMC (:attr:`TorusGrid.bmc`) and 0
    otherwise. A real grid is widened to complex pairs, so it writes the same
    bytes as the same grid cast to complex.
    """
    _write_container(path, _GRID_LAYOUT, (grid.n_lambda, grid.n_theta, int(grid.bmc)), grid.values)


def grid_io_read(path):
    """Read a torus grid written by :func:`grid_io_write`; the grid is complex128.

    A bmc flag other than 0 or 1, or one that disagrees with the payload's
    own :attr:`TorusGrid.bmc`, raises ValueError.
    """
    (_, _, bmc_flag), values = _read_container(path, _GRID_LAYOUT, lambda n_lambda, n_theta, _: (n_theta, n_lambda))
    grid = TorusGrid(values)
    if bmc_flag != grid.bmc:  # 0 == False and 1 == True; any other byte equals neither
        raise ValueError(f"malformed grid file header: bmc flag {bmc_flag}, but the payload is {'' if grid.bmc else 'not '}BMC")
    return grid
