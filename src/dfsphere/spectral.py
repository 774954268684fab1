"""Fourier analysis of torus grids and the folded series on the sphere.

Coefficients follow the integral convention

    c_n = (2 pi)^-2 * integral over T^2 of f(x) exp(-i <n, x>) dx,

approximated by the plain DFT of an equispaced grid starting at -pi in both
angles; the approximation is exact (up to rounding) for trigonometric
polynomials below the Nyquist bound of the grid. Grids produced by the
doubling construction carry the coefficient symmetry

    c_n = (-1)^{n1} c_{M(n)},   M(n1, n2) = (n1, -n2),

which is what allows the series to be folded onto the half domain Z x N0 and
pushed down to the sphere.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .geometry import dfs_coord, dfs_coord_inverse

__all__ = [
    "CoefficientTable",
    "FoldedCoefficientTable",
    "SpectralSet",
    "compute_coefficients",
    "partial_sum_torus",
    "partial_sum_grid",
    "basis_e",
    "orthogonal_indices",
    "basis_b",
    "weighted_inner_product",
    "quadrature_rule",
    "gram_matrix",
    "basis_gram",
    "dfs_fourier_sum",
    "fold_coefficients",
    "unfold_coefficients",
    "coeff_io_write",
    "coeff_io_read",
]

COEFF_MAGIC = b"DFSC"
COEFF_VERSION = 1


def _alternating(n):
    """(-1)**n for integer arrays, as floats."""
    return np.where(np.asarray(n) % 2 == 0, 1.0, -1.0)


@dataclass
class CoefficientTable:
    """Centered table of Fourier coefficients.

    ``values[j, k]`` is c_(n1, n2) with n2 = j - N2//2 and n1 = k - N1//2, so
    the index ranges are n1 in [-N1/2, N1/2) and n2 in [-N2/2, N2/2).
    """

    values: np.ndarray
    normalization: str = "integral"
    source_bmc: bool = False

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=complex)
        if self.values.ndim != 2:
            raise ValueError("coefficient table must be a 2-d array")
        n2, n1 = self.values.shape
        if n1 % 2 or n2 % 2:
            raise ValueError(f"coefficient table dimensions must be even, got {n2} x {n1}")

    @property
    def n1_values(self):
        n1 = self.values.shape[1]
        return np.arange(-(n1 // 2), n1 // 2)

    @property
    def n2_values(self):
        n2 = self.values.shape[0]
        return np.arange(-(n2 // 2), n2 // 2)

    @property
    def max_degree(self):
        """Largest h such that the full square |n1|, |n2| <= h is stored."""
        return min(self.values.shape[0] // 2 - 1, self.values.shape[1] // 2 - 1)

    def coeff(self, n1, n2):
        """Coefficient c_(n1, n2); indices may be arrays."""
        n1, n2 = np.asarray(n1), np.asarray(n2)
        N2, N1 = self.values.shape
        if np.any(n1 < -(N1 // 2)) or np.any(n1 >= N1 // 2) or np.any(n2 < -(N2 // 2)) or np.any(n2 >= N2 // 2):
            raise ValueError("spectral index outside the table range")
        return self.values[n2 + N2 // 2, n1 + N1 // 2]

    def symmetry_violation(self):
        """Max |c_n - (-1)^{n1} c_{M(n)}| relative to the largest coefficient.

        The reflection is taken modulo the table size, so the Nyquist row
        pairs with itself; the relative scale is global because individual
        coefficients may be exactly zero. Non-finite entries give NaN.
        """
        N2 = self.values.shape[0]
        rows = (-(self.n2_values) + N2 // 2) % N2
        reflected = self.values[rows, :]
        resid = np.abs(self.values - _alternating(self.n1_values)[None, :] * reflected)
        scale = np.max(np.abs(self.values))
        return 0.0 if scale == 0 else float(np.max(resid) / scale)

    def conjugate_symmetry_violation(self):
        """Max |c_{-n} - conj(c_n)| relative to the largest coefficient."""
        N2, N1 = self.values.shape
        rows = (-(self.n2_values) + N2 // 2) % N2
        cols = (-(self.n1_values) + N1 // 2) % N1
        reflected = self.values[np.ix_(rows, cols)]
        resid = np.abs(reflected - np.conj(self.values))
        scale = np.max(np.abs(self.values))
        return 0.0 if scale == 0 else float(np.max(resid) / scale)


@dataclass
class FoldedCoefficientTable:
    """Half-domain coefficients, rows n2 = 0 .. N2/2 inclusive.

    The last row holds the self-paired Nyquist coefficients so that unfolding
    reproduces the symmetrized full table bit-exactly.
    """

    values: np.ndarray
    normalization: str = "integral"

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=complex)
        if self.values.ndim != 2 or self.values.shape[1] % 2:
            raise ValueError("folded table must be 2-d with an even number of columns")

    @property
    def n1_values(self):
        n1 = self.values.shape[1]
        return np.arange(-(n1 // 2), n1 // 2)

    @property
    def n2_values(self):
        return np.arange(self.values.shape[0])


@dataclass(frozen=True)
class SpectralSet:
    """Finite truncation set over Z^2 (or Z x N0 when ``half`` is set).

    ``rectangle``: max(|n1|, |n2|) <= degree.
    ``ball``: |n|_p <= degree with p given by ``norm`` ("l1" or "l2").
    Membership uses exact integer arithmetic.
    """

    shape: str
    degree: int
    norm: str = "l2"
    half: bool = False

    def __post_init__(self):
        if self.shape not in ("rectangle", "ball"):
            raise ValueError(f"unknown truncation shape {self.shape!r}")
        if self.norm not in ("l1", "l2"):
            raise ValueError(f"unknown ball norm {self.norm!r}")
        if self.degree < 0:
            raise ValueError("degree must be non-negative")

    def contains(self, n1, n2):
        n1, n2 = np.asarray(n1, dtype=np.int64), np.asarray(n2, dtype=np.int64)
        if self.shape == "rectangle":
            inside = (np.abs(n1) <= self.degree) & (np.abs(n2) <= self.degree)
        elif self.norm == "l1":
            inside = np.abs(n1) + np.abs(n2) <= self.degree
        else:
            inside = n1 * n1 + n2 * n2 <= self.degree * self.degree
        if self.half:
            inside = inside & (n2 >= 0)
        return inside

    def members(self):
        """All member indices as (n1, n2) integer arrays."""
        h = self.degree
        lo2 = 0 if self.half else -h
        n1, n2 = np.meshgrid(np.arange(-h, h + 1), np.arange(lo2, h + 1), indexing="ij")
        keep = self.contains(n1, n2)
        return n1[keep], n2[keep]

    @property
    def size(self):
        return len(self.members()[0])

    def symmetrized(self):
        """The union with its reflection M(n1, n2) = (n1, -n2).

        Rectangles and balls are reflection-symmetric, so this is simply the
        full-domain set of the same shape and degree.
        """
        return SpectralSet(self.shape, self.degree, self.norm, half=False)


def compute_coefficients(grid):
    """Fourier coefficients of a torus grid under the integral convention.

    Computed with a single 2-d FFT; the factor (-1)^{n1+n2} accounts for the
    grid origin at (-pi, -pi).
    """
    N2, N1 = grid.values.shape
    table = np.fft.fftshift(np.fft.fft2(grid.values)) / (N1 * N2)
    n1 = np.arange(-(N1 // 2), N1 // 2)
    n2 = np.arange(-(N2 // 2), N2 // 2)
    table *= _alternating(n2)[:, None] * _alternating(n1)[None, :]
    return CoefficientTable(table, source_bmc=grid.bmc)


def _truncated_block(table, omega):
    """(n1, n2, block) with block[j, k] = c_(n1[k], n2[j]) for members of ``omega``, else 0.

    The index ranges are the square |n1|, |n2| <= degree; ``omega=None`` gives
    a copy of the whole table.
    """
    if omega is None:
        return table.n1_values, table.n2_values, table.values.copy()
    if omega.degree > table.max_degree:
        raise ValueError(
            f"truncation degree {omega.degree} exceeds the table range "
            f"(max usable degree {table.max_degree})"
        )
    N2, N1 = table.values.shape
    n = np.arange(-omega.degree, omega.degree + 1)
    block = table.values[np.ix_(n + N2 // 2, n + N1 // 2)]
    block[~omega.contains(*np.meshgrid(n, n))] = 0.0
    return n, n, block


def _separable_sum(n1, n2, block, lam, theta):
    """sum_{j,k} block[j, k] exp(i (n1[k] lam + n2[j] theta)) at the points (lam, theta).

    Each term factors as exp(i n1 lam) exp(i n2 theta), so the sum is
    sum_k (E_theta @ block)[p, k] E_lam[p, k] over two tables of 1-D phases.
    Points go in slices of at most 2^21 table entries, below about 70 MiB.
    """
    shape = np.broadcast(lam, theta).shape
    lam, theta = (np.broadcast_to(np.asarray(a, dtype=float), shape).ravel() for a in (lam, theta))
    out = np.empty(lam.size, dtype=complex)
    step = max(1, 2**21 // (len(n1) + len(n2)))
    for s in range(0, lam.size, step):
        e_lam = np.exp(1j * np.outer(lam[s : s + step], n1))
        e_theta = np.exp(1j * np.outer(theta[s : s + step], n2))
        out[s : s + step] = np.einsum("pk,pk->p", e_theta @ block, e_lam)
    return out.reshape(shape) if shape else complex(out[0])


def partial_sum_torus(table, omega, lam, theta):
    """Evaluate the partial Fourier sum over a full-domain set at torus points.

    sum_{n in omega} c_n exp(i <n, x>) by the separable kernel; ``omega=None``
    sums the whole table, and scalar angles give a complex. Use
    :func:`partial_sum_grid` for grid-aligned evaluation via the inverse FFT.
    """
    if omega is not None and omega.half:
        raise ValueError("partial_sum_torus expects a full-domain spectral set")
    return _separable_sum(*_truncated_block(table, omega), lam, theta)


def partial_sum_grid(table, omega, n_theta, n_lambda):
    """Partial Fourier sum evaluated on an equispaced torus grid via inverse FFT.

    The truncation block must fit below the Nyquist bound of the target grid
    (``omega=None`` synthesizes the whole table; the target must then be at
    least as large as the table). Agrees with :func:`partial_sum_torus` at the
    grid points to rounding.
    """
    if omega is not None and omega.half:
        raise ValueError("partial_sum_grid expects a full-domain spectral set")
    n1, n2, block = _truncated_block(table, omega)
    if len(n2) > n_theta or len(n1) > n_lambda:
        raise ValueError(
            f"target grid {n_theta} x {n_lambda} cannot hold the {len(n2)} x {len(n1)} coefficient block"
        )
    block *= _alternating(n2)[:, None] * _alternating(n1)[None, :]
    spec = np.zeros((n_theta, n_lambda), dtype=complex)
    spec[np.ix_(n2 % n_theta, n1 % n_lambda)] = block
    from .grids import TorusGrid

    return TorusGrid(np.fft.ifft2(spec) * (n_theta * n_lambda))


def basis_e(n1, n2, lam, theta):
    """Folded exponential on the torus.

    exp(i <n, x>) + (-1)^{n1} exp(i <M(n), x>) for n2 > 0, and exp(i n1 x1)
    for n2 = 0. Glide-reflection invariant for n2 > 0 and for even n1; the
    n2 = 0, odd-n1 members pick up a factor -1 under the glide reflection
    (their coefficients vanish for any doubled grid).

    The orthogonal basis is the members with n2 > 0 or n1 even. On colatitudes
    in [0, pi] an (odd n1, 0) member is exp(i n1 x1) times a constant, and the
    constant is a square wave against the sine modes sin(n2 x2) that the
    (n1, n2 > 0) members carry for odd n1. It therefore lies in their closed
    span: its weighted inner product with the (n1, n2) member is -8 pi i / n2
    for odd n2.
    """
    if n2 < 0:
        raise ValueError("basis index requires n2 >= 0")
    lam = np.asarray(lam, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if n2 == 0:
        return np.exp(1j * n1 * lam) * np.ones_like(theta)
    return np.exp(1j * (n1 * lam + n2 * theta)) + _alternating(n1) * np.exp(
        1j * (n1 * lam - n2 * theta)
    )


def orthogonal_indices(h):
    """The orthogonal basis members with |n1| <= h and 0 <= n2 <= h.

    Every (n1, n2) with n2 > 0 or n1 even, ordered by n1 and then n2; the
    (odd n1, 0) members are left out, see :func:`basis_e`.
    """
    return [(n1, n2) for n1 in range(-h, h + 1) for n2 in range(h + 1) if n2 > 0 or n1 % 2 == 0]


def basis_b(n1, n2, points):
    """Folded basis pushed down to the sphere: e_n composed with the inverse transform.

    The members with n2 > 0 or n1 even are orthogonal under the weighted inner
    product, with norms 2 pi^2 (n2 = 0) and 4 pi^2 (n2 > 0). The (odd n1, 0)
    members fall outside that basis; see :func:`basis_e`.
    """
    lam, theta = dfs_coord_inverse(points)
    return basis_e(n1, n2, lam, theta)


def quadrature_rule(n_quad):
    """Nodes and weights for the weighted spherical inner product.

    Longitude: n_quad equispaced nodes on [-pi, pi) (the periodic trapezoidal
    rule). Colatitude: n_quad midpoint nodes on (0, pi); the open rule avoids
    the pole rows, where push-down basis functions are discontinuous and a
    closed endpoint rule would pick up O(1/n_quad) spurious contributions.
    """
    if n_quad < 4:
        raise ValueError("n_quad must be at least 4")
    lam = -np.pi + 2.0 * np.pi * np.arange(n_quad) / n_quad
    theta = (np.arange(n_quad) + 0.5) * np.pi / n_quad
    weight = (2.0 * np.pi / n_quad) * (np.pi / n_quad)
    return lam, theta, weight


def weighted_inner_product(f, g, n_quad=512):
    """Inner product of spherical functions in the weighted L2 space.

    Approximates the integral of f conj(g) (1 - xi3^2)^(-1/2) over the sphere,
    which in (lambda, theta) coordinates is the unweighted integral of
    (f o phi)(g o phi)* over [-pi, pi) x [0, pi]: the colatitude weight cancels
    the sine of the surface measure.
    """
    return complex(gram_matrix([f, g], n_quad)[0, 1])


def gram_matrix(functions, n_quad=512):
    """Gram matrix of spherical functions under the weighted inner product.

    Each function is sampled once on the shared quadrature grid, so this is
    the economical way to compute all pairwise inner products.
    """
    functions = list(functions)
    lam, theta, w = quadrature_rule(n_quad)
    nodes = dfs_coord(*np.meshgrid(lam, theta))
    A = np.empty((len(functions), n_quad * n_quad), dtype=complex)
    for row, f in zip(A, functions):
        row[:] = np.ravel(f(nodes))
    return w * (A @ A.conj().T)


def basis_gram(indices):
    """Gram matrix of the push-down basis members b_n, n in ``indices``.

    The quadrature of :func:`gram_matrix` at its default 512^2 nodes without
    the sphere map: as e_n(lambda, theta) = exp(i n1 lambda) e_n(0, theta),
    that sum is the Hadamard product of two Grams over 1-D nodes.
    """
    lam, theta, w = quadrature_rule(512)
    e_lam = np.exp(1j * np.outer([n1 for n1, _ in indices], lam))
    e_theta = np.array([basis_e(n1, n2, 0.0, theta) for n1, n2 in indices])
    return w * (e_lam @ e_lam.conj().T) * (e_theta @ e_theta.conj().T)


def dfs_fourier_sum(table, omega, points):
    """Partial sum of the folded series at sphere points.

    sum over n in omega (a half-domain set) of c_n b_n(xi), with coefficients
    read from a full coefficient table. As e_n pairs exp(i <n, x>) with
    (-1)^{n1} exp(i <M(n), x>), this is the torus partial sum of the block with
    c_(n1, j) in rows j and -j (times (-1)^{n1}), evaluated by the separable
    kernel at the inverse coordinates.
    """
    if not omega.half:
        raise ValueError("dfs_fourier_sum expects a half-domain spectral set")
    n1, n2, block = _truncated_block(table, omega)
    block[: omega.degree] = _alternating(n1) * block[: omega.degree : -1]
    return _separable_sum(n1, n2, block, *dfs_coord_inverse(points))


def fold_coefficients(table, tol=1e-8):
    """Project a full table onto the half domain, enforcing the symmetry exactly.

    Rows n2 and -n2 are averaged as (c_n + (-1)^{n1} c_{M(n)}) / 2; the n2 = 0
    row and the Nyquist row are averaged with themselves, which zeroes their
    odd-n1 entries. Raises if the relative asymmetry exceeds ``tol`` (the
    source grid was not BMC) or is NaN (the table holds non-finite values).
    """
    violation = table.symmetry_violation()
    if not violation <= tol:
        raise ValueError(
            f"coefficient symmetry violated (relative asymmetry {violation:.3e} > {tol:.1e}); "
            "source grid is not block-mirror-centrosymmetric"
        )
    N2, N1 = table.values.shape
    sgn = _alternating(table.n1_values)[None, :]
    rows = (-(table.n2_values) + N2 // 2) % N2
    symmetrized = 0.5 * (table.values + sgn * table.values[rows, :])
    half = np.empty((N2 // 2 + 1, N1), dtype=complex)
    half[: N2 // 2] = symmetrized[N2 // 2:]        # n2 = 0 .. N2/2 - 1
    half[N2 // 2] = symmetrized[0]                 # self-paired Nyquist row
    return FoldedCoefficientTable(half, normalization=table.normalization)


def unfold_coefficients(folded):
    """Rebuild the symmetrized full table from its half-domain fold."""
    n_half, N1 = folded.values.shape
    N2 = 2 * (n_half - 1)
    sgn = _alternating(folded.n1_values)[None, :]
    full = np.empty((N2, N1), dtype=complex)
    full[N2 // 2:] = folded.values[: N2 // 2]
    full[0] = folded.values[N2 // 2]
    full[N2 // 2 - 1:0:-1] = sgn * folded.values[1:N2 // 2]
    return CoefficientTable(full, normalization=folded.normalization, source_bmc=True)


def coeff_io_write(table, path):
    """Write a coefficient table in the DFSC binary layout.

    Layout: magic ``DFSC``, version u32 LE, the half-open index ranges as four
    signed 64-bit ints (n1 start/stop, n2 start/stop), normalization tag u8
    (0 = integral convention), then row-major complex values (rows ordered by
    ascending n2) as little-endian float64 pairs.
    """
    n1 = table.n1_values
    n2 = table.n2_values
    tag = 0 if table.normalization == "integral" else 255
    header = COEFF_MAGIC + struct.pack(
        "<IqqqqB", COEFF_VERSION, int(n1[0]), int(n1[-1]) + 1, int(n2[0]), int(n2[-1]) + 1, tag
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(table.values, dtype="<c16").tobytes())


def coeff_io_read(path):
    """Read a coefficient table written by :func:`coeff_io_write`."""
    with open(path, "rb") as fh:
        raw = fh.read()
    head_len = 4 + struct.calcsize("<IqqqqB")
    if len(raw) < head_len or raw[:4] != COEFF_MAGIC:
        raise ValueError("malformed coefficient file header")
    version, n1_lo, n1_hi, n2_lo, n2_hi, tag = struct.unpack("<IqqqqB", raw[4:head_len])
    if version != COEFF_VERSION:
        raise ValueError(f"unsupported coefficient file version {version}")
    N1, N2 = n1_hi - n1_lo, n2_hi - n2_lo
    if N1 <= 0 or N2 <= 0 or n1_lo != -(N1 // 2) or n2_lo != -(N2 // 2) or N1 % 2 or N2 % 2:
        raise ValueError("coefficient index ranges must be centered and even-sized")
    payload = raw[head_len:]
    if len(payload) != N1 * N2 * 16:
        raise ValueError(
            f"truncated or oversized coefficient payload: expected {N1 * N2 * 16} bytes, "
            f"got {len(payload)}"
        )
    values = np.frombuffer(payload, dtype="<c16").reshape(N2, N1)
    if not np.all(np.isfinite(values)):
        raise ValueError("coefficient payload holds non-finite values")
    norm = "integral" if tag == 0 else "unknown"
    return CoefficientTable(values.astype(complex), normalization=norm)
