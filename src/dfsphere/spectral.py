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

from dataclasses import dataclass

import numpy as np

from .geometry import _unit_phases, dfs_coord, dfs_coord_inverse
from .grids import TorusGrid, _periodic_nodes, _read_container, _write_container

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
_COEFF_LAYOUT = ("coefficient", COEFF_MAGIC, COEFF_VERSION, "<4sIqqqqB")
#: relative asymmetry above which :func:`fold_coefficients` rejects a table
_SYMMETRY_TOL = 1e-8


def _negate_odd_columns(rows, first):
    """Negate, in place, the odd-index columns of ``rows``, column 0 holding index ``first``: (-1)^n times each row.

    Column c holds n = first + c, so the odd n start at column (first + 1)
    mod 2. Negation flips the sign of zero components too, where a product
    with the complex -1 takes it from its cross terms.
    """
    odd = rows[:, (first + 1) % 2 :: 2]
    np.negative(odd, out=odd)


def _centered(n):
    """The centered index range -n/2 .. n/2 - 1 of an even table side n."""
    return np.arange(-(n // 2), n // 2)


def _check_degrees(degrees):
    """``degrees`` as a list, which must be non-empty and ascending (repeats allowed), of integers >= 0."""
    degrees = list(degrees)
    if not (degrees and all(isinstance(h, (int, np.integer)) and not isinstance(h, bool) and h >= 0 for h in degrees)
            and degrees == sorted(degrees)):
        raise ValueError(f"degrees must be a non-empty ascending list of integers >= 0, got {degrees}")
    return degrees


class CoefficientTable:
    """Centered table of Fourier coefficients.

    ``values[j, k]`` is c_(n1, n2) with n2 = j - N2//2 and n1 = k - N1//2, so
    the index ranges are n1 in [-N1/2, N1/2) and n2 in [-N2/2, N2/2).

    ``CoefficientTable(values)`` stores the full array it is given, which
    stays editable in place. The table that :func:`compute_coefficients`
    makes of a real BMC grid stores only its half spectrum: the columns
    n1 = 0 .. N1/2, rows n2 mod N2. The entries n1 < 0 follow from c_{-n} =
    conj(c_n), and c_n = (-1)^{n1} c_{M(n)} relates rows n2 and -n2 of a
    column, so the half holds the whole table; the partial sums take only
    its columns n1 >= 0 (see :func:`_truncated_block`). No constructor
    argument makes a half table: one built by hand, read from a file or
    unfolded is full. On a half table ``values`` is the full centered array,
    assembled on each read and read-only, so an edit in place raises
    ValueError; assigning ``values`` stores the new array and drops the half.
    Edit ``CoefficientTable(t.values.copy())``. The partial sums, the
    symmetry figure and the fold read the half itself.
    """

    def __init__(self, values):
        self.values = values

    @classmethod
    def _of_half(cls, half):
        """The table whose half spectrum is ``half`` (see :func:`_half_spectrum`)."""
        table = cls.__new__(cls)
        table._values, table._half = None, half
        return table

    @property
    def values(self):
        if self._half is None:
            return self._values
        full = _centered_table(self._half)
        full.flags.writeable = False
        return full

    @values.setter
    def values(self, values):
        values = np.ascontiguousarray(values, dtype=complex)
        if values.ndim != 2:
            raise ValueError("coefficient table must be a 2-d array")
        n2, n1 = values.shape
        if n1 % 2 or n2 % 2:
            raise ValueError(f"coefficient table dimensions must be even, got {n2} x {n1}")
        self._values, self._half = values, None

    @property
    def _shape(self):
        """(N2, N1), without assembling the values of a half table."""
        if self._half is None:
            return self._values.shape
        return self._half.shape[0], 2 * self._half.shape[1] - 2

    def _stored(self):
        """The stored array, the row of n2 = 0 in it and the n1 of its first column.

        That is (values, N2/2, -N1/2), or (half, 0, 0) for a half table, whose
        row n2 mod N2 holds n2.
        """
        if self._half is None:
            return self._values, self._values.shape[0] // 2, -(self._values.shape[1] // 2)
        return self._half, 0, 0

    @property
    def n1_values(self):
        return _centered(self._shape[1])

    @property
    def n2_values(self):
        return _centered(self._shape[0])

    @property
    def max_degree(self):
        """Largest h such that the full square |n1|, |n2| <= h is stored."""
        return min(self._shape[0] // 2 - 1, self._shape[1] // 2 - 1)

    def coeff(self, n1, n2):
        """Coefficient c_(n1, n2); indices may be arrays."""
        n1, n2 = np.asarray(n1), np.asarray(n2)
        N2, N1 = self._shape
        if np.any(n1 < -(N1 // 2)) or np.any(n1 >= N1 // 2) or np.any(n2 < -(N2 // 2)) or np.any(n2 >= N2 // 2):
            raise ValueError("spectral index outside the table range")
        return self.values[n2 + N2 // 2, n1 + N1 // 2]

    def symmetry_violation(self):
        """Max |c_n - (-1)^{n1} c_{M(n)}| relative to the largest coefficient.

        The reflection is taken modulo the table size, so the Nyquist row
        pairs with itself; the relative scale is global because individual
        coefficients may be exactly zero. Non-finite entries give NaN.
        """
        return _mirror_residual(self)[1]

    def conjugate_symmetry_violation(self):
        """Max |c_{-n} - conj(c_n)| relative to the largest coefficient."""
        values = self.values
        # row j holds n2 = j - N2/2 and -n2 sits at row -j mod N2; likewise for columns
        reflected = np.roll(values[::-1, ::-1], 1, axis=(0, 1))
        resid = np.abs(reflected - np.conj(values))
        scale = np.max(np.abs(values))
        return 0.0 if scale == 0 else float(np.max(resid) / scale)


@dataclass
class FoldedCoefficientTable:
    """Half-domain coefficients, rows n2 = 0 .. N2/2 inclusive.

    The last row holds the self-paired Nyquist coefficients so that unfolding
    reproduces the symmetrized full table bit-exactly.
    """

    values: np.ndarray

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=complex)
        if self.values.ndim != 2 or self.values.shape[1] % 2:
            raise ValueError("folded table must be 2-d with an even number of columns")


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
        _check_degrees([self.degree])

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
        n = np.arange(-self.degree, self.degree + 1)
        n1, n2 = np.meshgrid(n, n, indexing="ij")
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


def _centered_table(half):
    """The centered (N2, N1) table of a half spectrum: rows n2 mod N2, columns n1 = 0 .. N1/2.

    The n1 < 0 columns follow from c_{-n} = conj(c_n).
    """
    N2, h1 = half.shape[0], half.shape[1] - 1
    h2 = N2 // 2
    table = np.empty((N2, 2 * h1), dtype=half.dtype)
    table[h2:, h1:] = half[:h2, :h1]
    table[:h2, h1:] = half[h2:, :h1]
    np.conjugate(half[h2::-1, h1:0:-1], out=table[: h2 + 1, :h1])
    np.conjugate(half[:h2:-1, h1:0:-1], out=table[h2 + 1 :, :h1])
    return table


def _real_coefficients(x):
    """Centered coefficient table of a real grid ``x`` sampled from (-pi, -pi), ``rfft2``'s bit for bit.

    Rolling the origin to (0, 0) takes the factor (-1)^{n1+n2} out of the
    transform. The transform is an ``rfft`` along lambda of a rolled copy of
    ``x``, then an ``fft`` along theta in place, the two passes of ``rfft2``.
    """
    N2, N1 = x.shape
    # rows n2 mod N2, columns n1 = 0 .. N1/2; norm="forward" divides by N1 N2 inside the transform
    half = np.fft.rfft(np.roll(x, (N2 // 2, N1 // 2), axis=(0, 1)), axis=1, norm="forward")
    np.fft.fft(half, axis=0, norm="forward", out=half)
    return _centered_table(half)


def _half_spectrum(x):
    """Half spectrum of a real, exactly BMC torus grid ``x`` (:attr:`TorusGrid.bmc`) sampled from (-pi, -pi).

    Each row theta in (-pi, 0) of ``x`` is its mirror row -theta turned by
    half a revolution, which is the factor (-1)^{n1} in the lambda spectrum.
    So only the N2/2 + 1 rows theta in [0, pi) and theta = -pi go through the
    lambda ``rfft``, each straight into its theta-rolled row; the two
    self-paired rows theta = 0 and -pi go through one call. The other rows
    are copied from their mirrors, and then the odd-n1 columns of the
    transformed rows are negated in place: that negation stands in for the
    lambda roll, which the copies, turned already, do not need. The theta
    ``fft`` runs in place, and no copy of ``x`` is made beyond those two
    rows. Returns the
    (N2, N1/2 + 1) half of the centered table (rows n2 mod N2, columns
    n1 = 0 .. N1/2), that of ``rfft2`` bit for bit on power-of-two sides and
    to rounding otherwise.
    """
    N2, N1 = x.shape
    h2, h1 = N2 // 2, N1 // 2
    half = np.empty((N2, h1 + 1), dtype=complex)
    np.fft.rfft(x[h2 + 1 :], axis=1, norm="forward", out=half[1:h2])
    np.fft.rfft(x[[h2, 0]], axis=1, norm="forward", out=half[::h2])  # theta = 0 and -pi, rolled to rows 0 and N2/2
    half[h2 + 1 :] = half[h2 - 1 : 0 : -1]
    _negate_odd_columns(half[: h2 + 1], 0)
    np.fft.fft(half, axis=0, norm="forward", out=half)
    return half


def compute_coefficients(grid):
    """Fourier coefficients of a torus grid under the integral convention.

    A full 2-d transform of the grid by real-input FFTs. A grid is real when
    it has no nonzero imaginary part, whatever its dtype, so a real grid and
    its complex cast give the same table.

    The table of a real grid that is BMC (:attr:`TorusGrid.bmc`, read from
    the values) stores only its half spectrum (see :class:`CoefficientTable`),
    made by :func:`_half_spectrum` from the glide-distinct rows alone: no
    rolled copy of the grid, no lambda pass over the rows theta in (-pi, 0)
    and no full table are made. Its coefficients satisfy c_{-n} = conj(c_n)
    and c_n = (-1)^{n1} c_{M(n)}, so every partial sum of it is real.

    Any other grid gets the full ``rfft2`` table of its real part plus, when
    its imaginary part is nonzero, i times that of its imaginary part,
    scaled by i in place before it is added, so a complex grid makes no
    third table. No table is symmetrized, so a BMC violation of the grid
    shows in it. A grid holding a non-finite sample raises ValueError.
    """
    bmc = grid.bmc  # True only for a finite grid, so the scan below runs on grids that are not BMC
    x = grid.values
    if not (bmc or np.all(np.isfinite(x))):
        raise ValueError("torus grid holds non-finite samples")
    real = np.isrealobj(x) or not np.any(x.imag)
    if real and bmc:
        return CoefficientTable._of_half(_half_spectrum(x.real))
    table = CoefficientTable(_real_coefficients(x.real))
    if not real:
        imag = _real_coefficients(x.imag)
        imag *= 1j
        table.values += imag
    return table


def _truncated_block(table, omega):
    """(n1, n2, block, real): block[j, k] is the coefficient of exp(i (n1[k] x1 + n2[j] x2)) in the sum over ``omega``.

    The index ranges are the square |n1|, |n2| <= degree; block[j, k] =
    c_(n1[k], n2[j]) on members and 0 elsewhere. A half-domain set gives the
    folded series sum c_n e_n: as e_n pairs exp(i <n, x>) with (-1)^{n1}
    exp(i <M(n), x>), rows -j are then (-1)^{n1} times rows j. ``omega=None``
    gives a copy of the whole table.

    For a half table (see :class:`CoefficientTable`), that of a real BMC
    grid, ``real`` is True and the block holds only the columns n1 = 0 ..
    degree, read from the half: the sum over omega is real, and the columns
    n1 < 0 are the conjugates of these, so each summing kernel adds them
    back in its own way (:func:`_separable_sum`, :func:`_grid_sum`).
    Otherwise ``real`` is False and the block holds every column.
    """
    if omega is None:  # a half table's values are already a fresh array, but read-only
        whole = table.values.copy() if table._half is None else _centered_table(table._half)
        return table.n1_values, table.n2_values, whole, False
    if omega.degree > table.max_degree:
        raise ValueError(
            f"truncation degree {omega.degree} exceeds the table range "
            f"(max usable degree {table.max_degree})"
        )
    stored, zero, first = table._stored()
    n = np.arange(-omega.degree, omega.degree + 1)
    real = table._half is not None
    n1 = n[omega.degree :] if real else n
    block = stored[np.ix_((n + zero) % len(stored), n1 - first)]
    block[~omega.contains(*np.meshgrid(n1, n))] = 0.0
    if omega.half:
        block[: omega.degree] = block[: omega.degree : -1]
        _negate_odd_columns(block[: omega.degree], n1[0])
    return n1, n, block, real


def _angle_phases(x):
    """exp(i x) of an angle array: one cos and one sin, into the real and imaginary views of one array.

    Raises ValueError for a non-finite angle.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("angles must be finite")
    w = np.empty(x.shape, dtype=complex)
    np.cos(x, out=w.real)
    np.sin(x, out=w.imag)
    return w


def _phases(w, n):
    """The rows w**n[k] of 1-d unit phases ``w`` over a contiguous integer range ``n``, shape (len(n), len(w)).

    The row n = 0 is 1, or row 0 is ``w**n[0]`` when the range excludes 0;
    every other row is its neighbour on that side times w or conj(w), one
    complex multiply per row and no transcendental call. A row m steps out
    carries about m eps of rounding, as exp(i m x) carries |m x| eps / 2 of
    argument rounding.
    """
    out = np.empty((len(n), w.size), dtype=complex)
    j = -n[0] if n[0] <= 0 <= n[-1] else 0
    out[j] = w ** n[j]
    for k in range(j + 1, len(n)):
        np.multiply(out[k - 1], w, out=out[k])
    w = np.conj(w)
    for k in range(j - 1, -1, -1):
        np.multiply(out[k + 1], w, out=out[k])
    return out


def _point_sum(n1, colatitude, w_lam, w_theta, lead=(), built=0):
    """sum_k C[k, p, ...] w_lam[p]**n1[k] at the points p of the unit phases w_lam = exp(i lam), w_theta = exp(i theta).

    The point kernel of both expansions, Fourier series in lam whose order
    n1[k] coefficient is a function of theta: ``colatitude`` maps a slice of
    w_theta to its table C of them, shape (len(n1), P) + ``lead``. Points go
    in slices of at most 2^21 complex entries, counted over C, the phases of
    w_lam and the ``built`` entries per point that ``colatitude`` holds
    besides C. Returns shape ``lead`` + the points' shape, or a complex when
    both are empty.
    """
    shape = np.broadcast(w_lam, w_theta).shape
    w_lam, w_theta = (np.broadcast_to(w, shape).ravel() for w in (w_lam, w_theta))
    out = np.empty(lead + w_lam.shape, dtype=complex)
    step = max(1, 2**21 // (len(n1) * (np.prod(lead, dtype=int) + 1) + built))
    for s in range(0, w_lam.size, step):
        # no name holds a slice's tables, so they are freed before the next slice builds its own
        np.einsum("kp...,kp->...p", colatitude(w_theta[s : s + step]), _phases(w_lam[s : s + step], n1),
                  out=out[..., s : s + step])
    return out.reshape(lead + shape) if lead + shape else complex(out[0])


def _separable_sum(n1, n2, block, real, w_lam, w_theta):
    """sum_{j,k} block[j, k] w_lam**n1[k] w_theta**n2[j] at unit phases w_lam = exp(i lam), w_theta = exp(i theta).

    Each term factors as exp(i n1 lam) exp(i n2 theta), so the sum is
    :func:`_point_sum` of the colatitude table block.T @ E_theta, E_theta
    the (len(n2), p) :func:`_phases` of w_theta. With ``real`` set (see
    :func:`_truncated_block`) the n1 > 0 columns are weighted by 2 and only
    the real part is kept, as a complex value with imaginary part 0.
    """
    if real:  # Re(.) of each n1 > 0 column stands for it and its conjugate column -n1
        block = np.where(n1 > 0, 2.0, 1.0) * block
    sums = _point_sum(n1, lambda w: block.T @ _phases(w, n2), w_lam, w_theta, built=len(n2))
    # the kernel's einsum sums from +0, so no real part is -0 and adding 0j keeps every bit
    return sums.real + 0j if real else sums


def partial_sum_torus(table, omega, lam, theta):
    """Evaluate the partial Fourier sum over a full-domain set at torus points.

    sum_{n in omega} c_n exp(i <n, x>) by the separable kernel; ``omega=None``
    sums the whole table, and scalar angles give a complex. A table of a real
    BMC grid sums its n1 >= 0 columns, with imaginary part 0 (see
    :func:`_truncated_block`). A non-finite angle raises ValueError. Use
    :func:`partial_sum_grid` for grid-aligned evaluation via the inverse FFT.
    """
    if omega is not None and omega.half:
        raise ValueError("partial_sum_torus expects a full-domain spectral set")
    return _separable_sum(*_truncated_block(table, omega), _angle_phases(lam), _angle_phases(theta))


def _grid_sum(table, omega, n_theta, n_lambda, rows):
    """Rows ``rows`` of the sum of :func:`_truncated_block` on an n_theta x n_lambda torus grid.

    The block's columns alone are zero-padded to n_theta and transformed along
    theta, in place; the requested rows are then placed in the lambda
    spectrum and transformed along lambda, so neither the padded 2-d spectrum
    nor the rows left out are ever formed. A half-domain set gives the folded
    series. A block of n1 >= 0 columns is transformed by ``irfft``, which adds
    the conjugate columns n1 < 0 itself and zero-pads each row up to the
    lambda Nyquist column; it writes into the real part of the zeroed complex
    result, whose imaginary part stays 0. Any other block's rows are placed in
    the result, which is then inverted along lambda in place. So the result
    is the one array of the output's size. Returns shape (len(rows), n_lambda).
    """
    n1, n2, block, real = _truncated_block(table, omega)
    width = 2 * len(n1) - 1 if real else len(n1)
    if len(n2) > n_theta or width > n_lambda:
        raise ValueError(
            f"target grid {n_theta} x {n_lambda} cannot hold the {len(n2)} x {width} coefficient block"
        )
    # (-1)^{n1 + n2} moves the origin to (-pi, -pi)
    _negate_odd_columns(block, n1[0])
    _negate_odd_columns(block.T, n2[0])
    columns = np.zeros((n_theta, len(n1)), dtype=complex)
    columns[n2 % n_theta] = block
    # norm="forward" leaves the inverse transforms unscaled, as the sum is
    columns = np.fft.ifft(columns, axis=0, norm="forward", out=columns)[rows]
    out = np.zeros((columns.shape[0], n_lambda), dtype=complex)
    if real:  # columns n1 = 0 .. degree are the lambda spectrum's first ones; irfft zero-pads each row itself
        np.fft.irfft(columns, n_lambda, axis=1, norm="forward", out=out.real)
    else:
        out[:, n1 % n_lambda] = columns
        np.fft.ifft(out, axis=1, norm="forward", out=out)
    return out


def partial_sum_grid(table, omega, n_theta, n_lambda):
    """Partial Fourier sum evaluated on an equispaced torus grid via inverse FFT.

    The truncation block must fit below the Nyquist bound of the target grid
    (``omega=None`` synthesizes the whole table; the target must then be at
    least as large as the table). Agrees with :func:`partial_sum_torus` at the
    grid points to rounding.
    """
    if omega is not None and omega.half:
        raise ValueError("partial_sum_grid expects a full-domain spectral set")
    return TorusGrid(_grid_sum(table, omega, n_theta, n_lambda, slice(None)))


def basis_e(n1, n2, lam, theta):
    """Folded exponential on the torus.

    exp(i <n, x>) + (-1)^{n1} exp(i <M(n), x>) for n2 > 0, and exp(i n1 x1)
    for n2 = 0. Glide-reflection invariant for n2 > 0 and for even n1; the
    n2 = 0, odd-n1 members pick up a factor -1 under the glide reflection
    (their coefficients vanish for any doubled grid). It is evaluated as
    exp(i n1 x1) times :func:`_colatitude_factor`, one exponential per point.

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
    return np.exp(1j * n1 * lam) * _colatitude_factor(n1, n2, np.asarray(theta, dtype=float))


def _colatitude_factor(n1, n2, theta):
    """e_n(0, theta): 1 for n2 = 0, else 2 cos(n2 theta) for even n1 and 2i sin(n2 theta) for odd n1."""
    if n2 == 0:
        return np.ones_like(theta)
    return 2.0 * np.cos(n2 * theta) if n1 % 2 == 0 else 2j * np.sin(n2 * theta)


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
    lam = _periodic_nodes(n_quad)
    theta = (np.arange(n_quad) + 0.5) * np.pi / n_quad
    weight = (2.0 * np.pi / n_quad) * (np.pi / n_quad)
    return lam, theta, weight


def gram_matrix(functions, n_quad=512):
    """Gram matrix of spherical functions under the weighted inner product.

    Entry (i, j) approximates the integral of f_i conj(f_j) (1 - xi3^2)^(-1/2)
    over the sphere, which in (lambda, theta) coordinates is the unweighted
    integral of (f_i o phi)(f_j o phi)* over [-pi, pi) x [0, pi]: the
    colatitude weight cancels the sine of the surface measure. Each function
    is sampled once on the shared grid of :func:`quadrature_rule`.
    """
    functions = list(functions)
    lam, theta, w = quadrature_rule(n_quad)
    nodes = dfs_coord(lam[None, :], theta[:, None])
    A = np.empty((len(functions), n_quad * n_quad), dtype=complex)
    for row, f in zip(A, functions):
        row[:] = np.ravel(f(nodes))
    return w * (A @ A.conj().T)


def basis_gram(indices):
    """Gram matrix of the push-down basis members b_n, n in ``indices``.

    The quadrature of :func:`gram_matrix` at its default 512^2 nodes without
    the sphere map: as e_n(lambda, theta) = exp(i n1 lambda) e_n(0, theta),
    that sum is the Hadamard product of two Grams over 1-D nodes. Each is
    taken once over the distinct 1-D rows, the phases of n1 = min .. max and
    the colatitude factors of each n1 parity and n2, and then indexed by the
    members. ``einsum`` forms these small Grams without a threaded BLAS call,
    whose thread start-up stalled the 41-member Gram for 80-93 ms in some
    fresh processes on 2 shared CPUs.
    """
    lam, theta, w = quadrature_rule(512)
    n1, n2 = np.array(indices, dtype=int).reshape(-1, 2).T
    n = np.arange(min(n1, default=0), max(n1, default=0) + 1)
    m = np.arange(min(n2, default=0), max(n2, default=0) + 1)
    e_lam = _phases(_angle_phases(lam), n)
    e_theta = np.array([_colatitude_factor(p, b, theta) for p in (0, 1) for b in m])
    gram = lambda e, k: np.einsum("ip,jp->ij", e, e.conj())[np.ix_(k, k)]
    return w * gram(e_lam, n1 - n[0]) * gram(e_theta, n1 % 2 * len(m) + n2 - m[0])


def dfs_fourier_sum(table, omega, points):
    """Partial sum of the folded series at sphere points.

    sum over n in omega (a half-domain set) of c_n b_n(xi), with coefficients
    read from a coefficient table: the folded block of
    :func:`_truncated_block`, evaluated by the separable kernel at the unit
    phases of the points. A half table, that of a real BMC grid, sums its
    n1 >= 0 columns, with imaginary part 0.
    """
    if omega is None or not omega.half:
        raise ValueError("dfs_fourier_sum expects a half-domain spectral set")
    return _separable_sum(*_truncated_block(table, omega), *_unit_phases(points))


def _mirror_residual(table):
    """The mirrored half of a table and its relative asymmetry.

    The mirrored half holds (-1)^{n1} c_(n1, -n2) for the rows n2 = 0 .. N2/2 - 1
    and then the self-paired Nyquist row, over the stored columns. As
    |c_n - (-1)^{n1} c_{M(n)}| is the same for rows n2 and -n2, and for n
    and -n of a half table, comparing these rows with their mirrors covers
    the table. The sign is a copy with the odd-n1 columns negated in place.
    """
    stored, zero, first = table._stored()
    h2 = len(stored) // 2
    mirrored = stored[(zero - np.arange(h2 + 1)) % len(stored)]  # rows n2 = 0, -1, .., -N2/2
    _negate_odd_columns(mirrored, first)
    resid = np.maximum(np.max(np.abs(stored[zero : zero + h2] - mirrored[:h2])),
                       np.max(np.abs(stored[zero - h2] - mirrored[h2])))
    scale = np.max(np.abs(stored))
    return mirrored, 0.0 if scale == 0 else float(resid / scale)


def fold_coefficients(table):
    """Project a full table onto the half domain, enforcing the symmetry exactly.

    Rows n2 and -n2 are averaged as (c_n + (-1)^{n1} c_{M(n)}) / 2; the n2 = 0
    row and the Nyquist row are averaged with themselves, which zeroes their
    odd-n1 entries. Raises if the relative asymmetry exceeds ``_SYMMETRY_TOL`` (the
    source grid was not BMC) or is NaN (the table holds non-finite values).
    A half table is folded from its half, with the same bits as its full
    values: each n1 < 0 entry is conjugated before the two terms are added.
    """
    mirrored, violation = _mirror_residual(table)
    if not violation <= _SYMMETRY_TOL:
        raise ValueError(
            f"coefficient symmetry violated (relative asymmetry {violation:.3e} > {_SYMMETRY_TOL:.1e}); "
            "source grid is not block-mirror-centrosymmetric"
        )
    stored, zero, first = table._stored()
    h2 = len(stored) // 2
    if table._half is None:
        folded = mirrored
        folded[:h2] += stored[h2:]                # n2 = 0 .. N2/2 - 1
        folded[h2] += stored[0]                   # self-paired Nyquist row
    else:
        h1 = stored.shape[1] - 1
        folded = np.empty((h2 + 1, 2 * h1), dtype=complex)
        np.add(mirrored[:, :h1], stored[: h2 + 1, :h1], out=folded[:, h1:])
        # column -m: (-1)^m conj(c_(m, n2)) plus conj(c_(m, -n2)), the mirror's sign undone
        np.conjugate(stored[: h2 + 1, h1:0:-1], out=folded[:, :h1])
        _negate_odd_columns(folded[:, :h1], -h1)
        np.conjugate(mirrored, out=mirrored)
        _negate_odd_columns(mirrored, 0)
        folded[:, :h1] += mirrored[:, h1:0:-1]
    folded *= 0.5
    return FoldedCoefficientTable(folded)


def unfold_coefficients(folded):
    """Rebuild the symmetrized full table from its half-domain fold.

    The rows n2 < 0 are copies of the rows -n2 with the odd-n1 columns
    negated in place.
    """
    n_half, N1 = folded.values.shape
    N2 = 2 * (n_half - 1)
    full = np.empty((N2, N1), dtype=complex)
    full[N2 // 2:] = folded.values[: N2 // 2]
    full[0] = folded.values[N2 // 2]
    full[N2 // 2 - 1:0:-1] = folded.values[1:N2 // 2]
    _negate_odd_columns(full[1 : N2 // 2], -(N1 // 2))
    return CoefficientTable(full)


def coeff_io_write(table, path):
    """Write a coefficient table in the DFSC binary layout.

    Layout: magic ``DFSC``, version u32 LE, the half-open index ranges as four
    signed 64-bit ints (n1 start/stop, n2 start/stop), normalization tag u8
    (always 0, the integral convention of this module), then row-major complex
    values (rows ordered by ascending n2) as little-endian float64 pairs.
    """
    h2, h1 = table._shape[0] // 2, table._shape[1] // 2
    _write_container(path, _COEFF_LAYOUT, (-h1, h1, -h2, h2, 0), table.values)


def _coeff_shape(n1_lo, n1_hi, n2_lo, n2_hi, tag):
    """The (N2, N1) table shape of DFSC index ranges; only the integral convention's tag 0 is read."""
    if tag != 0:
        raise ValueError(f"unsupported normalization tag {tag} (only 0, the integral convention)")
    N1, N2 = n1_hi - n1_lo, n2_hi - n2_lo
    if N1 <= 0 or N2 <= 0 or n1_lo != -(N1 // 2) or n2_lo != -(N2 // 2):
        raise ValueError("coefficient index ranges must be centered")
    return N2, N1


def coeff_io_read(path):
    """Read a coefficient table written by :func:`coeff_io_write`; any normalization tag but 0 raises ValueError."""
    _, values = _read_container(path, _COEFF_LAYOUT, _coeff_shape)
    return CoefficientTable(values)
