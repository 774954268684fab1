"""Output checks for the benchmark workloads.

Each check recomputes what it tests from an independent formula, or tests a
property the double Fourier sphere method must have; none compares against a
stored copy of an earlier output. The checks use numpy only, never dfsphere,
so a fault in the library cannot hide itself by also being in its check.

Every check returns a list of failure messages; an empty list means the
output passed.

Tables are centered: ``values[j, k]`` holds c_(n1, n2) with
n1 = k - N1/2 and n2 = j - N2/2, as in the DFSC layout.
"""

import csv
import io
import json
import struct

import numpy as np

#: relative tolerance of the coefficient checks (BMC symmetry, quadrature)
COEFF_RTOL = 1e-10
#: allowance of the tail-sum bound on the sup error (acceptance C06)
TAIL_ALLOWANCE = 1e-8


def alternating(n):
    """(-1)**n for integer arrays, as floats."""
    return np.where(np.asarray(n) % 2 == 0, 1.0, -1.0)


def index_ranges(shape):
    """The n1 and n2 index vectors of a centered table of this shape."""
    n2, n1 = shape
    return np.arange(-(n1 // 2), n1 // 2), np.arange(-(n2 // 2), n2 // 2)


def _scale(values):
    scale = float(np.max(np.abs(values)))
    return scale if np.isfinite(scale) and scale > 0.0 else None


def bmc_symmetry(values, rtol=COEFF_RTOL):
    """|c_n - (-1)^n1 c_(n1, -n2)| <= rtol * max|c|; the Nyquist row pairs with itself."""
    scale = _scale(values)
    if scale is None:
        return ["coefficient table has no finite nonzero entry"]
    n1, _ = index_ranges(values.shape)
    rows = (values.shape[0] - np.arange(values.shape[0])) % values.shape[0]
    resid = float(np.max(np.abs(values - alternating(n1)[None, :] * values[rows])))
    if not resid <= rtol * scale:
        return [f"BMC symmetry violated: relative residual {resid / scale:.3e} > {rtol:.0e}"]
    return []


def sphere_points(lam, theta):
    """phi(lam, theta) = (cos lam sin theta, sin lam sin theta, cos theta)."""
    st = np.sin(theta)
    return np.stack([np.cos(lam) * st, np.sin(lam) * st, np.cos(theta) + 0.0 * lam], axis=-1)


def direct_coefficients(f, n, indices, block=64):
    """c_n = n^-2 sum over the full n x n torus grid of f(phi(x)) exp(-i <n, x>).

    The grid starts at -pi in both angles. f is evaluated at phi of every
    torus node, the lower half included, so the sum uses neither the
    doubling nor an FFT. Rows are taken in blocks to bound memory.
    """
    n1 = np.array([i[0] for i in indices])
    n2 = np.array([i[1] for i in indices])
    grid = -np.pi + 2.0 * np.pi * np.arange(n) / n
    e_lam = np.exp(-1j * np.outer(grid, n1))
    acc = np.zeros(len(indices), dtype=complex)
    for j0 in range(0, n, block):
        theta = grid[j0:j0 + block]
        lam_mesh, theta_mesh = np.meshgrid(grid, theta)
        samples = np.asarray(f(sphere_points(lam_mesh, theta_mesh)), dtype=complex)
        acc += np.sum((samples @ e_lam) * np.exp(-1j * np.outer(theta, n2)), axis=0)
    return acc / (n * n)


def coefficients_match(values, indices, expected, rtol=COEFF_RTOL):
    """Table entries at ``indices`` equal the direct quadrature within rtol * max|c|."""
    scale = _scale(values)
    if scale is None:
        return ["coefficient table has no finite nonzero entry"]
    n2_len, n1_len = values.shape
    got = np.array([values[b + n2_len // 2, a + n1_len // 2] for a, b in indices])
    worst = float(np.max(np.abs(got - expected)))
    if not worst <= rtol * scale:
        return [f"direct quadrature disagrees: relative {worst / scale:.3e} > {rtol:.0e}"]
    return []


def folded_parity(folded_values):
    """The odd-n1 entries of the folded n2 = 0 row are exactly zero."""
    n1, _ = index_ranges((2, folded_values.shape[1]))
    odd = folded_values[0, n1 % 2 == 1]
    if np.any(odd != 0.0):
        return [f"folded n2 = 0 row: max odd-n1 entry {float(np.max(np.abs(odd))):.3e} != 0"]
    return []


def tail_sum(values, h):
    """Sum of |c_n| over the table outside the rectangle max(|n1|, |n2|) <= h."""
    n1, n2 = index_ranges(values.shape)
    outside = (np.abs(n1)[None, :] > h) | (np.abs(n2)[:, None] > h)
    return float(np.sum(np.abs(values[outside])))


def tail_dominates(error, tail):
    """A sup error is at most the coefficient tail sum plus the allowance."""
    err = float(np.max(error))
    if not err <= tail + TAIL_ALLOWANCE:
        return [f"sup error {err:.3e} exceeds tail sum {tail:.3e} + {TAIL_ALLOWANCE:.0e}"]
    return []


def inverse_coordinates(points):
    """lam = atan2(y, x) and theta = arccos(z) of unit vectors."""
    p = np.asarray(points, dtype=float)
    return np.arctan2(p[..., 1], p[..., 0]), np.arccos(np.clip(p[..., 2], -1.0, 1.0))


def folded_sum(values, h, points):
    """sum over |n1| <= h, 0 <= n2 <= h of c_n e^(i n1 lam) (e^(i n2 theta) + (-1)^n1 e^(-i n2 theta)).

    The n2 = 0 terms carry e^(i n1 lam) alone. Plain numpy over the folded
    basis, at the benchmark's own inverse coordinates.
    """
    lam, theta = inverse_coordinates(points)
    n1 = np.arange(-h, h + 1)
    n2 = np.arange(0, h + 1)
    n2_len, n1_len = values.shape
    c = values[np.ix_(n2 + n2_len // 2, n1 + n1_len // 2)]
    e_lam = np.exp(1j * np.outer(lam, n1))
    pos = np.exp(1j * np.outer(theta, n2))
    neg = np.exp(-1j * np.outer(theta, n2))
    neg[:, 0] = 0.0
    # term[p, b, a] = c[b, a] e^(i a lam_p) (e^(i b th_p) + (-1)^a e^(-i b th_p))
    plain = np.einsum("pb,ba,pa->p", pos, c, e_lam)
    mirror = np.einsum("pb,ba,pa->p", neg, c * alternating(n1)[None, :], e_lam)
    return plain + mirror


def values_agree(got, want, rtol=COEFF_RTOL, what="values"):
    """max|got - want| <= rtol * max|want|."""
    scale = _scale(want)
    if scale is None:
        return [f"{what}: reference has no finite nonzero entry"]
    worst = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    if not worst <= rtol * scale:
        return [f"{what} disagree: relative {worst / scale:.3e} > {rtol:.0e}"]
    return []


DFSC_HEADER = "<IqqqqB"


def parse_dfsc(raw, n):
    """Values of an n x n DFSC file, or failures; the layout is that of ``coeff_io_write``.

    Magic ``DFSC``, version u32 LE = 1, the half-open ranges n1 and n2 as four
    i64 LE (centered: -n/2, n/2), normalization tag u8 = 0, then n * n complex
    values as little-endian float64 pairs, rows by ascending n2.
    """
    head = 4 + struct.calcsize(DFSC_HEADER)
    if len(raw) < head or raw[:4] != b"DFSC":
        return None, ["DFSC: bad magic or short header"]
    version, n1_lo, n1_hi, n2_lo, n2_hi, tag = struct.unpack(DFSC_HEADER, raw[4:head])
    failures = []
    if version != 1:
        failures.append(f"DFSC: version {version} != 1")
    if (n1_lo, n1_hi, n2_lo, n2_hi) != (-(n // 2), n // 2, -(n // 2), n // 2):
        failures.append(f"DFSC: ranges {(n1_lo, n1_hi, n2_lo, n2_hi)} are not centered {n} x {n}")
    if tag != 0:
        failures.append(f"DFSC: normalization tag {tag} != 0")
    payload = raw[head:]
    if len(payload) != n * n * 16:
        failures.append(f"DFSC: payload {len(payload)} bytes != {n * n * 16}")
    if failures:
        return None, failures
    return np.frombuffer(payload, dtype="<c16").reshape(n, n).astype(complex), []


def error_table_csv(text, degrees):
    """Rows h = degrees, strictly decreasing max_error, DFS and SH errors within 10x (C11)."""
    rows = [r for r in csv.DictReader(io.StringIO(text)) if r.get("h", "").isdigit()]
    hs = [int(r["h"]) for r in rows]
    if hs != list(degrees):
        return [f"error table: rows h = {hs}, expected {list(degrees)}"]
    try:
        dfs_err = [float(r["max_error"]) for r in rows]
        sh_err = [float(r["sh_max_error"]) for r in rows]
    except (KeyError, TypeError, ValueError):
        return ["error table: missing or non-numeric max_error / sh_max_error column"]
    failures = []
    if not all(np.isfinite(dfs_err + sh_err)) or min(dfs_err + sh_err) <= 0.0:
        failures.append("error table: errors must be finite and positive")
    elif not all(b < a for a, b in zip(dfs_err, dfs_err[1:])):
        failures.append(f"error table: max_error not strictly decreasing: {dfs_err}")
    elif not all(0.1 <= d / s <= 10.0 for d, s in zip(dfs_err, sh_err)):
        failures.append(f"error table: DFS/SH ratio outside [0.1, 10]: {dfs_err} vs {sh_err}")
    return failures


def orthogonality_json(text, n_functions=41):
    """The report of ``dfs verify orthogonality`` holds the Gram bounds of C02."""
    try:
        rep = json.loads(text)
        n, off, diag = rep["n_functions"], rep["max_off_diagonal"], rep["max_diagonal_error"]
    except (ValueError, KeyError, TypeError):
        return ["orthogonality report: not JSON or missing fields"]
    failures = []
    if n != n_functions:
        failures.append(f"orthogonality report: n_functions {n} != {n_functions}")
    if not off <= 1e-10:
        failures.append(f"orthogonality report: max_off_diagonal {off} > 1e-10")
    if not diag <= 1e-8:
        failures.append(f"orthogonality report: max_diagonal_error {diag} > 1e-8")
    return failures
