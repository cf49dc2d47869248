"""Finite truncations of Toeplitz and Mobius-unitary operators.

All matrices live in the orthonormal monomial basis

    e_n(w) = sqrt(n + 1) * w^n,   n = 0 .. N-1,

with entry convention M[q, p] = <S e_p, e_q>, so columns are images.
Truncation is plain compression: the top-left N x N block of the
infinite matrix; only ``covariant_toeplitz`` compresses from a larger
working size.  For a monomial symbol w^j conj(w)^k the compression
entries are exact:

    <T e_p, e_q> = sqrt((p+1)(q+1)) / (j + p + 1)   when j + p = k + q,

which follows from the monomial moments of the normalized area measure.
U_z is a rotated copy of a real matrix: with theta = arg z and r = |z|,
phi_z(w) = e^{i theta} phi_r(e^{-i theta} w), so

    U_z[q, p] = e^{i(p - q) theta} U_r[q, p],   U_r real,

and ``covariant_toeplitz`` works with U_r in real arithmetic.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .diskgeom import disk_gap, disk_value
from .quadrature import BLOCK_NODES, DiskQuadrature, check_rule_for_degree
from .symbols import MonomialSymbol


class TruncatedOperator:
    """An N x N read-only complex matrix in the orthonormal monomial basis."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        m = np.array(matrix, dtype=complex, order="C")  # the caller keeps its array
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError(f"operator matrix must be square, got shape {m.shape}")
        self.matrix = self._adopt(m).matrix

    @classmethod
    def _adopt(cls, m: np.ndarray, finite: bool = False) -> "TruncatedOperator":
        """Keep, uncopied, an array the package built; ``finite`` skips the inf/nan scan."""
        if not finite and not np.all(np.isfinite(m)):
            raise ValueError("operator entries must be finite")
        m.setflags(write=False)
        op = object.__new__(cls)
        op.matrix = m
        return op

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self):
        return f"TruncatedOperator(dim={self.dim})"

    def _check_dim(self, other: "TruncatedOperator"):
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other):
        self._check_dim(other)
        return TruncatedOperator._adopt(self.matrix + other.matrix)

    def __sub__(self, other):
        self._check_dim(other)
        return TruncatedOperator._adopt(self.matrix - other.matrix)

    def __matmul__(self, other):
        self._check_dim(other)
        return TruncatedOperator._adopt(self.matrix @ other.matrix)

    def __mul__(self, scalar):
        return TruncatedOperator._adopt(complex(scalar) * self.matrix)

    __rmul__ = __mul__

    def __neg__(self):
        return TruncatedOperator._adopt(-self.matrix)

    def adjoint(self) -> "TruncatedOperator":
        return TruncatedOperator._adopt(np.conjugate(self.matrix.T, order="C"))

    def norm_fro(self) -> float:
        return float(np.linalg.norm(self.matrix))

    def norm_op(self) -> float:
        """Operator (spectral) norm of the truncation."""
        return float(np.linalg.norm(self.matrix, 2))

    def leading_block(self, n: int) -> "TruncatedOperator":
        if not 1 <= n <= self.dim:
            raise ValueError(f"block size {n} out of range for dim {self.dim}")
        # a copy, so that the block does not keep the whole matrix alive
        return TruncatedOperator._adopt(self.matrix[:n, :n].copy())


def toeplitz_exact(u: MonomialSymbol, dim: int) -> TruncatedOperator:
    """Compression of the Toeplitz operator with polynomial symbol u.

    Each monomial w^j conj(w)^k fills the single diagonal q - p = j - k;
    the result is linear over the symbol's terms.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    m = np.zeros((dim, dim), dtype=complex)
    flat = m.reshape(-1)  # entry [q, p] sits at q * dim + p
    for offset, lo, c, root, over in _toeplitz_diagonals(u, dim):
        start = (lo + offset) * dim + lo
        flat[start:start + len(root) * (dim + 1):dim + 1] += c * root / over
    return TruncatedOperator._adopt(m)


def _toeplitz_diagonals(u: MonomialSymbol, dim: int):
    """Yield (offset, p_lo, c, root, over) for each term c w^j conj(w)^k.

    The term's entry T[p + offset, p] is c root[i] / over[i] at p = p_lo + i,
    with root = sqrt((p+1)(q+1)) and over = p + j + 1 real.
    """
    index = np.arange(1.0, dim + 1.0)  # index[p] = p + 1
    for (j, k), c in u.coeffs.items():
        offset = j - k
        p_lo = max(0, -offset)
        p_hi = min(dim, dim - offset)
        if p_lo >= p_hi:
            continue
        p1, q1 = index[p_lo:p_hi], index[p_lo + offset:p_hi + offset]
        # single sqrt of the product keeps perfect squares exact (u = 1
        # really is the identity matrix)
        yield offset, p_lo, c, np.sqrt(p1 * q1), p1 + j


def toeplitz_quadrature(f, dim: int, rule: DiskQuadrature,
                        degree_hint: int = 0) -> TruncatedOperator:
    """Compression of T_f for a pointwise symbol evaluator, by quadrature.

    Entries <f e_p, e_q> are angular Fourier coefficients times radial
    moments, so the tensor rule reduces to one FFT per radius followed
    by radial dot products per diagonal.  ``f`` is evaluated and
    transformed a block of rings (about BLOCK_NODES nodes) at a time,
    and only the Fourier modes the diagonals read are kept: offset
    -(dim-1) .. dim-1 reads mode offset mod n_angular, stored in column
    offset mod width, width = min(2*dim - 1, n_angular).  ``degree_hint``
    is the caller's bound on the symbol's monomial degree, used (with
    2*(dim-1) for the basis) to check the rule against the moment oracle.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    check_rule_for_degree(rule, 2 * (dim - 1) + degree_hint)

    # hat_f[i, l % width] ~ (1/2pi) int f(r_i e^{i th}) e^{-i l th} dth
    grid = rule.node_grid()
    width = min(2 * dim - 1, rule.n_angular)
    modes = np.arange(width)
    modes[dim:] -= width  # negative offsets, read from the end of each FFT row
    hat_f = np.empty((rule.n_radial, width), dtype=complex)
    rings = max(1, BLOCK_NODES // rule.n_angular)
    for start in range(0, rule.n_radial, rings):
        block = grid[start:start + rings]
        values = np.asarray(f(block.ravel()), dtype=complex).reshape(block.shape)
        hat_f[start:start + rings] = np.fft.fft(values, axis=1)[:, modes]
    hat_f /= rule.n_angular
    # weighted radial powers, formed in place: one nr x (2 dim - 1) table
    weighted = rule.radial_r[:, None] ** np.arange(0, 2 * dim - 1)[None, :]
    weighted *= rule.radial_w[:, None]

    m = np.zeros((dim, dim), dtype=complex)
    scale = np.sqrt(np.arange(1, dim + 1, dtype=float))
    for offset in range(-(dim - 1), dim):
        fourier = hat_f[:, offset % width]
        p = np.arange(max(0, -offset), min(dim, dim - offset))
        q = p + offset
        m[q, p] = scale[p] * scale[q] * (fourier @ weighted[:, 2 * p + offset])
    return TruncatedOperator._adopt(m)


def unitary_uz(z, dim: int) -> TruncatedOperator:
    """Compression of the self-adjoint unitary U_z f = (f o phi_z) phi_z'.

    Column p holds the first ``dim`` orthonormal-basis coefficients of
    sqrt(p+1) * phi_z^p * phi_z'.  They come from the exact recurrence
    for multiplication by the rational phi_z (see ``_uz_columns``), in
    O(dim^2) operations whatever |z| is.  U_z exchanges the constants
    with -k_z and squares to the identity; both survive compression up
    to geometric tails.  U_z is Hermitian and U_conj(z) its entrywise
    conjugate, so U_conj(z)'s stored columns are U_z's rows, kept uncopied
    unless padded, and unscanned: a compressed unitary's entries are <= 1.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rows = _uz_columns(disk_value(z).conjugate(), dim, dim).T
    return TruncatedOperator._adopt(np.ascontiguousarray(rows), finite=True)


def _uz_columns(z, rows: int, cols: int) -> np.ndarray:
    """The first ``cols`` columns of U_z, each cut to its first ``rows`` entries.

    Let D[n, p] be the Taylor coefficient of w^n in phi_z^p * phi_z'.
    Column 0 is the series of phi_z' = (|z|^2 - 1) / (1 - c w)^2 with
    c = conj(z), and (1 - c w) * phi_z^p phi_z' = (z - w) * phi_z^(p-1) phi_z'
    gives, with D[-1, p] = 0, one first-order solve per column:

        D[n, p] = c D[n-1, p] + x[n],   x[n] = z D[n, p-1] - D[n-1, p-1].

    It takes a fixed number of numpy calls whatever |z| is: the scaled
    prefix sum y[s+i] = c^i (cumsum(c^-i x) + c y[s-1]) over blocks of
    length B with |c|^-B <= 1e290, all in one call.  Blocks are cut only
    when the rows exceed one, so each is over B/2 long and c^B < 1e-140:
    the carry goes one block deep.  With one row, or |c| < 1e-18, the
    solve is skipped and D[n, p] = x[n].  Entries with n < rows read only
    smaller n, so the cut at ``rows`` is exact.  Column p is row p of a
    (cols, rows) array padded to whole blocks; its transposed view is
    returned, scaled in place by sqrt(p+1) / sqrt(n+1).  The array is
    real for a real (not complex) point and complex otherwise.
    """
    zv = disk_value(z)
    if not np.iscomplexobj(z):
        zv = zv.real
    zc = zv.conjugate()

    solve = rows > 1 and abs(zc) >= 1e-18
    blocks = -(-rows // int(290.0 / -math.log10(abs(zv)))) if solve else 1
    width = -(-rows // blocks)

    m = np.empty((cols, blocks, width), dtype=type(zv))
    flat = m.reshape(cols, blocks * width)
    flat[0] = -disk_gap(zv) * np.arange(1, flat.shape[1] + 1) * zc ** np.arange(flat.shape[1])
    if solve:
        power = np.multiply.accumulate(np.r_[1.0, np.full(width - 1, zc)])
        inverse = 1.0 / power
    for p in range(1, cols):
        prev, y = flat[p - 1], flat[p]
        np.multiply(prev, zv, out=y)
        np.subtract(y[1:], prev[:-1], out=y[1:])
        if not solve:
            continue
        grid = m[p]
        np.multiply(grid, inverse, out=grid)
        np.add.accumulate(grid, axis=1, out=grid)
        if blocks > 1:
            grid[1:] += zc * power[-1] * grid[:-1, -1:]
        np.multiply(grid, power, out=grid)
    m = flat[:, :rows]
    # scale the real and imaginary parts (two floats per complex entry) as
    # floats: (x * s) / s == x for x = +-1, so the diagonal of U_0 stays
    # exactly -1, 1, -1, ...
    parts = m.view(float)
    parts *= np.sqrt(np.arange(1, cols + 1, dtype=float))[:, None]
    parts /= np.repeat(np.sqrt(np.arange(1, rows + 1, dtype=float)), m.itemsize // 8)
    return m.T


# Largest working size (rows of the U_z column block) covariant_toeplitz
# will build; beyond it the route refuses rather than compress early.
COVARIANT_MAX_ROWS = 4096


def _covariant_rows(r: float, dim: int) -> int:
    """Rows past which the first ``dim`` U_z columns have 2-norm tails below 1e-17.

    Column p, sqrt(p+1) phi_z^p phi_z', is analytic on |w| < 1/r, r = |z|.
    On |w| = R in (1, 1/r), |phi_z| <= g = (R-r)/(1-rR) and phi_z' has
    mean square (1-r^2)^2 (1+rho^2)/(1-rho^2)^3, rho = rR, so by Parseval
    the tail beyond row M is at most B R^-M / sqrt(M+1), B = sqrt(p+1) g^p
    ||phi_z'||_R, worst at p = dim-1.  M is the least size with M log R +
    log(M+1)/2 >= L = log(B / 1e-17) for some R = r^-s on a fixed grid.
    """
    if r == 0.0:
        return dim  # U_0 is diagonal
    s = (np.arange(40) + 0.5) / 40
    log_big = -s * math.log(r)  # log R; R itself may overflow for tiny r
    rho = r ** (1.0 - s)
    log_g = log_big + np.log1p(-r ** (1.0 + s)) - np.log1p(-rho)
    L = (0.5 * math.log(dim) + (dim - 1) * log_g + math.log1p(-r * r)
         + 0.5 * np.log1p(rho ** 2) - 1.5 * np.log1p(-rho ** 2) - math.log(1e-17))
    m = L / log_big  # enough; a step from it lands at or below the least M
    m = (L - 0.5 * np.log1p(m)) / log_big  # a step from there rounds up to enough
    return int(np.ceil((L - 0.5 * np.log1p(m)) / log_big).min())


def covariant_toeplitz(u: MonomialSymbol, z, dim: int) -> TruncatedOperator:
    """T with symbol u o phi_z via the covariance route U_z T_u U_z.

    This is the preferred finite-dimensional realization of composed
    symbols; the composition itself is rational and never materializes.
    Unlike plain compression, which multiplies dim x dim truncations of
    U_z and T_u, the route compresses from a faithful working size: it
    builds the first ``dim`` columns V of U_z out to M rows, past which a
    proved bound (``_covariant_rows``) puts their tails under 1e-17, and
    returns V^H T_u V.  By the rotation U_z[q, p] = e^{i(p-q) theta}
    U_r[q, p] (module docstring) this is P o sum_jk c_jk e^{i(j-k) theta}
    V_r^T T_{w^j conj(w)^k} V_r for the real block V_r of U_r: each term's
    T_{w^j conj(w)^k} is one real diagonal, so it costs one real matrix
    product of two slices of V_r's stored columns, and the phase
    P[q, p] = e^{i(p-q) theta} touches only the dim x dim result.  Raises
    ValueError, before building anything, when M would exceed COVARIANT_MAX_ROWS.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    zv = disk_value(z)
    r = abs(zv)
    rows = _covariant_rows(r, dim)
    if rows > COVARIANT_MAX_ROWS:
        raise ValueError(
            f"covariant_toeplitz at |z| = {r:.6g}, dim = {dim} needs a "
            f"working size of {rows} rows, above the ceiling of "
            f"{COVARIANT_MAX_ROWS}")
    v = _uz_columns(r, rows, dim).T  # row c is column c of U_r
    theta = cmath.phase(zv)
    out = np.zeros((dim, dim), dtype=complex)
    weighted = np.empty_like(v)
    for offset, lo, c, root, over in _toeplitz_diagonals(u, rows):
        n = len(root)
        # the term's rows q = p + offset of V_r, weighted by its diagonal
        left = np.multiply(v[:, lo + offset:lo + offset + n], root / over, out=weighted[:, :n])
        out += (c * cmath.exp(1j * offset * theta)) * (left @ v[:, lo:lo + n].T)
    # P[q, p] = e^{i(p-q) theta}, read from the 2 dim - 1 phases
    spread = np.arange(dim)
    out *= np.exp(1j * theta * np.arange(1 - dim, dim))[spread - spread[:, None] + dim - 1]
    return TruncatedOperator._adopt(out)


def analytic_commutator_defect(f, g, dim: int) -> TruncatedOperator:
    """Defect for analytic symbols f, g, where it reduces to [T_conj(f), T_g].

    T_g T_conj(f) is lower- times upper-triangular, so the dim x dim
    blocks give its leading block exactly; T_conj(f) T_g = A_f^H A_g, A_h
    the first dim columns of T_h at truncation 2 dim, is exact for
    polynomials of degree <= dim and cuts a longer one at row 2 dim.
    """
    if not (f.is_analytic() and g.is_analytic()):
        raise ValueError("analytic defect requires analytic symbols")
    big = 2 * dim
    a_f = toeplitz_exact(f, big).matrix[:, :dim]
    a_g = a_f if g is f else toeplitz_exact(g, big).matrix[:, :dim]
    m = a_f.conj().T @ a_g - a_g[:dim] @ a_f[:dim].conj().T
    return TruncatedOperator._adopt(m)
