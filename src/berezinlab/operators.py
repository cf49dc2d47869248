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
"""

from __future__ import annotations

import math

import numpy as np

from .diskgeom import disk_value
from .quadrature import DiskQuadrature, check_rule_for_degree
from .symbols import BlaschkeProduct, MonomialSymbol


BASIS = "orthonormal-monomial"  # the basis the JSON wire format names


class TruncatedOperator:
    """An N x N complex matrix in the orthonormal monomial basis."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        m = np.array(matrix, dtype=complex, order="C")
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError(f"operator matrix must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("operator entries must be finite")
        m.setflags(write=False)
        self.matrix = m

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
        return TruncatedOperator(self.matrix + other.matrix)

    def __sub__(self, other):
        self._check_dim(other)
        return TruncatedOperator(self.matrix - other.matrix)

    def __matmul__(self, other):
        self._check_dim(other)
        return TruncatedOperator(self.matrix @ other.matrix)

    def __mul__(self, scalar):
        return TruncatedOperator(complex(scalar) * self.matrix)

    __rmul__ = __mul__

    def __neg__(self):
        return TruncatedOperator(-self.matrix)

    def adjoint(self) -> "TruncatedOperator":
        return TruncatedOperator(self.matrix.conj().T)

    def norm_fro(self) -> float:
        return float(np.linalg.norm(self.matrix))

    def norm_op(self) -> float:
        """Operator (spectral) norm of the truncation."""
        return float(np.linalg.norm(self.matrix, 2))

    def leading_block(self, n: int) -> "TruncatedOperator":
        if not 1 <= n <= self.dim:
            raise ValueError(f"block size {n} out of range for dim {self.dim}")
        return TruncatedOperator(self.matrix[:n, :n])

    # -- wire format ------------------------------------------------------

    def to_json_dict(self) -> dict:
        entries = [[[v.real, v.imag] for v in row] for row in self.matrix]
        return {"dim": self.dim, "basis": BASIS, "entries": entries}

    @classmethod
    def from_json_dict(cls, payload: dict) -> "TruncatedOperator":
        if payload.get("basis") != BASIS:
            raise ValueError(f"unsupported basis {payload.get('basis')!r}")
        dim = int(payload["dim"])
        entries = payload["entries"]
        if len(entries) != dim or any(len(row) != dim for row in entries):
            raise ValueError("entry table does not match declared dim")
        m = np.array([[complex(re, im) for re, im in row] for row in entries])
        return cls(m)


def commutator(a: TruncatedOperator, b: TruncatedOperator) -> TruncatedOperator:
    return a @ b - b @ a


def toeplitz_exact(u: MonomialSymbol, dim: int) -> TruncatedOperator:
    """Compression of the Toeplitz operator with polynomial symbol u.

    Each monomial w^j conj(w)^k fills the single diagonal q - p = j - k;
    the result is linear over the symbol's terms.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    m = np.zeros((dim, dim), dtype=complex)
    for offset, lo, values in _toeplitz_diagonals(u, dim):
        p = np.arange(lo, lo + len(values))
        m[p + offset, p] += values
    return TruncatedOperator(m)


def _toeplitz_diagonals(u: MonomialSymbol, dim: int):
    """Yield (offset, p_lo, entries): entries[i] is T_u[p_lo + i + offset, p_lo + i]."""
    for (j, k), c in u.coeffs.items():
        offset = j - k
        p_lo = max(0, -offset)
        p_hi = min(dim, dim - offset)
        if p_lo >= p_hi:
            continue
        p = np.arange(p_lo, p_hi)
        q = p + offset
        # single sqrt of the product keeps perfect squares exact (u = 1
        # really is the identity matrix)
        yield offset, p_lo, c * np.sqrt((p + 1.0) * (q + 1.0)) / (j + p + 1.0)


def toeplitz_quadrature(f, dim: int, rule: DiskQuadrature,
                        degree_hint: int = 0, warn: bool = True) -> TruncatedOperator:
    """Compression of T_f for a pointwise symbol evaluator, by quadrature.

    Entries <f e_p, e_q> are angular Fourier coefficients times radial
    moments, so the tensor rule reduces to one FFT per radius followed
    by radial dot products per diagonal.  ``degree_hint`` is the caller's
    bound on the symbol's monomial degree, used (with 2*(dim-1) for the
    basis) to check the rule against the moment oracle.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if warn:
        check_rule_for_degree(rule, 2 * (dim - 1) + degree_hint)

    grid = rule.node_grid()
    if callable(f):
        values = np.asarray(f(grid.ravel()), dtype=complex).reshape(grid.shape)
    else:
        values = np.asarray(f, dtype=complex).reshape(grid.shape)

    # hat_f[i, l] ~ (1/2pi) int f(r_i e^{i th}) e^{-i l th} dth
    hat_f = np.fft.fft(values, axis=1) / rule.n_angular
    powers = rule.radial_r[:, None] ** np.arange(0, 2 * dim - 1)[None, :]
    weighted = rule.radial_w[:, None] * powers

    m = np.zeros((dim, dim), dtype=complex)
    scale = np.sqrt(np.arange(1, dim + 1, dtype=float))
    for offset in range(-(dim - 1), dim):
        fourier = hat_f[:, offset % rule.n_angular]
        p = np.arange(max(0, -offset), min(dim, dim - offset))
        q = p + offset
        m[q, p] = scale[p] * scale[q] * (fourier @ weighted[:, 2 * p + offset])
    return TruncatedOperator(m)


def toeplitz_analytic(coeffs: np.ndarray, dim: int) -> TruncatedOperator:
    """Compression of multiplication by an analytic g from its Taylor series.

    <g e_p, e_q> = sqrt((p+1)/(q+1)) * c_{q-p} for q >= p, zero above the
    diagonal; exact whenever the series is supplied out to degree dim-1.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    m = np.zeros((dim, dim), dtype=complex)
    root = np.sqrt(np.arange(1, dim + 1, dtype=float))
    for offset in range(0, min(dim, len(coeffs))):
        if coeffs[offset] == 0:
            continue
        p = np.arange(0, dim - offset)
        m[p + offset, p] = coeffs[offset] * root[p] / root[p + offset]
    return TruncatedOperator(m)


def unitary_uz(z, dim: int) -> TruncatedOperator:
    """Compression of the self-adjoint unitary U_z f = (f o phi_z) phi_z'.

    Column p holds the first ``dim`` orthonormal-basis coefficients of
    sqrt(p+1) * phi_z^p * phi_z'.  They come from the exact recurrence
    for multiplication by the rational phi_z (see ``_uz_columns``), in
    O(dim^2) operations whatever |z| is.  U_z exchanges the constants
    with -k_z and squares to the identity; both survive compression up
    to geometric tails.  U_z is Hermitian and U_conj(z) its entrywise
    conjugate, so U_conj(z)'s stored columns are U_z's rows: no transpose.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return TruncatedOperator(_uz_columns(disk_value(z).conjugate(), dim, dim).T)


def _uz_columns(z, rows: int, cols: int) -> np.ndarray:
    """The first ``cols`` columns of U_z, each cut to its first ``rows`` entries.

    Let D[n, p] be the Taylor coefficient of w^n in phi_z^p * phi_z'.
    Column 0 is the series of phi_z' = (|z|^2 - 1) / (1 - c w)^2 with
    c = conj(z), and (1 - c w) * phi_z^p phi_z' = (z - w) * phi_z^(p-1) phi_z'
    gives, with D[-1, p] = 0, one first-order solve per column:

        D[n, p] = c D[n-1, p] + x[n],   x[n] = z D[n, p-1] - D[n-1, p-1].

    It takes a fixed number of numpy calls whatever |z| is.  When
    c^8 < 1e-18 it is the product (1 + c S)(1 + c^2 S^2)(1 + c^4 S^4), S
    the shift, cut where c^(2^j) < 1e-18; otherwise the scaled prefix sum
    y[s+i] = c^i (cumsum(c^-i x) + c y[s-1]) over blocks of length B with
    |c|^-B <= 1e290, all in one call.  Blocks are cut only when the rows
    exceed one, so each is over B/2 long and c^B < 1e-140: the carry goes
    one block deep.  Entries with n < rows read only smaller n, so the
    cut at ``rows`` is exact.  Column p is row p of a (cols, rows) array
    padded to whole blocks; its transposed view is returned, scaled in
    place by sqrt(p+1) / sqrt(n+1).
    """
    zv = disk_value(z)
    zc = zv.conjugate()
    t = abs(zv) ** 2

    steps = []  # doubling factors (shift, conj(z)**shift)
    s, c = 1, zc
    while s < rows and abs(c) >= 1e-18:
        steps.append((s, c))
        s, c = 2 * s, c * c
    prefix = len(steps) > 3  # up to three factors cost less than a prefix sum
    blocks = -(-rows // int(290.0 / -math.log10(abs(zv)))) if prefix else 1
    width = -(-rows // blocks)

    m = np.empty((cols, blocks, width), dtype=complex)
    flat = m.reshape(cols, blocks * width)
    flat[0] = (t - 1.0) * np.arange(1, flat.shape[1] + 1) * zc ** np.arange(flat.shape[1])
    if prefix:
        power = np.multiply.accumulate(np.r_[1.0, np.full(width - 1, zc)])
        inverse = 1.0 / power
    for p in range(1, cols):
        prev, y = flat[p - 1], flat[p]
        np.multiply(prev, zv, out=y)
        np.subtract(y[1:], prev[:-1], out=y[1:])
        if not prefix:
            for s, c in steps:
                y[s:] += c * y[:-s]
            continue
        grid = m[p]
        np.multiply(grid, inverse, out=grid)
        np.add.accumulate(grid, axis=1, out=grid)
        if blocks > 1:
            grid[1:] += zc * power[-1] * grid[:-1, -1:]
        np.multiply(grid, power, out=grid)
    m = flat[:, :rows]
    # scale the real and imaginary parts as floats: (x * s) / s == x for
    # x = +-1, so the diagonal of U_0 stays exactly -1, 1, -1, ...
    parts = m.view(float)
    parts *= np.sqrt(np.arange(1, cols + 1, dtype=float))[:, None]
    parts /= np.repeat(np.sqrt(np.arange(1, rows + 1, dtype=float)), 2)
    return m.T


# Largest working size (rows of the U_z column block) covariant_toeplitz
# will build; beyond it the route refuses rather than compress early.
COVARIANT_MAX_ROWS = 4096


def _covariant_rows(r: float, dim: int) -> int:
    """Rows past which every one of the first ``dim`` U_z columns is negligible.

    Column p spreads over modes up to p(1+r)/(1-r) with r = |z|, and its
    tail then decays like r^n; the size doubles the spread and adds the
    steps r^n needs to reach 1e-16.  U_0 is diagonal, so r = 0 needs no
    extra rows.
    """
    if r == 0.0:
        return dim
    spread = math.ceil(dim * (1.0 + r) / (1.0 - r))
    return 2 * spread + math.ceil(math.log(1e-16) / math.log(r))


def covariant_toeplitz(u: MonomialSymbol, z, dim: int) -> TruncatedOperator:
    """T with symbol u o phi_z via the covariance route U_z T_u U_z.

    This is the preferred finite-dimensional realization of composed
    symbols; the composition itself is rational and never materializes.
    Unlike plain compression, which multiplies dim x dim truncations of
    U_z and T_u, the route compresses from a faithful working size: it
    builds the first ``dim`` columns V of U_z out to M rows, chosen so
    their tails beyond M are negligible, and returns V^H (T_u V) with
    T_u applied by its diagonals, each one slice-times-slice product over
    the stored columns.  Raises ValueError, before building
    anything, when M would exceed COVARIANT_MAX_ROWS.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    zv = disk_value(z)
    rows = _covariant_rows(abs(zv), dim)
    if rows > COVARIANT_MAX_ROWS:
        raise ValueError(
            f"covariant_toeplitz at |z| = {abs(zv):.6g}, dim = {dim} needs a "
            f"working size of {rows} rows, above the ceiling of "
            f"{COVARIANT_MAX_ROWS}")
    v = _uz_columns(zv, rows, dim).T  # row c is column c of U_z
    tv = np.zeros_like(v)
    for offset, lo, values in _toeplitz_diagonals(u, rows):
        n = len(values)
        tv[:, lo + offset:lo + offset + n] += values * v[:, lo:lo + n]
    return TruncatedOperator(v.conj() @ tv.T)


def semicommutator_defect(u: MonomialSymbol, v: MonomialSymbol,
                          dim: int) -> TruncatedOperator:
    """The defect 2*T_{uv} - T_u T_v - T_v T_u at truncation ``dim``.

    For bounded harmonic u, v this finite matrix represents the
    Hankel-product combination whose Berezin decay at the boundary
    signals compactness; Hankel operators are never built explicitly.
    """
    t_u = toeplitz_exact(u, dim)
    t_v = toeplitz_exact(v, dim)
    t_uv = toeplitz_exact(u * v, dim)
    return 2.0 * t_uv - t_u @ t_v - t_v @ t_u


def analytic_commutator_defect(f, g, dim: int, pad: int | None = None) -> TruncatedOperator:
    """Defect for analytic f, g, where it reduces to [T_conj(f), T_g].

    Built at dimension dim + pad and cropped, so products see the part
    of the infinite matrices that feeds the leading block.  For
    polynomial symbols any pad >= deg makes the crop exact; Blaschke
    inputs have slowly decaying Taylor tails and keep a truncation
    error that shrinks as pad grows.
    """
    if pad is None:
        pad = dim
    if pad < 0:
        raise ValueError("pad must be >= 0")

    def taylor_of(h, count):
        if isinstance(h, BlaschkeProduct):
            return h.taylor(count)
        if isinstance(h, MonomialSymbol):
            if not h.is_analytic():
                raise ValueError("analytic defect requires analytic symbols")
            coeffs = np.zeros(count, dtype=complex)
            for (j, _), c in h.coeffs.items():
                if j < count:
                    coeffs[j] = c
            return coeffs
        raise TypeError(f"unsupported analytic symbol {type(h).__name__}")

    big = dim + pad
    t_f = toeplitz_analytic(taylor_of(f, big), big)
    t_g = toeplitz_analytic(taylor_of(g, big), big)
    return commutator(t_f.adjoint(), t_g).leading_block(dim)
