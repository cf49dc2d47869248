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
        return {"dim": self.dim, "basis": "orthonormal-monomial", "entries": entries}

    @classmethod
    def from_json_dict(cls, payload: dict) -> "TruncatedOperator":
        if payload.get("basis") != "orthonormal-monomial":
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
    for q, p, values in _toeplitz_diagonals(u, dim):
        m[q, p] += values
    return TruncatedOperator(m)


def _toeplitz_diagonals(u: MonomialSymbol, dim: int):
    """Yield (q, p, entries) for each term's diagonal of T_u's compression."""
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
        yield q, p, c * np.sqrt((p + 1.0) * (q + 1.0)) / (j + p + 1.0)


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
    to geometric tails.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return TruncatedOperator(_uz_columns(z, dim, dim))


def _uz_columns(z, rows: int, cols: int) -> np.ndarray:
    """The first ``cols`` columns of U_z, each cut to its first ``rows`` entries.

    Let D[n, p] be the Taylor coefficient of w^n in phi_z^p * phi_z'.
    Column 0 is the series of phi_z' = (|z|^2 - 1) / (1 - conj(z) w)^2,
    and (1 - conj(z) w) * phi_z^p phi_z' = (z - w) * phi_z^(p-1) phi_z'
    gives, with D[-1, p] = 0,

        D[n, p] = conj(z) D[n-1, p] + z D[n, p-1] - D[n-1, p-1].

    Every entry reads only antidiagonals n+p-1 and n+p-2, so the sweep
    runs over antidiagonals with three rolling buffers of length
    ``cols`` and writes each one into the output through a strided view.
    Entries with n < rows read only entries with smaller n, so the cut
    at ``rows`` is exact.  The cost is O(rows * cols) operations and
    O(cols) memory beyond the output; the orthonormal scaling
    sqrt(p+1) / sqrt(n+1) is applied in place at the end.
    """
    zv = disk_value(z)
    zc = zv.conjugate()
    t = abs(zv) ** 2

    m = np.empty((rows, cols), dtype=complex)
    m[:, 0] = (t - 1.0) * np.arange(1, rows + 1) * zc ** np.arange(0, rows)
    if cols > 1:
        flat = m.reshape(-1)
        step = cols - 1
        # prev2, prev1, cur: antidiagonals k-2, k-1, k indexed by p; an
        # index not yet reached by the sweep still holds D[-1, p] = 0.
        # term holds z * prev1, so the sweep allocates nothing per step.
        prev2, prev1, cur, term = np.zeros((4, cols), dtype=complex)
        prev1[0] = m[0, 0]
        for k in range(1, rows + cols - 1):
            lo, hi = max(1, k - rows + 1), min(cols - 1, k) + 1
            if k < rows:
                cur[0] = m[k, 0]
            out, shifted = cur[lo:hi], term[:hi - lo]
            np.multiply(prev1[lo:hi], zc, out=out)
            np.multiply(prev1[lo - 1:hi - 1], zv, out=shifted)
            out += shifted
            out -= prev2[lo - 1:hi - 1]
            # entry (k - p, p) sits at flat index k*cols - p*step >= 1;
            # stop one short of the last, since a negative stop would wrap
            first = (k - lo) * cols + lo
            last = first - (hi - lo - 1) * step
            flat[first:last - 1:-step] = out
            prev2, prev1, cur = prev1, cur, prev2
    # scale the real and imaginary parts as floats: (x * s) / s == x for
    # x = +-1, so the diagonal of U_0 stays exactly -1, 1, -1, ...
    parts = m.view(float).reshape(rows, cols, 2)
    parts *= np.sqrt(np.arange(1, cols + 1, dtype=float))[:, None]
    parts /= np.sqrt(np.arange(1, rows + 1, dtype=float))[:, None, None]
    return m


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
    T_u applied by its diagonals.  Raises ValueError, before building
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
    v = _uz_columns(zv, rows, dim)
    tv = np.zeros_like(v)
    for q, p, values in _toeplitz_diagonals(u, rows):
        tv[q] += values[:, None] * v[p]
    return TruncatedOperator(v.conj().T @ tv)


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
