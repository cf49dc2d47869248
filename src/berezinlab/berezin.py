"""Berezin transforms by independent routes, with boundary-decay tooling.

Five routes to the same number:

* operator route: S~(z) = <S k_z, k_z> as a finite double sum over a
  truncated matrix, trusted while the geometric tail
  (N+1) |z|^{2N} / (1-|z|^2)^2 stays below RELIABILITY_TOL;
* series route: for a monomial symbol w^j conj(w)^k with d = j-k >= 0,
  u~(z) = (1-|z|^2)^2 z^d sum_m (m+1)(m+d+1) |z|^{2m} / (j+m+1),
  truncated when the geometric tail drops below SERIES_TOL; the stopping
  point depends on |z| alone, so a symbol's terms share one table;
* exact route: the closed-form resummation of that series, usable
  arbitrarily close to the boundary;
* quadrature route: u~(z) = integral of u |k_z|^2 dA, trusted while its
  aliasing estimate stays within RELIABILITY_TOL.  The symbol is a
  polynomial, so each ring's angular sum of the density, aliases
  included, is a closed form in the density's Fourier coefficients and
  no node is visited;
* mean-value route: u~(z) = integral of u o phi_z dA, summed term by
  term from ring sums of the powers of phi_z(nodes) that u uses, with
  no node values of u formed.

Invariant Laplacians are exact: the exact route on a symbol's, or the
product rule on a truncated operator's polynomial transform.

The numerical policy the reports share is fixed here, in the constants
RELIABILITY_TOL, SERIES_TOL and DECAY_THRESHOLD.

Boundary behavior ("z -> boundary") is operationalized as sampling
along in-disk radial or nontangential paths; nothing here claims to
compute limits over any abstract boundary object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .diskgeom import _gap, disk_gap, disk_value, mobius_eval
from .operators import (TruncatedOperator, analytic_commutator_defect,
                        toeplitz_exact, unitary_uz)
from .quadrature import (BLOCK_NODES, DEFAULT_N_ANGULAR, DEFAULT_N_RADIAL,
                         DiskQuadrature, build_rule, monomial_moment)
from .symbols import BlaschkeProduct, MonomialSymbol

SERIES_MAX_TERMS = 2_000_000
# Terms per block of the series route's shared table.
SERIES_BLOCK = 512
# Bound on the geometric tail at which the series route stops summing.
SERIES_TOL = 1e-12
# Error bound at or beyond which a sample carries a reliability flag.
RELIABILITY_TOL = 1e-6
# Final-sample magnitude below which both commutator profiles count as decayed.
DECAY_THRESHOLD = 1e-3
# Entries per temporary of a transform route batched over points; weighted_sum
# puts the same cap on its power table and buffers together.
CHUNK_ENTRIES = 8 * BLOCK_NODES


@dataclass(frozen=True)
class BerezinConfig:
    """Truncation and quadrature rule size of a run."""

    truncation: int = 64
    n_radial: int = DEFAULT_N_RADIAL
    n_angular: int = DEFAULT_N_ANGULAR

    def __post_init__(self):
        if self.truncation < 8:
            raise ValueError("truncation must be at least 8")

    def rule(self) -> DiskQuadrature:
        return cached_rule(self.n_radial, self.n_angular)


DEFAULT_CONFIG = BerezinConfig()  # the CLI's and the functions' defaults read it


@lru_cache(maxsize=8)
def cached_rule(n_radial: int, n_angular: int) -> DiskQuadrature:
    return build_rule(n_radial, n_angular)


# ---------------------------------------------------------------------------
# points: one, or a 1-d array of them
# ---------------------------------------------------------------------------

# Python's number types first, so the one-point test costs a route almost nothing.
_NUMBERS = (complex, float, int, np.generic)


def _disk_points(z):
    """disk_value(z) and disk_gap(z) of one point, or (P,) arrays of both.

    A number, or anything numpy reads as a 0-d array, is one point and
    gives Python numbers.  A 1-d array is checked point by point by the
    same calls, so its entries carry the one-point bits; any point
    outside the disk raises DiskDomainError.
    """
    if not isinstance(z, _NUMBERS):
        points = np.asarray(z)
        if points.ndim == 1:
            zv = [disk_value(p) for p in points.tolist()]
            return np.array(zv, dtype=complex), np.array([_gap(v) for v in zv], dtype=float)
        if points.ndim:
            raise ValueError(f"z must be one point or a 1-d array of points, got shape {points.shape}")
    zv = disk_value(z)
    return zv, _gap(zv)


def _by_chunks(route, zv: np.ndarray, gap: np.ndarray, width: int) -> np.ndarray:
    """route(zv, gap) over slices of the (P,) arrays, as one complex array.

    A slice has at most max(1, CHUNK_ENTRIES // width) points, so a route
    whose temporaries hold width entries per point keeps each within
    CHUNK_ENTRIES.  Routes treat their points independently, so no value
    depends on the chunking.
    """
    out = np.empty(len(zv), dtype=complex)
    step = max(1, CHUNK_ENTRIES // max(width, 1))
    for start in range(0, len(zv), step):
        chunk = slice(start, start + step)
        out[chunk] = route(zv[chunk], gap[chunk])
    return out


# ---------------------------------------------------------------------------
# operator route
# ---------------------------------------------------------------------------

def _kernel_rows(zv, gap, dim: int) -> np.ndarray:
    """k_z's coefficients in one expression: a row, or a row per point of (P,) arrays."""
    if isinstance(zv, np.ndarray):
        zv, gap = zv[:, None], gap[:, None]
    n = np.arange(dim)
    return gap * np.sqrt(n + 1.0) * zv.conjugate() ** n


def kernel_coefficients(z, dim: int) -> np.ndarray:
    """Orthonormal-basis coefficients of the normalized kernel k_z.

    dim entries for one point; for a 1-d array of P points a (P, dim)
    array whose row i is bitwise the one-point row of point i.
    """
    return _kernel_rows(*_disk_points(z), dim)


def berezin_operator(op: TruncatedOperator, z):
    """<S k_z, k_z> for a truncated S, exact on the retained modes.

    A complex for one point, a complex array for a 1-d array of points.
    The kernel rows of a chunk of points come from one expression, but
    each point keeps its own ``op.matrix @ c`` and ``np.vdot``, so every
    entry is bitwise its one-point value; one batched BLAS product would
    sum in another order.
    """
    zv, gap = _disk_points(z)
    if isinstance(zv, np.ndarray):
        return _by_chunks(lambda zv, gap: [np.vdot(c, op.matrix @ c)
                                           for c in _kernel_rows(zv, gap, op.dim)],
                          zv, gap, op.dim)
    c = _kernel_rows(zv, gap, op.dim)
    return complex(np.vdot(c, op.matrix @ c))


def operator_tail_bound(dim: int, z) -> float:
    """Geometric bound on the modes dropped by the dim-truncation."""
    r2 = abs(disk_value(z)) ** 2
    return (dim + 1) * r2 ** dim / disk_gap(z) ** 2


def operator_flag(dim: int, z) -> str:
    """Flag "truncation-unreliable" unless the tail bound is below RELIABILITY_TOL."""
    return "" if operator_tail_bound(dim, z) < RELIABILITY_TOL else "truncation-unreliable"


# ---------------------------------------------------------------------------
# series route
# ---------------------------------------------------------------------------

def berezin_symbol_series(u: MonomialSymbol, z):
    """Berezin transform of a polynomial symbol by its power series.

    Linear over the symbol's terms.  How many terms are summed depends
    only on t = |z|^2, so all monomial series share one table: block by
    block, a (terms x SERIES_BLOCK) array of (m+1)(m+d+1) t^m / (max(j, k)+m+1),
    d = |j - k|, is summed along its rows, until the remaining geometric
    tail is below SERIES_TOL, or fails after SERIES_MAX_TERMS terms
    (_series_block_count).  Each sum then gets its term's (1-t)^2 z^d,
    conjugated when j < k.

    A complex for one point, a complex array for a 1-d array of points.
    The points of a chunk share each block's table, a (points x terms x
    SERIES_BLOCK) array, and each point sums its own count of blocks, so every
    entry is bitwise its one-point value.
    """
    zv, gap = _disk_points(z)
    coeffs = u.coeffs
    if not coeffs:
        return np.zeros(len(zv), dtype=complex) if isinstance(zv, np.ndarray) else 0j
    d = np.array([abs(j - k) for j, k in coeffs], dtype=float)[:, None]
    top = np.array([max(j, k) for j, k in coeffs], dtype=float)[:, None]

    if isinstance(zv, np.ndarray):
        def route(zv, gap):
            zs = zv.tolist()
            t = np.array([abs(v) ** 2 for v in zs])
            blocks = np.array([_series_block_count(x) for x in t.tolist()])
            acc = np.zeros((len(zs), len(coeffs)))
            for block in range(blocks.max()):
                live = blocks > block
                acc[live] += _series_block_sums(t[live][:, None, None], block, d, top)
            return [_series_total(coeffs, v, g, sums)
                    for v, g, sums in zip(zs, gap.tolist(), acc.tolist())]
        return _by_chunks(route, zv, gap, SERIES_BLOCK * len(coeffs))
    t = abs(zv) ** 2
    acc = np.zeros(len(coeffs))
    for block in range(_series_block_count(t)):
        acc += _series_block_sums(t, block, d, top)
    return _series_total(coeffs, zv, gap, acc.tolist())


def _series_block_sums(t, block: int, d: np.ndarray, top: np.ndarray) -> np.ndarray:
    """Row sums of block ``block`` of the shared table, per point of t's leading axis."""
    m = np.arange(block * SERIES_BLOCK, (block + 1) * SERIES_BLOCK, dtype=float)
    table = (m + 1.0) * (m + d + 1.0) * t ** m
    table /= top + m + 1.0
    return np.sum(table, axis=-1)


def _series_block_count(t: float) -> int:
    """How many SERIES_BLOCK-term blocks the series route sums at t = |z|^2."""
    m0 = SERIES_BLOCK
    # tail * (1-t)^2 <= t^{m0} (m0 (1-t) + 1) since (m+d+1)/(top+m+1) <= 1
    while t ** m0 * (m0 * (1.0 - t) + 1.0) >= SERIES_TOL:
        if m0 >= SERIES_MAX_TERMS:
            raise RuntimeError(
                f"series route did not reach tol={SERIES_TOL} within {SERIES_MAX_TERMS} terms "
                f"at |z|^2={t}; use the exact or quadrature route near the boundary")
        m0 += SERIES_BLOCK
    return m0 // SERIES_BLOCK


def _series_total(coeffs: dict, zv: complex, gap: float, sums: list) -> complex:
    """sum c (1-t)^2 z^d sums_jk over the terms, conjugated where j < k, at one point."""
    total = 0j
    for ((j, k), c), row_sum in zip(coeffs.items(), sums):
        value = gap ** 2 * zv ** abs(j - k) * row_sum
        total += c * (value.conjugate() if j < k else value)
    return total


def berezin_symbol_exact(u: MonomialSymbol, z) -> complex:
    """Closed-form resummation of the series route.

    For d = j - k >= 0 the monomial series collapses to
    z^d (1 - k(1-t) + j k (1-t)^2 Phi_j(t)) with t = |z|^2 and
    Phi_j(t) = sum_m t^m / (m+j+1); usable arbitrarily close to the
    boundary where term-by-term summation becomes slow.
    """
    zv = disk_value(z)
    t, gap = abs(zv) ** 2, disk_gap(zv)
    total = 0j
    for (j, k), c in u.coeffs.items():
        total += c * _monomial_exact(j, k, zv, t, gap)
    return total


def _monomial_exact(j: int, k: int, zv: complex, t: float, gap: float) -> complex:
    if j < k:
        return _monomial_exact(k, j, zv, t, gap).conjugate()
    base = 1.0 - k * gap
    if j > 0 and k > 0:
        base += j * k * gap ** 2 * _phi_sum(j, t, gap)
    return zv ** (j - k) * base


def _phi_sum(j: int, t: float, gap: float) -> float:
    """sum_{m>=0} t^m / (m+j+1), stable on both halves of [0, 1).

    From t = 0.5 on it is (-log(gap) less its first j terms) / t^(j+1),
    gap = 1 - t, unless subtracting those terms cancels over three
    digits; then, as below 0.5, it is summed term by term.
    """
    if t >= 0.5:
        log_sum = -math.log(gap)
        head = sum(t ** i / i for i in range(1, j + 1))
        if log_sum - head >= 1e-3 * log_sum:
            return (log_sum - head) / t ** (j + 1)
    acc, m, term = 0.0, 0, 1.0
    while True:
        contrib = term / (m + j + 1)
        acc += contrib
        if contrib < 1e-18:
            return acc
        m += 1
        term *= t


# ---------------------------------------------------------------------------
# quadrature route
# ---------------------------------------------------------------------------

def quadrature_tail_estimate(rule: DiskQuadrature, z, symbol_degree: int = 0) -> float:
    """Crude aliasing estimate for integrating u |k_z|^2 with this rule.

    The kernel density has angular modes with coefficients of size
    (l+1) |z|^l; modes at or beyond n_angular - symbol_degree alias to
    the retained ones.
    """
    r = abs(disk_value(z))
    mode = max(rule.n_angular - symbol_degree, 1)
    return disk_gap(z) * (1.0 + r) * (mode / 2.0 + 1.0) ** 2 * r ** mode


def quadrature_flag(rule: DiskQuadrature, z, symbol_degree: int = 0) -> str:
    """Flag "quadrature-unreliable" when the aliasing estimate exceeds RELIABILITY_TOL."""
    if quadrature_tail_estimate(rule, z, symbol_degree) > RELIABILITY_TOL:
        return "quadrature-unreliable"
    return ""


def _ring_sums(zv, rim, rule: DiskQuadrature, freqs: np.ndarray) -> np.ndarray:
    """w_i (1/n) sum_l |k_z(r_i e^{i theta_l})|^2 e^{i d theta_l} in closed form.

    One row per frequency d of ``freqs``, one column per ring i, for the
    point zv with disk gap rim; (P,) arrays of points and gaps add a
    leading point axis, with each point's entries bitwise its one-point
    entries.  On ring
    r the density's Fourier coefficients are gap^2 c_m with
    c_m = a^m ((1+t) + m(1-t)) / (1-t)^3, a = conj(z) r, t = |a|^2, for
    m >= 0 and conj(c_{-m}) below; the trapezoid sum keeps the c_m with
    m = -d mod n, two geometric-arithmetic series in A = a^n, which
    start at m+ = -d mod n and at M = n - m+.  1 - t is (1 - s)(1 + s),
    s = r|z|, and 1 - s as (1 - r) + r (1 - |z|^2) / (1 + |z|), which
    does not cancel next to the rim; a^m is s^m u^m, u = conj(z)/|z|,
    with u's powers as running products (exact on the axes).  The
    weight, gap^2 and 1/(1-t)^3 are folded in first, so a row is O(1)
    wherever the density is.
    """
    n, r = rule.n_angular, rule.radial_r
    m_plus = -freqs % n
    m = np.concatenate((m_plus, n - m_plus))[:, None]
    if isinstance(zv, np.ndarray):
        # points on the first axis, frequencies on the second, rings on the last
        zs = zv.tolist()
        radii = [abs(v) for v in zs]
        rho = np.array(radii)[:, None, None]
        rim = rim[:, None, None]
        unit = np.empty((len(zs), n + 1), dtype=complex)
        unit[:, 1:] = np.array([_direction(v, r) for v, r in zip(zs, radii)])[:, None]
        unit[:, 0] = 1.0
        phase = np.cumprod(unit, axis=1)
        turn, phase_m = phase[:, n, None, None], phase[:, m]
    else:
        rho = abs(zv)
        unit = np.full(n + 1, _direction(zv, rho))
        unit[0] = 1.0
        phase = np.cumprod(unit)
        turn, phase_m = phase[n], phase[m]
    s = r * rho
    one_minus_t = ((1.0 - r) + r * (rim / (1.0 + rho))) * (1.0 + s)
    big_a = s ** n * turn
    q = 1.0 / (1.0 - big_a)
    scale = rule.radial_w * (rim * rim / one_minus_t ** 3)
    slope = scale * one_minus_t * q
    base = scale * ((1.0 + s * s) * q + n * one_minus_t * big_a * q * q)
    series = np.power(s, m) * phase_m * (base + m * slope)
    return series[..., :len(freqs), :] + series[..., len(freqs):, :].conj()


def _direction(zv: complex, rho: float) -> complex:
    """conj(z) / |z|, or 1 at z = 0."""
    return complex(zv.real / rho, -zv.imag / rho) if rho else 1 + 0j


def berezin_symbol_quadrature(u: MonomialSymbol, z, rule: DiskQuadrature):
    """u~(z) = integral u(w) |k_z(w)|^2 dA(w) by the tensor rule, no nodes visited.

    ``u`` is a polynomial symbol; anything else raises TypeError.  Term
    c w^j conj(w)^k contributes c sum_i r_i^{j+k} times the ring sum at
    frequency d = j - k (_ring_sums), aliases at |d| >= n_angular
    included.  Each term's radial sum is formed before its coefficient
    multiplies it, and the sums are pairwise, in an order numpy fixes;
    no BLAS routine is called.  A complex for one point, a complex array
    for a 1-d array of points, each entry bitwise its one-point value:
    every reduction runs over the last axis of a C-contiguous array.
    """
    if not isinstance(u, MonomialSymbol):
        raise TypeError(f"expected a MonomialSymbol, got {type(u).__name__}")
    zv, gap = _disk_points(z)
    coeffs = u.coeffs
    if not coeffs:
        return np.zeros(len(zv), dtype=complex) if isinstance(zv, np.ndarray) else 0j
    column = {}
    for j, k in coeffs:
        column.setdefault(j - k, len(column))
    freqs = np.fromiter(column, dtype=int, count=len(column))
    index = [column[j - k] for j, k in coeffs]
    powers = np.fromiter((j + k for j, k in coeffs), dtype=float, count=len(coeffs))
    values = np.fromiter(coeffs.values(), dtype=complex, count=len(coeffs))

    def route(zv, gap):
        rows = np.take(_ring_sums(zv, gap, rule, freqs), index, axis=-2)
        rows *= np.power(rule.radial_r, powers[:, None])
        return (values * rows.sum(axis=-1)).sum(axis=-1)

    if isinstance(zv, np.ndarray):
        width = max((2 * len(freqs) + len(coeffs)) * rule.n_radial, rule.n_angular + 1)
        return _by_chunks(route, zv, gap, width)
    return complex(route(zv, gap))


def mean_value_transform(u: MonomialSymbol, z, rule: DiskQuadrature) -> complex:
    """u~(z) as the plain average of u over phi_z-translated coordinates.

    Substituting w = phi_z(v) in the kernel integral leaves
    integral (u o phi_z) dA, an independent route used as a cross-check.
    Each ring of the rule weighs radial_w_i, and the sum is taken term
    by term from ring sums of powers of phi_z(nodes)
    (MonomialSymbol.weighted_sum), with no node values of u.
    """
    return u.weighted_sum(rule, rule.radial_w, z)


# ---------------------------------------------------------------------------
# products of Toeplitz operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProductBerezin:
    """Berezin value of T_{u_1} ... T_{u_n} plus its covariant cross-check.

    ``value`` evaluates the transform of the matrix product at z;
    ``covariant_value`` is <T_{u_1 o phi_z} ... T_{u_n o phi_z} 1, 1>
    assembled from the conjugated matrices.  The two agree up to
    truncation, so ``residual`` is a direct error witness.
    """

    value: complex
    covariant_value: complex
    residual: float


def berezin_of_product(symbols, z, dim: int) -> ProductBerezin:
    """The transform of a Toeplitz product and its conjugated-chain cross-check.

    Both numbers read one entry of a product, so each is a vector chain,
    O(n dim^2): ``value`` is <T_1 ... T_n k_z, k_z>, k_z taken through the
    factors from the right, and ``covariant_value`` is the corner entry of
    (U_z T_1 U_z) ... (U_z T_n U_z), the row e_0 taken through each U_z,
    T_i, U_z from the left.  U_z enters as its plain dim x dim compression.
    """
    symbols = list(symbols)
    if not symbols:
        raise ValueError("need at least one symbol")
    mats = [toeplitz_exact(u, dim).matrix for u in symbols]
    zv = disk_value(z)
    kz = kernel_coefficients(zv, dim)
    column = kz
    for m in reversed(mats):
        column = m @ column
    value = complex(np.vdot(kz, column))

    uz = unitary_uz(zv, dim).matrix
    row = np.zeros(dim, dtype=complex)
    row[0] = 1.0
    for m in mats:
        row = row @ uz @ m @ uz
    covariant_value = complex(row[0])
    return ProductBerezin(value, covariant_value, abs(value - covariant_value))


# ---------------------------------------------------------------------------
# Laplacians
# ---------------------------------------------------------------------------

def invariant_laplacian_operator(op: TruncatedOperator, z) -> complex:
    """(1 - |z|^2)^2 (Delta S~)(z) for a truncated S, exact on the retained modes.

    S~(z) = P G with P = (1-t)^2, t = |z|^2, G = a^T W b, a_p = z^p,
    b = conj(a) and W_pq = M_pq sqrt((p+1)(q+1)); Delta = 4 d dbar acts by
    the product rule on P and on G's forms in a, a', b and b'.  At z = 0
    this is 8 (M_11 - M_00).
    """
    zv = disk_value(z)
    s = disk_gap(zv)
    n = np.arange(op.dim)
    weighted = op.matrix * np.sqrt(np.multiply.outer(n + 1.0, n + 1.0))
    a = zv ** n
    da = np.concatenate(([0j], n[1:] * a[:-1]))
    wb, wdb = (weighted @ np.stack([a.conjugate(), da.conjugate()], axis=1)).T
    g, dz_g, dzbar_g, mixed = a @ wb, da @ wb, a @ wdb, da @ wdb
    dd = ((2.0 - 4.0 * s) * g - 2.0 * s * (zv.conjugate() * dzbar_g + zv * dz_g)
          + s * s * mixed)
    return complex(4.0 * s * s * dd)


def laplacian_berezin_at_zero_symbol(u: MonomialSymbol) -> complex:
    """(Delta u~)(0) = 8 integral u(w) (2|w|^2 - 1) dA(w), by exact moments."""
    total = 0j
    for (j, k), c in u.coeffs.items():
        total += c * (2.0 * monomial_moment(j + 1, k + 1) - monomial_moment(j, k))
    return 8.0 * total


def invariant_laplacian_symbol(u: MonomialSymbol) -> MonomialSymbol:
    """(1 - |w|^2)^2 (Delta u)(w), whose transform is (1 - |z|^2)^2 (Delta u~)(z)."""
    return MonomialSymbol({(0, 0): 1.0, (1, 1): -2.0, (2, 2): 1.0}) * u.laplacian()


def invariant_laplacian(u: MonomialSymbol, z) -> complex:
    """The Mobius-invariant quantity (1 - |z|^2)^2 (Delta u~)(z), by the exact route."""
    return berezin_symbol_exact(invariant_laplacian_symbol(u), z)


def harmonic_defect_integral(u: MonomialSymbol, z, rule: DiskQuadrature) -> complex:
    """8 integral (u o phi_z)(w) (2|w|^2 - 1) dA(w).

    Equals (1 - |z|^2)^2 (Delta u~)(z); the vanishing of either as
    z approaches the boundary is one of the equivalent fixed-point
    criteria this laboratory probes.  2|w|^2 - 1 is constant on each
    ring of the rule, so it folds into the ring weights of
    MonomialSymbol.weighted_sum.
    """
    r = rule.radial_r
    return 8.0 * u.weighted_sum(rule, rule.radial_w * (2.0 * r * r - 1.0), z)


def factored_harmonic_invariant_laplacian(factors, z) -> complex:
    """(1 - |z|^2)^2 (Delta prod u_i)(z) for harmonic factors u_i.

    Only defined for inputs supplied in factored harmonic form; the
    Laplacian of the product is computed exactly in coefficient space.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("need at least one factor")
    for u in factors:
        if not u.is_harmonic():
            raise ValueError(f"factor {u.to_string()!r} is not harmonic")
    product = reduce(lambda a, b: a * b, factors)
    zv = disk_value(z)
    return disk_gap(zv) ** 2 * product.laplacian().evaluate(zv)


# ---------------------------------------------------------------------------
# localization
# ---------------------------------------------------------------------------

def localization_norm(u: MonomialSymbol, z) -> tuple[float, str]:
    """|| (u - u(z)) k_z ||_2 via the expanded transform identity, and its flag.

    The square expands to (|u|^2)~(z) - 2 Re(conj(u(z)) u~(z)) + |u(z)|^2,
    with both transforms by the exact route.  A square at or below eps times
    the terms' sizes gives sqrt(max(square, 0)), flagged "roundoff-floor".
    """
    zv = disk_value(z)
    u_at = u.evaluate(zv)
    mod2 = berezin_symbol_exact(u * u.conjugate(), zv)
    cross = u_at.conjugate() * berezin_symbol_exact(u, zv)
    square = mod2.real - 2.0 * cross.real + abs(u_at) ** 2
    floor = np.finfo(float).eps * (abs(mod2) + 2.0 * abs(cross) + abs(u_at) ** 2)
    return math.sqrt(max(square, 0.0)), ("roundoff-floor" if square <= floor else "")


# ---------------------------------------------------------------------------
# paths and decay profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PathSpec:
    """Approach path to the boundary point e^{i angle}.

    aperture 0 is the radial ray; otherwise samples run along the
    segment 1 - (1-r) e^{i aperture} rotated to the target, which stays
    inside a nontangential cone of that opening.
    """

    angle: float = 0.0
    aperture: float = 0.0

    def __post_init__(self):
        if not abs(self.aperture) < math.pi / 2:
            raise ValueError("aperture must lie in (-pi/2, pi/2)")

    def point(self, r: float) -> complex:
        return np.exp(1j * self.angle) * (1.0 - (1.0 - r) * np.exp(1j * self.aperture))


def dyadic_radii(k_max: int = 10) -> list[float]:
    """The default boundary-approach schedule r_k = 1 - 2^{-k}."""
    if not 1 <= k_max <= 39:
        raise ValueError("k_max must be in 1..39 to keep points inside the disk")
    return [1.0 - 0.5 ** k for k in range(1, k_max + 1)]


@dataclass(frozen=True)
class ProfileSample:
    t: float
    z: complex
    value: complex
    flag: str = ""


@dataclass(frozen=True)
class DecayProfile:
    """Samples of a scalar field along an approach path to the boundary."""

    label: str
    path: PathSpec
    samples: tuple

    def values(self) -> np.ndarray:
        return np.array([s.value for s in self.samples])

    def magnitudes(self) -> np.ndarray:
        return np.abs(self.values())

    def reliable(self) -> "DecayProfile":
        kept = tuple(s for s in self.samples if not s.flag)
        return DecayProfile(self.label, self.path, kept)

    def rows(self):
        """CSV rows: t, re(z), im(z), value_re, value_im, flag."""
        return [(s.t, s.z.real, s.z.imag, s.value.real, s.value.imag, s.flag)
                for s in self.samples]


def decay_profile(fieldfn, path: PathSpec = PathSpec(), *, radii,
                  label: str = "") -> DecayProfile:
    """Sample a field along the path at the given radii.

    A field returns a value, or a (value, flag) pair to flag its sample.
    """
    samples = []
    for r in radii:
        z = complex(path.point(r))
        value, flag = fieldfn(z), ""
        if isinstance(value, tuple):
            value, flag = value
        samples.append(ProfileSample(float(r), z, complex(value), flag))
    return DecayProfile(label, path, tuple(samples))


# ---------------------------------------------------------------------------
# commutator compactness indicator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CommutatorReport:
    """Boundary-decay evidence for the defect of an analytic pair.

    deriv_profile samples (1-|z|^2)^2 |f'(z) g'(z)|; berezin_profile
    samples |transform of the truncated defect| with truncation flags;
    zero_samples hold the derivative quantity at supplied Blaschke
    zeros.  Those zeros are interior points, so their floor and peak
    say nothing about decay at the boundary.
    """

    inputs: dict
    config: dict
    deriv_profile: DecayProfile
    berezin_profile: DecayProfile
    zero_samples: tuple
    residuals: dict
    verdict: str


def _analytic_input(h, count: int):
    """An indicator input's derivative at a point, report entry, zeros and defect
    symbol: h itself, or a Blaschke product's first ``count`` Taylor terms."""
    if isinstance(h, BlaschkeProduct):
        return (h.derivative,
                {"kind": "blaschke", "zeros": [[a.real, a.imag] for a in h.zeros]},
                h.zeros, MonomialSymbol({(n, 0): c for n, c in enumerate(h.taylor(count))}))
    if isinstance(h, MonomialSymbol):
        if not h.is_analytic():
            raise ValueError(f"symbol {h.to_string()!r} is not analytic")
        return h.dz().evaluate, {"kind": "symbol", "terms": h.to_string()}, (), h
    raise TypeError(f"unsupported indicator input {type(h).__name__}")


def commutator_compactness_indicator(f, g, radii,
                                     dim: int = DEFAULT_CONFIG.truncation,
                                     path: PathSpec = PathSpec()) -> CommutatorReport:
    """Probe whether the mixed Toeplitz commutator of (f, g) looks compact.

    Two independent boundary profiles are reported: the derivative
    quantity (1-|z|^2)^2 |f' g'| whose decay characterizes compactness
    for analytic pairs, and the Berezin transform of the truncated
    defect 2 T_{conj(f) g} - T_conj(f) T_g - T_g T_conj(f), padded by dim.
    The verdict is "decay-consistent" when both fall below DECAY_THRESHOLD
    at the final path sample; truncation flags and the reliable prefix
    are reported alongside so a flagged tail can be discounted.
    """
    df, f_entry, f_zeros, f_defect = f_input = _analytic_input(f, 2 * dim)
    dg, g_entry, g_zeros, g_defect = f_input if g is f else _analytic_input(g, 2 * dim)

    def deriv_quantity(z):
        zv = disk_value(z)
        return disk_gap(zv) ** 2 * abs(df(zv) * dg(zv))

    deriv_profile = decay_profile(deriv_quantity, path, radii=radii,
                                  label="invariant-derivative-product")

    defect = analytic_commutator_defect(f_defect, g_defect, dim)
    berezin_profile = decay_profile(
        lambda z: (abs(berezin_operator(defect, z)), operator_flag(dim, z)),
        path, radii=radii, label="defect-berezin")

    zero_samples = tuple((a, complex(deriv_quantity(a)))
                         for a in dict.fromkeys((*f_zeros, *g_zeros)))

    reliable = berezin_profile.reliable()
    final_deriv = float(deriv_profile.magnitudes()[-1])
    final_berezin = float(berezin_profile.magnitudes()[-1])
    # The verdict is a convenience taken at the final path samples; the
    # flags and the reliable prefix are reported so a flagged tail can be
    # discounted by the reader.
    decays = final_deriv < DECAY_THRESHOLD and final_berezin < DECAY_THRESHOLD

    residuals = {
        "final_deriv_quantity": final_deriv,
        "final_defect_berezin": final_berezin,
        "final_reliable_defect_berezin": (float(reliable.magnitudes()[-1])
                                          if reliable.samples else None),
        "reliable_prefix": len(reliable.samples),
    }
    if zero_samples:
        mags = [abs(v) for _, v in zero_samples]
        residuals["zero_floor"] = min(mags)
        residuals["zero_peak"] = max(mags)

    return CommutatorReport(
        inputs={"f": f_entry, "g": g_entry},
        config={"dim": dim, "threshold": DECAY_THRESHOLD, "radii": list(map(float, radii)),
                "angle": path.angle, "aperture": path.aperture},
        deriv_profile=deriv_profile,
        berezin_profile=berezin_profile,
        zero_samples=zero_samples,
        residuals=residuals,
        verdict="decay-consistent" if decays else "not-decay-consistent",
    )


# ---------------------------------------------------------------------------
# covariance of the transform under disk automorphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CovarianceCheck:
    value_residual: float
    laplacian_residual: float
    flag: str = ""


def covariance_field_check(op: TruncatedOperator, z, w) -> CovarianceCheck:
    """Residuals of S~ o phi_z = (U_z S U_z)~ and its Laplacian form.

    The first residual compares the transform of S at phi_z(w) with the
    transform of the conjugated operator at w; the second does the same
    for their invariant Laplacians, each taken exactly by
    invariant_laplacian_operator.  The image point's truncation flag
    covers both.
    """
    zv, wv = disk_value(z), disk_value(w)
    uz = unitary_uz(zv, op.dim)
    conjugated = uz @ op @ uz
    image = mobius_eval(zv, wv)

    value_residual = abs(berezin_operator(op, image)
                         - berezin_operator(conjugated, wv))
    laplacian_residual = abs(invariant_laplacian_operator(conjugated, wv)
                             - invariant_laplacian_operator(op, image))
    return CovarianceCheck(value_residual, laplacian_residual,
                           operator_flag(op.dim, image))


# ---------------------------------------------------------------------------
# reconstructing an operator block from transform samples
# ---------------------------------------------------------------------------

def fit_operator_from_berezin(fieldfn, dim: int) -> TruncatedOperator:
    """Recover a dim x dim matrix (1 <= dim <= 12) from its Berezin transform.

    ``fieldfn`` is called once, with the 360 points of a 15 x 24 polar
    grid inside |z| <= 0.8 as a 1-d array, and returns the samples.  On
    the ring of radius r, sample / (1 - r^2)^2 is
    sum_d e^{i d theta} sum_p M[p+d, p] sqrt((p+1)(p+d+1)) r^(2p+d): an FFT
    over the angles splits off each diagonal d, fitted by least squares.
    """
    if not 1 <= dim <= 12:
        raise ValueError("dim must be in 1..12 for the 24-angle grid")
    radii = np.linspace(0.1, 0.8, 15)
    angles = 2.0 * np.pi * np.arange(24) / 24
    points = np.multiply.outer(radii, np.exp(1j * angles)).ravel()
    b = np.asarray(fieldfn(points), dtype=complex).reshape(15, 24)
    gap = 1.0 - radii * radii
    modes = np.fft.fft(b / (gap * gap)[:, None], axis=1) / 24  # mode d at column d mod 24
    # r^e for e = 0 .. 2 dim - 2 as running products, the same bits on every SIMD target
    powers = np.cumprod(np.column_stack([np.ones(15)] + [radii] * (2 * dim - 2)), axis=1)
    m = np.zeros((dim, dim), dtype=complex)
    for d in range(1 - dim, dim):
        p = np.arange(max(0, -d), dim - max(0, d))
        radial = powers[:, abs(d):2 * dim - 1 - abs(d):2]  # r^(2p+d) for these p
        x, *_ = np.linalg.lstsq(radial, modes[:, d % 24], rcond=None)
        m[p + d, p] = x / np.sqrt((p + 1.0) * (p + d + 1.0))
    return TruncatedOperator(m)
