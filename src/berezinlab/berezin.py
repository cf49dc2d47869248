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
  aliasing estimate stays within RELIABILITY_TOL.  The density is one
  real grid over the rule's rings and angles, formed without
  cancellation; a polynomial symbol is never evaluated on the nodes but
  contracted with the density's per-ring angular Fourier sums;
* mean-value route: u~(z) = integral of u o phi_z dA, summed over
  fixed slices of the rule's nodes.

The numerical policy the reports share is fixed here, in the constants
FD_STEP, RELIABILITY_TOL, SERIES_TOL and DECAY_THRESHOLD.

Boundary behavior ("z -> boundary") is operationalized as sampling
along in-disk radial or nontangential paths; nothing here claims to
compute limits over any abstract boundary object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .diskgeom import DISK_RADIUS_MAX, DiskDomainError, disk_value, mobius_eval
from .operators import (TruncatedOperator, analytic_commutator_defect,
                        toeplitz_exact, unitary_uz)
from .quadrature import (DEFAULT_N_ANGULAR, DEFAULT_N_RADIAL, DiskQuadrature,
                         build_rule, monomial_moment)
from .symbols import BLOCK_NODES, BlaschkeProduct, MonomialSymbol

SERIES_MAX_TERMS = 2_000_000
# Bound on the geometric tail at which the series route stops summing.
SERIES_TOL = 1e-12
# Relative step h0 of the five-point Laplacian, h = h0 * (1 - |z|).
FD_STEP = 1e-3
# Error bound at or beyond which a sample carries a reliability flag.
RELIABILITY_TOL = 1e-6
# Final-sample magnitude below which both commutator profiles count as decayed.
DECAY_THRESHOLD = 1e-3


class StencilOutOfDiskError(DiskDomainError):
    """A finite-difference stencil point left the allowed disk."""


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
# operator route
# ---------------------------------------------------------------------------

def kernel_coefficients(z, dim: int) -> np.ndarray:
    """Orthonormal-basis coefficients of the normalized kernel k_z."""
    zv = disk_value(z)
    n = np.arange(dim)
    return (1.0 - abs(zv) ** 2) * np.sqrt(n + 1.0) * zv.conjugate() ** n


def berezin_operator(op: TruncatedOperator, z) -> complex:
    """<S k_z, k_z> for a truncated S, exact on the retained modes."""
    c = kernel_coefficients(z, op.dim)
    return complex(np.vdot(c, op.matrix @ c))


def operator_tail_bound(dim: int, z) -> float:
    """Geometric bound on the modes dropped by the dim-truncation."""
    r2 = abs(disk_value(z)) ** 2
    return (dim + 1) * r2 ** dim / (1.0 - r2) ** 2


def operator_flag(dim: int, z) -> str:
    """Flag "truncation-unreliable" unless the tail bound is below RELIABILITY_TOL."""
    return "" if operator_tail_bound(dim, z) < RELIABILITY_TOL else "truncation-unreliable"


# ---------------------------------------------------------------------------
# series route
# ---------------------------------------------------------------------------

def berezin_symbol_series(u: MonomialSymbol, z) -> complex:
    """Berezin transform of a polynomial symbol by its power series.

    Linear over the symbol's terms.  How many terms are summed depends
    only on t = |z|^2, so all monomial series share one table: block by
    block, a (terms x 512) array of (m+1)(m+d+1) t^m / (max(j, k)+m+1),
    d = |j - k|, is summed along its rows, until the remaining geometric
    tail is below SERIES_TOL, or fails after SERIES_MAX_TERMS terms.
    Each sum then gets its term's (1-t)^2 z^d, conjugated when j < k.
    """
    zv = disk_value(z)
    t = abs(zv) ** 2
    coeffs = u.coeffs
    if not coeffs:
        return 0j
    d = np.array([abs(j - k) for j, k in coeffs], dtype=float)[:, None]
    top = np.array([max(j, k) for j, k in coeffs], dtype=float)[:, None]
    acc = np.zeros(len(coeffs))
    m0 = 0
    while True:
        m = np.arange(m0, m0 + 512, dtype=float)
        acc += np.sum((m + 1.0) * (m + d + 1.0) * t ** m / (top + m + 1.0), axis=1)
        m0 += 512
        # tail * (1-t)^2 <= t^{m0} (m0 (1-t) + 1) since (m+d+1)/(top+m+1) <= 1
        if t ** m0 * (m0 * (1.0 - t) + 1.0) < SERIES_TOL:
            break
        if m0 >= SERIES_MAX_TERMS:
            raise RuntimeError(
                f"series route did not reach tol={SERIES_TOL} within {SERIES_MAX_TERMS} terms "
                f"at |z|^2={t}; use the exact or quadrature route near the boundary")
    total = 0j
    for ((j, k), c), sums in zip(coeffs.items(), acc.tolist()):
        value = (1.0 - t) ** 2 * zv ** abs(j - k) * sums
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
    t = abs(zv) ** 2
    total = 0j
    for (j, k), c in u.coeffs.items():
        total += c * _monomial_exact(j, k, zv, t)
    return total


def _monomial_exact(j: int, k: int, zv: complex, t: float) -> complex:
    if j < k:
        return _monomial_exact(k, j, zv, t).conjugate()
    base = 1.0 - k * (1.0 - t)
    if j > 0 and k > 0:
        base += j * k * (1.0 - t) ** 2 * _phi_sum(j, t)
    return zv ** (j - k) * base


def _phi_sum(j: int, t: float) -> float:
    """sum_{m>=0} t^m / (m+j+1), stable on both halves of [0, 1).

    From t = 0.5 on it is (-log(1-t) less its first j terms) / t^(j+1),
    unless subtracting those terms cancels over three digits; then, as
    below 0.5, it is summed term by term.
    """
    if t >= 0.5:
        log_sum = -math.log1p(-t)
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
    if r == 0.0:
        return 0.0
    mode = max(rule.n_angular - symbol_degree, 1)
    t = r * r
    return (1.0 - t) ** 2 * (mode / 2.0 + 1.0) ** 2 * r ** mode / (1.0 - r)


def quadrature_flag(rule: DiskQuadrature, z, symbol_degree: int = 0) -> str:
    """Flag "quadrature-unreliable" when the aliasing estimate exceeds RELIABILITY_TOL."""
    if quadrature_tail_estimate(rule, z, symbol_degree) > RELIABILITY_TOL:
        return "quadrature-unreliable"
    return ""


def _kernel_density_grid(z, rule: DiskQuadrature) -> np.ndarray:
    """|k_z|^2 on the rule's nodes as a real (n_radial, n_angular) grid.

    With s = r|z| the denominator is formed as
    |1 - conj(z) r e^{i theta}|^2 = (1 - s)^2 + 4 s sin^2((theta - arg z)/2),
    and 1 - s as (1 - r) + r (1 - |z|): no term cancels, where
    1 + s^2 - 2 s cos(theta - arg z) loses digits next to the rim.
    """
    zv = disk_value(z)
    rho = abs(zv)
    r = rule.radial_r
    s = r * rho
    gap = (1.0 - r) + r * (1.0 - rho)
    # (theta - arg z) / 2 in units of pi, reduced to [-1/2, 1/2]
    turns = np.arange(rule.n_angular) / rule.n_angular - np.angle(zv) / (2.0 * np.pi)
    turns -= np.round(turns)
    grid = np.multiply.outer(4.0 * s, np.sin(np.pi * turns) ** 2)
    grid += (gap * gap)[:, None]
    grid *= grid
    return np.divide(((1.0 - rho) * (1.0 + rho)) ** 2, grid, out=grid)


def _contract_by_frequency(u: MonomialSymbol, density: np.ndarray,
                           rule: DiskQuadrature) -> complex:
    """The rule's sum of u |k_z|^2, one angular frequency d = j - k at a time.

    On ring i, sum_jk c_jk r_i^{j+k} e^{i d theta_l} against the density
    reduces to the ring's Fourier sums sum_l rho_il e^{i d theta_l}; the
    same finite sum as on the nodes, so aliasing at |d| >= n_angular is
    unchanged.
    """
    n = rule.n_angular
    radial = {}
    for (j, k), c in u.coeffs.items():
        radial[j - k] = radial.get(j - k, 0.0) + c * rule.radial_r ** (j + k)
    if not radial:
        return 0j
    freqs = np.fromiter(radial, dtype=int, count=len(radial))
    phase = (2.0 * np.pi / n) * (np.multiply.outer(np.arange(n), freqs) % n)
    fourier = density @ np.cos(phase) + 1j * (density @ np.sin(phase))
    polys = np.stack(list(radial.values()), axis=1)
    return complex(np.sum(fourier * polys * (rule.radial_w / n)[:, None]))


def berezin_symbol_quadrature(u, z, rule: DiskQuadrature) -> complex:
    """u~(z) = integral u(w) |k_z(w)|^2 dA(w) by the tensor rule.

    ``u`` is a polynomial symbol, contracted with the density frequency by
    frequency, or an array of its values on ``rule.nodes`` (handy when many
    z share one symbol), met with the real density in real arithmetic;
    anything else raises TypeError.  Both branches share one density grid,
    so each cross-checks the other.
    """
    density = _kernel_density_grid(z, rule)
    if isinstance(u, MonomialSymbol):
        return _contract_by_frequency(u, density, rule)
    if not (isinstance(u, np.ndarray) and u.shape == rule.nodes.shape):
        raise TypeError(f"expected a MonomialSymbol or an array of {rule.nodes.size}"
                        f" node values, got {type(u).__name__}")
    density *= (rule.radial_w / rule.n_angular)[:, None]
    weighted = density.ravel()
    return complex(np.dot(u.real, weighted), np.dot(u.imag, weighted))


def _integrate_by_blocks(rule: DiskQuadrature, integrand) -> complex:
    """rule.integrate(integrand), summed over slices of BLOCK_NODES nodes."""
    total = 0j
    for start in range(0, rule.nodes.size, BLOCK_NODES):
        block = slice(start, start + BLOCK_NODES)
        total += np.dot(rule.weights[block], integrand(rule.nodes[block]))
    return complex(total)


def mean_value_transform(u: MonomialSymbol, z, rule: DiskQuadrature) -> complex:
    """u~(z) as the plain average of u over phi_z-translated coordinates.

    Substituting w = phi_z(v) in the kernel integral leaves
    integral (u o phi_z) dA, an independent route used as a cross-check.
    It is summed over slices of BLOCK_NODES nodes.
    """
    return _integrate_by_blocks(rule, u.compose_mobius_evaluator(z))


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
    symbols = list(symbols)
    if not symbols:
        raise ValueError("need at least one symbol")
    mats = [toeplitz_exact(u, dim) for u in symbols]
    product = reduce(lambda a, b: a @ b, mats)
    value = berezin_operator(product, z)

    uz = unitary_uz(z, dim)
    conjugated = [uz @ m @ uz for m in mats]
    chain = reduce(lambda a, b: a @ b, conjugated)
    covariant_value = complex(chain.matrix[0, 0])
    return ProductBerezin(value, covariant_value, abs(value - covariant_value))


# ---------------------------------------------------------------------------
# Laplacians
# ---------------------------------------------------------------------------

def laplacian_fd(fieldfn, z) -> complex:
    """Five-point Laplacian with step h = FD_STEP * (1 - |z|)."""
    zv = disk_value(z)
    h = FD_STEP * (1.0 - abs(zv))
    pts = (zv + h, zv - h, zv + 1j * h, zv - 1j * h)
    for p in pts:
        if abs(p) > DISK_RADIUS_MAX:
            raise StencilOutOfDiskError(
                f"stencil point {p!r} leaves the disk (|z|={abs(zv):.6f}, h={h:.2e})")
    vals = [complex(fieldfn(p)) for p in pts]
    return (sum(vals) - 4.0 * complex(fieldfn(zv))) / h ** 2


def laplacian_berezin_at_zero_operator(op: TruncatedOperator) -> complex:
    """(Delta S~)(0) from the two lowest diagonal matrix entries.

    In the orthonormal basis the quadratic coefficient of S~ at the
    origin gives (Delta S~)(0) = 8 <S e_1, e_1> - 8 <S e_0, e_0>.
    """
    if op.dim < 2:
        raise ValueError("need dim >= 2 to read off the Laplacian at 0")
    return 8.0 * complex(op.matrix[1, 1] - op.matrix[0, 0])


def laplacian_berezin_at_zero_symbol(u: MonomialSymbol) -> complex:
    """(Delta u~)(0) = 8 integral u(w) (2|w|^2 - 1) dA(w), by exact moments."""
    total = 0j
    for (j, k), c in u.coeffs.items():
        total += c * (2.0 * monomial_moment(j + 1, k + 1) - monomial_moment(j, k))
    return 8.0 * total


def invariant_laplacian(fieldfn, z) -> complex:
    """The Mobius-invariant quantity (1 - |z|^2)^2 (Delta f)(z)."""
    zv = disk_value(z)
    return (1.0 - abs(zv) ** 2) ** 2 * laplacian_fd(fieldfn, zv)


def harmonic_defect_integral(u: MonomialSymbol, z, rule: DiskQuadrature) -> complex:
    """8 integral (u o phi_z)(w) (2|w|^2 - 1) dA(w).

    Equals (1 - |z|^2)^2 (Delta u~)(z); the vanishing of either as
    z approaches the boundary is one of the equivalent fixed-point
    criteria this laboratory probes.
    """
    composed = u.compose_mobius_evaluator(z)

    def integrand(w):
        return composed(w) * (2.0 * np.abs(w) ** 2 - 1.0)

    return 8.0 * _integrate_by_blocks(rule, integrand)


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
            raise ValueError("all factors must be harmonic symbols")
    product = reduce(lambda a, b: a * b, factors)
    zv = disk_value(z)
    return (1.0 - abs(zv) ** 2) ** 2 * product.laplacian().evaluate(zv)


# ---------------------------------------------------------------------------
# localization
# ---------------------------------------------------------------------------

def localization_norm(u: MonomialSymbol, z) -> float:
    """|| (u - u(z)) k_z ||_2 via the expanded transform identity.

    The square expands to (|u|^2)~(z) - 2 Re(conj(u(z)) u~(z)) + |u(z)|^2,
    with both transforms by the exact route.
    """
    zv = disk_value(z)
    u_at = u.evaluate(zv)
    mod2 = berezin_symbol_exact(u * u.conjugate(), zv)
    u_tilde = berezin_symbol_exact(u, zv)
    square = mod2.real - 2.0 * (u_at.conjugate() * u_tilde).real + abs(u_at) ** 2
    if square < -1e-10:
        raise ArithmeticError(f"localization square came out {square}, below roundoff floor")
    return math.sqrt(max(square, 0.0))


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


def decay_profile(fieldfn, path: PathSpec = PathSpec(), radii=None,
                  flag_fn=None, label: str = "") -> DecayProfile:
    """Sample a field along the path at the given radii (dyadic default)."""
    if radii is None:
        radii = dyadic_radii()
    samples = []
    for r in radii:
        z = complex(path.point(r))
        flag = flag_fn(z) if flag_fn is not None else ""
        value = complex(fieldfn(z))
        samples.append(ProfileSample(float(r), z, value, flag))
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


def _analytic_derivative(f):
    if isinstance(f, BlaschkeProduct):
        return lambda z: f.derivative(z)
    if isinstance(f, MonomialSymbol):
        if not f.is_analytic():
            raise ValueError("indicator inputs must be analytic")
        df = f.dz()
        return lambda z: df.evaluate(z)
    raise TypeError(f"unsupported indicator input {type(f).__name__}")


def _describe(f) -> dict:
    if isinstance(f, BlaschkeProduct):
        return {"kind": "blaschke", "zeros": [[a.real, a.imag] for a in f.zeros]}
    return {"kind": "symbol", "terms": f.to_string()}


def commutator_compactness_indicator(f, g, radii=None,
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
    if radii is None:
        radii = dyadic_radii()
    df, dg = _analytic_derivative(f), _analytic_derivative(g)

    def deriv_quantity(z):
        zv = disk_value(z)
        return (1.0 - abs(zv) ** 2) ** 2 * abs(df(zv) * dg(zv))

    deriv_profile = decay_profile(deriv_quantity, path, radii,
                                  label="invariant-derivative-product")

    defect = analytic_commutator_defect(f, g, dim)
    berezin_profile = decay_profile(
        lambda z: abs(berezin_operator(defect, z)),
        path, radii, flag_fn=lambda z: operator_flag(dim, z), label="defect-berezin")

    zeros = []
    for h in (f, g):
        if isinstance(h, BlaschkeProduct):
            zeros.extend(h.zeros)
    zero_samples = tuple((a, complex(deriv_quantity(a)))
                         for a in dict.fromkeys(zeros))

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
        inputs={"f": _describe(f), "g": _describe(g)},
        config={"dim": dim, "pad": dim,
                "threshold": DECAY_THRESHOLD, "radii": list(map(float, radii)),
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
    transform of the conjugated operator at w; the second compares the
    invariant Laplacian on both sides of the change of variables,
    using finite differences.
    """
    zv, wv = disk_value(z), disk_value(w)
    uz = unitary_uz(zv, op.dim)
    conjugated = uz @ op @ uz
    image = mobius_eval(zv, wv)

    value_residual = abs(berezin_operator(op, image)
                         - berezin_operator(conjugated, wv))

    left = invariant_laplacian(lambda p: berezin_operator(op, mobius_eval(zv, p)), wv)
    right = invariant_laplacian(lambda p: berezin_operator(op, p), image)
    laplacian_residual = abs(left - right)

    # the widest stencil point around the image decides the flag
    worst = abs(image) + FD_STEP * (1.0 - abs(image))
    flag = operator_flag(op.dim, min(worst, DISK_RADIUS_MAX) + 0j)
    return CovarianceCheck(value_residual, laplacian_residual, flag)


# ---------------------------------------------------------------------------
# reconstructing an operator block from transform samples
# ---------------------------------------------------------------------------

def fit_operator_from_berezin(fieldfn, dim: int) -> TruncatedOperator:
    """Recover a dim x dim matrix from samples of its Berezin transform.

    Solves the least-squares inversion of the transform's double power
    series on a 15 x 24 polar grid inside |z| <= 0.8; this reconstructs
    the matrix that generated the samples, numerically witnessing that
    the transform determines the operator.
    """
    # Per angular harmonic the fit sees radial powers up to twice the
    # matrix dimension plus the kernel-prefactor degree, so the radius
    # count must comfortably exceed the fitted dimension.
    angles = 2.0 * np.pi * np.arange(24) / 24
    points = np.multiply.outer(np.linspace(0.1, 0.8, 15), np.exp(1j * angles)).ravel()
    b = np.array([complex(fieldfn(p)) for p in points])

    n = np.arange(dim)
    root = np.sqrt(n + 1.0)
    zq = points[:, None] ** n[None, :] * root[None, :]          # z^q sqrt(q+1)
    zp = np.conj(points)[:, None] ** n[None, :] * root[None, :]  # conj(z)^p sqrt(p+1)
    prefactor = (1.0 - np.abs(points) ** 2) ** 2
    design = prefactor[:, None] * (zq[:, :, None] * zp[:, None, :]).reshape(len(points), -1)

    coeffs, *_ = np.linalg.lstsq(design, b, rcond=None)
    return TruncatedOperator(coeffs.reshape(dim, dim))
