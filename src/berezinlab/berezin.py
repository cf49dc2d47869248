"""Berezin transforms by independent routes, with boundary-decay tooling.

Three routes to the same number:

* operator route: S~(z) = <S k_z, k_z> as a finite double sum over a
  truncated matrix, trusted while the geometric tail
  (N+1) |z|^{2N} / (1-|z|^2)^2 stays below tolerance;
* series route: for a monomial symbol w^j conj(w)^k with d = j-k >= 0,
  u~(z) = (1-|z|^2)^2 z^d sum_m (m+1)(m+d+1) |z|^{2m} / (j+m+1),
  truncated when the geometric tail drops below tolerance (the exact
  resummation of that series is also available, see
  :func:`berezin_symbol_exact`);
* quadrature route: u~(z) = integral of u |k_z|^2 dA.

Boundary behavior ("z -> boundary") is operationalized as sampling
along in-disk radial or nontangential paths; nothing here claims to
compute limits over any abstract boundary object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable

import numpy as np

from .diskgeom import (DISK_RADIUS_MAX, DiskDomainError, disk_value,
                       mobius_eval, normalized_kernel_density)
from .operators import (TruncatedOperator, analytic_commutator_defect,
                        toeplitz_exact, unitary_uz)
from .quadrature import DiskQuadrature, build_rule, monomial_moment
from .symbols import BlaschkeProduct, MonomialSymbol

SERIES_MAX_TERMS = 2_000_000


class StencilOutOfDiskError(DiskDomainError):
    """A finite-difference stencil point left the allowed disk."""


@dataclass(frozen=True)
class BerezinConfig:
    """Shared numerical policy for the transform routes.

    fd_step is the relative step h0 in h = h0 * (1 - |z|) of the
    five-point Laplacian.
    """

    truncation: int = 64
    series_tol: float = 1e-12
    n_radial: int = 80
    n_angular: int = 256
    fd_step: float = 1e-3
    reliability_tol: float = 1e-6

    def __post_init__(self):
        if self.truncation < 8:
            raise ValueError("truncation must be at least 8")
        if self.series_tol <= 0 or self.reliability_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.fd_step <= 0:
            raise ValueError("fd_step must be positive")

    def rule(self) -> DiskQuadrature:
        return cached_rule(self.n_radial, self.n_angular)


DEFAULT_CONFIG = BerezinConfig()


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


def operator_route_reliable(dim: int, z, tol: float) -> bool:
    return operator_tail_bound(dim, z) < tol


# ---------------------------------------------------------------------------
# series route
# ---------------------------------------------------------------------------

def berezin_symbol_series(u: MonomialSymbol, z, tol: float = 1e-12,
                          max_terms: int = SERIES_MAX_TERMS) -> complex:
    """Berezin transform of a polynomial symbol by its power series.

    Linear over the symbol's terms; each monomial series is summed in
    blocks until the remaining geometric tail is below ``tol``.
    """
    zv = disk_value(z)
    t = abs(zv) ** 2
    total = 0j
    for (j, k), c in u.coeffs.items():
        total += c * _monomial_series(j, k, zv, t, tol, max_terms)
    return total


def _monomial_series(j: int, k: int, zv: complex, t: float,
                     tol: float, max_terms: int) -> complex:
    if j < k:
        return _monomial_series(k, j, zv, t, tol, max_terms).conjugate()
    d = j - k
    block = 512
    acc = 0.0
    m0 = 0
    while True:
        m = np.arange(m0, m0 + block, dtype=float)
        acc += float(np.sum((m + 1.0) * (m + d + 1.0) * t ** m / (j + m + 1.0)))
        m0 += block
        # tail * (1-t)^2 <= t^{m0} (m0 (1-t) + 1) since (m+d+1)/(j+m+1) <= 1
        if t ** m0 * (m0 * (1.0 - t) + 1.0) < tol:
            break
        if m0 >= max_terms:
            raise RuntimeError(
                f"series route did not reach tol={tol} within {max_terms} terms "
                f"at |z|^2={t}; use the exact or quadrature route near the boundary")
    return (1.0 - t) ** 2 * zv ** d * acc


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
    """sum_{m>=0} t^m / (m+j+1), stable on both halves of [0, 1)."""
    if t < 0.5:
        acc, m, term = 0.0, 0, 1.0
        while True:
            contrib = term / (m + j + 1)
            acc += contrib
            if contrib < 1e-18:
                return acc
            m += 1
            term *= t
    head = sum(t ** i / i for i in range(1, j + 1))
    return (-math.log1p(-t) - head) / t ** (j + 1)


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


def _as_evaluator(u):
    if isinstance(u, (MonomialSymbol, BlaschkeProduct)):
        return u.evaluate_array
    if callable(u):
        return u
    raise TypeError(f"cannot evaluate symbol of type {type(u).__name__}")


def berezin_symbol_quadrature(u, z, rule: DiskQuadrature) -> complex:
    """u~(z) = integral u(w) |k_z(w)|^2 dA(w) by the tensor rule.

    ``u`` may be a symbol, a pointwise evaluator, or a precomputed array
    of node values (handy when many z share one symbol).
    """
    if isinstance(u, np.ndarray) and u.shape == rule.nodes.shape:
        values = u
    else:
        values = np.asarray(_as_evaluator(u)(rule.nodes), dtype=complex)
    density = normalized_kernel_density(z, rule.nodes)
    return complex(np.dot(rule.weights, values * density))


def mean_value_transform(u: MonomialSymbol, z, rule: DiskQuadrature) -> complex:
    """u~(z) as the plain average of u over phi_z-translated coordinates.

    Substituting w = phi_z(v) in the kernel integral leaves
    integral (u o phi_z) dA, an independent route used as a cross-check.
    """
    return rule.integrate(u.compose_mobius_evaluator(z))


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

def laplacian_fd(fieldfn, z, config: BerezinConfig = DEFAULT_CONFIG) -> complex:
    """Five-point Laplacian with step h = fd_step * (1 - |z|)."""
    zv = disk_value(z)
    h = config.fd_step * (1.0 - abs(zv))
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


def invariant_laplacian(fieldfn, z, config: BerezinConfig = DEFAULT_CONFIG) -> complex:
    """The Mobius-invariant quantity (1 - |z|^2)^2 (Delta f)(z)."""
    zv = disk_value(z)
    return (1.0 - abs(zv) ** 2) ** 2 * laplacian_fd(fieldfn, zv, config)


def harmonic_defect_integral(u: MonomialSymbol, z, rule: DiskQuadrature) -> complex:
    """8 integral (u o phi_z)(w) (2|w|^2 - 1) dA(w).

    Equals (1 - |z|^2)^2 (Delta u~)(z); the vanishing of either as
    z approaches the boundary is one of the equivalent fixed-point
    criteria this laboratory probes.
    """
    composed = u.compose_mobius_evaluator(z)

    def integrand(w):
        w = np.asarray(w, dtype=complex)
        return composed(w) * (2.0 * np.abs(w) ** 2 - 1.0)

    return 8.0 * rule.integrate(integrand)


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

def localization_norm(u: MonomialSymbol, z, tol: float = 1e-12,
                      route: str = "series") -> float:
    """|| (u - u(z)) k_z ||_2 via the expanded transform identity.

    The square expands to (|u|^2)~(z) - 2 Re(conj(u(z)) u~(z)) + |u(z)|^2;
    both transforms go through the series route by default, or its exact
    resummation with route="exact" (preferred very close to the boundary).
    """
    zv = disk_value(z)
    u_at = u.evaluate(zv)
    if route == "exact":
        mod2 = berezin_symbol_exact(u * u.conjugate(), zv)
        u_tilde = berezin_symbol_exact(u, zv)
    elif route == "series":
        mod2 = berezin_symbol_series(u * u.conjugate(), zv, tol)
        u_tilde = berezin_symbol_series(u, zv, tol)
    else:
        raise ValueError(f"unknown route {route!r}")
    square = mod2.real - 2.0 * (u_at.conjugate() * u_tilde).real + abs(u_at) ** 2
    if square < -1e-10:
        raise ArithmeticError(f"localization square came out {square}, below roundoff floor")
    return math.sqrt(max(square, 0.0))


# ---------------------------------------------------------------------------
# fields, paths, decay profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarField:
    """A deterministic pointwise field on the disk with a display label."""

    evaluator: Callable[[complex], complex]
    label: str = ""

    def __call__(self, z) -> complex:
        return complex(self.evaluator(z))


def berezin_series_field(u: MonomialSymbol, tol: float = 1e-12) -> ScalarField:
    return ScalarField(lambda z: berezin_symbol_series(u, z, tol), "berezin-series")


def berezin_exact_field(u: MonomialSymbol) -> ScalarField:
    return ScalarField(lambda z: berezin_symbol_exact(u, z), "berezin-exact")


def berezin_operator_field(op: TruncatedOperator) -> ScalarField:
    return ScalarField(lambda z: berezin_operator(op, z), "berezin-operator")


def operator_flagger(dim: int, tol: float) -> Callable[[complex], str]:
    """Per-sample reliability flag for operator-route fields."""
    def flag(z):
        return "" if operator_route_reliable(dim, z, tol) else "truncation-unreliable"
    return flag


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
    label = label or getattr(fieldfn, "label", "")
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
    zeros, whose floor staying positive indicates non-decay.
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


def commutator_compactness_indicator(f, g, radii=None, dim: int = 64,
                                     config: BerezinConfig = DEFAULT_CONFIG,
                                     path: PathSpec = PathSpec(),
                                     threshold: float = 1e-3,
                                     pad: int | None = None) -> CommutatorReport:
    """Probe whether the mixed Toeplitz commutator of (f, g) looks compact.

    Two independent boundary profiles are reported: the derivative
    quantity (1-|z|^2)^2 |f' g'| whose decay characterizes compactness
    for analytic pairs, and the Berezin transform of the truncated
    defect 2 T_{conj(f) g} - T_conj(f) T_g - T_g T_conj(f).  The verdict
    is "decay-consistent" when both fall below ``threshold`` at the final
    path sample; truncation flags and the reliable prefix are reported
    alongside so a flagged tail can be discounted.
    """
    if radii is None:
        radii = dyadic_radii()
    df, dg = _analytic_derivative(f), _analytic_derivative(g)

    def deriv_quantity(z):
        zv = disk_value(z)
        return (1.0 - abs(zv) ** 2) ** 2 * abs(df(zv) * dg(zv))

    deriv_profile = decay_profile(deriv_quantity, path, radii,
                                  label="invariant-derivative-product")

    defect = analytic_commutator_defect(f, g, dim, pad)
    flag = operator_flagger(dim, config.reliability_tol)
    berezin_profile = decay_profile(
        lambda z: abs(berezin_operator(defect, z)),
        path, radii, flag_fn=flag, label="defect-berezin")

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
    decays = final_deriv < threshold and final_berezin < threshold

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
        config={"dim": dim, "pad": pad if pad is not None else dim,
                "threshold": threshold, "radii": list(map(float, radii)),
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


def covariance_field_check(op: TruncatedOperator, z, w,
                           config: BerezinConfig = DEFAULT_CONFIG) -> CovarianceCheck:
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

    base_field = lambda p: berezin_operator(op, p)
    composed = lambda p: berezin_operator(op, mobius_eval(zv, p))
    left = laplacian_fd(composed, wv, config) * (1.0 - abs(wv) ** 2) ** 2
    right = ((1.0 - abs(image) ** 2) ** 2) * laplacian_fd(base_field, image, config)
    laplacian_residual = abs(left - right)

    h = config.fd_step * (1.0 - abs(image))
    worst = abs(image) + h
    flag = ("" if operator_route_reliable(op.dim, min(worst, DISK_RADIUS_MAX) + 0j,
                                          config.reliability_tol)
            else "truncation-unreliable")
    return CovarianceCheck(value_residual, laplacian_residual, flag)


# ---------------------------------------------------------------------------
# reconstructing an operator block from transform samples
# ---------------------------------------------------------------------------

def berezin_sample_grid(radii=None, n_angles: int = 24) -> np.ndarray:
    """A polar grid comfortably inside the disk for least-squares fits.

    Per angular harmonic the fit sees radial powers up to twice the
    matrix dimension plus the kernel-prefactor degree, so the radius
    count must comfortably exceed the fitted dimension.
    """
    if radii is None:
        radii = np.linspace(0.1, 0.8, 15)
    angles = 2.0 * np.pi * np.arange(n_angles) / n_angles
    pts = np.multiply.outer(np.asarray(radii, dtype=float),
                            np.exp(1j * angles)).ravel()
    return pts


def fit_operator_from_berezin(fieldfn, dim: int, points=None) -> TruncatedOperator:
    """Recover a dim x dim matrix from samples of its Berezin transform.

    Solves the least-squares inversion of the transform's double power
    series; with enough well-spread points inside the disk this
    reconstructs the matrix that generated the samples, numerically
    witnessing that the transform determines the operator.
    """
    if points is None:
        points = berezin_sample_grid()
    points = np.asarray(points, dtype=complex)
    b = np.array([complex(fieldfn(p)) for p in points])

    n = np.arange(dim)
    root = np.sqrt(n + 1.0)
    zq = points[:, None] ** n[None, :] * root[None, :]          # z^q sqrt(q+1)
    zp = np.conj(points)[:, None] ** n[None, :] * root[None, :]  # conj(z)^p sqrt(p+1)
    prefactor = (1.0 - np.abs(points) ** 2) ** 2
    design = prefactor[:, None] * (zq[:, :, None] * zp[:, None, :]).reshape(len(points), -1)

    coeffs, *_ = np.linalg.lstsq(design, b, rcond=None)
    return TruncatedOperator(coeffs.reshape(dim, dim))
