"""Named invariant batteries behind the ``identity-suite`` CLI command.

Each battery checks one family of identities at pinned tolerances and
reports its worst residual.  The tolerances are pinned for the sizes of
``bz.DEFAULT_CONFIG``, which the batteries read directly.  Batteries draw
their random inputs from fixed seeds so suite output is reproducible run
to run.  The acceptance gate draws its inputs and shared identities from
this module, so each identity check is coded once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import berezin as bz
from .diskgeom import disk_gap, mobius_eval
from .operators import (TruncatedOperator, covariant_toeplitz, semicommutator_defect,
                        toeplitz_exact, toeplitz_quadrature, unitary_uz)
from .quadrature import build_rule, monomial_moment
from .symbols import HarmonicProductKind, MonomialSymbol, classify_harmonic_product


@dataclass(frozen=True)
class BatteryResult:
    battery: str
    description: str
    passed: bool
    max_residual: float
    tolerance: float
    details: dict


BATTERIES = {}


def battery(name: str, description: str, tolerance: float):
    """Register ``check()`` as battery ``name``; registration order is report order.

    ``check`` returns its worst residual, or ``(residual, details, ok)``
    when the report carries details or passing needs the extra
    condition ``ok`` besides ``residual <= tolerance``.
    """
    def register(check):
        @functools.wraps(check)
        def run() -> BatteryResult:
            out = check()
            residual, details, ok = out if isinstance(out, tuple) else (out, {}, True)
            return BatteryResult(name, description, bool(ok and residual <= tolerance),
                                 float(residual), float(tolerance), details)
        BATTERIES[name] = run
        return run
    return register


def random_symbol(rng, max_degree=6, n_terms=6, scale=1.0,
                  harmonic=False, analytic=False, integer=False) -> MonomialSymbol:
    """A seeded polynomial symbol of n_terms draws of degree <= max_degree."""
    table = {}
    for _ in range(n_terms):
        j = int(rng.integers(0, max_degree + 1))
        k = 0 if analytic else int(rng.integers(0, max_degree + 1 - j))
        if harmonic and j > 0 and k > 0:
            k = 0
        if integer:
            c = complex(int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
        else:
            c = scale * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        table[(j, k)] = table.get((j, k), 0j) + c
    sym = MonomialSymbol(table)
    return sym if not sym.is_zero() else MonomialSymbol.constant(1.0)


def sample_points(rng, count, r_max):
    """count points uniform in area on the disk |z| <= r_max."""
    r = r_max * np.sqrt(rng.uniform(0.0, 1.0, count))
    theta = rng.uniform(0.0, 2.0 * np.pi, count)
    return r * np.exp(1j * theta)


def _coeff_residual(a: MonomialSymbol, b: MonomialSymbol) -> float:
    ca, cb = a.coeffs, b.coeffs
    return max((abs(ca.get(idx, 0j) - cb.get(idx, 0j)) for idx in ca.keys() | cb.keys()),
               default=0.0)


# ---------------------------------------------------------------------------
# disk geometry
# ---------------------------------------------------------------------------

@battery("mobius-involution", "phi_z is its own compositional inverse", 1e-12)
def battery_mobius_involution():
    rng = np.random.default_rng(101)
    worst = 0.0
    for z, w in zip(sample_points(rng, 200, 0.95), sample_points(rng, 200, 0.95)):
        worst = max(worst, abs(mobius_eval(z, mobius_eval(z, w)) - w))
    return worst


@battery("mobius-modulus-identity",
         "(1-|phi_z(w)|^2) factors through the kernel denominator", 1e-12)
def battery_mobius_modulus():
    rng = np.random.default_rng(102)
    worst = 0.0
    for z, w in zip(sample_points(rng, 200, 0.95), sample_points(rng, 200, 0.95)):
        lhs = disk_gap(mobius_eval(z, w))
        rhs = disk_gap(z) * disk_gap(w) / abs(1.0 - z.conjugate() * w) ** 2
        worst = max(worst, abs(lhs - rhs))
    return worst


@battery("kernel-reproducing",
         "integrating p against conj(K_z) evaluates p at z", 1e-10)
def battery_kernel_reproducing():
    rng = np.random.default_rng(103)
    rule = bz.DEFAULT_CONFIG.rule()
    worst = 0.0
    for _ in range(6):
        p = random_symbol(rng, max_degree=10, n_terms=6, analytic=True)
        values = p.evaluate_array(rule.nodes)
        for z in sample_points(rng, 8, 0.8):
            integrand = values * np.conj(
                1.0 / (1.0 - z.conjugate() * rule.nodes) ** 2)
            got = rule.integrate(integrand)
            worst = max(worst, abs(got - p.evaluate(z)))
    return worst


# ---------------------------------------------------------------------------
# symbol calculus
# ---------------------------------------------------------------------------

@battery("symbol-calculus",
         "Leibniz rule, linearity, and the harmonic product Laplacian", 1e-12)
def battery_symbol_calculus():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(25):
        a = random_symbol(rng, max_degree=5, integer=True)
        b = random_symbol(rng, max_degree=5, integer=True)
        worst = max(worst, _coeff_residual((a * b).dz(), a.dz() * b + a * b.dz()))
        worst = max(worst, _coeff_residual((a * b).dzbar(), a.dzbar() * b + a * b.dzbar()))
        worst = max(worst, _coeff_residual((a + b).laplacian(),
                                           a.laplacian() + b.laplacian()))
        worst = max(worst, _coeff_residual(a.conjugate().conjugate(), a))
    for _ in range(25):
        u = random_symbol(rng, max_degree=5, harmonic=True, integer=True)
        v = random_symbol(rng, max_degree=5, harmonic=True, integer=True)
        expected = 4.0 * (u.dzbar() * v.dz() + u.dz() * v.dzbar())
        worst = max(worst, _coeff_residual((u * v).laplacian(), expected))
    return worst


@battery("harmonic-product-classifier",
         "classification agrees with the exact Laplacian and witnesses"
         " solve the matched-derivative equations", 1e-10)
def battery_harmonic_classifier():
    rng = np.random.default_rng(105)
    worst = 0.0
    matched = 0
    for _ in range(40):
        u = random_symbol(rng, max_degree=4, harmonic=True, integer=True)
        v = random_symbol(rng, max_degree=4, harmonic=True, integer=True)
        outcome = classify_harmonic_product(u, v)
        lap_zero = (u * v).laplacian().is_zero()
        if (outcome.kind != HarmonicProductKind.NOT_HARMONIC) != lap_zero:
            worst = max(worst, 1.0)
        if outcome.kind == HarmonicProductKind.MATCHED_COMBINATION:
            a, b = outcome.alpha, outcome.beta
            worst = max(worst, _coeff_residual(a * u.dzbar(), (-b) * v.dzbar()))
            worst = max(worst, _coeff_residual(a * u.dz(), b * v.dz()))
            matched += 1
    return worst, {"matched_cases": matched}, True


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def measured_moment_table(rule, degree: int) -> np.ndarray:
    """Rule moments T[a, b] = sum_n omega_n w_n^a conj(w_n)^b for all a, b <= degree.

    On a tensor rule the sum factors as T[a, b] = R[a + b] A[a - b]:
    R holds the radial moments (``DiskQuadrature.radial_moments``) and
    A[d] = (1/n) sum_l e^{i d theta_l} is summed pairwise over the rule's
    own ring from running powers, so the trapezoid's roundoff stays in
    the table, with A[-d] = conj(A[d]).  No node is visited and no BLAS
    routine is called.
    """
    radial = rule.radial_moments(2 * degree)
    power = np.ones_like(rule.ring)
    angular = np.empty(2 * degree + 1, dtype=complex)  # A[d] at index d mod (2 degree + 1)
    angular[0] = np.sum(power) / rule.n_angular
    for d in range(1, degree + 1):
        power *= rule.ring
        angular[d] = np.sum(power) / rule.n_angular
        angular[-d] = angular[d].conjugate()
    a = np.arange(degree + 1)
    return radial[a[:, None] + a] * angular[a[:, None] - a]


def table_sum(u: MonomialSymbol, table: np.ndarray) -> complex:
    """The rule's plain sum of u, sum c_jk T[j, k], read from a moment table."""
    return sum((c * table[j, k] for (j, k), c in u.coeffs.items()), 0j)


@battery("moment-oracle",
         "default rule reproduces all monomial moments to degree 40", 1e-13)
def battery_moment_oracle():
    degree = 40
    table = measured_moment_table(bz.DEFAULT_CONFIG.rule(), degree)
    exact = np.zeros_like(table)
    for a in range(degree + 1):
        exact[a, a] = monomial_moment(a, a)
    return float(np.max(np.abs(table - exact)))


@battery("rule-doubling-stability",
         "doubling both rule sizes moves polynomial integrals below 1e-10", 1e-10)
def battery_rule_doubling():
    rng = np.random.default_rng(106)
    rule = bz.DEFAULT_CONFIG.rule()
    degree = 12
    table = measured_moment_table(rule, degree)
    doubled = measured_moment_table(build_rule(2 * rule.n_radial, 2 * rule.n_angular),
                                    degree)
    worst = 0.0
    for _ in range(8):
        f = random_symbol(rng, max_degree=degree, n_terms=10)
        worst = max(worst, abs(table_sum(f, table) - table_sum(f, doubled)))
    return worst


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def composed_block(u: MonomialSymbol, z, rule, block: int) -> TruncatedOperator:
    """T_{u o phi_z} on the leading block, by quadrature (never touches U_z)."""
    return toeplitz_quadrature(u.compose_mobius_evaluator(z), block, rule)


def plain_compression_residuals(symbols, z, dims, rule,
                                block: int) -> list[list[float]]:
    """Leading-block residuals of plain U_z T_u U_z against ``composed_block``.

    One list per symbol, one residual per dim in it; each multiplies
    three dim x dim truncations, and each dim's U_z is built once for
    all the symbols.
    """
    targets = [composed_block(u, z, rule, block) for u in symbols]
    residuals = [[] for _ in targets]
    for dim in dims:
        uz = unitary_uz(z, dim)
        for u, rhs, row in zip(symbols, targets, residuals):
            lhs = (uz @ toeplitz_exact(u, dim) @ uz).leading_block(block)
            row.append((lhs - rhs).norm_fro())
    return residuals


@battery("toeplitz-linearity-adjoint",
         "symbol linearity and conjugation-adjoint correspondence", 1e-13)
def battery_toeplitz_structure():
    rng = np.random.default_rng(107)
    dim = bz.DEFAULT_CONFIG.truncation
    worst = 0.0
    for _ in range(10):
        u = random_symbol(rng, max_degree=5)
        v = random_symbol(rng, max_degree=5)
        alpha = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        lin = toeplitz_exact(alpha * u + v, dim).matrix
        combo = alpha * toeplitz_exact(u, dim).matrix + toeplitz_exact(v, dim).matrix
        worst = max(worst, float(np.max(np.abs(lin - combo))))
        adj = toeplitz_exact(u.conjugate(), dim).matrix
        worst = max(worst, float(np.max(np.abs(adj - toeplitz_exact(u, dim).matrix.conj().T))))
    return worst


@battery("toeplitz-norm-contractivity",
         "truncated Toeplitz norm stays below the symbol sup on nodes", 1e-6)
def battery_toeplitz_contractivity():
    rng = np.random.default_rng(108)
    dim = bz.DEFAULT_CONFIG.truncation
    rule = bz.DEFAULT_CONFIG.rule()
    syms = [MonomialSymbol.identity(), MonomialSymbol.monomial(0, 1),
            MonomialSymbol.monomial(1, 1), MonomialSymbol.constant(1.0)]
    syms += [random_symbol(rng, max_degree=4) for _ in range(4)]
    worst = 0.0
    for u in syms:
        sup = float(np.max(np.abs(u.evaluate_array(rule.nodes))))
        worst = max(worst, toeplitz_exact(u, dim).norm_op() - sup)
    return worst


@battery("covariance-residual-decay",
         "conjugation route converges to the composed-symbol operator"
         " on a fixed block as the truncation doubles", 1e-6)
def battery_covariance_decay():
    """Conjugation route vs the true composed-symbol block, N doubling.

    The truncated U_z is only faithful on columns p <~ N(1-|z|)/(1+|z|),
    so the comparison block is held FIXED (16) while N doubles; the
    residual then falls monotonically through the quadrature floor.
    """
    syms = [MonomialSymbol.identity(), MonomialSymbol.monomial(0, 1),
            MonomialSymbol.monomial(1, 1)]
    zs = [0.5, 0.7, -0.35 + 0.35j]
    rule = build_rule(160, 640)
    worst_final = 0.0
    monotone = True
    for z in zs:
        for residuals in plain_compression_residuals(syms, z, (32, 64, 128), rule, 16):
            monotone = monotone and residuals[0] > residuals[1] > residuals[2]
            worst_final = max(worst_final, residuals[-1])
    return worst_final, {"monotone": monotone}, monotone


@battery("unitary-orthonormality",
         "U_z is self-adjoint, sends 1 to -k_z, and its first 64 columns,"
         " taken out to their working size, are orthonormal, so U_z^2 = I"
         " on the 64 block", 1e-8)
def battery_unitary_orthonormality():
    """Orthonormality and involution of U_z on the whole dim block.

    covariant_toeplitz of the constant 1 is V^H V for the first dim
    columns V of U_z, each built out to the working size past which its
    tail is below 1e-17.  U_z is self-adjoint, so V^H V is also the dim
    block of U_z^2: one check covers both.
    """
    dim = 64
    one = MonomialSymbol.constant(1.0)
    worst = hermitian = 0.0
    for z in (0.35 + 0.0j, 0.5j, -0.7 + 0.0j):
        gram = covariant_toeplitz(one, z, dim).matrix
        worst = max(worst, float(np.max(np.abs(gram - np.eye(dim)))))
        u = unitary_uz(z, dim).matrix
        hermitian = max(hermitian, float(np.max(np.abs(u - u.conj().T))))
        kz = bz.kernel_coefficients(z, dim)
        worst = max(worst, float(np.max(np.abs(u[:, 0] + kz))))
    return worst, {"hermitian_residual": hermitian}, hermitian <= 1e-10


# ---------------------------------------------------------------------------
# transform routes
# ---------------------------------------------------------------------------

def semicommutator_residual(u: MonomialSymbol, v: MonomialSymbol, points,
                            dim: int) -> float:
    """Worst |(uv)~ - uv - (T_uv - T_u T_v)~| over points, at truncation dim."""
    defect = semicommutator_defect(u, v, dim)
    worst = 0.0
    for z in points:
        lhs = bz.berezin_symbol_series(u * v, z) - u.evaluate(z) * v.evaluate(z)
        worst = max(worst, abs(lhs - bz.berezin_operator(defect, z)))
    return worst


@battery("route-agreement",
         "series, exact, quadrature, mean-value and operator routes agree", 1e-6)
def battery_route_agreement():
    rng = np.random.default_rng(109)
    rule = bz.DEFAULT_CONFIG.rule()
    vs_quad = vs_op = vs_exact = vs_mean = 0.0
    for _ in range(10):
        u = random_symbol(rng, max_degree=6)
        op = toeplitz_exact(u, bz.DEFAULT_CONFIG.truncation)
        for z in sample_points(rng, 6, 0.8):
            series = bz.berezin_symbol_series(u, z)
            vs_quad = max(vs_quad, abs(series - bz.berezin_symbol_quadrature(u, z, rule)))
            vs_op = max(vs_op, abs(series - bz.berezin_operator(op, z)))
            vs_exact = max(vs_exact, abs(series - bz.berezin_symbol_exact(u, z)))
            vs_mean = max(vs_mean, abs(series - bz.mean_value_transform(u, z, rule)))
    ok = vs_quad <= 1e-8 and vs_mean <= 1e-8 and vs_exact <= 1e-10 and vs_op <= 1e-6
    return (max(vs_quad, vs_op, vs_exact, vs_mean),
            {"series_vs_quadrature": vs_quad, "series_vs_operator": vs_op,
             "series_vs_exact": vs_exact, "series_vs_meanvalue": vs_mean}, ok)


@battery("harmonic-fixed-point", "harmonic symbols are fixed by the transform", 1e-8)
def battery_harmonic_fixed_point():
    rng = np.random.default_rng(110)
    worst = 0.0
    for _ in range(10):
        u = random_symbol(rng, max_degree=6, harmonic=True)
        for z in sample_points(rng, 10, 0.9):
            worst = max(worst, abs(bz.berezin_symbol_series(u, z) - u.evaluate(z)))
    return worst


@battery("positivity-contractivity",
         "nonnegative symbols keep nonnegative, sup-bounded transforms", 1e-10)
def battery_positivity_contractivity():
    rng = np.random.default_rng(111)
    rule = bz.DEFAULT_CONFIG.rule()
    worst = 0.0
    for _ in range(6):
        p = random_symbol(rng, max_degree=3, analytic=True)
        u = p * p.conjugate()
        sup = float(np.max(np.abs(u.evaluate_array(rule.nodes))))
        for z in sample_points(rng, 8, 0.85):
            val = bz.berezin_symbol_series(u, z)
            worst = max(worst, -val.real, abs(val.imag))
            worst = max(worst, abs(val) - sup - 1e-8)
    return worst


@battery("semicommutator-identity",
         "(uv)~ - uv equals the transform of the semicommutator defect", 1e-6)
def battery_semicommutator_identity():
    rng = np.random.default_rng(112)
    pairs = [(MonomialSymbol.identity(), MonomialSymbol.monomial(0, 1))]
    pairs += [(random_symbol(rng, max_degree=4, harmonic=True),
               random_symbol(rng, max_degree=4, harmonic=True)) for _ in range(5)]
    worst = 0.0
    for u, v in pairs:
        worst = max(worst, semicommutator_residual(
            u, v, sample_points(rng, 6, 0.7), bz.DEFAULT_CONFIG.truncation))
    return worst


@battery("product-factorization",
         "transform of an operator product matches its conjugated"
         " evaluation at the constants", 1e-6)
def battery_product_factorization():
    rng = np.random.default_rng(113)
    base = [MonomialSymbol.identity(), MonomialSymbol.monomial(0, 1),
            MonomialSymbol.monomial(1, 1)]
    worst = 0.0
    for n in (1, 2, 3):
        for _ in range(4):
            symbols = [base[int(rng.integers(0, 3))] for _ in range(n)]
            z = complex(sample_points(rng, 1, 0.5)[0])
            outcome = bz.berezin_of_product(symbols, z, bz.DEFAULT_CONFIG.truncation)
            worst = max(worst, outcome.residual)
    return worst


@battery("laplacian-consistency",
         "operator, moment and invariance-identity Laplacians agree at 0", 1e-5)
def battery_laplacian_consistency():
    rng = np.random.default_rng(114)
    dim = bz.DEFAULT_CONFIG.truncation
    closed = 0.0
    identity = 0.0
    for _ in range(8):
        u = random_symbol(rng, max_degree=6, scale=0.5)
        op_route = bz.invariant_laplacian_operator(toeplitz_exact(u, dim), 0j)
        sym_route = bz.laplacian_berezin_at_zero_symbol(u)
        identity_route = bz.invariant_laplacian(u, 0j)
        closed = max(closed, abs(op_route - sym_route))
        identity = max(identity, abs(sym_route - identity_route))
    return (max(closed, identity),
            {"closed_forms": closed, "invariance_identity": identity},
            closed <= 1e-10 and identity <= 1e-5)


@battery("berezin-injectivity",
         "least-squares inversion of transform samples recovers the matrix", 1e-4)
def battery_injectivity():
    rng = np.random.default_rng(115)
    worst = 0.0
    for _ in range(3):
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        m /= np.linalg.norm(m)
        op = TruncatedOperator(m)
        fitted = bz.fit_operator_from_berezin(lambda z: bz.berezin_operator(op, z), 8)
        worst = max(worst, float(np.max(np.abs(fitted.matrix - m))))
    return worst


@battery("invariant-laplacian-integral",
         "the averaged defect integral equals the invariant Laplacian"
         " of the transform", 1e-5)
def battery_invariant_laplacian_integral():
    rng = np.random.default_rng(116)
    rule = bz.DEFAULT_CONFIG.rule()
    worst = 0.0
    for _ in range(5):
        u = random_symbol(rng, max_degree=4, scale=0.5)
        for z in sample_points(rng, 4, 0.7):
            lhs = bz.harmonic_defect_integral(u, z, rule)
            rhs = bz.invariant_laplacian(u, z)
            worst = max(worst, abs(lhs - rhs))
    return worst


@battery("covariance-field", "the transform field commutes with disk automorphisms", 1e-5)
def battery_covariance_field():
    dim = bz.DEFAULT_CONFIG.truncation
    op = toeplitz_exact(MonomialSymbol.monomial(1, 1), dim)
    check = bz.covariance_field_check(op, 0.3, 0.3)
    ident = bz.covariance_field_check(TruncatedOperator(np.eye(dim)), 0.4 + 0.1j, 0.2j)
    return max(check.value_residual, check.laplacian_residual,
               ident.value_residual, ident.laplacian_residual)


def run_batteries(only: str | None = None) -> list[BatteryResult]:
    if only is not None:
        return [BATTERIES[only]()]
    return [run() for run in BATTERIES.values()]
