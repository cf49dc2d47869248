import math
from functools import reduce

import numpy as np
import pytest

from berezinlab.diskgeom import disk_gap, disk_value
from berezinlab.berezin import kernel_coefficients
from berezinlab.operators import toeplitz_exact, unitary_uz
from berezinlab.quadrature import build_rule
from berezinlab.symbols import HarmonicProductKind, MonomialSymbol


@pytest.fixture(scope="session")
def default_rule():
    return build_rule()


@pytest.fixture(scope="session")
def big_rule():
    return build_rule(160, 640)


def laplacian_fd(fieldfn, z) -> complex:
    """Five-point Laplacian of a field with step h = 1e-3 (1 - |z|).

    The tests' independent cross-check of the exact Laplacians; its
    truncation error grows with the field's fourth derivatives and its
    roundoff is about eps |f| / h^2.
    """
    zv = disk_value(z)
    h = 1e-3 * (1.0 - abs(zv))
    vals = [complex(fieldfn(zv + step)) for step in (h, -h, 1j * h, -1j * h)]
    return (sum(vals) - 4.0 * complex(fieldfn(zv))) / h ** 2


def kernel_density_grid(z, rule) -> np.ndarray:
    """|k_z|^2 on the rule's nodes as a real (n_radial, n_angular) grid.

    The tests' node-by-node reference for the quadrature route, which
    sums each ring in closed form and visits no node.  With s = r|z| the
    denominator is formed as
    |1 - conj(z) r e^{i theta}|^2 = (1 - s)^2 + 4 s sin^2((theta - arg z)/2),
    and 1 - s as (1 - r) + r (1 - |z|^2) / (1 + |z|): no term cancels,
    where 1 + s^2 - 2 s cos(theta - arg z) loses digits next to the rim.
    """
    zv = disk_value(z)
    rho, rim = abs(zv), disk_gap(zv)
    r = rule.radial_r
    s = r * rho
    gap = (1.0 - r) + r * (rim / (1.0 + rho))
    # (theta - arg z) / 2 in units of pi, reduced to [-1/2, 1/2]
    turns = np.arange(rule.n_angular) / rule.n_angular - np.angle(zv) / (2.0 * np.pi)
    turns -= np.round(turns)
    grid = np.multiply.outer(4.0 * s, np.sin(np.pi * turns) ** 2)
    grid += (gap * gap)[:, None]
    grid *= grid
    return np.divide(rim * rim, grid, out=grid)


def node_value_transform(values, z, rule) -> complex:
    """The rule's sum of u |k_z|^2 from ``values``, u on ``rule.nodes``.

    The weights are folded into the density grid and the products summed
    in one pairwise np.sum, with no BLAS routine; this also takes node
    values of inputs that are not polynomials.
    """
    density = kernel_density_grid(z, rule)
    density *= (rule.radial_w / rule.n_angular)[:, None]
    return complex(np.sum(values * density.ravel()))


def node_weights(rule) -> np.ndarray:
    """The rule's weight of every node in node order: radial_w_i / n_angular on ring i."""
    return np.repeat(rule.radial_w / rule.n_angular, rule.n_angular)


def fsum_node_sum(weights, values) -> complex:
    """sum_n weights_n values_n with the products summed correctly rounded (math.fsum)."""
    terms = weights * values
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


def semicommutator_defect(u, v, dim: int):
    """2 T_uv - T_u T_v - T_v T_u at truncation dim, in semicommutator_residual's order."""
    t_u, t_v = toeplitz_exact(u, dim), toeplitz_exact(v, dim)
    return 2.0 * toeplitz_exact(u * v, dim) - t_u @ t_v - t_v @ t_u


def taylor_symbol(b, count: int) -> MonomialSymbol:
    """A Blaschke product's first ``count`` Taylor terms, as the commutator indicator cuts it."""
    return MonomialSymbol({(n, 0): c for n, c in enumerate(b.taylor(count))})


def harmonic_product_corpus():
    """Acceptance criterion 8's pairs (u, v, expected kind) of the harmonic-product classifier."""
    A = HarmonicProductKind.ANALYTIC_PAIR
    B = HarmonicProductKind.CONJUGATE_ANALYTIC_PAIR
    C = HarmonicProductKind.MATCHED_COMBINATION
    NH = HarmonicProductKind.NOT_HARMONIC
    sym = MonomialSymbol
    W, WBAR = sym.identity(), sym.monomial(0, 1)
    return [
        (W, W, A),
        (sym.monomial(2, 0), sym({(1, 0): 3, (0, 0): 1}), A),
        (sym.constant(1.0), sym.constant(1 + 2j), A),
        (WBAR, sym.monomial(0, 2), B),
        (sym.monomial(0, 1, 1j), sym({(0, 2): 1, (0, 0): -5}), B),
        (sym({(1, 0): 1, (0, 1): 1}), sym({(1, 0): 1j, (0, 1): -1j}), C),
        (sym({(1, 0): 1, (0, 1): 1}), sym({(1, 0): 1, (0, 1): -1}), C),
        (sym.constant(2 + 1j), sym({(1, 0): 1, (0, 1): 1}), C),
        (sym({(1, 0): 1, (0, 1): 1}), sym.constant(3j), C),
        (W, WBAR, NH),
        (sym({(1, 0): 1, (0, 1): 1}), sym({(1, 0): 1, (0, 1): 1}), NH),
        (sym({(1, 0): 1, (0, 1): 2}), sym({(1, 0): 2, (0, 1): 1}), NH),
    ]


def product_corpus():
    """Acceptance criterion 6's 117 cases (symbols, z): every product of length
    1 to 3 over w, conj(w), |w|^2 at three points with |z| <= 0.5."""
    sym = MonomialSymbol
    base = [sym.identity(), sym.monomial(0, 1), sym.monomial(1, 1)]
    return [([base[i] for i in idx], z)
            for n in (1, 2, 3) for idx in np.ndindex(*(3,) * n)
            for z in (0.5, 0.3j, -0.25 - 0.25j)]


def product_chain_reference(symbols, z, dim: int):
    """berezin_of_product's (value, covariant_value) from whole dim x dim products.

    The dense reference for its vector chains: the transform of the matrix
    product T_1 ... T_n, and the corner entry of (U_z T_1 U_z) ... (U_z T_n U_z).
    """
    mats = [toeplitz_exact(u, dim).matrix for u in symbols]
    uz = unitary_uz(z, dim).matrix
    kz = kernel_coefficients(z, dim)
    value = np.vdot(kz, reduce(np.matmul, mats) @ kz)
    chain = reduce(np.matmul, [uz @ m @ uz for m in mats])
    return complex(value), complex(chain[0, 0])


def fine_angle_node_sums(u, z, rule, n_angular: int = 8192) -> tuple[complex, complex]:
    """mean_value_transform's and harmonic_defect_integral's values from
    node values on the rule's radii with n_angular angles.

    Each ring's mean of the Horner values of u o phi_z is numpy's pairwise
    sum, and the rings meet the radial weights, times 8 (2 r^2 - 1) for
    the defect, in correctly rounded sums: an independent check of the
    radial part of both, whose ring means are exact.  The angular aliases
    fall like |z|^n_angular, below 1e-16 of the symbol's coefficient sum
    for degree 8 at |z| = 0.99.
    """
    fine = build_rule(rule.n_radial, n_angular)
    means = np.mean(u.compose_mobius_evaluator(z)(fine.node_grid()), axis=1)
    r = rule.radial_r
    return tuple(complex(math.fsum((w * means).real), math.fsum((w * means).imag))
                 for w in (rule.radial_w, rule.radial_w * (8.0 * (2.0 * r * r - 1.0))))
