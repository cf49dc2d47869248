"""The benchmark's own numerics, used only to check berezinlab's outputs.

Nothing here imports berezinlab.  Symbols are plain dicts
{(j, k): coeff} standing for sum c w^j conj(w)^k, and every quantity is
computed from that table with numpy alone, so a check compares the
program against an independent calculation, never against stored output.
"""

from __future__ import annotations

import math

import numpy as np


def poly_eval(terms: dict, w) -> np.ndarray:
    """sum c w^j conj(w)^k at the points w."""
    w = np.asarray(w, dtype=complex)
    out = np.zeros(w.shape, dtype=complex)
    for (j, k), c in terms.items():
        out += c * w ** j * np.conj(w) ** k
    return out


def poly_mul(a: dict, b: dict) -> dict:
    out = {}
    for (j1, k1), c1 in a.items():
        for (j2, k2), c2 in b.items():
            key = (j1 + j2, k1 + k2)
            out[key] = out.get(key, 0j) + c1 * c2
    return out


def disk_mean(terms: dict) -> complex:
    """Normalized area mean of the symbol: only the terms with j = k survive."""
    return complex(sum(c / (j + 1) for (j, k), c in terms.items() if j == k))


def berezin_series(terms: dict, z: complex) -> complex:
    """u~(z) = integral u |k_z|^2 dA, summed from the monomial moments.

    For j >= k and d = j - k the transform of w^j conj(w)^k is
    (1-t)^2 z^d sum_m (m+1)(m+d+1) t^m / (j+m+1) with t = |z|^2; the
    case j < k is its conjugate with j and k exchanged.  The sum runs
    until the dropped tail, about (1-t) m^2 t^m, is below 1e-17.
    """
    z = complex(z)
    t = abs(z) ** 2
    count = 64
    while (1.0 - t) * count * count * t ** count > 1e-17:
        count += count // 4
    m = np.arange(count, dtype=float)
    powers = t ** m
    total = 0j
    for (j, k), c in terms.items():
        d, hi = abs(j - k), max(j, k)
        s = float(np.sum((m + 1.0) * (m + d + 1.0) * powers / (hi + m + 1.0)))
        zd = z ** d if j >= k else z.conjugate() ** d
        total += c * (1.0 - t) ** 2 * zd * s
    return total


def invariant_laplacian_symbol(terms: dict) -> dict:
    """(1-|w|^2)^2 (Delta u)(w) as a polynomial symbol.

    The Berezin transform commutes with this invariant Laplacian, so its
    transform is (1-|z|^2)^2 (Delta u~)(z).
    """
    lap = {(j - 1, k - 1): 4.0 * j * k * c
           for (j, k), c in terms.items() if j > 0 and k > 0}
    weight = {(0, 0): 1.0, (1, 1): -2.0, (2, 2): 1.0}
    return poly_mul(lap, weight)


def kernel_column(z: complex, n: int) -> np.ndarray:
    """Coefficients of -k_z in e_m = sqrt(m+1) w^m: column 0 of U_z."""
    z = complex(z)
    m = np.arange(n)
    return -(1.0 - abs(z) ** 2) * np.sqrt(m + 1.0) * z.conjugate() ** m


def toeplitz_entries(terms: dict, dim: int) -> np.ndarray:
    """Compression of T_u: <w^j conj(w)^k e_p, e_q> = sqrt((p+1)(q+1))/(j+p+1) on q-p = j-k."""
    m = np.zeros((dim, dim), dtype=complex)
    for (j, k), c in terms.items():
        for p in range(dim):
            q = p + j - k
            if 0 <= q < dim:
                m[q, p] += c * math.sqrt((p + 1) * (q + 1)) / (j + p + 1)
    return m


class DiskRule:
    """Gauss-Legendre in t = r^2 times the trapezoid rule in angle, total mass 1.

    The nodes are made a few rings at a time (``chunks``), so that the
    checks' temporaries stay small next to the program's own arrays in
    the worker's peak resident set.
    """

    RINGS_PER_CHUNK = 8

    def __init__(self, n_t: int, n_theta: int):
        x, wx = np.polynomial.legendre.leggauss(n_t)
        self.r = np.sqrt(0.5 * (x + 1.0))
        self.ring_weights = 0.5 * wx / n_theta
        self.ring = np.exp(2j * np.pi * np.arange(n_theta) / n_theta)

    def chunks(self):
        """(nodes, weights) for consecutive groups of rings."""
        step = self.RINGS_PER_CHUNK
        for i in range(0, self.r.size, step):
            nodes = np.multiply.outer(self.r[i:i + step], self.ring).ravel()
            yield nodes, np.repeat(self.ring_weights[i:i + step], self.ring.size)

    def integrate(self, fn) -> complex:
        """The rule applied to fn(nodes)."""
        return complex(sum(np.dot(weights, fn(nodes)) for nodes, weights in self.chunks()))


def mobius(z: complex, w):
    z = complex(z)
    return (z - w) / (1.0 - z.conjugate() * w)


def composed_entries(terms: dict, z: complex, pairs, rule: DiskRule) -> list:
    """<T_{u o phi_z} e_p, e_q> for each (p, q) in pairs, by quadrature."""
    out = np.zeros(len(pairs), dtype=complex)
    for w, weights in rule.chunks():
        weighted = weights * poly_eval(terms, mobius(z, w))
        for i, (p, q) in enumerate(pairs):
            out[i] += np.dot(weighted, w ** p * np.conj(w) ** q)
    return [complex(math.sqrt((p + 1) * (q + 1)) * v) for (p, q), v in zip(pairs, out)]


def localization(terms: dict, z: complex, rule: DiskRule) -> float:
    """|| (u - u(z)) k_z || by quadrature of |u - u(z)|^2 |k_z|^2."""
    z = complex(z)
    u_at = complex(poly_eval(terms, np.array([z]))[0])

    def integrand(w):
        density = (1.0 - abs(z) ** 2) ** 2 / np.abs(1.0 - z.conjugate() * w) ** 4
        return np.abs(poly_eval(terms, w) - u_at) ** 2 * density

    square = rule.integrate(integrand).real
    return math.sqrt(max(square, 0.0))


def blaschke_zero_values(zeros) -> list:
    """|prod_{j != k} phi_{a_j}(a_k)|^2 for each zero a_k.

    With f = g = B this is (1-|a_k|^2)^2 |B'(a_k)|^2, the derivative
    quantity the commutator indicator samples at the zeros.
    """
    out = []
    for k, a in enumerate(zeros):
        prod = 1.0 + 0j
        for j, b in enumerate(zeros):
            if j != k:
                prod *= mobius(b, a)
        out.append(abs(prod) ** 2)
    return out
