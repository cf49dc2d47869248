"""Polynomial symbols u(w) = sum c_{jk} w^j conj(w)^k and finite Blaschke products.

The symbol class is a sparse bi-indexed coefficient table closed under
products, conjugation and Wirtinger derivatives, which is all the
calculus the operator experiments need: it contains every polynomial in
w and conj(w), is dense (for our purposes) in the symbol algebras of
interest, and makes harmonicity a finite exact test on coefficients.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .diskgeom import disk_gap, disk_value
from .quadrature import BLOCK_NODES

# Coefficients with modulus at or below this (relative to the symbol's
# largest coefficient) are treated as zero by the harmonicity tests;
# hand-built integer/Gaussian-integer corpora cancel exactly anyway.
COEFF_REL_TOL = 1e-12
FORMAT_DIGITS = 12  # significant digits format_complex writes

_TERM_RE = re.compile(r"^\s*(\d+)\s*,\s*(\d+)\s*:\s*(\S+)\s*$")
_COMPLEX_RE = re.compile(
    r"^[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?"          # real part or lone coefficient
    r"([+-](\d+(\.\d*)?|\.\d+)?([eE][+-]?\d+)?i)?$"      # optional imaginary tail
    r"|^[+-]?(\d+(\.\d*)?|\.\d+)?([eE][+-]?\d+)?i$"      # purely imaginary
)


def parse_complex(text: str) -> complex:
    """Parse an ``a+bi`` literal (no spaces, optional signs, 'i' suffix)."""
    s = text.strip()
    if not s or not _COMPLEX_RE.match(s):
        raise ValueError(f"cannot parse complex literal {text!r}")
    return complex(s.replace("i", "j"))


def format_complex(value: complex) -> str:
    """Render a complex number back into the ``a+bi`` literal syntax."""
    re_part, im_part = value.real, value.imag
    if im_part == 0.0:
        return f"{re_part:.{FORMAT_DIGITS}g}"
    if re_part == 0.0:
        return f"{im_part:.{FORMAT_DIGITS}g}i"
    sign = "+" if im_part >= 0 else "-"
    return f"{re_part:.{FORMAT_DIGITS}g}{sign}{abs(im_part):.{FORMAT_DIGITS}g}i"


class MonomialSymbol:
    """Finite sum of monomials w^j conj(w)^k with complex coefficients.

    Stored sparsely as {(j, k): coefficient} in sorted (j, k) order, so
    every route sums the terms in one order; exact zeros are dropped so
    the structural tests (harmonicity, analyticity) are exact.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=None):
        table = {}
        if coeffs:
            for (j, k), c in dict(coeffs).items():
                j, k = int(j), int(k)
                if j < 0 or k < 0:
                    raise ValueError("monomial indices must be nonnegative")
                c = complex(c)
                if not cmath.isfinite(c):
                    raise ValueError(f"coefficient of term {j},{k} is not finite")
                if c != 0:
                    table[(j, k)] = table.get((j, k), 0j) + c
        self._coeffs = {idx: c for idx, c in sorted(table.items()) if c != 0}

    @classmethod
    def _adopt(cls, table: dict) -> "MonomialSymbol":
        """Keep a table the class's own arithmetic built, less its exact zeros."""
        sym = object.__new__(cls)
        sym._coeffs = {idx: c for idx, c in sorted(table.items()) if c != 0}
        return sym

    # -- constructors -------------------------------------------------

    @classmethod
    def monomial(cls, j: int, k: int, coeff: complex = 1.0) -> "MonomialSymbol":
        return cls({(j, k): coeff})

    @classmethod
    def constant(cls, value: complex) -> "MonomialSymbol":
        return cls({(0, 0): value})

    @classmethod
    def identity(cls) -> "MonomialSymbol":
        """The coordinate symbol w."""
        return cls({(1, 0): 1.0})

    @classmethod
    def from_string(cls, text: str) -> "MonomialSymbol":
        """Parse the CLI term syntax ``j,k:coeff`` joined by semicolons."""
        table = {}
        for chunk in text.split(";"):
            if not chunk.strip():
                continue
            m = _TERM_RE.match(chunk)
            if not m:
                raise ValueError(f"cannot parse symbol term {chunk!r}")
            j, k = int(m.group(1)), int(m.group(2))
            table[(j, k)] = table.get((j, k), 0j) + parse_complex(m.group(3))
        return cls(table)

    # -- basic protocol ------------------------------------------------

    @property
    def coeffs(self) -> dict:
        return dict(self._coeffs)

    @property
    def deg_zbar(self) -> int:
        return max((k for _, k in self._coeffs), default=0)

    @property
    def total_degree(self) -> int:
        return max((j + k for j, k in self._coeffs), default=0)

    def is_zero(self) -> bool:
        return not self._coeffs

    def max_coeff(self) -> float:
        return max((abs(c) for c in self._coeffs.values()), default=0.0)

    def __eq__(self, other):
        if not isinstance(other, MonomialSymbol):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    def __repr__(self):
        if not self._coeffs:
            return "MonomialSymbol(0)"
        return f"MonomialSymbol({self.to_string()!r})"

    def to_string(self) -> str:
        parts = [f"{j},{k}:{format_complex(c)}"
                 for (j, k), c in self._coeffs.items()]
        return ";".join(parts) if parts else "0,0:0"

    # -- algebra -------------------------------------------------------

    def __add__(self, other: "MonomialSymbol") -> "MonomialSymbol":
        table = dict(self._coeffs)
        for idx, c in other._coeffs.items():
            table[idx] = table.get(idx, 0j) + c
        return MonomialSymbol._adopt(table)

    def __sub__(self, other: "MonomialSymbol") -> "MonomialSymbol":
        return self + (-1.0) * other

    def __mul__(self, other):
        if isinstance(other, MonomialSymbol):
            table = {}
            for (j1, k1), c1 in self._coeffs.items():
                for (j2, k2), c2 in other._coeffs.items():
                    idx = (j1 + j2, k1 + k2)
                    table[idx] = table.get(idx, 0j) + c1 * c2
            return MonomialSymbol._adopt(table)
        return self.scale(other)

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def scale(self, scalar: complex) -> "MonomialSymbol":
        return MonomialSymbol({idx: scalar * c for idx, c in self._coeffs.items()})

    def conjugate(self) -> "MonomialSymbol":
        """Pointwise complex conjugate: (j, k) -> (k, j) with conjugated coefficient."""
        # 0j + turns the -0.0 imaginary part of a real coefficient back into 0.0
        return MonomialSymbol._adopt({(k, j): 0j + c.conjugate()
                                      for (j, k), c in self._coeffs.items()})

    # -- Wirtinger calculus ---------------------------------------------

    def dz(self) -> "MonomialSymbol":
        """Wirtinger derivative d/dw (holomorphic direction)."""
        return MonomialSymbol._adopt({(j - 1, k): j * c
                                      for (j, k), c in self._coeffs.items() if j > 0})

    def dzbar(self) -> "MonomialSymbol":
        """Wirtinger derivative d/d(conj w)."""
        return MonomialSymbol._adopt({(j, k - 1): k * c
                                      for (j, k), c in self._coeffs.items() if k > 0})

    def laplacian(self) -> "MonomialSymbol":
        """Euclidean Laplacian, 4 d^2/dw d(conj w)."""
        return 4.0 * self.dz().dzbar()

    def is_harmonic(self) -> bool:
        """True iff no mixed monomial (j >= 1 and k >= 1) is present."""
        return all(j == 0 or k == 0 for j, k in self._coeffs)

    def is_analytic(self) -> bool:
        return all(k == 0 for _, k in self._coeffs)

    def is_conjugate_analytic(self) -> bool:
        return all(j == 0 for j, _ in self._coeffs)

    # -- evaluation ------------------------------------------------------

    def evaluate(self, w) -> complex:
        wv = complex(w)
        total = 0j
        for (j, k), c in self._coeffs.items():
            total += c * wv ** j * wv.conjugate() ** k
        return total

    def evaluate_array(self, w: np.ndarray) -> np.ndarray:
        """u at every entry of ``w`` by nested Horner, with no complex power.

        Each row sum_j c_jk w^j runs through Horner in w in one reused
        accumulator, and total = total * conj(w) + row_k combines the rows
        from the top conj(w) degree k down, BLOCK_NODES entries of the
        flattened input at a time into one output array; ``w`` is never
        written to.
        """
        w = np.asarray(w, dtype=complex)
        out = np.empty(w.shape, dtype=complex)
        flat_w, flat_out = w.reshape(-1), out.reshape(-1)
        rows = {}
        for (j, k), c in self._coeffs.items():
            rows.setdefault(k, {})[j] = c
        acc_buf, wbar_buf = np.empty((2, min(flat_w.size, BLOCK_NODES)), dtype=complex)
        for start in range(0, flat_w.size, BLOCK_NODES):
            x = flat_w[start:start + BLOCK_NODES]
            total, acc = flat_out[start:start + len(x)], acc_buf[:len(x)]
            wbar = np.conjugate(x, out=wbar_buf[:len(x)])
            total.fill(0.0)
            for k in range(self.deg_zbar, -1, -1):
                row = rows.get(k)
                if row:
                    top = max(row)
                    acc.fill(row[top])
                    for j in range(top - 1, -1, -1):
                        acc *= x
                        if j in row:
                            acc += row[j]
                    total += acc
                if k:
                    total *= wbar
        return out

    def compose_mobius_evaluator(self, z):
        """Vectorized evaluator for u(phi_z(.))."""
        zv = disk_value(z)
        return lambda w: self.evaluate_array((zv - w) / (1.0 - zv.conjugate() * w))


def nearly_zero(sym: MonomialSymbol, scale: float) -> bool:
    """Coefficient-level zero test with a tiny relative tolerance."""
    bound = COEFF_REL_TOL * max(scale, 1.0)
    return all(abs(c) <= bound for c in sym._coeffs.values())


class HarmonicProductKind(Enum):
    NOT_HARMONIC = "not-harmonic"
    ANALYTIC_PAIR = "both-analytic"
    CONJUGATE_ANALYTIC_PAIR = "both-conjugate-analytic"
    MATCHED_COMBINATION = "matched-combination"


@dataclass(frozen=True)
class ProductClassification:
    """Outcome of the harmonic-product test for a pair of harmonic symbols.

    For MATCHED_COMBINATION, (alpha, beta) != (0, 0) satisfies
    alpha*du/dzbar = -beta*dv/dzbar and alpha*du/dz = beta*dv/dz, which
    makes alpha*u + beta*v analytic and conj(alpha*u - beta*v) analytic.
    """

    kind: HarmonicProductKind
    alpha: complex | None = None
    beta: complex | None = None


def classify_harmonic_product(u: MonomialSymbol, v: MonomialSymbol) -> ProductClassification:
    """Decide whether u*v is harmonic and exhibit the witnessing structure.

    Both inputs must be harmonic.  The product is harmonic exactly when
    du/dzbar * dv/dz + du/dz * dv/dzbar vanishes identically; when it
    does, the pair is either jointly analytic, jointly conjugate
    analytic, or admits a matched linear combination (alpha, beta).
    Ties (e.g. constants) resolve to the analytic pair for determinism.
    """
    if not u.is_harmonic() or not v.is_harmonic():
        raise ValueError("classify_harmonic_product requires harmonic inputs")

    product_scale = u.max_coeff() * v.max_coeff()
    if not nearly_zero((u * v).laplacian(), 4.0 * product_scale):
        return ProductClassification(HarmonicProductKind.NOT_HARMONIC)
    if u.is_analytic() and v.is_analytic():
        return ProductClassification(HarmonicProductKind.ANALYTIC_PAIR)
    if u.is_conjugate_analytic() and v.is_conjugate_analytic():
        return ProductClassification(HarmonicProductKind.CONJUGATE_ANALYTIC_PAIR)

    alpha, beta = _matched_combination(u, v)
    if alpha is None:
        # Unreachable for genuinely harmonic products; guards roundoff edge cases.
        return ProductClassification(HarmonicProductKind.NOT_HARMONIC)
    return ProductClassification(HarmonicProductKind.MATCHED_COMBINATION, alpha, beta)


def _matched_combination(u: MonomialSymbol, v: MonomialSymbol):
    """Solve alpha*u_zbar + beta*v_zbar = 0 and alpha*u_z - beta*v_z = 0.

    Each polynomial identity contributes one linear row per monomial; the
    witness is the least-squares ratio of the two columns with beta = 1,
    or alpha = 1 where that would make |alpha| > 1 (ties stay with beta),
    and (None, None) if it leaves a residual above 1e-10 of the largest entry.
    """
    rows = []
    u_zbar, v_zbar = u.dzbar(), v.dzbar()
    for idx in sorted(set(u_zbar._coeffs) | set(v_zbar._coeffs)):
        rows.append([u_zbar._coeffs.get(idx, 0j), v_zbar._coeffs.get(idx, 0j)])
    u_z, v_z = u.dz(), v.dz()
    for idx in sorted(set(u_z._coeffs) | set(v_z._coeffs)):
        rows.append([u_z._coeffs.get(idx, 0j), -v_z._coeffs.get(idx, 0j)])

    a = np.array(rows, dtype=complex)
    col0, col1 = a.T
    norm0 = np.vdot(col0, col0)
    # Python complex division: numpy's multiplies by a rounded reciprocal,
    # so 49j / 49 would give 0.9999999999999999j
    alpha = -(complex(np.vdot(col0, col1)) / complex(norm0)) if norm0 else np.inf
    # The tolerance keeps exact ties (|alpha| = |beta|) from flipping on roundoff.
    if abs(alpha) * (1.0 - 1e-9) <= 1.0:
        beta = 1.0 + 0j
    else:
        alpha, beta = 1.0 + 0j, -(complex(np.vdot(col1, col0)) / complex(np.vdot(col1, col1)))
    if np.max(np.abs(alpha * col0 + beta * col1)) > 1e-10 * np.max(np.abs(a)):
        return None, None
    return alpha, beta


class BlaschkeProduct:
    """Finite Blaschke product with unimodular front factor fixed to 1.

    B(w) = prod_k (a_k - w) / (1 - conj(a_k) w), all zeros a_k in D.
    """

    __slots__ = ("zeros",)

    def __init__(self, zeros):
        self.zeros = tuple(disk_value(a) for a in zeros)

    def __repr__(self):
        return f"BlaschkeProduct(zeros={list(self.zeros)!r})"

    def _factors(self, w: np.ndarray) -> np.ndarray:
        """Matrix of factor values, row per zero."""
        a = np.asarray(self.zeros, dtype=complex)[:, None]
        return (a - w[None, :]) / (1.0 - np.conj(a) * w[None, :])

    def evaluate(self, w) -> complex:
        return complex(self.evaluate_array(np.asarray([complex(w)]))[0])

    def evaluate_array(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=complex)
        if not self.zeros:
            return np.ones_like(w)
        return np.prod(self._factors(w), axis=0)

    def derivative(self, w) -> complex:
        """B'(w) by the explicit product rule, finite at zeros of B.

        B' = sum_k f_k' * prod_{j != k} f_j, assembled from prefix and
        suffix partial products so no division by a factor occurs.
        """
        w = np.asarray([complex(w)])
        if not self.zeros:
            return 0j
        factors = self._factors(w)
        a = np.asarray(self.zeros, dtype=complex)[:, None]
        gaps = np.array([disk_gap(b) for b in self.zeros])[:, None]
        derivs = -gaps / (1.0 - np.conj(a) * w[None, :]) ** 2

        n = len(self.zeros)
        prefix = np.ones((n + 1, 1), dtype=complex)
        suffix = np.ones((n + 1, 1), dtype=complex)
        for k in range(n):
            prefix[k + 1] = prefix[k] * factors[k]
        for k in range(n - 1, -1, -1):
            suffix[k] = suffix[k + 1] * factors[k]
        return complex(np.sum(derivs * prefix[:n] * suffix[1:], axis=0)[0])

    def taylor(self, count: int) -> np.ndarray:
        """First ``count`` Taylor coefficients of B at the origin.

        Each factor has the exact expansion
        a - (1 - |a|^2) * sum_{n>=1} conj(a)^{n-1} w^n,
        and the product is a truncated convolution.
        """
        coeffs = np.zeros(count, dtype=complex)
        coeffs[0] = 1.0
        for a in self.zeros:
            factor = np.zeros(count, dtype=complex)
            factor[0] = a
            if count > 1:
                powers = np.conj(a) ** np.arange(count - 1)
                factor[1:] = -disk_gap(a) * powers
            coeffs = np.convolve(coeffs, factor)[:count]
        return coeffs


def parse_blaschke_zeros(text: str) -> BlaschkeProduct:
    """Parse a comma-separated list of complex zero literals."""
    zeros = [parse_complex(chunk) for chunk in text.split(",") if chunk.strip()]
    if not zeros:
        raise ValueError("Blaschke zero list is empty")
    return BlaschkeProduct(zeros)
