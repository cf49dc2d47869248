"""Quadrature on the unit disk with normalized area measure.

The rule is a tensor product of Gauss-Legendre in t = r^2 (mapped to
[0, 1]) with the uniform trapezoid rule in the angle.  With dA
normalized to total mass 1,

    integral_D f dA = (1/2pi) int_0^{2pi} int_0^1 f(sqrt(t) e^{i theta}) dt dtheta,

so the monomial moments come out as

    integral w^a conj(w)^b dA = delta_{ab} / (a + 1),

which the rule reproduces exactly for a <= 2*n_radial - 1 and
|a - b| not a nonzero multiple of n_angular.  That closed form is the
moment oracle used throughout the test suite.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

DEFAULT_N_RADIAL = 80
DEFAULT_N_ANGULAR = 256
MOMENT_TOL = 1e-11  # moment error above which check_rule_for_degree warns
# Nodes per slice of every node evaluation: each complex temporary of a
# slice is 64 KB, below glibc's default 128 KB mmap threshold, so the
# slices reuse heap memory instead of faulting in fresh pages.
BLOCK_NODES = 4096


class QuadratureWarning(UserWarning):
    """Emitted when a rule is detectably too coarse for its integrand."""


def monomial_moment(a: int, b: int) -> complex:
    """Exact moment of w^a conj(w)^b against normalized area measure."""
    if a < 0 or b < 0:
        raise ValueError("moment exponents must be nonnegative")
    return complex(1.0 / (a + 1)) if a == b else 0j


@dataclass(frozen=True)
class DiskQuadrature:
    """Tensor-product node/weight rule for normalized area integrals on D.

    radial_r / radial_w hold the radii sqrt(t_i) and Gauss-Legendre
    weights for t in [0, 1]; the angular factor is the n_angular
    equispaced points of ``ring`` on the unit circle, each of weight
    1/n_angular.
    """

    radial_r: np.ndarray
    radial_w: np.ndarray
    n_angular: int
    ring: np.ndarray = field(init=False, repr=False)
    nodes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        theta = 2.0 * np.pi * np.arange(self.n_angular) / self.n_angular
        ring = np.exp(1j * theta)
        nodes = np.multiply.outer(self.radial_r, ring).ravel()
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "nodes", nodes)

    @property
    def n_radial(self) -> int:
        return len(self.radial_r)

    def node_grid(self) -> np.ndarray:
        """Nodes as an (n_radial, n_angular) grid, row i at radius r_i."""
        return self.nodes.reshape(self.n_radial, self.n_angular)

    def integrate(self, values) -> complex:
        """The rule's sum of an array of node values, as numpy's pairwise sum.

        Ring i of the (n_radial, n_angular) view weighs radial_w_i / n_angular.
        Values of any shape other than the nodes' raise ValueError.
        """
        values = np.asarray(values)
        if values.shape != self.nodes.shape:
            raise ValueError(f"integrand has shape {values.shape}, nodes have"
                             f" shape {self.nodes.shape}")
        grid = values.reshape(self.n_radial, self.n_angular)
        return complex(np.sum(grid * (self.radial_w / self.n_angular)[:, None]))

    def radial_moments(self, top: int) -> np.ndarray:
        """R[s] = sum_i radial_w_i radial_r_i^s for s = 0 .. top.

        The weighted powers are running products down the exponent axis
        (np.cumprod), never a power call, and each R[s] is the pairwise
        np.sum of one contiguous row, so the bits depend on neither the
        host's power routine nor the BLAS build.
        """
        powers = np.empty((top + 1, self.radial_r.size))
        powers[0] = self.radial_w
        powers[1:] = self.radial_r
        return np.cumprod(powers, axis=0).sum(axis=1)

    def rule_moment(self, a: int, b: int) -> complex:
        """The rule's value on w^a conj(w)^b, by the tensor structure.

        The angular sum of e^{i(a-b)theta} is 1 when n_angular divides
        a - b and 0 otherwise, so no grid evaluation is needed.
        """
        if (a - b) % self.n_angular != 0:
            return 0j
        return complex(self.radial_moments(a + b)[-1])


def build_rule(n_radial: int = DEFAULT_N_RADIAL,
               n_angular: int = DEFAULT_N_ANGULAR) -> DiskQuadrature:
    """Build the Gauss-Legendre (in r^2) x trapezoid (in angle) rule."""
    if n_radial < 1 or n_angular < 1:
        raise ValueError("rule sizes must be positive")
    radial_r, radial_w = _gauss_legendre(n_radial)
    return DiskQuadrature(radial_r=radial_r, radial_w=radial_w, n_angular=n_angular)


@lru_cache(maxsize=16)
def _gauss_legendre(n_radial: int) -> tuple[np.ndarray, np.ndarray]:
    """Radii sqrt(t_i) and weights of n_radial-point Gauss-Legendre in t on [0, 1].

    Cached, so rules of one radial size share read-only arrays instead of
    solving leggauss's eigenproblem again (4.6 ms at 160 points).
    """
    x, w = np.polynomial.legendre.leggauss(n_radial)
    radial_r, radial_w = np.sqrt(0.5 * (x + 1.0)), 0.5 * w
    radial_r.flags.writeable = radial_w.flags.writeable = False
    return radial_r, radial_w


def check_rule_for_degree(rule: DiskQuadrature, degree: int) -> float:
    """Return the worst moment error up to ``degree`` and warn if large.

    Sampled at the corner exponents, which is where a tensor rule first
    fails: pure radial (a = b) at the top degree and the fully
    lopsided harmonics (a, 0) / (0, b).
    """
    probes = [(degree, degree), (degree, 0), (0, degree)]
    worst = 0.0
    for a, b in probes:
        worst = max(worst, abs(rule.rule_moment(a, b) - monomial_moment(a, b)))
    if worst > MOMENT_TOL:
        warnings.warn(
            f"quadrature rule ({rule.n_radial} radial x {rule.n_angular} angular)"
            f" misses monomial moments of degree {degree} by {worst:.3e}",
            QuadratureWarning, stacklevel=2)
    return worst
