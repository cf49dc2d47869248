import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berezinlab.berezin import kernel_coefficients
from berezinlab.diskgeom import (DISK_RADIUS_MAX, DiskDomainError, disk_gap, disk_value,
                                 mobius_eval)
from conftest import node_weights

disk_points = st.complex_numbers(max_magnitude=0.95, allow_infinity=False,
                                 allow_nan=False)
# 1 - 2^-k at any angle, out to k = 39.5 where 1 - |z|^2 keeps about 12 digits of |z|
rim_points = st.builds(lambda k, angle: complex((1.0 - 2.0 ** -k) * math.cos(angle),
                                                (1.0 - 2.0 ** -k) * math.sin(angle)),
                       st.floats(0.0, 39.5), st.floats(-math.pi, math.pi))


def mobius_deriv_fd(z, w, h=1e-6):
    """Central difference of phi_z at w."""
    return (mobius_eval(z, w + h) - mobius_eval(z, w - h)) / (2 * h)


def kernel_series(z, w, dim=400):
    """k_z(w) summed from its orthonormal coefficients: sum_n c_n sqrt(n+1) w^n."""
    c = kernel_coefficients(z, dim)
    return complex(np.sum(c * np.sqrt(np.arange(1.0, dim + 1)) * complex(w) ** np.arange(dim)))


def bergman_kernel(z, w):
    """The closed form K_z(w) = 1 / (1 - conj(z) w)^2."""
    return 1.0 / (1.0 - np.conj(z) * w) ** 2


class TestDiskValue:
    def test_accepts_interior(self):
        p = disk_value(0.3 + 0.4j)
        assert p == 0.3 + 0.4j and type(p) is complex
        assert abs(p) == pytest.approx(0.5)

    def test_rejects_boundary_and_outside(self):
        for bad in (1.0, -1.0, 1.5j, 2.0 + 2.0j, 1.0 - 5e-13):
            with pytest.raises(DiskDomainError, match="exceeds the allowed disk radius"):
                disk_value(bad)

    def test_rejects_nan(self):
        with pytest.raises(DiskDomainError, match="disk point must be finite"):
            disk_value(complex("nan"))

    def test_boundary_margin(self):
        disk_value(1.0 - 2e-12)  # just inside the allowed radius
        assert DISK_RADIUS_MAX < 1.0


class TestDiskGap:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(z=st.one_of(rim_points, st.complex_numbers(max_magnitude=DISK_RADIUS_MAX,
                                                      allow_infinity=False, allow_nan=False)))
    def test_correctly_rounded(self, z):
        x, y = Fraction(z.real), Fraction(z.imag)
        assert disk_gap(z) == float(1 - x * x - y * y)

    def test_validates_the_point(self):
        assert disk_gap(np.complex128(0.6 + 0.4j)) == disk_gap(0.6 + 0.4j)
        with pytest.raises(DiskDomainError):
            disk_gap(1.0)


class TestMobius:
    def test_at_zero_gives_z(self):
        assert mobius_eval(0.3, 0.0) == pytest.approx(0.3)

    def test_vanishes_at_z(self):
        assert mobius_eval(0.3, 0.3) == pytest.approx(0.0)

    def test_involution_example(self):
        z, w = 0.5j, 0.2
        assert mobius_eval(z, mobius_eval(z, w)) == pytest.approx(w, abs=1e-12)

    def test_result_inside_disk(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            z = 0.9 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
            w = 0.9 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
            assert abs(mobius_eval(z, w)) < 1.0

    @settings(max_examples=60, deadline=None)
    @given(z=disk_points, w=disk_points)
    def test_involution_property(self, z, w):
        assert abs(mobius_eval(z, mobius_eval(z, w)) - w) < 1e-12


class TestMobiusDerivative:
    """phi_z' = (|z|^2 - 1) / (1 - conj(z) w)^2, the derivative of mobius_eval."""

    def test_at_origin_is_minus_one(self):
        assert mobius_deriv_fd(0.0, 0.37 - 0.11j) == pytest.approx(-1.0)

    def test_formula_at_zero(self):
        assert mobius_deriv_fd(0.5, 0.0) == pytest.approx(-0.75)

    def test_matches_central_difference(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            z = 0.8 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
            w = 0.8 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
            closed = (abs(z) ** 2 - 1.0) / (1.0 - np.conj(z) * w) ** 2
            assert abs(closed - mobius_deriv_fd(z, w)) < 1e-8


class TestKernels:
    """k_z as the package builds it (``kernel_coefficients``) against K_z's closed form."""

    def test_center_kernel_is_one(self):
        for w in (0.0, 0.5, -0.2 + 0.7j):
            assert kernel_series(0.0, w) == pytest.approx(1.0)

    def test_diagonal_value(self):
        # K_z(z) = 1 / (1 - |z|^2)^2
        assert kernel_series(0.5, 0.5) / 0.75 == pytest.approx(16.0 / 9.0)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            z = 0.9 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
            w = 0.9 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
            kzw = kernel_series(z, w) / (1 - abs(z) ** 2)
            kwz = kernel_series(w, z) / (1 - abs(w) ** 2)
            assert kzw == pytest.approx(np.conj(kwz), abs=1e-12)

    def test_normalized_scaling(self):
        z, w = 0.6j, 0.1 - 0.3j
        assert kernel_series(z, w) == pytest.approx(
            bergman_kernel(z, w) * (1 - abs(z) ** 2))

    def test_normalized_at_center(self):
        assert kernel_series(0.0, 0.77j) == pytest.approx(1.0)

    def test_unit_mass_of_density(self, default_rule):
        # ||k_z||_2 = 1, checked through the quadrature rule at z = 0.7
        density = (1 - 0.7 ** 2) ** 2 / np.abs(1 - 0.7 * default_rule.nodes) ** 4
        total = np.dot(node_weights(default_rule), density)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_modulus_identity(self):
        # (1 - |phi_z(w)|^2) = (1-|z|^2)(1-|w|^2)/|1 - conj(z) w|^2
        rng = np.random.default_rng(3)
        for _ in range(40):
            z = 0.9 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
            w = 0.9 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
            lhs = 1 - abs(mobius_eval(z, w)) ** 2
            rhs = (1 - abs(z) ** 2) * (1 - abs(w) ** 2) / abs(1 - np.conj(z) * w) ** 2
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_reproducing_property(self, default_rule):
        # integrating p against conj(K_z) evaluates p at z, to rule accuracy
        rng = np.random.default_rng(4)
        coeffs = rng.uniform(-1, 1, 9) + 1j * rng.uniform(-1, 1, 9)
        for z in (0.5, -0.3 + 0.6j, 0.8):
            p_nodes = np.polyval(coeffs[::-1], default_rule.nodes)
            kern = np.conj(1.0 / (1.0 - np.conj(z) * default_rule.nodes) ** 2)
            got = default_rule.integrate(p_nodes * kern)
            assert got == pytest.approx(np.polyval(coeffs[::-1], z), abs=1e-10)
