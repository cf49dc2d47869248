import math

import numpy as np
import pytest

from berezinlab import berezin as bz
from berezinlab import suites
from berezinlab.diskgeom import DISK_RADIUS_MAX, mobius_eval
from berezinlab.operators import (TruncatedOperator, semicommutator_defect,
                                  toeplitz_exact)
from berezinlab.quadrature import build_rule
from berezinlab.symbols import BlaschkeProduct, MonomialSymbol

W = MonomialSymbol.identity()
WBAR = MonomialSymbol.monomial(0, 1)
MOD2 = MonomialSymbol.monomial(1, 1)
ONE = MonomialSymbol.constant(1.0)


def kernel_density(z, w):
    """|k_z(w)|^2 = (1 - |z|^2)^2 / |1 - conj(z) w|^4, the direct formula."""
    return (1 - abs(z) ** 2) ** 2 / np.abs(1 - np.conj(z) * w) ** 4


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            bz.BerezinConfig(truncation=4)


class TestOperatorRoute:
    def test_center_reads_corner_entry(self):
        rng = np.random.default_rng(20)
        op = TruncatedOperator(rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)))
        assert bz.berezin_operator(op, 0.0) == pytest.approx(op.matrix[0, 0])

    def test_identity_transforms_to_one(self):
        op = TruncatedOperator(np.eye(64))
        for z in (0.0, 0.3 - 0.2j, 0.7):
            assert bz.berezin_operator(op, z) == pytest.approx(1.0, abs=1e-8)

    def test_modulus_symbol_at_center(self):
        op = toeplitz_exact(MOD2, 64)
        assert bz.berezin_operator(op, 0.0) == pytest.approx(0.5)

    def test_tail_bound_monotone_in_radius(self):
        assert bz.operator_tail_bound(64, 0.3) < bz.operator_tail_bound(64, 0.9)
        assert bz.operator_flag(64, 0.5) == ""
        assert bz.operator_flag(64, 0.98) == "truncation-unreliable"


class TestSeriesRoute:
    def test_constant_is_fixed(self):
        for z in (0.0, 0.5j, 0.9):
            assert bz.berezin_symbol_series(ONE, z) == pytest.approx(1.0)

    def test_modulus_at_center(self):
        assert bz.berezin_symbol_series(MOD2, 0.0) == pytest.approx(0.5)

    def test_modulus_at_quarter(self):
        # recompute the stated series value sum_m (m+1)^2 0.25^m/(m+2)
        # independently and compare both against it
        m = np.arange(0, 200)
        partial = float(np.sum((m + 1.0) ** 2 * 0.25 ** m / (m + 2.0)))
        want = 0.5625 * partial
        assert want == pytest.approx(0.58914, abs=5e-6)
        assert bz.berezin_symbol_series(MOD2, 0.5) == pytest.approx(want, abs=1e-12)

    def test_harmonic_symbols_fixed(self):
        u = MonomialSymbol({(3, 0): 1 - 2j, (0, 2): 0.5})
        rng = np.random.default_rng(21)
        for _ in range(10):
            z = 0.9 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            assert bz.berezin_symbol_series(u, z) == pytest.approx(
                u.evaluate(z), abs=1e-10)

    def test_conjugate_index_order(self):
        # transform of conj(u) is the conjugate of the transform of u
        u = MonomialSymbol({(2, 1): 1 + 1j})
        z = 0.4 - 0.3j
        lhs = bz.berezin_symbol_series(u.conjugate(), z)
        rhs = np.conj(bz.berezin_symbol_series(u, z))
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_convergence_guard(self, monkeypatch):
        monkeypatch.setattr(bz, "SERIES_MAX_TERMS", 1024)
        with pytest.raises(RuntimeError):
            bz.berezin_symbol_series(MOD2, 0.9999)


def _per_monomial_series(u, z):
    """Reference: each monomial series summed in its own blocks."""
    def monomial(j, k, zv, t):
        if j < k:
            return monomial(k, j, zv, t).conjugate()
        d, acc, m0 = j - k, 0.0, 0
        while True:
            m = np.arange(m0, m0 + 512, dtype=float)
            acc += float(np.sum((m + 1.0) * (m + d + 1.0) * t ** m / (j + m + 1.0)))
            m0 += 512
            if t ** m0 * (m0 * (1.0 - t) + 1.0) < bz.SERIES_TOL:
                return (1.0 - t) ** 2 * zv ** d * acc

    zv = complex(z)
    t = abs(zv) ** 2
    total = 0j
    for (j, k), c in u.coeffs.items():
        total += c * monomial(j, k, zv, t)
    return total


class TestSharedSeriesTable:
    @pytest.mark.parametrize("radius", [0.0, 0.3, 0.8, 0.99, 0.999])
    def test_matches_per_monomial_sums_bitwise(self, radius):
        rng = np.random.default_rng(44)
        symbols = [suites.random_symbol(rng, max_degree=8, n_terms=8) for _ in range(6)]
        symbols.append(MonomialSymbol({(3, 1): 1.0, (0, 2): 0.5j, (40, 10): 1.0}))
        assert any(j < k for u in symbols for j, k in u.coeffs)
        for u in symbols:
            for angle in (0.0, 1.1, -2.5):
                z = radius * np.exp(1j * angle)
                assert bz.berezin_symbol_series(u, z) == _per_monomial_series(u, z)

    def test_zero_symbol(self):
        for z in (0.0, 0.5j, 0.99999):
            value = bz.berezin_symbol_series(MonomialSymbol({}), z)
            assert value == 0j and isinstance(value, complex)


class TestExactRoute:
    def test_matches_series_broadly(self):
        rng = np.random.default_rng(22)
        for _ in range(8):
            u = MonomialSymbol({(int(rng.integers(0, 5)), int(rng.integers(0, 5))):
                                complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                                for _ in range(5)})
            for _ in range(5):
                z = 0.93 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
                assert bz.berezin_symbol_exact(u, z) == pytest.approx(
                    bz.berezin_symbol_series(u, z), abs=1e-10)

    def test_usable_very_near_boundary(self):
        r = 1.0 - 2.0 ** -30
        val = bz.berezin_symbol_exact(MOD2, r)
        assert val.real == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("j,k", [(30, 30), (40, 40), (40, 10), (10, 40)])
    def test_high_degree_keeps_its_digits(self, j, k):
        # Past |z|^2 = 0.5 the log series less its first j terms cancels
        # once that tail is small: w^40 conj(w)^40 kept no correct digit at
        # |z| = 0.72 and two at 0.75.
        # The reference is the series route's sum, correctly rounded and cut
        # at 4000 terms, by which t^m has underflowed to zero at every r here.
        u = MonomialSymbol({(j, k): 1.0})
        d, top = abs(j - k), max(j, k)
        for r in (0.72, 0.75, 0.8, 0.9):
            t = r * r
            series = math.fsum((m + 1) * (m + d + 1) * t ** m / (top + m + 1)
                               for m in range(4000))
            for z in (r, r * np.exp(1.1j)):
                want = (1 - t) ** 2 * (z if j >= k else np.conj(z)) ** d * series
                assert abs(bz.berezin_symbol_exact(u, z) - want) <= 1e-12 * abs(want)


class TestQuadratureRoute:
    def test_constant(self, default_rule):
        assert bz.berezin_symbol_quadrature(ONE, 0.3 + 0.2j, default_rule) == \
            pytest.approx(1.0, abs=1e-12)

    def test_harmonic_fixed_point(self, default_rule):
        assert bz.berezin_symbol_quadrature(W, 0.5, default_rule) == \
            pytest.approx(0.5, abs=1e-10)

    def test_matches_series_random(self, default_rule):
        rng = np.random.default_rng(23)
        for _ in range(5):
            u = MonomialSymbol({(int(rng.integers(0, 4)), int(rng.integers(0, 4))):
                                complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                                for _ in range(5)})
            for _ in range(4):
                z = 0.8 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
                got = bz.berezin_symbol_quadrature(u, z, default_rule)
                assert got == pytest.approx(bz.berezin_symbol_series(u, z), abs=1e-8)

    def test_accepts_precomputed_values(self, default_rule):
        values = MOD2.evaluate_array(default_rule.nodes)
        got = bz.berezin_symbol_quadrature(values, 0.25, default_rule)
        assert got == pytest.approx(bz.berezin_symbol_series(MOD2, 0.25), abs=1e-10)

    def test_zero_symbol(self, default_rule):
        assert bz.berezin_symbol_quadrature(MonomialSymbol(), 0.4j, default_rule) == 0.0

    def test_other_inputs_rejected(self, default_rule):
        values = MOD2.evaluate_array(default_rule.nodes)
        for bad in (MOD2.evaluate_array, BlaschkeProduct((0.5,)), values[:-1],
                    values.reshape(default_rule.n_radial, -1)):
            with pytest.raises(TypeError, match="MonomialSymbol or an array"):
                bz.berezin_symbol_quadrature(bad, 0.3, default_rule)

    def test_density_grid_matches_kernel_density(self, default_rule):
        rng = np.random.default_rng(41)
        points = [0.0, 0.9, -0.9j] + list(suites.sample_points(rng, 20, 0.9))
        for z in points:
            grid = bz._kernel_density_grid(z, default_rule)
            ref = kernel_density(z, default_rule.nodes)
            assert grid.shape == (default_rule.n_radial, default_rule.n_angular)
            assert np.max(np.abs(grid.ravel() - ref) / ref) <= 1e-13

    @pytest.mark.parametrize("z, tol", [(0.999, 1e-14), (-0.999j, 1e-14),
                                        (0.999 * np.exp(0.7j), 1e-12)])
    def test_density_grid_near_rim_against_40_digits(self, default_rule, z, tol):
        # The whole ring through the worst (largest-density) node.  At a
        # generic angle the rounding of arg z and |z| alone moves the true
        # density of the double z by about 1e-13 there.
        mpmath = pytest.importorskip("mpmath")
        z = complex(z)
        grid = bz._kernel_density_grid(z, default_rule)
        ring = int(np.argmax(grid.max(axis=1)))
        n = default_rule.n_angular
        with mpmath.workdps(40):
            zm = mpmath.mpc(z.real, z.imag)
            r = mpmath.mpf(float(default_rule.radial_r[ring]))
            for l in range(n):
                w = r * mpmath.expjpi(mpmath.mpf(2 * l) / n)
                exact = (1 - abs(zm) ** 2) ** 2 / abs(1 - mpmath.conj(zm) * w) ** 4
                assert abs(grid[ring, l] - exact) <= tol * exact

    def test_symbol_branch_matches_node_values(self, default_rule):
        rng = np.random.default_rng(42)
        for _ in range(6):
            u = suites.random_symbol(rng, max_degree=8)
            values = u.evaluate_array(default_rule.nodes)
            rim = [r * np.exp(1j * a) for r in (0.99, 0.999) for a in (0.0, 1.3, -2.9)]
            for z in list(suites.sample_points(rng, 5, 0.9)) + rim:
                by_symbol = bz.berezin_symbol_quadrature(u, z, default_rule)
                by_values = bz.berezin_symbol_quadrature(values, z, default_rule)
                assert abs(by_symbol - by_values) <= 1e-13 * max(1.0, abs(by_values))

    def test_both_branches_alias_alike_on_coarse_rule(self):
        # frequencies |j - k| >= n_angular fold onto retained ones
        rule = build_rule(12, 8)
        for u in (MonomialSymbol({(8, 0): 1.0}),
                  MonomialSymbol({(9, 1): 1.0, (0, 10): 0.5j}),
                  MonomialSymbol({(3, 12): 1 - 1j, (8, 0): 0.25, (1, 1): 1.0})):
            values = u.evaluate_array(rule.nodes)
            for z in (0.3, 0.5 - 0.2j, -0.6j):
                by_symbol = bz.berezin_symbol_quadrature(u, z, rule)
                by_values = bz.berezin_symbol_quadrature(values, z, rule)
                assert abs(by_symbol - by_values) <= 1e-14
                assert abs(by_symbol - bz.berezin_symbol_exact(u, z)) > 0.1
                assert bz.quadrature_flag(rule, z, u.total_degree) == "quadrature-unreliable"

    def test_tail_estimate_grows_towards_boundary(self, default_rule):
        inner = bz.quadrature_tail_estimate(default_rule, 0.5, 2)
        outer = bz.quadrature_tail_estimate(default_rule, 0.97, 2)
        assert inner < 1e-6 < outer
        assert bz.quadrature_flag(default_rule, 0.5, 2) == ""
        assert bz.quadrature_flag(default_rule, 0.97, 2) == "quadrature-unreliable"


class TestMeanValueRoute:
    def test_harmonic_mean_value(self, default_rule):
        u = MonomialSymbol({(2, 0): 1.0, (0, 1): -0.5j})
        for z in (0.0, 0.4, -0.3 + 0.5j):
            assert bz.mean_value_transform(u, z, default_rule) == pytest.approx(
                u.evaluate(z), abs=1e-10)

    def test_constant(self, default_rule):
        assert bz.mean_value_transform(ONE, 0.6j, default_rule) == pytest.approx(1.0)

    def test_matches_series_for_modulus(self, default_rule):
        got = bz.mean_value_transform(MOD2, 0.5, default_rule)
        assert got == pytest.approx(bz.berezin_symbol_series(MOD2, 0.5), abs=1e-8)

    @pytest.mark.parametrize("shape", [(80, 256), (50, 100), (30, 100)])
    def test_blocks_match_whole_array(self, shape):
        # 20 480 nodes fill five slices, 5000 end in a partial one and
        # 3000 fit in one
        rule = build_rule(*shape)
        rng = np.random.default_rng(43)
        for _ in range(5):
            u = suites.random_symbol(rng, max_degree=8)
            for z in (0.0, 0.3, 0.9j, 0.99, 0.999 * np.exp(2j)):
                whole = rule.integrate(u.compose_mobius_evaluator(z))
                got = bz.mean_value_transform(u, z, rule)
                assert abs(got - whole) <= 1e-15 * max(1.0, abs(whole))


class TestProducts:
    def test_single_constant(self):
        out = bz.berezin_of_product([ONE], 0.3, 64)
        assert out.value == pytest.approx(1.0, abs=1e-10)
        assert out.residual < 1e-10

    def test_shift_pair_at_center(self):
        out = bz.berezin_of_product([W, WBAR], 0.0, 64)
        assert out.value == pytest.approx(0.0, abs=1e-12)
        assert out.residual < 1e-8

    def test_analytic_multiplicativity(self):
        for z in (0.2, 0.4j, -0.3 + 0.3j):
            out = bz.berezin_of_product([W, W], z, 64)
            assert out.value == pytest.approx(z ** 2, abs=1e-8)
            assert out.residual < 1e-8

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bz.berezin_of_product([], 0.1, 16)


class TestLaplacians:
    def test_fd_on_square_modulus(self):
        assert bz.laplacian_fd(lambda z: abs(z) ** 2, 0.2 + 0.1j) == \
            pytest.approx(4.0, abs=1e-6)

    def test_fd_on_harmonic(self):
        assert bz.laplacian_fd(lambda z: z.real, 0.3j) == \
            pytest.approx(0.0, abs=1e-6)

    def test_fd_stencil_guard(self):
        # the relative step keeps the stencil inside |z| < 1, but at the
        # largest admitted radius its outer point passes DISK_RADIUS_MAX
        with pytest.raises(bz.StencilOutOfDiskError):
            bz.laplacian_fd(lambda z: 0.0, DISK_RADIUS_MAX)

    def test_operator_form_identity(self):
        assert bz.laplacian_berezin_at_zero_operator(TruncatedOperator(np.eye(8))) == 0.0

    def test_operator_form_modulus(self):
        got = bz.laplacian_berezin_at_zero_operator(toeplitz_exact(MOD2, 8))
        assert got == pytest.approx(4.0 / 3.0, abs=1e-14)

    def test_operator_form_needs_two_modes(self):
        with pytest.raises(ValueError):
            bz.laplacian_berezin_at_zero_operator(TruncatedOperator(np.eye(1)))

    def test_symbol_form(self):
        assert bz.laplacian_berezin_at_zero_symbol(ONE) == 0.0
        assert bz.laplacian_berezin_at_zero_symbol(MOD2) == pytest.approx(4.0 / 3.0)
        harmonic = MonomialSymbol({(4, 0): 2.0, (0, 1): 1j})
        assert bz.laplacian_berezin_at_zero_symbol(harmonic) == pytest.approx(0.0)

    def test_fd_meets_closed_forms(self):
        got = bz.laplacian_fd(lambda z: bz.berezin_symbol_series(MOD2, z), 0.0)
        assert got == pytest.approx(4.0 / 3.0, abs=1e-5)

    def test_invariant_laplacian_harmonic_field(self):
        assert bz.invariant_laplacian(lambda z: z.imag, 0.2) == \
            pytest.approx(0.0, abs=1e-6)

    def test_invariant_laplacian_compose_oracle(self):
        # (1-|z|^2)^2 (Delta f)(z) equals Delta(f o phi_z) at the origin
        field = lambda z: bz.berezin_symbol_series(MOD2, z)
        z = 0.45 - 0.15j
        lhs = bz.invariant_laplacian(field, z)
        composed = lambda p: field(mobius_eval(z, p))
        rhs = bz.laplacian_fd(composed, 0.0)
        assert lhs == pytest.approx(rhs, abs=1e-5)

    def test_defect_integral_equals_invariant_laplacian(self, default_rule):
        u = MonomialSymbol({(1, 1): 0.5, (2, 0): 0.3j})
        field = lambda z: bz.berezin_symbol_series(u, z)
        for z in (0.0, 0.4, 0.3 + 0.4j):
            lhs = bz.harmonic_defect_integral(u, z, default_rule)
            rhs = bz.invariant_laplacian(field, z)
            assert lhs == pytest.approx(rhs, abs=1e-5)

    def test_defect_integral_blocks_match_whole_array(self, default_rule):
        u = MonomialSymbol({(1, 1): 0.5, (2, 0): 0.3j, (0, 3): -1.0})
        for z in (0.0, 0.4, 0.3 + 0.4j, -0.99j):
            composed = u.compose_mobius_evaluator(z)
            whole = 8.0 * default_rule.integrate(
                lambda w: composed(w) * (2.0 * np.abs(w) ** 2 - 1.0))
            got = bz.harmonic_defect_integral(u, z, default_rule)
            # the integrand is up to 8 * 2.5 in size and cancels to 3e-3
            assert abs(got - whole) <= 1e-14

    def test_factored_laplacian(self):
        u = MonomialSymbol({(1, 0): 1.0, (0, 1): 1.0})
        v = MonomialSymbol({(1, 0): 1j, (0, 1): -1j})
        # u*v is harmonic, so the factored quantity vanishes identically
        assert bz.factored_harmonic_invariant_laplacian([u, v], 0.5) == \
            pytest.approx(0.0)
        got = bz.factored_harmonic_invariant_laplacian([W, WBAR], 0.5)
        # Delta(|w|^2) = 4, scaled by (1 - 0.25)^2
        assert got == pytest.approx(4 * 0.75 ** 2)
        with pytest.raises(ValueError):
            bz.factored_harmonic_invariant_laplacian([MOD2], 0.1)


class TestLocalization:
    def test_constant_vanishes(self):
        # the squared expansion cancels to roundoff; the norm is its sqrt
        assert bz.localization_norm(MonomialSymbol.constant(2 + 1j), 0.3) == \
            pytest.approx(0.0, abs=1e-7)

    def test_coordinate_at_center(self):
        assert bz.localization_norm(W, 0.0) == pytest.approx(math.sqrt(0.5))

    def test_decays_radially(self):
        # value^2 = (|w|^2)~(z) - |z|^2 for u = w; falls toward the boundary
        at_09 = bz.localization_norm(W, 0.9)
        at_099 = bz.localization_norm(W, 0.99)
        square = bz.berezin_symbol_exact(MOD2, 0.9).real - 0.81
        assert at_09 ** 2 == pytest.approx(square, abs=1e-10)
        assert at_09 > at_099 > 0.0
        assert at_099 < 0.05

    def test_routes_agree(self, default_rule):
        # independent route: the norm squared is the integral of
        # |u - u(z)|^2 |k_z|^2 dA, here by the default quadrature rule
        u = MonomialSymbol({(1, 0): 1.0, (1, 1): -0.5})
        values = u.evaluate_array(default_rule.nodes)
        for z in (0.6, 0.3 + 0.5j, 0.9):
            density = kernel_density(z, default_rule.nodes)
            square = np.dot(default_rule.weights, np.abs(values - u.evaluate(z)) ** 2 * density)
            assert bz.localization_norm(u, z) == pytest.approx(math.sqrt(square), abs=1e-10)


class TestDecayProfiles:
    def test_zero_field(self):
        profile = bz.decay_profile(lambda z: 0.0, radii=bz.dyadic_radii(5))
        assert np.all(profile.values() == 0)

    def test_harmonic_difference_vanishes(self):
        u = MonomialSymbol({(2, 0): 1 - 1j, (0, 1): 0.5})
        field = lambda z: bz.berezin_symbol_exact(u, z) - u.evaluate(z)
        profile = bz.decay_profile(field, bz.PathSpec(angle=0.7), bz.dyadic_radii(12))
        assert np.max(profile.magnitudes()) < 1e-8

    def test_invariant_weight_arithmetic(self):
        field = lambda z: (1 - abs(z) ** 2) ** 2
        profile = bz.decay_profile(field, radii=[0.9])
        assert profile.values()[0].real == pytest.approx(0.0361)

    def test_dyadic_schedule(self):
        radii = bz.dyadic_radii(3)
        assert radii == [0.5, 0.75, 0.875]
        with pytest.raises(ValueError):
            bz.dyadic_radii(40)

    def test_nontangential_path_stays_inside(self):
        path = bz.PathSpec(angle=1.0, aperture=0.9)
        for r in bz.dyadic_radii(12):
            assert abs(path.point(r)) < 1.0
        with pytest.raises(ValueError):
            bz.PathSpec(aperture=2.0)

    def test_flags_recorded(self):
        profile = bz.decay_profile(lambda z: 1.0, radii=bz.dyadic_radii(8),
                                   flag_fn=lambda z: bz.operator_flag(64, z))
        flags = [s.flag for s in profile.samples]
        assert flags[0] == "" and flags[-1] == "truncation-unreliable"
        assert len(profile.reliable().samples) < len(profile.samples)

    def test_rows_format(self):
        profile = bz.decay_profile(lambda z: 1j, radii=[0.5])
        t, zr, zi, vr, vi, flag = profile.rows()[0]
        assert (t, zr, zi, vr, vi, flag) == (0.5, 0.5, 0.0, 0.0, 1.0, "")


class TestCommutatorIndicator:
    def test_coordinate_pair_decays(self):
        report = bz.commutator_compactness_indicator(W, W, bz.dyadic_radii(10), dim=64)
        assert report.verdict == "decay-consistent"
        mags = report.deriv_profile.magnitudes()
        for k, value in enumerate(mags, start=1):
            r = 1 - 2.0 ** -k
            assert value == pytest.approx((1 - r * r) ** 2, abs=1e-12)

    def test_constant_profile_identically_zero(self):
        report = bz.commutator_compactness_indicator(
            MonomialSymbol.constant(1.0), W, bz.dyadic_radii(6), dim=32)
        assert np.max(report.deriv_profile.magnitudes()) == 0.0
        assert report.verdict == "decay-consistent"

    def test_blaschke_floor_matches_pseudohyperbolic_product(self):
        zeros = [1 - 2.0 ** -k for k in range(1, 9)]
        b = BlaschkeProduct(zeros)
        report = bz.commutator_compactness_indicator(b, b, bz.dyadic_radii(8), dim=32)
        got = {a: abs(v) for a, v in report.zero_samples}
        for j, a in enumerate(zeros):
            delta = np.prod([abs((zeros[k] - a) / (1 - zeros[k] * a))
                             for k in range(len(zeros)) if k != j])
            assert got[a] == pytest.approx(delta ** 2, rel=1e-9)
        assert report.residuals["zero_floor"] > 0

    def test_rejects_nonanalytic(self):
        with pytest.raises(ValueError):
            bz.commutator_compactness_indicator(WBAR, W, bz.dyadic_radii(3), dim=16)


class TestCovarianceField:
    def test_parity_case(self):
        op = toeplitz_exact(MOD2, 64)
        check = bz.covariance_field_check(op, 0.0, 0.35 - 0.1j)
        assert check.value_residual < 1e-8

    def test_identity_operator(self):
        check = bz.covariance_field_check(TruncatedOperator(np.eye(64)), 0.4 + 0.1j, 0.2j)
        assert check.value_residual < 1e-8
        assert check.laplacian_residual < 1e-8

    def test_generic_point(self):
        op = toeplitz_exact(MOD2, 64)
        check = bz.covariance_field_check(op, 0.3, 0.3)
        assert check.value_residual < 1e-5
        assert check.laplacian_residual < 1e-5
        assert check.flag == ""

    def test_flags_unreliable_images(self):
        op = toeplitz_exact(MOD2, 16)
        check = bz.covariance_field_check(op, 0.7, -0.7)
        assert check.flag == "truncation-unreliable"


class TestInjectivityFit:
    def test_recovers_random_operator(self):
        rng = np.random.default_rng(24)
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        m /= np.linalg.norm(m)
        op = TruncatedOperator(m)
        fitted = bz.fit_operator_from_berezin(lambda z: bz.berezin_operator(op, z), 6)
        assert np.max(np.abs(fitted.matrix - m)) < 1e-8

    def test_semicommutator_transform_identity(self):
        # (uv)~ - u v equals the transform of the defect, pointwise
        u = MonomialSymbol({(1, 0): 1.0, (0, 1): 0.5j})
        v = MonomialSymbol({(0, 2): 1.0, (1, 0): -0.25})
        defect = semicommutator_defect(u, v, 64)
        for z in (0.0, 0.3, 0.5j, -0.4 + 0.3j):
            lhs = bz.berezin_symbol_series(u * v, z) - u.evaluate(z) * v.evaluate(z)
            rhs = bz.berezin_operator(defect, z)
            assert lhs == pytest.approx(rhs, abs=1e-8)
