import math

import numpy as np
import pytest

from berezinlab import berezin as bz
from berezinlab.diskgeom import DiskDomainError, mobius_eval
from berezinlab.operators import (TruncatedOperator, identity_operator,
                                  semicommutator_defect, toeplitz_exact)
from berezinlab.symbols import BlaschkeProduct, MonomialSymbol

W = MonomialSymbol.identity()
WBAR = MonomialSymbol.monomial(0, 1)
MOD2 = MonomialSymbol.monomial(1, 1)
ONE = MonomialSymbol.constant(1.0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            bz.BerezinConfig(truncation=4)
        with pytest.raises(ValueError):
            bz.BerezinConfig(series_tol=0.0)
        with pytest.raises(ValueError):
            bz.BerezinConfig(fd_step=-1.0)


class TestOperatorRoute:
    def test_center_reads_corner_entry(self):
        rng = np.random.default_rng(20)
        op = TruncatedOperator(rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)))
        assert bz.berezin_operator(op, 0.0) == pytest.approx(op.matrix[0, 0])

    def test_identity_transforms_to_one(self):
        op = identity_operator(64)
        for z in (0.0, 0.3 - 0.2j, 0.7):
            assert bz.berezin_operator(op, z) == pytest.approx(1.0, abs=1e-8)

    def test_modulus_symbol_at_center(self):
        op = toeplitz_exact(MOD2, 64)
        assert bz.berezin_operator(op, 0.0) == pytest.approx(0.5)

    def test_tail_bound_monotone_in_radius(self):
        assert bz.operator_tail_bound(64, 0.3) < bz.operator_tail_bound(64, 0.9)
        assert bz.operator_route_reliable(64, 0.5, 1e-6)
        assert not bz.operator_route_reliable(64, 0.98, 1e-6)


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

    def test_convergence_guard(self):
        with pytest.raises(RuntimeError):
            bz.berezin_symbol_series(MOD2, 0.9999, tol=1e-15, max_terms=1024)


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

    def test_tail_estimate_grows_towards_boundary(self, default_rule):
        inner = bz.quadrature_tail_estimate(default_rule, 0.5, 2)
        outer = bz.quadrature_tail_estimate(default_rule, 0.97, 2)
        assert inner < 1e-6 < outer


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
    def test_fd_on_square_modulus(self, config):
        assert bz.laplacian_fd(lambda z: abs(z) ** 2, 0.2 + 0.1j, config) == \
            pytest.approx(4.0, abs=1e-6)

    def test_fd_on_harmonic(self, config):
        assert bz.laplacian_fd(lambda z: z.real, 0.3j, config) == \
            pytest.approx(0.0, abs=1e-6)

    def test_fd_stencil_guard(self):
        # the default relative step never exits the disk; a large step does
        wide = bz.BerezinConfig(fd_step=2.0)
        with pytest.raises(bz.StencilOutOfDiskError):
            bz.laplacian_fd(lambda z: 0.0, 0.9, wide)

    def test_operator_form_identity(self):
        assert bz.laplacian_berezin_at_zero_operator(identity_operator(8)) == 0.0

    def test_operator_form_modulus(self):
        got = bz.laplacian_berezin_at_zero_operator(toeplitz_exact(MOD2, 8))
        assert got == pytest.approx(4.0 / 3.0, abs=1e-14)

    def test_operator_form_needs_two_modes(self):
        with pytest.raises(ValueError):
            bz.laplacian_berezin_at_zero_operator(identity_operator(1))

    def test_symbol_form(self):
        assert bz.laplacian_berezin_at_zero_symbol(ONE) == 0.0
        assert bz.laplacian_berezin_at_zero_symbol(MOD2) == pytest.approx(4.0 / 3.0)
        harmonic = MonomialSymbol({(4, 0): 2.0, (0, 1): 1j})
        assert bz.laplacian_berezin_at_zero_symbol(harmonic) == pytest.approx(0.0)

    def test_fd_meets_closed_forms(self, config):
        field = bz.berezin_series_field(MOD2)
        got = bz.laplacian_fd(field, 0.0, config)
        assert got == pytest.approx(4.0 / 3.0, abs=1e-5)

    def test_invariant_laplacian_harmonic_field(self, config):
        assert bz.invariant_laplacian(lambda z: z.imag, 0.2, config) == \
            pytest.approx(0.0, abs=1e-6)

    def test_invariant_laplacian_compose_oracle(self, config):
        # (1-|z|^2)^2 (Delta f)(z) equals Delta(f o phi_z) at the origin
        field = bz.berezin_series_field(MOD2)
        z = 0.45 - 0.15j
        lhs = bz.invariant_laplacian(field, z, config)
        composed = lambda p: field(mobius_eval(z, p))
        rhs = bz.laplacian_fd(composed, 0.0, config)
        assert lhs == pytest.approx(rhs, abs=1e-5)

    def test_defect_integral_equals_invariant_laplacian(self, default_rule, config):
        u = MonomialSymbol({(1, 1): 0.5, (2, 0): 0.3j})
        field = bz.berezin_series_field(u)
        for z in (0.0, 0.4, 0.3 + 0.4j):
            lhs = bz.harmonic_defect_integral(u, z, default_rule)
            rhs = bz.invariant_laplacian(field, z, config)
            assert lhs == pytest.approx(rhs, abs=1e-5)

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
        at_099 = bz.localization_norm(W, 0.99, route="exact")
        square = bz.berezin_symbol_exact(MOD2, 0.9).real - 0.81
        assert at_09 ** 2 == pytest.approx(square, abs=1e-10)
        assert at_09 > at_099 > 0.0
        assert at_099 < 0.05

    def test_routes_agree(self):
        u = MonomialSymbol({(1, 0): 1.0, (1, 1): -0.5})
        assert bz.localization_norm(u, 0.6) == pytest.approx(
            bz.localization_norm(u, 0.6, route="exact"), abs=1e-10)

    def test_unknown_route(self):
        with pytest.raises(ValueError):
            bz.localization_norm(W, 0.1, route="fft")


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
        flagger = bz.operator_flagger(64, 1e-6)
        profile = bz.decay_profile(lambda z: 1.0, radii=bz.dyadic_radii(8),
                                   flag_fn=flagger)
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
    def test_parity_case(self, config):
        op = toeplitz_exact(MOD2, 64)
        check = bz.covariance_field_check(op, 0.0, 0.35 - 0.1j, config)
        assert check.value_residual < 1e-8

    def test_identity_operator(self, config):
        check = bz.covariance_field_check(identity_operator(64), 0.4 + 0.1j, 0.2j, config)
        assert check.value_residual < 1e-8
        assert check.laplacian_residual < 1e-8

    def test_generic_point(self, config):
        op = toeplitz_exact(MOD2, 64)
        check = bz.covariance_field_check(op, 0.3, 0.3, config)
        assert check.value_residual < 1e-5
        assert check.laplacian_residual < 1e-5
        assert check.flag == ""

    def test_flags_unreliable_images(self, config):
        op = toeplitz_exact(MOD2, 16)
        check = bz.covariance_field_check(op, 0.7, -0.7, config)
        assert check.flag == "truncation-unreliable"


class TestInjectivityFit:
    def test_recovers_random_operator(self):
        rng = np.random.default_rng(24)
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        m /= np.linalg.norm(m)
        fitted = bz.fit_operator_from_berezin(
            bz.berezin_operator_field(TruncatedOperator(m)), 6)
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
