import numpy as np
import pytest

from berezinlab.quadrature import (DiskQuadrature, QuadratureWarning,
                                   build_rule, check_rule_for_degree,
                                   monomial_moment)


class TestMomentOracle:
    def test_basic_values(self):
        assert monomial_moment(0, 0) == 1.0
        assert monomial_moment(1, 1) == pytest.approx(0.5)
        assert monomial_moment(2, 1) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            monomial_moment(-1, 0)


class TestBuildRule:
    def test_weights_positive_and_normalized(self, default_rule):
        assert np.all(default_rule.weights > 0)
        assert np.sum(default_rule.weights) == pytest.approx(1.0, abs=1e-14)

    def test_total_mass(self, default_rule):
        assert default_rule.integrate(lambda w: np.ones_like(w)) == pytest.approx(1.0)

    def test_quadratic_moment(self, default_rule):
        got = default_rule.integrate(lambda w: np.abs(w) ** 2)
        assert got == pytest.approx(0.5, abs=1e-13)

    def test_quartic_and_mixed_moments(self, default_rule):
        quartic = default_rule.integrate(lambda w: w ** 2 * np.conj(w) ** 2)
        assert quartic == pytest.approx(1.0 / 3.0, abs=1e-13)
        mixed = default_rule.integrate(lambda w: w * np.conj(w) ** 2)
        assert mixed == pytest.approx(0.0, abs=1e-13)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            build_rule(0, 4)
        with pytest.raises(ValueError):
            build_rule(4, 0)

    def test_exactness_degrees(self):
        rule = build_rule(10, 32)
        assert rule.radial_exactness == 19
        assert rule.angular_exactness == 31


class TestIntegrate:
    def test_scalar_only_evaluator_raises(self, default_rule):
        # complex() rejects the node array; no point-by-point retry hides it
        with pytest.raises(TypeError):
            default_rule.integrate(lambda w: abs(complex(w)) ** 2)

    def test_wrong_shape_evaluator_raises(self, default_rule):
        grid = (default_rule.n_radial, default_rule.n_angular)
        with pytest.raises(ValueError, match=r"\(80, 256\).*\(20480,\)"):
            default_rule.integrate(lambda w: np.abs(w.reshape(grid)) ** 2)
        with pytest.raises(ValueError, match=r"\(\).*\(20480,\)"):
            default_rule.integrate(lambda w: 0.5)

    def test_accepts_precomputed_values(self, default_rule):
        values = np.abs(default_rule.nodes) ** 2
        assert default_rule.integrate(values) == pytest.approx(0.5, abs=1e-13)

    def test_node_grid_shape(self, default_rule):
        grid = default_rule.node_grid()
        assert grid.shape == (default_rule.n_radial, default_rule.n_angular)
        assert np.allclose(grid.ravel(), default_rule.nodes)


class TestMomentFidelity:
    def test_rule_moment_matches_grid_evaluation(self, default_rule):
        rng = np.random.default_rng(8)
        for _ in range(10):
            a, b = int(rng.integers(0, 20)), int(rng.integers(0, 20))
            grid_val = default_rule.integrate(lambda w: w ** a * np.conj(w) ** b)
            assert default_rule.rule_moment(a, b) == pytest.approx(grid_val, abs=1e-14)

    def test_doubling_stability(self, default_rule):
        doubled = build_rule(2 * default_rule.n_radial, 2 * default_rule.n_angular)
        rng = np.random.default_rng(9)
        coeffs = rng.uniform(-1, 1, (5, 5))
        def f(w):
            total = np.zeros_like(w)
            for j in range(5):
                for k in range(5):
                    total = total + coeffs[j, k] * w ** j * np.conj(w) ** k
            return total
        assert abs(default_rule.integrate(f) - doubled.integrate(f)) < 1e-10


class TestInsufficiencyWarning:
    def test_warns_on_coarse_rule(self):
        rule = build_rule(4, 8)
        with pytest.warns(QuadratureWarning):
            check_rule_for_degree(rule, 14)

    def test_silent_when_adequate(self, default_rule):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            residual = check_rule_for_degree(default_rule, 40)
        assert residual < 1e-13
