import math

import numpy as np
import pytest

from berezinlab.quadrature import (DiskQuadrature, QuadratureWarning,
                                   build_rule, check_rule_for_degree,
                                   monomial_moment)
from conftest import node_weights


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
        assert np.all(default_rule.radial_w > 0)
        assert np.sum(default_rule.radial_w) == pytest.approx(1.0, abs=1e-14)

    def test_total_mass(self, default_rule):
        assert default_rule.integrate(np.ones_like(default_rule.nodes)) == pytest.approx(1.0)

    def test_quadratic_moment(self, default_rule):
        got = default_rule.integrate(np.abs(default_rule.nodes) ** 2)
        assert got == pytest.approx(0.5, abs=1e-13)

    def test_quartic_and_mixed_moments(self, default_rule):
        w = default_rule.nodes
        quartic = default_rule.integrate(w ** 2 * np.conj(w) ** 2)
        assert quartic == pytest.approx(1.0 / 3.0, abs=1e-13)
        mixed = default_rule.integrate(w * np.conj(w) ** 2)
        assert mixed == pytest.approx(0.0, abs=1e-13)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            build_rule(0, 4)
        with pytest.raises(ValueError):
            build_rule(4, 0)

    def test_exactness_degrees(self):
        # 10 Gauss points in t integrate t^19 exactly but not t^20; 32 angles
        # annihilate the harmonics e^{ik theta} for 0 < |k| <= 31 but not k = 32
        rule = build_rule(10, 32)
        assert rule.rule_moment(19, 19) == pytest.approx(1 / 20, abs=1e-15)
        assert abs(rule.rule_moment(20, 20) - 1 / 21) > 1e-14
        assert rule.rule_moment(31, 0) == 0
        assert rule.rule_moment(32, 0) == pytest.approx(1 / 17)


class TestIntegrate:
    def test_scalar_only_evaluator_raises(self, default_rule):
        # integrate takes node values; an evaluator is not called
        with pytest.raises(ValueError, match=r"\(\).*\(20480,\)"):
            default_rule.integrate(lambda w: abs(complex(w)) ** 2)

    def test_wrong_shape_evaluator_raises(self, default_rule):
        with pytest.raises(ValueError, match=r"\(2, 10240\).*\(20480,\)"):
            default_rule.integrate(np.abs(default_rule.nodes.reshape(2, -1)) ** 2)
        with pytest.raises(ValueError, match=r"\(\).*\(20480,\)"):
            default_rule.integrate(0.5)
        with pytest.raises(ValueError, match=r"\(80, 256\).*\(20480,\)"):
            default_rule.integrate(np.abs(default_rule.node_grid()) ** 2)

    @pytest.mark.parametrize("shape", [(80, 256), (160, 512)])
    def test_sum_is_pairwise(self, shape):
        # the weights' exact sum is 1 on both rules, where a BLAS dot with
        # complex ones reads 1 + 1.2e-14 and 1 + 2.5e-14 (one thread)
        rule = build_rule(*shape)
        assert math.fsum(node_weights(rule)) == 1.0
        assert rule.integrate(np.ones(rule.nodes.shape)) == 1.0

    @pytest.mark.parametrize("shape", [(80, 256), (50, 100), (7, 3), (1, 1), (33, 64)])
    def test_sum_equals_per_node_weights(self, shape):
        # ring-weighted view of the values, bitwise the one sum over per-node weights
        rule = build_rule(*shape)
        rng = np.random.default_rng(shape[0] * shape[1])
        weights = node_weights(rule)
        for values in (rng.standard_normal(rule.nodes.shape),
                       rng.standard_normal(rule.nodes.shape) * rule.nodes,
                       np.exp(rng.standard_normal(rule.nodes.shape) * 3j) * 1e300):
            assert rule.integrate(values) == complex(np.sum(weights * values))

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
        w = default_rule.nodes
        for _ in range(10):
            a, b = int(rng.integers(0, 20)), int(rng.integers(0, 20))
            grid_val = default_rule.integrate(w ** a * np.conj(w) ** b)
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
        got = default_rule.integrate(f(default_rule.nodes))
        assert abs(got - doubled.integrate(f(doubled.nodes))) < 1e-10


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
