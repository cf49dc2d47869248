import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berezinlab.quadrature import build_rule
from berezinlab.suites import measured_moment_table, random_symbol, table_sum
from berezinlab.symbols import (BlaschkeProduct, HarmonicProductKind,
                                MonomialSymbol, classify_harmonic_product,
                                format_complex, parse_blaschke_zeros,
                                parse_complex)
from conftest import fsum_node_sum, harmonic_product_corpus, node_weights

W = MonomialSymbol.identity()
WBAR = MonomialSymbol.monomial(0, 1)
MOD2 = MonomialSymbol.monomial(1, 1)


def small_symbols():
    coeff = st.sampled_from([1, -1, 2, 1j, -2j, 1 + 1j])
    index = st.tuples(st.integers(0, 3), st.integers(0, 3))
    return st.dictionaries(index, coeff, min_size=1, max_size=4).map(MonomialSymbol)


class TestAlgebra:
    def test_product_example(self):
        assert W * WBAR == MOD2

    def test_identity_element(self):
        one = MonomialSymbol.constant(1.0)
        u = MonomialSymbol({(0, 0): 1.0, (1, 0): 1.0})
        assert u * one == u

    def test_pointwise_product_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = MonomialSymbol({(int(rng.integers(0, 4)), int(rng.integers(0, 4))):
                                complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                                for _ in range(4)})
            b = MonomialSymbol({(int(rng.integers(0, 4)), int(rng.integers(0, 4))):
                                complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                                for _ in range(4)})
            pts = 0.9 * np.sqrt(rng.uniform(size=5)) * np.exp(2j * np.pi * rng.uniform(size=5))
            got = (a * b).evaluate_array(pts)
            want = a.evaluate_array(pts) * b.evaluate_array(pts)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_conjugate(self):
        assert W.conjugate() == WBAR
        assert MOD2.conjugate() == MOD2
        u = MonomialSymbol({(2, 1): 1 - 2j, (0, 3): 0.5j})
        assert u.conjugate().conjugate() == u

    def test_zero_symbol(self):
        zero = MonomialSymbol({})
        assert zero.is_zero() and zero.is_harmonic()
        assert (zero * W).is_zero()

    @settings(max_examples=50, deadline=None)
    @given(a=small_symbols(), b=small_symbols())
    def test_leibniz_rule(self, a, b):
        assert (a * b).dz() == a.dz() * b + a * b.dz()
        assert (a * b).dzbar() == a.dzbar() * b + a * b.dzbar()

    @settings(max_examples=50, deadline=None)
    @given(a=small_symbols())
    def test_conjugation_involution(self, a):
        assert a.conjugate().conjugate() == a


class TestWirtinger:
    def test_dz_of_square(self):
        w2 = MonomialSymbol.monomial(2, 0)
        assert w2.dz() == MonomialSymbol.monomial(1, 0, 2.0)
        assert w2.dzbar().is_zero()

    def test_dzbar_of_modulus(self):
        assert MOD2.dzbar() == W

    def test_laplacian_of_modulus(self):
        assert MOD2.laplacian() == MonomialSymbol.constant(4.0)

    def test_laplacian_kills_harmonics(self):
        for j in range(5):
            assert MonomialSymbol.monomial(j, 0).laplacian().is_zero()

    def test_laplacian_of_fourth_power(self):
        # direct differentiation: |w|^4 = w^2 conj(w)^2, 4 d2/dwdwbar -> 16|w|^2
        quartic = MonomialSymbol.monomial(2, 2)
        assert quartic.laplacian() == MonomialSymbol.monomial(1, 1, 16.0)


class TestHarmonicity:
    def test_examples(self):
        assert MonomialSymbol({(1, 0): 1, (0, 2): 3}).is_harmonic()
        assert not MOD2.is_harmonic()
        assert MonomialSymbol({}).is_harmonic()

    def test_evaluate(self):
        assert MOD2.evaluate(0.5) == pytest.approx(0.25)
        assert MonomialSymbol.constant(1.0).evaluate(0.3 - 0.9j) == pytest.approx(1.0)
        u = MonomialSymbol({(1, 0): 1, (0, 1): 1})
        assert u.evaluate(0.3 + 0.4j) == pytest.approx(0.6)

    def test_evaluate_at_mobius(self):
        from berezinlab.diskgeom import mobius_eval
        z, w = 0.4 - 0.2j, 0.3j

        def at_mobius(u, z):
            return u.compose_mobius_evaluator(z)(np.array([w]))[0]

        assert at_mobius(W, z) == pytest.approx(mobius_eval(z, w))
        assert at_mobius(MonomialSymbol.constant(1.0), z) == pytest.approx(1.0)
        u = MonomialSymbol({(2, 1): 1 - 1j, (0, 1): 2.0})
        assert at_mobius(u, 0.0) == pytest.approx(u.evaluate(-w))


def _random_symbol(rng, max_degree, n_terms):
    table = {}
    for _ in range(n_terms):
        j = int(rng.integers(0, max_degree + 1))
        k = int(rng.integers(0, max_degree - j + 1))
        table[(j, k)] = complex(*rng.uniform(-1, 1, 2))
    return MonomialSymbol(table)


def _phi(z, w):
    return (z - w) / (1.0 - np.conj(z) * w)


class TestEvaluateArray:
    """Nested-Horner evaluation against a high-precision and a term-by-term reference."""

    def test_matches_mpmath_reference(self, default_rule):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(21)
        symbols = [_random_symbol(rng, max_degree=12, n_terms=8) for _ in range(4)]
        nodes = default_rule.nodes[::97]   # two or three nodes on every ring
        for points in [nodes] + [_phi(z, nodes) for z in (0.9, -0.5 + 0.6j, 0.3j)]:
            with mpmath.workdps(40):
                powers = []   # (w^n, conj(w)^n) for n <= 12, per point
                for p in points:
                    w = mpmath.mpc(p.real, p.imag)
                    powers.append(([w ** n for n in range(13)],
                                   [mpmath.conj(w) ** n for n in range(13)]))
                for u in symbols:
                    terms = [(j, k, mpmath.mpc(c.real, c.imag))
                             for (j, k), c in u.coeffs.items()]
                    want = np.array([complex(mpmath.fsum(c * pw[j] * pwbar[k]
                                                         for j, k, c in terms))
                                     for pw, pwbar in powers])
                    bound = 1e-14 * sum(abs(c) for c in u.coeffs.values())
                    assert np.max(np.abs(u.evaluate_array(points) - want)) < bound

    @pytest.mark.parametrize("coeffs", [
        {},                                        # zero symbol
        {(0, 0): 2.5 - 1j},                        # constant
        {(0, 3): 2.0, (0, 1): -1j, (0, 0): 0.5},   # conjugate analytic
        {(5, 0): 1.0, (0, 4): -2j, (2, 3): 0.75},  # sparse rows with gaps
    ])
    def test_edge_cases_match_term_by_term(self, coeffs):
        rng = np.random.default_rng(22)
        w = 0.99 * np.sqrt(rng.uniform(size=200)) * np.exp(2j * np.pi * rng.uniform(size=200))
        want = np.zeros_like(w)
        for (j, k), c in coeffs.items():
            want += c * w ** j * np.conj(w) ** k
        assert np.max(np.abs(MonomialSymbol(coeffs).evaluate_array(w) - want)) < 1e-14

    def test_preserves_shape_and_dtype(self, default_rule):
        u = MonomialSymbol({(3, 1): 1 + 1j, (0, 2): -0.5, (0, 0): 2.0})
        grid = default_rule.node_grid()
        out = u.evaluate_array(grid)
        assert out.shape == grid.shape and out.dtype == np.complex128
        assert np.array_equal(out.ravel(), u.evaluate_array(default_rule.nodes))
        point = np.asarray(0.3 - 0.4j)
        out = u.evaluate_array(point)
        assert out.shape == () and out.dtype == np.complex128
        assert complex(out) == pytest.approx(u.evaluate(0.3 - 0.4j), abs=1e-14)
        assert MonomialSymbol({}).evaluate_array(point).shape == ()

    def test_leaves_input_unmodified(self, default_rule):
        u = MonomialSymbol({(4, 2): 1 - 1j, (1, 0): 3.0, (0, 3): 0.25j})
        w = default_rule.nodes.copy()
        out = u.evaluate_array(w)
        assert np.array_equal(w, default_rule.nodes)
        assert not np.shares_memory(out, w)

    def test_agrees_with_scalar_evaluate(self):
        rng = np.random.default_rng(23)
        pts = 0.999 * np.sqrt(rng.uniform(size=50)) * np.exp(2j * np.pi * rng.uniform(size=50))
        for _ in range(10):
            u = _random_symbol(rng, max_degree=12, n_terms=6)
            got = u.evaluate_array(pts)
            want = np.array([u.evaluate(p) for p in pts])
            assert np.max(np.abs(got - want)) < 1e-14


def _whole_array_horner(u, w):
    """Reference: nested Horner over the whole input at once, no slices."""
    w = np.asarray(w, dtype=complex)
    rows = {}
    for (j, k), c in u.coeffs.items():
        rows.setdefault(k, {})[j] = c
    total = np.zeros_like(w)
    acc, wbar = np.empty_like(w), np.conj(w)
    for k in range(u.deg_zbar, -1, -1):
        row = rows.get(k)
        if row:
            top = max(row)
            acc.fill(row[top])
            for j in range(top - 1, -1, -1):
                acc *= w
                if j in row:
                    acc += row[j]
            total += acc
        if k:
            total *= wbar
    return total


class TestSlicedEvaluation:
    """Slice-by-slice evaluation against a whole-array Horner reference."""

    SYMBOLS = [_random_symbol(np.random.default_rng(24), max_degree=10, n_terms=8)
               for _ in range(3)] + [MonomialSymbol({})]

    @staticmethod
    def _points(count):
        rng = np.random.default_rng(count)
        r = 0.999 * np.sqrt(rng.uniform(size=count))
        return r * np.exp(2j * np.pi * rng.uniform(size=count))

    @pytest.mark.parametrize("count", [1, 4095, 4096, 8192, 20480])
    def test_whole_slices_match_bitwise(self, count):
        w = self._points(count)
        for u in self.SYMBOLS:
            assert np.array_equal(u.evaluate_array(w), _whole_array_horner(u, w))
            for z in (0.0, 0.4 - 0.3j, 0.99j):
                composed = u.compose_mobius_evaluator(z)(w)
                assert np.array_equal(composed, _whole_array_horner(u, _phi(z, w)))

    def test_grid_matches_bitwise(self, default_rule):
        grid = default_rule.node_grid()
        for u in self.SYMBOLS:
            got = u.evaluate_array(grid)
            assert got.shape == grid.shape
            assert np.array_equal(got, _whole_array_horner(u, grid))
            composed = u.compose_mobius_evaluator(0.5 + 0.2j)(grid)
            assert np.array_equal(composed, _whole_array_horner(u, _phi(0.5 + 0.2j, grid)))

    @pytest.mark.parametrize("count", [4097, 3 * 4096 + 5])
    def test_ragged_tail_within_four_ulps(self, count):
        # numpy may round a loop over a few trailing entries differently
        w = self._points(count)
        for u in self.SYMBOLS:
            for got, want in ((u.evaluate_array(w), _whole_array_horner(u, w)),
                              (u.compose_mobius_evaluator(0.6j)(w),
                               _whole_array_horner(u, _phi(0.6j, w)))):
                ulp = np.spacing(np.max(np.abs(want), initial=0.0))
                assert np.max(np.abs(got - want), initial=0.0) <= 4 * ulp


def _horner_sum(u, nodes, weights):
    """Reference: Horner node values, their weighted products summed exactly."""
    return fsum_node_sum(weights, u.evaluate_array(nodes))


class TestWeightedSum:
    """The rule's plain weighted sum read from the moment table, against
    Horner node values and exact rule moments."""

    @staticmethod
    def _assert_close(got, want):
        assert abs(got - want) <= 1e-15 * max(1.0, abs(want))

    def test_empty_symbol_is_zero(self, default_rule):
        got = table_sum(MonomialSymbol({}), measured_moment_table(default_rule, 0))
        assert type(got) is complex and got == 0j

    def test_constant(self, default_rule):
        u = MonomialSymbol.constant(2.5 - 1j)
        nodes, weights = default_rule.nodes, node_weights(default_rule)
        plain = table_sum(u, measured_moment_table(default_rule, 0))
        self._assert_close(plain, _horner_sum(u, nodes, weights))
        self._assert_close(plain, (2.5 - 1j) * math.fsum(weights))

    @pytest.mark.parametrize("shape", [(80, 256), (50, 100), (30, 100)])
    def test_matches_horner(self, shape):
        rule = build_rule(*shape)
        rng = np.random.default_rng(44)
        symbols = [_random_symbol(rng, max_degree=d, n_terms=8) for d in (6, 6, 12, 12)]
        symbols.append(MonomialSymbol({(12, 0): 1.0, (3, 8): 0.5j, (0, 9): -0.25,
                                       (0, 0): 1.0}))
        table = measured_moment_table(rule, 12)
        for u in symbols:
            self._assert_close(table_sum(u, table),
                               _horner_sum(u, rule.nodes, node_weights(rule)))

    @pytest.mark.parametrize("shape", [(80, 256), (50, 100), (30, 100)])
    def test_plain_sum_matches_rule_moments(self, shape):
        rule = build_rule(*shape)
        rng = np.random.default_rng(45)
        table = measured_moment_table(rule, 12)
        for _ in range(6):
            u = _random_symbol(rng, max_degree=12, n_terms=8)
            exact = sum(c * rule.rule_moment(j, k) for (j, k), c in u.coeffs.items())
            got = table_sum(u, table)
            self._assert_close(got, exact)
            self._assert_close(got, _horner_sum(u, rule.nodes, node_weights(rule)))


class TestAdopt:
    """The arithmetic's unvalidated tables equal what the constructor would keep."""

    @staticmethod
    def _same_as_constructor(sym):
        # repr tells -0.0 from 0.0, so the coefficients agree bit for bit
        rebuilt = MonomialSymbol(sym.coeffs)
        assert repr(list(sym.coeffs.items())) == repr(list(rebuilt.coeffs.items()))
        assert all(c != 0 for c in sym.coeffs.values())

    def test_arithmetic_matches_constructor(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            a = _random_symbol(rng, max_degree=5, n_terms=5)
            b = _random_symbol(rng, max_degree=5, n_terms=5)
            real = MonomialSymbol({(j, k): c.real for (j, k), c in a.coeffs.items()})
            for sym in (a + b, a * b, a.conjugate(), real.conjugate(), a.dz(),
                        a.dzbar(), real.dz(), (a * b).laplacian()):
                self._same_as_constructor(sym)

    def test_exact_cancellation_drops_terms(self):
        u = MonomialSymbol({(2, 1): 1 - 2j, (0, 0): 0.5})
        assert (u - u).is_zero()
        assert (u + (-1.0) * u).coeffs == {}
        product = (W + WBAR) * (W - WBAR)   # the |w|^2 terms cancel
        assert product.coeffs == {(2, 0): 1, (0, 2): -1}
        assert MonomialSymbol.constant(3.0).dz().is_zero()
        assert W.dzbar().is_zero()


def _svd_matched_combination(u, v):
    """The witness as the null vector of the scaled system, by SVD.

    The reference for symbols._matched_combination: rows as there, the
    pivot is the larger entry of the null vector (ties to beta), and the
    other entry is polished by the same least-squares ratio, divided as
    Python complex numbers.
    """
    rows = []
    u_zbar, v_zbar = u.dzbar(), v.dzbar()
    for idx in sorted(set(u_zbar._coeffs) | set(v_zbar._coeffs)):
        rows.append([u_zbar._coeffs.get(idx, 0j), v_zbar._coeffs.get(idx, 0j)])
    u_z, v_z = u.dz(), v.dz()
    for idx in sorted(set(u_z._coeffs) | set(v_z._coeffs)):
        rows.append([u_z._coeffs.get(idx, 0j), -v_z._coeffs.get(idx, 0j)])
    a = np.array(rows, dtype=complex)
    _, s, vh = np.linalg.svd(a / np.max(np.abs(a)))
    if (s[-1] if len(s) == 2 else 0.0) > 1e-10:
        return None, None
    null = vh[-1].conjugate()
    if abs(null[1]) >= abs(null[0]) * (1.0 - 1e-9):
        denom = np.vdot(a[:, 0], a[:, 0])
        return (-(complex(np.vdot(a[:, 0], a[:, 1])) / complex(denom))
                if denom != 0 else 0j), 1.0 + 0j
    denom = np.vdot(a[:, 1], a[:, 1])
    return 1.0 + 0j, (-(complex(np.vdot(a[:, 1], a[:, 0])) / complex(denom))
                      if denom != 0 else 0j)


def _matched_pairs(seed, count):
    """Seeded pairs u = F + conj(G), v = c (F - conj(G)) with analytic F, G.

    A third of them have integer coefficients and c in {1, i, -1, -i},
    where |alpha| = |beta| exactly; a third have real-valued draws and a
    unimodular c, where |alpha| = 1 up to roundoff; the rest have c of any
    modulus.
    """
    rng = np.random.default_rng(seed)
    pairs = []
    for n in range(count):
        integer = n % 3 == 0
        f = random_symbol(rng, max_degree=5, analytic=True, integer=integer)
        g = random_symbol(rng, max_degree=5, analytic=True, integer=integer).conjugate()
        if integer:
            c = (1, 1j, -1, -1j)[int(rng.integers(4))]
        elif n % 3 == 1:
            c = complex(np.exp(1j * rng.uniform(0, 2 * np.pi)))
        else:
            c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        pairs.append((f + g, c * (f - g)))
    return pairs


class TestClassifier:
    @pytest.mark.parametrize("draw", [
        pytest.param(lambda: [(u, v) for u, v, _ in harmonic_product_corpus()],
                     id="criterion-08"),
        pytest.param(lambda: _matched_pairs(26, 1200), id="matched-pairs")])
    def test_witness_equals_svd_reference(self, draw, monkeypatch):
        pairs = draw()
        got = [classify_harmonic_product(u, v) for u, v in pairs]
        monkeypatch.setattr("berezinlab.symbols._matched_combination",
                            _svd_matched_combination)
        assert got == [classify_harmonic_product(u, v) for u, v in pairs]
        assert any(out.kind is HarmonicProductKind.MATCHED_COMBINATION for out in got)

    def test_integer_witness_i_is_exact(self):
        # u = 7 (w + conj(w)), v = 7i (w - conj(w)): the ratio is 49i / 49,
        # which numpy's complex division rounds to 0.9999999999999999i
        u = MonomialSymbol({(1, 0): 7, (0, 1): 7})
        v = MonomialSymbol({(1, 0): 7j, (0, 1): -7j})
        out = classify_harmonic_product(u, v)
        assert out.kind is HarmonicProductKind.MATCHED_COMBINATION
        assert out.alpha == 1j and out.beta == 1.0

    def test_both_analytic(self):
        out = classify_harmonic_product(W, W)
        assert out.kind is HarmonicProductKind.ANALYTIC_PAIR

    def test_not_harmonic(self):
        out = classify_harmonic_product(W, WBAR)
        assert out.kind is HarmonicProductKind.NOT_HARMONIC

    def test_matched_combination_example(self):
        u = MonomialSymbol({(1, 0): 1, (0, 1): 1})          # w + conj(w)
        v = MonomialSymbol({(1, 0): 1j, (0, 1): -1j})       # i w - i conj(w)
        out = classify_harmonic_product(u, v)
        assert out.kind is HarmonicProductKind.MATCHED_COMBINATION
        assert out.alpha == pytest.approx(1j, abs=1e-10)
        assert out.beta == pytest.approx(1.0, abs=1e-10)
        combo = out.alpha * u + out.beta * v
        assert all(abs(c) < 1e-10 for c in combo.dzbar().coeffs.values())
        anti = (out.alpha * u - out.beta * v).conjugate()
        assert all(abs(c) < 1e-10 for c in anti.dzbar().coeffs.values())

    def test_rejects_nonharmonic_input(self):
        with pytest.raises(ValueError):
            classify_harmonic_product(MOD2, W)

    def test_constant_tiebreak_is_analytic_pair(self):
        a = MonomialSymbol.constant(2.0)
        b = MonomialSymbol.constant(1j)
        assert classify_harmonic_product(a, b).kind is HarmonicProductKind.ANALYTIC_PAIR


class TestParsing:
    def test_symbol_roundtrip(self):
        u = MonomialSymbol.from_string("1,1:1")
        assert u == MOD2
        again = MonomialSymbol.from_string(u.to_string())
        assert again == u

    def test_complex_literals(self):
        cases = {"1": 1.0, "-2.5": -2.5, "1i": 1j, "-i": -1j, "i": 1j,
                 "1+2i": 1 + 2j, "1-i": 1 - 1j, "-0.5+0.25i": -0.5 + 0.25j,
                 "2e-1i": 0.2j, "1e3": 1000.0}
        for text, want in cases.items():
            assert parse_complex(text) == pytest.approx(want)

    def test_rejects_garbage(self):
        for bad in ("", "nan", "inf", "1+2", "2i+1", "1 + 2i", "one"):
            with pytest.raises(ValueError):
                parse_complex(bad)

    def test_format_complex_roundtrip(self):
        for value in (1.5, -2j, 0.25 + 0.125j, -1 - 1j):
            assert parse_complex(format_complex(value)) == pytest.approx(value)

    def test_bad_symbol_term(self):
        with pytest.raises(ValueError):
            MonomialSymbol.from_string("1:1")
        with pytest.raises(ValueError):
            MonomialSymbol.from_string("-1,0:1")

    @pytest.mark.parametrize("c", [float("inf"), complex(0.5, float("nan")),
                                   complex(float("-inf"), 1.0)])
    def test_non_finite_coefficient_rejected(self, c):
        with pytest.raises(ValueError, match="coefficient of term 2,1 is not finite"):
            MonomialSymbol({(2, 1): c})
        with pytest.raises(ValueError, match="not finite"):
            MonomialSymbol.monomial(2, 1).scale(c)

    def test_overflowing_literal_rejected(self):
        # 1e400 parses to inf; the sum of two 1e308 terms overflows to inf
        for text in ("1,1:1e400", "0,0:1;1,1:1e308;1,1:1e308"):
            with pytest.raises(ValueError, match="coefficient of term 1,1 is not finite"):
                MonomialSymbol.from_string(text)


class TestBlaschke:
    def test_single_zero_at_origin(self):
        b = BlaschkeProduct([0.0])
        assert b.evaluate(0.5) == pytest.approx(-0.5)

    def test_modulus_below_one(self):
        rng = np.random.default_rng(6)
        b = BlaschkeProduct([0.5, -0.3 + 0.2j, 0.7j])
        pts = 0.97 * np.sqrt(rng.uniform(size=100)) * np.exp(2j * np.pi * rng.uniform(size=100))
        assert np.all(np.abs(b.evaluate_array(pts)) < 1.0)

    def test_derivative_matches_central_difference(self):
        rng = np.random.default_rng(7)
        b = BlaschkeProduct([0.5, -0.3 + 0.2j, 0.7j, 0.1])
        h = 1e-6
        for _ in range(20):
            w = 0.8 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
            fd = (b.evaluate(w + h) - b.evaluate(w - h)) / (2 * h)
            assert abs(b.derivative(w) - fd) < 1e-7

    def test_derivative_finite_at_zeros(self):
        b = BlaschkeProduct([0.5, 0.75])
        val = b.derivative(0.5)
        assert np.isfinite(val.real) and abs(val) > 0

    def test_taylor_reconstructs_values(self):
        b = BlaschkeProduct([0.5, -0.2 + 0.4j])
        coeffs = b.taylor(60)
        for w in (0.3, -0.25j, 0.2 + 0.2j):
            series = np.polyval(coeffs[::-1], w)
            assert series == pytest.approx(b.evaluate(w), abs=1e-12)

    def test_zero_list_parsing(self):
        b = parse_blaschke_zeros("0.5,0.75,0.875")
        assert b.zeros == (0.5, 0.75, 0.875)
        with pytest.raises(ValueError):
            parse_blaschke_zeros("")
        with pytest.raises(ValueError):
            parse_blaschke_zeros("1.5")

    def test_empty_product_is_constant_one(self):
        b = BlaschkeProduct([])
        assert b.evaluate(0.3) == pytest.approx(1.0)
        assert b.derivative(0.3) == pytest.approx(0.0)
