import math

import numpy as np
import pytest

from berezinlab import operators
from berezinlab.berezin import (berezin_operator, berezin_symbol_quadrature,
                                kernel_coefficients)
from berezinlab.operators import (TruncatedOperator, analytic_commutator_defect,
                                  covariant_toeplitz, semicommutator_defect,
                                  toeplitz_exact, toeplitz_quadrature, unitary_uz)
from berezinlab.quadrature import build_rule, monomial_moment
from berezinlab.symbols import BlaschkeProduct, MonomialSymbol

W = MonomialSymbol.identity()
WBAR = MonomialSymbol.monomial(0, 1)
MOD2 = MonomialSymbol.monomial(1, 1)


def toeplitz_by_moments(u, dim):
    """Independent oracle: entries straight from the monomial moments."""
    m = np.zeros((dim, dim), dtype=complex)
    for q in range(dim):
        for p in range(dim):
            total = 0j
            for (j, k), c in u.coeffs.items():
                total += c * monomial_moment(j + p, k + q)
            m[q, p] = np.sqrt((p + 1) * (q + 1)) * total
    return m


def uz_columns_by_convolution(z, rows, cols):
    """Reference U_z columns: column p is column p-1 convolved with phi_z."""
    zv = complex(z)
    zc = zv.conjugate()
    t = abs(zv) ** 2
    phi = np.zeros(rows, dtype=complex)
    phi[0] = zv
    phi[1:] = -(1.0 - t) * zc ** np.arange(0, rows - 1)
    dphi = (t - 1.0) * np.arange(1, rows + 1) * zc ** np.arange(0, rows)
    want = np.empty((rows, cols), dtype=complex)
    inv_root = 1.0 / np.sqrt(np.arange(1, rows + 1, dtype=float))
    column = dphi.copy()
    want[:, 0] = column * inv_root
    for p in range(1, cols):
        column = np.convolve(column, phi)[:rows]
        want[:, p] = np.sqrt(p + 1.0) * column * inv_root
    return want


def toeplitz_times(u, v):
    """Reference T_u v for a column block v, straight from the entry formula."""
    rows = v.shape[0]
    out = np.zeros_like(v)
    for (j, k), c in u.coeffs.items():
        p = np.arange(max(0, k - j), min(rows, rows - j + k))
        q = p + j - k
        out[q] += (c * np.sqrt((p + 1.0) * (q + 1.0)) / (j + p + 1.0))[:, None] * v[p]
    return out


def old_working_rows(r, dim):
    """The working size before the tail bound: twice the spread plus r^n steps."""
    spread = math.ceil(dim * (1.0 + r) / (1.0 - r))
    return 2 * spread + math.ceil(math.log(1e-16) / math.log(r))


class TestTruncatedOperator:
    def test_validates_shape_and_finiteness(self):
        with pytest.raises(ValueError):
            TruncatedOperator(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            TruncatedOperator(np.array([[np.nan, 0], [0, 1]]))

    def test_dimension_mismatch(self):
        a, b = TruncatedOperator(np.eye(3)), TruncatedOperator(np.eye(4))
        with pytest.raises(ValueError):
            _ = a + b
        with pytest.raises(ValueError):
            _ = a @ b

    def test_double_adjoint(self):
        rng = np.random.default_rng(10)
        m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        op = TruncatedOperator(m)
        assert np.array_equal(op.adjoint().adjoint().matrix, m)

    def test_commutator_with_identity(self):
        rng = np.random.default_rng(11)
        a = TruncatedOperator(rng.normal(size=(6, 6)))
        eye = TruncatedOperator(np.eye(6))
        assert (eye @ a - a @ eye).norm_fro() == 0.0

    def test_zero_norm(self):
        assert TruncatedOperator(np.zeros((8, 8))).norm_fro() == 0.0

    def test_constructor_neither_freezes_nor_aliases_input(self):
        m = np.arange(9, dtype=complex).reshape(3, 3)
        op = TruncatedOperator(m)
        assert m.flags.writeable
        assert not np.shares_memory(op.matrix, m)
        m[0, 0] = 7.0
        assert op.matrix[0, 0] == 0.0

    def test_results_are_read_only(self, default_rule):
        rng = np.random.default_rng(13)
        a = TruncatedOperator(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        b = TruncatedOperator(rng.normal(size=(4, 4)))
        results = [a, a + b, a - b, a @ b, 2.0 * a, a * 1j, -a, a.adjoint(),
                   a.leading_block(2), toeplitz_exact(MOD2, 4),
                   toeplitz_quadrature(MOD2.evaluate_array, 4, default_rule),
                   analytic_commutator_defect(W, W, 4), unitary_uz(0.3j, 4),
                   covariant_toeplitz(MOD2, 0.3j, 4)]
        for op in results:
            with pytest.raises(ValueError, match="read-only"):
                op.matrix[0, 0] = 1.0
        assert a.adjoint().matrix.flags.c_contiguous
        assert np.array_equal(a.adjoint().matrix, a.matrix.conj().T)

    def test_overflowing_results_rejected(self):
        big = TruncatedOperator(np.full((2, 2), 1e200))
        huge = TruncatedOperator(np.full((2, 2), 1.5e308))
        with np.errstate(over="ignore", invalid="ignore"):
            for make in (lambda: big @ big, lambda: huge + huge,
                         lambda: huge - (-huge), lambda: 1e200 * big):
                with pytest.raises(ValueError, match="must be finite"):
                    make()


class TestToeplitzExact:
    def test_constant_symbol_is_identity(self):
        got = toeplitz_exact(MonomialSymbol.constant(1.0), 6).matrix
        assert np.array_equal(got, np.eye(6))

    def test_wbar_entry(self):
        got = toeplitz_exact(WBAR, 4).matrix
        assert got[0, 1] == pytest.approx(np.sqrt(2) / 2)

    def test_modulus_squared_diagonal(self):
        got = toeplitz_exact(MOD2, 4).matrix
        assert got[0, 0] == pytest.approx(0.5)
        assert got[1, 1] == pytest.approx(2.0 / 3.0)

    def test_matches_moment_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            u = MonomialSymbol({(int(rng.integers(0, 4)), int(rng.integers(0, 4))):
                                complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                                for _ in range(4)})
            got = toeplitz_exact(u, 8).matrix
            assert np.max(np.abs(got - toeplitz_by_moments(u, 8))) < 1e-14

    def test_adjoint_is_conjugate_symbol(self):
        u = MonomialSymbol({(2, 0): 1 - 1j, (1, 1): 0.5, (0, 3): 2j})
        lhs = toeplitz_exact(u.conjugate(), 10).matrix
        rhs = toeplitz_exact(u, 10).adjoint().matrix
        assert np.array_equal(lhs, rhs)

    def test_analytic_symbols_multiply(self):
        # multiplication operators compose exactly for analytic symbols
        f = MonomialSymbol({(1, 0): 1.0, (0, 0): 0.5})
        g = MonomialSymbol({(2, 0): -1j})
        dim, band = 16, 3
        product = (toeplitz_exact(f, dim) @ toeplitz_exact(g, dim)).matrix
        direct = toeplitz_exact(f * g, dim).matrix
        assert np.max(np.abs(product[:dim - band, :dim - band]
                             - direct[:dim - band, :dim - band])) < 1e-14


def toeplitz_quadrature_whole_grid(f, dim, rule):
    """Reference: f on the whole node grid and one FFT of it, every mode kept."""
    grid = rule.node_grid()
    values = np.asarray(f(grid.ravel()), dtype=complex).reshape(grid.shape)
    hat_f = np.fft.fft(values, axis=1) / rule.n_angular
    weighted = rule.radial_r[:, None] ** np.arange(0, 2 * dim - 1)[None, :]
    weighted *= rule.radial_w[:, None]
    m = np.zeros((dim, dim), dtype=complex)
    scale = np.sqrt(np.arange(1, dim + 1, dtype=float))
    for offset in range(-(dim - 1), dim):
        p = np.arange(max(0, -offset), min(dim, dim - offset))
        m[p + offset, p] = scale[p] * scale[p + offset] * (
            hat_f[:, offset % rule.n_angular] @ weighted[:, 2 * p + offset])
    return m


QUADRATURE_SYMBOL = MonomialSymbol({(1, 1): 1.0, (2, 0): 0.5j, (0, 3): -0.25, (4, 1): 2.0})


class TestToeplitzQuadrature:
    # 40 rings of 100 nodes fill a block: 50 rings leave a ragged block of
    # 10, 30 rings fit in one short block, and dim 64 reads 127 diagonals
    # from 100 modes, so negative and positive offsets share columns; a
    # ring of 5000 nodes is a block of its own
    @pytest.mark.filterwarnings("ignore::berezinlab.quadrature.QuadratureWarning")
    @pytest.mark.parametrize("sizes, dim, evaluator", [
        ((80, 256), 16, QUADRATURE_SYMBOL.evaluate_array),
        ((50, 100), 12, QUADRATURE_SYMBOL.evaluate_array),
        ((30, 100), 12, QUADRATURE_SYMBOL.evaluate_array),
        ((50, 100), 64, QUADRATURE_SYMBOL.evaluate_array),
        ((30, 100), 64, QUADRATURE_SYMBOL.compose_mobius_evaluator(0.5 - 0.2j)),
        ((80, 256), 16, lambda w: np.conj(w) * w ** 2 + np.abs(w)),
        ((160, 640), 16, MOD2.compose_mobius_evaluator(0.7)),
        ((3, 5000), 8, QUADRATURE_SYMBOL.evaluate_array),
    ])
    def test_matches_whole_grid_fft_bitwise(self, sizes, dim, evaluator):
        rule = build_rule(*sizes)
        got = toeplitz_quadrature(evaluator, dim, rule)
        assert np.array_equal(got.matrix, toeplitz_quadrature_whole_grid(evaluator, dim, rule))

    def test_identity_symbol(self, default_rule):
        got = toeplitz_quadrature(lambda w: np.ones_like(w), 8, default_rule)
        assert np.max(np.abs(got.matrix - np.eye(8))) < 1e-12

    def test_matches_exact_for_polynomial(self, default_rule):
        u = MonomialSymbol({(1, 1): 1.0, (2, 0): 0.5j, (0, 1): -0.25})
        got = toeplitz_quadrature(u.evaluate_array, 16, default_rule,
                                  degree_hint=u.total_degree)
        want = toeplitz_exact(u, 16)
        assert (got - want).norm_fro() < 1e-10

    def test_warns_when_rule_too_coarse(self):
        from berezinlab.quadrature import QuadratureWarning
        rule = build_rule(4, 8)
        with pytest.warns(QuadratureWarning):
            toeplitz_quadrature(lambda w: np.abs(w) ** 2, 8, rule)


class TestUnitary:
    def test_parity_at_origin(self):
        for dim in (5, 64):
            got = unitary_uz(0.0, dim).matrix
            want = np.diag([(-1.0) ** (p + 1) for p in range(dim)])
            assert np.array_equal(got, want)

    def test_first_column_is_minus_kernel(self):
        z = 0.4 - 0.3j
        u = unitary_uz(z, 48)
        assert np.max(np.abs(u.matrix[:, 0] + kernel_coefficients(z, 48))) < 1e-14

    def test_self_adjoint(self):
        u = unitary_uz(0.6j, 32).matrix
        assert np.max(np.abs(u - u.conj().T)) < 1e-12

    def test_involution_on_faithful_block(self):
        # columns spread over modes up to ~p (1+|z|)/(1-|z|); with |z|=0.35
        # and dim 64 the leading 16x16 block is faithful to 1e-8
        u = unitary_uz(0.35, 64)
        square = (u @ u).matrix[:16, :16]
        assert np.max(np.abs(square - np.eye(16))) < 1e-8

    def test_columns_match_taylor_extraction(self):
        # independent oracle: FFT of sqrt(p+1) phi_z^p phi_z' on a circle
        z, dim = 0.35 + 0.2j, 12
        u = unitary_uz(z, dim).matrix
        m, r = 2048, 0.8
        w = r * np.exp(2j * np.pi * np.arange(m) / m)
        phi = (z - w) / (1 - np.conj(z) * w)
        dphi = (abs(z) ** 2 - 1) / (1 - np.conj(z) * w) ** 2
        for p in (0, 1, 3, 7):
            coeffs = np.fft.fft(np.sqrt(p + 1.0) * phi ** p * dphi)[:dim] / m
            coeffs /= r ** np.arange(dim)
            want = coeffs / np.sqrt(np.arange(1, dim + 1))
            assert np.max(np.abs(u[:, p] - want)) < 1e-12


    @pytest.mark.parametrize("z", [0.5, 0.3 + 0.2j, -0.7, 0.05])
    def test_square_build_unchanged(self, z):
        # at dim 256, z = 0.05 drives the reference's conj(z)^n subnormal
        for dim in (64, 256):
            want = uz_columns_by_convolution(z, dim, dim)
            assert np.max(np.abs(unitary_uz(z, dim).matrix - want)) < 1e-12

    @pytest.mark.parametrize("z, rows, cols", [
        # dim-64 working sizes of covariant_toeplitz at |z| = 0.5 and 0.9
        (0.5, 313, 64), (0.9, 2012, 64),
        (0.4 - 0.3j, 1, 1), (0.4 - 0.3j, 2, 2), (0.4 - 0.3j, 7, 1),
        (0.4 - 0.3j, 1, 7), (0.4 - 0.3j, 2, 9), (0.4 - 0.3j, 9, 2)])
    def test_column_block_matches_convolution(self, z, rows, cols):
        got = operators._uz_columns(z, rows, cols)
        assert got.shape == (rows, cols)
        want = uz_columns_by_convolution(z, rows, cols)
        assert np.max(np.abs(got - want)) < 1e-12


    @pytest.mark.parametrize("r", [0.0, 1e-200, 1e-30, 1e-5, 0.05, 0.1, 0.3, 0.6,
                                   0.9, 0.99, 0.999])
    def test_column_block_matches_convolution_across_radii(self, r):
        # below |z| ~ 5.6e-3 the build takes the doubling product; above,
        # 300 rows need two prefix blocks at |z| = 0.05, 700 rows two at
        # 0.3 and 1024 rows five at 0.05, and the square and the 200
        # columns carry weight across the block boundaries
        z = r * np.exp(0.3j)
        for rows, cols in ((1, 1), (1, 7), (2, 9), (64, 64), (300, 300),
                           (700, 200), (1024, 8)):
            got = operators._uz_columns(z, rows, cols)
            assert got.shape == (rows, cols)
            want = uz_columns_by_convolution(z, rows, cols)
            assert np.max(np.abs(got - want)) < 1e-12, (rows, cols)

    @pytest.mark.parametrize("r", [0.0, 0.05, 0.5, 0.9, 0.999])
    def test_entries_bounded_by_one(self, r):
        # the build skips the finiteness scan on the strength of this bound
        u = unitary_uz(r * np.exp(2.3j), 256).matrix
        assert np.all(np.isfinite(u))
        assert np.max(np.abs(u)) <= 1.0 + 1e-12

    @pytest.mark.parametrize("r", [0.05, 0.5, 0.9])
    def test_self_adjoint_at_256(self, r):
        u = unitary_uz(r * np.exp(1.1j), 256).matrix
        assert np.max(np.abs(u - u.conj().T)) < 1e-12


class TestCovariantRoute:
    def test_origin_flips_sign_of_w(self):
        got = covariant_toeplitz(W, 0.0, 16).matrix
        assert np.max(np.abs(got + toeplitz_exact(W, 16).matrix)) < 1e-14

    def test_constant_symbol_untouched(self):
        got = covariant_toeplitz(MonomialSymbol.constant(1.0), 0.3 + 0.1j, 64).matrix
        assert np.max(np.abs(got[:16, :16] - np.eye(16))) < 1e-8

    def test_matches_quadrature_on_faithful_block(self, big_rule):
        z = 0.5
        lhs = covariant_toeplitz(MOD2, z, 64).leading_block(12)
        rhs = toeplitz_quadrature(MOD2.compose_mobius_evaluator(z), 12, big_rule)
        assert (lhs - rhs).norm_fro() < 1e-8

    @pytest.mark.parametrize("z", [0.5, 0.7])
    def test_whole_block_matches_quadrature(self, z, big_rule):
        # the working size makes every returned entry faithful, not just
        # a leading block
        for u in (W, WBAR, MOD2):
            lhs = covariant_toeplitz(u, z, 64)
            rhs = toeplitz_quadrature(u.compose_mobius_evaluator(z), 64, big_rule)
            assert (lhs - rhs).norm_fro() < 1e-10

    def test_offsets_below_and_beyond_the_working_block(self):
        # offsets -2 and +-70, the latter beyond the 61 working rows of
        # z = 0.3+0.1j, dim 8; the reference applies the dense T_u
        u = MonomialSymbol.from_string("1,0:1;0,2:0.5-0.25i;70,0:2;0,70:1i;1,1:-1")
        z, dim = 0.3 + 0.1j, 8
        rows = operators._covariant_rows(abs(z), dim)
        assert rows == 61
        v = operators._uz_columns(z, rows, dim)
        want = v.conj().T @ toeplitz_exact(u, rows).matrix @ v
        got = covariant_toeplitz(u, z, dim).matrix
        assert np.max(np.abs(got - want)) < 1e-14

    @pytest.mark.parametrize("r", [1e-5, 0.05, 0.3, 0.6, 0.9, 0.95])
    def test_working_size_bounds_the_tails(self, r):
        for angle in (0.0, 0.7, 2.5):
            z = r * np.exp(1j * angle)
            for dim in (8, 33, 128):
                rows = operators._covariant_rows(r, dim)
                v = operators._uz_columns(z, int(1.5 * rows), dim)
                tail = np.max(np.linalg.norm(v[rows:], axis=0))
                assert tail < 1e-17, (angle, dim, rows, tail)

    def test_working_size_within_the_old_formula(self):
        for r in np.r_[1e-5, np.linspace(0.01, 0.95, 95)]:
            for dim in range(8, 129):
                assert operators._covariant_rows(r, dim) <= old_working_rows(r, dim), (r, dim)

    def test_reaches_dim_128_at_0_9(self):
        # 3398 working rows now; the old formula asked for 5216, above the
        # ceiling, and serves as the reference size
        u = MonomialSymbol.from_string("1,0:1;0,2:0.5-0.25i;1,1:-1;2,1:0.3i")
        z, dim = 0.9 * np.exp(0.7j), 128
        assert old_working_rows(0.9, dim) == 5216
        v = operators._uz_columns(z, 5216, dim)
        want = v.conj().T @ toeplitz_times(u, v)
        got = covariant_toeplitz(u, z, dim).matrix
        assert np.max(np.abs(got - want)) < 1e-14

    def test_refuses_working_size_above_ceiling(self, monkeypatch):
        def no_build(*args):
            raise AssertionError("U_z columns built past the ceiling")

        monkeypatch.setattr(operators, "_uz_columns", no_build)
        with pytest.raises(ValueError, match=r"needs a working size of \d+ rows"):
            covariant_toeplitz(MOD2, 0.999, 64)


class TestSemicommutatorDefect:
    def test_constants_give_zero(self):
        one = MonomialSymbol.constant(1.0)
        assert semicommutator_defect(one, one, 8).norm_fro() < 1e-14

    def test_corner_entry(self):
        got = semicommutator_defect(W, WBAR, 8).matrix
        assert got[0, 0] == pytest.approx(0.5)

    def test_against_moment_oracle_algebra(self):
        # same combination assembled from the independent moment-oracle matrices
        u = MonomialSymbol({(1, 0): 1.0, (0, 2): -0.5j})
        v = MonomialSymbol({(0, 1): 2.0, (1, 0): 0.25})
        dim = 10
        t_u = toeplitz_by_moments(u, dim)
        t_v = toeplitz_by_moments(v, dim)
        t_uv = toeplitz_by_moments(u * v, dim)
        want = 2 * t_uv - t_u @ t_v - t_v @ t_u
        got = semicommutator_defect(u, v, dim).matrix
        assert np.max(np.abs(got - want)) < 1e-13

    def test_analytic_pair_commutes(self):
        f = MonomialSymbol({(1, 0): 1.0, (2, 0): 0.5})
        g = MonomialSymbol({(1, 0): -2j})
        band = 4
        got = semicommutator_defect(f, g, 16).matrix
        assert np.max(np.abs(got[:16 - band, :16 - band])) < 1e-14


class TestAnalyticCommutatorDefect:
    def test_polynomial_matches_semicommutator(self):
        defect = analytic_commutator_defect(W, W, 24).matrix
        direct = semicommutator_defect(WBAR, W, 32).matrix[:24, :24]
        assert np.max(np.abs(defect - direct)) < 1e-13

    def test_weighted_shift_commutator_diagonal(self):
        # [T_conj(w), T_w] has diagonal 1/((p+1)(p+2)), an exact evaluation
        got = analytic_commutator_defect(W, W, 8).matrix
        want = np.diag([1.0 / ((p + 1) * (p + 2)) for p in range(8)])
        assert np.max(np.abs(got - want)) < 1e-14

    def test_blaschke_inputs_accepted(self):
        b = BlaschkeProduct([0.5, 0.75])
        defect = analytic_commutator_defect(b, b, 12)
        assert defect.dim == 12
        assert np.all(np.isfinite(defect.matrix))

    @pytest.mark.parametrize("f_zeros,g_zeros", [
        ((0.5, 0.75j), (0.5, 0.75j)),
        ((0.3 + 0.4j, -0.6), (0.9j,))])
    def test_blaschke_transform_matches_quadrature(self, f_zeros, g_zeros, default_rule):
        # The transform of [T_conj(f), T_g] is (conj(f) g)~(z) - conj(f(z)) g(z):
        # T_conj(f) k_z = conj(f(z)) k_z.  The right side integrates the
        # product on the rule's nodes and never forms a Taylor series.
        f, g = BlaschkeProduct(f_zeros), BlaschkeProduct(g_zeros)
        defect = analytic_commutator_defect(f, g, 64)
        nodes = default_rule.nodes
        product = np.conj(f.evaluate_array(nodes)) * g.evaluate_array(nodes)
        for z in (0.0, 0.3, 0.45 - 0.2j, 0.6j, -0.42 - 0.42j):
            want = (berezin_symbol_quadrature(product, z, default_rule)
                    - np.conj(f.evaluate(z)) * g.evaluate(z))
            assert abs(berezin_operator(defect, z) - want) < 1e-12

    def test_rejects_nonanalytic_symbol(self):
        with pytest.raises(ValueError):
            analytic_commutator_defect(WBAR, W, 8)

    @pytest.mark.parametrize("make", [
        lambda: BlaschkeProduct([0.5, 0.75j, -0.3 + 0.2j]),
        lambda: MonomialSymbol({(0, 0): 0.5, (1, 0): 1.0, (3, 0): -2j})])
    def test_same_input_twice_matches_an_equal_copy(self, make):
        f = make()
        shared = analytic_commutator_defect(f, f, 32).matrix
        assert np.array_equal(shared, analytic_commutator_defect(f, make(), 32).matrix)
