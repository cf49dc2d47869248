import numpy as np
import pytest

from berezinlab import operators
from berezinlab.berezin import kernel_coefficients
from berezinlab.operators import (TruncatedOperator, analytic_commutator_defect,
                                  commutator, covariant_toeplitz,
                                  semicommutator_defect, toeplitz_analytic,
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
        assert commutator(TruncatedOperator(np.eye(6)), a).norm_fro() == 0.0

    def test_zero_norm(self):
        assert TruncatedOperator(np.zeros((8, 8))).norm_fro() == 0.0

    def test_json_roundtrip(self):
        rng = np.random.default_rng(12)
        op = TruncatedOperator(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        payload = op.to_json_dict()
        assert payload["basis"] == "orthonormal-monomial"
        assert payload["dim"] == 4
        back = TruncatedOperator.from_json_dict(payload)
        assert np.array_equal(back.matrix, op.matrix)

    def test_json_rejects_other_basis(self):
        with pytest.raises(ValueError):
            TruncatedOperator.from_json_dict({"dim": 1, "basis": "raw", "entries": [[[1, 0]]]})


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


class TestToeplitzQuadrature:
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


class TestToeplitzAnalytic:
    def test_matches_exact_for_polynomials(self):
        f = MonomialSymbol({(0, 0): 0.3, (1, 0): -1j, (3, 0): 0.7})
        coeffs = np.zeros(8, dtype=complex)
        coeffs[0], coeffs[1], coeffs[3] = 0.3, -1j, 0.7
        got = toeplitz_analytic(coeffs, 8).matrix
        want = toeplitz_exact(f, 8).matrix
        assert np.max(np.abs(got - want)) < 1e-14


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
        (0.5, 438, 64), (0.9, 2784, 64),
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
        rhs = toeplitz_quadrature(MOD2.compose_mobius_evaluator(z), 12, big_rule,
                                  warn=False)
        assert (lhs - rhs).norm_fro() < 1e-8

    @pytest.mark.parametrize("z", [0.5, 0.7])
    def test_whole_block_matches_quadrature(self, z, big_rule):
        # the working size makes every returned entry faithful, not just
        # a leading block
        for u in (W, WBAR, MOD2):
            lhs = covariant_toeplitz(u, z, 64)
            rhs = toeplitz_quadrature(u.compose_mobius_evaluator(z), 64,
                                      big_rule, warn=False)
            assert (lhs - rhs).norm_fro() < 1e-10

    def test_offsets_below_and_beyond_the_working_block(self):
        # offsets -2 and +-70, the latter at least the 65 working rows of
        # z = 0.3+0.1j, dim 8; the reference applies the dense T_u
        u = MonomialSymbol.from_string("1,0:1;0,2:0.5-0.25i;70,0:2;0,70:1i;1,1:-1")
        z, dim = 0.3 + 0.1j, 8
        rows = operators._covariant_rows(abs(z), dim)
        assert rows == 65
        v = operators._uz_columns(z, rows, dim)
        want = v.conj().T @ toeplitz_exact(u, rows).matrix @ v
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
        defect = analytic_commutator_defect(W, W, 24, pad=8).matrix
        direct = semicommutator_defect(WBAR, W, 32).matrix[:24, :24]
        assert np.max(np.abs(defect - direct)) < 1e-13

    def test_weighted_shift_commutator_diagonal(self):
        # [T_conj(w), T_w] has diagonal 1/((p+1)(p+2)), an exact evaluation
        got = analytic_commutator_defect(W, W, 8, pad=4).matrix
        want = np.diag([1.0 / ((p + 1) * (p + 2)) for p in range(8)])
        assert np.max(np.abs(got - want)) < 1e-14

    def test_blaschke_inputs_accepted(self):
        b = BlaschkeProduct([0.5, 0.75])
        defect = analytic_commutator_defect(b, b, 12, pad=64)
        assert defect.dim == 12
        assert np.all(np.isfinite(defect.matrix))

    def test_rejects_nonanalytic_symbol(self):
        with pytest.raises(ValueError):
            analytic_commutator_defect(WBAR, W, 8)

    def test_rejects_negative_pad(self):
        with pytest.raises(ValueError, match="pad must be >= 0"):
            analytic_commutator_defect(W, W, 64, pad=-5)
