import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berezinlab import berezin as bz
from berezinlab import suites
from berezinlab.diskgeom import DiskDomainError, disk_gap, mobius_eval
from berezinlab.operators import TruncatedOperator, toeplitz_exact
from berezinlab.quadrature import build_rule
from berezinlab.symbols import BlaschkeProduct, MonomialSymbol
from conftest import (fsum_node_sum, kernel_density_grid, laplacian_fd,
                      node_value_transform, node_weights, product_chain_reference,
                      product_corpus, semicommutator_defect)

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
                return disk_gap(zv) ** 2 * zv ** d * acc

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


BATCH_SYMBOL = MonomialSymbol({(0, 0): 0.5 - 0.25j, (2, 1): 1.0, (0, 3): 0.3j,
                               (4, 0): -0.7, (1, 5): 0.2})
# |z| = 0.3 sums one 512-term series block and |z| = 0.995 several, in one call
BATCH_POINTS = np.array([0.3, 0.995 * np.exp(0.7j), 0j, -0.3j, 0.995, 0.5 + 0.4j,
                         0.3 * np.exp(2.1j), 0.8j])


@pytest.fixture(scope="module", params=["kernel_coefficients", "berezin_operator",
                                        "berezin_symbol_series", "berezin_symbol_quadrature"])
def batched_route(request, default_rule):
    """(name, f) with f(z) the named function of one point or a 1-d array of points."""
    op = toeplitz_exact(BATCH_SYMBOL, 64)
    return request.param, {
        "kernel_coefficients": lambda z: bz.kernel_coefficients(z, 24),
        "berezin_operator": lambda z: bz.berezin_operator(op, z),
        "berezin_symbol_series": lambda z: bz.berezin_symbol_series(BATCH_SYMBOL, z),
        "berezin_symbol_quadrature":
            lambda z: bz.berezin_symbol_quadrature(BATCH_SYMBOL, z, default_rule),
    }[request.param]


def bits(values) -> np.ndarray:
    """Complex values as their float64 halves, to compare bit for bit."""
    return np.atleast_1d(np.asarray(values, dtype=complex)).view(float)


def assert_entries_are_one_point_values(f, points, values):
    """values[i] is bitwise f(points[i]); a transform's one-point value is a complex."""
    assert values.dtype == np.complex128 and len(values) == len(points)
    for z, value in zip(points, values):
        one = f(complex(z))
        if values.ndim == 1:
            assert type(one) is complex
        assert np.array_equal(bits(one), bits(value))


class TestBatchedPoints:
    def test_entries_are_bitwise_one_point_values(self, batched_route):
        name, f = batched_route
        values = f(BATCH_POINTS)
        width = (24,) if name == "kernel_coefficients" else ()
        assert values.shape == (len(BATCH_POINTS),) + width
        assert bz._series_block_count(0.3 ** 2) == 1 < bz._series_block_count(0.995 ** 2)
        assert_entries_are_one_point_values(f, BATCH_POINTS, values)

    def test_several_chunks(self, batched_route):
        # more points than the operator route's chunk of CHUNK_ENTRIES // 64;
        # the series and quadrature routes' chunks are smaller still
        rng = np.random.default_rng(45)
        points = suites.sample_points(rng, 1100, 0.999)
        assert len(points) > bz.CHUNK_ENTRIES // 64
        _, f = batched_route
        assert_entries_are_one_point_values(f, points, f(points))

    def test_scalar_kinds_are_one_point(self, batched_route):
        _, f = batched_route
        want = f(0.3 + 0.2j)
        for z in (np.complex128(0.3 + 0.2j), np.array(0.3 + 0.2j)):
            got = f(z)
            assert type(got) is type(want)
            assert np.array_equal(bits(got), bits(want))

    def test_python_list(self, batched_route):
        _, f = batched_route
        points = BATCH_POINTS.tolist()
        assert np.array_equal(bits(f(points)), bits(f(BATCH_POINTS)))

    def test_no_points(self, batched_route):
        name, f = batched_route
        values = f(np.array([]))
        assert values.dtype == np.complex128
        assert values.shape == ((0, 24) if name == "kernel_coefficients" else (0,))

    @pytest.mark.parametrize("position", [0, 3, 7])
    @pytest.mark.parametrize("bad", [1.0, 0.6 + 0.8j, 2j, complex("nan")])
    def test_out_of_disk_point_raises(self, batched_route, position, bad):
        _, f = batched_route
        points = BATCH_POINTS.copy()
        points[position] = bad
        with pytest.raises(DiskDomainError):
            f(points)

    def test_two_dimensional_points_rejected(self, batched_route):
        _, f = batched_route
        with pytest.raises(ValueError, match="1-d array"):
            f(BATCH_POINTS.reshape(2, 4))

    @pytest.mark.parametrize("route", [bz.berezin_symbol_series, bz.berezin_symbol_quadrature])
    def test_empty_symbol(self, route, default_rule):
        args = (default_rule,) if route is bz.berezin_symbol_quadrature else ()
        one = route(MonomialSymbol(), 0.4j, *args)
        assert one == 0j and type(one) is complex
        values = route(MonomialSymbol(), BATCH_POINTS, *args)
        assert values.dtype == np.complex128 and values.shape == BATCH_POINTS.shape
        assert not values.any()


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

    @pytest.mark.parametrize("k", [10, 20, 30, 39])
    @pytest.mark.parametrize("angle", [0.0, 0.3])
    @pytest.mark.parametrize("j,kbar", [(1, 1), (6, 0), (3, 2), (0, 4), (5, 5)])
    def test_matches_mpmath_at_the_rim(self, j, kbar, angle, k):
        # The closed form z^d (1 - K g + J K g^2 Phi), g = 1 - |z|^2,
        # J = max, K = min, Phi = (-log g - sum_{i<=J} t^i/i) / t^(J+1),
        # conjugated when j < k, taken at 80 digits from the stored z.
        mpmath = pytest.importorskip("mpmath")
        z = complex((1.0 - 2.0 ** -k) * np.exp(1j * angle))
        big, small = max(j, kbar), min(j, kbar)
        with mpmath.workdps(80):
            zm = mpmath.mpc(z.real, z.imag)
            t = abs(zm) ** 2
            g = 1 - t
            phi = (-mpmath.log(g) - mpmath.fsum(t ** i / i for i in range(1, big + 1))) \
                / t ** (big + 1)
            want = (zm if j >= kbar else mpmath.conj(zm)) ** abs(j - kbar) \
                * (1 - small * g + big * small * g ** 2 * phi)
            want = complex(want)
        got = bz.berezin_symbol_exact(MonomialSymbol.monomial(j, kbar), z)
        assert abs(got - want) <= 1e-15 * abs(want)



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

    def test_zero_symbol(self, default_rule):
        assert bz.berezin_symbol_quadrature(MonomialSymbol(), 0.4j, default_rule) == 0.0

    def test_other_inputs_rejected(self, default_rule):
        values = MOD2.evaluate_array(default_rule.nodes)
        for bad in (MOD2.evaluate_array, BlaschkeProduct((0.5,)), values, values[:-1],
                    values.reshape(default_rule.n_radial, -1)):
            with pytest.raises(TypeError, match="expected a MonomialSymbol"):
                bz.berezin_symbol_quadrature(bad, 0.3, default_rule)

    def test_density_grid_matches_kernel_density(self, default_rule):
        rng = np.random.default_rng(41)
        points = [0.0, 0.9, -0.9j] + list(suites.sample_points(rng, 20, 0.9))
        for z in points:
            grid = kernel_density_grid(z, default_rule)
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
        grid = kernel_density_grid(z, default_rule)
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
        # The route and the node-value reference share nothing past the
        # rule.  Off the axis at the rim the node grid carries the error
        # (at 0.999 e^{-2.9i} it is 2.8e-13 off a 40-digit rule sum, the
        # ring sums 5e-15), so those points get the 1e-12 the grid is
        # granted at a generic angle.
        rng = np.random.default_rng(42)
        for _ in range(6):
            u = suites.random_symbol(rng, max_degree=8)
            values = u.evaluate_array(default_rule.nodes)
            rim = [(r * np.exp(1j * a), 1e-12 if a else 1e-13)
                   for r in (0.99, 0.999) for a in (0.0, 1.3, -2.9)]
            for z, tol in [(z, 1e-13) for z in suites.sample_points(rng, 5, 0.9)] + rim:
                by_symbol = bz.berezin_symbol_quadrature(u, z, default_rule)
                by_values = node_value_transform(values, z, default_rule)
                assert abs(by_symbol - by_values) <= tol * max(1.0, abs(by_values))

    @pytest.mark.parametrize("z", [0.0, 0.999, -0.999j, -0.9999, 0.3 + 0.4j,
                                   0.999 * np.exp(0.7j), 0.99 * np.exp(-2.9j)])
    def test_ring_sums_against_40_digits(self, z):
        # every node of a 12 x 32 rule, at frequencies that alias
        mpmath = pytest.importorskip("mpmath")
        rule = build_rule(12, 32)
        n = rule.n_angular
        freqs = np.array([-45, -33, -32, -31, -1, 0, 1, 5, 31, 32, 33, 64])
        got = bz._ring_sums(*bz._disk_points(z), rule, freqs)
        assert got.shape == (len(freqs), rule.n_radial)
        z = complex(z)
        with mpmath.workdps(40):
            zm = mpmath.mpc(z.real, z.imag)
            gap2 = (1 - abs(zm) ** 2) ** 2
            for i, (r, w) in enumerate(zip(rule.radial_r, rule.radial_w)):
                nodes = [mpmath.mpf(float(r)) * mpmath.expjpi(mpmath.mpf(2 * l) / n)
                         for l in range(n)]
                density = [gap2 / abs(1 - mpmath.conj(zm) * x) ** 4 for x in nodes]
                for row, d in enumerate(freqs.tolist()):
                    ref = mpmath.mpf(float(w)) / n * mpmath.fsum(
                        rho * mpmath.expjpi(mpmath.mpf(2 * l * d) / n)
                        for l, rho in enumerate(density))
                    ref = complex(ref)
                    assert abs(got[row, i] - ref) <= 1e-13 * max(1.0, abs(ref))

    def test_both_branches_alias_alike_on_coarse_rule(self):
        # frequencies |j - k| >= n_angular fold onto retained ones
        rule = build_rule(12, 8)
        for u in (MonomialSymbol({(8, 0): 1.0}),
                  MonomialSymbol({(9, 1): 1.0, (0, 10): 0.5j}),
                  MonomialSymbol({(3, 12): 1 - 1j, (8, 0): 0.25, (1, 1): 1.0})):
            values = u.evaluate_array(rule.nodes)
            for z in (0.3, 0.5 - 0.2j, -0.6j):
                by_symbol = bz.berezin_symbol_quadrature(u, z, rule)
                by_values = node_value_transform(values, z, rule)
                assert abs(by_symbol - by_values) <= 1e-14
                assert abs(by_symbol - bz.berezin_symbol_exact(u, z)) > 0.1
                assert bz.quadrature_flag(rule, z, u.total_degree) == "quadrature-unreliable"

    @pytest.mark.parametrize("n_radial", [1, 2, 4, 7, 10, 20, 80])
    def test_coarse_radial_rule_is_right_or_flagged(self, n_radial):
        # the radial rule's error at the ring sums' pole and at the symbol's
        # degree must raise the flag wherever the value is off
        rule = build_rule(n_radial, 256)
        for u in (MonomialSymbol({(0, 0): 1.0}), MonomialSymbol({(1, 1): 1.0}),
                  MonomialSymbol({(3, 0): 1.0, (0, 2): 0.5j}),
                  MonomialSymbol({(6, 6): 1.0})):
            for z in (0.0, 0.3, 0.5j, 0.8, 0.9):
                error = abs(bz.berezin_symbol_quadrature(u, z, rule)
                            - bz.berezin_symbol_exact(u, z))
                assert (error <= bz.RELIABILITY_TOL
                        or bz.quadrature_flag(rule, z, u.total_degree)), (u, z, error)

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
        # 80 rings take five or six slices of whole rings, one set ending in
        # a shorter slice, 50 take two and 30 one; the reference sums the
        # weighted node values correctly rounded
        rule = build_rule(*shape)
        rng = np.random.default_rng(43)
        for _ in range(5):
            u = suites.random_symbol(rng, max_degree=8)
            for z in (0.0, 0.3, 0.9j, 0.99, 0.999 * np.exp(2j)):
                whole = fsum_node_sum(node_weights(rule),
                                      u.compose_mobius_evaluator(z)(rule.nodes))
                got = bz.mean_value_transform(u, z, rule)
                assert abs(got - whole) <= 1e-15 * max(1.0, abs(whole))

    def test_degree_40_memory_stays_small(self, default_rule):
        # the power table and buffers are capped at 8 x 4096 entries,
        # 0.52 MB; all 41 powers of 20 480 nodes would take 13 MB
        u = MonomialSymbol({(40, 0): 1.0, (20, 20): -1.0, (3, 1): 1j, (0, 40): 0.5})
        bz.mean_value_transform(u, 0.3 + 0.2j, default_rule)
        tracemalloc.start()
        try:
            bz.mean_value_transform(u, 0.3 + 0.2j, default_rule)
            peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        assert peak_mb < 0.75


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

    def test_vector_chains_match_whole_products(self):
        cases = product_corpus()
        assert len(cases) == 117
        for symbols, z in cases:
            out = bz.berezin_of_product(symbols, z, 64)
            value, covariant_value = product_chain_reference(symbols, z, 64)
            assert abs(out.value - value) < 1e-14, (symbols, z)
            assert abs(out.covariant_value - covariant_value) < 1e-14, (symbols, z)


class TestLaplacians:
    def test_fd_on_square_modulus(self):
        assert laplacian_fd(lambda z: abs(z) ** 2, 0.2 + 0.1j) == \
            pytest.approx(4.0, abs=1e-6)

    def test_fd_on_harmonic(self):
        assert laplacian_fd(lambda z: z.real, 0.3j) == \
            pytest.approx(0.0, abs=1e-6)

    def test_operator_form_identity(self):
        assert bz.invariant_laplacian_operator(TruncatedOperator(np.eye(8)), 0.0) == 0.0

    def test_operator_form_modulus(self):
        got = bz.invariant_laplacian_operator(toeplitz_exact(MOD2, 8), 0.0)
        assert got == pytest.approx(4.0 / 3.0, abs=1e-14)

    def test_operator_form_meets_stencil_off_center(self):
        rng = np.random.default_rng(26)
        m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        op = TruncatedOperator(m / np.linalg.norm(m))
        for z in (0.4 + 0.2j, -0.3j, 0.55):
            fd = laplacian_fd(lambda p: bz.berezin_operator(op, p), z)
            got = bz.invariant_laplacian_operator(op, z)
            assert got == pytest.approx((1.0 - abs(z) ** 2) ** 2 * fd, abs=1e-5)

    def test_symbol_form(self):
        assert bz.laplacian_berezin_at_zero_symbol(ONE) == 0.0
        assert bz.laplacian_berezin_at_zero_symbol(MOD2) == pytest.approx(4.0 / 3.0)
        harmonic = MonomialSymbol({(4, 0): 2.0, (0, 1): 1j})
        assert bz.laplacian_berezin_at_zero_symbol(harmonic) == pytest.approx(0.0)

    def test_fd_meets_closed_forms(self):
        got = laplacian_fd(lambda z: bz.berezin_symbol_series(MOD2, z), 0.0)
        assert got == pytest.approx(4.0 / 3.0, abs=1e-5)
        assert bz.invariant_laplacian(MOD2, 0.0) == pytest.approx(4.0 / 3.0, abs=1e-14)

    def test_invariant_laplacian_harmonic_field(self):
        harmonic = MonomialSymbol({(3, 0): 1.0, (0, 1): 1j, (0, 0): 2.0})
        for z in (0.2, 0.5 - 0.5j, 1.0 - 2.0 ** -30):
            assert bz.invariant_laplacian(harmonic, z) == 0.0

    def test_invariant_laplacian_compose_oracle(self):
        # (1-|z|^2)^2 (Delta f)(z) equals Delta(f o phi_z) at the origin
        field = lambda z: bz.berezin_symbol_series(MOD2, z)
        z = 0.45 - 0.15j
        lhs = bz.invariant_laplacian(MOD2, z)
        composed = lambda p: field(mobius_eval(z, p))
        rhs = laplacian_fd(composed, 0.0)
        assert lhs == pytest.approx(rhs, abs=1e-5)

    @pytest.mark.parametrize("k", [5, 10])
    def test_invariant_laplacian_against_mpmath(self, k):
        # u = |w|^2 has u~ = t + (1-t)^2 (-log(1-t) - t) / t^2 with t = |z|^2,
        # and for a function of t, Delta = 4 (t f'' + f')
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            t = (1 - mp.mpf(2) ** -k) ** 2
            f = lambda s: s + (1 - s) ** 2 * (-mp.log(1 - s) - s) / s ** 2
            want = (1 - t) ** 2 * 4 * (t * mp.diff(f, t, 2) + mp.diff(f, t))
        got = bz.invariant_laplacian(MOD2, 1.0 - 2.0 ** -k)
        assert got.imag == 0.0
        assert abs(got.real - float(want)) <= 1e-11 * abs(float(want))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), r=st.floats(0.0, 0.5),
           angle=st.floats(0.0, 2.0 * math.pi))
    def test_symbol_route_matches_operator_route(self, seed, r, angle):
        u = suites.random_symbol(np.random.default_rng(seed), 6)
        z = r * complex(math.cos(angle), math.sin(angle))
        got = bz.invariant_laplacian_operator(toeplitz_exact(u, 64), z)
        assert abs(got - bz.invariant_laplacian(u, z)) <= 1e-12

    def test_defect_integral_equals_invariant_laplacian(self, default_rule):
        u = MonomialSymbol({(1, 1): 0.5, (2, 0): 0.3j})
        for z in (0.0, 0.4, 0.3 + 0.4j):
            lhs = bz.harmonic_defect_integral(u, z, default_rule)
            rhs = bz.invariant_laplacian(u, z)
            assert lhs == pytest.approx(rhs, abs=1e-5)

    def test_defect_integral_blocks_match_whole_array(self, default_rule):
        u = MonomialSymbol({(1, 1): 0.5, (2, 0): 0.3j, (0, 3): -1.0})
        for z in (0.0, 0.4, 0.3 + 0.4j, -0.99j):
            composed = u.compose_mobius_evaluator(z)
            nodes = default_rule.nodes
            whole = 8.0 * fsum_node_sum(node_weights(default_rule),
                                        composed(nodes) * (2.0 * np.abs(nodes) ** 2 - 1.0))
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
        with pytest.raises(ValueError, match="factor '1,1:1' is not harmonic"):
            bz.factored_harmonic_invariant_laplacian([MOD2], 0.1)


class TestLocalization:
    def test_constant_vanishes(self):
        # the squared expansion cancels to roundoff; the norm is its sqrt
        value, flag = bz.localization_norm(MonomialSymbol.constant(2 + 1j), 0.3)
        assert value == pytest.approx(0.0, abs=1e-7) and flag == "roundoff-floor"

    def test_coordinate_at_center(self):
        assert bz.localization_norm(W, 0.0) == (pytest.approx(math.sqrt(0.5)), "")

    def test_decays_radially(self):
        # value^2 = (|w|^2)~(z) - |z|^2 for u = w; falls toward the boundary
        at_09 = bz.localization_norm(W, 0.9)[0]
        at_099 = bz.localization_norm(W, 0.99)[0]
        square = bz.berezin_symbol_exact(MOD2, 0.9).real - 0.81
        assert at_09 ** 2 == pytest.approx(square, abs=1e-10)
        assert at_09 > at_099 > 0.0
        assert at_099 < 0.05

    def test_routes_agree(self, default_rule):
        # independent route: the norm squared is the integral of
        # |u - u(z)|^2 |k_z|^2 dA, here by the default quadrature rule
        u = MonomialSymbol({(1, 0): 1.0, (1, 1): -0.5})
        values = u.evaluate_array(default_rule.nodes)
        weights = node_weights(default_rule)
        for z in (0.6, 0.3 + 0.5j, 0.9):
            density = kernel_density(z, default_rule.nodes)
            square = np.dot(weights, np.abs(values - u.evaluate(z)) ** 2 * density)
            assert bz.localization_norm(u, z)[0] == pytest.approx(math.sqrt(square), abs=1e-10)


class TestDecayProfiles:
    def test_zero_field(self):
        profile = bz.decay_profile(lambda z: 0.0, radii=bz.dyadic_radii(5))
        assert np.all(profile.values() == 0)

    def test_harmonic_difference_vanishes(self):
        u = MonomialSymbol({(2, 0): 1 - 1j, (0, 1): 0.5})
        field = lambda z: bz.berezin_symbol_exact(u, z) - u.evaluate(z)
        profile = bz.decay_profile(field, bz.PathSpec(angle=0.7), radii=bz.dyadic_radii(12))
        assert np.max(profile.magnitudes()) < 1e-8

    def test_radii_required(self):
        with pytest.raises(TypeError):
            bz.decay_profile(lambda z: 0.0)
        with pytest.raises(TypeError):  # keyword-only
            bz.decay_profile(lambda z: 0.0, bz.PathSpec(), [0.5])

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

    @pytest.mark.parametrize("angle", [math.inf, -math.inf, math.nan])
    def test_non_finite_angle_refused(self, angle):
        with pytest.raises(ValueError, match=f"^path angle must be finite, got {angle}$"):
            bz.PathSpec(angle=angle)

    def test_flags_recorded(self):
        profile = bz.decay_profile(lambda z: (1.0, bz.operator_flag(64, z)),
                                   radii=bz.dyadic_radii(8))
        flags = [s.flag for s in profile.samples]
        assert flags[0] == "" and flags[-1] == "truncation-unreliable"
        assert len(profile.reliable().samples) < len(profile.samples)

    def test_rows_format(self):
        profile = bz.decay_profile(lambda z: 1j, radii=[0.5])
        t, zr, zi, vr, vi, flag = profile.rows()[0]
        assert (t, zr, zi, vr, vi, flag) == (0.5, 0.5, 0.0, 0.0, 1.0, "")


class TestRimGap:
    """Rim formulas take 1 - |z|^2 correctly rounded from the stored point."""

    KS = (20, 27, 30, 39)

    @staticmethod
    def exact_gap(z):
        x, y = Fraction(z.real), Fraction(z.imag)
        return 1 - x * x - y * y

    @pytest.mark.parametrize("angle", [0.0, 0.3])
    def test_rim_samples_match_exact_arithmetic(self, angle):
        path = bz.PathSpec(angle=angle)
        radii = [1.0 - 0.5 ** k for k in self.KS]
        deriv = bz.commutator_compactness_indicator(W, W, radii, dim=8, path=path).deriv_profile
        for r, sample in zip(radii, deriv.samples):
            z = complex(path.point(r))
            gap = self.exact_gap(z)
            got = {"factored-laplacian": bz.factored_harmonic_invariant_laplacian([W, WBAR], z),
                   "derivative-product": sample.value,
                   "kernel-coefficient": bz.kernel_coefficients(z, 1)[0]}
            want = {"factored-laplacian": 4 * gap ** 2, "derivative-product": gap ** 2,
                    "kernel-coefficient": gap}
            for name, value in got.items():
                exact = float(want[name])
                assert abs(value - exact) <= 1e-14 * exact, (name, r)


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

    def test_nonanalytic_error_names_the_symbol(self):
        with pytest.raises(ValueError, match="symbol '0,1:1' is not analytic"):
            bz.commutator_compactness_indicator(WBAR, W, bz.dyadic_radii(3))

    def test_rejects_other_input_types(self):
        with pytest.raises(TypeError, match="unsupported indicator input complex"):
            bz.commutator_compactness_indicator(W, 1j, bz.dyadic_radii(3), dim=16)


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

    def test_battery_inputs_exact_laplacian(self):
        # the covariance-field battery's two inputs: both Laplacians are exact
        checks = (bz.covariance_field_check(toeplitz_exact(MOD2, 64), 0.3, 0.3),
                  bz.covariance_field_check(TruncatedOperator(np.eye(64)), 0.4 + 0.1j, 0.2j))
        for check in checks:
            assert check.laplacian_residual <= 1e-12

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
        shapes = []

        def field(z):
            shapes.append(np.shape(z))
            return bz.berezin_operator(op, z)

        fitted = bz.fit_operator_from_berezin(field, 6)
        assert shapes == [(360,)]  # one call, with the whole grid
        assert np.max(np.abs(fitted.matrix - m)) < 1e-8

    def test_recovers_largest_unaliased_size(self):
        # dim 12 uses diagonals -11..11, all distinct modulo the 24 angles
        rng = np.random.default_rng(25)
        m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        op = TruncatedOperator(m)
        fitted = bz.fit_operator_from_berezin(lambda z: bz.berezin_operator(op, z), 12)
        assert np.max(np.abs(fitted.matrix - m)) < 1e-6

    @pytest.mark.parametrize("dim", [0, 13])
    def test_refuses_sizes_the_grid_aliases(self, dim):
        with pytest.raises(ValueError, match="dim must be in 1..12"):
            bz.fit_operator_from_berezin(lambda z: np.zeros(len(z), complex), dim)

    def test_semicommutator_transform_identity(self):
        # (uv)~ - u v equals the transform of the defect, pointwise
        u = MonomialSymbol({(1, 0): 1.0, (0, 1): 0.5j})
        v = MonomialSymbol({(0, 2): 1.0, (1, 0): -0.25})
        defect = semicommutator_defect(u, v, 64)
        for z in (0.0, 0.3, 0.5j, -0.4 + 0.3j):
            lhs = bz.berezin_symbol_series(u * v, z) - u.evaluate(z) * v.evaluate(z)
            rhs = bz.berezin_operator(defect, z)
            assert lhs == pytest.approx(rhs, abs=1e-8)
