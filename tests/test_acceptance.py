"""Acceptance gate: one test per shipped criterion, at pinned tolerances.

Each test prints a single PASS/FAIL line before asserting, so a verbose
run doubles as the acceptance report.  Criterion 5 is split in two: the
fixed 32-block tolerance clause at N=64 (5a) checks the library's
conjugation route, ``covariant_toeplitz``, which compresses from a
faithful working size; plain compression, the product of three N x N
truncations, cannot meet that tolerance at N=64 (the reason is worked
out in the 5a comment).  The doubling-monotonicity clause (5b) checks
how plain compression converges as N grows.  No tolerance here has been
loosened to force green.

The gate and the ``identity-suite`` batteries share one copy of each
identity they both check: criteria draw their random inputs with
``suites.random_symbol`` and ``suites.sample_points``, the covariance
and semicommutator criteria call the same residual functions as their
batteries, and criterion 10 runs the ``moment-oracle`` battery itself.
Each criterion here keeps only its pinned inputs and tolerance.
"""

import math
import time

import numpy as np
import pytest

from berezinlab import berezin as bz
from berezinlab.operators import TruncatedOperator, covariant_toeplitz, toeplitz_exact
from berezinlab.quadrature import build_rule
from berezinlab.suites import (BATTERIES, composed_block, plain_compression_residuals,
                               random_symbol, sample_points, semicommutator_residual)
from berezinlab.symbols import (BlaschkeProduct, HarmonicProductKind,
                                MonomialSymbol, classify_harmonic_product)
from conftest import harmonic_product_corpus, laplacian_fd, product_corpus

W = MonomialSymbol.identity()
WBAR = MonomialSymbol.monomial(0, 1)
MOD2 = MonomialSymbol.monomial(1, 1)


def report(num, ok, detail):
    line = f"ACCEPTANCE {num:>3}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_harmonic_fixed_point_quadrature():
    # 20 random harmonic symbols (degree <= 6), 100 grid points |z| <= 0.9,
    # quadrature route within 1e-8, under 30 s.  The rule is enlarged per
    # the near-boundary policy (callers supply bigger rules close to the rim).
    # Each symbol takes the quadrature route once, for the whole grid.
    start = time.time()
    rng = np.random.default_rng(201)
    rule = build_rule(120, 512)
    grid = sample_points(np.random.default_rng(202), 100, 0.9)
    worst = 0.0
    for _ in range(20):
        u = random_symbol(rng, 6, harmonic=True)
        for z, got in zip(grid, bz.berezin_symbol_quadrature(u, grid, rule).tolist()):
            worst = max(worst, abs(got - u.evaluate(z)))
    elapsed = time.time() - start
    report(1, worst <= 1e-8 and elapsed < 30.0,
           f"max |u~ - u| = {worst:.3e}, {elapsed:.1f}s")


def test_criterion_02_route_agreement():
    # series vs quadrature vs operator (N=64) within 1e-6, 20 random
    # symbols, |z| <= 0.7; each route once per symbol, for its five points
    rng = np.random.default_rng(203)
    rule = build_rule()
    worst = 0.0
    for _ in range(20):
        u = random_symbol(rng, 6)
        op = toeplitz_exact(u, 64)
        zs = sample_points(np.random.default_rng(int(rng.integers(1 << 30))), 5, 0.7)
        for series, quad, oper in zip(bz.berezin_symbol_series(u, zs).tolist(),
                                      bz.berezin_symbol_quadrature(u, zs, rule).tolist(),
                                      bz.berezin_operator(op, zs).tolist()):
            worst = max(worst, abs(series - quad), abs(series - oper),
                        abs(quad - oper))
    report(2, worst <= 1e-6, f"max pairwise route residual = {worst:.3e}")


def test_criterion_03_laplacian_at_zero_operator_vs_stencil():
    # closed form vs five-point stencil within 1e-5 on 20 random unit-
    # Frobenius matrices; both equal 4/3 within 1e-6 for the |w|^2 operator
    rng = np.random.default_rng(204)
    worst = 0.0
    for _ in range(20):
        m = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        m /= np.linalg.norm(m)
        op = TruncatedOperator(m)
        fd = laplacian_fd(lambda z: bz.berezin_operator(op, z), 0j)
        closed = bz.invariant_laplacian_operator(op, 0j)
        worst = max(worst, abs(fd - closed))
    op = toeplitz_exact(MOD2, 64)
    fd = laplacian_fd(lambda z: bz.berezin_operator(op, z), 0j)
    closed = bz.invariant_laplacian_operator(op, 0j)
    special = max(abs(fd - 4.0 / 3.0), abs(closed - 4.0 / 3.0))
    report(3, worst <= 1e-5 and special <= 1e-6,
           f"random worst = {worst:.3e}, |w|^2 case = {special:.3e}")


def test_criterion_04_laplacian_at_zero_symbol_vs_operator():
    # the moment-integral route equals the operator route at 0 to 1e-10
    rng = np.random.default_rng(205)
    worst = 0.0
    for _ in range(20):
        u = random_symbol(rng, 6)
        sym_route = bz.laplacian_berezin_at_zero_symbol(u)
        op_route = bz.invariant_laplacian_operator(toeplitz_exact(u, 8), 0j)
        worst = max(worst, abs(sym_route - op_route))
    report(4, worst <= 1e-10, f"max |symbol - operator| = {worst:.3e}")


COVARIANCE_SYMBOLS = {"w": W, "conj(w)": WBAR, "|w|^2": MOD2}
COVARIANCE_POINTS = (0.5, 0.45j, -0.35 + 0.35j, 0.25, 0.1)


def test_criterion_05a_covariance_block_tolerance():
    # leading 32x32 residual at N=64 <= 1e-6 for u in {w, conj(w), |w|^2},
    # |z| <= 0.5, through the library's conjugation route.  Plain
    # compression cannot meet this: column p of the truncated U_z carries
    # O(1) mass on modes up to p(1+|z|)/(1-|z|) (Mobius mode spreading;
    # the columns themselves are verified exact against FFT Taylor
    # extraction elsewhere in the suite), so a faithful 32-block at
    # |z| = 0.5 needs N >= ~96 plus margin.  Multiplying the N=64
    # truncations leaves an O(1) residual, ~3e-10 only from N=128 on
    # (5b tracks that convergence).  covariant_toeplitz instead builds the
    # first 64 columns of U_z out to a working size where their tails are
    # negligible before it compresses to 64.
    rule = build_rule(160, 640)
    worst = 0.0
    for u in COVARIANCE_SYMBOLS.values():
        for z in COVARIANCE_POINTS:
            lhs = covariant_toeplitz(u, z, 64).leading_block(32)
            worst = max(worst, (lhs - composed_block(u, z, rule, 32)).norm_fro())
    report("5a", worst <= 1e-6, f"max 32-block residual at N=64 = {worst:.3e}")


def test_criterion_05b_covariance_residual_monotone_in_truncation():
    # the same residual decreases strictly as N doubles 32 -> 64 -> 128
    rule = build_rule(160, 640)
    ok = True
    detail = []
    symbols = list(COVARIANCE_SYMBOLS.values())
    by_point = {z: plain_compression_residuals(symbols, z, (32, 64, 128), rule, 32)
                for z in COVARIANCE_POINTS[:4]}
    for i, name in enumerate(COVARIANCE_SYMBOLS):
        for z in COVARIANCE_POINTS[:4]:
            residuals = by_point[z][i]
            monotone = residuals[0] > residuals[1] > residuals[2]
            ok = ok and monotone
            detail.append(f"{name}@{z}: " + ">".join(f"{r:.1e}" for r in residuals))
    report("5b", ok, "; ".join(detail[:3]) + " ...")


def test_criterion_06_product_transform_residual():
    # covariant-chain residual <= 1e-6 for products of length <= 3 over
    # {w, conj(w), |w|^2}, |z| <= 0.5, N=64
    worst = 0.0
    count = 0
    for symbols, z in product_corpus():
        out = bz.berezin_of_product(symbols, z, 64)
        worst = max(worst, out.residual)
        count += 1
    report(6, worst <= 1e-6, f"max residual over {count} product cases = {worst:.3e}")


def test_criterion_07_product_minus_pointwise_is_defect_transform():
    # |(uv)~ - uv - defect~| <= 1e-6 for 10 random harmonic pairs,
    # |z| <= 0.7, N=64
    rng = np.random.default_rng(206)
    worst = 0.0
    for _ in range(10):
        u = random_symbol(rng, 4, harmonic=True)
        v = random_symbol(rng, 4, harmonic=True)
        points = sample_points(np.random.default_rng(int(rng.integers(1 << 30))), 5, 0.7)
        worst = max(worst, semicommutator_residual(u, v, points, 64))
    report(7, worst <= 1e-6, f"max identity residual = {worst:.3e}")


def test_criterion_08_harmonic_product_classifier_corpus():
    NH = HarmonicProductKind.NOT_HARMONIC
    corpus = harmonic_product_corpus()
    assert len(corpus) == 12
    failures = []
    for i, (u, v, expected) in enumerate(corpus):
        out = classify_harmonic_product(u, v)
        lap_zero = (u * v).laplacian().is_zero()
        if out.kind is not expected:
            failures.append(f"case {i}: got {out.kind}")
        if (out.kind is not NH) != lap_zero:
            failures.append(f"case {i}: disagrees with exact Laplacian")
    flagship = classify_harmonic_product(corpus[5][0], corpus[5][1])
    if not (abs(flagship.alpha - 1j) < 1e-12 and abs(flagship.beta - 1.0) < 1e-12):
        failures.append(f"flagship witness {flagship.alpha}, {flagship.beta}")
    report(8, not failures, "; ".join(failures) or "12/12 classified correctly")


def test_criterion_09_boundary_decay_indicator():
    # coordinate pair: derivative profile below 1e-5 by k=10 and the
    # defect transform strictly decreasing along the reliable prefix
    # (N=256 gives a 4-sample prefix); Blaschke corpus: zero-samples
    # match the pseudohyperbolic product oracle and stay above a
    # positive floor.  Runtime < 60 s.
    start = time.time()
    radii = bz.dyadic_radii(10)
    rep = bz.commutator_compactness_indicator(W, W, radii, dim=256)
    deriv_final = rep.deriv_profile.magnitudes()[-1]
    reliable = rep.berezin_profile.reliable().magnitudes()
    prefix_ok = len(reliable) >= 4
    monotone = bool(np.all(np.diff(reliable) < 0))
    # independent resummation of the defect transform:
    # (1-t)^2 (-log(1-t) - t)/t^2 with t = |z|^2
    closed_ok = True
    for sample, got in zip(rep.berezin_profile.reliable().samples, reliable):
        t = abs(sample.z) ** 2
        closed = (1 - t) ** 2 * (-math.log1p(-t) - t) / t ** 2
        closed_ok = closed_ok and abs(got - closed) < 1e-8

    zeros = [1 - 2.0 ** -k for k in range(1, 9)]
    blaschke = BlaschkeProduct(zeros)
    rep_b = bz.commutator_compactness_indicator(blaschke, blaschke, radii, dim=64)
    samples = {a: abs(v) for a, v in rep_b.zero_samples}
    oracle_ok = True
    for j, a in enumerate(zeros):
        delta = np.prod([abs((zeros[k] - a) / (1 - zeros[k] * a))
                         for k in range(len(zeros)) if k != j])
        oracle_ok = oracle_ok and abs(samples[a] - delta ** 2) < 1e-9
    floor = rep_b.residuals["zero_floor"]
    floor_ok = floor == pytest.approx(5.848780583903091e-4, rel=1e-6) and floor > 0

    elapsed = time.time() - start
    ok = (deriv_final < 1e-5 and prefix_ok and monotone and closed_ok
          and oracle_ok and floor_ok and elapsed < 60.0)
    report(9, ok,
           f"deriv final = {deriv_final:.2e}, prefix = {len(reliable)}, "
           f"monotone = {monotone}, floor = {floor:.3e}, {elapsed:.1f}s")


def test_criterion_10_moment_oracle():
    # every monomial moment with exponents <= 40 matches delta_ab/(a+1)
    # to 1e-13 under the default rule: the moment-oracle battery exactly
    result = BATTERIES["moment-oracle"]()
    report(10, result.passed, f"max moment error = {result.max_residual:.3e}")
