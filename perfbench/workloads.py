"""The three workloads: inputs made from a seed, one round of operations, checks.

A workload is built once per process (that is set-up) and then offers
``ops``, a fixed list of (label, callable) pairs that make up one round,
and ``check_one(i, out)``, which compares the output of operation i
against the benchmark's own numerics in ``oracle`` or against
properties the method must have, and returns a list of failure
messages.  ``prepare_checks()`` computes the oracle's values ahead of
the first round.  Every round repeats
the same operations on the same inputs, so the count of operations per
round, and the work in it, does not depend on how long a run lasts.

Calls into berezinlab go through module attributes (``bz.name``), so a
tracer that swaps those attributes sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from berezinlab import berezin as bz
from berezinlab import cli, operators, symbols

import oracle

EPS = np.finfo(float).eps


def _symbol_text(terms: dict) -> str:
    """Terms in the CLI syntax ``j,k:a+bi`` with round-trip precision."""
    return ";".join(f"{j},{k}:{c.real:.17g}{c.imag:+.17g}i"
                    for (j, k), c in sorted(terms.items()))


def _coeff(rng) -> complex:
    return complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))


def _disk_points(rng, count: int, r_max: float) -> list:
    r = r_max * np.sqrt(rng.uniform(0.0, 1.0, count))
    theta = rng.uniform(0.0, 2.0 * np.pi, count)
    return [complex(p) for p in r * np.exp(1j * theta)]


def _angle(rng) -> complex:
    return complex(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))


def _random_terms(rng, pool, count: int) -> dict:
    picks = rng.choice(len(pool), size=count, replace=False)
    return {pool[i]: _coeff(rng) for i in sorted(picks)}


def _worst(values) -> float:
    values = np.asarray(values, dtype=float)
    return float(values.max()) if values.size else 0.0


class Workload:
    ops: list

    def prepare_checks(self):
        """Compute whatever the checks need from the oracle; nothing by default."""

    def check_one(self, i: int, out) -> list:
        raise NotImplementedError

    def check(self, outputs) -> list:
        """check_one over a whole round; failed operations are skipped."""
        errors = []
        for i, out in enumerate(outputs):
            if not isinstance(out, Exception):
                errors += self.check_one(i, out)
        return errors


# Monomials of total degree 1..6, split by whether they are harmonic.
MIXED = [(j, k) for j in range(1, 6) for k in range(1, 7 - j)]
PURE = [(d, 0) for d in range(1, 7)] + [(0, d) for d in range(1, 7)]

ROUTES = ("quadrature", "mean-value", "series", "exact", "operator")
# The route-agreement battery's pinned tolerances, each against the series route.
ROUTE_TOL = {"quadrature": 1e-8, "mean-value": 1e-8, "series": 1e-10,
             "exact": 1e-10, "operator": 1e-6}
OPERATOR_DIM = 64


def route_sweep_terms(rng) -> list:
    """Twelve symbols of degree <= 6, three of them harmonic.

    The seed picks coefficients and which symbol gets which monomial, but
    every round uses the same multiset of exponents: the harmonic symbols
    share out the twelve pure monomials, the others the fifteen mixed and
    again the twelve pure ones, each with a constant term.  Evaluation
    cost depends on the exponents (w**2 is ten times cheaper than w**3
    in numpy), so this keeps the work per round the same for every seed.
    """
    groups = []
    pure = [PURE[i] for i in rng.permutation(len(PURE))]
    groups += [pure[i::3] for i in range(3)]
    mixed = [MIXED[i] for i in rng.permutation(len(MIXED))]
    rest = mixed[9:] + PURE
    rest = [rest[i] for i in rng.permutation(len(rest))]
    groups += [[mixed[i]] + rest[2 * i:2 * i + 2] for i in range(9)]
    return [{(0, 0): _coeff(rng), **{m: _coeff(rng) for m in g}} for g in groups]


class RouteSweep(Workload):
    """Every point of every symbol through all five transform routes."""

    name = "route-sweep"
    points_per_symbol = 10

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        self.rule = bz.BerezinConfig().rule()
        self.terms = route_sweep_terms(rng)
        self.symbols = [symbols.MonomialSymbol.from_string(_symbol_text(t))
                        for t in self.terms]
        self.points = [[0j] + _disk_points(rng, self.points_per_symbol - 1, 0.8)
                       for _ in self.terms]
        self.ops = [(f"symbol-{i}", self._op(u, zs))
                    for i, (u, zs) in enumerate(zip(self.symbols, self.points))]

    def _op(self, u, zs):
        rule = self.rule

        def run():
            op = operators.toeplitz_exact(u, OPERATOR_DIM)
            out = {route: [] for route in ROUTES}
            for z in zs:
                out["quadrature"].append(bz.berezin_symbol_quadrature(u, z, rule))
                out["mean-value"].append(bz.mean_value_transform(u, z, rule))
                out["series"].append(bz.berezin_symbol_series(u, z))
                out["exact"].append(bz.berezin_symbol_exact(u, z))
                out["operator"].append(bz.berezin_operator(op, z))
            return out
        return run

    def check_one(self, i: int, out) -> list:
        return check_route_sweep(self.terms[i], self.points[i], out)


def check_route_sweep(terms: dict, zs, out: dict) -> list:
    """Route agreement, the harmonic fixed point and the disk mean at z = 0."""
    errors = []
    harmonic = all(j == 0 or k == 0 for j, k in terms)
    series = np.asarray(out["series"])
    for route in ROUTES:
        values = np.asarray(out[route])
        if values.shape != (len(zs),) or not np.all(np.isfinite(values)):
            return [f"{route}: expected {len(zs)} finite values"]
        tol = ROUTE_TOL[route]
        for i, z in enumerate(zs):
            if route == "operator" and bz.operator_tail_bound(OPERATOR_DIM, z) >= 1e-6:
                continue
            if route != "series" and abs(values[i] - series[i]) > tol:
                errors.append(f"{route} at z={z:.6g} differs from series by "
                              f"{abs(values[i] - series[i]):.3e} > {tol:g}")
            if harmonic:
                u_at = complex(oracle.poly_eval(terms, np.array([z]))[0])
                if abs(values[i] - u_at) > tol:
                    errors.append(f"{route} at z={z:.6g} moves a harmonic symbol by "
                                  f"{abs(values[i] - u_at):.3e} > {tol:g}")
            if z == 0 and abs(values[i] - oracle.disk_mean(terms)) > tol:
                errors.append(f"{route} at z=0 misses the disk mean by "
                              f"{abs(values[i] - oracle.disk_mean(terms)):.3e}")
    for i, z in enumerate(zs):
        ref = oracle.berezin_series(terms, z)
        if abs(series[i] - ref) > ROUTE_TOL["series"]:
            errors.append(f"series at z={z:.6g} misses the moment sum by "
                          f"{abs(series[i] - ref):.3e}")
    return errors


# ---------------------------------------------------------------------------

# (|z|, dim): working sizes from 97 rows (|z| = 0.1) to 2784 rows (|z| = 0.9),
# under the 4096-row ceiling of covariant_toeplitz.
COVARIANT_LADDER = ((0.1, 32), (0.3, 48), (0.5, 64), (0.7, 64), (0.8, 64), (0.9, 64))
# (|z|, N).  |z| stays large enough that z^n never goes subnormal in the
# column build, whose cost then does not depend on |z|.
UZ_LADDER = ((0.7, 256), (0.8, 512), (0.9, 1024))
PRODUCT_RADII = (0.3, 0.5)
LOW_DEGREE = [(j, k) for j in range(4) for k in range(4 - j)]
LOW_MIXED = [m for m in MIXED if sum(m) <= 3]
LOW_PURE = [m for m in PURE if sum(m) <= 3]
SAMPLED_ENTRIES = 5


def faithful_block(r: float, n: int) -> int:
    """Columns of an n-row U_z block whose mass stays well inside n rows.

    Column p spreads to about p(1+r)/(1-r); half that bound leaves a
    margin for the geometric tail.
    """
    return max(1, int(n * (1.0 - r) / (1.0 + r) / 2))


class ConjugationLadder(Workload):
    """covariant_toeplitz up a ladder of working sizes, plus unitary_uz and products."""

    name = "conjugation-ladder"

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        self.covariant = []
        for r, dim in COVARIANT_LADDER:
            terms = _random_terms(rng, LOW_DEGREE, 4)
            pairs = [tuple(int(x) for x in rng.integers(0, dim, 2))
                     for _ in range(SAMPLED_ENTRIES)]
            self.covariant.append((terms, r * _angle(rng), dim, pairs))
        self.uz = [(r * _angle(rng), n) for r, n in UZ_LADDER]
        self.products = [([_random_terms(rng, LOW_DEGREE, 4) for _ in range(2)],
                          r * _angle(rng)) for r in PRODUCT_RADII]
        self.fields = [(_random_terms(rng, LOW_DEGREE, 4), r * _angle(rng),
                        _disk_points(rng, 1, 0.3)[0]) for r in PRODUCT_RADII]
        sym = lambda t: symbols.MonomialSymbol.from_string(_symbol_text(t))
        self.ops = []
        for i, (terms, z, dim, _) in enumerate(self.covariant):
            u = sym(terms)
            self.ops.append((f"covariant-{i}",
                             lambda u=u, z=z, dim=dim: operators.covariant_toeplitz(u, z, dim)))
        for i, (z, n) in enumerate(self.uz):
            self.ops.append((f"uz-{i}", lambda z=z, n=n: operators.unitary_uz(z, n)))
        for i, (pair, z) in enumerate(self.products):
            us = [sym(t) for t in pair]
            self.ops.append((f"product-{i}",
                             lambda us=us, z=z: bz.berezin_of_product(us, z, OPERATOR_DIM)))
        for i, (terms, z, w) in enumerate(self.fields):
            u = sym(terms)
            self.ops.append((f"covariance-{i}", lambda u=u, z=z, w=w: bz.covariance_field_check(
                operators.toeplitz_exact(u, OPERATOR_DIM), z, w)))
        self._checks = None

    def prepare_checks(self):
        """The oracle's corner values and sampled entries, computed once per process."""
        if self._checks is not None:
            return
        rule = oracle.DiskRule(256, 512)
        expected = [(oracle.berezin_series(terms, z),
                     oracle.composed_entries(terms, z, pairs, rule))
                    for terms, z, _, pairs in self.covariant]
        self._checks = (
            [lambda out, c=c, e=e: check_covariant(out.matrix, c[2], c[3], e[0], e[1], c[1])
             for c, e in zip(self.covariant, expected)]
            + [lambda out, z=z, n=n: check_uz(out.matrix, z, n) for z, n in self.uz]
            + [check_product] * len(self.products)
            + [check_covariance_field] * len(self.fields))
        assert len(self._checks) == len(self.ops)

    def check_one(self, i: int, out) -> list:
        self.prepare_checks()
        return self._checks[i](out)


def check_covariant(matrix, dim, pairs, corner, entries, z) -> list:
    """Corner entry equals u~(z); sampled entries match the composed-symbol quadrature."""
    if matrix.shape != (dim, dim):
        return [f"covariant_toeplitz returned shape {matrix.shape}, wanted {dim}"]
    errors = []
    if abs(matrix[0, 0] - corner) > 1e-10:
        errors.append(f"covariant corner at z={z:.4g} misses u~(z) by "
                      f"{abs(matrix[0, 0] - corner):.3e} > 1e-10")
    for (p, q), want in zip(pairs, entries):
        if abs(matrix[q, p] - want) > 1e-9:
            errors.append(f"covariant entry ({q},{p}) at z={z:.4g} misses quadrature "
                          f"by {abs(matrix[q, p] - want):.3e} > 1e-9")
    return errors


def check_uz(matrix, z, n) -> list:
    """Column 0 is -k_z; self-adjoint and orthonormal on the faithful block."""
    if matrix.shape != (n, n):
        return [f"unitary_uz returned shape {matrix.shape}, wanted {n}"]
    errors = []
    col_err = _worst(np.abs(matrix[:, 0] - oracle.kernel_column(z, n)))
    if col_err > 1e-12:
        errors.append(f"U_z column 0 at z={z:.4g}, N={n} misses -k_z by {col_err:.3e}")
    f = faithful_block(abs(z), n)
    block, cols = matrix[:f, :f], matrix[:, :f]
    sa = _worst(np.abs(block - block.conj().T))
    orth = _worst(np.abs(cols.conj().T @ cols - np.eye(f)))
    if sa > 1e-12 or orth > 1e-10:
        errors.append(f"U_z at z={z:.4g}, N={n}: self-adjoint residual {sa:.3e}, "
                      f"orthonormality residual {orth:.3e} on the {f}-column block")
    return errors


def check_product(out) -> list:
    if not out.residual <= 1e-6:
        return [f"berezin_of_product residual {out.residual:.3e} > 1e-6"]
    return []


def check_covariance_field(out) -> list:
    if out.flag or not (out.value_residual <= 1e-10 and out.laplacian_residual <= 1e-5):
        return [f"covariance_field_check: value residual {out.value_residual:.3e}, "
                f"Laplacian residual {out.laplacian_residual:.3e}, flag {out.flag!r}"]
    return []


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CliRun:
    argv: tuple
    code: int
    text: str


def run_cli(argv) -> CliRun:
    """One in-process ``berezinlab`` session with stdout captured in memory."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
    except SystemExit as exc:   # argparse rejects its input this way
        code = exc.code if isinstance(exc.code, int) else 2
    return CliRun(tuple(argv), code, buf.getvalue())


INTERIOR_POINTS = 4
RIM_RADII = (0.99, 0.995, 0.999)
DECAY_KMAX = 39
COMMUTATOR_TRUNC = 128
BATTERY_COUNT = 20


def _zlist(zs) -> str:
    return ",".join(f"{z.real:.17g}{z.imag:+.17g}i" for z in zs)


def _parse_c(pair) -> complex:
    return complex(pair[0], pair[1])


class CliSession(Workload):
    """All six commands, in process, with JSON reports on captured stdout."""

    name = "cli-session"

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 3])
        general = PURE + MIXED
        self.berezin_terms = _random_terms(rng, general, 4)
        self.interior = _disk_points(rng, INTERIOR_POINTS, 0.8)
        self.rim = [r * _angle(rng) for r in RIM_RADII]
        self.toeplitz_terms = _random_terms(rng, LOW_DEGREE, 4)
        self.uz_z = 0.7 * _angle(rng)
        radii = rng.uniform(0.3, 0.9, 3)
        self.zeros = [complex(round(z.real, 6), round(z.imag, 6))
                      for z in radii * np.exp(1j * rng.uniform(0, 2 * np.pi, 3))]
        # Degree <= 3 keeps the five-point stencil's truncation error (which
        # grows with the symbol's fourth derivatives) well inside 1e-5.
        self.decay_terms = {field: {**_random_terms(rng, LOW_MIXED, 1),
                                    **_random_terms(rng, LOW_PURE, 2)}
                            for field in ("berezin-minus-symbol", "invariant-laplacian",
                                          "localization")}
        self.theta = float(rng.uniform(0.0, 2.0 * np.pi))
        text = _symbol_text
        # "--opt=value": values such as -0.5+0.2i would otherwise read as options
        theta = [f"--theta={self.theta!r}", f"--kmax={DECAY_KMAX}"]
        self.argvs = [
            ["identity-suite"],
            ["berezin", f"--symbol={text(self.berezin_terms)}",
             f"--z={_zlist(self.interior)}", "--route=all"],
            ["berezin", f"--symbol={text(self.berezin_terms)}",
             f"--z={_zlist(self.rim)}", "--route=all"],
            ["toeplitz", f"--symbol={text(self.toeplitz_terms)}", "--trunc=24"],
            ["uz", f"--z={_zlist([self.uz_z])}", "--trunc=48"],
            ["commutator", f"--blaschke-f={_zlist(self.zeros)}", "--blaschke-g=same",
             f"--trunc={COMMUTATOR_TRUNC}"],
        ] + [["decay", f"--field={field}", f"--symbol={text(terms)}"] + theta
             for field, terms in self.decay_terms.items()] + [
            ["decay", "--field=factored-laplacian", "--factor=1,0:1",
             "--factor=0,1:1"] + theta,
        ]
        self.ops = [(argv[0] if argv[0] != "decay" else argv[1].replace("--field=", "decay-"),
                     lambda argv=argv: run_cli(argv)) for argv in self.argvs]
        self.rule = None

    def prepare_checks(self):
        if self.rule is None:
            self.rule = oracle.DiskRule(256, 512)

    def check_one(self, i: int, run: CliRun) -> list:
        self.prepare_checks()
        return [f"{' '.join(run.argv[:3])}: {e}" for e in self.check_run(run)]

    def check_run(self, run: CliRun) -> list:
        if run.code != 0:
            return [f"exit code {run.code}"]
        try:
            report = json.loads(run.text)
        except ValueError as exc:
            return [f"output is not JSON: {exc}"]
        command = run.argv[0]
        if command == "identity-suite":
            return check_identity_suite(report)
        if command == "berezin":
            rim = run.argv[2] == f"--z={_zlist(self.rim)}"
            return check_berezin_report(report, self.berezin_terms, rim)
        if command == "toeplitz":
            return check_matrix(report, oracle.toeplitz_entries(self.toeplitz_terms, 24))
        if command == "uz":
            return check_matrix(report, oracle.kernel_column(self.uz_z, 48), column=0)
        if command == "commutator":
            return check_commutator(report, self.zeros)
        field = run.argv[1].split("=", 1)[1]
        return check_decay(report, field, self.decay_terms.get(field), self.theta,
                           self.rule)


def check_identity_suite(report) -> list:
    results = report.get("results", [])
    passed = sum(1 for r in results if r.get("passed") is True)
    if len(results) != BATTERY_COUNT or passed != BATTERY_COUNT:
        return [f"{passed} of {len(results)} batteries passed, wanted "
                f"{BATTERY_COUNT} of {BATTERY_COUNT}"]
    return []


def check_berezin_report(report, terms, rim: bool) -> list:
    """Interior: routes match the moment sum, no flags.  Rim: flags raised, series = exact."""
    errors = []
    u = symbols.MonomialSymbol(terms)
    for res in report.get("results", []):
        z = _parse_c(res["z"])
        values = {k: _parse_c(v) for k, v in res["values"].items()}
        flags = res["flags"]
        if set(values) != {"series", "quadrature", "operator"}:
            return [f"routes {sorted(values)} at z={z:.6g}"]
        if rim:
            want = {"series": "", "quadrature": "quadrature-unreliable",
                    "operator": "truncation-unreliable"}
            exact = bz.berezin_symbol_exact(u, z)
            if abs(values["series"] - exact) > 1e-9:
                errors.append(f"series at rim z={z:.6g} differs from the exact route "
                              f"by {abs(values['series'] - exact):.3e}")
        else:
            want = dict.fromkeys(values, "")
            ref = oracle.berezin_series(terms, z)
            for route, value in values.items():
                tol = ROUTE_TOL[route]
                if abs(value - ref) > tol:
                    errors.append(f"{route} at z={z:.6g} misses the moment sum by "
                                  f"{abs(value - ref):.3e} > {tol:g}")
        if flags != want:
            errors.append(f"flags {flags} at z={z:.6g}, wanted {want}")
    if len(report.get("results", [])) != (len(RIM_RADII) if rim else INTERIOR_POINTS):
        errors.append("wrong number of results")
    return errors


def check_matrix(report, want, column=None) -> list:
    got = np.array([[_parse_c(v) for v in row] for row in report["entries"]])
    if column is not None:
        got = got[:, column]
    if got.shape != want.shape:
        return [f"matrix shape {got.shape}, wanted {want.shape}"]
    err = _worst(np.abs(got - want))
    if err > 1e-10:
        return [f"entries miss the closed form by {err:.3e} > 1e-10"]
    return []


def check_commutator(report, zeros) -> list:
    got = [_parse_c(s["value"]) for s in report.get("zero_samples", [])]
    want = oracle.blaschke_zero_values(zeros)
    if len(got) != len(want):
        return [f"{len(got)} zero samples, wanted {len(want)}"]
    err = max(abs(g - w) / w for g, w in zip(got, want))
    if err > 1e-9 or report["config"]["dim"] != COMMUTATOR_TRUNC:
        return [f"zero samples miss |prod phi_a_j(a_k)|^2 by relative {err:.3e}"]
    return []


def check_decay(report, field, terms, theta, rule) -> list:
    """Each field against the benchmark's own value where doubles can resolve it."""
    samples = report["profiles"][0]["samples"]
    if len(samples) != DECAY_KMAX:
        return [f"{len(samples)} samples, wanted {DECAY_KMAX}"]
    direction = complex(math.cos(theta), math.sin(theta))
    errors = []
    for k, s in enumerate(samples, start=1):
        value = _parse_c(s["value"])
        r = 1.0 - 0.5 ** k
        z = direction * r
        if not np.isfinite(value):
            errors.append(f"k={k}: value {value}")
            continue
        if field == "factored-laplacian":
            # 1 - |z|^2 carries a relative rounding error of about eps/(1-r^2)
            want = 4.0 * (1.0 - r * r) ** 2
            tol = want * (1e-9 + 16.0 * EPS / (1.0 - r * r))
        elif field == "berezin-minus-symbol" and k <= 10:
            want = oracle.berezin_series(terms, z) - oracle.poly_eval(terms, np.array([z]))[0]
            tol = 1e-9
        elif field == "invariant-laplacian" and k <= 6:
            # the five-point stencil with h = 1e-3 (1-|z|) is good to about 1e-6
            want = oracle.berezin_series(oracle.invariant_laplacian_symbol(terms), z)
            tol = 1e-5 * abs(want)
        elif field == "localization" and k <= 3:
            want, tol = oracle.localization(terms, z, rule), 1e-7
        elif field == "localization":
            if value.imag != 0 or value.real < 0:
                errors.append(f"k={k}: localization {value} is not a norm")
            continue
        else:
            continue
        if abs(value - want) > tol:
            errors.append(f"k={k}: {field} {value:.12g} misses {want:.12g} by "
                          f"{abs(value - want):.3e} > {tol:.3g}")
    return errors


WORKLOADS = {cls.name: cls for cls in (RouteSweep, ConjugationLadder, CliSession)}
