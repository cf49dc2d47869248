"""Batch command-line front end.

Commands: ``berezin``, ``toeplitz``, ``uz``, ``identity-suite``,
``commutator``, ``decay``.  Each takes only the shared options it reads,
and its report embeds those with the numerical policy it uses
(``identity-suite`` reads none and reports its pinned sizes).  Floats
have 12 significant digits and ordering is fixed, so output is
deterministic given the arguments.

Exit codes: 0 success, 2 usage or parse error (an oversized ``--trunc``,
``--nr`` or ``--ntheta``, a quadrature rule too coarse for the Toeplitz
block and a non-finite ``--theta`` included; ``main`` alone maps a
``CLIError``, ``ValueError`` or ``QuadratureWarning`` to it), 3 reliability
flag raised under ``--strict``, 4 invariant failure in suites, 5 numerical
failure (a numpy overflow, invalid operation or division by zero, raised
where it happens, and an inf or nan in the report, found before anything
is written, included).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import sys
import warnings

import numpy as np

from . import berezin as bz
from .operators import toeplitz_exact, toeplitz_quadrature, unitary_uz
from .quadrature import QuadratureWarning
from .suites import BATTERIES, run_batteries
from .symbols import (BlaschkeProduct, MonomialSymbol, parse_blaschke_zeros,
                      parse_complex)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_RELIABILITY = 3
EXIT_INVARIANT = 4
EXIT_NUMERICAL = 5

# Largest array a command may build, checked before it is built.
MATRIX_BUDGET_BYTES = 16 * 4096 ** 2

# berezin's routes in report order: (values at a list of points, flag at one
# point), each called with the symbol, rule and operator, then the point(s).
ROUTES = {
    "series": (lambda u, rule, op, zs: bz.berezin_symbol_series(u, zs),
               lambda u, rule, op, z: ""),
    "quadrature": (lambda u, rule, op, zs: bz.berezin_symbol_quadrature(u, zs, rule),
                   lambda u, rule, op, z: bz.quadrature_flag(rule, z, u.total_degree)),
    "operator": (lambda u, rule, op, zs: bz.berezin_operator(op, zs),
                 lambda u, rule, op, z: bz.operator_flag(op.dim, z)),
}


# decay's symbol fields in --field order: each builds its field, a function
# of the point, from the parsed --symbol once per profile.
SYMBOL_FIELDS = {
    "berezin-minus-symbol": lambda u: lambda z: bz.berezin_symbol_exact(u, z) - u.evaluate(z),
    "invariant-laplacian": lambda u: functools.partial(bz.berezin_symbol_exact,
                                                       bz.invariant_laplacian_symbol(u)),
    "localization": lambda u: functools.partial(bz.localization_norm, u),
}


class CLIError(Exception):
    """An input error the CLI finds itself, not argparse or a parser."""


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _finite(x: float, field: str) -> float:
    """x itself, or ArithmeticError naming ``field`` when x is inf or nan."""
    if not math.isfinite(x):
        raise ArithmeticError(f"{field} is not finite ({x})")
    return x


def _roundtrip(value, field: str = "report"):
    """Clamp floats to 12 significant digits recursively for JSON output.

    A non-finite float raises ArithmeticError, naming its place in the
    report, before any text is made.
    """
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return float(_fmt(_finite(value, field)))
    if isinstance(value, complex):
        return [_roundtrip(value.real, f"{field}.real"),
                _roundtrip(value.imag, f"{field}.imag")]
    if isinstance(value, dict):
        return {k: _roundtrip(v, f"{field}.{k}") for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_roundtrip(v, f"{field}[{i}]") for i, v in enumerate(value)]
    return value


def _write_output(chunks, out_path: str | None):
    """Write the text pieces in order; stdout always ends with a newline."""
    if out_path is None or out_path == "-":
        last = ""
        for last in chunks:
            sys.stdout.write(last)
        if not last.endswith("\n"):
            sys.stdout.write("\n")
    else:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            raise CLIError(f"cannot write {out_path}: {exc.strerror or exc}") from exc


def _emit(payload: dict, rows, header, args) -> None:
    """Write the report as JSON (full payload) or CSV (tabular rows)."""
    if args.format == "json":
        _write_output([json.dumps(_roundtrip(payload), indent=2, sort_keys=True)], args.out)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for i, row in enumerate(rows, 1):
            writer.writerow([_fmt(_finite(v, f"{name} of row {i}"))
                             if isinstance(v, float) else v
                             for name, v in zip(header, row)])
        _write_output([buf.getvalue()], args.out)


# The fixed numerical policy, embedded in every report but the matrix dumps;
# the reports with a series route add SERIES_POLICY.
POLICY = {"reliability_tol": bz.RELIABILITY_TOL}
SERIES_POLICY = {"series_tol": bz.SERIES_TOL}


def _dump_config(args) -> dict:
    """The shared options the command takes, under their report names."""
    return {key: getattr(args, dest) for dest, key in CONFIG_KEYS.items()
            if hasattr(args, dest)}


def _check_matrix_budget(args) -> None:
    """Refuse sizes whose largest arrays would exceed the budget, before building.

    They are the N x N matrix (2N x 2N for commutator) and, where a rule
    is built, leggauss's nr x nr companion, the nodes and, for toeplitz
    --quadrature, nr x (2N - 1) radial powers; its nr x min(2N - 1,
    ntheta) Fourier table is never larger than the nodes.  identity-suite
    takes no sizes: its largest array, at its pinned sizes, is the
    1.6 MB node table of the 160 x 640 rule.
    Negative sizes are left to fail later with their own errors.
    """
    n = getattr(args, "trunc", 0) * (2 if args.command == "commutator" else 1)
    arrays = [(f"a {n} x {n} complex matrix", 16 * max(n, 0) ** 2)]
    if (getattr(args, "quadrature", False)
            or getattr(args, "route", "") in ("quadrature", "all")):
        nr, nodes = args.nr, max(args.nr, 0) * max(args.ntheta, 0)
        arrays += [(f"a {nr} x {nr} companion matrix", 8 * max(nr, 0) ** 2),
                   (f"a 1 x {nodes} complex node table", 16 * nodes)]
        if getattr(args, "quadrature", False):
            arrays.append((f"a {nr} x {2 * n - 1} radial power table",
                           8 * max(nr, 0) * max(2 * n - 1, 0)))
    for what, need in arrays:
        if need > MATRIX_BUDGET_BYTES:
            raise CLIError(f"{what} needs {need:,} bytes, "
                           f"over the {MATRIX_BUDGET_BYTES:,}-byte budget")


def _write_matrix(op, inputs: dict, args) -> int:
    """Matrix dumps: the entries, basis and dim plus inputs and configuration.

    The text is that of json.dumps as in ``_emit``, but the entries are
    formatted and written row by row, never as one nested list.  Every
    float is checked to be finite before the first byte is written.
    """
    bad = np.argwhere(~np.isfinite(op.matrix))
    if len(bad):
        q, p = bad[0]
        raise ArithmeticError(f"entries[{q}][{p}] is not finite ({op.matrix[q, p]})")
    payload = {"basis": "orthonormal-monomial", "dim": op.dim, "entries": [],
               "inputs": inputs, "config": _dump_config(args)}
    text = json.dumps(_roundtrip(payload), indent=2, sort_keys=True)
    head, _, tail = text.partition('"entries": []')

    def row_text(row):
        parts = [repr(float(_fmt(x))) for x in row.view(float).tolist()]
        return "    [\n" + ",\n".join(
            f"      [\n        {re},\n        {im}\n      ]"
            for re, im in zip(parts[::2], parts[1::2])) + "\n    ]"

    def chunks():
        yield head + '"entries": [\n'
        for q, row in enumerate(op.matrix):
            yield (",\n" if q else "") + row_text(row)
        yield "\n  ]" + tail

    _write_output(chunks(), args.out)
    return EXIT_OK


def _parse_z_list(text: str):
    values = [parse_complex(chunk) for chunk in text.split(",") if chunk.strip()]
    if not values:
        raise CLIError("empty z list")
    return values


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_berezin(args) -> int:
    cfg = bz.BerezinConfig(truncation=args.trunc, n_radial=args.nr,
                           n_angular=args.ntheta)
    symbol = MonomialSymbol.from_string(args.symbol)
    zs = _parse_z_list(args.z)
    routes = tuple(ROUTES) if args.route == "all" else (args.route,)
    built = (symbol, cfg.rule() if "quadrature" in routes else None,
             toeplitz_exact(symbol, cfg.truncation) if "operator" in routes else None)
    values_at = {route: ROUTES[route][0](*built, zs).tolist() for route in routes}

    results, rows, flagged = [], [], False
    for p, z in enumerate(zs):
        values = {route: values_at[route][p] for route in routes}
        flags = {route: ROUTES[route][1](*built, z) for route in routes}
        flagged = flagged or any(flags.values())
        rows.extend((z.real, z.imag, route, values[route].real, values[route].imag,
                     flags[route]) for route in routes)
        spread = max([0.0, *(abs(a - b) for a, b
                             in itertools.combinations(values.values(), 2))])
        results.append({"z": z, "values": values, "flags": flags,
                        "max_route_residual": spread})

    payload = {"inputs": {"command": "berezin", "symbol": symbol.to_string(),
                          "z": [[z.real, z.imag] for z in zs],
                          "routes": list(routes)},
               "config": {**_dump_config(args), **POLICY, **SERIES_POLICY},
               "results": results}
    _emit(payload, rows, ("z_re", "z_im", "route", "value_re", "value_im", "flag"), args)
    return EXIT_RELIABILITY if (args.strict and flagged) else EXIT_OK


def cmd_toeplitz(args) -> int:
    symbol = MonomialSymbol.from_string(args.symbol)
    if args.quadrature:
        rule = bz.cached_rule(args.nr, args.ntheta)
        op = toeplitz_quadrature(symbol.evaluate_array, args.trunc, rule,
                                 degree_hint=symbol.total_degree)
    else:
        op = toeplitz_exact(symbol, args.trunc)
    return _write_matrix(op, {"command": "toeplitz", "symbol": symbol.to_string(),
                              "quadrature": bool(args.quadrature)}, args)


def cmd_uz(args) -> int:
    z = parse_complex(args.z)
    op = unitary_uz(z, args.trunc)
    return _write_matrix(op, {"command": "uz", "z": [z.real, z.imag]}, args)


def cmd_identity_suite(args) -> int:
    results = run_batteries(only=args.only)
    rows = [(r.battery, "pass" if r.passed else "FAIL", r.max_residual,
             r.tolerance, r.description) for r in results]
    payload = {"inputs": {"command": "identity-suite", "only": args.only},
               # the pinned sizes, under the report names of --trunc/--nr/--ntheta
               "config": {**vars(bz.DEFAULT_CONFIG), **_dump_config(args), **POLICY,
                          **SERIES_POLICY},
               "results": [{"battery": r.battery, "passed": r.passed,
                            "max_residual": r.max_residual, "tolerance": r.tolerance,
                            "description": r.description, "details": r.details}
                           for r in results]}
    _emit(payload, rows,
          ("battery", "status", "max_residual", "tolerance", "description"), args)
    return EXIT_OK if all(r.passed for r in results) else EXIT_INVARIANT


def _parse_indicator_input(symbol_text, blaschke_text, other: BlaschkeProduct | None):
    if (symbol_text is None) == (blaschke_text is None):
        raise CLIError("give exactly one of --f/--blaschke-f (resp. --g/--blaschke-g)")
    if symbol_text is not None:
        return MonomialSymbol.from_string(symbol_text)
    if blaschke_text == "same":
        if other is None:
            raise CLIError("'same' needs --blaschke-f to copy from")
        return other
    return parse_blaschke_zeros(blaschke_text)


def _profile_payload(profile: bz.DecayProfile) -> dict:
    return {"label": profile.label,
            "path": {"angle": profile.path.angle, "aperture": profile.path.aperture},
            "samples": [{"t": s.t, "z": [s.z.real, s.z.imag],
                         "value": [s.value.real, s.value.imag], "flag": s.flag}
                        for s in profile.samples]}


def cmd_commutator(args) -> int:
    dim = bz.BerezinConfig(truncation=args.trunc).truncation  # validates --trunc
    f = _parse_indicator_input(args.f, args.blaschke_f, None)
    g = _parse_indicator_input(args.g, args.blaschke_g,
                               f if isinstance(f, BlaschkeProduct) else None)
    radii = bz.dyadic_radii(args.kmax)
    path = bz.PathSpec(angle=args.theta, aperture=args.aperture)
    report = bz.commutator_compactness_indicator(f, g, radii, dim=dim, path=path)

    payload = {"inputs": {"command": "commutator", **report.inputs},
               "config": {**_dump_config(args), **POLICY, **report.config},
               "profiles": [_profile_payload(report.deriv_profile),
                            _profile_payload(report.berezin_profile)],
               "zero_samples": [{"zero": [a.real, a.imag],
                                 "value": [v.real, v.imag]}
                                for a, v in report.zero_samples],
               "residuals": report.residuals,
               "verdict": report.verdict}

    rows = []
    for profile in (report.deriv_profile, report.berezin_profile):
        for t, zr, zi, vr, vi, flag in profile.rows():
            rows.append((profile.label, t, zr, zi, vr, vi, flag))
    for a, v in report.zero_samples:
        rows.append(("zero-sample", 0.0, a.real, a.imag, v.real, v.imag, ""))
    _emit(payload, rows,
          ("profile", "t", "z_re", "z_im", "value_re", "value_im", "flag"), args)

    flagged = any(s.flag for s in report.berezin_profile.samples)
    return EXIT_RELIABILITY if (args.strict and flagged) else EXIT_OK


def cmd_decay(args) -> int:
    path = bz.PathSpec(angle=args.theta, aperture=args.aperture)
    radii = bz.dyadic_radii(args.kmax)

    u = None if args.symbol is None else MonomialSymbol.from_string(args.symbol)
    factors = [MonomialSymbol.from_string(text) for text in args.factor or ()]

    if args.field == "factored-laplacian":
        if not factors:
            raise CLIError("factored-laplacian needs at least one --factor")
        fieldfn = lambda z: bz.factored_harmonic_invariant_laplacian(factors, z)
    elif u is None:
        raise CLIError(f"field {args.field!r} needs --symbol")
    else:
        fieldfn = SYMBOL_FIELDS[args.field](u)

    profile = bz.decay_profile(fieldfn, path, radii=radii, label=args.field)
    payload = {"inputs": {"command": "decay", "field": args.field,
                          "symbol": None if u is None else u.to_string(),
                          "factors": [v.to_string() for v in factors] or None},
               "config": {**_dump_config(args), **POLICY},
               "profiles": [_profile_payload(profile)],
               "residuals": {"final_magnitude": float(profile.magnitudes()[-1])}}
    _emit(payload, profile.rows(),
          ("t", "z_re", "z_im", "value_re", "value_im", "flag"), args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# Options several commands share, and the names their reports embed them under.
SHARED_OPTIONS = {
    "out": dict(default=None, help="output path (default stdout)"),
    "format": dict(choices=("csv", "json"), default="json"),
    "trunc": dict(type=int, default=bz.DEFAULT_CONFIG.truncation,
                  help="matrix truncation N"),
    "nr": dict(type=int, default=bz.DEFAULT_CONFIG.n_radial, help="radial rule size"),
    "ntheta": dict(type=int, default=bz.DEFAULT_CONFIG.n_angular,
                   help="angular rule size"),
    "strict": dict(action="store_true",
                   help="exit 3 when any reliability flag is raised"),
}
CONFIG_KEYS = {"trunc": "truncation", "nr": "n_radial", "ntheta": "n_angular",
               "strict": "strict", "format": "format"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="berezinlab",
        description="Berezin-transform laboratory on the Bergman space of the disk")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, shared, help):
        p = sub.add_parser(name, help=help)
        for dest in shared.split():
            p.add_argument("--" + dest, **SHARED_OPTIONS[dest])
        p.set_defaults(func=func)
        return p

    p = command("berezin", cmd_berezin, "out format trunc nr ntheta strict",
                help="transform of a polynomial symbol at given points")
    p.add_argument("--symbol", required=True, help="terms 'j,k:re+imi' joined by ';'")
    p.add_argument("--z", required=True, help="comma-separated complex points")
    p.add_argument("--route", choices=(*ROUTES, "all"), default="all")

    p = command("toeplitz", cmd_toeplitz, "out trunc nr ntheta",
                help="dump a truncated Toeplitz matrix as JSON")
    p.add_argument("--symbol", required=True)
    p.add_argument("--quadrature", action="store_true",
                   help="build entries by quadrature instead of the closed form")

    p = command("uz", cmd_uz, "out trunc",
                help="dump the truncated Mobius unitary as JSON")
    p.add_argument("--z", required=True)

    p = command("identity-suite", cmd_identity_suite, "out format",
                help="run the invariant batteries and report pass/fail")
    p.add_argument("--only", default=None, choices=sorted(BATTERIES),
                   metavar="BATTERY", help="run a single battery")

    p = command("commutator", cmd_commutator, "out format trunc strict",
                help="boundary-decay indicator for an analytic pair")
    p.add_argument("--f", default=None, help="analytic symbol for f")
    p.add_argument("--g", default=None, help="analytic symbol for g")
    p.add_argument("--blaschke-f", default=None, help="comma-separated zeros")
    p.add_argument("--blaschke-g", default=None,
                   help="comma-separated zeros, or 'same'")
    p.add_argument("--kmax", type=int, default=10)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--aperture", type=float, default=0.0)

    p = command("decay", cmd_decay, "out format",
                help="sample a boundary-decay field along a path")
    p.add_argument("--field", required=True,
                   choices=(*SYMBOL_FIELDS, "factored-laplacian"))
    p.add_argument("--symbol", default=None)
    p.add_argument("--factor", action="append", default=None,
                   help="harmonic factor symbol (repeatable)")
    p.add_argument("--kmax", type=int, default=10)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--aperture", type=float, default=0.0)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call shares, built on the first."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"), \
                warnings.catch_warnings():
            warnings.simplefilter("error", QuadratureWarning)
            _check_matrix_budget(args)
            return args.func(args)
    except (CLIError, ValueError, QuadratureWarning) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
