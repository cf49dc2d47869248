"""Batch command-line front end.

Commands: ``berezin``, ``toeplitz``, ``uz``, ``identity-suite``,
``commutator``, ``decay``.  All reports embed the resolved numerical
configuration, floats are rendered with 12 significant digits, and
ordering is fixed, so output is deterministic given the arguments.

Exit codes: 0 success, 2 usage or parse error, 3 reliability flag
raised under ``--strict``, 4 invariant failure in suites.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import berezin as bz
from .operators import toeplitz_exact, toeplitz_quadrature, unitary_uz
from .suites import BATTERIES, run_batteries
from .symbols import (BlaschkeProduct, MonomialSymbol, parse_blaschke_zeros,
                      parse_complex)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_RELIABILITY = 3
EXIT_INVARIANT = 4

ROUTE_ORDER = ("series", "quadrature", "operator")


class CLIError(Exception):
    """Invalid input that argparse itself cannot catch."""


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _roundtrip(value):
    """Clamp floats to 12 significant digits recursively for JSON output."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return float(_fmt(value))
    if isinstance(value, complex):
        return [_roundtrip(value.real), _roundtrip(value.imag)]
    if isinstance(value, dict):
        return {k: _roundtrip(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_roundtrip(v) for v in value]
    return value


def _write_output(text: str, out_path: str | None):
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit(payload: dict, rows, header, args) -> None:
    """Write the report as JSON (full payload) or CSV (tabular rows)."""
    if args.format == "json":
        _write_output(json.dumps(_roundtrip(payload), indent=2, sort_keys=True), args.out)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row])
        _write_output(buf.getvalue(), args.out)


def _config_from(args) -> bz.BerezinConfig:
    return bz.BerezinConfig(truncation=args.trunc, series_tol=args.tol,
                            n_radial=args.nr, n_angular=args.ntheta)


def _dump_config(args, cfg: bz.BerezinConfig | None = None) -> dict:
    """The configuration a report embeds; ``cfg`` adds its fd and reliability policy.

    Matrix dumps pass no ``cfg``: they allow any dim >= 1, below the
    BerezinConfig floor.
    """
    config = {"truncation": args.trunc, "n_radial": args.nr, "n_angular": args.ntheta,
              "series_tol": args.tol, "strict": bool(args.strict), "format": args.format}
    if cfg is not None:
        config.update(fd_step=cfg.fd_step, reliability_tol=cfg.reliability_tol)
    return config


def _parse_z_list(text: str):
    try:
        values = [parse_complex(chunk) for chunk in text.split(",") if chunk.strip()]
    except ValueError as exc:
        raise CLIError(str(exc)) from exc
    if not values:
        raise CLIError("empty z list")
    return values


def _parse_symbol(text: str) -> MonomialSymbol:
    try:
        return MonomialSymbol.from_string(text)
    except ValueError as exc:
        raise CLIError(str(exc)) from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_berezin(args) -> int:
    cfg = _config_from(args)
    symbol = _parse_symbol(args.symbol)
    zs = _parse_z_list(args.z)
    routes = ROUTE_ORDER if args.route == "all" else (args.route,)
    rule = cfg.rule()
    operator = toeplitz_exact(symbol, cfg.truncation) if "operator" in routes else None

    results = []
    rows = []
    flagged = False
    for z in zs:
        values = {}
        flags = {}
        for route in routes:
            flag = ""
            if route == "series":
                value = bz.berezin_symbol_series(symbol, z, cfg.series_tol)
            elif route == "quadrature":
                value = bz.berezin_symbol_quadrature(symbol, z, rule)
                est = bz.quadrature_tail_estimate(rule, z, symbol.total_degree)
                if est > cfg.reliability_tol:
                    flag = "quadrature-unreliable"
            else:
                value = bz.berezin_operator(operator, z)
                if not bz.operator_route_reliable(cfg.truncation, z, cfg.reliability_tol):
                    flag = "truncation-unreliable"
            values[route] = value
            flags[route] = flag
            flagged = flagged or bool(flag)
            rows.append((z.real, z.imag, route, value.real, value.imag, flag))
        spread = 0.0
        vals = list(values.values())
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                spread = max(spread, abs(vals[i] - vals[j]))
        results.append({"z": z, "values": values, "flags": flags,
                        "max_route_residual": spread})

    payload = {"inputs": {"command": "berezin", "symbol": symbol.to_string(),
                          "z": [[z.real, z.imag] for z in zs],
                          "routes": list(routes)},
               "config": _dump_config(args, cfg),
               "results": results}
    _emit(payload, rows, ("z_re", "z_im", "route", "value_re", "value_im", "flag"), args)
    return EXIT_RELIABILITY if (args.strict and flagged) else EXIT_OK


def cmd_toeplitz(args) -> int:
    symbol = _parse_symbol(args.symbol)
    if args.quadrature:
        rule = bz.cached_rule(args.nr, args.ntheta)
        op = toeplitz_quadrature(symbol.evaluate_array, args.trunc, rule,
                                 degree_hint=symbol.total_degree)
    else:
        op = toeplitz_exact(symbol, args.trunc)
    payload = op.to_json_dict()
    payload["inputs"] = {"command": "toeplitz", "symbol": symbol.to_string(),
                         "quadrature": bool(args.quadrature)}
    payload["config"] = _dump_config(args)
    _write_output(json.dumps(_roundtrip(payload), indent=2, sort_keys=True), args.out)
    return EXIT_OK


def cmd_uz(args) -> int:
    try:
        z = parse_complex(args.z)
        op = unitary_uz(z, args.trunc)
    except ValueError as exc:
        raise CLIError(str(exc)) from exc
    payload = op.to_json_dict()
    payload["inputs"] = {"command": "uz", "z": [z.real, z.imag]}
    payload["config"] = _dump_config(args)
    _write_output(json.dumps(_roundtrip(payload), indent=2, sort_keys=True), args.out)
    return EXIT_OK


def cmd_identity_suite(args) -> int:
    cfg = _config_from(args)
    try:
        results = run_batteries(cfg, only=args.only)
    except KeyError as exc:
        raise CLIError(str(exc)) from exc
    rows = [(r.battery, "pass" if r.passed else "FAIL", r.max_residual,
             r.tolerance, r.description) for r in results]
    payload = {"inputs": {"command": "identity-suite", "only": args.only},
               "config": _dump_config(args, cfg),
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
        sym = _parse_symbol(symbol_text)
        if not sym.is_analytic():
            raise CLIError(f"symbol {symbol_text!r} is not analytic")
        return sym
    if blaschke_text == "same":
        if other is None:
            raise CLIError("'same' needs --blaschke-f to copy from")
        return other
    try:
        return parse_blaschke_zeros(blaschke_text)
    except ValueError as exc:
        raise CLIError(str(exc)) from exc


def _profile_payload(profile: bz.DecayProfile) -> dict:
    return {"label": profile.label,
            "path": {"angle": profile.path.angle, "aperture": profile.path.aperture},
            "samples": [{"t": s.t, "z": [s.z.real, s.z.imag],
                         "value": [s.value.real, s.value.imag], "flag": s.flag}
                        for s in profile.samples]}


def cmd_commutator(args) -> int:
    cfg = _config_from(args)
    f = _parse_indicator_input(args.f, args.blaschke_f, None)
    g = _parse_indicator_input(args.g, args.blaschke_g,
                               f if isinstance(f, BlaschkeProduct) else None)
    radii = bz.dyadic_radii(args.kmax)
    path = bz.PathSpec(angle=args.theta, aperture=args.aperture)
    report = bz.commutator_compactness_indicator(
        f, g, radii, dim=cfg.truncation, config=cfg, path=path,
        threshold=args.threshold, pad=args.pad)

    payload = {"inputs": {"command": "commutator", **report.inputs},
               "config": {**_dump_config(args, cfg), **report.config},
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
    cfg = _config_from(args)
    path = bz.PathSpec(angle=args.theta, aperture=args.aperture)
    radii = bz.dyadic_radii(args.kmax)
    flag_fn = None

    if args.field == "factored-laplacian":
        if not args.factor:
            raise CLIError("factored-laplacian needs at least one --factor")
        factors = [_parse_symbol(text) for text in args.factor]
        for sym in factors:
            if not sym.is_harmonic():
                raise CLIError(f"factor {sym.to_string()!r} is not harmonic")
        fieldfn = bz.ScalarField(
            lambda z: bz.factored_harmonic_invariant_laplacian(factors, z),
            "factored-laplacian")
    else:
        if args.symbol is None:
            raise CLIError(f"field {args.field!r} needs --symbol")
        u = _parse_symbol(args.symbol)
        if args.field == "berezin-minus-symbol":
            fieldfn = bz.ScalarField(
                lambda z: bz.berezin_symbol_exact(u, z) - u.evaluate(z),
                "berezin-minus-symbol")
        elif args.field == "invariant-laplacian":
            fieldfn = bz.ScalarField(
                lambda z: bz.invariant_laplacian(bz.berezin_exact_field(u), z, cfg),
                "invariant-laplacian")
        else:
            fieldfn = bz.ScalarField(
                lambda z: bz.localization_norm(u, z, cfg.series_tol, route="exact"),
                "localization")

    profile = bz.decay_profile(fieldfn, path, radii, flag_fn=flag_fn,
                               label=fieldfn.label)
    payload = {"inputs": {"command": "decay", "field": args.field,
                          "symbol": args.symbol, "factors": args.factor},
               "config": _dump_config(args, cfg),
               "profiles": [_profile_payload(profile)],
               "residuals": {"final_magnitude": float(profile.magnitudes()[-1])},
               "verdict": ""}
    _emit(payload, profile.rows(),
          ("t", "z_re", "z_im", "value_re", "value_im", "flag"), args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output path (default stdout)")
    common.add_argument("--format", choices=("csv", "json"), default="json")
    common.add_argument("--trunc", type=int, default=64, help="matrix truncation N")
    common.add_argument("--nr", type=int, default=80, help="radial rule size")
    common.add_argument("--ntheta", type=int, default=256, help="angular rule size")
    common.add_argument("--tol", type=float, default=1e-12, help="series tolerance")
    common.add_argument("--strict", action="store_true",
                        help="exit 3 when any reliability flag is raised")

    parser = argparse.ArgumentParser(
        prog="berezinlab",
        description="Berezin-transform laboratory on the Bergman space of the disk")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("berezin", parents=[common],
                       help="transform of a polynomial symbol at given points")
    p.add_argument("--symbol", required=True, help="terms 'j,k:re+imi' joined by ';'")
    p.add_argument("--z", required=True, help="comma-separated complex points")
    p.add_argument("--route", choices=("series", "quadrature", "operator", "all"),
                   default="all")
    p.set_defaults(func=cmd_berezin)

    p = sub.add_parser("toeplitz", parents=[common],
                       help="dump a truncated Toeplitz matrix as JSON")
    p.add_argument("--symbol", required=True)
    p.add_argument("--quadrature", action="store_true",
                   help="build entries by quadrature instead of the closed form")
    p.set_defaults(func=cmd_toeplitz)

    p = sub.add_parser("uz", parents=[common],
                       help="dump the truncated Mobius unitary as JSON")
    p.add_argument("--z", required=True)
    p.set_defaults(func=cmd_uz)

    p = sub.add_parser("identity-suite", parents=[common],
                       help="run the invariant batteries and report pass/fail")
    p.add_argument("--only", default=None, choices=sorted(BATTERIES),
                   metavar="BATTERY", help="run a single battery")
    p.set_defaults(func=cmd_identity_suite)

    p = sub.add_parser("commutator", parents=[common],
                       help="boundary-decay indicator for an analytic pair")
    p.add_argument("--f", default=None, help="analytic symbol for f")
    p.add_argument("--g", default=None, help="analytic symbol for g")
    p.add_argument("--blaschke-f", default=None, help="comma-separated zeros")
    p.add_argument("--blaschke-g", default=None,
                   help="comma-separated zeros, or 'same'")
    p.add_argument("--kmax", type=int, default=10)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--aperture", type=float, default=0.0)
    p.add_argument("--threshold", type=float, default=1e-3)
    p.add_argument("--pad", type=int, default=None)
    p.set_defaults(func=cmd_commutator)

    p = sub.add_parser("decay", parents=[common],
                       help="sample a boundary-decay field along a path")
    p.add_argument("--field", required=True,
                   choices=("berezin-minus-symbol", "invariant-laplacian",
                            "localization", "factored-laplacian"))
    p.add_argument("--symbol", default=None)
    p.add_argument("--factor", action="append", default=None,
                   help="harmonic factor symbol (repeatable)")
    p.add_argument("--kmax", type=int, default=10)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--aperture", type=float, default=0.0)
    p.set_defaults(func=cmd_decay)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
