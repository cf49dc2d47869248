import contextlib
import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berezinlab import berezin as bz
from berezinlab import cli
from berezinlab.berezin import DEFAULT_CONFIG
from berezinlab.operators import (TruncatedOperator, toeplitz_exact, toeplitz_quadrature,
                                  unitary_uz)
from berezinlab.suites import BatteryResult
from berezinlab.symbols import MonomialSymbol, format_complex, parse_complex


def run(args):
    return cli.main(args)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        return list(csv.reader(fh))


def dumped_matrix(payload):
    """The complex matrix of a toeplitz or uz dump."""
    return np.array([[complex(re, im) for re, im in row] for row in payload["entries"]])


def dump_entries(op):
    """The entries a dump of ``op`` holds: [re, im] pairs at 12 significant digits."""
    return [[[float(f"{v.real:.12g}"), float(f"{v.imag:.12g}")] for v in row]
            for row in op.matrix]


class TestBerezinCommand:
    def test_all_routes_on_modulus_at_center(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["berezin", "--symbol", "1,1:1", "--z", "0", "--route", "all",
                    "--out", str(out)])
        assert code == 0
        payload = read_json(out)
        for route in ("series", "quadrature", "operator"):
            value = payload["results"][0]["values"][route]
            assert value[0] == pytest.approx(0.5, abs=1e-10)
            assert value[1] == pytest.approx(0.0, abs=1e-10)
        assert payload["results"][0]["max_route_residual"] < 1e-9
        assert payload["config"]["truncation"] == 64

    def test_constant_symbol_any_point(self, tmp_path, capsys):
        code = run(["berezin", "--symbol", "0,0:1", "--z", "0.3+0.2i"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        for route in ("series", "quadrature", "operator"):
            assert payload["results"][0]["values"][route][0] == pytest.approx(1.0)

    def test_harmonic_fixed_point_quadrature(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["berezin", "--symbol", "1,0:1", "--z", "0.5",
                    "--route", "quadrature", "--out", str(out)])
        assert code == 0
        payload = read_json(out)
        assert payload["results"][0]["values"]["quadrature"][0] == \
            pytest.approx(0.5, abs=1e-9)

    def test_csv_format(self, tmp_path):
        out = tmp_path / "r.csv"
        code = run(["berezin", "--symbol", "1,1:1", "--z", "0,0.5",
                    "--format", "csv", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == ["z_re", "z_im", "route", "value_re", "value_im", "flag"]
        assert len(rows) == 1 + 2 * 3

    def test_strict_flags_boundary_operator_route(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["berezin", "--symbol", "1,1:1", "--z", "0.97",
                    "--route", "operator", "--strict", "--out", str(out)])
        assert code == 3
        payload = read_json(out)
        assert payload["results"][0]["flags"]["operator"] == "truncation-unreliable"

    def test_parse_error_exit_code(self):
        assert run(["berezin", "--symbol", "garbage", "--z", "0"]) == 2
        assert run(["berezin", "--symbol", "1,1:1", "--z", "1.5"]) == 2

    def test_values_starting_with_minus_in_equals_form(self, capsys):
        # argparse takes "-0.5+0.2i" after a space for an option, as the
        # README's CLI section warns; the "=" form binds it to the option
        with pytest.raises(SystemExit) as err:
            run(["berezin", "--symbol", "1,1:1", "--z", "-0.5+0.2i"])
        assert err.value.code == 2
        assert "argument --z: expected one argument" in capsys.readouterr().err
        assert run(["berezin", "--symbol", "1,1:1", "--z=-0.5+0.2i"]) == 0
        assert run(["commutator", "--blaschke-f=-0.5,0.3", "--g", "1,0:1",
                    "--kmax", "3", "--trunc", "16"]) == 0

    def test_outside_disk_rejected(self):
        assert run(["berezin", "--symbol", "1,1:1", "--z", "0.5,2.0"]) == 2

    def test_unwritable_out_path(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        code = run(["berezin", "--symbol", "1,1:1", "--z", "0.5", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists() and not out.parent.exists()


class TestMatrixDumps:
    def test_toeplitz_dump_schema(self, tmp_path):
        out = tmp_path / "t.json"
        code = run(["toeplitz", "--symbol", "1,1:1", "--trunc", "8",
                    "--out", str(out)])
        assert code == 0
        payload = read_json(out)
        assert payload["dim"] == 8
        assert payload["basis"] == "orthonormal-monomial"
        mod2 = MonomialSymbol.monomial(1, 1)
        assert payload["entries"] == dump_entries(toeplitz_exact(mod2, 8))
        m = dumped_matrix(payload)
        assert m[0, 0] == pytest.approx(0.5)
        assert m[1, 1] == pytest.approx(2.0 / 3.0)

    def test_toeplitz_quadrature_variant(self, tmp_path):
        out = tmp_path / "t.json"
        code = run(["toeplitz", "--symbol", "0,1:1", "--trunc", "6",
                    "--quadrature", "--out", str(out)])
        assert code == 0
        payload = read_json(out)
        wbar = MonomialSymbol.monomial(0, 1)
        want = toeplitz_quadrature(wbar.evaluate_array, 6, DEFAULT_CONFIG.rule(),
                                   degree_hint=1)
        assert payload["entries"] == dump_entries(want)
        assert dumped_matrix(payload)[0, 1] == pytest.approx(np.sqrt(2) / 2, abs=1e-10)

    def test_uz_dump(self, tmp_path):
        out = tmp_path / "u.json"
        code = run(["uz", "--z", "0", "--trunc", "4", "--out", str(out)])
        assert code == 0
        payload = read_json(out)
        assert payload["entries"] == dump_entries(unitary_uz(0, 4))
        assert np.array_equal(dumped_matrix(payload), np.diag([-1, 1, -1, 1]))

    @pytest.mark.parametrize("trunc", ["8", "24", "48"])
    @pytest.mark.parametrize("argv", [["toeplitz", "--symbol", "1,1:1;2,0:0.5;0,1:-0.25i"],
                                      ["uz", "--z", "0.3+0.2i"],
                                      ["uz", "--z", "0"]])
    def test_dump_text_matches_json_dumps(self, argv, trunc, tmp_path, capsys):
        # the streamed dump is byte for byte the json.dumps text of the
        # whole payload, with stdout's trailing newline and without it in a file
        argv = argv + ["--trunc", trunc]
        assert run(argv) == 0
        text = capsys.readouterr().out
        payload = json.loads(text)
        if argv[0] == "toeplitz":
            op = toeplitz_exact(MonomialSymbol.from_string(argv[2]), int(trunc))
        else:
            op = unitary_uz(parse_complex(argv[2]), int(trunc))
        whole = {"dim": op.dim, "basis": "orthonormal-monomial",
                 "entries": [[[v.real, v.imag] for v in row] for row in op.matrix],
                 "inputs": payload["inputs"], "config": payload["config"]}
        want = json.dumps(cli._roundtrip(whole), indent=2, sort_keys=True)
        assert text == want + "\n"
        out = tmp_path / "m.json"
        assert run(argv + ["--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == want

    def test_dump_memory_stays_near_one_matrix(self):
        # a 512 x 512 dump is 4 MB of matrix and 10.5 MB of text; building
        # it as nested lists took about 160 MB over the imports
        script = (
            "import os, resource\n"
            "from berezinlab.cli import main\n"
            "base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "code = main(['toeplitz', '--symbol', '1,1:1;2,0:0.5', '--trunc', '512',\n"
            "             '--out', os.devnull])\n"
            "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print(code, (peak - base) / 1024)\n")
        pytest.importorskip("resource")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        code, growth_mb = proc.stdout.split()
        assert code == "0", proc.stderr
        assert float(growth_mb) < 30.0

    def test_uz_rejects_boundary_point(self):
        assert run(["uz", "--z", "1.0", "--trunc", "4"]) == 2

    @pytest.mark.parametrize("argv", [["toeplitz", "--symbol", "1,1:1", "--trunc", "8"],
                                      ["uz", "--z", "0.3", "--trunc", "4"]])
    def test_csv_format_rejected(self, argv, tmp_path, capsys):
        out = tmp_path / "m.csv"
        with pytest.raises(SystemExit) as err:
            run(argv + ["--format", "csv", "--out", str(out)])
        assert err.value.code == 2
        assert "unrecognized arguments: --format csv" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,builder", [
        (["toeplitz", "--symbol", "1,1:1"], "toeplitz_exact"),
        (["toeplitz", "--symbol", "1,1:1", "--quadrature"], "toeplitz_quadrature"),
        (["uz", "--z", "0.3"], "unitary_uz")])
    def test_oversized_trunc_refused_before_build(self, argv, builder, monkeypatch, capsys):
        def must_not_build(*args, **kwargs):
            raise AssertionError(f"{builder} was called")
        monkeypatch.setattr(cli, builder, must_not_build)
        assert run(argv + ["--trunc", "100000"]) == 2
        assert capsys.readouterr().err == (
            "error: a 100000 x 100000 complex matrix needs 160,000,000,000 bytes, "
            "over the 268,435,456-byte budget\n")


class TestMatrixBudget:
    @staticmethod
    def within_budget(argv):
        try:
            cli._check_matrix_budget(cli.build_parser().parse_args(argv))
        except cli.CLIError:
            return False
        return True

    def test_boundary_is_4096_rows(self):
        assert self.within_budget(["uz", "--z", "0", "--trunc", "4096"])
        assert not self.within_budget(["uz", "--z", "0", "--trunc", "4097"])
        assert not self.within_budget(["berezin", "--symbol", "1,1:1", "--z", "0",
                                       "--trunc", "4097"])

    def test_commutator_counts_the_pad(self):
        # the defect is cut from Toeplitz matrices padded by N: 2N x 2N
        pair = ["commutator", "--f", "1,0:1", "--g", "1,0:1"]
        assert self.within_budget(pair + ["--trunc", "2048"])
        assert not self.within_budget(pair + ["--trunc", "2049"])

    def test_negative_sizes_left_to_their_own_errors(self, capsys):
        assert run(["uz", "--z", "0", "--trunc", "-5000"]) == 2
        assert capsys.readouterr().err == "error: dim must be >= 1\n"
        assert run(["commutator", "--f", "1,0:1", "--g", "1,0:1",
                    "--trunc", "-5000"]) == 2
        assert capsys.readouterr().err == "error: truncation must be at least 8\n"

    def test_rule_sizes_counted_where_a_rule_is_built(self):
        # leggauss's nr x nr companion matrix and the complex node array;
        # toeplitz --quadrature also tabulates nr x (2N - 1) weighted radial powers
        quadrature = ["toeplitz", "--symbol", "1,1:1", "--quadrature"]
        assert self.within_budget(quadrature + ["--nr", "5792"])
        assert not self.within_budget(quadrature + ["--nr", "5793"])
        assert self.within_budget(quadrature + ["--trunc", "4096", "--nr", "4096"])
        assert not self.within_budget(quadrature + ["--trunc", "4096", "--nr", "4097"])
        assert self.within_budget(quadrature + ["--ntheta", "209715"])
        assert not self.within_budget(quadrature + ["--ntheta", "209716"])
        assert self.within_budget(["toeplitz", "--symbol", "1,1:1", "--nr", "5793"])
        berezin = ["berezin", "--symbol", "1,1:1", "--z", "0", "--nr", "5793"]
        assert self.within_budget(berezin + ["--route", "series"])
        assert self.within_budget(berezin + ["--route", "operator"])
        assert not self.within_budget(berezin + ["--route", "quadrature"])
        assert not self.within_budget(berezin)

    def test_radial_table_refused_before_build(self, monkeypatch, capsys):
        def must_not_build(*args, **kwargs):
            raise AssertionError("a rule or a table was built")
        monkeypatch.setattr(cli.bz, "cached_rule", must_not_build)
        monkeypatch.setattr(cli, "toeplitz_quadrature", must_not_build)
        assert run(["toeplitz", "--symbol", "1,1:1", "--quadrature", "--trunc", "4096",
                    "--nr", "5792"]) == 2
        assert capsys.readouterr().err == (
            "error: a 5792 x 8191 radial power table needs 379,538,176 bytes, "
            "over the 268,435,456-byte budget\n")

    @pytest.mark.parametrize("argv", [
        ["berezin", "--symbol", "1,1:1", "--z", "0"],
        ["berezin", "--symbol", "1,1:1", "--z", "0", "--route", "quadrature"],
        ["toeplitz", "--symbol", "1,1:1", "--quadrature"]])
    @pytest.mark.parametrize("option", ["--nr", "--ntheta"])
    def test_oversized_rule_refused_before_build(self, argv, option, monkeypatch, capsys):
        def must_not_build(*args, **kwargs):
            raise AssertionError("a rule was built")
        monkeypatch.setattr(cli.bz, "cached_rule", must_not_build)
        assert run(argv + [option, "1000000000000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: a ") and err.endswith("-byte budget\n")

    def test_series_route_builds_no_rule(self, monkeypatch, capsys):
        def must_not_build(*args, **kwargs):
            raise AssertionError("a rule was built")
        monkeypatch.setattr(cli.bz, "cached_rule", must_not_build)
        assert run(["berezin", "--symbol", "1,1:1", "--z", "0", "--route", "series",
                    "--ntheta", "1000000000000"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["n_angular"] == 10 ** 12

    def test_commutator_refused_before_build(self, monkeypatch):
        def must_not_build(*args, **kwargs):
            raise AssertionError("indicator was built")
        monkeypatch.setattr(cli.bz, "commutator_compactness_indicator", must_not_build)
        assert run(["commutator", "--f", "1,0:1", "--g", "1,0:1", "--trunc", "3000"]) == 2


class TestIdentitySuite:
    def test_single_battery_passes(self, tmp_path):
        out = tmp_path / "suite.csv"
        code = run(["identity-suite", "--only", "mobius-involution",
                    "--format", "csv", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert rows[1][0] == "mobius-involution"
        assert rows[1][1] == "pass"

    def test_failure_exit_code(self, tmp_path, monkeypatch):
        # the parser lists the batteries registered when it is built, so
        # an existing name is patched
        name = sorted(cli.BATTERIES)[0]

        def always_fails():
            return BatteryResult(name, "stub", False, 1.0, 1e-9, {})
        monkeypatch.setitem(cli.BATTERIES, name, always_fails)
        out = tmp_path / "suite.json"
        code = run(["identity-suite", "--only", name, "--out", str(out)])
        assert code == 4
        payload = read_json(out)
        assert payload["results"][0]["passed"] is False

    def test_unknown_battery_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(["identity-suite", "--only", "bogus"])
        assert err.value.code == 2
        message = capsys.readouterr().err
        places = [message.index(name) for name in sorted(cli.BATTERIES)]
        assert places == sorted(places)


class TestParserReuse:
    def test_main_builds_the_parser_once(self, monkeypatch, capsys):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        try:
            for _ in range(3):
                assert run(["uz", "--z", "0.25", "--trunc", "2"]) == 0
            assert len(built) == 1
            assert capsys.readouterr().out.count('"dim": 2') == 3
        finally:
            cli._parser.cache_clear()


class TestCommutatorCommand:
    def test_coordinate_pair_verdict(self, tmp_path):
        out = tmp_path / "c.json"
        code = run(["commutator", "--f", "1,0:1", "--g", "1,0:1", "--out", str(out)])
        assert code == 0
        payload = read_json(out)
        assert payload["verdict"] == "decay-consistent"
        assert len(payload["profiles"]) == 2

    def test_constant_pair_zero_profile(self, tmp_path):
        out = tmp_path / "c.json"
        code = run(["commutator", "--f", "0,0:1", "--g", "1,0:1", "--out", str(out)])
        assert code == 0
        payload = read_json(out)
        deriv = payload["profiles"][0]
        assert all(s["value"] == [0.0, 0.0] for s in deriv["samples"])

    def test_blaschke_same_shorthand(self, tmp_path):
        out = tmp_path / "c.json"
        code = run(["commutator", "--blaschke-f", "0.5,0.75,0.875",
                    "--blaschke-g", "same", "--kmax", "6", "--trunc", "32",
                    "--out", str(out)])
        assert code == 0
        payload = read_json(out)
        assert payload["residuals"]["zero_floor"] > 0
        assert len(payload["zero_samples"]) == 3

    def test_requires_exactly_one_input_kind(self):
        assert run(["commutator", "--f", "1,0:1", "--blaschke-f", "0.5",
                    "--g", "1,0:1"]) == 2
        assert run(["commutator", "--g", "1,0:1"]) == 2

    def test_rejects_nonanalytic_symbol(self):
        assert run(["commutator", "--f", "0,1:1", "--g", "1,0:1"]) == 2

    def test_overflowing_product_rejected(self, capsys):
        # the 1e400 entries of T_f^* T_g overflow the matrix product
        assert run(["commutator", "--f", "1,0:1e200", "--g", "1,0:1e200",
                    "--trunc", "8"]) == cli.EXIT_NUMERICAL
        assert capsys.readouterr().err == "error: overflow encountered in matmul\n"

    def test_csv_profiles(self, tmp_path):
        out = tmp_path / "c.csv"
        code = run(["commutator", "--f", "1,0:1", "--g", "1,0:1",
                    "--format", "csv", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert rows[0][0] == "profile"


class TestDecayCommand:
    def test_harmonic_difference_profile(self, tmp_path):
        out = tmp_path / "d.csv"
        code = run(["decay", "--field", "berezin-minus-symbol",
                    "--symbol", "1,0:1;0,2:1", "--kmax", "8",
                    "--format", "csv", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == ["t", "z_re", "z_im", "value_re", "value_im", "flag"]
        values = [abs(complex(float(r[3]), float(r[4]))) for r in rows[1:]]
        assert max(values) < 1e-8

    def test_localization_field(self, tmp_path):
        out = tmp_path / "d.json"
        code = run(["decay", "--field", "localization", "--symbol", "1,0:1",
                    "--kmax", "6", "--out", str(out)])
        assert code == 0
        payload = read_json(out)
        mags = [abs(complex(*s["value"])) for s in payload["profiles"][0]["samples"]]
        assert mags[0] > mags[-1]

    def test_localization_floor_flags_instead_of_aborting(self, tmp_path):
        # at k = 38 the square comes out one ulp of 4e10 below zero
        out = tmp_path / "d.json"
        code = run(["decay", "--field", "localization", "--symbol", "3,0:1e5;0,2:1e5",
                    "--kmax", "39", "--out", str(out)])
        assert code == 0
        samples = read_json(out)["profiles"][0]["samples"]
        assert len(samples) == 39
        zeros = [s for s in samples if s["value"] == [0.0, 0.0]]
        assert zeros and all(s["flag"] == "roundoff-floor" for s in zeros)
        assert samples[0]["flag"] == ""

    def test_factored_laplacian_needs_factors(self):
        assert run(["decay", "--field", "factored-laplacian"]) == 2

    def test_factored_laplacian_profile(self, tmp_path):
        out = tmp_path / "d.json"
        code = run(["decay", "--field", "factored-laplacian",
                    "--factor", "1,0:1", "--factor", "0,1:1",
                    "--kmax", "5", "--out", str(out)])
        assert code == 0
        payload = read_json(out)
        first = payload["profiles"][0]["samples"][0]
        # factors w and conj(w): quantity is 4 (1 - r^2)^2 at r = 0.5
        assert complex(*first["value"]).real == pytest.approx(4 * 0.75 ** 2)

    def test_nonharmonic_factor_rejected(self):
        assert run(["decay", "--field", "factored-laplacian",
                    "--factor", "1,1:1"]) == 2

    def test_missing_symbol_rejected(self):
        assert run(["decay", "--field", "localization"]) == 2

    def test_invariant_laplacian_field(self, capsys):
        text = "3,1:1;0,2:0.5i;2,2:-2"
        assert run(["decay", "--field", "invariant-laplacian", "--symbol", text,
                    "--kmax", "12", "--theta", "0.3", "--aperture", "0.5"]) == 0
        samples = json.loads(capsys.readouterr().out)["profiles"][0]["samples"]
        u, path = MonomialSymbol.from_string(text), bz.PathSpec(angle=0.3, aperture=0.5)
        expected = [cli._roundtrip(bz.invariant_laplacian(u, complex(path.point(r))))
                    for r in bz.dyadic_radii(12)]
        assert [s["value"] for s in samples] == expected
        assert all(s["flag"] == "" for s in samples)


class TestDeterminism:
    def test_identical_bytes_for_identical_args(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["berezin", "--symbol", "2,1:0.5+0.25i;0,1:1", "--z",
                "0.1,0.3+0.4i,0.6", "--route", "all"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_term_order_does_not_move_output(self, capsys):
        # the symbol keeps its terms in sorted (j, k) order, so every route
        # sums them in one order however they were written, and the report's
        # inputs echo the parsed symbol: the whole stdout is the same
        reports = []
        for terms in ("3,1:1;0,2:0.5i;2,2:-2", "0,2:0.5i;2,2:-2;3,1:1"):
            assert run(["decay", "--field", "invariant-laplacian", "--symbol", terms,
                        "--kmax", "12", "--theta", "0.3", "--aperture", "0.5"]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]

    def test_suite_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["identity-suite", "--only", "symbol-calculus", "--format", "csv"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


def readme_commands():
    """The ``berezinlab`` lines of README.md's sh blocks, continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("berezinlab "):
                commands.append(shlex.split(line)[1:])
    return commands


def test_readme_examples(capsys):
    commands = readme_commands()
    assert len(commands) >= 10
    outputs = {}
    for argv in commands:
        code = run(argv)
        out = capsys.readouterr().out
        assert code == 0, argv
        outputs[" ".join(argv)] = out
    # the values the README comments promise
    all_routes = json.loads(outputs["berezin --symbol 1,1:1 --z 0 --route all"])
    for value in all_routes["results"][0]["values"].values():
        assert value == pytest.approx([0.5, 0.0], abs=1e-10)
    quadrature = json.loads(outputs["berezin --symbol 1,0:1 --z 0.5 --route quadrature"])
    assert quadrature["results"][0]["values"]["quadrature"] == pytest.approx([0.5, 0.0],
                                                                             abs=1e-9)


# The shared options each command takes (the rest are usage errors, as is
# --tol, which no command takes: the series tolerance is fixed policy), a
# cheap argv for it, and the config keys its report adds to those options.
SHARED_VALUES = {"--out": "-", "--format": "json", "--trunc": "16", "--nr": "20",
                 "--ntheta": "64", "--tol": "1e-10", "--strict": None}
CONFIG_NAMES = {"--format": "format", "--trunc": "truncation", "--nr": "n_radial",
                "--ntheta": "n_angular", "--strict": "strict"}
POLICY_KEYS = {"reliability_tol"}
COMMANDS = {
    "berezin": (["--symbol", "1,1:1", "--z", "0.3"],
                "--out --format --trunc --nr --ntheta --strict",
                POLICY_KEYS | {"series_tol"}),
    "toeplitz": (["--symbol", "1,1:1", "--trunc", "8"], "--out --trunc --nr --ntheta", set()),
    "uz": (["--z", "0.3", "--trunc", "4"], "--out --trunc", set()),
    # runs at its pinned truncation and rule, and reports them
    "identity-suite": (["--only", "mobius-involution"], "--out --format",
                       POLICY_KEYS | {"series_tol", "truncation", "n_radial", "n_angular"}),
    "commutator": (["--f", "1,0:1", "--g", "1,0:1", "--kmax", "4", "--trunc", "16"],
                   "--out --format --trunc --strict",
                   POLICY_KEYS | {"dim", "threshold", "radii", "angle", "aperture"}),
    "decay": (["--field", "localization", "--symbol", "1,0:1", "--kmax", "4"],
              "--out --format", POLICY_KEYS),
}
# commutator's indicator settings that are fixed policy: the pad is N and
# the verdict threshold DECAY_THRESHOLD
FIXED_VALUES = {"--pad": "8", "--threshold": "0.01"}
DROPPED = [(command, option) for command, (_, kept, _) in COMMANDS.items()
           for option in SHARED_VALUES if option not in kept.split()]
DROPPED += [("commutator", option) for option in FIXED_VALUES]


class TestOptionSurface:
    def test_twenty_four_options_dropped(self):
        assert len(DROPPED) == 24

    @pytest.mark.parametrize("command,option", DROPPED)
    def test_dropped_option_is_usage_error(self, command, option, capsys):
        value = {**SHARED_VALUES, **FIXED_VALUES}[option]
        with pytest.raises(SystemExit) as err:
            run([command, *COMMANDS[command][0], option, *([value] if value else [])])
        assert err.value.code == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_config_holds_kept_options(self, command, capsys):
        argv, kept, extra = COMMANDS[command]
        assert run([command, *argv]) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        expected = {CONFIG_NAMES[o] for o in kept.split() if o in CONFIG_NAMES} | extra
        assert set(config) == expected


# Input errors, each with the one stderr line it prints after "error: ".
# OUT stands for a path in a directory that does not exist.
ERROR_LINES = [
    (["berezin", "--symbol", "1,1", "--z", "0"], "cannot parse symbol term '1,1'"),
    (["toeplitz", "--symbol", "1,1:x", "--trunc", "8"], "cannot parse complex literal 'x'"),
    (["berezin", "--symbol", "1,1:1", "--z", "0.3+x"],
     "cannot parse complex literal '0.3+x'"),
    (["uz", "--z", "abc", "--trunc", "4"], "cannot parse complex literal 'abc'"),
    (["berezin", "--symbol", "1,1:1", "--z", ","], "empty z list"),
    (["berezin", "--symbol", "1,1:1", "--z", "0.5,2.0"],
     "|z| = 2 exceeds the allowed disk radius 0.999999999999"),
    (["uz", "--z", "1.0", "--trunc", "4"],
     "|z| = 1 exceeds the allowed disk radius 0.999999999999"),
    (["commutator", "--blaschke-f", "0.5,x", "--g", "1,0:1"],
     "cannot parse complex literal 'x'"),
    (["commutator", "--blaschke-f", ",", "--g", "1,0:1"], "Blaschke zero list is empty"),
    (["commutator", "--blaschke-f", "1.5", "--g", "1,0:1"],
     "|z| = 1.5 exceeds the allowed disk radius 0.999999999999"),
    (["commutator", "--f", "0,1:1", "--g", "1,0:1"], "symbol '0,1:1' is not analytic"),
    (["commutator", "--g", "1,0:1"],
     "give exactly one of --f/--blaschke-f (resp. --g/--blaschke-g)"),
    (["commutator", "--f", "1,0:1", "--blaschke-g", "same"],
     "'same' needs --blaschke-f to copy from"),
    (["decay", "--field", "localization"], "field 'localization' needs --symbol"),
    (["decay", "--field", "factored-laplacian"],
     "factored-laplacian needs at least one --factor"),
    (["decay", "--field", "factored-laplacian", "--factor", "1,1:1"],
     "factor '1,1:1' is not harmonic"),
    (["decay", "--field", "factored-laplacian", "--factor", "1,0"],
     "cannot parse symbol term '1,0'"),
    (["berezin", "--symbol", "1,1:1", "--z", "0.5", "--out", "OUT"],
     "cannot write OUT: No such file or directory"),
    (["berezin", "--symbol", "1,1:1e400", "--z", "0.3", "--route", "series"],
     "coefficient of term 1,1 is not finite"),
]


class TestErrorLines:
    @pytest.mark.parametrize("argv,message", ERROR_LINES)
    def test_input_error_line(self, argv, message, tmp_path, capsys):
        out = str(tmp_path / "missing" / "x.json")
        assert run([out if arg == "OUT" else arg for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message.replace('OUT', out)}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["decay", "--field", "berezin-minus-symbol", "--symbol", "1,1:1e400"],
        ["toeplitz", "--symbol", "1,1:1e400", "--trunc", "8"],
        ["commutator", "--f", "1,1:1e400", "--g", "1,0:1"]])
    def test_non_finite_coefficient_refused_without_warnings(self, argv, capsys):
        # refused at parse time: no nan rows, no Infinity in JSON, no RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv) == 2
        assert capsys.readouterr() == ("", "error: coefficient of term 1,1 is not finite\n")


class TestNonFiniteOutput:
    """Finite symbols whose transforms overflow: exit 5, one line, nothing written.

    A numpy overflow is named by its operation; an inf that Python float
    arithmetic makes is named by the first report field that holds it.
    """

    @pytest.mark.parametrize("argv, message", [
        (["berezin", "--symbol", "0,0:1.5e308;1,1:1.5e308", "--z", "0.5",
          "--route", "quadrature"],
         "overflow encountered in reduce"),
        (["decay", "--field", "berezin-minus-symbol", "--symbol", "1,1:1e308;0,0:1e308",
          "--kmax", "3", "--format", "csv"],
         "value_re of row 3 is not finite (inf)"),
        (["decay", "--field", "berezin-minus-symbol", "--symbol", "1,1:1e308;0,0:1e308",
          "--kmax", "3"],
         "report.profiles[0].samples[2].value[0] is not finite (inf)"),
    ])
    def test_first_non_finite_field_named(self, argv, message, capsys):
        assert run(argv) == cli.EXIT_NUMERICAL == 5
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ["toeplitz", "--quadrature", "--symbol", "0,0:1e308;1,0:1e308;2,0:1e308",
         "--trunc", "4"],
        ["commutator", "--f", "1,0:1e200;2,0:1e200", "--g", "1,0:1e200", "--kmax", "3",
         "--trunc", "8"],
        ["berezin", "--symbol", "0,0:1.5e308;1,1:1.5e308", "--z", "0.5",
         "--route", "quadrature"],
    ])
    def test_numpy_overflow_exits_5_without_warning(self, argv, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(argv) == cli.EXIT_NUMERICAL
        out, err = capsys.readouterr()
        assert caught == [] and out == ""
        assert re.fullmatch(r"error: overflow encountered in \w+\n", err)
        assert "Warning" not in err

    def test_huge_finite_transform_prints_without_warning(self, capsys):
        # the quadrature route weights each ring sum before a coefficient
        # multiplies it, so a value near the top of the range stays finite
        argv = ["berezin", "--symbol", "2,4:-1e308;1,5:3", "--z", "0.3+0.4i", "--route"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv + ["quadrature"]) == 0
            quadrature = json.loads(capsys.readouterr().out)
            assert run(argv + ["series"]) == 0
            series = json.loads(capsys.readouterr().out)
        assert quadrature["results"][0]["values"]["quadrature"] == \
            series["results"][0]["values"]["series"] == [4.47292900465e+306, 1.53357565874e+307]

    def test_non_finite_matrix_entry_writes_nothing(self, capsys):
        m = np.eye(3, dtype=complex)
        m[1, 2] = complex(0.0, np.nan)
        args = cli.build_parser().parse_args(["uz", "--z", "0", "--trunc", "3"])
        with pytest.raises(ArithmeticError, match=r"^entries\[1\]\[2\] is not finite"):
            cli._write_matrix(TruncatedOperator._adopt(m, finite=True), {}, args)
        assert capsys.readouterr().out == ""


FUZZ_COEFFS = ("1", "3", "0.5i", "1e-300", "1e5", "1e150", "1e300", "1e308", "-1e308")
FUZZ_RADII = (0.0, 0.3, 0.8, 0.99, 0.999, 0.9999999)
FUZZ_ANGLES = ("0", "0.3", "2.5")


def fuzz_symbol(analytic=False):
    """Symbol text of one to three terms of total degree <= 6."""
    j = st.integers(0, 6)
    term = (st.tuples(j, st.just(0)) if analytic
            else j.flatmap(lambda j: st.tuples(st.just(j), st.integers(0, 6 - j))))
    terms = st.lists(st.tuples(term, st.sampled_from(FUZZ_COEFFS)), min_size=1, max_size=3)
    return terms.map(lambda ts: ";".join(f"{j},{k}:{c}" for (j, k), c in ts))


def fuzz_point():
    return st.tuples(st.sampled_from(FUZZ_RADII), st.sampled_from(FUZZ_ANGLES)).map(
        lambda ra: format_complex(ra[0] * np.exp(1j * float(ra[1]))))


FUZZ_ARGVS = st.one_of(
    st.tuples(st.just("berezin"), st.just("--symbol"), fuzz_symbol(),
              st.lists(fuzz_point(), min_size=1, max_size=3).map(lambda zs: "--z=" + ",".join(zs)),
              st.just("--route"), st.sampled_from((*cli.ROUTES, "all"))),
    st.tuples(st.just("toeplitz"), st.just("--symbol"), fuzz_symbol(), st.just("--trunc"),
              st.integers(1, 16).map(str)).flatmap(
        lambda argv: st.sampled_from([argv, (*argv, "--quadrature")])),
    st.tuples(st.just("decay"), st.just("--field"), st.sampled_from(tuple(cli.SYMBOL_FIELDS)),
              st.just("--symbol"), fuzz_symbol(), st.just("--kmax"),
              st.integers(1, 39).map(str), st.just("--theta"), st.sampled_from(FUZZ_ANGLES)),
    st.tuples(st.just("commutator"), st.just("--f"), fuzz_symbol(analytic=True),
              st.just("--g"), fuzz_symbol(analytic=True), st.just("--kmax"),
              st.integers(1, 20).map(str), st.just("--trunc"), st.integers(8, 32).map(str)),
)


def refuse_constant(name):
    raise ValueError(f"report holds {name}")


class TestFuzzedArgv:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(argv=FUZZ_ARGVS)
    def test_clean_exit_and_finite_json(self, argv):
        # every argv of the grammar exits with a documented code, warns
        # about nothing and, on success, prints JSON with no NaN or Infinity
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = run(list(argv))
        assert code in (0, 2, 3, 4, 5)
        assert caught == []
        assert "Traceback" not in err.getvalue()
        if code == 0:
            json.loads(out.getvalue(), parse_constant=refuse_constant)


class TestUsageErrors:
    def test_missing_command(self):
        with pytest.raises(SystemExit) as err:
            run([])
        assert err.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as err:
            run(["frobnicate"])
        assert err.value.code == 2


class TestModuleEntryPoint:
    """``python -m berezinlab.cli`` goes through ``entrypoint`` and its sys.exit."""

    @staticmethod
    def run_module(args):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", "berezinlab.cli", *args],
                              capture_output=True, text=True, env=env, timeout=120)

    def test_stdout_matches_in_process_run(self, capsys):
        args = ["identity-suite", "--only", "moment-oracle", "--format", "csv"]
        proc = self.run_module(args)
        assert proc.returncode == 0, proc.stderr
        assert run(args) == 0
        assert proc.stdout == capsys.readouterr().out

    def test_usage_error_exits_two_without_traceback(self):
        proc = self.run_module(["uz", "--z", "1.0", "--trunc", "4"])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("args", [
        ["decay", "--field", "berezin-minus-symbol", "--symbol", "1,1:1e308;0,0:1e308",
         "--kmax", "3"],
        ["berezin", "--symbol", "1,1:1", "--z", "0.99999999", "--route", "series"]])
    def test_numerical_failure_exits_five_without_traceback(self, args):
        proc = self.run_module(args)
        assert proc.returncode == cli.EXIT_NUMERICAL == 5
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""
