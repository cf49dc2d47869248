import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from berezinlab import cli
from berezinlab.operators import TruncatedOperator
from berezinlab.suites import BatteryResult


def run(args):
    return cli.main(args)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        return list(csv.reader(fh))


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

    def test_outside_disk_rejected(self):
        assert run(["berezin", "--symbol", "1,1:1", "--z", "0.5,2.0"]) == 2


class TestMatrixDumps:
    def test_toeplitz_dump_schema(self, tmp_path):
        out = tmp_path / "t.json"
        code = run(["toeplitz", "--symbol", "1,1:1", "--trunc", "8",
                    "--out", str(out)])
        assert code == 0
        payload = read_json(out)
        assert payload["dim"] == 8
        assert payload["basis"] == "orthonormal-monomial"
        op = TruncatedOperator.from_json_dict(payload)
        assert op.matrix[0, 0] == pytest.approx(0.5)
        assert op.matrix[1, 1] == pytest.approx(2.0 / 3.0)

    def test_toeplitz_quadrature_variant(self, tmp_path):
        out = tmp_path / "t.json"
        code = run(["toeplitz", "--symbol", "0,1:1", "--trunc", "6",
                    "--quadrature", "--out", str(out)])
        assert code == 0
        op = TruncatedOperator.from_json_dict(read_json(out))
        assert op.matrix[0, 1] == pytest.approx(np.sqrt(2) / 2, abs=1e-10)

    def test_uz_dump(self, tmp_path):
        out = tmp_path / "u.json"
        code = run(["uz", "--z", "0", "--trunc", "4", "--out", str(out)])
        assert code == 0
        op = TruncatedOperator.from_json_dict(read_json(out))
        assert np.allclose(op.matrix, np.diag([-1, 1, -1, 1]))

    def test_uz_rejects_boundary_point(self):
        assert run(["uz", "--z", "1.0", "--trunc", "4"]) == 2


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
        def always_fails(cfg):
            return BatteryResult("always-fails", "stub", False, 1.0, 1e-9, {})
        monkeypatch.setitem(cli.BATTERIES, "always-fails", always_fails)
        out = tmp_path / "suite.json"
        code = run(["identity-suite", "--only", "always-fails", "--out", str(out)])
        assert code == 4
        payload = read_json(out)
        assert payload["results"][0]["passed"] is False

    def test_unknown_battery_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            run(["identity-suite", "--only", "bogus"])
        assert err.value.code == 2


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


class TestDeterminism:
    def test_identical_bytes_for_identical_args(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["berezin", "--symbol", "2,1:0.5+0.25i;0,1:1", "--z",
                "0.1,0.3+0.4i,0.6", "--route", "all"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_suite_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["identity-suite", "--only", "symbol-calculus", "--format", "csv"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


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
