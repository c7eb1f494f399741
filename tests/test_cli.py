"""Command-line interface: exit codes, JSON schema, and flag validation."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import src_env
from copoly import (
    FAMILIES,
    Poly,
    as_rational,
    complementary,
    lambda_n,
    mu_eigenvalue,
    pair_from_family,
)
import copoly.cli
import copoly.verify
from copoly.cli import (
    MAX_COEFF_BITS,
    MAX_N,
    MAX_ORDER,
    MAX_VERIFY_N,
    build_compute_document,
    main,
)
from copoly.rodrigues import (
    bessel_family,
    hermite_family,
    jacobi_family,
    laguerre_family,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFamilies:
    def test_lists_catalog(self, capsys):
        code, out, _ = run_cli(capsys, "families")
        assert code == 0
        for name in ("hermite", "laguerre", "jacobi", "bessel", "legendre"):
            assert name in out

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "families", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert [row["name"] for row in doc] == [
            "hermite", "laguerre", "jacobi", "bessel",
        ]
        assert tuple(row["name"] for row in doc) == tuple(FAMILIES)


class TestComputeText:
    def test_hermite_table(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--family", "hermite", "--n", "2")
        assert code == 0
        assert "1" in out
        assert "-2*x" in out
        assert "-2 + 4*x^2" in out

    def test_jacobi_single_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--family", "jacobi", "--alpha", "1/3",
            "--beta", "2", "--n", "1", "--nu", "1",
        )
        assert code == 0
        assert "5/3 - 13/3*x" in out


class TestParserReuse:
    """``main`` parses every request with one parser; no request may leak into the next."""

    def test_requests_do_not_share_options(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--family", "hermite", "--n", "2", "--nu", "1")
        assert code == 0
        assert out.splitlines()[2:] == ["nu=1  [mu=2]  -2*x"]
        code, out, _ = run_cli(capsys, "compute", "--family", "hermite", "--n", "2")
        assert code == 0
        assert out.splitlines()[2:] == ["nu=0  [mu=0]  1", "nu=1  [mu=2]  -2*x",
                                        "nu=2  [mu=4]  -2 + 4*x^2"]

    def test_rejection_leaves_the_parser_usable(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--family", "hermite", "--n", "1", "--bogus"])
        assert exc.value.code == 2
        code, out, _ = run_cli(capsys, "compute", "--family", "hermite", "--n", "1")
        assert code == 0
        assert "-2*x" in out


class TestComputeJson:
    def test_full_table_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--family", "hermite", "--n", "2", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"family", "params", "n", "rows", "lambda", "mu"}
        assert doc["family"] == "hermite"
        assert doc["n"] == 2
        assert doc["rows"] == [["1"], ["0", "-2"], ["-2", "0", "4"]]
        assert doc["lambda"] == "4"
        assert doc["mu"] == [["0", "2", "4"]]

    def test_params_serialized_as_strings(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--family", "laguerre", "--alpha", "1/2",
            "--n", "1", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["params"] == {"alpha": "1/2"}
        assert doc["rows"][1] == ["3/2", "-1"]

    def test_single_row_document(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--family", "jacobi", "--alpha", "1/3", "--beta", "2",
            "--n", "2", "--nu", "1", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["rows"]) == 1
        assert Poly(doc["rows"][0]) == complementary(
            pair_from_family(jacobi_family(Fraction(1, 3), 2), max_order=8), 2, 1
        )

    def test_legendre_alias(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--family", "legendre", "--n", "1", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["family"] == "jacobi"
        assert doc["rows"] == [["1"], ["0", "-2"]]

    def test_single_row_builds_no_later_row(self):
        pair = pair_from_family(jacobi_family(Fraction(1, 3), Fraction(4, 3)), max_order=42)
        build_compute_document(pair, 40, 3)
        assert len(pair._rows[40]) == 4


class TestComputeLatex:
    def test_array_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--family", "hermite", "--n", "2", "--format", "latex"
        )
        assert code == 0
        assert "\\begin{array}" in out
        assert "4 x^{2} - 2" in out


GOLDEN = Path(__file__).resolve().parent / "golden"


class TestComputeGolden:
    """The whole stdout of ``compute``, byte for byte, in every format.

    One catalog family with two parameters, and one custom pair whose rows
    hold fractions, coefficients of +-1, interior zeros and a negative
    leading term; each as a full table and as a single ``--nu`` row.
    """

    REQUESTS = {
        "jacobi-n2": ("--family", "jacobi", "--alpha", "1/3", "--beta", "4/3", "--n", "2"),
        "jacobi-n2-nu1": ("--family", "jacobi", "--alpha", "1/3", "--beta", "4/3",
                          "--n", "2", "--nu", "1"),
        "custom-n4": ("--phi", "1/2 - 1/2*x", "--psi", "2 - x", "--n", "4"),
        "custom-n4-nu3": ("--phi", "1/2 - 1/2*x", "--psi", "2 - x", "--n", "4", "--nu", "3"),
    }

    @pytest.mark.parametrize("fmt", ["text", "latex", "json"])
    @pytest.mark.parametrize("name", sorted(REQUESTS))
    def test_stdout(self, capsys, name, fmt):
        code, out, err = run_cli(capsys, "compute", *self.REQUESTS[name], "--format", fmt)
        assert (code, err) == (0, "")
        assert out == (GOLDEN / f"{name}.{fmt}").read_text(encoding="utf-8")


class TestGenfunGolden:
    """The whole stdout of ``genfun``, byte for byte, in both formats.

    Both weight ratios combine ``series_pow_rational`` with ``series_exp``,
    and the closed form raises the quadratic prefactor to ``n`` as well.
    """

    REQUESTS = {
        "genfun-bessel-n3": ("--family", "bessel", "--alpha", "1/3", "--n", "3", "--order", "6"),
        "genfun-laguerre-n3": ("--family", "laguerre", "--alpha", "1/2",
                               "--n", "3", "--order", "6"),
    }

    @pytest.mark.parametrize("fmt", ["latex", "json"])
    @pytest.mark.parametrize("name", sorted(REQUESTS))
    def test_stdout(self, capsys, name, fmt):
        code, out, err = run_cli(capsys, "genfun", *self.REQUESTS[name], "--format", fmt)
        assert (code, err) == (0, "")
        assert out == (GOLDEN / f"{name}.{fmt}").read_text(encoding="utf-8")


class TestComputeCustom:
    def test_phi_psi_with_params(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--phi", "x^2", "--psi", "(alpha+2)*x + 2",
            "--alpha", "1", "--n", "2", "--nu", "2",
        )
        assert code == 0
        assert "4 + 16*x + 20*x^2" in out

    def test_matches_catalog_twin(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--family", "bessel", "--alpha", "1",
            "--n", "2", "--nu", "2",
        )
        assert code == 0
        assert "4 + 16*x + 20*x^2" in out

    def test_u0_flag(self, capsys):
        # leading-dash values need the --flag=value spelling under argparse
        code, out, _ = run_cli(
            capsys, "compute", "--phi", "1", "--psi=-2*x", "--u0", "1/2",
            "--n", "1", "--format", "json",
        )
        assert code == 0


class TestComputeErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("compute", "--phi", "x^3", "--psi=-x", "--n", "1"),
            ("compute", "--phi", "x", "--psi", "3", "--n", "1"),
            ("compute", "--family", "hermite", "--n", "2", "--nu", "5"),
            ("compute", "--family", "hermite", "--n", "-1"),
            ("compute", "--family", "hermite", "--phi", "1", "--psi=-2*x", "--n", "1"),
            ("compute", "--n", "1"),
            ("compute", "--family", "nonsense", "--n", "1"),
            ("compute", "--family", "hermite", "--u0", "2", "--n", "1"),
            ("compute", "--family", "legendre", "--alpha", "1", "--n", "1"),
            ("compute", "--family", "hermite", "--alpha", "1", "--n", "1"),
            ("compute", "--phi", "x^2", "--psi", "2 + x*gamma", "--n", "1"),
            ("compute", "--phi", "x^2", "--psi", "2 +", "--n", "1"),
            ("compute", "--family", "bessel", "--alpha", "-5", "--n", "4"),
        ],
    )
    def test_invalid_inputs_exit_two(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv, flag", [
        (("--family", "jacobi", "--alpha", "1/0"), "--alpha"),
        (("--family", "jacobi", "--beta", "1/0"), "--beta"),
        (("--phi", "1", "--psi=-2*x", "--u0", "1/0"), "--u0"),
        # exponent notation is refused before it builds a 20001-digit integer
        (("--family", "laguerre", "--alpha", "1e20000"), "--alpha"),
    ], ids=["alpha", "beta", "u0", "alpha-exponent"])
    def test_zero_denominator_flag_exits_two(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, "verify", *argv, "--max-n", "2")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {flag} must be") and f"'{argv[-1]}'" in err

    @pytest.mark.parametrize("phi", ["(" * 250 + "x" + ")" * 250, "-" * 1000 + "x"],
                             ids=["parentheses", "signs"])
    def test_deep_nesting_exits_two(self, capsys, phi):
        code, out, err = run_cli(capsys, "compute", f"--phi={phi}", "--psi", "1-x", "--n", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: expression nests deeper than")

    @pytest.mark.parametrize("phi, message", [
        ("(x+1)^3000 - (x+1)^3000 + 1", "exponent exceeds 100 (at position 6)"),
        ("((x^100)^100)^100", "power would have degree 10000, above the cap 100 (at position 8)"),
        ("(((2^100)^100)^100)^10*x",
         "power would need 10100-bit coefficients, above the cap 10000 (at position 9)"),
    ], ids=["cancelling-powers", "nested-powers", "constant-bits"])
    def test_degree_cap_exits_two(self, capsys, phi, message):
        code, out, err = run_cli(capsys, "compute", "--phi", phi, "--psi=-2*x", "--n", "2")
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_bessel_admissibility_message_names_k(self, capsys):
        code, _, err = run_cli(
            capsys, "compute", "--family", "bessel", "--alpha", "-5", "--n", "4"
        )
        assert code == 2
        assert "k = 3" in err

    def test_row_that_would_lose_degree_exits_two(self, capsys):
        # row nu + 1 of n gains the leading factor psi' + k phi''/2 = k - 15 at
        # k = 2n - nu - 2, so at n = 10 row 4 would drop to degree 0
        code, out, err = run_cli(capsys, "compute", "--n", "10",
                                 "--phi", "x^2", "--psi", "1 - 15*x")
        assert (code, out) == (2, "")
        assert err == "error: admissibility fails: psi' + k*phi''/2 = 0 at k = 15\n"

    def test_rows_keep_their_degree_past_the_checked_range(self, capsys):
        # k - 19 vanishes only past k = 2n - 2 = 18, where no row of n = 10 reaches
        code, out, _ = run_cli(capsys, "compute", "--n", "10", "--phi", "x^2", "--psi", "1 - 19*x",
                               "--format", "json")
        assert code == 0
        assert [len(row) for row in json.loads(out)["rows"]] == list(range(1, 12))


class TestFamilyFile:
    def test_round_trip(self, capsys, tmp_path):
        path = tmp_path / "family.json"
        path.write_text(json.dumps({
            "name": "laguerre",
            "phi": ["0", "1"],
            "psi": ["3/2", "-1"],
            "params": {"alpha": "1/2"},
            "u0": "1",
        }))
        code, out, _ = run_cli(
            capsys, "compute", "--family-file", str(path), "--n", "1",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["family"] == "laguerre"
        assert doc["rows"][1] == ["3/2", "-1"]

    def test_missing_field(self, capsys, tmp_path):
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"name": "thing", "phi": ["1"]}))
        code, _, err = run_cli(capsys, "compute", "--family-file", str(path), "--n", "1")
        assert code == 2
        assert "psi" in err

    def test_catalog_shape_mismatch(self, capsys, tmp_path):
        path = tmp_path / "family.json"
        path.write_text(json.dumps({
            "name": "hermite", "phi": ["0", "1"], "psi": ["0", "-2"],
        }))
        code, _, err = run_cli(capsys, "compute", "--family-file", str(path), "--n", "1")
        assert code == 2
        assert "catalog" in err

    def _write(self, tmp_path, doc):
        path = tmp_path / "family.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize("command", [
        ("compute", "--n", "3", "--format", "json"),
        ("genfun", "--n", "2", "--order", "4"),
    ])
    def test_catalog_file_without_params_matches_flag(self, capsys, tmp_path, command):
        path = self._write(tmp_path, {"name": "laguerre", "phi": ["0", "1"], "psi": ["1", "-1"]})
        code, from_file, _ = run_cli(capsys, *command[:1], "--family-file", path, *command[1:])
        assert code == 0
        code, from_flag, _ = run_cli(capsys, *command[:1], "--family", "laguerre", *command[1:])
        assert code == 0
        assert from_file == from_flag
        assert json.loads(from_file)["params"] == {"alpha": "0"}

    def test_catalog_file_missing_parameter_defaults_to_zero(self, capsys, tmp_path):
        # jacobi with alpha = 1, beta omitted (so 0): psi = -1 - 3x
        path = self._write(tmp_path, {
            "name": "jacobi", "phi": ["1", "0", "-1"], "psi": ["-1", "-3"],
            "params": {"alpha": "1"},
        })
        code, out, _ = run_cli(
            capsys, "verify", "--family-file", path, "--max-n", "3", "--order", "4",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] and doc["params"] == {"alpha": "1", "beta": "0"}

    def test_catalog_file_rejects_foreign_parameter(self, capsys, tmp_path):
        path = self._write(tmp_path, {
            "name": "hermite", "phi": ["1"], "psi": ["0", "-2"], "params": {"alpha": "1"},
        })
        code, _, err = run_cli(capsys, "compute", "--family-file", path, "--n", "1")
        assert code == 2
        assert "does not take alpha" in err

    def test_unreadable_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "compute", "--family-file", str(tmp_path / "absent.json"), "--n", "1"
        )
        assert code == 2

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "family.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "compute", "--family-file", str(path), "--n", "1")
        assert code == 2

    @pytest.mark.parametrize("doc, field", [
        ({"name": "thing", "phi": [0, 1.5], "psi": ["1", "-1"]}, "phi[1]"),
        ({"name": "thing", "phi": ["0", "1"], "psi": [True, "-1"]}, "psi[0]"),
        ({"name": "laguerre", "phi": ["0", "1"], "psi": ["1", "-1"], "params": {"alpha": 0.5}},
         "params.alpha"),
        ({"name": "thing", "phi": ["0", "1"], "psi": ["1", "-1"], "u0": "1/0"}, "u0"),
        ({"name": "thing", "phi": ["0", "1"], "psi": ["1", "-1"], "u0": "1e20000"}, "u0"),
    ])
    def test_inexact_or_invalid_value_rejected(self, capsys, tmp_path, doc, field):
        code, _, err = run_cli(capsys, "compute", "--family-file", self._write(tmp_path, doc),
                               "--n", "1")
        assert code == 2
        assert f"field {field} " in err

    @pytest.mark.parametrize("doc, message", [
        (5, "JSON object, not a JSON int"),
        (["0", "1"], "JSON object, not a JSON list"),
        ({"name": "thing", "phi": "01", "psi": ["1", "-1"]}, "'phi' must be a JSON array"),
        ({"name": "thing", "phi": ["0", "1"], "psi": {"0": "1"}}, "'psi' must be a JSON array"),
        ({"name": "laguerre", "phi": ["0", "1"], "psi": ["1", "-1"], "params": ["alpha"]},
         "'params' must be a JSON object"),
    ])
    def test_wrong_shape_rejected(self, capsys, tmp_path, doc, message):
        code, _, err = run_cli(capsys, "compute", "--family-file", self._write(tmp_path, doc),
                               "--n", "1")
        assert code == 2
        assert message in err

    def test_deep_nesting_rejected(self, capsys, tmp_path):
        path = tmp_path / "family.json"
        deep = "[" * 100_000 + "]" * 100_000
        path.write_text(f'{{"name": "thing", "phi": {deep}, "psi": ["1", "-1"]}}')
        code, _, err = run_cli(capsys, "compute", "--family-file", str(path), "--n", "1")
        assert code == 2
        assert "too deeply" in err

    @pytest.mark.parametrize("name", [{"a": 1}, ["hermite"], 7, None])
    def test_name_must_be_text(self, capsys, tmp_path, name):
        doc = {"name": name, "phi": ["0", "1"], "psi": ["1", "-1"]}
        code, out, err = run_cli(capsys, "compute", "--family-file", self._write(tmp_path, doc),
                                 "--n", "1")
        assert code == 2
        assert out == ""
        assert "field 'name' must be JSON text" in err

    def test_over_long_integer_names_its_field(self, capsys, tmp_path):
        path = tmp_path / "family.json"
        path.write_text('{"name": "thing", "phi": [0, 1], "psi": [1, %s]}' % ("9" * 5000))
        code, _, err = run_cli(capsys, "compute", "--family-file", str(path), "--n", "1")
        assert code == 2
        assert "field psi[1] " in err

    def test_json_integers_are_values(self, capsys, tmp_path):
        doc = {"name": "laguerre", "phi": [0, 1], "psi": [2, -1], "params": {"alpha": 1}, "u0": 1}
        code, out, _ = run_cli(capsys, "compute", "--family-file", self._write(tmp_path, doc),
                               "--n", "1", "--format", "json")
        assert code == 0
        assert json.loads(out)["params"] == {"alpha": "1"}

    @pytest.mark.parametrize("command", [
        ("compute", "--n", "1", "--format", "json"),
        ("verify", "--max-n", "1", "--order", "2", "--format", "json"),
    ])
    def test_params_sorted_by_name(self, capsys, tmp_path, command):
        path = self._write(tmp_path, {"name": "mine", "phi": ["1", "0", "-1"], "psi": ["1", "-4"],
                                      "params": {"beta": "1", "alpha": "2"}})
        code, out, _ = run_cli(capsys, *command[:1], "--family-file", path, *command[1:])
        assert code == 0
        assert list(json.loads(out)["params"].items()) == [("alpha", "2"), ("beta", "1")]
        code, out, _ = run_cli(capsys, *command[:1], "--family-file", path, *command[1:-2])
        assert code == 0
        assert out.splitlines()[0] == "family: mine  params: alpha=2 beta=1"


class TestVerify:
    def test_hermite_full_suite(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--family", "hermite", "--max-n", "4", "--suite", "all"
        )
        assert code == 0
        assert "overall: PASS" in out

    def test_bessel_inadmissible(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--family", "bessel", "--alpha", "-5", "--max-n", "8"
        )
        assert code == 2
        assert "k = 3" in err

    def test_not_quasi_definite_reports_the_other_suites(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--family", "laguerre", "--alpha=-1", "--max-n", "3"
        )
        assert code == 0
        assert "  oracle     PASS  checks=0" in out
        assert ("note: oracle checks skipped: moment functional is not quasi-definite "
                "(Hankel determinant of order 1 vanishes)") in out.splitlines()
        assert "overall: PASS" in out

    @pytest.mark.parametrize("argv, checks", [
        (("--family", "jacobi", "--alpha=-6", "--beta=-6", "--max-n", "0"), (3, 3, 8, 4, 27)),
        (("--family", "bessel", "--alpha=-12", "--max-n", "1"), (10, 9, 12, 10, 32)),
    ], ids=["jacobi-sum-minus-12", "bessel-minus-12"])
    def test_vanishing_probe_value_is_no_counterexample(self, capsys, argv, checks):
        # psi' + (m+2k) phi''/2 vanishes at m + 2k = 10, inside the probed grid
        code, out, _ = run_cli(capsys, "verify", *argv, "--order", "4")
        assert code == 0
        assert out.splitlines()[-1] == "overall: PASS"
        assert [int(line.split("checks=")[1].split()[0])
                for line in out.splitlines() if "checks=" in line] == list(checks)

    def test_laguerre_genfun_suite(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--family", "laguerre", "--alpha", "1/2",
            "--suite", "genfun", "--order", "10",
        )
        assert code == 0

    def test_json_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--family", "hermite", "--max-n", "3",
            "--suite", "ode", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["suites"][0]["suite"] == "ode"
        assert doc["first_counterexample"] is None

    def test_failed_report_exits_one(self, capsys, monkeypatch):
        # Exit 1 signals a verified counterexample, which admissible input
        # cannot produce; fake a failing report to pin the translation.
        from copoly.verify import SuiteResult, VerifyReport

        fake = VerifyReport(
            family="hermite", params={}, max_n=2, series_order=4,
            suites=[SuiteResult("ode", False, 3, ["n=2 nu=1: residual"], 0.0)],
        )
        monkeypatch.setattr("copoly.cli.verify_pair", lambda *a, **k: fake)
        code, out, _ = run_cli(capsys, "verify", "--family", "hermite")
        assert code == 1
        assert "n=2 nu=1" in out


class TestFailureContract:
    """Exit 2 is bad input (a ``CopolyError`` or ``OSError``), exit 1 a counterexample
    and exit 3 anything else, which is a fault of the program."""

    @pytest.mark.parametrize("fault", [IndexError, ValueError, TypeError])
    def test_internal_fault_exits_three(self, capsys, monkeypatch, fault):
        def broken(pair, max_n, order, tally):
            raise fault("injected")
        monkeypatch.setitem(copoly.verify._SUITES, "ode", broken)
        code, out, err = run_cli(capsys, "verify", "--family", "hermite", "--max-n", "2")
        assert (code, out, err) == (3, "", f"internal error: {fault.__name__}: injected\n")

    def test_internal_fault_prints_no_traceback(self):
        script = ("import sys, copoly.cli, copoly.verify\n"
                  "def broken(*args): raise IndexError('injected')\n"
                  "copoly.verify._SUITES['ode'] = broken\n"
                  "sys.exit(copoly.cli.main(['verify', '--family', 'hermite']))\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=src_env())
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            3, "", "internal error: IndexError: injected\n")

    @pytest.mark.parametrize("phi, message", [
        ("2²", "unexpected character '²' (at position 1)"),
        ("x^²", "unexpected character '²' (at position 2)"),
        ("9" * 5000 + "*x", "integer literal longer than 4300 digits (at position 0)"),
    ], ids=["superscript-digit", "superscript-exponent", "5000-digit-literal"])
    def test_bad_expression_exits_two(self, capsys, phi, message):
        code, out, err = run_cli(capsys, "compute", "--n", "1", "--phi", phi, "--psi", "1 - x")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("content, message", [
        (b'{"name": "thing", "phi": ["0", "1"], "psi": [', "Expecting value"),
        (b'{"name": "\xff", "phi": ["0", "1"], "psi": ["1", "-1"]}', "can't decode byte 0xff"),
    ], ids=["truncated", "not-utf-8"])
    def test_unreadable_family_file_exits_two(self, capsys, tmp_path, content, message):
        path = tmp_path / "family.json"
        path.write_bytes(content)
        code, out, err = run_cli(capsys, "compute", "--family-file", str(path), "--n", "1")
        assert (code, out) == (2, "")
        assert err.startswith("error: family file is not UTF-8 JSON: ") and message in err


class TestGenfun:
    def test_hermite_identical_paths(self, capsys):
        code, out, _ = run_cli(
            capsys, "genfun", "--family", "hermite", "--n", "3", "--order", "2"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["truncated"] == [["1"], ["0", "-2"], ["-1", "0", "2"]]
        assert doc["closed_form"] == doc["truncated"]
        assert doc["difference"] == [[], [], []]

    def test_legendre_alias(self, capsys):
        code, out, _ = run_cli(
            capsys, "genfun", "--family", "legendre", "--n", "1", "--order", "1"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["truncated"] == [["1"], ["0", "-2"]]

    def test_custom_pair_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "genfun", "--phi", "x", "--psi", "1 - x", "--n", "2"
        )
        assert code == 2
        assert "closed-form" in err

    def test_row_that_would_lose_degree_exits_two(self, capsys):
        # the range compute checks: psi' + k phi''/2 = k - 15 vanishes at k = 15 <= 2n - 2
        code, out, err = run_cli(capsys, "genfun", "--family", "bessel", "--alpha=-17",
                                 "--n", "10", "--order", "4")
        assert (code, out) == (2, "")
        assert err == "error: admissibility fails: psi' + k*phi''/2 = 0 at k = 15\n"

    def test_latex_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "genfun", "--family", "laguerre", "--alpha", "1/2",
            "--n", "2", "--order", "2", "--format", "latex",
        )
        assert code == 0
        assert "\\begin{array}" in out


class TestSizeCaps:
    """``--n`` and ``--max-n`` past their caps are refused before any pair is set up."""

    @pytest.mark.parametrize("argv, flag", [
        (("compute", "--family", "hermite", "--n", str(MAX_N + 1)), "--n"),
        (("genfun", "--family", "hermite", "--n", str(MAX_N + 1)), "--n"),
        (("verify", "--family", "hermite", "--max-n", str(MAX_VERIFY_N + 1)), "--max-n"),
        (("compute", "--family", "hermite", "--n", "9" * 5000), "--n"),
        (("genfun", "--family", "hermite", "--n", "9" * 5000), "--n"),
        (("verify", "--family", "hermite", "--max-n", "9" * 5000), "--max-n"),
    ], ids=["compute-401", "genfun-401", "verify-25", "compute-5000-digits",
            "genfun-5000-digits", "verify-5000-digits"])
    def test_above_the_cap_exits_two(self, capsys, monkeypatch, argv, flag):
        def never(*args, **kwargs):
            raise AssertionError("a refused request set up its pair")
        monkeypatch.setattr(copoly.cli, "pair_from_family", never)
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse refuses an int it will not convert
            code = exc.code
        err = capsys.readouterr().err
        assert code == 2
        assert flag in err

    def test_caps(self):
        assert (MAX_N, MAX_VERIFY_N, MAX_ORDER, MAX_COEFF_BITS) == (400, 24, 16, 7)


class TestOrderCap:
    def test_default_cap_allows_sixteen(self, capsys):
        code, _, _ = run_cli(
            capsys, "genfun", "--family", "hermite", "--n", "1", "--order", "16"
        )
        assert code == 0

    def test_default_cap_rejects_seventeen(self, capsys):
        code, _, err = run_cli(
            capsys, "genfun", "--family", "hermite", "--n", "1", "--order", "17"
        )
        assert code == 2
        assert "--order 17 exceeds the cap of 16" in err

    def test_verify_allows_sixteen(self, capsys):
        code, _, _ = run_cli(
            capsys, "verify", "--family", "hermite", "--order", "16", "--max-n", "1",
            "--suite", "genfun",
        )
        assert code == 0

    def test_cap_applies_to_verify_order(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--family", "hermite", "--order", "17", "--max-n", "2"
        )
        assert code == 2
        assert "--order 17 exceeds the cap of 16" in err


class TestCoefficientCap:
    """No ``phi``/``psi`` coefficient or ``u0`` part longer than ``MAX_COEFF_BITS`` is accepted."""

    def test_five_digit_jacobi_refused_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "compute", "--family", "jacobi", "--alpha", "30558/24839",
            "--beta", "58731/71481", "--n", "400", "--format", "json",
        )
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert "psi coefficient of x^0" in err
        assert f"cap of {MAX_COEFF_BITS} bits" in err

    @pytest.mark.parametrize("argv, where", [
        (("--phi", f"x + 1/{2 ** MAX_COEFF_BITS}", "--psi", "1 - x"), "phi coefficient of x^0"),
        (("--phi", "x", "--psi", f"1 - {2 ** MAX_COEFF_BITS}*x"), "psi coefficient of x^1"),
        (("--phi", "x", "--psi", "1 - x", "--u0", str(2 ** MAX_COEFF_BITS)), "u0"),
        (("--family", "bessel", "--alpha", f"1/{2 ** MAX_COEFF_BITS}"), "psi coefficient of x^1"),
    ], ids=["phi", "psi", "u0", "bessel"])
    def test_one_bit_over_the_cap_exits_two(self, capsys, argv, where):
        code, out, err = run_cli(capsys, "compute", *argv, "--n", "2")
        assert (code, out) == (2, "")
        assert f"error: {where} has a numerator or denominator longer" in err

    def test_family_file_checked_too(self, capsys, tmp_path):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"name": "wide", "phi": ["1", f"1/{2 ** MAX_COEFF_BITS}"],
                                    "psi": ["0", "-1"]}))
        code, out, err = run_cli(capsys, "compute", "--family-file", str(path), "--n", "2")
        assert (code, out) == (2, "")
        assert "phi coefficient of x^1" in err

    def test_at_the_cap_accepted(self, capsys):
        top = 2 ** MAX_COEFF_BITS - 1
        code, out, _ = run_cli(
            capsys, "compute", "--phi", f"{top}/{top - 2} + x", "--psi", f"1 - {top - 4}/{top}*x",
            f"--u0={top}/{top - 6}", "--n", "3", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["n"] == 3


class TestSubprocessContract:
    """End-to-end checks through a real interpreter."""

    def run(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "copoly", *argv],
            capture_output=True, text=True, env=src_env(),
        )

    def test_verify_examples_exit_codes(self):
        first = self.run("verify", "--family", "hermite", "--max-n", "4", "--suite", "all")
        second = self.run("verify", "--family", "bessel", "--alpha", "-5", "--max-n", "8")
        third = self.run(
            "verify", "--family", "laguerre", "--alpha", "1/2",
            "--suite", "genfun", "--order", "10",
        )
        assert (first.returncode, second.returncode, third.returncode) == (0, 2, 0)
        assert "k = 3" in second.stderr

    def test_unknown_flag_exits_two(self):
        proc = self.run("compute", "--family", "hermite", "--n", "1", "--bogus")
        assert proc.returncode == 2

    def test_unknown_suite_choice_exits_two(self):
        proc = self.run("verify", "--family", "hermite", "--suite", "bogus")
        assert proc.returncode == 2

    def test_missing_subcommand_exits_two(self):
        proc = self.run()
        assert proc.returncode == 2

    @pytest.mark.skipif(os.name != "posix", reason="runs a shebang launcher by name")
    def test_console_script_installed(self, tmp_path):
        # Build the launcher an installer generates for the declared
        # `copoly` entry point, put it first on PATH and run it by name, so
        # the check covers this tree's entry point and no other copy.
        tomllib = pytest.importorskip("tomllib")
        root = Path(__file__).resolve().parents[1]
        with open(root / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["copoly"]
        module, func = target.split(":")
        bindir = tmp_path / "bin"
        bindir.mkdir()
        launcher = bindir / "copoly"
        launcher.write_text(
            f"#!{sys.executable}\n"
            "import re\n"
            "import sys\n"
            f"from {module} import {func}\n"
            "if __name__ == '__main__':\n"
            "    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])\n"
            f"    sys.exit({func}())\n"
        )
        launcher.chmod(0o755)
        env = src_env()
        env["PATH"] = os.pathsep.join(filter(None, [str(bindir), env.get("PATH")]))
        proc = subprocess.run(
            ["copoly", "families"], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0
        assert "hermite" in proc.stdout


class TestDocumentRoundTrip:
    FAMILIES = (
        hermite_family,
        lambda: laguerre_family(Fraction(1, 2)),
        lambda: laguerre_family(3),
        lambda: jacobi_family(Fraction(1, 3), 2),
        lambda: jacobi_family(0, 0),
        lambda: bessel_family(1),
        lambda: bessel_family(Fraction(-1, 2)),
    )

    def test_randomized_tables(self):
        rng = random.Random(20260823)
        for _ in range(30):
            spec = rng.choice(self.FAMILIES)()
            n = rng.randrange(0, 7)
            pair = pair_from_family(spec, max_order=n + 2)
            doc = json.loads(json.dumps(build_compute_document(pair, n)))
            rows = [Poly(r) for r in doc["rows"]]
            assert rows == [complementary(pair, n, nu) for nu in range(n + 1)]
            assert as_rational(doc["lambda"]) == lambda_n(pair, n)
            assert [as_rational(v) for v in doc["mu"][0]] == [
                mu_eigenvalue(pair, n, nu) for nu in range(n + 1)
            ]
