"""Command-line interface: exit codes, JSON schema, and flag validation."""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import kernel_pairs, mixed_rationals, src_env
from copoly import (
    FAMILIES,
    ClassicalPair,
    InvalidParameter,
    Poly,
    as_rational,
    complementary,
    lambda_n,
    mu_eigenvalue,
)
import copoly.cli
import copoly.poly
import copoly.rodrigues
import copoly.verify
from copoly.cli import (
    MAX_COEFF_BITS,
    MAX_N,
    MAX_ORDER,
    MAX_VERIFY_N,
    _TextRows,
    _print_json,
    _report_to_dict,
    main,
)
from copoly.render import poly_to_strings
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


def _family_flags(pair: ClassicalPair) -> list[str]:
    """The ``--family`` flags of a catalog pair; ``--alpha=-1/2`` keeps a negative value
    from reading as a flag."""
    return ["--family", pair.name, *(f"--{key}={value}" for key, value in pair.params.items())]


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
            jacobi_family(Fraction(1, 3), 2), 2, 1
        )

    def test_legendre_alias(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--family", "legendre", "--n", "1", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["family"] == "jacobi"
        assert doc["rows"] == [["1"], ["0", "-2"]]

    def test_single_row_builds_no_later_row(self, capsys, monkeypatch):
        original = copoly.cli._comp_rows
        built = []

        def counted(*args):
            rows = original(*args)
            built.append(len(rows))
            return rows
        monkeypatch.setattr(copoly.cli, "_comp_rows", counted)
        code, out, _ = run_cli(capsys, "compute", "--family", "jacobi", "--alpha", "1/3",
                               "--beta", "4/3", "--n", "40", "--nu", "3", "--format", "json")
        assert code == 0 and len(json.loads(out)["rows"]) == 1
        assert built == [1] * 4


class TestComputeRowsLowering:
    """Every row ``compute`` prints is the scaled derivative of the classical diagonal:
    ``C_nu = (d/dx)^(n-nu) C_n / prod_{j=nu+1}^{n} (-mu(n, j))``, from the lowering
    relation ``C_j' = -mu(n, j) C_{j-1}``; the diagonal and ``mu`` come from
    ``oracles``, and the printed ``mu`` is checked too."""

    @staticmethod
    def _check(name, n, params, rows):
        """``rows`` holds ``(nu, mu, row)`` for ``nu = 0 .. n``."""
        derivative, scale = oracles.classical_diagonal(name, n, *params), Fraction(1)
        for nu, mu, row in reversed(rows):
            assert mu == oracles.row_eigenvalue(name, n, nu, *params)
            assert derivative == scale * row, (name, n, nu)
            derivative, scale = derivative.derivative(), -mu * scale

    @pytest.mark.parametrize("name, params", [
        ("hermite", ()),
        ("laguerre", (Fraction(1, 2),)),
        ("laguerre", (Fraction(-7, 3),)),
        ("jacobi", (Fraction(1, 3), Fraction(4, 3))),
        ("jacobi", (Fraction(0), Fraction(0))),
        ("bessel", (Fraction(1, 3),)),
        ("bessel", (Fraction(-5, 2),)),
    ])
    @pytest.mark.parametrize("n", [0, 1, 5, 17])
    def test_printed_rows(self, capsys, name, params, n):
        flags = [f"--{key}={value}" for key, value in zip(FAMILIES[name].params, params)]
        code, out, _ = run_cli(capsys, "compute", "--family", name, *flags, "--n", str(n),
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        self._check(name, n, params, [(nu, Fraction(mu), Poly(row)) for nu, (mu, row)
                                      in enumerate(zip(doc["mu"][0], doc["rows"]))])

    def test_jacobi_at_max_n(self):
        # the rows compute's writers print, taken before they are written: the
        # 73 MB document would only add parsing (TestComputeStream checks the writers)
        params = (Fraction(1, 3), Fraction(4, 3))
        pair = jacobi_family(*params)
        self._check("jacobi", MAX_N, params,
                    [(nu, mu_eigenvalue(pair, MAX_N, nu), row)
                     for nu, row in copoly.cli._compute_rows(pair, MAX_N, None)])


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
        (("--phi", "1", "--psi=-2*x", "--u0", "1e20000"), "--u0"),
        (("--phi", "1", "--psi=-2*x", "--u0", "9" * 5000), "--u0"),
    ], ids=["alpha", "beta", "u0", "alpha-exponent", "u0-exponent", "u0-5000-digits"])
    def test_zero_denominator_flag_exits_two(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, "verify", *argv, "--max-n", "2")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {flag} must be") and f"'{argv[-1]}'" in err

    @pytest.mark.parametrize("flag", ["--alpha", "--beta", "--u0"])
    @pytest.mark.parametrize("text", [
        "1.5", ".5", "1_0", "+2", " 3/2 ", "3 / 2", "3/2\n", "1/-2", "--2", "3/", "/2", "",
        "0x10", "inf", "nan", "\u0663", "1" * 4301, "1/" + "1" * 4301,
    ], ids=["decimal", "bare-point", "underscore", "plus", "spaces", "inner-spaces",
            "newline", "signed-denominator", "double-minus", "no-denominator",
            "no-numerator", "empty", "hex", "inf", "nan", "non-ascii-digit",
            "4301-digit-numerator", "4301-digit-denominator"])
    def test_non_literal_flag_value_exits_two(self, capsys, flag, text):
        """Flag values use the integer literal of ``--phi``: ``-``, ASCII digits, ``/digits``."""
        pair = ("--family", "jacobi") if flag != "--u0" else ("--phi", "1", "--psi=-2*x")
        code, out, err = run_cli(capsys, "verify", *pair, f"{flag}={text}", "--max-n", "2")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {flag} must be an integer or rational text")

    @pytest.mark.parametrize("text, value", [
        ("-3/2", Fraction(-3, 2)), ("007/014", Fraction(1, 2)), ("-0", Fraction(0)),
        ("1" * 4300 + "/" + "1" * 4300, Fraction(1)),
    ], ids=["negative", "leading-zeros", "negative-zero", "4300-digit-literals"])
    def test_literal_flag_value_accepted(self, text, value):
        assert copoly.cli._rational("--alpha", text) == value

    # what as_rational reads from each spelling; None is a refusal
    SPELLINGS = {"3": 3, "-7": -7, "007/014": Fraction(1, 2), "3/2": Fraction(3, 2),
                 "\u0663": None, "1_0": None, "+2": None, " 2 ": None, "1.5": None,
                 "1e3": None, "1/0": None, "1" * 4301: None}
    # a request that finishes for every value a flag accepts
    REQUESTS = {"--alpha": ("compute", "--family", "laguerre", "--n", "2"),
                "--beta": ("compute", "--family", "jacobi", "--alpha", "1/3", "--n", "2"),
                "--u0": ("compute", "--phi", "1", "--psi=-2*x", "--n", "2"),
                "--n": ("compute", "--family", "hermite"),
                "--nu": ("compute", "--family", "hermite", "--n", "3"),
                "--max-n": ("verify", "--family", "hermite", "--order", "4"),
                "--order": ("genfun", "--family", "hermite", "--n", "1")}

    @pytest.mark.parametrize("flag", list(REQUESTS))
    @pytest.mark.parametrize("text", list(SPELLINGS), ids=[
        "3", "-7", "007-014", "3-2", "non-ascii-digit", "underscore", "plus", "spaces",
        "decimal", "exponent", "zero-denominator", "4301-digits"])
    def test_one_number_grammar(self, capsys, flag, text):
        """Every numeric flag and ``as_rational`` read one grammar; the integer flags
        take no ``/`` and refuse a negative value as out of range."""
        value = self.SPELLINGS[text]
        if value is None:
            with pytest.raises(InvalidParameter):
                as_rational(text)
        else:
            assert as_rational(text) == value
        integer = flag in ("--n", "--nu", "--max-n", "--order")
        accepted = value is not None and not (integer and ("/" in text or value < 0))
        code, out, err = run_cli(capsys, *self.REQUESTS[flag], f"{flag}={text}")
        if accepted:
            assert (code, err) == (0, "")
            if flag in ("--alpha", "--beta"):
                assert f"{flag[2:]}={value}" in out.splitlines()[0]
        else:
            assert (code, out) == (2, "")
            assert err.startswith(f"error: {flag} must be")

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

    @pytest.mark.parametrize("argv", [
        ("verify", "--family", "jacobi", "--alpha=-1", "--beta=-1", "--max-n", "2"),
        ("compute", "--n", "2", "--phi", "x", "--psi", "0"),
        ("compute", "--n", "2", "--phi", "x", "--psi", "x-x"),
        ("genfun", "--n", "1", "--order", "2", "--phi", "1", "--psi", "0"),
    ], ids=["jacobi-minus-1-minus-1", "zero", "cancelling", "genfun"])
    def test_zero_psi_exits_two(self, capsys, argv):
        # the zero polynomial has degree -inf, which the message must not print
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: psi must have degree exactly 1, got the zero polynomial\n"

    def test_rows_keep_their_degree_past_the_checked_range(self, capsys):
        # k - 19 vanishes only past k = 2n - 2 = 18, where no row of n = 10 reaches
        code, out, _ = run_cli(capsys, "compute", "--n", "10", "--phi", "x^2", "--psi", "1 - 19*x",
                               "--format", "json")
        assert code == 0
        assert [len(row) for row in json.loads(out)["rows"]] == list(range(1, 12))


class TestPairSources:
    """A pair comes from exactly one of ``--family`` and ``--phi``/``--psi``."""

    @pytest.mark.parametrize("half", [("--phi", "1"), ("--psi=-2*x",)],
                             ids=["only-phi", "only-psi"])
    def test_half_a_custom_pair_exits_two(self, capsys, half):
        code, out, err = run_cli(capsys, "compute", *half, "--n", "1")
        assert (code, out) == (2, "")
        assert err == "error: no family given: use --family, or both --phi and --psi\n"

    def test_family_file_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["compute", "--family-file", "f.json", "--n", "1"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --family-file" in capsys.readouterr().err

    def test_omitted_catalog_parameter_is_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--family", "jacobi", "--alpha", "1",
                               "--max-n", "3", "--order", "4", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] and doc["params"] == {"alpha": "1", "beta": "0"}

    def test_foreign_parameter_rejected(self, capsys):
        code, out, err = run_cli(capsys, "compute", "--family", "hermite", "--alpha", "1",
                                 "--n", "1")
        assert (code, out) == (2, "")
        assert "does not take alpha" in err

    @pytest.mark.parametrize("command", [
        ("compute", "--n", "1", "--format", "json"),
        ("verify", "--max-n", "1", "--order", "2", "--format", "json"),
    ])
    def test_params_sorted_by_name(self, capsys, command):
        pair = ("--phi", "1 - x^2", "--psi", "beta - alpha*x", "--beta", "1", "--alpha", "4")
        code, out, _ = run_cli(capsys, *command[:1], *pair, *command[1:])
        assert code == 0
        assert list(json.loads(out)["params"].items()) == [("alpha", "4"), ("beta", "1")]
        code, out, _ = run_cli(capsys, *command[:1], *pair, *command[1:-2])
        assert code == 0
        assert out.splitlines()[0] == "family: custom  params: alpha=4 beta=1"


class TestFamilyFile:
    """A family kept in a file of its flag values is re-entered through the flags."""

    def test_round_trip(self, capsys, tmp_path):
        # the family and params of a saved compute document rebuild that document
        argv = ("--family", "laguerre", "--alpha", "1/2", "--n", "1", "--format", "json")
        code, out, _ = run_cli(capsys, "compute", *argv)
        assert code == 0
        path = tmp_path / "family.json"
        path.write_text(out)
        doc = json.loads(path.read_text())
        params = [arg for name, value in doc["params"].items() for arg in (f"--{name}", value)]
        code, again, _ = run_cli(capsys, "compute", "--family", doc["family"], *params,
                                 "--n", str(doc["n"]), "--format", "json")
        assert code == 0
        assert json.loads(again) == doc
        assert doc["rows"][1] == ["3/2", "-1"]

    @pytest.mark.parametrize("doc, field", [
        ({"family": "laguerre", "alpha": "nan"}, "alpha"),
        ({"family": "jacobi", "beta": "inf"}, "beta"),
        ({"phi": "1 - x^2", "psi": "beta - alpha*x", "alpha": "1/2.5"}, "alpha"),
        ({"phi": "1", "psi": "-2*x", "u0": "1/0"}, "u0"),
    ])
    def test_inexact_or_invalid_value_rejected(self, capsys, doc, field):
        argv = [f"--{name}={value}" for name, value in doc.items()]
        code, out, err = run_cli(capsys, "compute", *argv, "--n", "1")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: --{field} must be") and f"'{doc[field]}'" in err


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
        # row nu + 1 of n = 8 needs k = 14 - nu: the row rule refuses at once
        assert code == 2
        assert err == "error: admissibility fails: psi' + k*phi''/2 = 0 at k = 3\n"

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
        # the JSON report holds nested lists and the leading-coefficient note
        code, out, _ = run_cli(capsys, "verify", *argv, "--order", "4", "--format", "json")
        doc = json.loads(out)
        assert (code, doc["passed"]) == (0, True)
        assert doc["notes"]

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_admissibility_checked_through_every_moment_read(self, capsys, m):
        # psi' + k phi''/2 = k - K vanishes at k = K.  The rows of max_n = m keep their
        # degree for k < max(m + 2, 2m - 1), which verify checks first; past that, a
        # moment is checked where a suite reads it, and the functional suite reads u
        # through k = 4m + 1
        pair = ("verify", "--phi", "x^2", "--max-n", str(m), "--order", "4")
        rows = max(m + 2, 2 * m - 1)
        code, out, err = run_cli(capsys, *pair, f"--psi=1 - {rows - 1}*x")
        assert (code, out) == (2, "")
        assert err == f"error: admissibility fails: psi' + k*phi''/2 = 0 at k = {rows - 1}\n"
        for k, skipped in [(rows, ["functional", "oracle"]), (4 * m + 1, ["functional"]),
                           (4 * m + 2, [])]:
            for suite in ("recursion", "all"):
                code, out, _ = run_cli(capsys, *pair, f"--psi=1 - {k}*x", "--suite", suite)
                assert code == 0
                assert out.splitlines()[-1] == "overall: PASS"
                assert [line for line in out.splitlines() if "checks skipped: admiss" in line] == [
                    f"note: {name} checks skipped: admissibility fails: "
                    f"psi' + k*phi''/2 = 0 at k = {k}"
                    for name in (skipped if suite == "all" else [])]

    @pytest.mark.parametrize("flags, suites, checks", [
        (("--family", "bessel", "--alpha=-21"), None, [49, 39, 42, 28, 59]),
        (("--family", "jacobi", "--alpha=-6", "--beta=-6"), ("recursion",), [49]),
        (("--family", "jacobi", "--alpha=-6", "--beta=-6"), None, [49, 39, 0, 28, 59]),
    ], ids=["bessel-minus-21", "jacobi-minus-6-recursion", "jacobi-minus-6-all"])
    def test_library_and_cli_agree_on_admissibility(self, capsys, flags, suites, checks):
        # each pair is admissible for its rows, so the CLI builds it and both answer
        # the same report: a suite whose moments are undefined is skipped with a note
        code, out, _ = run_cli(capsys, "verify", *flags, "--max-n", "4", "--order", "4",
                               *(("--suite", suites[0]) if suites else ()), "--format", "json")
        doc = json.loads(out)
        params = [as_rational(flag.split("=")[1]) for flag in flags[2:]]
        report = copoly.verify.verify_pair(copoly.rodrigues.catalog_family(flags[1], *params),
                                           suites, max_n=4, order=4)
        assert (code, [s["checks"] for s in doc["suites"]], doc["notes"],
                doc["functional_proof"]) == (
            0 if report.passed else 1, [s.checks for s in report.suites], report.notes,
            report.functional_proof)
        assert (code, [s.checks for s in report.suites]) == (0, checks)
        undefined = ["functional checks skipped: admissibility fails: "
                     "psi' + k*phi''/2 = 0 at k = 10"] if checks[2:3] == [0] else []
        assert [note for note in report.notes if "skipped" in note] == undefined
        assert report.functional_proof is (None if undefined or suites else True)

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
        assert doc["functional_proof"] is None

    def test_json_report_key_order(self, capsys):
        # a custom pair: every suite runs, and genfun and oracle write notes
        code, out, _ = run_cli(capsys, "verify", "--phi", "3 - x + 2*x^2", "--psi", "1 + 5*x",
                               "--max-n", "4", "--order", "4", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["family", "params", "max_n", "series_order", "suites", "notes",
                             "functional_proof", "passed", "first_counterexample"]
        assert [list(suite) for suite in doc["suites"]] == [
            ["suite", "passed", "checks", "failures", "seconds"]] * 5
        assert doc["notes"] and doc["functional_proof"] is True

    @pytest.mark.parametrize("argv, proof", [
        (("--family", "jacobi", "--alpha", "1/3", "--beta", "4/3"), True),
        (("--phi", "3 - x + 2*x^2", "--psi", "1 + 5*x"), True),
        (("--family", "laguerre", "--alpha=-2"), False),
    ], ids=["jacobi", "custom", "laguerre-minus-2"])
    def test_json_report_says_whether_the_functional_checks_were_proofs(self, capsys, argv,
                                                                         proof):
        common = ("verify", *argv, "--max-n", "3", "--order", "4", "--suite", "functional")
        code, out, _ = run_cli(capsys, *common, "--format", "json")
        assert code == 0
        assert json.loads(out)["functional_proof"] is proof
        # the text report has no line for it
        code, out, _ = run_cli(capsys, *common)
        assert code == 0
        assert [line for line in out.splitlines() if "proof" in line] == []

    @pytest.mark.parametrize("count, hidden", [(5, []), (7, [
        "      ... 2 more not shown (--format json lists all)"])], ids=["five", "seven"])
    def test_text_report_counts_the_counterexamples_it_does_not_show(self, capsys, monkeypatch,
                                                                     count, hidden):
        from copoly.verify import SuiteResult, VerifyReport

        failures = [f"n={n}: mu(n, n) != lambda_n" for n in range(count)]
        fake = VerifyReport(family="hermite", params={}, max_n=count, series_order=4,
                            suites=[SuiteResult("ode", False, 2 * count, failures, 0.0)])
        monkeypatch.setattr("copoly.cli.verify_pair", lambda *a, **k: fake)
        code, out, _ = run_cli(capsys, "verify", "--family", "hermite")
        assert code == 1
        assert out.splitlines()[3:] == [
            *(f"      counterexample: {line}" for line in failures[:5]), *hidden, "overall: FAIL"]
        code, out, _ = run_cli(capsys, "verify", "--family", "hermite", "--format", "json")
        assert json.loads(out)["suites"][0]["failures"] == failures

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
        def broken(pair, report, result):
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

    def test_closed_stdout_exits_141_silently(self, capsys, monkeypatch):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = main(["compute", "--family", "hermite", "--n", "3", "--format", "json"])
        assert (code, capsys.readouterr().err) == (141, "")

    def test_closed_stderr_still_exits_two(self):
        """A refusal whose ``error:`` line cannot be written still exits 2, not 1."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "copoly", "compute", "--family", "hermite", "--n", "-1"],
                stdout=subprocess.PIPE, stderr=write_end, env=src_env(), timeout=60)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stdout) == (2, b"")

    def test_unwritable_stderr_still_exits_three(self, monkeypatch):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        def broken(pair, report, result):
            raise IndexError("injected")
        monkeypatch.setitem(copoly.verify._SUITES, "ode", broken)
        monkeypatch.setattr(sys, "stderr", ClosedPipe())
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["verify", "--family", "hermite", "--max-n", "2"])
        assert (code, out.getvalue()) == (3, "")

    @pytest.mark.parametrize("phi, message", [
        ("2²", "unexpected character '²' (at position 1)"),
        ("x^²", "unexpected character '²' (at position 2)"),
        ("9" * 5000 + "*x", "integer literal longer than 4300 digits (at position 0)"),
    ], ids=["superscript-digit", "superscript-exponent", "5000-digit-literal"])
    def test_bad_expression_exits_two(self, capsys, phi, message):
        code, out, err = run_cli(capsys, "compute", "--n", "1", "--phi", phi, "--psi", "1 - x")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="interpreter has no integer string limit")
    @pytest.mark.parametrize("argv", [
        ("--n", "1", "--phi", f"{'1' * 1000}/{'1' * 1000}*x", "--psi", "1-x"),
        ("--n", "400", "--family", "jacobi", "--alpha", "1/3", "--beta", "4/3"),
    ], ids=["long-literal", "long-row"])
    def test_lowered_integer_string_limit_exits_two(self, capsys, argv):
        # every cap assumes CPython's default limit of 4300 digits
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = run_cli(capsys, "compute", *argv)
        finally:
            sys.set_int_max_str_digits(previous)
        assert (code, out) == (2, "")
        assert err.startswith("error: the integer string limit is 640 digits")
        assert "PYTHONINTMAXSTRDIGITS" in err


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

    @pytest.mark.parametrize("order, truncated", [
        (0, [["1"]]),
        (1, [["1"], ["1", "-17/3"]]),
    ])
    def test_lowest_orders(self, capsys, order, truncated):
        code, out, _ = run_cli(capsys, "genfun", "--family", "jacobi", "--alpha", "1/3",
                               "--beta", "4/3", "--n", "2", "--order", str(order))
        assert code == 0
        assert json.loads(out) == {
            "family": "jacobi", "params": {"alpha": "1/3", "beta": "4/3"}, "n": 2,
            "order": order, "truncated": truncated, "closed_form": truncated,
            "difference": [[]] * (order + 1)}

    @pytest.mark.parametrize("argv, rows", [
        (("--family", "hermite", "--n", "2", "--order", "0"), ["y^{0} & 1 & 0 \\\\"]),
        (("--family", "bessel", "--alpha", "1/3", "--n", "3", "--order", "1"),
         ["y^{0} & 1 & 0 \\\\", "y^{1} & \\frac{19}{3} x + 2 & 0 \\\\"]),
    ], ids=["hermite-order-0", "bessel-order-1"])
    def test_lowest_orders_latex(self, capsys, argv, rows):
        code, out, _ = run_cli(capsys, "genfun", *argv, "--format", "latex")
        assert code == 0
        assert out.splitlines()[2:] == [*rows, "\\end{array}"]

    def test_custom_pair_rejected(self, capsys):
        # answered: a --phi/--psi pair's closed form is Phi^n G(0), with G(0) from
        # the rows, so its difference checks that factorization
        code, out, err = run_cli(
            capsys, "genfun", "--phi", "x", "--psi", "1 - x", "--n", "2"
        )
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["closed_form"] == doc["truncated"]
        assert doc["difference"] == [[]] * 9

    def test_legendre_as_custom_pair_matches_catalog(self, capsys):
        _, custom, _ = run_cli(capsys, "genfun", "--phi", "1 - x^2", "--psi=-2*x",
                               "--n", "5", "--order", "7")
        _, catalog, _ = run_cli(capsys, "genfun", "--family", "legendre", "--n", "5",
                                "--order", "7")
        assert json.loads(custom)["closed_form"] == json.loads(catalog)["closed_form"]

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
            capture_output=True, text=True, env=src_env(), timeout=120,
        )

    FIVE_PRIME = ("--phi", "127/113+109/107*x+103/101*x^2", "--psi", "97/89+83/79*x")

    # Each request runs every suite at the --max-n and --order caps. A complexity
    # regression in any suite runs past the timeout; a kernel slip that skipped a check
    # or hid a failure changes a count. Bessel's moment denominators gain a factor at
    # almost every step, and the five-prime pair has a prime denominator per coefficient.
    # A pair with no catalog weight skips the closed form (123 genfun checks, not 148)
    # with a note. laguerre(-2) is not quasi-definite: its oracle stops at the Hankel
    # determinant of order 2, and its functional residuals are read past proof depth.
    @pytest.mark.parametrize("argv, checks, proof, note", [
        (("--family", "jacobi", "--alpha", "1/3", "--beta", "4/3"),
         [999, 699, 932, 148, 699], True, None),
        (("--family", "bessel", "--alpha", "1/3"), [999, 699, 932, 148, 699], True, None),
        (FIVE_PRIME, [999, 699, 932, 123, 699], True, "no catalog weight for this pair"),
        (("--phi", "3 - x + 2*x^2", "--psi", "1 + 5*x"), [999, 699, 932, 123, 699], True,
         "no catalog weight for this pair"),
        (("--family", "laguerre", "--alpha=-2"), [999, 699, 932, 148, 0], False,
         "not quasi-definite (Hankel determinant of order 2 vanishes)"),
    ], ids=["jacobi", "bessel", "five-prime", "custom", "laguerre-minus-2"])
    def test_verify_at_the_caps_keeps_its_counts(self, argv, checks, proof, note):
        proc = self.run("verify", *argv, "--max-n", str(MAX_VERIFY_N), "--order", str(MAX_ORDER),
                        "--format", "json")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert list(doc) == ["family", "params", "max_n", "series_order", "suites", "notes",
                             "functional_proof", "passed", "first_counterexample"]
        assert [list(suite) for suite in doc["suites"]] == [
            ["suite", "passed", "checks", "failures", "seconds"]] * 5
        assert doc["passed"] is True and all(suite["passed"] for suite in doc["suites"]), doc
        assert [suite["checks"] for suite in doc["suites"]] == checks
        assert doc["functional_proof"] is proof
        if note is not None:
            assert any(note in line for line in doc["notes"]), doc["notes"]

    def test_custom_pair_genfun_at_the_caps_has_zero_difference(self):
        # outside the catalog the closed form is Phi^n G(0), with G(0) from the rows
        proc = self.run("genfun", *self.FIVE_PRIME, "--n", str(MAX_N), "--order", str(MAX_ORDER))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["difference"] == [[]] * (MAX_ORDER + 1)

    def test_verify_examples_exit_codes(self):
        first = self.run("verify", "--family", "hermite", "--max-n", "4", "--suite", "all")
        second = self.run("verify", "--family", "bessel", "--alpha", "-5", "--max-n", "8")
        third = self.run(
            "verify", "--family", "laguerre", "--alpha", "1/2",
            "--suite", "genfun", "--order", "10",
        )
        assert (first.returncode, second.returncode, third.returncode) == (0, 2, 0)
        assert "k = 3" in second.stderr

    @staticmethod
    def buffered_env() -> dict[str, str]:
        """``src_env()`` with stdout block-buffered, as an interpreter starts by default."""
        env = src_env()
        env.pop("PYTHONUNBUFFERED", None)
        return env

    def test_pipe_closed_after_100_bytes_exits_141_silently(self, tmp_path):
        # as `| head -c 100` does; 141 = 128 + SIGPIPE, what a shell reports
        # for a tool that SIGPIPE ends
        with open(tmp_path / "err", "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "copoly", "compute", "--family", "jacobi", "--alpha",
                 "1/3", "--beta", "4/3", "--n", "200", "--format", "json"],
                stdout=subprocess.PIPE, stderr=err, env=self.buffered_env())
            head = proc.stdout.read(100)
            proc.stdout.close()
            code = proc.wait(timeout=120)
        assert (code, len(head), (tmp_path / "err").read_bytes()) == (141, 100, b"")

    def test_output_held_in_the_buffer_meets_the_closed_pipe_in_main(self):
        # the whole of `families` fits in stdout's buffer, so the first write to
        # the pipe, whose reader is gone before the child starts, is a flush
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "copoly", "families"], stdout=write,
                                  stderr=subprocess.PIPE, env=self.buffered_env(), timeout=120)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (141, b"")

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

    def test_randomized_tables(self, capsys):
        rng = random.Random(20260823)
        for _ in range(30):
            pair = rng.choice(self.FAMILIES)()
            n = rng.randrange(0, 7)
            code, out, err = run_cli(capsys, "compute", *_family_flags(pair), "--n", str(n),
                                     "--format", "json")
            assert (code, err) == (0, "")
            doc = json.loads(out)
            rows = [Poly(r) for r in doc["rows"]]
            assert rows == [complementary(pair, n, nu) for nu in range(n + 1)]
            assert as_rational(doc["lambda"]) == lambda_n(pair, n)
            assert [as_rational(v) for v in doc["mu"][0]] == [
                mu_eigenvalue(pair, n, nu) for nu in range(n + 1)
            ]


def _printed_json(doc) -> str:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        _print_json(doc)
    return out.getvalue()


def _json_dump(doc) -> str:
    """What ``json.dump(doc, indent=2)`` and a newline write."""
    with io.StringIO() as out:
        json.dump(doc, out, indent=2)
        return out.getvalue() + "\n"


_JSON_LEAVES = st.one_of(st.text(max_size=8), st.integers(), st.floats(), st.booleans(),
                         st.none())
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.lists(children, max_size=4).map(tuple),
                               st.dictionaries(st.text(max_size=6), children, max_size=4)),
    max_leaves=24)


class TestJsonWriter:
    """``_print_json`` writes exactly the bytes of ``json.dump(doc, indent=2)``."""

    def test_compute_document_with_empty_params(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--family", "hermite", "--n", "4",
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["params"] == {}
        assert out == _json_dump(json.loads(out))

    def test_compute_document_with_fractions(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--family", "jacobi", "--alpha", "1/3",
                               "--beta", "4/3", "--n", "10", "--format", "json")
        assert code == 0
        assert out == _json_dump(json.loads(out))

    def test_genfun_document(self, capsys):
        code, out, _ = run_cli(capsys, "genfun", "--family", "laguerre", "--alpha", "1/2",
                               "--n", "3", "--order", "4")
        assert code == 0
        assert out == _json_dump(json.loads(out))

    def test_verify_report(self):
        pair = hermite_family()
        report = copoly.verify.verify_pair(pair, copoly.verify.SUITE_NAMES, 2, 4)
        doc = _report_to_dict(report)
        assert doc["params"] == {} and doc["first_counterexample"] is None
        assert isinstance(doc["suites"][0]["seconds"], float)
        assert doc["passed"] is True
        assert _printed_json(doc) == _json_dump(doc)

    def test_failed_report_keeps_tuples(self):
        from copoly.verify import SuiteResult, VerifyReport
        report = VerifyReport(
            family="hermite", params={"alpha": Fraction(-1, 2)}, max_n=2, series_order=4,
            suites=[SuiteResult("ode", False, 3, ("n=2 nu=1: residual", "n=2 nu=2"), 0.25),
                    SuiteResult("oracle", True, 0, (), 1e-7)],
            notes=())
        doc = _report_to_dict(report)
        assert doc["suites"][0]["failures"] == ("n=2 nu=1: residual", "n=2 nu=2")
        assert _printed_json(doc) == _json_dump(doc)

    def test_families_list(self, capsys):
        code, out, _ = run_cli(capsys, "families", "--format", "json")
        assert code == 0
        assert out == _json_dump(json.loads(out))

    @pytest.mark.parametrize("doc", [{}, [], (), [{}], {"a": []}, [[], [[]]], "x", 0, None,
                                     float("nan"), [1.5, -0.0, float("inf"), True, None],
                                     {"a": ["x\ny", {"k\n": "\n"}]}, {"\n": {}},
                                     {"x": 1, "y": [[]]}])
    def test_edges(self, doc):
        assert _printed_json(doc) == _json_dump(doc)

    @pytest.mark.parametrize("rows", [[], [[]], [["1"], [], ["-2/3", "0"]]])
    def test_text_rows_between_scalars(self, rows):
        doc = {"a": "x", "rows": _TextRows(iter(rows)), "n": 0}
        assert _printed_json(doc) == _json_dump({"a": "x", "rows": rows, "n": 0})

    @given(_JSON_TREES)
    def test_any_tree(self, doc):
        assert _printed_json(doc) == _json_dump(doc)


class _Discard(io.TextIOBase):
    """A stdout that keeps nothing."""

    def write(self, text):
        return len(text)


class _PipeClosedAfter(io.TextIOBase):
    """A stdout whose reader goes away once ``limit`` characters were written."""

    def __init__(self, limit):
        self.left = limit

    def write(self, text):
        self.left -= len(text)
        if self.left < 0:
            raise BrokenPipeError(32, "Broken pipe")
        return len(text)


class TestComputeStream:
    """``compute`` writes each row as it is built, in the bytes of the whole document."""

    PAIRS = [
        (("--family", "hermite"), hermite_family),
        (("--family", "laguerre", "--alpha", "1/2"), lambda: laguerre_family(Fraction(1, 2))),
        (("--family", "jacobi", "--alpha", "1/3", "--beta", "4/3"),
         lambda: jacobi_family(Fraction(1, 3), Fraction(4, 3))),
        (("--family", "bessel", "--alpha", "1/3"), lambda: bessel_family(Fraction(1, 3))),
        (("--phi", "3 - x + 2*x^2", "--psi", "1 + 5*x", "--u0", "2/3"),
         lambda: ClassicalPair(Poly([3, -1, 2]), Poly([1, 5]), Fraction(2, 3))),
    ]

    @pytest.mark.parametrize("flags, make", PAIRS, ids=["hermite", "laguerre", "jacobi",
                                                        "bessel", "custom"])
    def test_streamed_json_is_the_document(self, capsys, flags, make):
        # the expected document comes from the pair's row memo, which compute never reads
        pair = make()
        params = {key: str(value) for key, value in sorted(pair.params.items())}
        for n in range(13):
            rows = [poly_to_strings(row) for row in pair.rows(n, n)]
            mus = [str(mu_eigenvalue(pair, n, v)) for v in range(n + 1)]
            for nu in (None, *range(n + 1)):
                extra = () if nu is None else ("--nu", str(nu))
                code, out, err = run_cli(capsys, "compute", *flags, "--n", str(n), *extra,
                                         "--format", "json")
                assert (code, err) == (0, "")
                doc = json.loads(out)
                assert out == _json_dump(doc), (n, nu)
                picked = slice(None) if nu is None else slice(nu, nu + 1)
                assert list(doc.items()) == [
                    ("family", pair.name), ("params", params), ("n", n),
                    ("rows", rows[picked]), ("lambda", str(lambda_n(pair, n))),
                    ("mu", [mus[picked]])], (n, nu)

    @settings(max_examples=40)
    @given(kernel_pairs(), st.integers(0, 20), st.data())
    def test_rows_match_a_fresh_memo(self, pair, n, data):
        # each row one _comp_rows step from the row before; the stream fills no memo
        expected = ClassicalPair(pair.phi, pair.psi).rows(n, n)
        assert list(copoly.cli._compute_rows(pair, n, None)) == list(enumerate(expected))
        nu = data.draw(st.integers(0, n))
        assert list(copoly.cli._compute_rows(pair, n, nu)) == [(nu, expected[nu])]
        assert pair._rows == {}

    def test_one_kernel_call_per_row(self, monkeypatch):
        # the table at n: n + 1 calls of one row each (TestComputeJson counts --nu)
        original, built = copoly.cli._comp_rows, []

        def counted(*args):
            rows = original(*args)
            built.append(len(rows))
            return rows
        monkeypatch.setattr(copoly.cli, "_comp_rows", counted)
        pair = jacobi_family(Fraction(1, 3), Fraction(4, 3))
        assert len(list(copoly.cli._compute_rows(pair, 17, None))) == 18
        assert built == [1] * 18

    @settings(max_examples=200)
    @given(st.lists(mixed_rationals(), max_size=8))
    def test_coefficient_texts_need_no_escaping(self, coeffs):
        # the joined row writer quotes a row with one join on this grammar
        for text in copoly.poly._coefficient_texts(Poly(coeffs)):
            assert re.fullmatch(r"-?[0-9]+(/[0-9]+)?", text)

    @pytest.mark.parametrize("fmt", ["json", "text", "latex"])
    def test_compute_reads_no_row_memo(self, capsys, monkeypatch, fmt):
        def memo(*args):
            raise AssertionError("compute filled the row memo")
        monkeypatch.setattr(ClassicalPair, "rows", memo)
        code, out, _ = run_cli(capsys, "compute", "--family", "laguerre", "--alpha", "1/3",
                               "--n", "20", "--format", fmt)
        assert code == 0 and out

    @pytest.mark.parametrize("fmt", ["json", "text", "latex"])
    def test_peak_memory_holds_about_one_row(self, monkeypatch, fmt):
        # whole-document builds peaked at 4.4-13.4 MiB here; one row at n = 200 is 0.06 MiB
        monkeypatch.setattr(sys, "stdout", _Discard())
        tracemalloc.start()
        try:
            code = main(["compute", "--family", "jacobi", "--alpha", "1/3", "--beta", "4/3",
                         "--n", "200", "--format", fmt])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 2 * 2 ** 20, f"{peak / 2 ** 20:.2f} MiB"

    @pytest.mark.parametrize("fmt", ["json", "text", "latex"])
    @pytest.mark.parametrize("argv", [
        ("--phi", "x^2", "--psi=-x", "--n", "4"),
        ("--family", "hermite", "--n", "3", "--nu", "4"),
        ("--phi", "x", "--psi", f"1 - {2 ** MAX_COEFF_BITS}*x", "--n", "400"),
    ], ids=["inadmissible", "nu-above-n", "coefficient-over-cap"])
    def test_refusal_prints_nothing(self, capsys, argv, fmt):
        code, out, err = run_cli(capsys, "compute", *argv, "--format", fmt)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    @pytest.mark.parametrize("fmt", ["json", "text", "latex"])
    def test_lowered_integer_string_limit_prints_nothing(self, fmt):
        env = dict(src_env(), PYTHONINTMAXSTRDIGITS="640")
        proc = subprocess.run(
            [sys.executable, "-m", "copoly", "compute", "--family", "jacobi", "--alpha", "1/3",
             "--beta", "4/3", "--n", "400", "--format", fmt],
            capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: the integer string limit is 640 digits")

    @pytest.mark.parametrize("fmt", ["json", "text", "latex"])
    def test_pipe_closed_mid_table_exits_141_silently(self, capsys, monkeypatch, fmt):
        sink = _PipeClosedAfter(4096)
        monkeypatch.setattr(sys, "stdout", sink)
        code = main(["compute", "--family", "jacobi", "--alpha", "1/3", "--beta", "4/3",
                     "--n", "60", "--format", fmt])
        assert (code, capsys.readouterr().err) == (141, "")
        assert sink.left < 0
