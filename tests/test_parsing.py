"""Expression parser for polynomial input."""

from __future__ import annotations

import json
import shlex
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given

from conftest import small_polys
from copoly import ExprSyntaxError, InvalidParameter, Poly, parse_poly_expr
from copoly.parsing import MAX_CONSTANT_BITS, MAX_DEGREE, MAX_NESTING


class TestBasics:
    def test_zero(self):
        assert parse_poly_expr("0") == Poly.zero()

    def test_quadratic(self):
        assert parse_poly_expr("1 - x^2") == Poly([1, 0, -1])

    def test_reordered_terms(self):
        assert parse_poly_expr("-2*x + 3/2") == Poly([Fraction(3, 2), -2])

    def test_bare_x(self):
        assert parse_poly_expr("x") == Poly.x()

    def test_integer(self):
        assert parse_poly_expr("42") == Poly([42])

    def test_whitespace_insensitive(self):
        assert parse_poly_expr("  1+ x ") == parse_poly_expr("1 + x")

    def test_rational_coefficient(self):
        assert parse_poly_expr("3/2*x") == Poly([0, Fraction(3, 2)])

    def test_parentheses_and_products(self):
        assert parse_poly_expr("(1 + x) * (1 - x)") == Poly([1, 0, -1])

    def test_power_of_parenthesized(self):
        assert parse_poly_expr("(1 + x)^3") == Poly([1, 3, 3, 1])

    def test_power_zero(self):
        assert parse_poly_expr("x^0") == Poly.one()

    def test_double_star_power_spelling(self):
        assert parse_poly_expr("x**2 - 1") == Poly([-1, 0, 1])
        assert parse_poly_expr("(1 + x)**3") == parse_poly_expr("(1 + x)^3")

    def test_nested_unary(self):
        assert parse_poly_expr("--x") == Poly.x()
        assert parse_poly_expr("-(-x + 1)") == Poly([-1, 1])

    def test_division_by_constant_expression(self):
        assert parse_poly_expr("x / (1 + 1)") == Poly([0, Fraction(1, 2)])


class TestParams:
    def test_family_pattern(self):
        p = parse_poly_expr(
            "(beta - alpha) - (alpha + beta + 2)*x",
            params={"alpha": Fraction(1, 3), "beta": 2},
        )
        assert p == Poly([Fraction(5, 3), Fraction(-13, 3)])

    def test_string_parameter_values(self):
        p = parse_poly_expr("alpha*x", params={"alpha": "1/2"})
        assert p == Poly([0, Fraction(1, 2)])

    def test_unknown_identifier(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_poly_expr("1 + gamma*x")
        assert str(exc.value) == "unknown identifier 'gamma' (at position 4)"
        assert exc.value.position == 4
        assert isinstance(exc.value, InvalidParameter)

    def test_float_parameter_rejected(self):
        with pytest.raises(TypeError):
            parse_poly_expr("alpha", params={"alpha": 0.5})


class TestErrors:
    def test_empty(self):
        with pytest.raises(ExprSyntaxError):
            parse_poly_expr("")

    def test_bad_character_position(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_poly_expr("1 @ 2")
        assert exc.value.position == 2
        assert "position 2" in str(exc.value)

    def test_dangling_operator(self):
        with pytest.raises(ExprSyntaxError):
            parse_poly_expr("1 +")

    def test_misplaced_operator(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_poly_expr("1 + * x")
        assert exc.value.position == 4

    def test_unclosed_paren(self):
        with pytest.raises(ExprSyntaxError):
            parse_poly_expr("(1 + x")

    def test_trailing_tokens(self):
        with pytest.raises(ExprSyntaxError):
            parse_poly_expr("1 2")

    def test_nonconstant_divisor(self):
        with pytest.raises(ExprSyntaxError):
            parse_poly_expr("1 / x")

    def test_division_by_zero(self):
        with pytest.raises(ExprSyntaxError):
            parse_poly_expr("x / 0")

    def test_negative_exponent(self):
        with pytest.raises(ExprSyntaxError):
            parse_poly_expr("x^-1")

    def test_non_integer_exponent(self):
        with pytest.raises(ExprSyntaxError):
            parse_poly_expr("x^(2)")

    def test_float_literal_rejected(self):
        # '.' is not part of the grammar
        with pytest.raises(ExprSyntaxError):
            parse_poly_expr("0.5")

    def test_moderate_nesting_parses(self):
        assert parse_poly_expr("(" * 50 + "x" + ")" * 50) == Poly.x()
        assert parse_poly_expr("-" * 50 + "x") == Poly.x()
        assert parse_poly_expr("-(" * 25 + "x" + ")" * 25) == Poly([0, -1])
        assert parse_poly_expr("(" * MAX_NESTING + "1" + ")" * MAX_NESTING) == Poly.one()

    @pytest.mark.parametrize("text, position", [
        ("(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1), MAX_NESTING),
        ("-" * (MAX_NESTING + 1) + "x", MAX_NESTING),
        ("-(" * 51 + "x" + ")" * 51, 2 * 50),
    ], ids=["parentheses", "signs", "mixed"])
    def test_deep_nesting_rejected_at_offending_token(self, text, position):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_poly_expr(text)
        assert exc.value.position == position
        assert f"deeper than {MAX_NESTING}" in str(exc.value)


class TestDegreeCap:
    def test_degree_at_the_cap_parses(self):
        assert parse_poly_expr(f"x^{MAX_DEGREE}") == Poly.monomial(MAX_DEGREE)
        assert parse_poly_expr("x^50 * x^50 - x^0100") == Poly.zero()

    @pytest.mark.parametrize("text, position, message", [
        ("(x+1)^3000 - (x+1)^3000 + 1", 6, f"exponent exceeds {MAX_DEGREE}"),
        ("((x^100)^100)^100", 8, f"power would have degree 10000, above the cap {MAX_DEGREE}"),
        ("x^50 * x^51", 5, f"product would have degree 101, above the cap {MAX_DEGREE}"),
        ("2^" + "9" * 5000, 2, f"exponent exceeds {MAX_DEGREE}"),
    ], ids=["exponent", "nested-powers", "product", "long-exponent"])
    def test_refused_before_expanding(self, monkeypatch, text, position, message):
        degrees = []
        product = Poly.__mul__

        def recorded(a, b):
            result = product(a, b)
            degrees.append(result.degree)
            return result
        monkeypatch.setattr(Poly, "__mul__", recorded)
        with pytest.raises(ExprSyntaxError) as exc:
            parse_poly_expr(text)
        assert exc.value.position == position
        assert str(exc.value) == f"{message} (at position {position})"
        assert max(degrees, default=0) <= MAX_DEGREE


def _coeff_bits(p: Poly) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length()) for c in p.coeffs),
               default=0)


class TestConstantCap:
    def test_below_the_cap_parses(self):
        assert parse_poly_expr("2^100*x") == Poly.monomial(1, 2 ** 100)
        assert _coeff_bits(parse_poly_expr("(2^99)^100")) == 9901
        assert MAX_CONSTANT_BITS == 10_000

    @pytest.mark.parametrize("text, position, bits", [
        ("(((2^100)^100)^100)^10*x", 9, 10100),
        ("(x/2^100)^100", 9, 10100),
        ("((2^60)^90+x)^2", 13, 10802),
    ], ids=["nested-powers", "denominator", "polynomial-base"])
    def test_refused_before_expanding(self, monkeypatch, text, position, bits):
        built = []
        product = Poly.__mul__

        def recorded(a, b):
            result = product(a, b)
            built.append(_coeff_bits(result))
            return result
        monkeypatch.setattr(Poly, "__mul__", recorded)
        with pytest.raises(ExprSyntaxError) as exc:
            parse_poly_expr(text)
        assert exc.value.position == position
        assert str(exc.value) == (f"power would need {bits}-bit coefficients, above the cap "
                                  f"{MAX_CONSTANT_BITS} (at position {position})")
        assert max(built, default=0) <= MAX_CONSTANT_BITS

    def test_benchmark_expressions_parse(self):
        digests = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"
        parsed = 0
        for key in json.loads(digests.read_text(encoding="utf-8")):
            argv = shlex.split(key)
            params = {flag[2:]: argv[argv.index(flag) + 1]
                      for flag in ("--alpha", "--beta") if flag in argv}
            for flag in ("--phi", "--psi"):
                if flag in argv:
                    parse_poly_expr(argv[argv.index(flag) + 1], params)
                    parsed += 1
        assert parsed > 0


class TestRoundTrip:
    @given(small_polys())
    def test_str_reparses_to_same_poly(self, p):
        assert parse_poly_expr(str(p)) == p

    def test_negative_leading_output(self):
        text = str(Poly([-2, 0, 4]))
        assert parse_poly_expr(text) == Poly([-2, 0, 4])
