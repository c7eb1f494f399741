"""Text, JSON-string and LaTeX rendering of exact values."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from conftest import rationals, small_polys
from copoly import Poly, SeriesYX, as_rational
from copoly.render import (
    poly_latex,
    poly_text,
    poly_to_strings,
    rational_latex,
    series_to_strings,
)


class TestRationalStrings:
    def test_fraction(self):
        assert poly_to_strings(Poly([Fraction(3, 2)])) == ["3/2"]

    def test_integer_has_no_denominator(self):
        assert poly_to_strings(Poly([Fraction(-4)])) == ["-4"]

    def test_from_str(self):
        assert as_rational("3/2") == Fraction(3, 2)
        assert as_rational("-7") == -7

    @given(rationals(50, 20))
    def test_round_trip(self, q):
        assert as_rational(str(q)) == q


class TestPolyStrings:
    def test_ascending_coefficients(self):
        assert poly_to_strings(Poly([-2, 0, 4])) == ["-2", "0", "4"]

    def test_zero_is_empty(self):
        assert poly_to_strings(Poly.zero()) == []

    def test_from_strings(self):
        assert Poly(["-2", "0", "4"]) == Poly([-2, 0, 4])
        assert Poly([]) == Poly.zero()

    @given(small_polys())
    def test_round_trip(self, p):
        assert Poly(poly_to_strings(p)) == p

    def test_series(self):
        s = SeriesYX(1, [Poly.one(), Poly([0, -2])])
        assert series_to_strings(s) == [["1"], ["0", "-2"]]

    def test_text_matches_str(self):
        p = Poly([Fraction(3, 2), -2])
        assert poly_text(p) == str(p) == "3/2 - 2*x"


class TestLatex:
    def test_rational(self):
        assert rational_latex(Fraction(-3, 2)) == r"-\frac{3}{2}"
        assert rational_latex(Fraction(5)) == "5"

    def test_poly_descending(self):
        assert poly_latex(Poly([-2, 0, 4])) == "4 x^{2} - 2"

    def test_bare_x(self):
        assert poly_latex(Poly([0, 1])) == "x"

    def test_fractional_coefficients(self):
        p = Poly([Fraction(5, 3), Fraction(-13, 3)])
        assert poly_latex(p) == r"-\frac{13}{3} x + \frac{5}{3}"

    def test_zero(self):
        assert poly_latex(Poly.zero()) == "0"


# (coefficients ascending, str(p), poly_latex(p)): the sign, skip and order
# rules of the shared term writer on every edge it has.
_TERM_TABLE = [
    ([], "0", "0"),
    ([0, 0, 0], "0", "0"),
    ([1], "1", "1"),
    ([-1], "-1", "-1"),
    ([0, 1], "x", "x"),
    ([0, -1], "-x", "-x"),
    ([0, 0, 1], "x^2", "x^{2}"),
    ([0, 0, -1], "-x^2", "-x^{2}"),
    ([Fraction(1, 2)], "1/2", r"\frac{1}{2}"),
    ([Fraction(-1, 2)], "-1/2", r"-\frac{1}{2}"),
    ([0, Fraction(1, 2)], "1/2*x", r"\frac{1}{2} x"),
    ([0, Fraction(-1, 2)], "-1/2*x", r"-\frac{1}{2} x"),
    ([0, 0, 0, Fraction(1, 2)], "1/2*x^3", r"\frac{1}{2} x^{3}"),
    ([0, 0, 0, Fraction(-1, 2)], "-1/2*x^3", r"-\frac{1}{2} x^{3}"),
    ([-3, 0, 0, 1], "-3 + x^3", "x^{3} - 3"),
    ([1, 0, -1], "1 - x^2", "-x^{2} + 1"),
    ([0, -1, 0, 1], "-x + x^3", "x^{3} - x"),
    ([Fraction(-1, 2), 0, Fraction(3, 2), -1], "-1/2 + 3/2*x^2 - x^3",
     r"-x^{3} + \frac{3}{2} x^{2} - \frac{1}{2}"),
    ([Fraction(1, 2), -1, 1, Fraction(-1, 2)], "1/2 - x + x^2 - 1/2*x^3",
     r"-\frac{1}{2} x^{3} + x^{2} - x + \frac{1}{2}"),
    ([-7, 0, Fraction(-5, 3)], "-7 - 5/3*x^2", r"-\frac{5}{3} x^{2} - 7"),
]


@pytest.mark.parametrize("coeffs, text, latex", _TERM_TABLE,
                         ids=[t for _, t, _ in _TERM_TABLE])
def test_term_writer_table(coeffs, text, latex):
    p = Poly(coeffs)
    assert str(p) == text
    assert poly_latex(p) == latex


# Coefficients on every branch of the integer-form writer: zero, unit
# magnitudes (``x``, not ``1*x``), small and many-digit integers, and fractions
# whose denominator is or is not the polynomial's common one.
_COEFFS = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    rationals(),
    st.builds(Fraction, st.integers(-10**40, 10**40)),
    st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**20)),
)


@given(st.lists(_COEFFS, max_size=8).map(Poly))
@example(Poly.zero())
@example(Poly([0, 1]))
@example(Poly([0, 0, -1]))
@example(Poly([Fraction(1, 2), 0, 1]))
@example(Poly([2, Fraction(-3, 4), 1]))
def test_renderers_match_the_fraction_reference(p):
    assert str(p) == poly_text(p) == oracles.poly_text_fraction(p)
    assert poly_latex(p) == oracles.poly_latex_fraction(p)
    assert poly_to_strings(p) == oracles.poly_strings_fraction(p)
