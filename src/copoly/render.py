"""Serialization of exact values: JSON-friendly strings, plain text, LaTeX.

Rationals always travel as ``"p/q"`` (or ``"n"`` for integers) so that JSON
never holds a float.  Text output lists polynomial terms by ascending
degree and re-parses through :func:`copoly.parsing.parse_poly_expr`; LaTeX
uses the human convention of descending degree.  Both join their terms
through the one signed-term writer, ``poly._signed_sum``.  Every coefficient
is written from the integer form a ``Poly`` holds, reduced by one gcd; no
``Fraction`` is built on the way.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import Poly, _coefficient_texts, _signed_sum
from .series import SeriesYX


def poly_to_strings(p: Poly) -> list[str]:
    """Ascending coefficient list as exact strings; the zero poly is ``[]``."""
    return _coefficient_texts(p)


def series_to_strings(s: SeriesYX) -> list[list[str]]:
    """One ascending coefficient list per power of ``y``."""
    return [poly_to_strings(c) for c in s.coeffs]


def poly_text(p: Poly) -> str:
    """Ascending-degree plain text, e.g. ``-2 + 4*x^2``."""
    return str(p)


def rational_latex(value: Fraction) -> str:
    sign = "-" if value < 0 else ""
    return sign + _latex_magnitude(abs(value.numerator), value.denominator)


def _latex_magnitude(num: int, den: int) -> str:
    if den == 1:
        return str(num)
    return f"\\frac{{{num}}}{{{den}}}"


def _latex_term(power: int, num: int, den: int) -> str:
    if power == 0:
        return _latex_magnitude(num, den)
    xs = "x" if power == 1 else f"x^{{{power}}}"
    return xs if num == den == 1 else f"{_latex_magnitude(num, den)} {xs}"


def poly_latex(p: Poly) -> str:
    """Descending-degree LaTeX, e.g. ``4 x^{2} - 2``."""
    return _signed_sum(p, _latex_term, descending=True)
