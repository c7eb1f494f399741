"""Serialization of exact values: JSON-friendly strings, plain text, LaTeX.

Rationals always travel as ``"p/q"`` (or ``"n"`` for integers) so that JSON
never holds a float.  Text output lists polynomial terms by ascending
degree and re-parses through :func:`copoly.parsing.parse_poly_expr`; LaTeX
uses the human convention of descending degree.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import Poly
from .series import SeriesYX


def poly_to_strings(p: Poly) -> list[str]:
    """Ascending coefficient list as exact strings; the zero poly is ``[]``."""
    return [str(c) for c in p.coeffs]


def series_to_strings(s: SeriesYX) -> list[list[str]]:
    """One ascending coefficient list per power of ``y``."""
    return [poly_to_strings(c) for c in s.coeffs]


def poly_text(p: Poly) -> str:
    """Ascending-degree plain text, e.g. ``-2 + 4*x^2``."""
    return str(p)


def rational_latex(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    sign = "-" if value < 0 else ""
    return f"{sign}\\frac{{{abs(value.numerator)}}}{{{value.denominator}}}"


def _latex_magnitude(value: Fraction) -> str:
    if value.denominator == 1:
        return str(abs(value.numerator))
    return f"\\frac{{{abs(value.numerator)}}}{{{value.denominator}}}"


def poly_latex(p: Poly) -> str:
    """Descending-degree LaTeX, e.g. ``4 x^{2} - 2``."""
    if p.is_zero:
        return "0"
    parts: list[str] = []
    for i in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[i]
        if c == 0:
            continue
        if i == 0:
            body = _latex_magnitude(c)
        else:
            xs = "x" if i == 1 else f"x^{{{i}}}"
            body = xs if abs(c) == 1 else f"{_latex_magnitude(c)} {xs}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(parts)
