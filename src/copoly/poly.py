"""Dense univariate polynomials over the rationals.

The scalar field everywhere in this package is ``fractions.Fraction``:
arbitrary precision, always reduced, positive denominator.  ``Poly`` stores
coefficients densely by ascending power of ``x`` with no trailing zeros, so
two polynomials are equal exactly when their coefficient tuples are equal.
The zero polynomial is the empty tuple and reports degree ``-inf``, keeping
degree bookkeeping honest without a fake ``-1``.

Floats are rejected everywhere: there is no rounding anywhere in this
package, and accepting a float would silently launder binary approximation
into "exact" arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Sequence, Union

Scalar = Union[int, Fraction]

NEG_INF = -math.inf


def as_rational(value: int | str | Fraction) -> Fraction:
    """Coerce to an exact ``Fraction``; accepts ints and ``"p/q"`` text."""
    if type(value) is Fraction:
        return value
    if isinstance(value, (float, bool)):
        raise TypeError(f"refusing {value!r}; pass int, Fraction or 'p/q' text")
    return Fraction(value)


class Poly:
    """Immutable polynomial in ``x`` with exact rational coefficients.

    Every operation returns a new canonical ``Poly`` (no trailing zero
    coefficients).  Arithmetic mixes freely with ``int`` and ``Fraction``
    scalars, which are treated as constant polynomials.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int | str | Fraction] = ()):
        cs = [as_rational(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @classmethod
    def _of(cls, cs: list[Fraction]) -> Poly:
        """Wrap reduced ``Fraction``s without coercing them; internal results only."""
        while cs and not cs[-1]:
            cs.pop()
        p = object.__new__(cls)
        p._coeffs = tuple(cs)
        return p

    @classmethod
    def zero(cls) -> Poly:
        return cls()

    @classmethod
    def one(cls) -> Poly:
        return cls((1,))

    @classmethod
    def x(cls) -> Poly:
        return cls((0, 1))

    @classmethod
    def constant(cls, value: int | str | Fraction) -> Poly:
        return cls((as_rational(value),))

    @classmethod
    def monomial(cls, power: int, coeff: int | str | Fraction = 1) -> Poly:
        if power < 0:
            raise ValueError("monomial power must be >= 0")
        return cls((0,) * power + (as_rational(coeff),))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> int | float:
        """Degree of the polynomial; ``-inf`` for the zero polynomial."""
        return len(self._coeffs) - 1 if self._coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def leading_coefficient(self) -> Fraction:
        if not self._coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self._coeffs[-1]

    def coefficient(self, power: int) -> Fraction:
        """Coefficient of ``x**power``; zero beyond the degree."""
        if power < 0:
            raise IndexError("coefficient power must be >= 0")
        if power >= len(self._coeffs):
            return Fraction(0)
        return self._coeffs[power]

    def derivative(self, order: int = 1) -> Poly:
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        cs = list(self._coeffs)
        for _ in range(order):
            cs = [i * c for i, c in enumerate(cs) if i > 0]
        return Poly._of(cs)

    def monic(self) -> Poly:
        return self / self.leading_coefficient

    def __call__(self, point: int | str | Fraction) -> Fraction:
        value = as_rational(point)
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * value + c
        return acc

    def _coerce(self, other) -> Poly | None:
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return Poly.constant(other)
        return None

    def __add__(self, other) -> Poly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        a, b = self._coeffs, rhs._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly._of(out)

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly._of([-c for c in self._coeffs])

    def __sub__(self, other) -> Poly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other) -> Poly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other) -> Poly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        a, b = self._coeffs, rhs._coeffs
        if not a or not b:
            return Poly._of([])
        # Integer numerators over one common denominator per operand: one gcd
        # per output coefficient instead of a Fraction multiply and add per term.
        da, (ia,) = _integer_form((a,))
        db, (ib,) = _integer_form((b,))
        d = da * db
        return Poly._of([Fraction(v, d) for v in _convolve([], ia, ib)])

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> Poly:
        c = as_rational(scalar)
        if c == 0:
            raise ZeroDivisionError("division of a polynomial by zero")
        return self * (Fraction(1) / c)

    def __pow__(self, power: int) -> Poly:
        if not isinstance(power, int) or power < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        out = Poly.one()
        for _ in range(power):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._coeffs == rhs._coeffs

    def __hash__(self) -> int:
        # Constants hash like their scalar value so Poly([3]) == 3 stays
        # consistent with the hash contract.
        if len(self._coeffs) <= 1:
            return hash(self._coeffs[0] if self._coeffs else Fraction(0))
        return hash(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __repr__(self) -> str:
        return f"Poly({list(self._coeffs)!r})"

    def __str__(self) -> str:
        # Ascending powers; the output re-parses through parse_poly_expr.
        return _signed_sum(self, range(len(self._coeffs)), _text_term)


def _text_term(power: int, magnitude: Fraction) -> str:
    if power == 0:
        return str(magnitude)
    xs = "x" if power == 1 else f"x^{power}"
    return xs if magnitude == 1 else f"{magnitude}*{xs}"


def _signed_sum(p: Poly, powers: Iterable[int], body: Callable[[int, Fraction], str]) -> str:
    """The nonzero terms of ``p`` at ``powers``, in that order, joined by their signs;
    ``body(power, magnitude)`` writes a term without its sign.  Zero is ``"0"``."""
    parts: list[str] = []
    for power in powers:
        c = p._coeffs[power]
        if c == 0:
            continue
        if parts:
            parts.append(" - " if c < 0 else " + ")
        elif c < 0:
            parts.append("-")
        parts.append(body(power, abs(c)))
    return "".join(parts) or "0"


# The exact kernels (Poly and SeriesYX products, the Rodrigues rows, moment
# blocks, Hankel minors and the Gram matrix) carry rational vectors as integer
# numerators over one denominator through the three helpers below.

def _integer_form(rows: Sequence[Sequence[Fraction]]) -> tuple[int, list[list[int]]]:
    """``(d, nums)``: ``d`` is the least common denominator of every value in
    ``rows`` (1 when there is none) and ``nums[i][j] / d == rows[i][j]``."""
    d = math.lcm(*[c.denominator for row in rows for c in row])
    return d, [[c.numerator * (d // c.denominator) for c in row] for row in rows]


def _convolve(acc: list[int], a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Add the coefficients of ``a * b`` into ``acc``, lengthened as needed; returns ``acc``."""
    if a and b:
        acc += [0] * (len(a) + len(b) - 1 - len(acc))
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b, i):
                    acc[j] += ca * cb
    return acc


def _reduced(den: int, nums: list[int]) -> tuple[int, list[int]]:
    """``den`` and ``nums`` divided by ``gcd(den, *nums)``; the sign of ``den`` is kept."""
    g = math.gcd(den, *nums)
    if g == 1:
        return den, nums
    return den // g, [v // g for v in nums]


def as_poly(value: Poly | int | str | Fraction) -> Poly:
    """Coerce scalars to constant polynomials; pass ``Poly`` through."""
    if isinstance(value, Poly):
        return value
    return Poly.constant(value)
