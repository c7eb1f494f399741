"""Dense univariate polynomials over the rationals.

The scalar field everywhere in this package is ``fractions.Fraction``:
arbitrary precision, always reduced, positive denominator.  ``Poly`` stores
integer numerators ``_nums`` by ascending power of ``x``, with no trailing
zero, over one denominator ``_den > 0`` with ``gcd(_den, *_nums) == 1``.
That form is canonical, so equality is a tuple comparison and the kernels
compute on it directly; ``coeffs`` builds reduced ``Fraction``s on each read.
The zero polynomial is ``(1, ())`` and reports degree ``-inf``.

Floats are rejected everywhere: there is no rounding anywhere in this
package, and accepting a float would silently launder binary approximation
into "exact" arithmetic.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import InvalidParameter

NEG_INF = -math.inf

# numeric text: an optional "-", ASCII digits and an optional "/" with more digits,
# no digit run longer than MAX_LITERAL_DIGITS (CPython's default int() string limit)
MAX_LITERAL_DIGITS = 4300
_RATIONAL_TEXT = re.compile(r"(-?)([0-9]+)(?:/([0-9]+))?")


def as_rational(value: int | str | Fraction) -> Fraction:
    """Coerce to an exact ``Fraction``; the one reader of numeric text.  Text is an
    integer or ``p/q`` (``-3``, ``007/014``); ``p/0`` and every other spelling (``1.5``,
    ``+2``, ``1e3``, ``1_0``, non-ASCII digits, spaces) raise ``InvalidParameter``."""
    if type(value) is Fraction:
        return value
    if isinstance(value, (float, bool)):
        raise TypeError(f"refusing {value!r}; pass int, Fraction or 'p/q' text")
    if not isinstance(value, str):
        return Fraction(value)
    match = _RATIONAL_TEXT.fullmatch(value)
    if match is not None:
        sign, num, den = match.groups("1")
        if max(len(num), len(den)) <= MAX_LITERAL_DIGITS and int(den) != 0:
            return Fraction(int(sign + num), int(den))
    raise InvalidParameter(f"not an integer or rational text such as '3/2': {value!r}")


class Poly:
    """Immutable polynomial in ``x`` with exact rational coefficients.

    Every operation returns a new canonical ``Poly`` through ``_of``.
    Arithmetic mixes freely with ``int`` and ``Fraction`` scalars, which are
    treated as constant polynomials.
    """

    __slots__ = ("_den", "_nums")

    def __init__(self, coeffs: Iterable[int | str | Fraction] = ()):
        den, nums = _integer_form([as_rational(c) for c in coeffs])
        canonical = Poly._of(den, nums)
        self._den, self._nums = canonical._den, canonical._nums

    @classmethod
    def _of(cls, den: int, nums: list[int]) -> Poly:
        """``nums / den`` for ``den > 0``, stripped and reduced; ``nums`` may be
        stripped in place.  Every constructor and kernel returns through here."""
        while nums and not nums[-1]:
            nums.pop()
        p = object.__new__(cls)
        p._den, nums = _reduced(den, nums)
        p._nums = tuple(nums)
        return p

    @classmethod
    def zero(cls) -> Poly:
        return cls._of(1, [])

    @classmethod
    def one(cls) -> Poly:
        return cls._of(1, [1])

    @classmethod
    def x(cls) -> Poly:
        return cls._of(1, [0, 1])

    @classmethod
    def constant(cls, value: int | str | Fraction) -> Poly:
        c = as_rational(value)
        return cls._of(c.denominator, [c.numerator])

    @classmethod
    def monomial(cls, power: int, coeff: int | str | Fraction = 1) -> Poly:
        if power < 0:
            raise ValueError("monomial power must be >= 0")
        c = as_rational(coeff)
        return cls._of(c.denominator, [0] * power + [c.numerator])

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple([Fraction(v, self._den) for v in self._nums])

    @property
    def degree(self) -> int | float:
        """Degree of the polynomial; ``-inf`` for the zero polynomial."""
        return len(self._nums) - 1 if self._nums else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self._nums

    @property
    def leading_coefficient(self) -> Fraction:
        if not self._nums:
            raise ValueError("the zero polynomial has no leading coefficient")
        return Fraction(self._nums[-1], self._den)

    def coefficient(self, power: int) -> Fraction:
        """Coefficient of ``x**power``; zero beyond the degree."""
        if power < 0:
            raise IndexError("coefficient power must be >= 0")
        return Fraction(self._nums[power] if power < len(self._nums) else 0, self._den)

    def derivative(self, order: int = 1) -> Poly:
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        nums = list(self._nums)
        for _ in range(order):
            nums = [i * c for i, c in enumerate(nums)][1:]
        return Poly._of(self._den, nums)

    def monic(self) -> Poly:
        return self / self.leading_coefficient

    def __call__(self, point: int | str | Fraction) -> Fraction:
        value = as_rational(point)
        acc = Fraction(0)
        for c in reversed(self._nums):
            acc = acc * value + c
        return acc / self._den

    def _coerce(self, other) -> Poly | None:
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return Poly._of(other.denominator, [other.numerator])
        return None

    def __add__(self, other) -> Poly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        den, (a, b) = _over_lcm(((self._den, self._nums), (rhs._den, rhs._nums)))
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly._of(den, out)

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly._of(self._den, [-c for c in self._nums])

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
        return Poly._of(self._den * rhs._den, _convolve([], self._nums, rhs._nums))

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
        return self._den == rhs._den and self._nums == rhs._nums

    def __hash__(self) -> int:
        # Constants hash like their scalar value so Poly([3]) == 3 stays
        # consistent with the hash contract.
        if len(self._nums) <= 1:
            return hash(self.coefficient(0))
        return hash((self._den, self._nums))

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        # Ascending powers; the output re-parses through parse_poly_expr.
        return _signed_sum(self, _text_term)


def _text_term(power: int, num: int, den: int) -> str:
    magnitude = str(num) if den == 1 else f"{num}/{den}"
    if power == 0:
        return magnitude
    xs = "x" if power == 1 else f"x^{power}"
    return xs if num == den == 1 else f"{magnitude}*{xs}"


def _signed_sum(p: Poly, body: Callable[[int, int, int], str], descending: bool = False) -> str:
    """The nonzero terms of ``p`` by ascending (or descending) power, joined by their
    signs; ``body(power, num, den)`` writes a term without its sign, where ``num / den``
    is the term's magnitude in lowest terms.  Zero is ``"0"``.  Each coefficient is
    reduced from ``p``'s integer form by one gcd, none when ``p._den`` is 1."""
    den, nums = p._den, p._nums
    parts: list[str] = []
    for power in reversed(range(len(nums))) if descending else range(len(nums)):
        v = nums[power]
        if not v:
            continue
        if v < 0:
            parts.append(" - " if parts else "-")
            v = -v
        elif parts:
            parts.append(" + ")
        if den == 1:
            parts.append(body(power, v, 1))
        else:
            g = math.gcd(v, den)
            parts.append(body(power, v // g, den // g))
    return "".join(parts) or "0"


def _coefficient_texts(p: Poly) -> list[str]:
    """Each coefficient of ``p`` by ascending power as ``"n"`` or ``"n/d"`` in lowest
    terms (zero is ``"0"``), reduced as ``_signed_sum`` reduces it."""
    den = p._den
    if den == 1:
        return [str(v) for v in p._nums]
    out = []
    for v in p._nums:
        g = math.gcd(v, den)
        out.append(str(v // g) if g == den else f"{v // g}/{den // g}")
    return out


# The exact kernels compute on integer numerators over one denominator, the
# form a Poly holds; _integer_form converts a sequence of Fractions to it.

def _integer_form(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """``(d, nums)``: ``d`` is the least common denominator of ``values``
    (1 when there is none) and ``nums[i] / d == values[i]``."""
    d = math.lcm(*[c.denominator for c in values])
    return d, [c.numerator * (d // c.denominator) for c in values]


def _over_lcm(forms: Sequence[tuple[int, Sequence[int]]]) -> tuple[int, list[Sequence[int]]]:
    """``(d, nums)``: ``d`` is the lcm of the denominators of the ``(den, nums)``
    pairs in ``forms`` and ``nums[i] / d`` is ``forms[i]``; a numerator sequence
    already over ``d`` is shared, not copied.  Pairs that are each reduced
    stay reduced over ``d``."""
    d = math.lcm(*[den for den, _ in forms])
    return d, [nums if den == d else [v * (d // den) for v in nums] for den, nums in forms]


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
