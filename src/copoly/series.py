"""Truncated power series in ``y`` whose coefficients are polynomials in ``x``.

``SeriesYX`` fixes a truncation order ``N`` and stores the ``N + 1``
coefficients in one integer form, as ``Poly`` stores one polynomial: one
numerator tuple per power of ``y`` (ascending powers of ``x``, no trailing
zero) over one denominator ``_den > 0``, with the gcd of ``_den`` and all
numerators 1.  The form is canonical, so equality and hashing compare the
integers, and ``coeffs`` and ``coeff`` build ``Poly``s only when they are
read.  Products, ``exp`` and ``pow`` compute on the numerators and reduce
their result once.  All arithmetic truncates back to the carried order.
Combining two series of different orders raises ``ValueError`` instead of
silently coercing; a truncation order is part of the meaning of the value,
not a display choice.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from typing import Callable, Iterable, Sequence

from .poly import (
    Poly,
    _convolve,
    _over_lcm,
    _reduced,
    _reduced_rows,
    _scales,
    as_poly,
    as_rational,
)


class SeriesYX:
    """Power series in ``y`` truncated at a fixed order: the coefficient of
    ``y**nu`` has the numerators ``_nums[nu]`` over the shared ``_den``."""

    __slots__ = ("_order", "_den", "_nums")

    def __init__(self, order: int, coeffs: Iterable[Poly | int | str | Fraction] = ()):
        if order < 0:
            raise ValueError("series order must be >= 0")
        polys = [as_poly(c) for c in coeffs]
        if len(polys) > order + 1:
            raise ValueError(f"got {len(polys)} coefficients for truncation order {order}")
        # reduced polynomials stay reduced over the lcm of their denominators
        den, nums = _over_lcm([(p._den, p._nums) for p in polys])
        self._order = order
        self._den = den
        self._nums = tuple(map(tuple, nums)) + ((),) * (order + 1 - len(nums))

    @classmethod
    def _of(cls, order: int, den: int, rows: list[Sequence[int]]) -> SeriesYX:
        """``rows[nu] / den`` for ``y**nu``, ``den > 0`` and ``order + 1`` rows,
        stripped and reduced; list rows may be stripped in place.  Every kernel
        returns through here."""
        for row in rows:
            if row and not any(row):
                row.clear()  # at once: a difference of equal series is all zeros
            while row and not row[-1]:
                row.pop()
        s = object.__new__(cls)
        s._order = order
        s._den, rows = _reduced_rows(den, rows)
        s._nums = tuple(map(tuple, rows))
        return s

    @classmethod
    def one(cls, order: int) -> SeriesYX:
        return cls(order, (Poly.one(),))

    @property
    def order(self) -> int:
        return self._order

    @property
    def coeffs(self) -> tuple[Poly, ...]:
        return tuple([Poly._of(self._den, list(row)) for row in self._nums])

    @property
    def is_zero(self) -> bool:
        return not any(self._nums)

    def coeff(self, nu: int) -> Poly:
        """Coefficient of ``y**nu``; beyond the order it is unknown, not zero."""
        if nu < 0 or nu > self._order:
            raise IndexError(f"coefficient index {nu} outside truncation order {self._order}")
        return Poly._of(self._den, list(self._nums[nu]))

    def truncate(self, order: int) -> SeriesYX:
        """Drop to a lower order; raising the order would invent coefficients."""
        if order < 0:
            raise ValueError("series order must be >= 0")
        if order > self._order:
            raise ValueError(f"cannot extend order {self._order} series to order {order}")
        return SeriesYX._of(order, self._den, list(self._nums[: order + 1]))

    def _check_order(self, other: SeriesYX) -> None:
        if self._order != other._order:
            raise ValueError(
                f"series truncation orders differ: {self._order} vs {other._order}"
            )

    def _combine(self, other: SeriesYX, sign: int) -> SeriesYX:
        """``self + sign * other`` over the lcm of the two denominators."""
        self._check_order(other)
        den, (sa, sb) = _scales((self._den, other._den))
        sb *= sign
        return SeriesYX._of(self._order, den, [
            [sa * u + sb * v for u, v in zip_longest(a, b, fillvalue=0)]
            for a, b in zip(self._nums, other._nums)])

    def __add__(self, other) -> SeriesYX:
        if not isinstance(other, SeriesYX):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other) -> SeriesYX:
        if not isinstance(other, SeriesYX):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self) -> SeriesYX:
        return SeriesYX._of(self._order, self._den, [[-v for v in row] for row in self._nums])

    def _scale(self, factor: Poly) -> SeriesYX:
        return SeriesYX._of(self._order, self._den * factor._den,
                            [_convolve([], factor._nums, row) for row in self._nums])

    def __mul__(self, other) -> SeriesYX:
        if isinstance(other, SeriesYX):
            return _cauchy(self, other)
        if isinstance(other, Poly):
            return self._scale(other)
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self._scale(Poly.constant(other))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, power: int) -> SeriesYX:
        if not isinstance(power, int) or power < 0:
            raise ValueError("series powers must be nonnegative integers")
        out = SeriesYX.one(self._order)
        for _ in range(power):
            out = out * self
        return out

    def differentiate_y(self) -> SeriesYX:
        """d/dy; the result carries order ``N - 1`` since the top term is lost."""
        if self._order == 0:
            raise ValueError("cannot differentiate an order-0 series in y")
        return SeriesYX._of(self._order - 1, self._den,
                            [[nu * v for v in row] for nu, row in enumerate(self._nums[1:], 1)])

    def differentiate_x(self) -> SeriesYX:
        return SeriesYX._of(self._order, self._den,
                            [[i * v for i, v in enumerate(row)][1:] for row in self._nums])

    def evaluate(self, x0: int | str | Fraction, y0: int | str | Fraction) -> Fraction:
        """Exact value of the truncated sum at a rational point."""
        y = as_rational(y0)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * y + c(x0)
        return acc

    def __eq__(self, other) -> bool:
        if not isinstance(other, SeriesYX):
            return NotImplemented
        return (self._order == other._order and self._den == other._den
                and self._nums == other._nums)

    def __hash__(self) -> int:
        return hash((self._order, self._den, self._nums))

    def __repr__(self) -> str:
        return f"SeriesYX(order={self._order}, coeffs={list(self.coeffs)!r})"

    def __str__(self) -> str:
        parts = [f"({c})*y^{nu}" for nu, c in enumerate(self.coeffs) if not c.is_zero]
        return " + ".join(parts) if parts else "0"


def _cauchy(a: SeriesYX, b: SeriesYX) -> SeriesYX:
    """``a * b``: one bivariate convolution of the stored numerators over
    ``a._den * b._den``, reduced once.  The left factor's zero coefficients are
    skipped, so a sparse factor belongs on the left."""
    a._check_order(b)
    left = [(i, row) for i, row in enumerate(a._nums) if row]
    out = []
    for k in range(a._order + 1):
        acc: list[int] = []
        for i, row in left:
            if i > k:
                break
            _convolve(acc, row, b._nums[k - i])
        out.append(acc)
    return SeriesYX._of(a._order, a._den * b._den, out)


def poly_shift_substitute(p: Poly, q: Poly, order: int) -> SeriesYX:
    """Expand ``p(x + y*q(x))`` as a series in ``y``.

    The coefficient of ``y**j`` is ``q**j * p^(j) / j!``, so the expansion is
    exact (all higher terms vanish) once ``order >= deg p``.
    """
    coeffs = []
    deriv = p
    qpow = Poly.one()
    fact = 1
    for j in range(order + 1):
        if j > 0:
            deriv = deriv.derivative()
            qpow = qpow * q
            fact *= j
        coeffs.append((deriv * qpow) / fact)
    return SeriesYX(order, coeffs)


def _first_order(s: SeriesYX, weight: Callable[[int, int], int], scale: int = 1) -> SeriesYX:
    """The series ``f``: ``f_0 = 1``, ``scale n f_n = sum_{k=1..n} weight(n, k) s_k f_{n-k}``.

    The first-order equations in ``y`` of ``exp(s)`` and ``s**alpha`` give this
    recurrence (J. C. P. Miller's; Knuth, TAOCP vol. 2, 4.7): each ``f_n`` is
    one pass of integer convolutions over ``s``'s stored numerators, not a sum
    of powers of ``s``.  The weights are integers and ``scale`` is a positive
    integer.  ``f_0 .. f_{n-1}`` are kept over one denominator; each new
    ``f_n`` is reduced and joins them over the lcm.
    """
    ds, s_nums = s._den, s._nums
    den = 1
    f: list[Sequence[int]] = [[1]]
    for n in range(1, s._order + 1):
        acc: list[int] = []
        for k in range(1, n + 1):
            if s_nums[k]:
                _convolve(acc, [weight(n, k) * v for v in s_nums[k]], f[n - k])
        den, f = _over_lcm([*((den, row) for row in f), _reduced(n * scale * ds * den, acc)])
    return SeriesYX._of(s._order, den, f)


def series_exp(s: SeriesYX) -> SeriesYX:
    """Exponential ``sum(s**k / k!)`` of a series with zero constant term, from ``f' = s' f``."""
    if not s.coeff(0).is_zero:
        raise ValueError("series_exp needs a zero constant term")
    return _first_order(s, lambda n, k: k)


def series_pow_rational(s: SeriesYX, alpha: int | str | Fraction) -> SeriesYX:
    """Binomial power ``s**alpha`` for rational ``alpha`` of a series with constant
    term exactly 1, from ``s f' = alpha s' f``; an integer ``alpha >= 0`` gives
    the plain power."""
    a = as_rational(alpha)
    if s.coeff(0) != Poly.one():
        raise ValueError("series_pow_rational needs constant term 1")
    # (a + 1) k - n over a's denominator q, for a = p / q
    p, q = a.numerator, a.denominator
    return _first_order(s, lambda n, k: (p + q) * k - q * n, q)
