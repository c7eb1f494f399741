"""Truncated power series in ``y`` whose coefficients are polynomials in ``x``.

``SeriesYX`` fixes a truncation order ``N`` and stores exactly ``N + 1``
``Poly`` coefficients: the entry at index ``nu`` is the coefficient of
``y**nu``.  All arithmetic truncates back to the carried order.  Combining
two series of different orders raises ``ValueError`` instead of silently
coercing; a truncation order is part of the meaning of the value, not a
display choice.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .poly import Poly, _convolve, _integer_form, _over_lcm, as_poly, as_rational


class SeriesYX:
    """Power series in ``y`` truncated at a fixed order, one ``Poly`` per power."""

    __slots__ = ("_order", "_coeffs")

    def __init__(self, order: int, coeffs: Iterable[Poly | int | str | Fraction] = ()):
        if order < 0:
            raise ValueError("series order must be >= 0")
        polys = [as_poly(c) for c in coeffs]
        if len(polys) > order + 1:
            raise ValueError(f"got {len(polys)} coefficients for truncation order {order}")
        polys.extend(Poly.zero() for _ in range(order + 1 - len(polys)))
        self._order = order
        self._coeffs = tuple(polys)

    @classmethod
    def one(cls, order: int) -> SeriesYX:
        return cls(order, (Poly.one(),))

    @property
    def order(self) -> int:
        return self._order

    @property
    def coeffs(self) -> tuple[Poly, ...]:
        return self._coeffs

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self._coeffs)

    def coeff(self, nu: int) -> Poly:
        """Coefficient of ``y**nu``; beyond the order it is unknown, not zero."""
        if nu < 0 or nu > self._order:
            raise IndexError(f"coefficient index {nu} outside truncation order {self._order}")
        return self._coeffs[nu]

    def truncate(self, order: int) -> SeriesYX:
        """Drop to a lower order; raising the order would invent coefficients."""
        if order > self._order:
            raise ValueError(f"cannot extend order {self._order} series to order {order}")
        return SeriesYX(order, self._coeffs[: order + 1])

    def _check_order(self, other: SeriesYX) -> None:
        if self._order != other._order:
            raise ValueError(
                f"series truncation orders differ: {self._order} vs {other._order}"
            )

    def __add__(self, other) -> SeriesYX:
        if not isinstance(other, SeriesYX):
            return NotImplemented
        self._check_order(other)
        return SeriesYX(self._order, tuple(a + b for a, b in zip(self._coeffs, other._coeffs)))

    def __sub__(self, other) -> SeriesYX:
        if not isinstance(other, SeriesYX):
            return NotImplemented
        self._check_order(other)
        return SeriesYX(self._order, tuple(a - b for a, b in zip(self._coeffs, other._coeffs)))

    def __neg__(self) -> SeriesYX:
        return SeriesYX(self._order, tuple(-c for c in self._coeffs))

    def _scale(self, factor: Poly) -> SeriesYX:
        return SeriesYX(self._order, tuple(factor * c for c in self._coeffs))

    def __mul__(self, other) -> SeriesYX:
        if isinstance(other, SeriesYX):
            return _product_sum([(1, self, other)])
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
        return SeriesYX(
            self._order - 1,
            tuple((nu + 1) * c for nu, c in enumerate(self._coeffs[1:])),
        )

    def differentiate_x(self) -> SeriesYX:
        return SeriesYX(self._order, tuple(c.derivative() for c in self._coeffs))

    def evaluate(self, x0: int | str | Fraction, y0: int | str | Fraction) -> Fraction:
        """Exact value of the truncated sum at a rational point."""
        y = as_rational(y0)
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * y + c(x0)
        return acc

    def __eq__(self, other) -> bool:
        if not isinstance(other, SeriesYX):
            return NotImplemented
        return self._order == other._order and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self._order, self._coeffs))

    def __repr__(self) -> str:
        return f"SeriesYX(order={self._order}, coeffs={list(self._coeffs)!r})"

    def __str__(self) -> str:
        parts = [f"({c})*y^{nu}" for nu, c in enumerate(self._coeffs) if not c.is_zero]
        return " + ".join(parts) if parts else "0"


def _product_sum(terms: Sequence[tuple[int | Fraction, SeriesYX, SeriesYX]]) -> SeriesYX:
    """``sum c * a * b`` over the ``(c, a, b)`` in ``terms``, every series of one order.

    One bivariate convolution on integer numerators: every left factor goes
    over one common denominator and every right factor over another, and
    each output coefficient is one ``Poly`` of the sums over their product.
    The left factor's zero coefficients are skipped, so a sparse factor
    belongs on the left.
    """
    first = terms[0][1]
    for _, a, b in terms:
        first._check_order(a)
        first._check_order(b)
    order = first._order
    dc, weights = _integer_form([as_rational(c) for c, _, _ in terms])
    da, lefts = _over_lcm([(p._den, p._nums) for _, a, _ in terms for p in a._coeffs])
    db, rights = _over_lcm([(p._den, p._nums) for _, _, b in terms for p in b._coeffs])
    size = order + 1
    # per term: the nonzero powers of a with their numerators times c, and b's numerators
    pairs = []
    for w, t in zip(weights, range(0, len(lefts), size)):
        left = [(i, [w * v for v in a]) for i, a in enumerate(lefts[t:t + size]) if a]
        pairs.append((left, rights[t:t + size]))
    d = dc * da * db
    out = []
    for k in range(size):
        acc: list[int] = []
        for left, right in pairs:
            for i, a in left:
                if i > k:
                    break
                _convolve(acc, a, right[k - i])
        out.append(Poly._of(d, acc))
    return SeriesYX(order, out)


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
    one pass of integer convolutions over ``s``, not a sum of powers of ``s``.
    The weights are integers and ``scale`` is a positive integer.
    """
    ds, s_nums = _over_lcm([(p._den, p._nums) for p in s.coeffs])
    f = [Poly.one()]
    for n in range(1, s.order + 1):
        df, f_nums = _over_lcm([(p._den, p._nums) for p in f])
        acc: list[int] = []
        for k in range(1, n + 1):
            _convolve(acc, [weight(n, k) * v for v in s_nums[k]], f_nums[n - k])
        f.append(Poly._of(n * scale * ds * df, acc))
    return SeriesYX(s.order, f)


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
