"""Moment functionals and their distributional calculus.

A linear functional ``u`` on polynomials is determined by its moments
``u_k = <u, x**k>``.  Everything here works directly on moment sequences:

* derivative:            ``<u', p> = -<u, p'>``
* polynomial multiple:   ``<h u, p> = <u, h p>``
* division by ``x - c``: ``<(x-c)^-1 u, p> = <u, theta_c(p)>`` where
  ``theta_c(p) = (p(x) - p(c)) / (x - c)``

and moment sequences are generated from a Pearson equation
``(phi u)' = psi u`` with ``deg phi <= 2`` and ``deg psi = 1``.  Pairing the
Pearson equation against ``x**k`` gives the three-term moment recurrence

    (d + k a) u_{k+1} + (e + k b) u_k + k c u_{k-1} = 0,

with ``phi = a x^2 + b x + c`` and ``psi = d x + e``; it is solvable for
``u_{k+1}`` exactly when ``d + k a != 0`` (the admissibility condition,
equivalently ``psi' + k phi''/2 != 0``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import AdmissibilityViolation, InvalidParameter
from .poly import Poly, as_rational

MomentRule = Callable[[int, Sequence[Fraction]], Fraction]


class MomentFunctional:
    """Linear functional on polynomials, held as an extendable moment sequence.

    Computed moments are append-only.  A functional may carry a rule
    that produces moment ``k`` given the moments below it (a recurrence, or
    an index formula over a parent functional); without a rule it is finite
    and reading past the stored prefix raises ``ValueError``.
    """

    __slots__ = ("_moments", "_rule")

    def __init__(self, rule: MomentRule | None = None,
                 initial: Iterable[int | str | Fraction] = ()):
        self._moments: list[Fraction] = [as_rational(v) for v in initial]
        self._rule = rule
        if not self._moments:
            if rule is None:
                raise ValueError("a functional needs at least u_0 or a generating rule")
            self._moments.append(as_rational(rule(0, ())))

    def moment(self, k: int) -> Fraction:
        if k < 0:
            raise IndexError("moment index must be >= 0")
        if k < len(self._moments):
            return self._moments[k]
        if self._rule is None:
            raise ValueError(
                f"moments known only up to index {len(self._moments) - 1}; no generating rule"
            )
        while len(self._moments) <= k:
            m = len(self._moments)
            self._moments.append(as_rational(self._rule(m, tuple(self._moments))))
        return self._moments[k]

    def moments(self, up_to: int) -> list[Fraction]:
        """Moments ``u_0 .. u_up_to`` inclusive."""
        return [self.moment(k) for k in range(up_to + 1)]

    def __add__(self, other) -> MomentFunctional:
        if not isinstance(other, MomentFunctional):
            return NotImplemented
        return MomentFunctional(lambda k, _pre: self.moment(k) + other.moment(k))

    def __sub__(self, other) -> MomentFunctional:
        if not isinstance(other, MomentFunctional):
            return NotImplemented
        return MomentFunctional(lambda k, _pre: self.moment(k) - other.moment(k))

    def __neg__(self) -> MomentFunctional:
        return MomentFunctional(lambda k, _pre: -self.moment(k))

    def __rmul__(self, scalar) -> MomentFunctional:
        if isinstance(scalar, float) or not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        c = as_rational(scalar)
        return MomentFunctional(lambda k, _pre: c * self.moment(k))

    __mul__ = __rmul__

    def __repr__(self) -> str:
        shown = ", ".join(str(m) for m in self._moments[:6])
        tail = ", ..." if self._rule is not None or len(self._moments) > 6 else ""
        return f"MomentFunctional([{shown}{tail}])"


def functional_apply(u: MomentFunctional, p: Poly) -> Fraction:
    """Pair the functional with a polynomial: ``<u, p> = sum p_i u_i``."""
    total = Fraction(0)
    for i, c in enumerate(p.coeffs):
        if c != 0:
            total += c * u.moment(i)
    return total


def functional_derivative(u: MomentFunctional) -> MomentFunctional:
    """Distributional derivative: moments ``v_k = -k u_{k-1}`` (``v_0 = 0``)."""
    def rule(k: int, _pre) -> Fraction:
        if k == 0:
            return Fraction(0)
        return -k * u.moment(k - 1)
    return MomentFunctional(rule)


def functional_poly_mul(h: Poly, u: MomentFunctional) -> MomentFunctional:
    """Left multiplication by a polynomial: moments ``v_k = sum h_j u_{k+j}``."""
    coeffs = h.coeffs

    def rule(k: int, _pre) -> Fraction:
        total = Fraction(0)
        for j, c in enumerate(coeffs):
            if c != 0:
                total += c * u.moment(k + j)
        return total
    return MomentFunctional(rule)


def functional_div_linear(c: int | str | Fraction, u: MomentFunctional) -> MomentFunctional:
    """Division by ``x - c``: moments ``v_k = sum_{j<k} c^(k-1-j) u_j`` (``v_0 = 0``)."""
    cc = as_rational(c)

    def rule(k: int, _pre) -> Fraction:
        total = Fraction(0)
        power = Fraction(1)
        # power runs c^0, c^1, ... alongside j = k-1 down to 0
        for j in range(k - 1, -1, -1):
            total += power * u.moment(j)
            power *= cc
        return total
    return MomentFunctional(rule)


def leibniz_residual(p: Poly, u: MomentFunctional, order: int) -> list[Fraction]:
    """Moments ``0..order`` of ``(p u)' - (p u' + p' u)``; identically zero.

    This is the product rule of the distributional calculus checked as a
    statement about moment sequences rather than proved symbolically.
    """
    lhs = functional_derivative(functional_poly_mul(p, u))
    rhs = functional_poly_mul(p, functional_derivative(u)) + functional_poly_mul(p.derivative(), u)
    return (lhs - rhs).moments(order)


def check_pearson_degrees(phi: Poly, psi: Poly) -> None:
    """Reject a pair outside the Pearson setting ``deg phi <= 2``, ``deg psi = 1``."""
    if phi.degree > 2:
        raise InvalidParameter(f"phi must have degree <= 2, got degree {phi.degree}")
    if psi.degree != 1:
        raise InvalidParameter(f"psi must have degree exactly 1, got degree {psi.degree}")


def moments_from_pearson(phi: Poly, psi: Poly, u0: int | str | Fraction,
                         max_order: int) -> MomentFunctional:
    """Moment functional of the Pearson equation ``(phi u)' = psi u``.

    Admissibility (``psi' + k phi''/2 != 0``) is checked eagerly for all
    ``k < max_order``; the returned functional still extends past
    ``max_order`` on demand, checking lazily from there.
    """
    check_pearson_degrees(phi, psi)
    a, b, c = phi.coefficient(2), phi.coefficient(1), phi.coefficient(0)
    d, e = psi.coefficient(1), psi.coefficient(0)
    for k in range(max_order):
        if d + k * a == 0:
            raise AdmissibilityViolation(k)

    def rule(m: int, prefix: Sequence[Fraction]) -> Fraction:
        k = m - 1  # solve (d + ka) u_{k+1} = -((e + kb) u_k + kc u_{k-1})
        denom = d + k * a
        if denom == 0:
            raise AdmissibilityViolation(k)
        total = (e + k * b) * prefix[k]
        if k >= 1:
            total += k * c * prefix[k - 1]
        return -total / denom

    return MomentFunctional(rule, initial=(as_rational(u0),))


def pearson_residual(phi: Poly, psi: Poly, u: MomentFunctional,
                     order: int) -> list[Fraction]:
    """Moments ``0..order`` of ``(phi u)' - psi u``, built from the calculus ops.

    For a functional generated by ``moments_from_pearson`` this vanishes
    identically, which cross-checks the recurrence against an independent
    path through ``functional_derivative`` and ``functional_poly_mul``.
    """
    residual = functional_derivative(functional_poly_mul(phi, u)) - functional_poly_mul(psi, u)
    return residual.moments(order)


def hankel_determinant(u: MomentFunctional, n: int) -> Fraction:
    """Determinant of the ``(n+1) x (n+1)`` moment matrix ``H[i][j] = u_{i+j}``."""
    if n < 0:
        raise IndexError("Hankel order must be >= 0")
    size = n + 1
    m = [[u.moment(i + j) for j in range(size)] for i in range(size)]
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = Fraction(1) / m[col][col]
        for r in range(col + 1, size):
            if m[r][col] != 0:
                factor = m[r][col] * inv
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return det
