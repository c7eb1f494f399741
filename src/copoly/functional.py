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
from math import perm
from typing import Callable, Iterable, Sequence

from .errors import AdmissibilityViolation, InvalidParameter
from .poly import Poly, _integer_form, _reduced, as_rational

MomentRule = Callable[[int, Sequence[Fraction]], Fraction]
MomentBlock = Callable[[int, int], list[Fraction]]


class MomentFunctional:
    """Linear functional on polynomials, held as an extendable moment sequence.

    Computed moments are append-only.  A functional may carry a ``rule``
    that produces moment ``k`` given the moments below it (a recurrence, or
    an index formula over a parent functional), or a ``block`` that produces
    moments ``lo .. hi`` at once from its parents' prefixes; without either
    it is finite and reading past the stored prefix raises ``ValueError``.
    Nothing is computed until a moment is read.
    """

    __slots__ = ("_moments", "_rule", "_block")

    def __init__(self, rule: MomentRule | None = None,
                 initial: Iterable[int | str | Fraction] = (), *,
                 block: MomentBlock | None = None):
        self._moments: list[Fraction] = [as_rational(v) for v in initial]
        self._rule = rule
        self._block = block
        if not self._moments and rule is None and block is None:
            raise ValueError("a functional needs at least u_0 or a generating rule")

    def moment(self, k: int) -> Fraction:
        if k < 0:
            raise IndexError("moment index must be >= 0")
        known = self._moments
        if k < len(known):
            return known[k]
        if self._block is not None:
            known.extend(self._block(len(known), k))
        elif self._rule is not None:
            while len(known) <= k:
                known.append(as_rational(self._rule(len(known), known)))
        else:
            raise ValueError(
                f"moments known only up to index {len(known) - 1}; no generating rule"
            )
        return known[k]

    def moments(self, up_to: int) -> list[Fraction]:
        """Moments ``u_0 .. u_up_to`` inclusive."""
        if up_to < 0:
            return []
        self.moment(up_to)
        return self._moments[: up_to + 1]

    def __add__(self, other) -> MomentFunctional:
        if not isinstance(other, MomentFunctional):
            return NotImplemented
        return _combination([(1, self, 0), (1, other, 0)])

    def __sub__(self, other) -> MomentFunctional:
        if not isinstance(other, MomentFunctional):
            return NotImplemented
        return _combination([(1, self, 0), (-1, other, 0)])

    def __neg__(self) -> MomentFunctional:
        return _combination([(-1, self, 0)])

    def __rmul__(self, scalar) -> MomentFunctional:
        if isinstance(scalar, float) or not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return _combination([(as_rational(scalar), self, 0)])

    __mul__ = __rmul__

    def __repr__(self) -> str:
        shown = ", ".join(str(m) for m in self._moments[:6])
        extends = self._rule is not None or self._block is not None
        tail = ", ..." if extends or len(self._moments) > 6 else ""
        return f"MomentFunctional([{shown}{tail}])"


def _combination(terms: Sequence[tuple[int | Fraction, MomentFunctional, int]]) -> MomentFunctional:
    """Moments ``v_k = sum c u_{k+s}`` over the ``(c, u, s)`` in ``terms``, with ``s >= 0``.

    A block ``lo .. hi`` reads each parent's prefix once and computes every
    moment as an integer dot product over one common denominator, so the
    only ``Fraction`` built per moment is the result.
    """
    terms = [(as_rational(c), u, s) for c, u, s in terms if c != 0]
    scale, (weights,) = _integer_form(([c for c, _, _ in terms],))
    reach: dict[MomentFunctional, int] = {}
    for _, u, s in terms:
        reach[u] = max(reach.get(u, 0), s)

    def block(lo: int, hi: int) -> list[Fraction]:
        prefixes = {u: u.moments(hi + s)[lo:] for u, s in reach.items()}
        den, nums = _integer_form(list(prefixes.values()))
        ints = dict(zip(prefixes, nums))
        rows = [(w, ints[u], s) for w, (_, u, s) in zip(weights, terms)]
        den *= scale
        return [Fraction(sum(w * m[i + s] for w, m, s in rows), den)
                for i in range(hi - lo + 1)]
    return MomentFunctional(block=block)


def functional_apply(u: MomentFunctional, p: Poly) -> Fraction:
    """Pair the functional with a polynomial: ``<u, p> = sum p_i u_i``."""
    total = Fraction(0)
    for i, c in enumerate(p.coeffs):
        if c != 0:
            total += c * u.moment(i)
    return total


def functional_derivative(u: MomentFunctional, times: int = 1) -> MomentFunctional:
    """Distributional derivative taken ``times`` times, in closed form:
    moments ``v_k = (-1)^t k!/(k-t)! u_{k-t}``, zero for ``k < t``.

    A block reads the parent's prefix once, however many times it is
    differentiated; ``times = 0`` gives ``u``'s moments.
    """
    if times < 0:
        raise ValueError("derivative order must be >= 0")
    sign = -1 if times % 2 else 1

    def block(lo: int, hi: int) -> list[Fraction]:
        below = u.moments(hi - times)
        first = min(max(lo, times), hi + 1)
        return [Fraction(0)] * (first - lo) + [
            Fraction(sign * perm(k, times) * m.numerator, m.denominator)
            for k, m in zip(range(first, hi + 1), below[first - times:])]
    return MomentFunctional(block=block)


def functional_poly_mul(h: Poly, u: MomentFunctional) -> MomentFunctional:
    """Left multiplication by a polynomial: moments ``v_k = sum h_j u_{k+j}``."""
    return _combination([(c, u, j) for j, c in enumerate(h.coeffs)])


def functional_div_linear(c: int | str | Fraction, u: MomentFunctional) -> MomentFunctional:
    """Division by ``x - c``: moments ``v_k = sum_{j<k} c^(k-1-j) u_j`` (``v_0 = 0``),
    built as ``v_k = c v_{k-1} + u_{k-1}``."""
    cc = as_rational(c)
    return MomentFunctional(lambda k, v: cc * v[k - 1] + u.moment(k - 1), (0,))


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


def hankel_minors(u: MomentFunctional, n: int) -> list[Fraction]:
    """Leading Hankel determinants ``Delta_0 .. Delta_n`` from one elimination of ``H_n``.

    Without row swaps the ``m``-th pivot is ``Delta_m / Delta_{m-1}``, so
    ``Delta_m`` is the product of the first ``m + 1`` pivots.  The list ends
    at the first zero: no pivot exists past it without a swap.  Each row is
    held as integer numerators over one denominator, so a row update costs
    integer products and one gcd instead of a ``Fraction`` per entry.
    """
    if n < 0:
        raise IndexError("Hankel order must be >= 0")
    moments = u.moments(2 * n)
    den, (ints,) = _integer_form((moments,))
    # rows[r] holds the uneliminated columns of row r, from column k on at step k
    rows = [(den, ints[r:r + n + 1]) for r in range(n + 1)]
    minors: list[Fraction] = []
    delta = Fraction(1)
    for k in range(n + 1):
        pivot_den, pivot_row = rows[k]
        p = pivot_row[0]
        delta *= Fraction(p, pivot_den)
        minors.append(delta)
        if p == 0:
            break
        tail = pivot_row[1:]
        for r in range(k + 1, n + 1):
            d, row = rows[r]
            f = row[0]
            if f == 0:
                rows[r] = (d, row[1:])
                continue
            # row - (f/d) / (p/pivot_den) * pivot_row == (p*row - f*pivot)/(d*p)
            rows[r] = _reduced(d * p, [p * x - f * y for x, y in zip(row[1:], tail)])
    return minors


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
