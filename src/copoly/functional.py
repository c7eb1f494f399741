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

with ``phi = (a x^2 + b x + c) / s`` and ``psi = (d x + e) / s`` over one
denominator ``s``, which the recurrence does not need; it is solvable for
``u_{k+1}`` exactly when ``d + k a != 0`` (the admissibility condition,
equivalently ``psi' + k phi''/2 != 0``).
"""

from __future__ import annotations

from fractions import Fraction
from math import perm
from operator import add, mul
from typing import Callable, Iterable, Sequence

from .errors import AdmissibilityViolation, InvalidParameter
from .poly import Poly, _integer_form, _over_lcm, _reduced, as_rational

MomentBlock = Callable[["MomentFunctional", int, int], tuple[int, list[int]]]


class MomentFunctional:
    """Linear functional on polynomials, held as an extendable moment sequence.

    The computed prefix is stored the way ``Poly`` stores coefficients:
    integer numerators ``_nums`` over one denominator ``_den > 0`` with
    ``gcd(_den, *_nums) == 1``; ``moment`` and ``moments`` build reduced
    ``Fraction``s when read.  The prefix starts as ``initial`` and is
    append-only.  A functional may carry a ``block``, called as
    ``block(u, lo, hi)`` with the functional it fills, that produces moments
    ``lo .. hi`` at once as ``(den, numerators)`` with ``den > 0`` from stored
    forms (its parents', or ``u``'s own prefix); without one it is finite and
    reading past the stored prefix raises ``ValueError``.  Nothing is
    computed until a moment is read.
    """

    __slots__ = ("_den", "_nums", "_block")

    def __init__(self, initial: Iterable[int | str | Fraction] = (), *,
                 block: MomentBlock | None = None):
        values = [as_rational(v) for v in initial]
        self._den, self._nums = _integer_form(values) if values else (1, [])
        self._block = block
        if not values and block is None:
            raise ValueError("a functional needs at least u_0 or a generating block")

    def _form(self, up_to: int) -> tuple[int, list[int]]:
        """``(den, nums)`` with ``nums[k] / den == u_k`` through at least ``up_to``;
        callers must not change ``nums``.  The block fills the whole missing
        range at once; its result is reduced and merged in over the lcm of the
        two denominators, the one place the stored form changes."""
        if up_to >= len(self._nums):
            if self._block is None:
                raise ValueError(f"moments known only up to index {len(self._nums) - 1}; "
                                 "no generating block")
            added = _reduced(*self._block(self, len(self._nums), up_to))
            den, (old, new) = _over_lcm([(self._den, self._nums), added])
            self._den, self._nums = den, [*old, *new]
        return self._den, self._nums

    def _vanishes(self, up_to: int) -> bool:
        """Whether ``u_0 .. u_up_to`` are all zero, read off the stored numerators."""
        return not any(self._form(up_to)[1][:up_to + 1])

    def moment(self, k: int) -> Fraction:
        if k < 0:
            raise IndexError("moment index must be >= 0")
        den, nums = self._form(k)
        return Fraction(nums[k], den)

    def moments(self, up_to: int) -> list[Fraction]:
        """Moments ``u_0 .. u_up_to`` inclusive."""
        if up_to < 0:
            return []
        den, nums = self._form(up_to)
        return [Fraction(v, den) for v in nums[:up_to + 1]]

    def __add__(self, other) -> MomentFunctional:
        if not isinstance(other, MomentFunctional):
            return NotImplemented
        return _combination([(1, self), (1, other)])

    def __sub__(self, other) -> MomentFunctional:
        if not isinstance(other, MomentFunctional):
            return NotImplemented
        return _combination([(1, self), (-1, other)])

    def __neg__(self) -> MomentFunctional:
        return _combination([(-1, self)])

    def __rmul__(self, scalar) -> MomentFunctional:
        if isinstance(scalar, float) or not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        c = as_rational(scalar)
        return _combination([(c.numerator, self)], c.denominator)

    __mul__ = __rmul__

    def __repr__(self) -> str:
        shown = ", ".join(str(Fraction(v, self._den)) for v in self._nums[:6])
        tail = ", ..." if self._block is not None or len(self._nums) > 6 else ""
        return f"MomentFunctional([{shown}{tail}])"


def _combination(terms: Sequence[tuple[int, MomentFunctional]],
                 scale: int = 1) -> MomentFunctional:
    """Moments ``v_k = sum w u_k / scale`` over the ``(w, u)`` in ``terms``, with
    integer weights ``w`` and ``scale > 0``.

    A block ``lo .. hi`` puts the parents' stored numerators over the lcm
    of their denominators and adds ``w`` times each term's slice into one
    integer vector; it returns ``(den, numerators)`` and builds no ``Fraction``.
    """
    terms = [(w, u) for w, u in terms if w]

    def block(_: MomentFunctional, lo: int, hi: int) -> tuple[int, list[int]]:
        forms = [u._form(hi) for _, u in terms]
        den, slices = _over_lcm([(den, nums[lo:hi + 1]) for den, nums in forms])
        out = [0] * (hi - lo + 1)
        for (w, _), part in zip(terms, slices):
            out = list(map(add, out, map(w.__mul__, part)))
        return den * scale, out
    return MomentFunctional(block=block)


def functional_apply(u: MomentFunctional, p: Poly) -> Fraction:
    """Pair the functional with a polynomial: ``<u, p> = sum p_i u_i``, one
    integer dot product over ``u``'s stored numerators."""
    den, nums = u._form(len(p._nums) - 1)
    return Fraction(sum(map(mul, p._nums, nums)), p._den * den)


def functional_derivative(u: MomentFunctional, times: int = 1) -> MomentFunctional:
    """Distributional derivative taken ``times`` times, in closed form:
    moments ``v_k = (-1)^t k!/(k-t)! u_{k-t}``, zero for ``k < t``.

    A block reads the parent's prefix once, however many times it is
    differentiated; ``times = 0`` gives ``u``'s moments.
    """
    if times < 0:
        raise ValueError("derivative order must be >= 0")
    sign = -1 if times % 2 else 1

    def block(_: MomentFunctional, lo: int, hi: int) -> tuple[int, list[int]]:
        den, below = u._form(hi - times)
        first = min(max(lo, times), hi + 1)
        return den, [0] * (first - lo) + [
            sign * perm(k, times) * m for k, m in zip(range(first, hi + 1), below[first - times:])]
    return MomentFunctional(block=block)


def functional_poly_mul(h: Poly, u: MomentFunctional) -> MomentFunctional:
    """Left multiplication by a polynomial: moments ``v_k = sum h_j u_{k+j}``.

    A block reads ``u``'s prefix once, through ``hi + deg h``, and takes each
    moment as one integer dot product of ``h``'s numerators with a window of
    it, over ``den(h) den(u)``; ``h = 0`` reads nothing.
    """
    coeffs, scale, width = h._nums, h._den, len(h._nums)

    def block(_: MomentFunctional, lo: int, hi: int) -> tuple[int, list[int]]:
        den, nums = u._form(hi + width - 1) if width else (1, [])
        return den * scale, [sum(map(mul, coeffs, nums[k:k + width])) for k in range(lo, hi + 1)]
    return MomentFunctional(block=block)


def functional_div_linear(c: int | str | Fraction, u: MomentFunctional) -> MomentFunctional:
    """Division by ``x - c``: moments ``v_k = sum_{j<k} c^(k-1-j) u_j`` (``v_0 = 0``).

    A block runs ``v_k = c v_{k-1} + u_{k-1}`` from ``v``'s last stored moment
    and ``u``'s stored numerators; with ``c = p/q`` step ``j`` is over
    ``den * q^j``, so no step divides, and the block ends over the last one.
    """
    cc = as_rational(c)
    p, q = cc.numerator, cc.denominator

    def block(v: MomentFunctional, lo: int, hi: int) -> tuple[int, list[int]]:
        v_den, v_nums = v._form(lo - 1)
        u_den, u_nums = u._form(hi - 1)
        den, ((cur,), below) = _over_lcm([(v_den, v_nums[lo - 1:lo]),
                                          (u_den, u_nums[lo - 1:hi])])
        nums, qj = [], 1
        for m in below:
            qj *= q
            cur = p * cur + qj * m
            nums.append(cur)
        return den * qj, [x * q ** (hi - k) for k, x in enumerate(nums, lo)]

    return MomentFunctional(initial=(0,), block=block)


def leibniz_residual(p: Poly, u: MomentFunctional) -> MomentFunctional:
    """The functional ``(p u)' - (p u' + p' u)``; every moment is zero.

    This is the product rule of the distributional calculus checked as a
    statement about moment sequences rather than proved symbolically.
    """
    lhs = functional_derivative(functional_poly_mul(p, u))
    rhs = functional_poly_mul(p, functional_derivative(u)) + functional_poly_mul(p.derivative(), u)
    return lhs - rhs


def _pearson_form(phi: Poly, psi: Poly) -> tuple[int, tuple[int, int, int], tuple[int, int]]:
    """``(s, (c, b, a), (e, d))`` with ``phi = (a x^2 + b x + c) / s`` and
    ``psi = (d x + e) / s``, ``s`` the lcm of their denominators.

    This is the one place a pair is checked and read into integers: outside
    the Pearson setting ``deg phi <= 2``, ``deg psi = 1`` it raises
    ``InvalidParameter``.
    """
    if phi.degree > 2:
        raise InvalidParameter(f"phi must have degree <= 2, got degree {phi.degree}")
    if psi.degree != 1:
        got = "the zero polynomial" if psi.is_zero else f"degree {psi.degree}"
        raise InvalidParameter(f"psi must have degree exactly 1, got {got}")
    s, (phi_nums, (e, d)) = _over_lcm([(phi._den, phi._nums), (psi._den, psi._nums)])
    c, b, a = [*phi_nums, 0, 0, 0][:3]
    return s, (c, b, a), (e, d)


def _quasi_definite(pearson: tuple[int, tuple[int, int, int], tuple[int, int]],
                    u0: Fraction, depth: int) -> bool:
    """Whether the Pearson functional of the integer form ``pearson`` (as
    ``_pearson_form`` gives it) with ``u_0 = u0`` has its Hankel determinants
    ``Delta_0 .. Delta_depth`` all nonzero, read off the pair in ``O(depth)``.

    With ``d_k = k a + d`` and ``e_k = k b + e``, the monic recurrence of ``u``
    has ``gamma_{m+1} = -(m+1) d_{m-1} phi(-e_m / d_{2m}) / (d_{2m-1} d_{2m+1})``
    (``d_{m-1} / d_{2m-1}`` read as 1 at ``m = 0``), and ``Delta_m`` is
    ``u0^(m+1)`` times a product of ``gamma_1 .. gamma_m``.  So, when ``u0`` and
    ``d_0 .. d_{2 depth - 1}`` (which ``Delta_depth``'s moments need) are nonzero,
    it is quasi-definite through ``depth`` exactly when no
    ``d_2m^2 s phi(-e_m / d_2m) = a e_m^2 - b e_m d_2m + c d_2m^2`` vanishes for
    ``m < depth``: ``d_{m-1}`` is among the ``d_k`` already checked.  A vanishing
    ``d_k`` leaves the moments undefined and counts as not quasi-definite.
    """
    _, (c, b, a), (e, d) = pearson
    if u0 == 0 or any(k * a + d == 0 for k in range(2 * depth)):
        return False
    return all(a * e_m * e_m - b * e_m * d_2m + c * d_2m * d_2m
               for e_m, d_2m in ((m * b + e, 2 * m * a + d) for m in range(depth)))


def moments_from_pearson(phi: Poly, psi: Poly, u0: int | str | Fraction,
                         max_order: int) -> MomentFunctional:
    """Moment functional of the Pearson equation ``(phi u)' = psi u``.

    The pair is checked by ``_pearson_form``.  Admissibility
    (``psi' + k phi''/2 != 0``) is checked eagerly for all ``k < max_order``;
    the returned functional still extends past ``max_order`` on demand,
    checking lazily from there.
    """
    return _pearson_moments(_pearson_form(phi, psi), u0, max_order)


def _pearson_moments(pearson: tuple[int, tuple[int, int, int], tuple[int, int]],
                     u0: int | str | Fraction, max_order: int) -> MomentFunctional:
    """``moments_from_pearson`` of the integer form ``pearson``, as ``_pearson_form``
    gives it; a ``ClassicalPair`` builds its ``u`` here from its stored form."""
    # the recurrence is homogeneous in (a, b, c, d, e): s is not needed
    _, (c, b, a), (e, d) = pearson
    for k in range(max_order):
        if d + k * a == 0:
            raise AdmissibilityViolation(k)

    def block(u: MomentFunctional, lo: int, hi: int) -> tuple[int, list[int]]:
        # u_{k+1} = -((e + kb) u_k + kc u_{k-1}) / (d + ka): cur and prev stay over
        # den * p, and p gains the factor |d + ka| at each step, so no step divides
        den, known = u._form(lo - 1)
        prev, cur = (known[lo - 2] if lo > 1 else 0), known[lo - 1]
        nums, dens, p = [], [], 1
        for k in range(lo - 1, hi):
            q = d + k * a
            if q == 0:
                raise AdmissibilityViolation(k)
            nxt = -((e + k * b) * cur + k * c * prev)
            prev, cur, p = cur * abs(q), (nxt if q > 0 else -nxt), p * abs(q)
            nums.append(cur)
            dens.append(p)
        return den * p, [v * (p // pk) for v, pk in zip(nums, dens)]

    return MomentFunctional(initial=(as_rational(u0),), block=block)


def pearson_residual(phi: Poly, psi: Poly, u: MomentFunctional) -> MomentFunctional:
    """The functional ``(phi u)' - psi u``, built from the calculus ops.

    For a functional generated by ``moments_from_pearson`` every moment is
    zero, which cross-checks the recurrence against an independent path
    through ``functional_derivative`` and ``functional_poly_mul``.
    """
    return functional_derivative(functional_poly_mul(phi, u)) - functional_poly_mul(psi, u)


def hankel_minors(u: MomentFunctional, n: int) -> list[Fraction]:
    """Leading Hankel determinants ``Delta_0 .. Delta_n`` from one elimination of ``H_n``.

    Without row swaps the ``m``-th pivot is ``Delta_m / Delta_{m-1}``, so
    ``Delta_m`` is the product of the first ``m + 1`` pivots.  The list ends
    at the first zero: no pivot exists past it without a swap.  Each row is
    held as integer numerators over one denominator, so a row update costs
    integer products and one gcd instead of a ``Fraction`` per entry.  Every
    step leaves the uneliminated block symmetric, so row ``r`` keeps only its
    columns ``c >= r`` and reads its column-``k`` entry off the pivot row.
    """
    if n < 0:
        raise IndexError("Hankel order must be >= 0")
    den, ints = u._form(2 * n)
    # rows[r] = (d, row) with row[c - r] / d the entry in column c >= r of row r
    rows = [(den, ints[2 * r:r + n + 1]) for r in range(n + 1)]
    minors: list[Fraction] = []
    delta = Fraction(1)
    for k in range(n + 1):
        dk, pivot_row = rows[k]
        p = pivot_row[0]
        delta *= Fraction(p, dk)
        minors.append(delta)
        if p == 0:
            break
        dkp = dk * p
        for r in range(k + 1, n + 1):
            f = pivot_row[r - k]  # the column-k entry of row r, over dk
            if f == 0:
                continue
            dr, row = rows[r]
            drf = dr * f
            # row - (f/dk) / (p/dk) * pivot_row == (dk*p*row - dr*f*pivot_row) / (dr*dk*p)
            rows[r] = _reduced(dr * dkp, [dkp * x - drf * y
                                          for x, y in zip(row, pivot_row[r - k:])])
    return minors


def hankel_determinant(u: MomentFunctional, n: int) -> Fraction:
    """Determinant of the ``(n+1) x (n+1)`` moment matrix ``H[i][j] = u_{i+j}``."""
    if n < 0:
        raise IndexError("Hankel order must be >= 0")
    size = n + 1
    moments = u.moments(2 * n)
    m = [moments[i:i + size] for i in range(size)]
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
