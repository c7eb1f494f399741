"""Independent cross-check: orthogonal sequences straight from the moments.

Everything here except ``cross_validate`` reads only the moments.
``chebyshev_ops`` builds the monic orthogonal polynomials from the moments
by the Chebyshev algorithm, and ``gram_schmidt_ops`` builds the same
sequence by Gram-Schmidt in the monomial basis as a slower reference.
``cross_validate`` alone takes the diagonal rows from
``rodrigues.complementary`` and compares them, after monic normalization,
with these polynomials: a genuine two-path consistency check, which returns
the first degree that differs.
Quasi-definiteness (all squared norms nonzero) is exactly the nonvanishing
of the Hankel determinants, and the norms satisfy
``r_n = Delta_n / Delta_{n-1}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from operator import mul
from typing import Sequence

from .errors import NotQuasiDefinite
from .functional import MomentFunctional, functional_apply
from .poly import Poly, _convolve, _over_lcm, _reduced
from .rodrigues import ClassicalPair, complementary


@dataclass(frozen=True)
class MonicOPS:
    """Monic orthogonal sequence with squared norms ``r_m = <u, P_m**2>``."""

    polys: tuple[Poly, ...]
    norms: tuple[Fraction, ...]
    functional: MomentFunctional


def gram_schmidt_ops(u: MomentFunctional, n: int) -> MonicOPS:
    """Monic orthogonal polynomials of degree ``0..n`` for ``u``.

    Each ``x**m`` is projected against the polynomials already built; the
    previous norms must be nonzero for the projections to exist.  When a
    norm vanishes the functional is not quasi-definite at this depth and the
    error reports the order of the first vanishing Hankel determinant.
    """
    if n < 0:
        raise IndexError("n must be >= 0")
    polys: list[Poly] = []
    norms: list[Fraction] = []
    for m in range(n + 1):
        p = Poly.monomial(m)
        for q, r in zip(polys, norms):
            p = p - (functional_apply(u, p * q) / r) * q
        r = functional_apply(u, p * p)
        if r == 0:
            # Delta_j = r_0 ... r_j, so Delta_m is the first Hankel determinant to vanish
            raise NotQuasiDefinite(m)
        polys.append(p)
        norms.append(r)
    return MonicOPS(tuple(polys), tuple(norms), u)


def chebyshev_ops(u: MomentFunctional, n: int) -> MonicOPS:
    """Monic orthogonal polynomials of degree ``0..n`` for ``u`` by the Chebyshev algorithm.

    The mixed moments ``sigma_{k,l} = <u, P_k x**l>`` obey
    ``sigma_{k,l} = sigma_{k-1,l+1} - a_{k-1} sigma_{k-1,l} - b_{k-1} sigma_{k-2,l}``,
    the norm is ``r_k = sigma_{k,k}``, and the recurrence coefficients are
    ``a_k = sigma_{k,k+1}/r_k - sigma_{k-1,k}/r_{k-1}`` and
    ``b_k = r_k/r_{k-1}``, which build ``P_{k+1} = (x - a_k) P_k - b_k P_{k-1}``
    (Gautschi, *Orthogonal Polynomials: Computation and Approximation*,
    2004, section 2.1.7).  Only ``u_0 .. u_{2n}`` are read, the same moments
    ``gram_schmidt_ops`` reads, and the first vanishing norm raises
    ``NotQuasiDefinite`` at the same level.

    The computation is fraction-free apart from the ``O(n)`` scalars
    ``r_k``, ``a_k`` and ``b_k``.  Each row ``sigma_k`` is held as integer
    numerators over one denominator, starting from ``u``'s stored form: row
    ``k`` puts its three terms over their lcm, takes one integer combination
    per entry and is reduced once.  Each ``P_{k+1}`` is built by the same
    step from ``x P_k``, ``P_k`` and ``P_{k-1}``.
    """
    if n < 0:
        raise IndexError("n must be >= 0")
    top = 2 * n
    den, nums = u._form(top)
    # (den, row) with row[j] / den = sigma_{k,k+j} for j = 0 .. top - 2k, and below
    # is row k - 1; row -1 is zero, with top + 3 entries
    sigma = (den, nums[:top + 1])
    below = (1, [0] * (top + 3))
    b = Fraction(0)
    polys = [Poly.one()]
    norms: list[Fraction] = []
    for k in range(n + 1):
        if k:
            (sd, s), (bd, s2) = sigma, below
            sigma, below = _reduced(*_step((sd, s[2:]), (sd, s[1:-1]), (bd, s2[2:-2]), a, b)), sigma
        sd, s = sigma
        if not s[0]:
            raise NotQuasiDefinite(k)
        norms.append(Fraction(s[0], sd))
        if k == n:
            break
        a = Fraction(s[1], s[0])
        p, q = polys[k], polys[k - 1] if k else Poly.zero()
        if k:
            a -= Fraction(below[1][1], below[1][0])
            b = norms[k] / norms[k - 1]
        polys.append(Poly._of(*_step((p._den, (0, *p._nums)), (p._den, p._nums),
                                     (q._den, q._nums), a, b)))
    return MonicOPS(tuple(polys), tuple(norms), u)


def _step(ahead: tuple[int, Sequence[int]], here: tuple[int, Sequence[int]],
          back: tuple[int, Sequence[int]], a: Fraction, b: Fraction) -> tuple[int, list[int]]:
    """``ahead - a * here - b * back`` for ``(den, nums)`` forms, as ``(den, nums)``
    over the lcm of the three denominators; a shorter sequence counts as zero-padded."""
    d, (x, y, z) = _over_lcm((ahead, (a.denominator * here[0], here[1]),
                              (b.denominator * back[0], back[1])))
    an, bn = a.numerator, b.numerator
    return d, [p - an * q - bn * r for p, q, r in zip_longest(x, y, z, fillvalue=0)]


def _gram_numerators(u: MomentFunctional,
                     polys: Sequence[Poly]) -> tuple[int, list[int], list[list[int]]]:
    """``(mden, dens, upper)`` with ``<u, polys[i] * polys[j]>`` equal to
    ``upper[i][j - i] / (dens[i] * dens[j] * mden)`` for ``i <= j``.

    Computed as ``C H C^T`` on integer numerators: ``C`` holds each
    polynomial's numerators over its own denominator ``dens[i]`` and ``H``
    the Hankel matrix of ``u``'s stored numerators over ``mden``.  The Gram
    matrix is symmetric, so only its upper triangle is computed.  No moment
    past ``2 * max degree`` is read.
    """
    width = max((len(p._nums) for p in polys), default=0)
    mden, hankel = u._form(2 * width - 2)
    # ch[i][b] = sum_a C[i][a] H[a][b]
    ch = [[sum(map(mul, p._nums, hankel[b:b + width])) for b in range(width)] for p in polys]
    return mden, [p._den for p in polys], [[sum(map(mul, ch[i], q._nums)) for q in polys[i:]]
                                           for i in range(len(polys))]


def orthogonality_matrix(u: MomentFunctional,
                         polys: Sequence[Poly]) -> list[list[Fraction]]:
    """Gram matrix ``G[i][j] = <u, polys[i] * polys[j]>``, one ``Fraction`` per entry
    of ``_gram_numerators``'s upper triangle."""
    mden, dens, upper = _gram_numerators(u, polys)
    size = len(polys)
    gram = [[Fraction(0)] * size for _ in range(size)]
    for i, row in enumerate(upper):
        for j, entry in enumerate(row, i):
            gram[i][j] = gram[j][i] = Fraction(entry, dens[i] * dens[j] * mden)
    return gram


def three_term_coefficients(ops: MonicOPS) -> list[tuple[Fraction, Fraction]]:
    """Recurrence data ``(a_m, b_m)`` with ``P_{m+1} = (x - a_m) P_m - b_m P_{m-1}``.

    ``a_m = <u, x P_m**2> / r_m`` and ``b_m = r_m / r_{m-1}``; ``b_0`` is
    reported as 0 since ``P_{-1} = 0`` removes it from the recurrence.  With
    ``P_m = c / d``, ``<u, x P_m**2>`` is the integer square ``c * c`` dotted with
    ``u``'s stored numerators shifted by one, over ``d**2``, and each ``a_m`` is
    one ``Fraction``.
    """
    width = max((len(p._nums) for p in ops.polys), default=0)
    mden, moments = ops.functional._form(2 * width - 1)
    out: list[tuple[Fraction, Fraction]] = []
    for m, (p, r) in enumerate(zip(ops.polys, ops.norms)):
        dot = sum(map(mul, _convolve([], p._nums, p._nums), moments[1:2 * len(p._nums)]))
        a = Fraction(dot * r.denominator, p._den * p._den * mden * r.numerator)
        b = Fraction(0) if m == 0 else r / ops.norms[m - 1]
        out.append((a, b))
    return out


def cross_validate(pair: ClassicalPair, ops: MonicOPS) -> int | None:
    """The first degree ``m`` in ``ops`` with ``monic C_m(x; m) != ops.polys[m]``, or ``None``.

    ``ops`` is a sequence built from the moments of ``pair.u`` alone
    (``chebyshev_ops`` or ``gram_schmidt_ops``).  With ``C_m`` stored as
    ``c / dc`` and ``ops.polys[m]`` as ``e / de``, ``monic C_m`` is
    ``c / c[-1]``, so the two agree exactly when they have the same length and
    ``c[i] * de == e[i] * c[-1]`` for every ``i``: no division and no
    ``Fraction``.  A zero row, which has no monic form, or a row of the
    wrong degree reports its ``m``.
    """
    for m, expected in enumerate(ops.polys):
        c, de, e = complementary(pair, m, m)._nums, expected._den, expected._nums
        if not c or len(c) != len(e) or any(ci * de != ei * c[-1] for ci, ei in zip(c, e)):
            return m
    return None
