"""Independent cross-check: orthogonal sequences straight from the moments.

Nothing here touches the Rodrigues machinery.  Monic orthogonal polynomials
are produced by Gram-Schmidt in the monomial basis using only
``functional_apply``, so agreement between the diagonal complementary rows
(after monic normalization) and these polynomials is a genuine two-path
consistency check.  Quasi-definiteness (all squared norms nonzero) is
exactly the nonvanishing of the Hankel determinants, and the norms satisfy
``r_n = Delta_n / Delta_{n-1}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import MismatchError, NotQuasiDefinite
from .functional import MomentFunctional, functional_apply
from .poly import Poly
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


def orthogonality_matrix(u: MomentFunctional,
                         polys: Sequence[Poly]) -> list[list[Fraction]]:
    """Gram matrix ``G[i][j] = <u, polys[i] * polys[j]>``."""
    products = [[functional_apply(u, pi * pj) for pj in polys] for pi in polys]
    return products


def three_term_coefficients(ops: MonicOPS) -> list[tuple[Fraction, Fraction]]:
    """Recurrence data ``(a_m, b_m)`` with ``P_{m+1} = (x - a_m) P_m - b_m P_{m-1}``.

    ``a_m = <u, x P_m**2> / r_m`` and ``b_m = r_m / r_{m-1}``; ``b_0`` is
    reported as 0 since ``P_{-1} = 0`` removes it from the recurrence.
    """
    u = ops.functional
    x = Poly.x()
    out: list[tuple[Fraction, Fraction]] = []
    for m in range(len(ops.polys)):
        p, r = ops.polys[m], ops.norms[m]
        a = functional_apply(u, x * p * p) / r
        b = Fraction(0) if m == 0 else r / ops.norms[m - 1]
        out.append((a, b))
    return out


def cross_validate(pair: ClassicalPair, ops: MonicOPS) -> None:
    """Check ``monic C_m(x; m) == ops.polys[m]`` for every degree in ``ops``.

    ``ops`` is the Gram-Schmidt sequence of ``pair.u``; the first degree
    where the monic diagonal row differs raises ``MismatchError``.
    """
    for m, expected in enumerate(ops.polys):
        if complementary(pair, m, m).monic() != expected:
            raise MismatchError(
                m, f"monic diagonal row {m} differs from the Gram-Schmidt polynomial")
