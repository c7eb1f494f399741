#!/usr/bin/env python3
"""Moment functionals from a Pearson equation, and the calculus on them."""

from fractions import Fraction

from copoly import (
    AdmissibilityViolation,
    Poly,
    functional_apply,
    functional_derivative,
    functional_div_linear,
    functional_poly_mul,
    hankel_determinant,
    moments_from_pearson,
    pearson_residual,
)

# Moments of the Gaussian weight, generated from (phi u)' = psi u with
# phi = 1 and psi = -2x.  Odd moments vanish, even ones are the familiar
# double-factorial values scaled by powers of two.
phi = Poly.one()
psi = Poly([0, -2])
u = moments_from_pearson(phi, psi, 1, max_order=16)
print("gaussian moments :", [str(u.moment(k)) for k in range(8)])

# The Pearson equation itself, as a functional: (phi u)' - psi u is built
# from the calculus below, independently of the recurrence, and every
# moment of it is zero.
print("pearson residual :", [str(m) for m in pearson_residual(phi, psi, u).moments(7)])

# Pairing a polynomial against the functional is plain linear algebra on
# the moment list.
p = Poly([1, 0, 3])
print("<u, 1 + 3x^2>    =", functional_apply(u, p))

# The derivative functional flips the pairing onto p':
#     <u', p> = -<u, p'>.
du = functional_derivative(u)
print("<u', x^3>        =", functional_apply(du, Poly.monomial(3)),
      " (equals -<u, 3x^2> =", -functional_apply(u, Poly([0, 0, 3])), ")")

# Multiplying by a polynomial shifts moments.  Division by (x - c) is a
# section of that multiplication: it recovers every moment except the
# zeroth, which a point mass at c could change freely.  Its moments come
# from v_k = c v_{k-1} + u_{k-1}, filled a block of indices at a time.
xu = functional_poly_mul(Poly.monomial(1), u)
print("(x.u) moments    :", [str(xu.moment(k)) for k in range(6)])
v = functional_div_linear(Fraction(0), xu)
print("divided back     :", [str(v.moment(k)) for k in range(6)],
      " (v_0 is pinned to 0)")

# Hankel determinants of the moment matrix decide quasi-definiteness.
# For the Gaussian they are all positive.
print("hankel dets      :", [str(hankel_determinant(u, m)) for m in range(1, 6)])

# Not every (phi, psi) admits moments at every depth.  The Bessel weight
# with alpha = -5 has phi = x^2 and psi = -3x + 2; its recurrence divides
# by psi' + k phi''/2 = k - 3 and cannot produce u_4.
try:
    moments_from_pearson(Poly([0, 0, 1]), Poly([2, -3]), 1, max_order=10)
except AdmissibilityViolation as exc:
    print("bessel alpha=-5  : admissibility fails at k =", exc.k)
