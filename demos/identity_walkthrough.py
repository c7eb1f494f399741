#!/usr/bin/env python3
"""
A tour of the exact identities behind the complementary rows.

Four ways of looking at the same objects, all checked to be literally
equal as polynomials over the rationals:

  1. the second-order differential equation each row satisfies,
  2. its self-adjoint (Sturm-Liouville) restatement against the moments,
  3. the functional-side Rodrigues identity pairing rows with moments,
  4. the derivative ladder connecting a row to the diagonal above it.
"""

from fractions import Fraction

from copoly import (
    complementary,
    derivative_proportionality,
    laguerre_family,
    mu_eigenvalue,
    ode_residual,
    rodrigues_formula_residual,
    sturm_liouville_residual,
)

pair = laguerre_family(Fraction(1, 2))
N = 5

# 1. Differential equation: phi C'' + (psi + (n - nu) phi') C' + mu C = 0,
# checked by computing the residual and asking for the zero polynomial.
print("ode residuals for n =", N)
for nu in range(N + 1):
    res = ode_residual(pair, N, nu)
    print(f"  nu={nu}: residual = {res}")

# 2. The self-adjoint form trades the explicit derivatives for pairings
# against the moment functional: its residual is a functional, and every
# moment of it, read here through probe degree 2n+4, is zero.
print("sturm-liouville residuals, probe depth 2n+4")
for nu in range(N + 1):
    res = sturm_liouville_residual(pair, N, nu).moments(2 * N + 4)
    print(f"  nu={nu}: all pairings zero = {all(v == 0 for v in res)}")

# 3. Functional Rodrigues: C_nu u_{n-nu} is the nu-th derivative of the
# functional u_n, checked through moment depth 2n+4 for every row.
checks = [all(v == 0 for v in rodrigues_formula_residual(pair, N, nu, 0).moments(2 * N + 4))
          for nu in range(N + 1)]
print("rodrigues pairing identity holds:", all(checks))

# 4. Ladder: d/dx C_n = -mu_{n,n} C_{n-1} and so on down the row, which
# compounds into an exact proportionality constant (None would mean there is
# none, a counterexample).
ratio = derivative_proportionality(pair, N, 2)
print("second derivative of the diagonal, rescaled:",
      complementary(pair, N, N).derivative(2) * ratio
      == complementary(pair, N, N - 2))
print("the constant is 1 / prod(-mu):", ratio,
      "=", 1 / ((-mu_eigenvalue(pair, N, N)) * (-mu_eigenvalue(pair, N, N - 1))))
