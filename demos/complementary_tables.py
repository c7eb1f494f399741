"""
Complementary polynomial tables for the four built-in families
==============================================================

Each weight family is a pair (phi, psi) with deg phi <= 2 and deg psi = 1.
Fixing a table size n, the rows C_0, ..., C_n are produced by the
first-order recursion

    C_0 = 1,   C_{nu+1} = phi * C_nu' + (psi + (n - nu - 1) phi') * C_nu,

and the diagonal row C_n(x; n) is the classical orthogonal polynomial of
degree n (up to normalization).  Everything below is exact rational
arithmetic; there is not a single float in sight.
"""

from fractions import Fraction

from copoly import (
    bessel_family,
    hermite_family,
    jacobi_family,
    laguerre_family,
    lambda_n,
    mu_eigenvalue,
)

FAMILIES = [
    hermite_family(),
    laguerre_family(Fraction(1, 2)),
    jacobi_family(Fraction(1, 3), 2),
    bessel_family(1),
]

N = 4

for pair in FAMILIES:
    params = ", ".join(f"{k}={v}" for k, v in sorted(pair.params.items()))
    print(f"== {pair.name} ({params or 'no parameters'})")
    print(f"   phi = {pair.phi},  psi = {pair.psi},  lambda_{N} = {lambda_n(pair, N)}")
    for nu, row in enumerate(pair.rows(N, N)):
        mu = mu_eigenvalue(pair, N, nu)
        print(f"   nu={nu}  mu={str(mu):>6}  C_{nu}(x;{N}) = {row}")
    print()

# The first row past C_0 is always (n-1) phi' + psi, whatever the family:
pair = jacobi_family(0, 0)
for n in range(1, 5):
    print(f"legendre C_1(x;{n}) = {pair.rows(n, 1)[1]}")
