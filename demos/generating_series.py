"""
One generating function, computed two ways
==========================================

The complementary rows C_nu(x; n) are collected into a formal series

    G(x, y; n) = sum_nu C_nu(x; n) y^nu / nu!

which the library can build either by running the recursion row by row
or by expanding a closed product of the form

    (1 + y phi' + y^2 phi phi''/2)^n * (weight ratio).

Both paths must agree coefficient by coefficient, and the series also
satisfies a family of differential equations in x and y whose residuals
vanish identically.
"""

from fractions import Fraction

from copoly import (
    genfun_closed_form,
    genfun_truncated,
    hermite_family,
    jacobi_family,
    pair_from_family,
    pde_residual,
)

ORDER = 8

# Hermite first: phi = 1 kills the phi-dependent factor entirely, so G
# does not depend on n at all.  The closed form is exp(-2xy - y^2).
pair = pair_from_family(hermite_family(), max_order=2 * ORDER)
recursion = genfun_truncated(pair, 3, ORDER)
closed = genfun_closed_form(pair, 3, ORDER)
print("hermite, n=3, order", ORDER)
for k in range(5):
    print(f"  y^{k}: {recursion.coeff(k)}")
print("  closed form agrees:", recursion == closed)
print("  same series at n=7:", closed == genfun_closed_form(pair, 7, ORDER))
print()

# Legendre at n=1 is the one case where the series terminates: the exact
# generating function is the polynomial 1 - 2xy - (1 - x^2) y^2.
pair = pair_from_family(jacobi_family(0, 0), max_order=2 * ORDER)
g1 = genfun_closed_form(pair, 1, ORDER)
print("legendre, n=1 coefficients:", [str(g1.coeff(k)) for k in range(4)])
print()

# Every identity in the catalogue has a zero residual; one call returns
# them all.  Each residual comes back as a series one order shorter than
# the input.
pair = pair_from_family(jacobi_family(Fraction(1, 3), 2), max_order=4 * ORDER)
print("jacobi(1/3, 2), n=2 residuals at order", ORDER)
for token, res in pde_residual(pair, 2, ORDER).items():
    print(f"  {token:<8} order={res.order}  zero={res.is_zero}")
