"""
Independent constructions of the same orthogonal sequence
=========================================================

The Chebyshev algorithm and Gram-Schmidt on the monomials only ever touch
the raw moments; the Rodrigues recursion only ever touches (phi, psi).  If
all are right, the two moment-only sequences agree, the monic rescaling of
the diagonal C_m(x; m) must land exactly on them, and the classical
three-term recurrence must reassemble the sequence from its two
coefficient lists.
"""

from fractions import Fraction

from copoly import (
    chebyshev_ops,
    complementary,
    cross_validate,
    gram_schmidt_ops,
    hankel_minors,
    hermite_family,
    jacobi_family,
    orthogonality_matrix,
    three_term_coefficients,
)

pair = hermite_family()
DEPTH = 6

ops = chebyshev_ops(pair.u, DEPTH)
print("monic hermite sequence from moments alone (Chebyshev algorithm):")
for m, p in enumerate(ops.polys):
    print(f"  P_{m} = {p},   <u, P^2> = {ops.norms[m]}")

# Gram-Schmidt reaches the same sequence by O(n^4) projections.
reference = gram_schmidt_ops(pair.u, DEPTH)
print("chebyshev and gram-schmidt sequences agree:",
      (ops.polys, ops.norms) == (reference.polys, reference.norms))

# The squared norms are ratios of consecutive Hankel determinants (with the
# empty determinant taken as 1); one elimination gives every level.
minors = [Fraction(1)] + hankel_minors(pair.u, DEPTH)
print("norms equal hankel ratios:",
      all(ops.norms[m] == minors[m + 1] / minors[m] for m in range(DEPTH + 1)))

# Orthogonality, stated as a matrix: off-diagonal pairings vanish.
gram = orthogonality_matrix(pair.u, ops.polys)
print("gram matrix is diagonal:",
      all(gram[i][j] == 0 for i in range(len(gram))
          for j in range(len(gram)) if i != j))

# Three-term recurrence P_{m+1} = (x - a_m) P_m - b_m P_{m-1}.  For the
# Gaussian weight every a_m is zero by symmetry.
coeffs = three_term_coefficients(ops)
print("recurrence coefficients (a_m, b_m):",
      [(str(a), str(b)) for a, b in coeffs[:4]])

# cross_validate does the full comparison in one call: it rescales each
# diagonal row to monic form and compares it exactly with the moment-only
# sequence it is given, returning the first degree that differs, or None.
assert cross_validate(pair, ops) is None
print("diagonals match the moment-only sequence through degree", DEPTH)
# Against another family's moments the first difference is at degree 2:
# Hermite and Legendre share the monic P_0 = 1 and P_1 = x.
legendre = jacobi_family(0, 0)
print("first degree where hermite diagonals leave legendre moments:",
      cross_validate(pair, chebyshev_ops(legendre.u, DEPTH)))
scale = complementary(pair, 3, 3).leading_coefficient
print("C_3(x;3) leading coefficient:", scale, "(the monic rescale factor)")

# Same game for a nonsymmetric family; here the a_m drift with m.
pair = jacobi_family(Fraction(1, 3), 2)
coeffs = three_term_coefficients(chebyshev_ops(pair.u, 4))
print("jacobi(1/3, 2) a_m:", [str(a) for a, _ in coeffs])
