"""Gram-Schmidt reference construction and the two-path cross-check."""

from __future__ import annotations

from fractions import Fraction

import pytest

from copoly import (
    MismatchError,
    MomentFunctional,
    NotQuasiDefinite,
    Poly,
    complementary,
    cross_validate,
    gram_schmidt_ops,
    hankel_determinant,
    laguerre_family,
    orthogonality_matrix,
    pair_from_family,
    three_term_coefficients,
)


class TestGramSchmidt:
    def test_degree_zero(self, hermite_pair):
        ops = gram_schmidt_ops(hermite_pair.u, 0)
        assert ops.polys == (Poly.one(),)
        assert ops.norms == (Fraction(1),)

    def test_hermite_through_degree_two(self, hermite_pair):
        ops = gram_schmidt_ops(hermite_pair.u, 2)
        assert ops.polys == (Poly.one(), Poly.x(), Poly([Fraction(-1, 2), 0, 1]))
        assert ops.norms == (1, Fraction(1, 2), Fraction(1, 2))

    def test_legendre_through_degree_two(self, legendre_pair):
        ops = gram_schmidt_ops(legendre_pair.u, 2)
        assert ops.polys[2] == Poly([Fraction(-1, 3), 0, 1])

    def test_polys_are_monic(self, jacobi_pair):
        ops = gram_schmidt_ops(jacobi_pair.u, 8)
        assert all(p.leading_coefficient == 1 for p in ops.polys)

    def test_negative_n(self, hermite_pair):
        with pytest.raises(IndexError):
            gram_schmidt_ops(hermite_pair.u, -1)

    @pytest.mark.parametrize("rule, level", [
        # a unit mass at x = 1 degenerates at the first level
        (lambda k, pre: Fraction(1), 1),
        # unit masses at x = -1 and x = 1 carry degrees 0 and 1 only
        (lambda k, pre: Fraction(1 - k % 2), 2),
    ], ids=["one-point", "two-point"])
    def test_point_mass_not_quasi_definite(self, rule, level):
        with pytest.raises(NotQuasiDefinite) as exc:
            gram_schmidt_ops(MomentFunctional(rule=rule), 2)
        assert exc.value.level == level

    def test_norm_equals_hankel_ratio(self, family_pairs):
        for pair in family_pairs.values():
            ops = gram_schmidt_ops(pair.u, 10)
            for m in range(1, 11):
                ratio = hankel_determinant(pair.u, m) / hankel_determinant(pair.u, m - 1)
                assert ops.norms[m] == ratio


class TestOrthogonalityMatrix:
    def test_single_constant(self, hermite_pair):
        assert orthogonality_matrix(hermite_pair.u, (Poly.one(),)) == [[1]]

    def test_hermite_diagonal(self, hermite_pair):
        ops = gram_schmidt_ops(hermite_pair.u, 2)
        g = orthogonality_matrix(hermite_pair.u, ops.polys)
        assert g == [[1, 0, 0], [0, Fraction(1, 2), 0], [0, 0, Fraction(1, 2)]]

    def test_gs_gram_is_diagonal(self, family_pairs):
        for pair in family_pairs.values():
            ops = gram_schmidt_ops(pair.u, 6)
            g = orthogonality_matrix(pair.u, ops.polys)
            for i in range(7):
                for j in range(7):
                    if i == j:
                        assert g[i][j] == ops.norms[i] != 0
                    else:
                        assert g[i][j] == 0

    def test_mixed_rows_of_one_table_not_orthogonal(self):
        # Rows of a single table mix different weights; only the diagonal
        # across tables forms the orthogonal family.
        from copoly import complementary_table

        pair = pair_from_family(laguerre_family(0), max_order=24)
        table = complementary_table(pair, 2)
        g = orthogonality_matrix(pair.u, table.rows)
        assert g[0][1] == 1  # <u, 2 - x> with u_1 = 1


class TestThreeTerm:
    def test_hermite_coefficients(self, hermite_pair):
        ops = gram_schmidt_ops(hermite_pair.u, 2)
        coeffs = three_term_coefficients(ops)
        assert coeffs == [(0, 0), (0, Fraction(1, 2)), (0, 1)]

    def test_legendre_first_offdiagonal(self, legendre_pair):
        ops = gram_schmidt_ops(legendre_pair.u, 1)
        coeffs = three_term_coefficients(ops)
        assert coeffs[0] == (0, 0)
        assert coeffs[1] == (0, Fraction(1, 3))

    def test_reconstruction(self, family_pairs):
        # P_{m+1} = (x - a_m) P_m - b_m P_{m-1} holds degree by degree.
        for pair in family_pairs.values():
            ops = gram_schmidt_ops(pair.u, 8)
            coeffs = three_term_coefficients(ops)
            for m in range(8):
                a, b = coeffs[m]
                prev = ops.polys[m - 1] if m else Poly.zero()
                rebuilt = (Poly.x() - a) * ops.polys[m] - b * prev
                assert rebuilt == ops.polys[m + 1]


class TestCrossValidate:
    def test_hermite_leading_coefficients(self, hermite_pair):
        # The diagonal rows carry the Rodrigues normalization (-2)**m that
        # cross_validate divides out before comparing.
        for m in range(7):
            assert complementary(hermite_pair, m, m).leading_coefficient == Fraction(-2) ** m
        cross_validate(hermite_pair, gram_schmidt_ops(hermite_pair.u, 6))

    def test_all_families_agree(self, family_pairs):
        for pair in family_pairs.values():
            assert all(complementary(pair, m, m).leading_coefficient != 0 for m in range(9))
            cross_validate(pair, gram_schmidt_ops(pair.u, 8))

    def test_mismatch_names_first_degree(self, hermite_pair, legendre_pair):
        # Degrees 0 and 1 are 1 and x for both families; degree 2 differs.
        with pytest.raises(MismatchError) as exc:
            cross_validate(hermite_pair, gram_schmidt_ops(legendre_pair.u, 3))
        assert exc.value.degree == 2
