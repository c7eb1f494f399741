"""The moment-only constructions (Chebyshev, Gram-Schmidt) and the two-path cross-check."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import oracles
from conftest import moments_by_index, rationals, small_polys
from copoly import (
    AdmissibilityViolation,
    ClassicalPair,
    MomentFunctional,
    NotQuasiDefinite,
    Poly,
    bessel_family,
    chebyshev_ops,
    complementary,
    cross_validate,
    functional_apply,
    gram_schmidt_ops,
    hankel_determinant,
    hermite_family,
    jacobi_family,
    laguerre_family,
    moments_from_pearson,
    orthogonality_matrix,
    parse_poly_expr,
    three_term_coefficients,
)

POINT_MASSES = [
    # a unit mass at x = 1 degenerates at the first level
    pytest.param(lambda k: Fraction(1), 1, id="one-point"),
    # unit masses at x = -1 and x = 1 carry degrees 0 and 1 only
    pytest.param(lambda k: Fraction(1 - k % 2), 2, id="two-point"),
]


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

    @pytest.mark.parametrize("moment, level", POINT_MASSES)
    def test_point_mass_not_quasi_definite(self, moment, level):
        with pytest.raises(NotQuasiDefinite) as exc:
            gram_schmidt_ops(moments_by_index(moment), 2)
        assert exc.value.level == level

    def test_norm_equals_hankel_ratio(self, family_pairs):
        for pair in family_pairs.values():
            ops = gram_schmidt_ops(pair.u, 10)
            for m in range(1, 11):
                ratio = hankel_determinant(pair.u, m) / hankel_determinant(pair.u, m - 1)
                assert ops.norms[m] == ratio


DEEP_PAIRS = [
    pytest.param(hermite_family, id="hermite"),
    pytest.param(lambda: laguerre_family("4/3"), id="laguerre-4/3"),
    pytest.param(lambda: jacobi_family("1/3", "4/3"), id="jacobi-1/3-4/3"),
    pytest.param(lambda: bessel_family("7/3"), id="bessel-7/3"),
    pytest.param(lambda: ClassicalPair(parse_poly_expr("3 - x + 2*x^2"),
                                       parse_poly_expr("1 + 5*x")), id="custom"),
    # every coefficient over its own prime: the costly shape for one common denominator
    pytest.param(lambda: ClassicalPair(parse_poly_expr("127/113+109/107*x+103/101*x^2"),
                                       parse_poly_expr("97/89+83/79*x")), id="five-prime"),
]


def _sequence(build, u, n):
    """``(polys, norms)`` of ``build(u, n)``, or the level it reports as vanishing."""
    try:
        ops = build(u, n)
    except NotQuasiDefinite as exc:
        return exc.level
    return ops.polys, ops.norms


class TestChebyshev:
    """The Chebyshev algorithm against the Gram-Schmidt reference."""

    def test_catalog_families(self, family_pairs):
        for pair in family_pairs.values():
            assert (_sequence(chebyshev_ops, pair.u, 10)
                    == _sequence(gram_schmidt_ops, pair.u, 10))

    @given(rationals(), rationals(), rationals(), rationals().filter(bool), rationals(),
           rationals(), st.integers(min_value=0, max_value=8))
    def test_random_pearson_pairs(self, a, b, c, d, e, u0, n):
        try:
            u = moments_from_pearson(Poly([c, b, a]), Poly([e, d]), u0, max_order=2 * n + 1)
        except AdmissibilityViolation:
            assume(False)
        assert _sequence(chebyshev_ops, u, n) == _sequence(gram_schmidt_ops, u, n)

    @given(st.integers(min_value=0, max_value=8), st.data())
    def test_random_moments(self, n, data):
        # small integers make a vanishing norm common at every level
        moments = data.draw(st.lists(st.integers(-2, 2) | rationals(), min_size=2 * n + 1,
                                     max_size=2 * n + 1))
        u = MomentFunctional(initial=moments)
        assert _sequence(chebyshev_ops, u, n) == _sequence(gram_schmidt_ops, u, n)

    @pytest.mark.parametrize("build", DEEP_PAIRS)
    def test_matches_fraction_reference_at_depth(self, build):
        u = build().u
        ops = chebyshev_ops(u, 24)
        assert (ops.polys, ops.norms) == oracles.chebyshev_fraction(u, 24)

    def test_same_level_as_fraction_reference(self):
        u = laguerre_family(-2).u
        levels = []
        for build in (chebyshev_ops, oracles.chebyshev_fraction):
            with pytest.raises(NotQuasiDefinite) as exc:
                build(u, 24)
            levels.append(exc.value.level)
        assert levels == [2, 2]

    @pytest.mark.parametrize("moment, level", POINT_MASSES)
    def test_point_mass_not_quasi_definite(self, moment, level):
        with pytest.raises(NotQuasiDefinite) as exc:
            chebyshev_ops(moments_by_index(moment), 2)
        assert exc.value.level == level

    def test_reads_only_the_first_two_n_plus_one_moments(self, jacobi_pair):
        u = MomentFunctional(initial=jacobi_pair.u.moments(12))
        assert _sequence(chebyshev_ops, u, 6) == _sequence(gram_schmidt_ops, jacobi_pair.u, 6)

    def test_degree_zero(self, hermite_pair):
        ops = chebyshev_ops(hermite_pair.u, 0)
        assert (ops.polys, ops.norms, ops.functional) == ((Poly.one(),), (1,), hermite_pair.u)

    def test_negative_n(self, hermite_pair):
        with pytest.raises(IndexError):
            chebyshev_ops(hermite_pair.u, -1)


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

    @given(st.lists(small_polys(5), max_size=6), st.data())
    def test_matches_pairing_entry_by_entry(self, polys, data):
        # a finite functional: reading past moment 2 * max degree would raise
        top = max((p.degree for p in polys if p), default=0)
        u = MomentFunctional(initial=data.draw(st.lists(rationals(), min_size=2 * top + 1,
                                                        max_size=2 * top + 1)))
        assert orthogonality_matrix(u, polys) == [
            [functional_apply(u, p * q) for q in polys] for p in polys]

    def test_mixed_rows_of_one_table_not_orthogonal(self):
        # Rows of a single table mix different weights; only the diagonal
        # across tables forms the orthogonal family.
        pair = laguerre_family(0)
        g = orthogonality_matrix(pair.u, pair.rows(2, 2))
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
        assert cross_validate(hermite_pair, gram_schmidt_ops(hermite_pair.u, 6)) is None

    def test_all_families_agree(self, family_pairs):
        for pair in family_pairs.values():
            assert all(complementary(pair, m, m).leading_coefficient != 0 for m in range(9))
            assert cross_validate(pair, gram_schmidt_ops(pair.u, 8)) is None

    def test_mismatch_names_first_degree(self, hermite_pair, legendre_pair):
        # Degrees 0 and 1 are 1 and x for both families; degree 2 differs.
        assert cross_validate(hermite_pair, gram_schmidt_ops(legendre_pair.u, 3)) == 2
