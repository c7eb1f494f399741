"""Moment functionals and the distributional calculus around them."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import oracles
from conftest import moments_by_index, rationals, small_polys
from copoly import (
    AdmissibilityViolation,
    InvalidParameter,
    MomentFunctional,
    Poly,
    bessel_family,
    functional_apply,
    functional_derivative,
    functional_div_linear,
    functional_poly_mul,
    hankel_determinant,
    hankel_minors,
    jacobi_family,
    laguerre_family,
    leibniz_residual,
    moments_from_pearson,
    pearson_residual,
)
import copoly.functional

PHI_PSI = {
    "hermite": (Poly([1]), Poly([0, -2])),
    "laguerre": (Poly([0, 1]), Poly([Fraction(3, 2), -1])),
    "jacobi": (Poly([1, 0, -1]), Poly([Fraction(5, 3), Fraction(-13, 3)])),
    "bessel": (Poly([0, 0, 1]), Poly([2, 3])),
    "legendre": (Poly([1, 0, -1]), Poly([0, -2])),
}

ORACLE_MOMENTS = {
    "hermite": oracles.gaussian_moment,
    "laguerre": lambda k: oracles.gamma_moment(Fraction(1, 2), k),
    "jacobi": lambda k: oracles.jacobi_moment(Fraction(1, 3), 2, k),
    "bessel": lambda k: oracles.bessel_moment(1, k),
    "legendre": oracles.uniform_moment,
}


class TestMomentFunctional:
    def test_from_moments_prefix(self):
        u = MomentFunctional(initial=[1, 2, 5])
        assert u.moments(2) == [1, 2, 5]

    def test_reading_past_prefix_without_rule(self):
        u = MomentFunctional(initial=[1])
        with pytest.raises(ValueError):
            u.moment(1)

    def test_negative_index(self):
        u = MomentFunctional(initial=[1])
        with pytest.raises(IndexError):
            u.moment(-1)

    def test_empty_without_rule_rejected(self):
        with pytest.raises(ValueError):
            MomentFunctional()

    def test_rule_extension(self):
        u = moments_by_index(lambda k: Fraction(2) ** k)
        assert u.moment(5) == 32

    def test_rule_sees_prefix(self):
        # u_k = u_{k-1} + k: the block reads the functional's own stored prefix
        def block(u, lo, hi):
            den, nums = u._form(lo - 1)
            out = [nums[lo - 1]]
            for k in range(lo, hi + 1):
                out.append(out[-1] + k * den)
            return den, out[1:]
        u = MomentFunctional(initial=[1], block=block)
        assert u.moment(1) == 2
        assert u.moments(3) == [1, 2, 4, 7]

    def test_linear_combinations(self):
        u = MomentFunctional(initial=[1, 2, 5])
        v = MomentFunctional(initial=[1, 0, 1])
        assert (u + v).moments(2) == [2, 2, 6]
        assert (u - v).moments(2) == [0, 2, 4]
        assert (-u).moments(2) == [-1, -2, -5]
        assert (3 * u).moments(2) == [3, 6, 15]
        assert (u * Fraction(1, 2)).moments(2) == [Fraction(1, 2), 1, Fraction(5, 2)]

    def test_float_scalar_rejected(self):
        u = MomentFunctional(initial=[1])
        with pytest.raises(TypeError):
            0.5 * u

    def test_construction_computes_nothing(self):
        calls = []

        def block(_, lo, hi):
            calls.append((lo, hi))
            return 1, [1] * (hi - lo + 1)
        u = MomentFunctional(block=block)
        v = functional_derivative(functional_poly_mul(Poly.x(), u) + u)
        assert calls == []
        # the first read fills u_0 .. u_2 in one call
        assert v.moment(2) == -4
        assert calls == [(0, 2)]


def _reference_moments(h: Poly, p: Poly, c: Fraction, base: list[Fraction]):
    """The derived functionals of ``test_block_fill_matches_per_index_rules``,
    moment by moment from their definitions, on lists of 13 moments."""
    mul = [sum(hj * base[k + j] for j, hj in enumerate(h.coeffs)) for k in range(14)]
    deriv = [-k * mul[k - 1] if k else Fraction(0) for k in range(13)]
    plus = [d + sum(pj * base[k + j] for j, pj in enumerate(p.coeffs))
            for k, d in enumerate(deriv)]
    minus = [v - b for v, b in zip(plus, base)]
    return [mul[:13], deriv, plus, minus, [-v for v in minus], [c * -v for v in minus]]


class TestBlockFill:
    """Derived functionals fill whole ranges at once; the moments must not depend on that."""

    @given(small_polys(3), small_polys(3), rationals(),
           st.lists(rationals(), min_size=17, max_size=17),
           st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=5))
    def test_block_fill_matches_per_index_rules(self, h, p, c, base, first, which):
        u = MomentFunctional(initial=base)
        mul = functional_poly_mul(h, u)
        deriv = functional_derivative(mul)
        plus = deriv + functional_poly_mul(p, u)
        minus = plus - u
        derived = [mul, deriv, plus, minus, -minus, c * -minus]
        # one functional is read at one index first; the rest fill around it
        derived[which].moment(first)
        derived[which].moment(7)
        assert [v.moments(12) for v in derived] == _reference_moments(h, p, c, base)

    def test_reading_past_a_finite_prefix_raises(self):
        u = MomentFunctional(initial=[1, 2, 5])
        shifted = functional_poly_mul(Poly.x(), u)
        for derived in (shifted, functional_derivative(u), u + u, u - shifted, -u, 2 * u):
            with pytest.raises(ValueError):
                derived.moments(4)
        # a failed read leaves the functional as it was
        assert shifted.moments(1) == [2, 5]
        with pytest.raises(ValueError):
            shifted.moment(2)


class TestApply:
    def test_constant(self, hermite_pair):
        assert functional_apply(hermite_pair.u, Poly.one()) == 1

    def test_x_squared(self, hermite_pair):
        assert functional_apply(hermite_pair.u, Poly.monomial(2)) == Fraction(1, 2)

    def test_h1_squared(self, hermite_pair):
        assert functional_apply(hermite_pair.u, Poly.monomial(2, 4)) == 2

    def test_zero_polynomial(self, hermite_pair):
        assert functional_apply(hermite_pair.u, Poly.zero()) == 0

    @given(small_polys(4), small_polys(4))
    def test_linearity_in_p(self, p, q):
        u = moments_by_index(lambda k: Fraction(1, k + 1))
        assert functional_apply(u, p + q) == functional_apply(u, p) + functional_apply(u, q)


class TestDerivative:
    def test_kills_constants(self, hermite_pair):
        assert functional_derivative(hermite_pair.u).moment(0) == 0

    def test_hermite_values(self, hermite_pair):
        v = functional_derivative(hermite_pair.u)
        assert v.moment(1) == -1
        assert v.moment(3) == Fraction(-3, 2)

    @given(small_polys(4))
    def test_anti_duality(self, p):
        # <u', p> = -<u, p'>
        u = moments_by_index(lambda k: Fraction((-1) ** k, k + 2))
        lhs = functional_apply(functional_derivative(u), p)
        assert lhs == -functional_apply(u, p.derivative())


def pearson_functionals() -> st.SearchStrategy[MomentFunctional]:
    """Moment functionals of random admissible Pearson pairs."""
    def build(coeffs):
        a, b, c, d, e = coeffs
        assume(d != 0 and all(d + k * a != 0 for k in range(20)))
        return moments_from_pearson(Poly([c, b, a]), Poly([e, d]), 1, 20)
    return st.tuples(*[rationals()] * 5).map(build)


class TestKFoldDerivative:
    """``functional_derivative(u, t)`` is the closed form of ``t`` single derivatives."""

    @given(pearson_functionals(), st.integers(0, 6), st.integers(0, 12))
    def test_matches_chained_single_derivatives(self, u, times, first):
        chained = u
        for _ in range(times):
            chained = functional_derivative(chained)
        fused = functional_derivative(u, times)
        # one moment is read first; the rest fill around it
        fused.moment(first)
        assert fused.moments(12) == chained.moments(12)

    def test_zero_below_the_order(self, hermite_pair):
        # v_k = (-1)^3 k!/(k-3)! u_{k-3}; the Gaussian u_0 = 1, u_2 = 1/2
        v = functional_derivative(hermite_pair.u, 3)
        assert v.moments(5) == [0, 0, 0, -6, 0, -30]

    def test_reading_past_a_finite_prefix_raises(self):
        u = MomentFunctional(initial=[1, 2, 5, 7])
        chained = u
        for times in range(4):
            derived = functional_derivative(u, times)
            assert derived.moments(3 + times) == chained.moments(3 + times)
            with pytest.raises(ValueError):
                derived.moment(4 + times)
            chained = functional_derivative(chained)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            functional_derivative(MomentFunctional(initial=[1]), -1)


class TestPolyMul:
    def test_identity(self, hermite_pair):
        v = functional_poly_mul(Poly.one(), hermite_pair.u)
        assert v.moments(6) == hermite_pair.u.moments(6)

    def test_shift_by_x(self, hermite_pair):
        v = functional_poly_mul(Poly.x(), hermite_pair.u)
        assert v.moment(1) == Fraction(1, 2)
        assert v.moments(4) == hermite_pair.u.moments(5)[1:]

    def test_legendre_weight_polynomial(self, legendre_pair):
        v = functional_poly_mul(Poly([1, 0, -1]), legendre_pair.u)
        assert v.moment(0) == Fraction(2, 3)

    @given(small_polys(3), small_polys(3))
    def test_adjoint_of_multiplication(self, h, p):
        u = moments_by_index(lambda k: Fraction(k + 1, k + 3))
        lhs = functional_apply(functional_poly_mul(h, u), p)
        assert lhs == functional_apply(u, h * p)


class TestDivLinear:
    def test_index_zero_vanishes(self, hermite_pair):
        assert functional_div_linear(5, hermite_pair.u).moment(0) == 0

    def test_at_origin(self, hermite_pair):
        v = functional_div_linear(0, hermite_pair.u)
        assert v.moment(2) == 0  # u_1

    def test_shifted_point(self):
        u = MomentFunctional(initial=[1, 2, 5])
        v = functional_div_linear(1, u)
        assert v.moment(2) == 3

    @given(rationals(5, 4), st.lists(rationals(), min_size=1, max_size=10))
    def test_matches_explicit_sum(self, c, moments):
        v = functional_div_linear(c, MomentFunctional(initial=moments))
        assert v.moments(len(moments)) == [
            sum((c ** (k - 1 - j) * moments[j] for j in range(k)), Fraction(0))
            for k in range(len(moments) + 1)]

    @given(rationals(5, 4), st.integers(min_value=1, max_value=8))
    def test_multiplication_section(self, c, k):
        # Multiplying back by (x - c) restores every moment of index >= 1.
        u = moments_by_index(lambda m: Fraction(3, m + 1))
        v = functional_poly_mul(Poly([-c, 1]), functional_div_linear(c, u))
        assert v.moment(k) == u.moment(k)

    def test_bessel_moments_match_the_fraction_recurrence(self):
        # Bessel moments gain a new denominator factor at almost every index
        spec = bessel_family(Fraction(1, 3))
        c = Fraction(-5, 7)
        parent = _pearson_reference(spec.phi, spec.psi, spec.u0, 59)
        expected = [Fraction(0)]
        for k in range(1, 61):
            expected.append(c * expected[-1] + parent[k - 1])
        one_at_a_time, whole = (functional_div_linear(c, moments_from_pearson(
            spec.phi, spec.psi, spec.u0, 8)) for _ in range(2))
        assert [one_at_a_time.moment(k) for k in range(61)] == expected
        assert whole.moments(60) == expected
        for v in (one_at_a_time, whole):
            _assert_stored_form(v)
        assert (one_at_a_time._den, one_at_a_time._nums) == (whole._den, whole._nums)

    def test_reading_past_a_finite_parent_raises(self):
        v = functional_div_linear(Fraction(2, 3), MomentFunctional(initial=[1, 2, 5]))
        with pytest.raises(ValueError):
            v.moments(4)
        # v_1 = 1, v_2 = 2/3 + 2, v_3 = (2/3) v_2 + 5
        assert v.moments(3) == [0, 1, Fraction(8, 3), Fraction(61, 9)]
        _assert_stored_form(v)


class TestLeibniz:
    def test_constant_p(self, hermite_pair):
        assert leibniz_residual(Poly.one(), hermite_pair.u).moments(5) == [0] * 6

    def test_linear_p_hermite(self, hermite_pair):
        assert leibniz_residual(Poly.x(), hermite_pair.u).moments(4) == [0] * 5

    def test_quadratic_p_legendre(self, legendre_pair):
        assert leibniz_residual(Poly.monomial(2), legendre_pair.u).moments(6) == [0] * 7

    @given(small_polys(4))
    def test_any_polynomial(self, p):
        u = moments_by_index(lambda k: Fraction(1, 2) ** k)
        assert leibniz_residual(p, u).moments(6) == [0] * 7


class TestMomentsFromPearson:
    def test_hermite_prefix(self):
        phi, psi = PHI_PSI["hermite"]
        u = moments_from_pearson(phi, psi, 1, max_order=16)
        assert u.moments(6) == [1, 0, Fraction(1, 2), 0, Fraction(3, 4), 0, Fraction(15, 8)]

    def test_laguerre_prefix(self):
        phi, psi = PHI_PSI["laguerre"]
        u = moments_from_pearson(phi, psi, 1, max_order=16)
        assert u.moment(1) == Fraction(3, 2)
        assert u.moment(2) == Fraction(15, 4)

    def test_legendre_prefix(self):
        phi, psi = PHI_PSI["legendre"]
        u = moments_from_pearson(phi, psi, 1, max_order=16)
        assert u.moment(1) == 0
        assert u.moment(2) == Fraction(1, 3)
        assert u.moment(4) == Fraction(1, 5)

    @pytest.mark.parametrize("name", sorted(PHI_PSI))
    def test_against_closed_form_oracle(self, name):
        phi, psi = PHI_PSI[name]
        u = moments_from_pearson(phi, psi, 1, max_order=16)
        oracle = ORACLE_MOMENTS[name]
        assert u.moments(12) == [oracle(k) for k in range(13)]

    def test_u0_scaling(self):
        phi, psi = PHI_PSI["hermite"]
        u = moments_from_pearson(phi, psi, Fraction(2, 3), max_order=8)
        assert u.moments(2) == [Fraction(2, 3), 0, Fraction(1, 3)]

    def test_phi_degree_validated(self):
        with pytest.raises(InvalidParameter):
            moments_from_pearson(Poly.monomial(3), Poly([0, -2]), 1, max_order=4)

    def test_psi_degree_validated(self):
        with pytest.raises(InvalidParameter):
            moments_from_pearson(Poly.one(), Poly([3]), 1, max_order=4)
        with pytest.raises(InvalidParameter):
            moments_from_pearson(Poly.one(), Poly([0, 0, 1]), 1, max_order=4)

    def test_bessel_admissibility_failure(self):
        # (alpha + 2) + k = 0 at k = 3 when alpha = -5
        phi, psi = Poly([0, 0, 1]), Poly([2, -3])
        with pytest.raises(AdmissibilityViolation) as exc:
            moments_from_pearson(phi, psi, 1, max_order=8)
        assert exc.value.k == 3
        assert "k = 3" in str(exc.value)

    def test_admissibility_checked_lazily_past_max_order(self):
        # u_{k+1} = 2 u_k / (3 - k), so the prefix is fine but u_4 divides by 0
        phi, psi = Poly([0, 0, 1]), Poly([2, -3])
        u = moments_from_pearson(phi, psi, 1, max_order=3)
        assert u.moments(3) == [1, Fraction(2, 3), Fraction(2, 3), Fraction(4, 3)]
        with pytest.raises(AdmissibilityViolation) as exc:
            u.moment(4)
        assert exc.value.k == 3

    def test_bessel_alpha_zero_is_admissible(self):
        # (alpha + 2) + k = 2 + k never vanishes for k >= 0
        phi, psi = Poly([0, 0, 1]), Poly([2, 2])
        u = moments_from_pearson(phi, psi, 1, max_order=40)
        assert u.moment(40) == oracles.bessel_moment(0, 40)


def _assert_stored_form(u: MomentFunctional):
    """The prefix is integer numerators over one positive denominator, reduced."""
    den, nums = u._den, u._nums
    assert type(den) is int and den > 0
    assert all(type(v) is int for v in nums)
    assert gcd(den, *nums) == 1


def _pearson_reference(phi: Poly, psi: Poly, u0: Fraction, top: int) -> list[Fraction]:
    """``u_0 .. u_top`` of ``(phi u)' = psi u``, one ``Fraction`` step at a time."""
    a, b, c = phi.coefficient(2), phi.coefficient(1), phi.coefficient(0)
    d, e = psi.coefficient(1), psi.coefficient(0)
    out = [Fraction(u0)]
    for k in range(top):
        total = (e + k * b) * out[k] + (k * c * out[k - 1] if k else 0)
        out.append(-total / (d + k * a))
    return out


class TestStoredForm:
    """Moments are stored as integers over one denominator and read as reduced ``Fraction``s."""

    @pytest.mark.parametrize("spec", [bessel_family(Fraction(1, 3)),
                                      jacobi_family(Fraction(1, 3), Fraction(4, 3))],
                             ids=["bessel", "jacobi"])
    def test_growing_denominators_match_the_fraction_recurrence(self, spec):
        expected = _pearson_reference(spec.phi, spec.psi, spec.u0, 60)
        whole = moments_from_pearson(spec.phi, spec.psi, spec.u0, max_order=8)
        assert whole.moments(60) == expected
        _assert_stored_form(whole)
        # the same prefix filled in uneven pieces, each merged over a new denominator
        pieces = moments_from_pearson(spec.phi, spec.psi, spec.u0, max_order=8)
        for k in (1, 2, 7, 8, 23, 60):
            assert pieces.moment(k) == expected[k]
            _assert_stored_form(pieces)
        assert (pieces._den, pieces._nums) == (whole._den, whole._nums)
        assert all(type(m) is Fraction for m in pieces.moments(60))

    def test_rule_whose_denominator_changes_every_step(self):
        expected = []
        for k in range(41):
            below = expected[-1] * Fraction(k, 2 * k + 3) if k else 0
            expected.append(Fraction(1, k + 2) + below)
        u = moments_by_index(expected.__getitem__)
        assert u.moment(5) == expected[5]
        assert u.moments(40) == expected
        _assert_stored_form(u)

    def test_derived_functionals_are_stored_reduced(self, jacobi_pair):
        u = jacobi_pair.u
        h = Poly([Fraction(1, 6), 0, Fraction(3, 4)])
        derived = [functional_poly_mul(h, u), functional_derivative(u, 3), u - 2 * u,
                   Fraction(6, 7) * u, leibniz_residual(h, u)]
        for v in derived:
            v.moments(20)
            _assert_stored_form(v)
        assert derived[-1]._nums[:21] == [0] * 21

    def test_initial_prefix_is_stored_reduced(self):
        u = MomentFunctional(initial=[Fraction(2, 4), 3, Fraction(-5, 6)])
        assert (u._den, u._nums) == (6, [3, 18, -5])
        assert u.moments(2) == [Fraction(1, 2), 3, Fraction(-5, 6)]

    def test_block_alone_converts_nothing(self, monkeypatch):
        u = MomentFunctional(initial=[1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)])

        def refuse(values):
            raise AssertionError("a functional built from a block converted its prefix")
        monkeypatch.setattr(copoly.functional, "_integer_form", refuse)
        derivative = functional_derivative(u)
        shifted = functional_poly_mul(Poly.x(), u)  # x u has the moments u_{k+1}
        combination = copoly.functional._combination([(1, u), (-2, shifted)])
        assert (derivative._den, derivative._nums) == (1, [])
        assert derivative.moments(3) == [0, -1, -1, -1]
        assert combination.moments(2) == [0, Fraction(-1, 6), Fraction(-1, 6)]

    def test_read_past_an_admissibility_violation_keeps_the_prefix(self):
        # u_{k+1} = 2 u_k / (3 - k): u_4 divides by zero
        phi, psi = Poly([0, 0, 1]), Poly([2, -3])
        u = moments_from_pearson(phi, psi, 1, max_order=3)
        with pytest.raises(AdmissibilityViolation) as exc:
            u.moment(6)
        assert exc.value.k == 3
        assert u.moments(3) == [1, Fraction(2, 3), Fraction(2, 3), Fraction(4, 3)]
        _assert_stored_form(u)


class TestPearsonResidual:
    @pytest.mark.parametrize("name", sorted(PHI_PSI))
    def test_constructed_pairs_are_consistent(self, name):
        phi, psi = PHI_PSI[name]
        u = moments_from_pearson(phi, psi, 1, max_order=24)
        assert pearson_residual(phi, psi, u).moments(10) == [0] * 11

    def test_mismatched_functional_detected(self, legendre_pair):
        phi, psi = PHI_PSI["hermite"]
        res = pearson_residual(phi, psi, legendre_pair.u).moments(2)
        assert any(r != 0 for r in res)

    def test_short_prefix_by_hand(self):
        u = MomentFunctional(initial=[1, 0, Fraction(1, 2)])
        res = pearson_residual(Poly.one(), Poly([0, -2]), u).moments(1)
        assert res == [0, 0]

    def test_pearson_degrees_are_checked(self):
        moments_from_pearson(Poly([1, 0, -1]), Poly([0, -2]), 1, 0)
        with pytest.raises(InvalidParameter, match="phi must have degree <= 2, got degree 3"):
            moments_from_pearson(Poly.monomial(3), Poly([0, 1]), 1, 0)
        with pytest.raises(InvalidParameter, match="psi must have degree exactly 1, got degree 0"):
            moments_from_pearson(Poly.one(), Poly([3]), 1, 0)


class TestHankel:
    def test_level_zero(self, hermite_pair):
        assert hankel_determinant(hermite_pair.u, 0) == 1

    def test_hermite_level_one(self, hermite_pair):
        assert hankel_determinant(hermite_pair.u, 1) == Fraction(1, 2)

    def test_legendre_level_one(self, legendre_pair):
        assert hankel_determinant(legendre_pair.u, 1) == Fraction(1, 3)

    def test_hermite_level_two_by_hand(self, hermite_pair):
        # det [[1,0,1/2],[0,1/2,0],[1/2,0,3/4]] = 1/4
        assert hankel_determinant(hermite_pair.u, 2) == Fraction(1, 4)

    @pytest.mark.parametrize("name", sorted(PHI_PSI))
    def test_nonzero_through_level_six(self, name):
        phi, psi = PHI_PSI[name]
        u = moments_from_pearson(phi, psi, 1, max_order=16)
        for level in range(7):
            assert hankel_determinant(u, level) != 0

    def test_degenerate_sequence(self):
        u = moments_by_index(lambda k: Fraction(1))
        assert hankel_determinant(u, 1) == 0


# The point-mass functionals of test_oracle.py: one unit mass at x = 1 has
# Delta_1 = 0; unit masses at x = -1 and x = 1 have Delta_2 = 0.
POINT_MASSES = [
    (lambda k: Fraction(1), [1, 0]),
    (lambda k: Fraction(1 - k % 2), [1, 1, 0]),
]


class TestHankelMinors:
    """All levels from one elimination, against one pivoting elimination per level."""

    def test_catalog_families_through_level_twelve(self, family_pairs):
        for pair in family_pairs.values():
            minors = hankel_minors(pair.u, 12)
            assert minors == [hankel_determinant(pair.u, m) for m in range(13)]

    def test_stops_at_the_first_vanishing_level(self):
        # a Pearson functional whose Delta_2 vanishes, read to the verify cap
        u = laguerre_family(-2).u
        expected = [hankel_determinant(u, m) for m in range(3)]
        assert expected[-1] == 0 != expected[-2]
        assert hankel_minors(u, 24) == expected

    @pytest.mark.parametrize("name", sorted(PHI_PSI))
    def test_pearson_pairs_through_level_twelve(self, name):
        phi, psi = PHI_PSI[name]
        u = moments_from_pearson(phi, psi, 1, max_order=26)
        assert hankel_minors(u, 12) == [hankel_determinant(u, m) for m in range(13)]

    @pytest.mark.parametrize("moment, expected", POINT_MASSES, ids=["one-point", "two-point"])
    def test_list_ends_at_the_first_zero(self, moment, expected):
        u = moments_by_index(moment)
        assert hankel_minors(u, 6) == expected
        assert expected == [hankel_determinant(u, m) for m in range(len(expected))]

    @given(st.integers(min_value=0, max_value=5), st.data())
    def test_random_moments(self, n, data):
        # small integers make vanishing minors common at every level
        moments = data.draw(st.lists(st.integers(-2, 2) | rationals(), min_size=2 * n + 1,
                                     max_size=2 * n + 1))
        u = MomentFunctional(initial=moments)
        expected = []
        for m in range(n + 1):
            expected.append(hankel_determinant(u, m))
            if expected[-1] == 0:
                break
        assert hankel_minors(u, n) == expected

    def test_reads_only_the_moments_of_h_n(self):
        u = MomentFunctional(initial=[2, 1, 3, 1, 5])
        assert hankel_minors(u, 2) == [hankel_determinant(u, m) for m in range(3)]

    def test_negative_order(self, hermite_pair):
        with pytest.raises(IndexError):
            hankel_minors(hermite_pair.u, -1)
