"""Generating series: truncated sum, closed form, and the series identities."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import copoly.series
import oracles
from conftest import FIVE_PRIME, kernel_pairs
from copoly import (
    FAMILIES,
    ClassicalPair,
    PDE_IDENTITIES,
    Poly,
    SeriesYX,
    bessel_family,
    catalog_family,
    genfun_closed_form,
    genfun_phi_factor,
    genfun_truncated,
    hermite_family,
    jacobi_family,
    laguerre_family,
    pde_residual,
    verify_pair,
    weight_ratio_series,
)
from copoly.genfun import _pack, _unpack

ALPHA = Fraction(1, 2)
JA, JB = Fraction(1, 3), 2

HERMITE_ORDER2 = SeriesYX(2, [Poly.one(), Poly([0, -2]), Poly([-1, 0, 2])])


class TestTruncated:
    def test_order_zero(self, bessel_pair):
        assert genfun_truncated(bessel_pair, 3, 0) == SeriesYX.one(0)

    def test_hermite_n2_order2(self, hermite_pair):
        assert genfun_truncated(hermite_pair, 2, 2) == HERMITE_ORDER2

    def test_laguerre_n1_order1(self, laguerre_pair):
        expected = SeriesYX(1, [Poly.one(), Poly([ALPHA + 1, -1])])
        assert genfun_truncated(laguerre_pair, 1, 1) == expected

    def test_rows_divided_by_factorials(self, jacobi_pair):
        from copoly import complementary

        s = genfun_truncated(jacobi_pair, 3, 5)
        fact = 1
        for nu in range(4):
            if nu:
                fact *= nu
            assert s.coeff(nu) * fact == complementary(jacobi_pair, 3, nu)

    def test_continues_past_diagonal(self, legendre_pair):
        # Rows nu > n exist in the series; for Legendre n = 1 the whole
        # series is the polynomial 1 - 2xy - (1 - x^2) y^2.
        s = genfun_truncated(legendre_pair, 1, 4)
        assert s.coeff(2) == Poly([-1, 0, 1])
        assert s.coeff(3) == Poly.zero()
        assert s.coeff(4) == Poly.zero()


class TestPhiFactor:
    def test_hermite_is_one(self, hermite_pair):
        assert genfun_phi_factor(hermite_pair, 5, 3) == SeriesYX.one(3)

    def test_laguerre_binomial(self, laguerre_pair):
        expected = SeriesYX(2, [Poly.one(), Poly([2]), Poly.one()])
        assert genfun_phi_factor(laguerre_pair, 2, 2) == expected

    def test_jacobi_base(self, jacobi_pair):
        # 1 + y phi' + y^2 phi phi''/2 = 1 - 2xy - (1 - x^2) y^2
        expected = SeriesYX(2, [Poly.one(), Poly([0, -2]), Poly([-1, 0, 1])])
        assert genfun_phi_factor(jacobi_pair, 1, 2) == expected


class TestWeightRatio:
    def test_hermite_order2(self):
        s = weight_ratio_series(hermite_family(), 2)
        assert s == HERMITE_ORDER2

    def test_jacobi_order1(self):
        s = weight_ratio_series(jacobi_family(JA, JB), 1)
        expected = SeriesYX(1, [Poly.one(), Poly([JB - JA, -(JA + JB)])])
        assert s == expected

    def test_laguerre_order2(self):
        # (1 + y)^alpha exp(-xy)
        s = weight_ratio_series(laguerre_family(ALPHA), 2)
        assert s.coeff(0) == Poly.one()
        assert s.coeff(1) == Poly([ALPHA, -1])
        assert s.coeff(2) == Poly(
            [ALPHA * (ALPHA - 1) / 2, -ALPHA, Fraction(1, 2)]
        )

    def test_custom_unsupported(self):
        # a pair outside the catalog gets G(0) from the row recursion
        pair = ClassicalPair(Poly([1, 1]), Poly([0, 1]))
        assert weight_ratio_series(pair, 3) == genfun_truncated(pair, 0, 3)

    @pytest.mark.parametrize("name, points", [
        ("hermite", [()]),
        ("laguerre", [(ALPHA,), (Fraction(-7, 3),)]),
        ("jacobi", [(JA, JB), (Fraction(-1, 2), Fraction(5, 2))]),
        ("bessel", [(Fraction(1, 3),), (Fraction(-5, 2),)]),
    ])
    def test_catalog_ratio_is_the_rows_at_n0(self, name, points):
        # the elementary weight ratio and G(0) of the same (phi, psi) as a custom pair
        entry = FAMILIES[name]
        for values in points:
            catalog = catalog_family(name, *values)
            custom = ClassicalPair(*entry.pair(*values))
            assert weight_ratio_series(catalog, 9) == genfun_truncated(custom, 0, 9)
            assert weight_ratio_series(custom, 9) == weight_ratio_series(catalog, 9)


class TestClosedForm:
    def test_matches_truncated_all_families(self, family_pairs):
        for pair in family_pairs.values():
            for n in range(7):
                assert genfun_closed_form(pair, n, 10) == genfun_truncated(pair, n, 10)

    def test_hermite_independent_of_n(self, hermite_pair):
        assert genfun_closed_form(hermite_pair, 3, 6) == genfun_closed_form(hermite_pair, 7, 6)

    def test_laguerre_n1_order1(self, laguerre_pair):
        expected = SeriesYX(1, [Poly.one(), Poly([ALPHA + 1, -1])])
        assert genfun_closed_form(laguerre_pair, 1, 1) == expected

    def test_legendre_n1_order1(self, legendre_pair):
        expected = SeriesYX(1, [Poly.one(), Poly([0, -2])])
        assert genfun_closed_form(legendre_pair, 1, 1) == expected

    def test_custom_pair_unsupported(self):
        # supported: a custom pair's closed form is Phi^n G(0)
        pair = ClassicalPair(Poly([1, 1]), Poly([0, 1]), max_order=12)
        for n in range(6):
            assert genfun_closed_form(pair, n, 4) == genfun_truncated(pair, n, 4)

    def test_custom_pair_sees_a_perturbed_row(self):
        # a wrong G(0) row breaks Phi^n G(0) at n >= 1; at n = 0 both sides read it
        pair = ClassicalPair(Poly([3, -1, 2]), Poly([1, 5]), max_order=12)
        pair.rows(0, 6)
        pair._rows[0][2] += Poly.x()
        assert genfun_closed_form(pair, 0, 6) == genfun_truncated(pair, 0, 6)
        assert all(genfun_closed_form(pair, n, 6) != genfun_truncated(pair, n, 6)
                   for n in range(1, 5))
        # a wrong row of n = 3 shows at n = 3 only
        pair = ClassicalPair(Poly([3, -1, 2]), Poly([1, 5]), max_order=12)
        for n in range(5):
            pair.rows(n, 6)
        pair._rows[3][2] += Poly.x()
        assert [n for n in range(5)
                if genfun_closed_form(pair, n, 6) != genfun_truncated(pair, n, 6)] == [3]


class TestPdeResiduals:
    def test_all_identities_vanish_small_grid(self, family_pairs):
        for pair in family_pairs.values():
            for n in range(5):
                for which, res in pde_residual(pair, n, order=6).items():
                    assert res.order == 5
                    assert res.is_zero, (pair.name, n, which)

    def test_order_too_small(self, hermite_pair):
        with pytest.raises(ValueError):
            pde_residual(hermite_pair, 2, order=1)

    def test_lower_variants_need_positive_n(self, laguerre_pair):
        assert tuple(pde_residual(laguerre_pair, 0, order=4)) == ("y_self", "x_self", "master")
        assert tuple(pde_residual(laguerre_pair, 1, order=4)) == PDE_IDENTITIES

    def test_a_perturbed_lower_row_breaks_the_lower_identities(self):
        # C_1(x; 2) + 1 in the memo is G(2) + y: exactly the *_lower identities read it
        pair = jacobi_family(JA, JB)
        pair.rows(2, 5)
        pair._rows[2][1] += Poly.one()
        residuals = pde_residual(pair, 3, 6)
        assert residuals == oracles.pde_residual(pair, 3, 6)
        assert [which for which, res in residuals.items() if not res.is_zero] == [
            "y_lower", "x_lower"]

    def test_deep_spot_check(self, jacobi_pair):
        res = pde_residual(jacobi_pair, 4, order=6)["x_lower"]
        assert res.is_zero

    @pytest.mark.parametrize("make", [
        hermite_family,
        lambda: jacobi_family(Fraction(1, 3), Fraction(4, 3)),
        lambda: ClassicalPair(Poly([1, 1]), Poly([0, 1])),
    ], ids=["hermite", "jacobi", "custom"])
    def test_every_identity_sees_a_perturbed_series(self, make):
        # C_2(x; 3) + 2x in the memo is G(3) + x y**2, G(2) left alone: no identity
        # may stay zero
        pair = make()
        expected = genfun_truncated(make(), 3, 4) + SeriesYX(4, [0, 0, Poly.x()])
        pair.rows(3, 4)
        pair._rows[3][2] += 2 * Poly.x()
        assert genfun_truncated(pair, 3, 4) == expected
        residuals = pde_residual(pair, 3, 4)
        assert tuple(residuals) == PDE_IDENTITIES
        assert not any(res.is_zero for res in residuals.values())


# the pairs the row stencils are compared on, each built fresh
_STENCIL_PAIRS = {
    "jacobi-1/3-4/3": lambda: jacobi_family(Fraction(1, 3), Fraction(4, 3)),
    "bessel-1/3": lambda: bessel_family(Fraction(1, 3)),
    "hermite": hermite_family,
    "laguerre-4/3": lambda: laguerre_family(Fraction(4, 3)),
    "x+1/3": lambda: ClassicalPair(Poly([Fraction(1, 3), 1]), Poly([Fraction(4, 3), -1]),
                                   Fraction(2, 3)),
    "five-prime": lambda: ClassicalPair(*FIVE_PRIME),
}


def _alternating(pair: ClassicalPair, n: int, order: int) -> Poly:
    """``top (1 - x + x^2 - ...)`` through ``x**order`` over the lcm of the rows that
    ``pde_residual(pair, n, order)`` reads, ``top`` their largest numerator over it."""
    rows = [*pair.rows(n, order), *(pair.rows(n - 1, order - 1) if n else [])]
    den = math.lcm(*(row._den for row in rows))
    top = max(abs(v) * (den // row._den) for row in rows for v in row._nums)
    return Poly._of(den, [(-1) ** i * top for i in range(order + 1)])


class TestRowStencils:
    """``pde_residual``'s packed row stencils against the sums of series products in
    ``oracles``; both read the pair's memoized rows."""

    @pytest.mark.parametrize("make", _STENCIL_PAIRS.values(), ids=_STENCIL_PAIRS.keys())
    def test_matches_reference(self, make):
        pair = make()
        for n in range(9):
            for order in range(2, 13):
                residuals = pde_residual(pair, n, order)
                expected = oracles.pde_residual(pair, n, order)
                assert residuals == expected, (n, order)
                assert list(residuals) == list(expected)  # in PDE_IDENTITIES order
                assert all(res.is_zero for res in residuals.values())

    @settings(max_examples=40)
    @given(kernel_pairs(), st.integers(0, 8), st.integers(2, 12))
    def test_matches_reference_on_any_pair(self, pair, n, order):
        # the identities follow from the row recursion alone, so they vanish for any pair
        residuals = pde_residual(pair, n, order)
        assert residuals == oracles.pde_residual(pair, n, order)
        assert all(res.is_zero for res in residuals.values())

    @pytest.mark.parametrize("make", [
        hermite_family, _STENCIL_PAIRS["jacobi-1/3-4/3"], _STENCIL_PAIRS["five-prime"],
    ], ids=["hermite", "jacobi", "five-prime"])
    @pytest.mark.parametrize("lower", [False, True], ids=["row-of-n", "row-of-n-1"])
    def test_a_perturbed_row_matches_reference(self, make, lower):
        # by an integer, by a fraction, and by alternating signs as large as the
        # largest numerator the rows hold, which a too narrow packing would mangle
        perturbations = (lambda pair, n, order: Poly.monomial(2, 3),
                         lambda pair, n, order: Poly([0, Fraction(1, 7)]),
                         _alternating)
        for n, order in ((1, 2), (3, 6), (6, 9)):
            top = order - 1 if lower else order
            for k in sorted({1, top // 2, top}):
                for perturb in perturbations:
                    pair = make()
                    delta = perturb(pair, n, order)
                    pair.rows(n - lower, top)
                    pair._rows[n - lower][k] += delta
                    residuals = pde_residual(pair, n, order)
                    assert residuals == oracles.pde_residual(pair, n, order), (n, order, k)
                    assert not all(res.is_zero for res in residuals.values())

    @pytest.mark.parametrize("make", [
        hermite_family, _STENCIL_PAIRS["jacobi-1/3-4/3"], _STENCIL_PAIRS["five-prime"],
    ], ids=["hermite", "jacobi", "five-prime"])
    def test_alternating_rows_throughout_match_reference(self, make):
        # every row of n and of n - 1 at once alternates in sign at N, the largest
        # numerator the rows hold, so every packed numerator is as large as the
        # packing bound N W allows for
        for n, order in ((1, 2), (3, 6), (6, 9), (8, 12)):
            pair = make()
            row = _alternating(pair, n, order)
            pair._rows[n], pair._rows[n - 1] = [row] * (order + 1), [row] * order
            residuals = pde_residual(pair, n, order)
            assert residuals == oracles.pde_residual(pair, n, order), (n, order)
            assert not all(res.is_zero for res in residuals.values())

    @given(st.sampled_from([3, 30, 10**6, 10**40]).flatmap(lambda r: st.tuples(
               st.integers(1, r), st.tuples(*[st.integers(-r, r)] * 3),
               st.tuples(*[st.integers(-r, r)] * 2))),
           st.integers(0, 24), st.integers(1, 16))
    def test_the_bound_covers_the_worst_case_sums(self, pearson, n, m):
        # pde_residual's docstring: every identity's W_k <= 3 (m + 1)^2 t^3 < W,
        # so the one bound covers the sums that each took its worst k <= m
        s, (c, b, a), (e, d) = pearson
        k0, k1 = e + (n - 1) * b, d + 2 * (n - 1) * a
        t = s + abs(a) + abs(b) + abs(c) + abs(k0) + abs(k1)
        for which, weight in oracles.pde_weights(pearson, n, m).items():
            assert weight <= 3 * (m + 1) ** 2 * t ** 3, which

    def test_the_suite_builds_no_series_product(self, monkeypatch):
        # on a custom pair the genfun suite builds no series at all
        def refuse(a, b):
            raise AssertionError("the genfun suite multiplied two series")
        monkeypatch.setattr(copoly.series, "_cauchy", refuse)
        report = verify_pair(ClassicalPair(*FIVE_PRIME), suites=("genfun",), max_n=4, order=6)
        assert report.passed and report.suites[0].checks == 3 + 4 * 5


class TestPacking:
    """``_pack`` and ``_unpack``: a row of numerators at ``x = 2**shift`` and back."""

    @pytest.mark.parametrize("shift", [2, 3, 8, 64, 65])
    def test_round_trip(self, shift):
        top = (1 << (shift - 1)) - 1
        for nums in ([], [top], [-top], [0, 0, top], [top, 0, -top, 0, 1],
                     [-1, top, -top, 0, 0, -top]):
            packed = _pack(nums, shift)
            assert _unpack(packed, shift) == nums
            assert (packed != 0) == bool(nums)

    @given(st.integers(2, 80), st.data())
    def test_round_trip_of_any_row(self, shift, data):
        top = (1 << (shift - 1)) - 1
        nums = data.draw(st.lists(st.integers(-top, top), max_size=12))
        while nums and not nums[-1]:
            nums.pop()
        packed = _pack(nums, shift)
        assert _unpack(packed, shift) == nums
        assert (packed != 0) == bool(nums)
