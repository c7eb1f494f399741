"""Generating series: truncated sum, closed form, and the series identities."""

from __future__ import annotations

from fractions import Fraction

import pytest

import copoly.genfun
from copoly import (
    ClassicalPair,
    PDE_IDENTITIES,
    Poly,
    InvalidParameter,
    SeriesYX,
    genfun_closed_form,
    genfun_phi_factor,
    genfun_truncated,
    hermite_family,
    jacobi_family,
    laguerre_family,
    pde_residual,
    weight_ratio_series,
)

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
        pair = ClassicalPair(Poly([1, 1]), Poly([0, 1]))
        with pytest.raises(InvalidParameter,
                           match="^no closed-form weight ratio for family 'custom'$"):
            weight_ratio_series(pair, 3)


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
        pair = ClassicalPair(Poly([1, 1]), Poly([0, 1]), max_order=12)
        with pytest.raises(InvalidParameter, match="^no closed-form weight ratio"):
            genfun_closed_form(pair, 2, 4)


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

    def test_deep_spot_check(self, jacobi_pair):
        res = pde_residual(jacobi_pair, 4, order=6)["x_lower"]
        assert res.is_zero

    @pytest.mark.parametrize("pair", [
        hermite_family(),
        jacobi_family(Fraction(1, 3), Fraction(4, 3)),
        ClassicalPair(Poly([1, 1]), Poly([0, 1])),
    ], ids=["hermite", "jacobi", "custom"])
    def test_every_identity_sees_a_perturbed_series(self, pair, monkeypatch):
        # G(3) off by x y**2, G(2) left alone: no identity may stay zero
        original = copoly.genfun.genfun_truncated

        def perturbed(pair, n, order):
            series = original(pair, n, order)
            return series + SeriesYX(order, [0, 0, Poly.x()]) if n == 3 else series
        monkeypatch.setattr(copoly.genfun, "genfun_truncated", perturbed)
        residuals = pde_residual(pair, 3, 4)
        assert tuple(residuals) == PDE_IDENTITIES
        assert not any(res.is_zero for res in residuals.values())
