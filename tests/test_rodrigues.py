"""Rodrigues operator, complementary rows, eigenvalues and residuals."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import copoly.functional
import copoly.rodrigues
import oracles
from conftest import FIVE_PRIME, kernel_pairs, mixed_rationals, small_polys
from copoly import (
    AdmissibilityViolation,
    ClassicalPair,
    FAMILIES,
    InvalidParameter,
    Poly,
    bessel_family,
    catalog_family,
    complementary,
    derivative_proportionality,
    functional_apply,
    functional_poly_mul,
    hermite_family,
    jacobi_family,
    laguerre_family,
    lambda_n,
    leading_coeff_probe,
    moments_from_pearson,
    mu_eigenvalue,
    ode_residual,
    parse_poly_expr,
    psi_k,
    rodrigues_formula_residual,
    rodrigues_r1,
    rodrigues_rk,
    sturm_liouville_residual,
)
from copoly.rodrigues import FamilySpec, _catalog_spec, complementary_table, pair_from_family

ALPHA = Fraction(1, 2)          # laguerre fixture parameter
JA, JB = Fraction(1, 3), 2      # jacobi fixture parameters


def _fields(pair: ClassicalPair) -> tuple:
    """What a pair is made from: a pair has no ``==`` of its own."""
    return pair.phi, pair.psi, pair.u0, pair.name, pair.params


class TestFamilyBuilders:
    def test_catalog_names(self):
        assert tuple(FAMILIES) == ("hermite", "laguerre", "jacobi", "bessel")

    def test_hermite(self):
        spec = hermite_family()
        assert spec.phi == Poly.one() and spec.psi == Poly([0, -2])

    def test_laguerre(self):
        spec = laguerre_family(ALPHA)
        assert spec.phi == Poly.x()
        assert spec.psi == Poly([Fraction(3, 2), -1])
        assert spec.params == {"alpha": ALPHA}

    def test_jacobi(self):
        spec = jacobi_family(JA, JB)
        assert spec.phi == Poly([1, 0, -1])
        assert spec.psi == Poly([Fraction(5, 3), Fraction(-13, 3)])

    def test_bessel(self):
        spec = bessel_family(1)
        assert spec.phi == Poly.monomial(2)
        assert spec.psi == Poly([2, 3])

    def test_custom(self):
        pair = ClassicalPair(Poly([1, 1]), Poly([0, 1]), Fraction(1, 2))
        assert (pair.name, pair.params) == ("custom", {})
        assert pair.u0 == Fraction(1, 2)

    @pytest.mark.parametrize("name, builder", [
        ("hermite", hermite_family), ("laguerre", laguerre_family),
        ("jacobi", jacobi_family), ("bessel", bessel_family)])
    def test_builders_return_the_pair_of_their_description(self, name, builder):
        values = (Fraction(1, 3), Fraction(4, 3))[:len(FAMILIES[name].params)]
        spec = _catalog_spec(name, *values)
        expected = ClassicalPair(spec.phi, spec.psi, spec.u0, spec.name, spec.params)
        for pair in (builder(*values), catalog_family(name, *values)):
            assert type(pair) is ClassicalPair
            assert _fields(pair) == _fields(expected)
            assert pair.u.moments(20) == expected.u.moments(20)

    def test_degenerate_jacobi_rejected(self):
        # alpha + beta + 2 = 0 collapses psi to a constant
        with pytest.raises(InvalidParameter):
            jacobi_family(-3, 1)

    def test_cubic_phi_rejected(self):
        with pytest.raises(InvalidParameter):
            ClassicalPair(Poly.monomial(3), Poly([0, 1]), max_order=8)

    def test_inadmissible_bessel_rejected(self):
        pair = bessel_family(-5)  # checked as its moments are read
        with pytest.raises(AdmissibilityViolation) as exc:
            pair.u.moments(20)
        assert exc.value.k == 3
        with pytest.raises(AdmissibilityViolation) as exc:
            ClassicalPair(pair.phi, pair.psi, max_order=20)
        assert exc.value.k == 3

    @pytest.mark.parametrize("pair", [
        hermite_family(),
        laguerre_family(Fraction(4, 3)),
        jacobi_family(Fraction(1, 3), Fraction(4, 3)),
        bessel_family(Fraction(1, 3)),
        ClassicalPair(parse_poly_expr("3 - x + 2*x^2"), parse_poly_expr("1 + 5*x"),
                      Fraction(2, 3)),
    ], ids=["hermite", "laguerre", "jacobi", "bessel", "custom"])
    def test_pair_holds_its_own_pearson_functional(self, pair):
        expected = moments_from_pearson(pair.phi, pair.psi, pair.u0, 0).moments(30)
        assert pair.u.moments(30) == expected
        eager = ClassicalPair(pair.phi, pair.psi, pair.u0, max_order=12)
        assert eager.u.moments(30) == expected

    def test_pair_carries_moments(self, laguerre_pair):
        assert laguerre_pair.u.moment(1) == Fraction(3, 2)

    def test_functional_power_matches_direct_pairing(self, jacobi_pair):
        u2 = jacobi_pair.functional_power(2)
        phi_sq = jacobi_pair.phi**2
        for m in range(6):
            expected = functional_apply(jacobi_pair.u, phi_sq * Poly.monomial(m))
            assert u2.moment(m) == expected

    def test_functional_power_zero_is_base(self, hermite_pair):
        assert hermite_pair.functional_power(0) is hermite_pair.u


REGISTRY_VALUES = (Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(7, 3))


class TestCatalogRegistry:
    @pytest.mark.parametrize("name", FAMILIES)
    def test_display_rows_parse_to_the_pair(self, name):
        family = FAMILIES[name]
        for values in itertools.product(REGISTRY_VALUES, repeat=len(family.params)):
            params = dict(zip(family.params, values))
            phi, psi = family.pair(*values)
            assert parse_poly_expr(family.phi_text, params) == phi
            assert parse_poly_expr(family.psi_text, params) == psi

    def test_missing_parameters_default_to_zero(self):
        assert _fields(catalog_family("jacobi", 1)) == _fields(jacobi_family(1, 0))
        assert _fields(catalog_family("jacobi", beta=1)) == _fields(jacobi_family(0, 1))
        assert catalog_family("laguerre", None).params == {"alpha": 0}

    def test_foreign_parameter_rejected(self):
        with pytest.raises(InvalidParameter, match="does not take beta"):
            catalog_family("laguerre", 1, 2)
        with pytest.raises(InvalidParameter, match="does not take alpha"):
            catalog_family("hermite", 0)
        with pytest.raises(InvalidParameter, match="does not take alpha"):
            catalog_family("hermite", 0, 0)  # alpha is refused before beta

    def test_unknown_name_rejected(self):
        with pytest.raises(InvalidParameter, match="unknown family 'legendre'"):
            catalog_family("legendre")

    @pytest.mark.parametrize("phi, psi, name", [
        (Poly([0, 1]), Poly([1, -1]), "hermite"),   # laguerre(0), read as hermite's weight
        (Poly([1, 0, -1]), Poly([0, -2]), "jacobi"),  # legendre without its params
    ])
    def test_pair_named_after_a_family_it_is_not_rejected(self, phi, psi, name):
        with pytest.raises(InvalidParameter, match=f"not the catalog family '{name}'"):
            ClassicalPair(phi, psi, name=name)

    def test_catalog_and_custom_pairs_build(self):
        for name, family in FAMILIES.items():
            for values in itertools.product(REGISTRY_VALUES, repeat=len(family.params)):
                assert catalog_family(name, *values).name == name
        for pair in (hermite_family(), laguerre_family(ALPHA), jacobi_family(JA, JB),
                     bessel_family(ALPHA)):
            assert pair.name in FAMILIES
        params = {"alpha": ALPHA}
        custom = pair_from_family(FamilySpec(parse_poly_expr("x", params),
                                             parse_poly_expr("(alpha + 1) - x", params),
                                             params=params))
        assert (custom.name, custom.params) == ("custom", params)


class TestPsiK:
    def test_k_zero(self, jacobi_pair):
        assert psi_k(jacobi_pair, 0) == jacobi_pair.psi

    def test_hermite_all_k(self, hermite_pair):
        for k in range(5):
            assert psi_k(hermite_pair, k) == Poly([0, -2])

    def test_jacobi_k_two(self, jacobi_pair):
        assert psi_k(jacobi_pair, 2) == Poly([Fraction(5, 3), Fraction(-25, 3)])


class TestRodriguesR1:
    def test_zero_polynomial(self, hermite_pair):
        assert rodrigues_r1(hermite_pair, 3, Poly.zero()) == Poly.zero()

    def test_hermite_step_on_one(self, hermite_pair):
        assert rodrigues_r1(hermite_pair, 1, Poly.one()) == Poly([0, -2])

    def test_laguerre_step_on_one(self, laguerre_pair):
        # psi + phi' = (alpha + 2) - x
        assert rodrigues_r1(laguerre_pair, 1, Poly.one()) == Poly([Fraction(5, 2), -1])

    def test_raises_degree_by_one(self, jacobi_pair):
        p = Poly([1, 2, 3])
        assert rodrigues_r1(jacobi_pair, 2, p).degree == 3

    @pytest.mark.parametrize("k", range(4))
    def test_defining_functional_identity(self, jacobi_pair, k):
        # q = R_1(p) at level k satisfies (p u_{k+1})' = q u_k, i.e.
        # -m <u_{k+1}, p x^(m-1)> = <u_k, q x^m> for every m.
        p = Poly([Fraction(1, 3), -2, 1])
        q = rodrigues_r1(jacobi_pair, k, p)
        up = jacobi_pair.functional_power(k + 1)
        low = jacobi_pair.functional_power(k)
        for m in range(8):
            lhs = -m * functional_apply(up, p * Poly.monomial(m - 1)) if m else Fraction(0)
            assert lhs == functional_apply(low, q * Poly.monomial(m))


class TestRodriguesRk:
    def test_k_zero_is_identity(self, bessel_pair):
        p = Poly([1, 1])
        assert rodrigues_rk(bessel_pair, 0, 4, p) == p

    def test_hermite_two_steps(self, hermite_pair):
        assert rodrigues_rk(hermite_pair, 2, 0, Poly.one()) == Poly([-2, 0, 4])

    def test_laguerre_top_row_form(self, laguerre_pair):
        # base n-1, one step on 1 gives (n-1) phi' + psi = (n + alpha) - x
        for n in (1, 3, 6):
            out = rodrigues_rk(laguerre_pair, 1, n - 1, Poly.one())
            assert out == Poly([n + ALPHA, -1])

    @pytest.mark.parametrize("k1,k2", [(1, 1), (2, 1), (1, 3), (2, 2)])
    def test_composition_splits(self, jacobi_pair, k1, k2):
        # The outer block acts at the lower base:
        # R_{k1+k2} at base 0 = (R_{k1} at base 0) after (R_{k2} at base k1).
        p = Poly([1, -1])
        whole = rodrigues_rk(jacobi_pair, k1 + k2, 0, p)
        split = rodrigues_rk(jacobi_pair, k1, 0, rodrigues_rk(jacobi_pair, k2, k1, p))
        assert whole == split

    def test_degree_growth_on_one(self, bessel_pair):
        for k in range(5):
            assert rodrigues_rk(bessel_pair, k, 1, Poly.one()).degree == k


class TestComplementary:
    def test_hermite_diagonal_n2(self, hermite_pair):
        assert complementary(hermite_pair, 2, 2) == Poly([-2, 0, 4])

    def test_laguerre_diagonal_n2(self, laguerre_pair):
        expected = Poly([(ALPHA + 1) * (ALPHA + 2), -(2 * ALPHA + 4), 1])
        assert complementary(laguerre_pair, 2, 2) == expected

    def test_row_zero_is_one(self, jacobi_pair):
        assert complementary(jacobi_pair, 7, 0) == Poly.one()

    def test_bounds(self, hermite_pair):
        with pytest.raises(IndexError):
            complementary(hermite_pair, 2, 3)
        with pytest.raises(IndexError):
            complementary(hermite_pair, 2, -1)
        with pytest.raises(IndexError):
            complementary(hermite_pair, -1, 0)

    def test_degree_equals_nu(self, bessel_pair):
        for n in range(7):
            for nu in range(n + 1):
                assert complementary(bessel_pair, n, nu).degree == nu

    def test_equals_operator_construction(self, family_pairs):
        for pair in family_pairs.values():
            for n in range(9):
                for nu in range(n + 1):
                    rec = complementary(pair, n, nu)
                    op = rodrigues_rk(pair, nu, n - nu, Poly.one())
                    assert rec == op


class TestCompTable:
    def test_n_zero(self, hermite_pair):
        table = complementary_table(hermite_pair, 0)
        assert table.rows == (Poly.one(),)

    def test_hermite_n2_rows(self, hermite_pair):
        table = complementary_table(hermite_pair, 2)
        assert table.rows == (Poly.one(), Poly([0, -2]), Poly([-2, 0, 4]))

    def test_jacobi_n1_rows(self, jacobi_pair):
        table = complementary_table(jacobi_pair, 1)
        assert table.rows == (Poly.one(), Poly([Fraction(5, 3), Fraction(-13, 3)]))

    def test_rows_match_single_row_accessor(self, laguerre_pair):
        table = complementary_table(laguerre_pair, 5)
        for nu in range(6):
            assert table.rows[nu] == complementary(laguerre_pair, 5, nu)

    def test_row_memo_builds_only_missing_rows(self, monkeypatch):
        # A fresh pair: the session fixtures carry their row memos between tests.
        pair = jacobi_family(JA, JB)
        original = copoly.rodrigues._comp_rows
        built = []

        def counted(*args):
            rows = original(*args)
            built.append(len(rows))
            return rows
        monkeypatch.setattr(copoly.rodrigues, "_comp_rows", counted)
        assert complementary_table(pair, 3).rows == tuple(original(pair, 3, 3))
        # past nu = n, as the generating series reads them
        assert pair.rows(3, 6) == original(pair, 3, 6)
        assert complementary(pair, 3, 2) == original(pair, 3, 2)[2]
        pair.rows(3, 5).append(Poly.zero())
        assert pair.rows(3, 6) == original(pair, 3, 6)
        assert built == [4, 3]

    def test_negative_row_count_rejected(self):
        # once read the memo held C_0 .. C_3, and a slice would hand back part of it
        pair = hermite_family()
        pair.rows(3, 3)
        for count in (-1, -2):
            with pytest.raises(IndexError, match="count must be >= 0"):
                pair.rows(3, count)


class TestPearsonForm:
    """``pair._pearson``, the integer form every kernel reads, against ``(phi, psi)``."""

    @given(kernel_pairs())
    def test_round_trip(self, pair):
        s, (c, b, a), (e, d) = pair._pearson
        assert Poly._of(s, [c, b, a]) == pair.phi
        assert Poly._of(s, [e, d]) == pair.psi
        assert s == math.lcm(pair.phi._den, pair.psi._den)

    @pytest.mark.parametrize("phi, psi, message", [
        (Poly.monomial(3), Poly([0, 1]), "phi must have degree <= 2, got degree 3"),
        (Poly.one(), Poly([3]), "psi must have degree exactly 1, got degree 0"),
        (Poly.x(), Poly.zero(), "psi must have degree exactly 1, got the zero polynomial"),
        (Poly.one(), Poly([0, 1]) - Poly.x(), "psi must have degree exactly 1, got the zero "
                                              "polynomial"),
    ], ids=["cubic-phi", "constant-psi", "zero-psi", "cancelled-psi"])
    def test_pair_and_moments_refuse_the_same_degrees(self, phi, psi, message):
        for build in (ClassicalPair, lambda phi, psi: moments_from_pearson(phi, psi, 1, 0)):
            with pytest.raises(InvalidParameter, match=message) as refused:
                build(phi, psi)
            assert "inf" not in str(refused.value)

    @pytest.mark.parametrize("make", [
        lambda: bessel_family(Fraction(1, 3)),
        lambda: ClassicalPair(*FIVE_PRIME, Fraction(2, 3), max_order=12),
    ], ids=["catalog", "custom"])
    def test_a_pair_reads_itself_once(self, monkeypatch, make):
        calls = []

        def counted(phi, psi):
            calls.append((phi, psi))
            return original(phi, psi)

        original = copoly.functional._pearson_form
        monkeypatch.setattr(copoly.functional, "_pearson_form", counted)
        monkeypatch.setattr(copoly.rodrigues, "_pearson_form", counted)
        pair = make()
        assert calls == [(pair.phi, pair.psi)]


class TestRowKernel:
    """``_comp_rows`` against the plain-``Fraction`` recurrence in ``oracles``."""

    @settings(max_examples=60)
    @given(kernel_pairs(), st.integers(0, 40), st.integers(0, 8))
    def test_matches_reference(self, pair, n, past):
        count = n + past   # rows past nu = n, as the generating series reads them
        expected = oracles.comp_rows(pair.phi, pair.psi, n, count)
        assert copoly.rodrigues._comp_rows(pair, n, count) == expected

    @settings(max_examples=60)
    @given(kernel_pairs(), st.integers(0, 12), st.integers(0, 6), st.data())
    def test_continues_a_prefix(self, pair, n, past, data):
        count = n + past
        rows = oracles.comp_rows(pair.phi, pair.psi, n, count)
        cut = data.draw(st.integers(1, count + 1))
        got = copoly.rodrigues._comp_rows(pair, n, count, cut, rows[cut - 1])
        assert got == rows[cut:]

    @given(kernel_pairs(), st.integers(0, 10), st.integers(1, 6), st.data())
    def test_nothing_to_build(self, pair, n, size, data):
        last = oracles.comp_rows(pair.phi, pair.psi, n, size - 1)[-1]
        count = data.draw(st.integers(-1, size - 1))
        assert copoly.rodrigues._comp_rows(pair, n, count, size, last) == []

    @settings(max_examples=60)
    @given(kernel_pairs(), st.integers(0, 30), st.integers(0, 8), st.data())
    def test_stencil_matches_operator_step(self, pair, n, past, data):
        # phi of degree 0, 1 or 2 over denominators unrelated to psi's, rows past
        # nu = n (k < 0), and a block resumed from the row before it
        count = n + past
        expected = oracles.rodrigues_step_rows(pair.phi, pair.psi, n, count)
        assert copoly.rodrigues._comp_rows(pair, n, count) == expected
        cut = data.draw(st.integers(1, count + 1))
        got = copoly.rodrigues._comp_rows(pair, n, count, cut, expected[cut - 1])
        assert got == expected[cut:]

    @given(kernel_pairs(), st.integers(-3, 6), small_polys())
    def test_fused_step_matches_operator_step(self, pair, k, p):
        assert rodrigues_r1(pair, k, p) == pair.phi * p.derivative() + psi_k(pair, k) * p

    def test_unrelated_prime_denominators(self):
        phi = Poly([Fraction(1, 1048573), Fraction(3, 1048571), Fraction(5, 1048559)])
        psi = Poly([Fraction(2, 1048549), Fraction(-19, 1048517)])
        pair = ClassicalPair(phi, psi)
        assert copoly.rodrigues._comp_rows(pair, 30, 34) == oracles.comp_rows(phi, psi, 30, 34)


class TestClassicalOracles:
    def test_hermite_diagonal_is_signed_hermite(self, hermite_pair):
        for n in range(9):
            expected = oracles.hermite_poly(n)
            if n % 2 == 1:
                expected = -expected
            assert complementary(hermite_pair, n, n) == expected

    def test_laguerre_diagonal_is_scaled_laguerre(self, laguerre_pair):
        for n in range(9):
            expected = math.factorial(n) * oracles.laguerre_poly(n, ALPHA)
            assert complementary(laguerre_pair, n, n) == expected

    def test_jacobi_diagonal_leading_coefficient(self, jacobi_pair):
        for n in range(9):
            lc = complementary(jacobi_pair, n, n).leading_coefficient if n else Fraction(1)
            expected = oracles.rising(JA + JB + n + 1, n)
            if n % 2 == 1:
                expected = -expected
            assert lc == expected

    def test_bessel_diagonal_leading_coefficient(self, bessel_pair):
        for n in range(9):
            lc = complementary(bessel_pair, n, n).leading_coefficient if n else Fraction(1)
            assert lc == oracles.rising(1 + n + 1, n)

    def test_against_sympy_classical_polynomials(self, hermite_pair, laguerre_pair, jacobi_pair):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")

        def coeffs(expr):
            asc = list(reversed(sympy.Poly(sympy.expand(expr), x).all_coeffs()))
            return Poly([Fraction(c.p, c.q) for c in asc])

        for n in range(1, 7):
            sign = -1 if n % 2 == 1 else 1
            assert complementary(hermite_pair, n, n) == sign * coeffs(sympy.hermite(n, x))
            lag = sympy.factorial(n) * sympy.assoc_laguerre(n, sympy.Rational(1, 2), x)
            assert complementary(laguerre_pair, n, n) == coeffs(lag)
            jac = coeffs(sympy.jacobi(n, sympy.Rational(1, 3), 2, x))
            assert complementary(jacobi_pair, n, n).monic() == jac.monic()


class TestEigenvalues:
    def test_lambda_zero(self, bessel_pair):
        assert lambda_n(bessel_pair, 0) == 0

    def test_lambda_hermite_n5(self, hermite_pair):
        assert lambda_n(hermite_pair, 5) == 10

    def test_lambda_jacobi_n3(self, jacobi_pair):
        assert lambda_n(jacobi_pair, 3) == 3 * (JA + JB + 4)

    def test_mu_nu_zero(self, laguerre_pair):
        assert mu_eigenvalue(laguerre_pair, 6, 0) == 0

    def test_mu_hermite(self, hermite_pair):
        for n in range(1, 7):
            for nu in range(n + 1):
                assert mu_eigenvalue(hermite_pair, n, nu) == 2 * nu

    def test_mu_jacobi_closed_form(self, jacobi_pair):
        for n in range(1, 7):
            for nu in range(n + 1):
                expected = nu * (2 * n - nu + JA + JB + 1)
                assert mu_eigenvalue(jacobi_pair, n, nu) == expected

    def test_mu_diagonal_collapses_to_lambda(self, family_pairs):
        for pair in family_pairs.values():
            for n in range(9):
                assert mu_eigenvalue(pair, n, n) == lambda_n(pair, n)

    @given(kernel_pairs(), st.integers(0, 30), st.data())
    def test_integer_form_matches_fraction_formula(self, pair, n, data):
        """The formulas on ``phi``/``psi`` numerators against the ``Fraction`` ones."""
        nu = data.draw(st.integers(0, n))
        psi1, phi2 = pair.psi.coefficient(1), pair.phi.coefficient(2) * 2
        assert lambda_n(pair, n) == -n * psi1 - Fraction(n * (n - 1), 2) * phi2
        assert mu_eigenvalue(pair, n, nu) == -nu * (Fraction(2 * n - nu - 1, 2) * phi2 + psi1)

    def test_mu_bounds(self, hermite_pair):
        with pytest.raises(IndexError):
            mu_eigenvalue(hermite_pair, 2, 3)


class TestOdeResidual:
    def test_nu_zero(self, jacobi_pair):
        assert ode_residual(jacobi_pair, 5, 0) == Poly.zero()

    def test_hermite_spot(self, hermite_pair):
        assert ode_residual(hermite_pair, 3, 2) == Poly.zero()

    def test_jacobi_spot(self, jacobi_pair):
        assert ode_residual(jacobi_pair, 4, 3) == Poly.zero()

    def test_full_small_grid(self, family_pairs):
        for pair in family_pairs.values():
            for n in range(7):
                for nu in range(n + 1):
                    assert ode_residual(pair, n, nu) == Poly.zero()

    @settings(max_examples=30)
    @given(kernel_pairs(), st.integers(0, 24))
    def test_stencil_matches_reference(self, pair, n):
        # phi of degree 0, 1 or 2 over denominators unrelated to psi's: the residual
        # need not vanish, so the stencil is compared with the Poly form, not with 0
        for nu, row in enumerate(pair.rows(n, n)):
            assert ode_residual(pair, n, nu) == oracles.ode_residual(pair.phi, pair.psi, n, nu, row)

    @pytest.mark.parametrize("pair", [
        jacobi_family(Fraction(1, 3), Fraction(4, 3)), bessel_family(Fraction(1, 3)),
        ClassicalPair(*FIVE_PRIME),
    ], ids=["jacobi", "bessel", "five-prime"])
    def test_stencil_matches_reference_through_the_cap(self, pair):
        for n in range(25):
            for nu, row in enumerate(pair.rows(n, n)):
                residual = ode_residual(pair, n, nu)
                assert residual == oracles.ode_residual(pair.phi, pair.psi, n, nu, row)
                assert residual.is_zero

    @settings(max_examples=30)
    @given(st.integers(0, 10), st.data())
    def test_reads_the_stored_row(self, n, data):
        # The operator sends x^j to a polynomial with top term (j - nu) d_{2n-1+j-nu} x^j / s,
        # d_k = k a + d; on jacobi(1/3, 4/3) no d_k vanishes, so x^j added to the
        # stored row leaves a nonzero residual whenever j != nu.
        nu = data.draw(st.integers(0, n))
        j = data.draw(st.integers(0, n + 2).filter(lambda j: j != nu))
        pair = jacobi_family(Fraction(1, 3), Fraction(4, 3))
        pair.rows(n, n)
        pair._rows[n][nu] += Poly.monomial(j)
        residual = ode_residual(pair, n, nu)
        assert not residual.is_zero
        assert residual == oracles.ode_residual(pair.phi, pair.psi, n, nu, pair._rows[n][nu])


class TestSturmLiouville:
    def test_nu_zero(self, hermite_pair):
        assert sturm_liouville_residual(hermite_pair, 4, 0).moments(6) == [0] * 7

    def test_hermite_spot(self, hermite_pair):
        assert sturm_liouville_residual(hermite_pair, 2, 1).moments(4) == [0] * 5

    def test_laguerre_spot(self, laguerre_pair):
        assert sturm_liouville_residual(laguerre_pair, 3, 2).moments(6) == [0] * 7

    def test_small_grid(self, family_pairs):
        for pair in family_pairs.values():
            for n in range(6):
                for nu in range(n + 1):
                    depth = 2 * n + 4
                    assert sturm_liouville_residual(pair, n, nu).moments(depth) == [0] * (depth + 1)


class TestRodriguesFormulaResidual:
    def test_identity_case(self, bessel_pair):
        assert rodrigues_formula_residual(bessel_pair, 4, 2, 2).moments(6) == [0] * 7

    def test_hermite_spot(self, hermite_pair):
        assert rodrigues_formula_residual(hermite_pair, 2, 1, 0).moments(4) == [0] * 5

    def test_legendre_spot(self, legendre_pair):
        assert rodrigues_formula_residual(legendre_pair, 3, 2, 1).moments(6) == [0] * 7

    def test_small_grid(self, family_pairs):
        for pair in family_pairs.values():
            for n in range(6):
                for nu in range(n + 1):
                    for mu in range(nu + 1):
                        depth = 2 * n + 4
                        res = rodrigues_formula_residual(pair, n, nu, mu).moments(depth)
                        assert res == [0] * (depth + 1)

    def test_bounds(self, hermite_pair):
        with pytest.raises(IndexError):
            rodrigues_formula_residual(hermite_pair, 3, 2, 3)
        with pytest.raises(IndexError):
            rodrigues_formula_residual(hermite_pair, 3, 4, 0)


def _moments_or_error(u, depth: int):
    """``u``'s moments through ``depth``, or the type of what reading them raised."""
    try:
        return u.moments(depth)
    except (AdmissibilityViolation, ValueError) as exc:
        return type(exc)


# the pairs the functional residuals are compared on, each built fresh
_RESIDUAL_PAIRS = {
    "hermite": hermite_family,
    "laguerre-1/2": lambda: laguerre_family(Fraction(1, 2)),
    "jacobi-1/3-4/3": lambda: jacobi_family(Fraction(1, 3), Fraction(4, 3)),
    "bessel-1/3": lambda: bessel_family(Fraction(1, 3)),
    "x+1/3": lambda: ClassicalPair(Poly([Fraction(1, 3), 1]), Poly([Fraction(4, 3), -1]),
                                   Fraction(2, 3)),
    "five-prime": lambda: ClassicalPair(*FIVE_PRIME),
}


def _residuals_match_reference(pair: ClassicalPair, max_n: int) -> list:
    """Assert that both functional residuals equal their reference compositions in
    ``oracles`` at every ``(n, nu, mu)`` with ``n <= max_n``, through moment ``2n + 5``;
    return every residual's moments."""
    read = []
    for n in range(max_n + 1):
        depth = 2 * n + 5
        for nu in range(n + 1):
            got = _moments_or_error(sturm_liouville_residual(pair, n, nu), depth)
            assert got == _moments_or_error(oracles.sturm_liouville_residual(pair, n, nu), depth)
            read.append(got)
            for mu in range(nu + 1):
                got = _moments_or_error(rodrigues_formula_residual(pair, n, nu, mu), depth)
                assert got == _moments_or_error(
                    oracles.rodrigues_formula_residual(pair, n, nu, mu), depth)
                read.append(got)
    return read


class TestFunctionalBlocks:
    """The one-block ``functional_poly_mul`` and functional residuals against the
    compositions of derived functionals in ``oracles`` that they fuse."""

    @settings(max_examples=60)
    @given(kernel_pairs(), st.lists(mixed_rationals(), max_size=5).map(Poly),
           st.integers(0, 3), st.integers(0, 12), st.data())
    def test_poly_mul_matches_reference(self, pair, h, k, depth, data):
        # h over unrelated primes, with zero coefficients, or zero; read in two
        # blocks, the second continuing the first's prefix
        u = pair.functional_power(k)
        got, expected = functional_poly_mul(h, u), oracles.functional_poly_mul(h, u)
        cut = data.draw(st.integers(0, depth))
        assert _moments_or_error(got, cut) == _moments_or_error(expected, cut)
        assert _moments_or_error(got, depth) == _moments_or_error(expected, depth)

    @pytest.mark.parametrize("h", [
        Poly.zero(), Poly([0, 0, 3]), Poly([1, 0, 0, Fraction(2, 1048573)]),
    ], ids=["zero", "monomial", "zero-middle"])
    def test_poly_mul_with_zero_coefficients(self, h):
        u = ClassicalPair(*FIVE_PRIME).functional_power(2)
        assert functional_poly_mul(h, u).moments(12) == oracles.functional_poly_mul(h, u).moments(12)

    def test_zero_poly_mul_reads_nothing(self):
        finite = copoly.functional.MomentFunctional(initial=[1, 2])
        assert functional_poly_mul(Poly.zero(), finite).moments(5) == [0] * 6
        assert oracles.functional_poly_mul(Poly.zero(), finite).moments(5) == [0] * 6

    @pytest.mark.parametrize("build", _RESIDUAL_PAIRS.values(), ids=_RESIDUAL_PAIRS.keys())
    def test_residuals_match_reference(self, build):
        read = _residuals_match_reference(build(), 8)
        assert all(moments == [0] * len(moments) for moments in read)

    @settings(max_examples=30)
    @given(kernel_pairs(), st.integers(0, 5))
    @example(ClassicalPair(Poly([0, 0, 3]), Poly([0, -9])), 0)
    def test_residuals_match_reference_on_any_pair(self, pair, max_n):
        # over denominators unrelated to each other the residuals need not vanish,
        # and a vanishing d + k a stops both at the same moment; at nu = 0 neither
        # reads C_0 u_n, so d + 3a = 0 leaves that residual zero
        _residuals_match_reference(pair, max_n)

    @pytest.mark.parametrize("build", [
        hermite_family, lambda: jacobi_family(Fraction(1, 3), Fraction(4, 3)),
        lambda: ClassicalPair(*FIVE_PRIME),
    ], ids=["hermite", "jacobi", "five-prime"])
    @pytest.mark.parametrize("memo", ["weighted", "shifted"])
    def test_a_perturbed_memo_is_read(self, build, memo):
        # x^2 added to the row C_3(x; 5) that the weighted row C_3 u_2 is built
        # from, or u_0 added to u_2 before any row is weighted: both sides read the
        # pair's memos, so they must still agree, and the residuals that read the
        # perturbed entry no longer vanish
        pair = build()
        if memo == "weighted":
            pair.rows(5, 5)
            pair._rows[5][3] += Poly.monomial(2)
        else:
            pair._shifted[2] = pair.functional_power(2) + pair.u
        assert any(any(moments) for moments in _residuals_match_reference(pair, 8))


class TestDerivativeProportionality:
    def test_nu_zero(self, jacobi_pair):
        assert derivative_proportionality(jacobi_pair, 5, 0) == 1

    def test_hermite_spot(self, hermite_pair):
        assert derivative_proportionality(hermite_pair, 3, 1) == Fraction(-1, 6)

    def test_laguerre_spot(self, laguerre_pair):
        ratio = derivative_proportionality(laguerre_pair, 2, 1)
        assert ratio == Fraction(-1, 2)

    def test_ratio_is_product_of_ladder_eigenvalues(self, family_pairs):
        for pair in family_pairs.values():
            for n in range(1, 8):
                for nu in range(n + 1):
                    prod = Fraction(1)
                    for j in range(n - nu + 1, n + 1):
                        prod *= -mu_eigenvalue(pair, n, j)
                    assert derivative_proportionality(pair, n, nu) == 1 / prod

    def test_bounds(self, hermite_pair):
        with pytest.raises(IndexError):
            derivative_proportionality(hermite_pair, 2, 3)

    @pytest.mark.parametrize("rows", [
        [Poly.one(), Poly([1, 1]), Poly([1, 0, 1])],   # C_1 = 1 + x, but C_2' = 2x
        [Poly.one(), Poly([0, 1]), Poly([3])],         # C_2' = 0
        # every numerator the two rows share cross-multiplies to a match
        [Poly.one(), Poly([1, 1, 1]), Poly([0, 1, Fraction(1, 2)])],     # C_2' = 1 + x
        [Poly.one(), Poly([1, 1]), Poly([0, 1, Fraction(1, 2), Fraction(1, 3)])],
    ], ids=["not-a-multiple", "vanishing-derivative", "longer-target", "shorter-target"])
    def test_no_constant_is_none(self, rows):
        pair = ClassicalPair(Poly.one(), Poly([0, -2]))
        pair._rows[2] = rows
        assert derivative_proportionality(pair, 2, 1) is None
        assert oracles.derivative_proportionality(rows[2], rows[1], 1) is None

    def test_matches_reference_on_catalog_pairs(self, family_pairs):
        for pair in [*family_pairs.values(), ClassicalPair(*FIVE_PRIME)]:
            for n in range(13):
                rows = pair.rows(n, n)
                for nu in range(n + 1):
                    ratio = derivative_proportionality(pair, n, nu)
                    assert type(ratio) is Fraction
                    assert ratio == oracles.derivative_proportionality(rows[n], rows[n - nu], nu)

    @settings(max_examples=150)
    @given(kernel_pairs(), st.integers(0, 6), st.data())
    def test_matches_reference(self, pair, n, data):
        # the pair's own rows, or stored rows of any degree (a zero derivative, a zero
        # or mismatched target), and with a drawn scale a target that is a multiple
        # of the derivative
        nu = data.draw(st.integers(0, n))
        rows = pair.rows(n, n)
        if data.draw(st.booleans()):
            rows = data.draw(st.lists(small_polys(), min_size=n + 1, max_size=n + 1))
        scale = data.draw(st.one_of(st.none(), mixed_rationals()))
        if scale is not None:
            rows[n - nu] = scale * rows[n].derivative(nu)
        pair._rows[n] = rows

        def outcome(ratio, *args):
            try:
                value = ratio(*args)
            except ValueError as exc:
                return ValueError, str(exc)
            return type(value), value
        assert (outcome(derivative_proportionality, pair, n, nu)
                == outcome(oracles.derivative_proportionality, rows[n], rows[n - nu], nu))


class TestLeadingCoeffProbe:
    def test_hermite_constant(self, hermite_pair):
        for k in range(4):
            for m in range(4):
                assert leading_coeff_probe(hermite_pair, k, m) == -2

    def test_laguerre_constant(self, laguerre_pair):
        for k in range(4):
            for m in range(4):
                assert leading_coeff_probe(laguerre_pair, k, m) == -1

    def test_jacobi_spot(self, jacobi_pair):
        assert leading_coeff_probe(jacobi_pair, 1, 0) == -(JA + JB + 4)

    def test_vanishing_value_is_read(self):
        # jacobi(-6, -6): psi' + (m+2k) phi''/2 = 10 - (m + 2k), so at m + 2k = 10
        # the x^(m+1) term cancels and the step's top coefficient is of lower degree
        pair = jacobi_family(-6, -6)
        for k, m in ((3, 4), (4, 2), (5, 0)):
            assert rodrigues_r1(pair, k, Poly.monomial(m)).degree < m + 1
            assert leading_coeff_probe(pair, k, m) == 0

    def test_expansion_formula(self, family_pairs):
        # psi' + (m + 2k) phi''/2 from expanding phi (x^m)' + psi_k x^m
        for pair in family_pairs.values():
            dpsi = pair.psi.coefficient(1)
            ddphi = 2 * pair.phi.coefficient(2)
            for k in range(5):
                for m in range(5):
                    expected = dpsi + Fraction(m + 2 * k, 2) * ddphi
                    assert leading_coeff_probe(pair, k, m) == expected

    def test_eigenvalue_index_offset(self, family_pairs):
        # The probe value equals -lambda_{s+1}/(s+1) at s = m + 2k, which
        # only coincides with -lambda_s/s when phi'' = 0.
        for pair in family_pairs.values():
            for k in range(4):
                for m in range(4):
                    s = m + 2 * k
                    value = leading_coeff_probe(pair, k, m)
                    assert value == -lambda_n(pair, s + 1) / (s + 1)
