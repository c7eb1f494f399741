"""Truncated bivariate series: arithmetic, substitution, exp and powers."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from conftest import PRIME_DENOMINATORS, mixed_rationals, rationals, small_polys
from copoly import (
    Poly,
    SeriesYX,
    poly_shift_substitute,
    series_exp,
    series_pow_rational,
)


def series(order, *polys):
    return SeriesYX(order, [Poly(c) if isinstance(c, (list, tuple)) else c for c in polys])


def small_series(order: int = 4):
    return st.builds(
        lambda cs: SeriesYX(order, cs),
        st.lists(small_polys(3), min_size=0, max_size=order + 1),
    )


def series_pairs(order: int):
    """Two order-``order`` series over mixed denominators, zero coefficients included."""
    one = st.builds(lambda cs: SeriesYX(order, cs), st.lists(
        st.lists(mixed_rationals(), max_size=4).map(Poly), max_size=order + 1))
    return st.tuples(one, one)


class TestContainer:
    def test_pads_to_order(self):
        s = SeriesYX(2, [Poly.one()])
        assert s.coeffs == (Poly.one(), Poly.zero(), Poly.zero())

    def test_too_many_coeffs_rejected(self):
        with pytest.raises(ValueError):
            SeriesYX(1, [Poly.one(), Poly.one(), Poly.one()])

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            SeriesYX(-1, [])

    def test_coeff_out_of_range(self):
        s = SeriesYX(2, [Poly.one()])
        with pytest.raises(IndexError):
            s.coeff(3)

    def test_truncate_down(self):
        s = series(3, [1], [0, 1], [2], [5])
        t = s.truncate(1)
        assert t.order == 1
        assert t.coeff(1) == Poly([0, 1])

    def test_truncate_up_rejected(self):
        with pytest.raises(ValueError):
            SeriesYX(1, [Poly.one()]).truncate(3)

    def test_truncate_to_negative_order_rejected(self):
        # as the constructor does: no order -1 series with no coefficients
        with pytest.raises(ValueError, match="series order must be >= 0"):
            SeriesYX(3, [Poly.one(), Poly.x()]).truncate(-1)

    def test_zero_one(self):
        assert SeriesYX(2).is_zero
        assert SeriesYX.one(3).coeff(0) == Poly.one()
        assert not SeriesYX.one(3).is_zero


class TestArithmetic:
    def test_mixed_orders_rejected(self):
        with pytest.raises(ValueError):
            SeriesYX.one(2) + SeriesYX.one(3)
        with pytest.raises(ValueError):
            SeriesYX.one(2) * SeriesYX.one(3)

    def test_identity_multiplication(self):
        s = series(2, [1, 1], [0, 2], [3])
        assert SeriesYX.one(2) * s == s

    def test_difference_of_squares(self):
        one_plus = series(2, [1], [1])
        one_minus = series(2, [1], [-1])
        assert one_plus * one_minus == series(2, [1], [0], [-1])

    def test_truncation_drops_top_cross_term(self):
        # (1 - 2xy)(1 + 2xy) at order 1: the y^2 term falls away
        a = series(1, [1], [0, -2])
        b = series(1, [1], [0, 2])
        assert a * b == SeriesYX.one(1)

    def test_poly_and_scalar_factors(self):
        s = series(1, [1], [0, 1])
        assert Poly([0, 2]) * s == series(1, [0, 2], [0, 0, 2])
        assert 3 * s == series(1, [3], [0, 3])
        assert s * Fraction(1, 2) == series(1, ["1/2"], [0, "1/2"])

    def test_pow(self):
        s = series(3, [1], [1])
        assert s**3 == series(3, [1], [3], [3], [1])
        assert s**0 == SeriesYX.one(3)

    @given(small_series(), small_series(), small_series())
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(small_series(), small_series(), rationals(6, 4), rationals(6, 4))
    def test_evaluate_is_hom(self, a, b, x0, y0):
        assert (a + b).evaluate(x0, y0) == a.evaluate(x0, y0) + b.evaluate(x0, y0)

    @given(st.integers(0, 5).flatmap(series_pairs))
    @example((SeriesYX(3), series(3, [1, "1/1048573"], [0], [2, 0, "-5/1048571"])))
    @example((series(3, [1], [1], [1]), SeriesYX(3)))
    @example((series(0, ["3/1048549", 0, 1]), series(0, [0, "7/1048517"])))
    # a sparse left factor over unrelated primes, and a dense pair
    @example((series(3, [], [0, "1/1048571"], [], ["2/1048559"]),
              series(3, [1, "1/1048573"], [2], [3, 4], ["5/7"])))
    @example((series(2, ["1/3", 2], ["-5/7", 0, 1], [4, "1/11"]),
              series(2, [1, 1], ["2/9"], [0, 3])))
    @example((SeriesYX(0), SeriesYX(0)))
    def test_product_matches_reference(self, operands):
        a, b = operands
        assert (a * b).coeffs == tuple(oracles.cauchy_product(a.coeffs, b.coeffs))
        for x, y in ((a, SeriesYX(a.order + 1)), (SeriesYX(a.order + 1), a)):
            with pytest.raises(ValueError, match="orders differ"):
                x * y


def _assert_stored(s):
    """The stored form: ``order + 1`` integer rows without trailing zeros over
    one positive denominator, reduced; zero is all rows empty over 1."""
    assert type(s._den) is int and s._den > 0
    assert len(s._nums) == s.order + 1
    for row in s._nums:
        assert type(row) is tuple and all(type(v) is int for v in row)
        assert not row or row[-1] != 0
    assert math.gcd(s._den, *(v for row in s._nums for v in row)) == 1


def _rows(s) -> list[list[Fraction]]:
    """The coefficients of ``s`` as ``Fraction`` rows, read through ``coeffs``."""
    assert all(type(c) is Poly for c in s.coeffs)
    return [list(c.coeffs) for c in s.coeffs]


def fraction_rows(order: int):
    """``order + 1`` rows of mixed rationals, zeros and empty rows included."""
    return st.lists(st.lists(mixed_rationals(), max_size=4), min_size=order + 1,
                    max_size=order + 1)


def _over(*dens):
    """One row per denominator, each coefficient over its own unrelated prime."""
    return [Fraction(k + 1, d) for k, d in enumerate(dens)]


P1, P2, P3, P4, P5 = PRIME_DENOMINATORS


class TestStoredForm:
    """The integer form against ``Fraction`` rows from ``tests/oracles.py``."""

    @given(st.integers(0, 5).flatmap(lambda order: st.tuples(
        st.just(order), fraction_rows(order), fraction_rows(order), mixed_rationals())))
    # the five-prime shape: every coefficient over its own 20-bit prime
    @example((2, [_over(P1, P2), _over(P3), [0, *_over(P4, P5)]],
              [_over(P5, P4, P3), [], _over(P2, P1)], Fraction(3, P1)))
    @example((0, [_over(P1, P2, P3)], [_over(P4, P5)], Fraction(-1)))
    @example((3, [[], [0, 0], [], [Fraction(0)]], [[1], [], [0, 2], []], Fraction(0)))
    @example((0, [[]], [[]], Fraction(1)))
    def test_kernels_match_fraction_oracle(self, operands):
        order, ra, rb, c = operands
        a, b = (SeriesYX(order, [Poly(row) for row in rows]) for rows in (ra, rb))
        zero = [[]] * (order + 1)
        checks = [
            (a, ra),
            (b, rb),
            (a + b, oracles.series_rows_sum(ra, rb)),
            (a - b, oracles.series_rows_sum(ra, rb, -1)),
            (a - a, zero),
            (-a, oracles.series_rows_sum(zero, ra, -1)),
            (a * b, oracles.series_rows_product(ra, rb)),
            (c * (a * b) + b * a,
             oracles.series_rows_sum(oracles.series_rows_product(rb, ra),
                                     oracles.series_rows_product(ra, rb), c)),
            (a.differentiate_x(), oracles.series_rows_dx(ra)),
            *((a.truncate(k), ra[:k + 1]) for k in range(order + 1)),
            *(((a.differentiate_y(), oracles.series_rows_dy(ra)),) if order else ()),
        ]
        for result, expected in checks:
            _assert_stored(result)
            assert _rows(result) == oracles.series_rows(expected)
            assert result.is_zero == (not any(oracles.series_rows(expected)))
            assert [result.coeff(nu) for nu in range(result.order + 1)] == list(result.coeffs)
        for x, y in ((a * b, b * a), (a + SeriesYX(order), a), (SeriesYX(order, a.coeffs), a),
                     (a - b, -(b - a))):
            assert x == y and hash(x) == hash(y)
        assert (a == b) == (oracles.series_rows(ra) == oracles.series_rows(rb))

    def test_zero_is_one_form(self):
        for s in (SeriesYX(2), SeriesYX(2, [0, Poly.zero(), "0"]), SeriesYX.one(2) - SeriesYX.one(2),
                  series(2, [1], ["1/3"]).differentiate_x()):
            _assert_stored(s)
            assert (s._den, s._nums) == (1, ((), (), ()))
            assert s == SeriesYX(2) and hash(s) == hash(SeriesYX(2))

    def test_truncation_reduces(self):
        # the top row carries the denominator 5; without it the series is over 1
        s = series(1, [2, 4], ["1/5"]).truncate(0)
        assert (s._den, s._nums) == (1, ((2, 4),))
        assert s == series(0, [2, 4])


class TestCalculus:
    def test_differentiate_y_drops_order(self):
        s = series(2, [1], [0, 1], [5])
        d = s.differentiate_y()
        assert d.order == 1
        assert d.coeff(0) == Poly([0, 1])
        assert d.coeff(1) == Poly([10])

    def test_differentiate_y_at_order_zero_rejected(self):
        with pytest.raises(ValueError):
            SeriesYX.one(0).differentiate_y()

    def test_differentiate_x_keeps_order(self):
        s = series(1, [1, 0, 3], [0, 2])
        d = s.differentiate_x()
        assert d.order == 1
        assert d.coeff(0) == Poly([0, 6])
        assert d.coeff(1) == Poly([2])

    @given(small_series(), small_series())
    def test_x_derivative_product_rule(self, a, b):
        lhs = (a * b).differentiate_x()
        rhs = a.differentiate_x() * b + a * b.differentiate_x()
        assert lhs == rhs


class TestShiftSubstitute:
    def test_linear_shift(self):
        # x  ->  x + y*q(x)
        q = Poly([1, 0, -1])
        assert poly_shift_substitute(Poly.x(), q, 2) == series(2, [0, 1], q.coeffs, [0])

    def test_square_of_shift(self):
        # (x + y*x)^2 = x^2 (1 + y)^2
        out = poly_shift_substitute(Poly.monomial(2), Poly.x(), 3)
        assert out == series(3, [0, 0, 1], [0, 0, 2], [0, 0, 1], [0])

    def test_constant_polynomial(self):
        assert poly_shift_substitute(Poly([7]), Poly([1, 5]), 2) == series(2, [7], [0], [0])

    @given(small_polys(3), small_polys(2), rationals(4, 3), rationals(4, 3))
    def test_substitution_evaluates_correctly(self, p, q, x0, y0):
        # At truncation order >= deg p the expansion is exact, so plugging
        # numbers into the series must match p(x0 + y0*q(x0)).
        order = max(int(p.degree), 0) + 1 if not p.is_zero else 1
        s = poly_shift_substitute(p, q, order)
        assert s.evaluate(x0, y0) == p(x0 + y0 * q(x0))


def series_up_to_ten(constant: int):
    """A series of order ``0 .. 10`` with constant term ``constant``."""
    return st.integers(0, 10).flatmap(lambda order: st.builds(
        lambda cs: SeriesYX(order, [constant, *cs]),
        st.lists(small_polys(2), max_size=order)))


class TestExp:
    @given(series_up_to_ten(0))
    @example(series(10, [0], [1]))
    @example(SeriesYX(0))
    def test_matches_power_sum(self, s):
        assert series_exp(s).coeffs == tuple(oracles.series_exp_sum(s.coeffs))

    def test_exp_of_zero(self):
        assert series_exp(SeriesYX(3)) == SeriesYX.one(3)

    def test_gaussian_argument(self):
        s = series(2, [0], [0, -2], [-1])
        assert series_exp(s) == series(2, [1], [0, -2], [-1, 0, 2])

    def test_plain_exponential(self):
        s = series(3, [0], [1])
        assert series_exp(s) == series(3, [1], [1], ["1/2"], ["1/6"])

    def test_nonzero_constant_term_rejected(self):
        with pytest.raises(ValueError):
            series_exp(SeriesYX.one(2))

    @given(small_series(3))
    def test_exp_inverse(self, s):
        base = s - SeriesYX(3, [s.coeff(0)])  # kill the y^0 term
        prod = series_exp(base) * series_exp(-base)
        assert prod == SeriesYX.one(3)

    @given(small_series(3), small_series(3))
    def test_exp_additivity(self, a, b):
        a = a - SeriesYX(3, [a.coeff(0)])
        b = b - SeriesYX(3, [b.coeff(0)])
        assert series_exp(a + b) == series_exp(a) * series_exp(b)


class TestPowRational:
    @given(series_up_to_ten(1), st.integers(0, 12) | rationals(5, 4))
    @example(series(10, [1], [0, 1], [2]), Fraction(2, 3))
    def test_matches_binomial_sum(self, s, drawn):
        # alpha = -1; a nonnegative integer below, at and above the order,
        # where the binomial coefficients vanish from k = alpha + 1 on; rationals
        for alpha in (-1, max(s.order - 1, 0), s.order, s.order + 1, Fraction(-7, 3), drawn):
            assert (series_pow_rational(s, alpha).coeffs
                    == tuple(oracles.series_pow_sum(s.coeffs, alpha))), alpha

    def test_power_of_one(self):
        assert series_pow_rational(SeriesYX.one(3), Fraction(7, 3)) == SeriesYX.one(3)

    def test_binomial_half(self):
        s = series(2, [1], [1])
        assert series_pow_rational(s, Fraction(1, 2)) == series(2, [1], ["1/2"], ["-1/8"])

    def test_integer_exponent_matches_binomial_theorem(self):
        s = series(3, [1], [1])
        assert series_pow_rational(s, 3) == series(3, [1], [3], [3], [1])

    def test_constant_term_must_be_one(self):
        with pytest.raises(ValueError):
            series_pow_rational(series(2, [2], [1]), Fraction(1, 2))

    @given(small_series(3), rationals(5, 3), rationals(5, 3))
    def test_exponent_additivity(self, s, a, b):
        base = s - SeriesYX(3, [s.coeff(0)]) + SeriesYX.one(3)
        lhs = series_pow_rational(base, a + b)
        rhs = series_pow_rational(base, a) * series_pow_rational(base, b)
        assert lhs == rhs

    @given(small_series(3), st.integers(min_value=0, max_value=4))
    def test_integer_exponent_agrees_with_repeated_mul(self, s, k):
        base = s - SeriesYX(3, [s.coeff(0)]) + SeriesYX.one(3)
        assert series_pow_rational(base, k) == base**k
