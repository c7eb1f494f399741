"""Dense rational polynomial container and ring operations."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import mixed_rationals, rationals, small_polys
from copoly import Poly, as_poly, as_rational
from copoly.poly import _convolve, _integer_form, _reduced


class TestConstruction:
    def test_trailing_zeros_stripped(self):
        assert Poly([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))

    def test_zero_polynomial_has_no_coeffs(self):
        assert Poly([0, 0]).coeffs == ()
        assert Poly().is_zero

    def test_degree_of_zero_is_negative_infinity(self):
        assert Poly.zero().degree == -math.inf

    def test_degree(self):
        assert Poly([5]).degree == 0
        assert Poly([0, 0, Fraction(1, 3)]).degree == 2

    def test_classmethods(self):
        assert Poly.one() == Poly([1])
        assert Poly.x() == Poly([0, 1])
        assert Poly.constant("3/2") == Poly([Fraction(3, 2)])
        assert Poly.monomial(3, 2) == Poly([0, 0, 0, 2])

    def test_string_coefficients_accepted(self):
        assert Poly(["1/2", "-2"]) == Poly([Fraction(1, 2), -2])

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            Poly([0.5])
        with pytest.raises(TypeError):
            as_rational(0.5)

    def test_bool_rejected_as_coefficient(self):
        with pytest.raises(TypeError):
            Poly([True])
        with pytest.raises(TypeError):
            as_rational(True)

    def test_as_poly(self):
        assert as_poly(3) == Poly([3])
        assert as_poly("-1/2") == Poly([Fraction(-1, 2)])
        p = Poly([1, 1])
        assert as_poly(p) is p


class TestAccessors:
    def test_coefficient_beyond_degree_is_zero(self):
        assert Poly([1, 2]).coefficient(5) == 0

    def test_coefficient_negative_index(self):
        with pytest.raises(IndexError):
            Poly([1]).coefficient(-1)

    def test_leading_coefficient(self):
        assert Poly([1, 0, Fraction(-2, 3)]).leading_coefficient == Fraction(-2, 3)

    def test_leading_coefficient_of_zero(self):
        with pytest.raises(ValueError):
            Poly.zero().leading_coefficient

    def test_monic(self):
        assert Poly([2, 0, 4]).monic() == Poly([Fraction(1, 2), 0, 1])

    def test_evaluate(self):
        p = Poly([-2, 0, 4])
        assert p(Fraction(1, 2)) == -1
        assert p(0) == -2
        assert Poly.zero()(7) == 0


class TestDerivative:
    def test_derivative_of_zero(self):
        assert Poly.zero().derivative() == Poly.zero()

    def test_power_rule(self):
        assert Poly([-2, 0, 4]).derivative() == Poly([0, 8])
        assert Poly([0, Fraction(1, 2), 0, 1]).derivative() == Poly(
            [Fraction(1, 2), 0, 3]
        )

    def test_higher_order(self):
        p = Poly([0, 0, 0, 1])
        assert p.derivative(2) == Poly([0, 6])
        assert p.derivative(4) == Poly.zero()

    @given(small_polys(), small_polys())
    def test_product_rule(self, p, q):
        assert (p * q).derivative() == p.derivative() * q + p * q.derivative()

    @given(small_polys(), small_polys())
    def test_linearity(self, p, q):
        assert (p + q).derivative() == p.derivative() + q.derivative()


class TestArithmetic:
    def test_add_sub(self):
        assert Poly([1, 2]) + Poly([0, -2, 3]) == Poly([1, 0, 3])
        assert Poly([1, 2]) - Poly([1, 2]) == Poly.zero()

    def test_cancellation_drops_degree(self):
        assert (Poly([0, 0, 1]) - Poly([1, 0, 1])).degree == 0

    def test_mul(self):
        # (1 + x)(1 - x) = 1 - x^2
        assert Poly([1, 1]) * Poly([1, -1]) == Poly([1, 0, -1])

    def test_scalar_mixing(self):
        p = Poly([0, 1])
        assert 2 * p == Poly([0, 2])
        assert p + 1 == Poly([1, 1])
        assert 1 - p == Poly([1, -1])
        assert p * Fraction(1, 2) == Poly([0, Fraction(1, 2)])

    def test_truediv_scalar(self):
        assert Poly([2, 4]) / 2 == Poly([1, 2])
        with pytest.raises(ZeroDivisionError):
            Poly([1]) / 0

    def test_truediv_by_poly_unsupported(self):
        with pytest.raises(TypeError):
            Poly([1]) / Poly([0, 1])

    def test_pow(self):
        assert Poly([1, 1]) ** 3 == Poly([1, 3, 3, 1])
        assert Poly([0, 2]) ** 0 == Poly.one()
        with pytest.raises(ValueError):
            Poly([1, 1]) ** -1

    def test_float_operand_rejected(self):
        with pytest.raises(TypeError):
            Poly([1]) + 0.5
        with pytest.raises(TypeError):
            Poly([1]) * 0.5

    @given(small_polys(), small_polys(), small_polys())
    def test_ring_laws(self, p, q, r):
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @given(small_polys())
    def test_neutral_elements(self, p):
        assert p + Poly.zero() == p
        assert p * Poly.one() == p
        assert p - p == Poly.zero()

    @given(small_polys(), small_polys(), rationals())
    def test_evaluation_is_ring_hom(self, p, q, x0):
        assert (p + q)(x0) == p(x0) + q(x0)
        assert (p * q)(x0) == p(x0) * q(x0)

    @given(small_polys(), small_polys())
    def test_degree_of_product(self, p, q):
        if p.is_zero or q.is_zero:
            assert (p * q).is_zero
        else:
            assert (p * q).degree == p.degree + q.degree


class TestEqualityAndHash:
    def test_eq_against_scalar(self):
        assert Poly([3]) == 3
        assert Poly([0, 1]) != 3

    def test_hash_consistent(self):
        assert hash(Poly([1, 2])) == hash(Poly([1, 2, 0]))
        d = {Poly([1, 2]): "a"}
        assert d[Poly([1, 2])] == "a"

    def test_constant_hash_matches_scalar(self):
        assert hash(Poly([3])) == hash(3)
        assert hash(Poly.zero()) == hash(0)

    def test_equal_across_construction_paths(self):
        # a kernel product against string coefficients, and a reducible Fraction against its scalar
        product, parsed = Poly([1, 2]) * Fraction(1, 3), Poly(["1/3", "2/3"])
        assert product == parsed
        assert hash(product) == hash(parsed)
        assert (product._den, product._nums) == (3, (1, 2))
        half = Poly([Fraction(2, 4)])
        assert half == Fraction(1, 2)
        assert hash(half) == hash(Fraction(1, 2))

    def test_bool(self):
        assert not Poly.zero()
        assert Poly([0, 1])


class TestText:
    def test_str_examples(self):
        assert str(Poly([-2, 0, 4])) == "-2 + 4*x^2"
        assert str(Poly([Fraction(3, 2), -2])) == "3/2 - 2*x"
        assert str(Poly.zero()) == "0"
        assert str(Poly.x()) == "x"

    def test_repr_mentions_coeffs(self):
        assert "Poly" in repr(Poly([1, 2]))


# Reference ring operations on plain Fraction lists, independent of Poly.

def _strip(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _ref_add(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return _strip(x + y for x, y in zip(a, b))


def _ref_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _strip(out)


def _ref_derivative(a):
    return _strip(i * c for i, c in enumerate(a) if i > 0)


def _assert_canonical(r):
    assert all(type(c) is Fraction for c in r.coeffs)
    assert all(c.denominator > 0 and math.gcd(c.numerator, c.denominator) == 1
               for c in r.coeffs)
    assert not r.coeffs or r.coeffs[-1] != 0
    assert hash(r) == hash(Poly(list(r.coeffs)))
    # the stored form: integer numerators over one positive, reduced denominator
    assert type(r._den) is int and r._den > 0
    assert all(type(v) is int for v in r._nums)
    assert math.gcd(r._den, *r._nums) == 1
    assert not r._nums or r._nums[-1] != 0
    assert r._nums or r._den == 1


def _assert_matches(result, expected):
    _assert_canonical(result)
    assert list(result.coeffs) == expected


def _wide_polys(max_degree=6):
    """Large pairwise-unrelated denominators, with zeros mixed into the middle."""
    coeff = st.one_of(st.just(Fraction(0)),
                      st.fractions(min_value=-10**9, max_value=10**9, max_denominator=10**12))
    return st.lists(coeff, max_size=max_degree + 1)


PRIMES = (1000003, 1000033, 1000037, 999983, 2**61 - 1, 7)


class TestKernelEquivalence:
    """Every ring operation agrees with the Fraction-list reference above."""

    def _check_all(self, a, b):
        p, q = Poly(a), Poly(b)
        a, b = list(p.coeffs), list(q.coeffs)
        _assert_matches(p * q, _ref_mul(a, b))
        _assert_matches(p + q, _ref_add(a, b))
        _assert_matches(p - q, _ref_add(a, [-c for c in b]))
        _assert_matches(-p, [-c for c in a])
        _assert_matches(p.derivative(), _ref_derivative(a))
        _assert_matches(p.derivative(2), _ref_derivative(_ref_derivative(a)))

    @given(_wide_polys(), _wide_polys())
    def test_random_operands(self, a, b):
        self._check_all(a, b)

    @given(_wide_polys(), st.fractions(min_value=-10**6, max_value=10**6,
                                       max_denominator=10**9))
    def test_random_scalars(self, a, s):
        p = Poly(a)
        _assert_matches(p * s, _ref_mul(list(p.coeffs), [s] if s else []))
        _assert_matches(s * p, _ref_mul(list(p.coeffs), [s] if s else []))
        if s:
            _assert_matches(p / s, _strip(c / s for c in p.coeffs))

    def test_pairwise_coprime_large_denominators(self):
        a = [Fraction(k + 1, d) * (-1) ** k for k, d in enumerate(PRIMES)]
        b = [Fraction(d - 2, d * e) for d, e in zip(PRIMES[::-1], PRIMES)]
        self._check_all(a, b)
        self._check_all(b, a)

    def test_zero_coefficients_in_the_middle(self):
        a = [Fraction(1, 3), 0, 0, Fraction(-5, 7), 0, Fraction(2, 1000003)]
        b = [0, Fraction(2, 9), 0, 0, 1]
        self._check_all(a, b)

    def test_zero_and_scalar_products(self):
        p = Poly([Fraction(1, 3), 0, Fraction(-5, 7)])
        a = list(p.coeffs)
        for zero in (Poly.zero(), 0, Fraction(0)):
            _assert_matches(p * zero, [])
            _assert_matches(zero * p, [])
        _assert_matches(p * -3, [-3 * c for c in a])
        _assert_matches(p * Fraction(-7, 11), [Fraction(-7, 11) * c for c in a])
        _assert_matches(p / Fraction(-3, 5), [c / Fraction(-3, 5) for c in a])
        _assert_matches(p / -4, [c / -4 for c in a])

    def test_sums_that_cancel(self):
        p = Poly([Fraction(1, 3), Fraction(2, 999983), Fraction(-5, 7)])
        _assert_matches(p + (-p), [])
        _assert_matches(p - p, [])
        _assert_matches(p - Poly([0, 0, Fraction(-5, 7)]), [Fraction(1, 3), Fraction(2, 999983)])
        _assert_matches(Poly([1, 1]) * Poly([1, -1]) - Poly([1, 0, -1]), [])

    def test_pow_and_monic(self):
        p = Poly([Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7)])
        expected = [Fraction(1)]
        for _ in range(4):
            expected = _ref_mul(expected, list(p.coeffs))
        _assert_matches(p ** 4, expected)
        _assert_matches(p.monic(), [c / Fraction(5, 7) for c in p.coeffs])


integer_rows = st.lists(st.one_of(st.just(0), st.integers(-10**6, 10**6)), max_size=7)


class TestIntegerKernel:
    """The integer form, convolution and reduction every exact kernel runs on."""

    @given(integer_rows, integer_rows, integer_rows)
    def test_convolve_matches_fraction_product(self, acc, a, b):
        expected = oracles._fraction_sum(acc, oracles._fraction_product(a, b))
        out = _convolve(list(acc), a, b)
        # trailing zeros are not a value, so only the values are compared
        assert _strip(out) == _strip(expected)
        assert len(out) >= len(acc)

    def test_convolve_adds_in_place(self):
        acc = [1, 1, 1, 1, 1]
        assert _convolve(acc, [2, 0, 3], [0, 5]) is acc
        assert acc == [1, 11, 1, 16, 1]
        assert _convolve([], [], [1, 2]) == []
        assert _convolve([7], [1, 2], []) == [7]
        assert _convolve([], [0, 0], [1, 2]) == [0, 0, 0]

    @given(st.lists(mixed_rationals(), max_size=8))
    def test_integer_form_round_trips(self, values):
        d, nums = _integer_form(values)
        assert d >= 1
        assert [Fraction(v, d) for v in nums] == values
        assert d == math.lcm(*[c.denominator for c in values])

    def test_integer_form_of_empty_rows(self):
        assert _integer_form(()) == (1, [])
        assert _integer_form([]) == (1, [])

    @given(st.integers(-10**9, 10**9).filter(bool), integer_rows)
    def test_reduced_keeps_value_and_sign(self, den, nums):
        d, out = _reduced(den, list(nums))
        assert (d > 0) == (den > 0)
        assert math.gcd(d, *out) == 1
        assert [Fraction(v, d) for v in out] == [Fraction(v, den) for v in nums]

    def test_reduced_divides_out_the_common_factor(self):
        assert _reduced(-12, [18, 0, -6]) == (-2, [3, 0, -1])
        assert _reduced(6, []) == (1, [])
        assert _reduced(5, [2, 3]) == (5, [2, 3])
