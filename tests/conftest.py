from __future__ import annotations

import os
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from copoly import (
    ClassicalPair,
    MomentFunctional,
    Poly,
    bessel_family,
    hermite_family,
    jacobi_family,
    laguerre_family,
)
from copoly.poly import _integer_form

settings.register_profile(
    "exact",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")

SRC = Path(__file__).resolve().parents[1] / "src"


def src_env() -> dict[str, str]:
    """The environment for a child interpreter that must import this tree's ``copoly``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# Depth 80 covers every moment index touched by the deepest residual in
# the acceptance grid (n = 12 at functional depth 2n + 4, shifted by
# deg(phi) * k for the phi^k functionals).
MOMENT_DEPTH = 80


@pytest.fixture(scope="session")
def hermite_pair():
    return hermite_family()


@pytest.fixture(scope="session")
def laguerre_pair():
    return laguerre_family(Fraction(1, 2))


@pytest.fixture(scope="session")
def jacobi_pair():
    return jacobi_family(Fraction(1, 3), 2)


@pytest.fixture(scope="session")
def bessel_pair():
    return bessel_family(1)


@pytest.fixture(scope="session")
def legendre_pair():
    return jacobi_family(0, 0)


@pytest.fixture(scope="session")
def family_pairs(hermite_pair, laguerre_pair, jacobi_pair, bessel_pair):
    """The four catalog pairs used throughout the acceptance grid."""
    return {
        "hermite": hermite_pair,
        "laguerre": laguerre_pair,
        "jacobi": jacobi_pair,
        "bessel": bessel_pair,
    }


def rationals(max_num: int = 12, max_den: int = 6) -> st.SearchStrategy[Fraction]:
    return st.fractions(
        min_value=-max_num, max_value=max_num, max_denominator=max_den
    )


# Unrelated 20-bit primes: a common denominator of several of them is as
# large as their product, the worst case for a common-denominator kernel.
PRIME_DENOMINATORS = (1048573, 1048571, 1048559, 1048549, 1048517)


def mixed_rationals() -> st.SearchStrategy[Fraction]:
    """Small rationals, zeros, and values over the unrelated primes above."""
    return st.one_of(
        rationals(),
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(-30, 30), st.sampled_from(PRIME_DENOMINATORS)),
    )


# every coefficient over its own prime denominator
FIVE_PRIME = (Poly([Fraction(127, 113), Fraction(109, 107), Fraction(103, 101)]),
              Poly([Fraction(97, 89), Fraction(83, 79)]))


def kernel_pairs() -> st.SearchStrategy[ClassicalPair]:
    """Pairs with ``deg phi <= 2`` and ``deg psi = 1`` over mixed denominators."""
    phi = st.lists(mixed_rationals(), min_size=1, max_size=3).map(Poly)
    psi = st.tuples(mixed_rationals(), mixed_rationals().filter(bool)).map(Poly)
    return st.builds(ClassicalPair, phi, psi)


def small_polys(max_degree: int = 5) -> st.SearchStrategy[Poly]:
    return st.builds(
        Poly, st.lists(rationals(), min_size=0, max_size=max_degree + 1)
    )


def moments_by_index(moment) -> MomentFunctional:
    """The functional with moments ``u_k = moment(k)`` for every ``k``, filled by a block."""
    def block(_: MomentFunctional, lo: int, hi: int) -> tuple[int, list[int]]:
        return _integer_form([Fraction(moment(k)) for k in range(lo, hi + 1)])
    return MomentFunctional(block=block)
