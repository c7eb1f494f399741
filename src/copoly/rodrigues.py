"""Classical pairs, the Rodrigues operator, and complementary polynomials.

For a pair ``(phi, psi)`` with ``deg phi <= 2`` and ``deg psi = 1`` whose
moment functional ``u`` satisfies the Pearson equation ``(phi u)' = psi u``,
the shifted functionals ``u_k = phi**k u`` satisfy Pearson equations with
``psi_k = psi + k phi'``.  The first-order Rodrigues operator with base
index ``k`` sends ``p`` to the unique polynomial ``q`` with

    (p u_{k+1})' = q u_k,        symbolically  q = phi p' + psi_k p.

Iterating it downward from base index ``n - 1`` builds the complementary
polynomials ``C_nu(x; n)``: degree-``nu`` rows of a triangular family whose
diagonal ``C_n(x; n)`` is, up to normalization, the classical orthogonal
polynomial of degree ``n`` for ``u``.  The rows obey

    C_0 = 1,    C_{nu+1} = phi C_nu' + (psi + (n - nu - 1) phi') C_nu,

a second-order differential equation with eigenvalue ``mu(n, nu)``, and a
family of functional identities relating ``C_nu u_{n-nu}`` to derivatives of
``C_mu u_{n-mu}``; the residual operations below state each identity as an
exactly-zero object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import zip_longest
from typing import Callable, Mapping, NamedTuple, Sequence

from .errors import InvalidParameter
from .functional import (
    MomentFunctional,
    _combination,
    functional_derivative,
    functional_poly_mul,
    moments_from_pearson,
)
from .poly import Poly, _convolve, _over_lcm, as_rational
from .series import SeriesYX, series_exp, series_pow_rational


@dataclass
class FamilySpec:
    """Unchecked description of a pair; ``FamilySpec(phi, psi, u0)`` is a custom one.
    Only the CLI's request and the benchmark's inputs: kept here, not exported."""

    phi: Poly
    psi: Poly
    u0: Fraction = Fraction(1)
    name: str = "custom"
    params: dict[str, Fraction] = field(default_factory=dict)


class CatalogFamily(NamedTuple):
    """Everything the package knows about one catalog family.

    ``pair`` maps the parameter values, in ``params`` order, to ``(phi, psi)``.
    ``weight_ratio`` maps a truncation order and the same values to the
    series of ``rho(x + y phi) / rho(x)`` for the family's weight ``rho``.
    ``phi_text`` and ``psi_text`` are the display forms of the pair; they
    parse back to ``pair``'s polynomials.
    """

    params: tuple[str, ...]
    phi_text: str
    psi_text: str
    pair: Callable[..., tuple[Poly, Poly]]
    weight_ratio: Callable[..., SeriesYX]


def _y_series(order: int, *coeffs: Poly) -> SeriesYX:
    """``coeffs[0] + coeffs[1] y + ...`` truncated at ``order``."""
    return SeriesYX(order, coeffs[: order + 1])


# The weight ratios call series_exp and series_pow_rational as module globals,
# so anything that rebinds those names (a profiler, say) sees every call.

def _hermite_ratio(order: int) -> SeriesYX:
    """``exp(-2xy - y^2)``."""
    return series_exp(_y_series(order, Poly.zero(), Poly([0, -2]), Poly([-1])))


def _laguerre_ratio(order: int, alpha: Fraction) -> SeriesYX:
    """``(1 + y)^alpha exp(-xy)``."""
    return (series_pow_rational(_y_series(order, Poly.one(), Poly.one()), alpha)
            * series_exp(_y_series(order, Poly.zero(), Poly([0, -1]))))


def _jacobi_ratio(order: int, alpha: Fraction, beta: Fraction) -> SeriesYX:
    """``(1 - y(1+x))^alpha (1 + y(1-x))^beta``."""
    return (series_pow_rational(_y_series(order, Poly.one(), Poly([-1, -1])), alpha)
            * series_pow_rational(_y_series(order, Poly.one(), Poly([1, -1])), beta))


def _bessel_ratio(order: int, alpha: Fraction) -> SeriesYX:
    """``(1 + xy)^alpha exp(2y / (1 + xy))``."""
    one_plus_xy = _y_series(order, Poly.one(), Poly([0, 1]))
    two_y = _y_series(order, Poly.zero(), Poly([2]))
    return (series_pow_rational(one_plus_xy, alpha)
            * series_exp(two_y * series_pow_rational(one_plus_xy, -1)))


FAMILIES: dict[str, CatalogFamily] = {
    "hermite": CatalogFamily(
        (), "1", "-2*x",
        lambda: (Poly([1]), Poly([0, -2])), _hermite_ratio),
    "laguerre": CatalogFamily(
        ("alpha",), "x", "(alpha + 1) - x",
        lambda a: (Poly([0, 1]), Poly([a + 1, -1])), _laguerre_ratio),
    "jacobi": CatalogFamily(
        ("alpha", "beta"), "1 - x^2", "(beta - alpha) - (alpha + beta + 2)*x",
        lambda a, b: (Poly([1, 0, -1]), Poly([b - a, -(a + b + 2)])), _jacobi_ratio),
    "bessel": CatalogFamily(
        ("alpha",), "x^2", "(alpha + 2)*x + 2",
        lambda a: (Poly([0, 0, 1]), Poly([2, a + 2])), _bessel_ratio),
}

def _catalog_spec(name: str,
                  params: Mapping[str, int | str | Fraction | None]) -> FamilySpec:
    """The unchecked description of the catalog family ``name`` at ``params``.

    A parameter the family takes but ``params`` omits (or gives as ``None``)
    is 0; a parameter it does not take, and a name outside the catalog, are
    rejected with ``InvalidParameter``.
    """
    family = FAMILIES.get(name)
    if family is None:
        raise InvalidParameter(
            f"unknown family {name!r}; catalog families are {', '.join(FAMILIES)}")
    for key in sorted(params):
        if params[key] is not None and key not in family.params:
            raise InvalidParameter(f"family {name!r} does not take {key}")
    values = {key: as_rational(0 if params.get(key) is None else params[key])
              for key in family.params}
    phi, psi = family.pair(*values.values())
    return FamilySpec(phi, psi, name=name, params=values)


def catalog_family(name: str, params: Mapping[str, int | str | Fraction | None]) -> ClassicalPair:
    """The checked pair of catalog family ``name``, ``params`` read as ``_catalog_spec`` does."""
    return pair_from_family(_catalog_spec(name, params))


def hermite_family() -> ClassicalPair:
    """phi = 1, psi = -2x (weight exp(-x^2) on the line)."""
    return catalog_family("hermite", {})


def laguerre_family(alpha: int | str | Fraction) -> ClassicalPair:
    """phi = x, psi = (alpha+1) - x (weight x^alpha exp(-x) on the half line)."""
    return catalog_family("laguerre", {"alpha": alpha})


def jacobi_family(alpha: int | str | Fraction, beta: int | str | Fraction) -> ClassicalPair:
    """phi = 1 - x^2, psi = (beta-alpha) - (alpha+beta+2)x (weight (1-x)^a (1+x)^b)."""
    return catalog_family("jacobi", {"alpha": alpha, "beta": beta})


def bessel_family(alpha: int | str | Fraction) -> ClassicalPair:
    """phi = x^2, psi = (alpha+2)x + 2 (formal weight x^alpha exp(-2/x))."""
    return catalog_family("bessel", {"alpha": alpha})


class ClassicalPair:
    """A ``(phi, psi)`` pair with the Pearson functional ``u`` of ``(phi, psi, u0)``;
    ``moments_from_pearson`` checks the pair, and admissibility for ``k < max_order``.

    Immutable apart from internal memoization: the moment sequence of ``u``
    extends on demand, the shifted functionals ``u_k = phi**k u`` are cached
    per index, the complementary rows per ``n``, and the weighted rows
    ``C_nu u_{n-nu}`` per ``(n, nu)``.
    """

    __slots__ = ("phi", "psi", "u0", "u", "name", "params", "_shifted", "_rows", "_weighted")

    def __init__(self, phi: Poly, psi: Poly, u0: int | str | Fraction = 1,
                 name: str = "custom", params: Mapping[str, Fraction] | None = None,
                 max_order: int = 0):
        # a module global, so anything that rebinds it (a profiler, say) sees the call
        self.u = moments_from_pearson(phi, psi, u0, max_order)
        self.phi = phi
        self.psi = psi
        self.u0 = as_rational(u0)
        self.name = name
        self.params = dict(params or {})
        self._shifted: dict[int, MomentFunctional] = {0: self.u}
        self._rows: dict[int, list[Poly]] = {}
        self._weighted: dict[tuple[int, int], MomentFunctional] = {}

    def functional_power(self, k: int) -> MomentFunctional:
        """The shifted functional ``u_k = phi**k u``."""
        if k < 0:
            raise IndexError("functional index must be >= 0")
        if k not in self._shifted:
            self._shifted[k] = functional_poly_mul(self.phi ** k, self.u)
        return self._shifted[k]

    def rows(self, n: int, count: int) -> list[Poly]:
        """Rows ``C_0 .. C_count`` of ``n``; ``count`` may pass ``n``.

        The memo for ``n`` is extended only by the rows it lacks.
        """
        if count < 0:
            raise IndexError(f"count must be >= 0, got {count}")
        rows = self._rows.setdefault(n, [])
        if len(rows) <= count:
            rows.extend(_comp_rows(self, n, count, rows))
        return rows[: count + 1]

    def weighted_row(self, n: int, nu: int) -> MomentFunctional:
        """The functional ``C_nu(x; n) u_{n-nu}``, built once per ``(n, nu)``."""
        key = (n, nu)
        if key not in self._weighted:
            self._weighted[key] = functional_poly_mul(
                complementary(self, n, nu), self.functional_power(n - nu))
        return self._weighted[key]

    def __repr__(self) -> str:
        return f"ClassicalPair({self.name!r}, phi={self.phi!r}, psi={self.psi!r})"


def pair_from_family(spec: FamilySpec, max_order: int = 0) -> ClassicalPair:
    """The ``ClassicalPair`` that ``spec`` (or a pair) describes in ``(phi, psi, u0, name,
    params)``; the CLI builds here after its caps.  Kept here for the benchmark, not exported."""
    return ClassicalPair(spec.phi, spec.psi, spec.u0, spec.name, spec.params, max_order)


def psi_k(pair: ClassicalPair, k: int) -> Poly:
    """Pearson partner of the shifted functional: ``psi_k = psi + k phi'``."""
    return pair.psi + k * pair.phi.derivative()


def rodrigues_r1(pair: ClassicalPair, k: int, p: Poly) -> Poly:
    """One Rodrigues step at base index ``k``: ``p -> phi p' + psi_k p``.

    This is the polynomial ``q`` with ``(p u_{k+1})' = q u_k``.
    """
    return pair.phi * p.derivative() + psi_k(pair, k) * p


def rodrigues_rk(pair: ClassicalPair, k: int, base: int, p: Poly) -> Poly:
    """``k``-fold Rodrigues operator over base index ``base``.

    The composition applies single steps with base indices
    ``base + k - 1, ..., base + 1, base`` (innermost first); ``k = 0`` is the
    identity.
    """
    if k < 0:
        raise IndexError("iteration count must be >= 0")
    out = p
    for j in range(k):
        out = rodrigues_r1(pair, base + k - 1 - j, out)
    return out


def _comp_rows(pair: ClassicalPair, n: int, count: int,
               prefix: Sequence[Poly] = ()) -> list[Poly]:
    """The rows after ``prefix = [C_0, ...]`` through ``C_count``, newly built."""
    # The recursion coefficient (n - nu - 1) goes negative past nu = n; that
    # continuation is what the generating series needs, so no bound check here.
    # Each row is a Poly: its integer numerators over one reduced denominator
    # are the recursion's state.  With phi and psi over their common
    # denominator ``scale``, a step is two integer convolutions and one gcd.
    out = [] if prefix else [Poly.one()]
    row = (prefix or out)[-1]
    scale, (phi, psi) = _over_lcm([(p._den, p._nums) for p in (pair.phi, pair.psi)])
    dphi = [i * c for i, c in enumerate(phi)][1:]
    for nu in range(max(len(prefix) - 1, 0), count):
        k = n - nu - 1
        factor = [a + k * b for a, b in zip_longest(psi, dphi, fillvalue=0)]
        num = row._nums
        dnum = [i * c for i, c in enumerate(num)][1:]
        row = Poly._of(row._den * scale, _convolve(_convolve([], phi, dnum), factor, num))
        out.append(row)
    return out


def complementary(pair: ClassicalPair, n: int, nu: int) -> Poly:
    """Complementary polynomial ``C_nu(x; n)`` via the first-order recursion."""
    if nu < 0 or nu > n:
        raise IndexError(f"nu must satisfy 0 <= nu <= n, got nu={nu}, n={n}")
    return pair.rows(n, nu)[nu]


@dataclass(frozen=True)
class CompTable:
    """Full triangle row set ``C_0 .. C_n`` for one ``n``; kept here for the benchmark's
    sweep and tracer, not exported (library code reads ``pair.rows(n, n)``).

    The normalization constant multiplying the diagonal is fixed to 1
    throughout this package; ``deg rows[nu] = nu`` whenever the pair is
    admissible over the range.
    """

    n: int
    rows: tuple[Poly, ...]


def complementary_table(pair: ClassicalPair, n: int) -> CompTable:
    """All rows ``C_0 .. C_n`` in one pass; kept here for the benchmark, not exported."""
    if n < 0:
        raise IndexError("n must be >= 0")
    return CompTable(n, tuple(pair.rows(n, n)))


def _eigen_coefficients(pair: ClassicalPair) -> tuple[int, int, int]:
    """``(A, P, s)`` with ``A / s`` the ``x**2`` coefficient of ``phi`` and ``P / s``
    the ``x`` coefficient of ``psi``, read off their integer numerators."""
    phi, psi = pair.phi, pair.psi
    a = phi._nums[2] * psi._den if len(phi._nums) > 2 else 0
    return a, psi._nums[1] * phi._den, phi._den * psi._den


def lambda_n(pair: ClassicalPair, n: int) -> Fraction:
    """Second-order eigenvalue of the degree-``n`` orthogonal polynomial:
    ``-n psi' - n(n-1)/2 phi''``, that is ``(-n P - n(n-1) A) / s``."""
    if n < 0:
        raise IndexError("n must be >= 0")
    a, p, s = _eigen_coefficients(pair)
    return Fraction(-n * p - n * (n - 1) * a, s)


def mu_eigenvalue(pair: ClassicalPair, n: int, nu: int) -> Fraction:
    """Eigenvalue of row ``nu``: ``-nu ((n - (nu+1)/2) phi'' + psi')``,
    that is ``-nu ((2n - nu - 1) A + P) / s``.

    At ``nu = n`` this collapses to ``lambda_n``; at ``nu = 0`` it is zero.
    """
    if nu < 0 or nu > n:
        raise IndexError(f"nu must satisfy 0 <= nu <= n, got nu={nu}, n={n}")
    a, p, s = _eigen_coefficients(pair)
    return Fraction(-nu * ((2 * n - nu - 1) * a + p), s)


def ode_residual(pair: ClassicalPair, n: int, nu: int) -> Poly:
    """Residual of the row differential equation; identically zero:

    ``phi C_nu'' + ((n - nu) phi' + psi) C_nu' + mu(n, nu) C_nu``.
    """
    p = complementary(pair, n, nu)
    return (pair.phi * p.derivative(2)
            + ((n - nu) * pair.phi.derivative() + pair.psi) * p.derivative()
            + mu_eigenvalue(pair, n, nu) * p)


def sturm_liouville_residual(pair: ClassicalPair, n: int, nu: int) -> MomentFunctional:
    """The functional ``(C_nu' u_{n-nu+1})' + mu(n, nu) C_nu u_{n-nu}``.

    This is the self-adjoint (weighted) form of the row equation, stated at
    the functional level; every moment is zero.
    """
    lhs = functional_derivative(functional_poly_mul(
        complementary(pair, n, nu).derivative(), pair.functional_power(n - nu + 1)))
    mu = mu_eigenvalue(pair, n, nu)
    return _combination([(mu.denominator, lhs, 0), (mu.numerator, pair.weighted_row(n, nu), 0)],
                        mu.denominator)


def rodrigues_formula_residual(pair: ClassicalPair, n: int, nu: int, mu: int) -> MomentFunctional:
    """The functional ``C_nu u_{n-nu} - (d/dx)^(nu-mu) [C_mu u_{n-mu}]``.

    With ``mu = 0`` this is the Rodrigues formula for the rows
    (``C_nu u_{n-nu}`` equals the ``nu``-th derivative of ``u_n``); general
    ``mu`` interpolates between rows.  Every moment is zero.
    """
    if not 0 <= mu <= nu <= n:
        raise IndexError(f"need 0 <= mu <= nu <= n, got mu={mu}, nu={nu}, n={n}")
    rhs = functional_derivative(pair.weighted_row(n, mu), nu - mu)
    return pair.weighted_row(n, nu) - rhs


def derivative_proportionality(pair: ClassicalPair, n: int, nu: int) -> Fraction | None:
    """Constant ``c`` with ``C_{n-nu}(x; n) = c * (d/dx)^nu C_n(x; n)``, or ``None``
    if no exact constant exists (which would be an implementation bug for an
    admissible pair)."""
    if nu < 0 or nu > n:
        raise IndexError(f"nu must satisfy 0 <= nu <= n, got nu={nu}, n={n}")
    deriv = complementary(pair, n, n).derivative(nu)
    target = complementary(pair, n, n - nu)
    if deriv.is_zero:
        return None
    ratio = target.leading_coefficient / deriv.leading_coefficient
    return ratio if target == ratio * deriv else None


def leading_coeff_probe(pair: ClassicalPair, k: int, m: int) -> Fraction:
    """The ``x**(m+1)`` coefficient of one Rodrigues step on the monic probe ``x**m``.

    Expanding ``phi (x^m)' + psi_k x^m`` shows it is ``psi' + (m + 2k) phi''/2``,
    the top coefficient unless that value is 0; the probe returns what the
    arithmetic actually produces, so the formula can be audited against it.
    """
    return rodrigues_r1(pair, k, Poly.monomial(m)).coefficient(m + 1)
