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

A pair reads ``(phi, psi)`` into integers once, as ``functional._pearson_form``
gives them: ``phi = (a x^2 + b x + c) / s`` and ``psi = (d x + e) / s``.  The
Rodrigues step, the row stencil and the eigenvalues compute on those five
integers and ``s``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import perm
from operator import mul
from typing import Callable, Mapping, NamedTuple

from .errors import InvalidParameter
from .functional import MomentFunctional, _pearson_form, _pearson_moments, functional_poly_mul
from .poly import Poly, _convolve, _scales, as_rational
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


# The catalog's parameter-free polynomials, built once: a pair with a catalog
# name builds its family's pair a second time, in ClassicalPair's check.
_ONE, _X, _X2 = Poly([1]), Poly([0, 1]), Poly([0, 0, 1])
_ONE_MINUS_X2, _MINUS_2X = Poly([1, 0, -1]), Poly([0, -2])

FAMILIES: dict[str, CatalogFamily] = {
    "hermite": CatalogFamily(
        (), "1", "-2*x",
        lambda: (_ONE, _MINUS_2X), _hermite_ratio),
    "laguerre": CatalogFamily(
        ("alpha",), "x", "(alpha + 1) - x",
        lambda a: (_X, Poly([a + 1, -1])), _laguerre_ratio),
    "jacobi": CatalogFamily(
        ("alpha", "beta"), "1 - x^2", "(beta - alpha) - (alpha + beta + 2)*x",
        lambda a, b: (_ONE_MINUS_X2, Poly([b - a, -(a + b + 2)])), _jacobi_ratio),
    "bessel": CatalogFamily(
        ("alpha",), "x^2", "(alpha + 2)*x + 2",
        lambda a: (_X2, Poly([2, a + 2])), _bessel_ratio),
}

def _catalog_spec(name: str, alpha: int | str | Fraction | None = None,
                  beta: int | str | Fraction | None = None) -> FamilySpec:
    """The unchecked description of the catalog family ``name`` at ``alpha`` and ``beta``.

    A parameter the family takes but is not given (``None``) is 0; a parameter
    it does not take, and a name outside the catalog, are rejected with
    ``InvalidParameter``.
    """
    family = FAMILIES.get(name)
    if family is None:
        raise InvalidParameter(
            f"unknown family {name!r}; catalog families are {', '.join(FAMILIES)}")
    given = {"alpha": alpha, "beta": beta}
    for key, value in given.items():
        if value is not None and key not in family.params:
            raise InvalidParameter(f"family {name!r} does not take {key}")
    values = {key: as_rational(0 if given[key] is None else given[key]) for key in family.params}
    phi, psi = family.pair(*values.values())
    return FamilySpec(phi, psi, name=name, params=values)


def catalog_family(name: str, alpha: int | str | Fraction | None = None,
                   beta: int | str | Fraction | None = None) -> ClassicalPair:
    """The checked pair of catalog family ``name``, read as ``_catalog_spec`` reads it."""
    return pair_from_family(_catalog_spec(name, alpha, beta))


def hermite_family() -> ClassicalPair:
    """phi = 1, psi = -2x (weight exp(-x^2) on the line)."""
    return catalog_family("hermite")


def laguerre_family(alpha: int | str | Fraction) -> ClassicalPair:
    """phi = x, psi = (alpha+1) - x (weight x^alpha exp(-x) on the half line)."""
    return catalog_family("laguerre", alpha)


def jacobi_family(alpha: int | str | Fraction, beta: int | str | Fraction) -> ClassicalPair:
    """phi = 1 - x^2, psi = (beta-alpha) - (alpha+beta+2)x (weight (1-x)^a (1+x)^b)."""
    return catalog_family("jacobi", alpha, beta)


def bessel_family(alpha: int | str | Fraction) -> ClassicalPair:
    """phi = x^2, psi = (alpha+2)x + 2 (formal weight x^alpha exp(-2/x))."""
    return catalog_family("bessel", alpha)


class ClassicalPair:
    """A ``(phi, psi)`` pair with the Pearson functional ``u`` of ``(phi, psi, u0)``;
    ``_pearson_form`` checks the pair and reads it once into its integer form
    ``_pearson``, ``(s, (c, b, a), (e, d))``, from which ``_pearson_moments`` builds
    ``u`` and checks admissibility for ``k < max_order``.  A catalog ``name`` must
    come with that family's ``params`` and ``(phi, psi)``.

    Immutable apart from internal memoization: the moment sequence of ``u``
    extends on demand, the shifted functionals ``u_k = phi**k u`` are cached
    per index, and the complementary rows per ``n``.
    """

    __slots__ = ("phi", "psi", "u0", "u", "name", "params", "_pearson", "_shifted", "_rows")

    def __init__(self, phi: Poly, psi: Poly, u0: int | str | Fraction = 1,
                 name: str = "custom", params: Mapping[str, Fraction] | None = None,
                 max_order: int = 0):
        self._pearson = _pearson_form(phi, psi)
        self.u = _pearson_moments(self._pearson, u0, max_order)
        self.phi = phi
        self.psi = psi
        self.u0 = as_rational(u0)
        self.name = name
        self.params = dict(params or {})
        family = FAMILIES.get(name)
        if family is not None:
            # genfun reads a catalog name's weight ratio at these params
            values = [self.params.get(key) for key in family.params]
            if set(self.params) != set(family.params) or family.pair(*values) != (phi, psi):
                raise InvalidParameter(f"phi = {phi}, psi = {psi} with params {self.params} "
                                       f"is not the catalog family {name!r}")
        self._shifted: dict[int, MomentFunctional] = {0: self.u}
        self._rows: dict[int, list[Poly]] = {}

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
            rows.extend(_comp_rows(self, n, count, len(rows), rows[-1] if rows else None))
        return rows[: count + 1]

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

    This is the polynomial ``q`` with ``(p u_{k+1})' = q u_k``.  Over
    ``den(p) s``, with ``phi = (c, b, a) / s`` and so
    ``psi_k = (e + k b, d + 2k a) / s``, the step is two integer convolutions,
    ``phi * p'`` and ``psi_k * p``, and one reduction.
    """
    s, (c, b, a), (e, d) = pair._pearson
    num = p._nums
    dnum = [i * v for i, v in enumerate(num)][1:]
    return Poly._of(p._den * s, _convolve(_convolve([], (c, b, a), dnum),
                                          (e + k * b, d + 2 * k * a), num))


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
               start: int = 0, last: Poly | None = None) -> list[Poly]:
    """Rows ``C_start .. C_count``, newly built from ``last = C_{start-1}`` (unread
    when ``start`` is 0)."""
    # The recursion coefficient k = n - nu - 1 goes negative past nu = n; that
    # continuation is what the generating series needs, so no bound check here.
    # Each row is a Poly: its integer numerators over one reduced denominator
    # are the recursion's state.  With phi = (a x^2 + b x + c) / s and
    # psi = (d x + e) / s, and r_j the x^j numerator of C, the x^j numerator
    # of phi C' + (psi + k phi') C over den(C) s is the three-term stencil
    #   (j+1) c r_{j+1} + ((j+k) b + e) r_j + ((j+2k-1) a + d) r_{j-1}.
    out = [] if start else [Poly.one()]
    row = last if start else out[0]
    s, (c, b, a), (e, d) = pair._pearson
    for nu in range(max(start - 1, 0), count):
        k = n - nu - 1
        mid, low = e + k * b, d + (2 * k - 1) * a
        r = [0, *row._nums, 0, 0]  # r[j + 1] is r_j
        row = Poly._of(row._den * s, [
            (j + 1) * c * above + (mid + j * b) * here + (low + j * a) * below
            for j, (below, here, above) in enumerate(zip(r, r[1:], r[2:]))])
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


def lambda_n(pair: ClassicalPair, n: int) -> Fraction:
    """Second-order eigenvalue of the degree-``n`` orthogonal polynomial:
    ``-n psi' - n(n-1)/2 phi''``, that is ``(-n d - n(n-1) a) / s``."""
    if n < 0:
        raise IndexError("n must be >= 0")
    s, (_, _, a), (_, d) = pair._pearson
    return Fraction(-n * d - n * (n - 1) * a, s)


def mu_eigenvalue(pair: ClassicalPair, n: int, nu: int) -> Fraction:
    """Eigenvalue of row ``nu``: ``-nu ((n - (nu+1)/2) phi'' + psi')``,
    that is ``-nu ((2n - nu - 1) a + d) / s``.

    At ``nu = n`` this collapses to ``lambda_n``; at ``nu = 0`` it is zero.
    """
    if nu < 0 or nu > n:
        raise IndexError(f"nu must satisfy 0 <= nu <= n, got nu={nu}, n={n}")
    s, (_, _, a), (_, d) = pair._pearson
    return Fraction(-nu * ((2 * n - nu - 1) * a + d), s)


def ode_residual(pair: ClassicalPair, n: int, nu: int) -> Poly:
    """Residual of the row differential equation; identically zero:

    ``phi C_nu'' + ((n - nu) phi' + psi) C_nu' + mu(n, nu) C_nu``.

    With ``r_j`` the ``x^j`` numerator of the stored row, ``m = n - nu`` and
    ``mu(n, nu) = mu' / s``, its ``x^j`` numerator over ``den(C_nu) s`` is the stencil
      ``c (j+2)(j+1) r_{j+2} + (b j + m b + e)(j+1) r_{j+1}
        + (a j(j-1) + (2m a + d) j + mu') r_j``.
    """
    row = complementary(pair, n, nu)
    s, (c, b, a), (e, d) = pair._pearson
    m = n - nu
    mid, low = m * b + e, 2 * m * a + d
    eigen = -nu * ((2 * n - nu - 1) * a + d)
    r = [*row._nums, 0, 0]  # r[j] is r_j
    return Poly._of(row._den * s, [
        c * (j + 2) * (j + 1) * two + (b * j + mid) * (j + 1) * one
        + (a * j * (j - 1) + low * j + eigen) * here
        for j, (here, one, two) in enumerate(zip(r, r[1:], r[2:]))])


def _weighted_nums(pair: ClassicalPair, n: int, nu: int, hi: int) -> tuple[int, list[int]]:
    """Moments ``0 .. hi`` of the weighted row ``W = C_nu(x; n) u_{n-nu}`` as
    ``(den, nums)``, with ``nums[k] / den == W_k``.

    ``W_k = sum_i (C_nu)_i (u_{n-nu})_{k+i}`` is one window dot product of the
    row's numerators with ``u_{n-nu}``'s stored numerators, over
    ``den(C_nu) den(u_{n-nu})``: no gcd, no merge and no ``MomentFunctional``.
    It reads ``u_{n-nu}`` through ``hi + deg C_nu``; a zero row reads nothing.
    The functional suite builds each ``W`` once per ``(n, nu)`` here, and the
    residuals below take their moments from it.
    """
    row = pair.rows(n, nu)[nu]
    coeffs, width = row._nums, len(row._nums)
    den, nums = pair.functional_power(n - nu)._form(hi + width - 1) if width else (1, [])
    return row._den * den, [sum(map(mul, coeffs, nums[k:k + width])) for k in range(hi + 1)]


def _adjoint_nums(pair: ClassicalPair, n: int, nu: int,
                  weighted: tuple[int, list[int]] | None, hi: int) -> tuple[int, list[int]]:
    """Moments ``0 .. hi`` of the self-adjoint residual of ``(n, nu)`` as ``(den, nums)``,
    from the weighted row ``weighted`` as ``_weighted_nums`` gives it through at
    least ``hi``.

    With ``U = u_{n-nu+1}``, ``(w_den, W)`` the weighted row and
    ``mu(n, nu) = p / s`` (``s`` from ``pair._pearson``), moment ``k`` over
    ``D = lcm(s w_den, den(C_nu) den(U))`` is
    ``p W_k D / (s w_den) - k (sum_i (C_nu')_i U_{k-1+i}) D / (den(C_nu) den(U))``,
    on the numerators of ``C_nu'`` and ``U``.  At ``p = 0`` (row ``nu = 0``) the
    ``W`` term drops and ``weighted`` is not read; it may then be ``None``.
    """
    row = pair.rows(n, nu)[nu]
    dnums = [i * v for i, v in enumerate(row._nums)][1:]
    width = len(dnums)
    s, (_, _, a), (_, d) = pair._pearson
    p = -nu * ((2 * n - nu - 1) * a + d)
    u_den, u_nums = pair.functional_power(n - nu + 1)._form(hi + width - 2) if width else (1, [])
    w_den, w_nums = weighted if p else (1, [0] * (hi + 1))
    den, (w_scale, u_scale) = _scales((s * w_den, row._den * u_den))
    w_scale *= p
    return den, [
        w_scale * w_nums[k] - (u_scale * k * sum(map(mul, dnums, u_nums[k - 1:k - 1 + width]))
                               if k else 0)
        for k in range(hi + 1)]


def _rodrigues_nums(upper: tuple[int, list[int]], lower: tuple[int, list[int]], t: int,
                    hi: int) -> tuple[int, list[int]]:
    """Moments ``0 .. hi`` of ``W - (d/dx)^t V`` as ``(den, nums)``, for weighted rows
    ``upper = W`` through ``hi`` and ``lower = V`` through ``hi - t`` as
    ``_weighted_nums`` gives them.

    Moment ``k`` over ``D = lcm(den(W), den(V))`` is
    ``W_k D / den(W) - (-1)^t k!/(k-t)! V_{k-t} D / den(V)``, the second term
    zero for ``k < t``; each side keeps the denominator it was built over.
    """
    (w_den, w_nums), (v_den, v_nums) = upper, lower
    den, (w_scale, v_scale) = _scales((w_den, v_den))
    if t % 2:
        v_scale = -v_scale
    return den, [
        w_scale * w_nums[k] - (v_scale * perm(k, t) * v_nums[k - t] if k >= t else 0)
        for k in range(hi + 1)]


def sturm_liouville_residual(pair: ClassicalPair, n: int, nu: int) -> MomentFunctional:
    """The functional ``(C_nu' u_{n-nu+1})' + mu(n, nu) C_nu u_{n-nu}``.

    This is the self-adjoint (weighted) form of the row equation, stated at
    the functional level; every moment is zero.  A block ``lo .. hi`` builds
    the weighted row ``C_nu u_{n-nu}`` through ``hi`` with ``_weighted_nums``
    and takes the moments from ``_adjoint_nums``, the kernels that the
    functional suite of ``verify`` runs.  At ``mu = 0`` (row ``nu = 0``) the
    weighted row is not built, so a moment that ``u_{n-nu}`` cannot reach
    does not stop the residual.
    """
    weigh = mu_eigenvalue(pair, n, nu) != 0

    def block(_: MomentFunctional, lo: int, hi: int) -> tuple[int, list[int]]:
        weighted = _weighted_nums(pair, n, nu, hi) if weigh else None
        den, nums = _adjoint_nums(pair, n, nu, weighted, hi)
        return den, nums[lo:]
    return MomentFunctional(block=block)


def rodrigues_formula_residual(pair: ClassicalPair, n: int, nu: int, mu: int) -> MomentFunctional:
    """The functional ``C_nu u_{n-nu} - (d/dx)^(nu-mu) [C_mu u_{n-mu}]``.

    With ``mu = 0`` this is the Rodrigues formula for the rows
    (``C_nu u_{n-nu}`` equals the ``nu``-th derivative of ``u_n``); general
    ``mu`` interpolates between rows.  Every moment is zero.  A block
    ``lo .. hi`` builds the weighted rows of ``nu`` through ``hi`` and of
    ``mu`` through ``hi - (nu - mu)`` with ``_weighted_nums`` and takes the
    moments from ``_rodrigues_nums``, the kernels that the functional suite
    of ``verify`` runs.
    """
    if not 0 <= mu <= nu <= n:
        raise IndexError(f"need 0 <= mu <= nu <= n, got mu={mu}, nu={nu}, n={n}")
    t = nu - mu

    def block(_: MomentFunctional, lo: int, hi: int) -> tuple[int, list[int]]:
        den, nums = _rodrigues_nums(_weighted_nums(pair, n, nu, hi),
                                    _weighted_nums(pair, n, mu, hi - t), t, hi)
        return den, nums[lo:]
    return MomentFunctional(block=block)


def derivative_proportionality(pair: ClassicalPair, n: int, nu: int) -> Fraction | None:
    """Constant ``c`` with ``C_{n-nu}(x; n) = c * (d/dx)^nu C_n(x; n)``, or ``None``
    if no exact constant exists (which would be an implementation bug for an
    admissible pair).

    The ``nu``-th derivative of ``C_n`` has numerators ``perm(j, nu) r_j`` for
    ``j >= nu`` over ``den(C_n)``; the rows match when their lengths agree and
    every numerator pair cross-multiplies by the two leading numerators.
    """
    if nu < 0 or nu > n:
        raise IndexError(f"nu must satisfy 0 <= nu <= n, got nu={nu}, n={n}")
    diagonal = complementary(pair, n, n)
    target = complementary(pair, n, n - nu)
    r = diagonal._nums
    deriv = [perm(j, nu) * r[j] for j in range(nu, len(r))]
    if not deriv:
        return None
    t = target._nums
    if not t:
        raise ValueError("the zero polynomial has no leading coefficient")
    top_d, top_t = deriv[-1], t[-1]
    if len(t) != len(deriv) or any(x * top_d != y * top_t for x, y in zip(t, deriv)):
        return None
    return Fraction(top_t * diagonal._den, target._den * top_d)


def leading_coeff_probe(pair: ClassicalPair, k: int, m: int) -> Fraction:
    """The ``x**(m+1)`` coefficient of one Rodrigues step on the monic probe ``x**m``.

    Expanding ``phi (x^m)' + psi_k x^m`` shows it is ``psi' + (m + 2k) phi''/2``,
    the top coefficient unless that value is 0; the probe returns what the
    arithmetic actually produces, so the formula can be audited against it.
    """
    return rodrigues_r1(pair, k, Poly.monomial(m)).coefficient(m + 1)
