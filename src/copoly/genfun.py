"""Exponential generating function of the complementary rows, two ways.

The series ``G(y, x; n) = sum_nu y**nu / nu! * C_nu(x; n)`` can be built
directly from the row recursion (continued past ``nu = n``), or in closed
form as

    G(y, x; n) = (phi(x + y phi) / phi)**n * rho(x + y phi) / rho(x)

where ``rho`` is the weight solving the family's Pearson equation.  Both
factors truncate exactly: the first is ``Phi**n = (1 + y phi' + y^2 phi'' phi/2)**n``
because ``phi`` is at most quadratic, and the weight ratio, which is ``G(0)``,
has an explicit elementary form per catalog family (for example
``exp(-2xy - y**2)`` for hermite); any other pair takes ``G(0)`` from the row
recursion, so its closed form checks the factorization ``G(n) = Phi**n G(0)``.
Both constructions agree coefficient by coefficient, and the series satisfies
a family of first-order identities in ``y`` and ``x`` whose residuals are
computed here as truncated series that vanish identically.

Identity keys of :func:`pde_residual` (all linear, first order):

* ``y_self``:  ``(1 + y phi' + y^2 phi'' phi/2) dG/dy = (C_1 + y phi C_1') G``
* ``y_lower``: ``dG/dy = ((n-1) phi'(x + y phi) + psi(x + y phi)) G(y, x; n-1)``
* ``x_self``:  ``(1 + y phi' + y^2 phi'' phi/2) dG/dx
  = ((1 + y phi') C_1' - y phi'' C_1 / 2) y G``
* ``x_lower``: ``phi dG/dx = (1 + y phi')(psi + (n-1) phi'
  + y phi (psi' + (n-1) phi'')) G(y, x; n-1) - (psi + (n-1) phi') G``
* ``master``:  ``phi(x + y phi) dG/dy
  = phi (psi(x + y phi) + (n-1) phi'(x + y phi)) G``

where ``C_1 = C_1(x; n) = (n-1) phi' + psi`` and shifted arguments expand by
Taylor: ``phi'(x + y phi) = phi' + y phi'' phi`` and
``psi(x + y phi) = psi + y psi' phi``.
"""

from __future__ import annotations

from .poly import Poly, _over_lcm
from .rodrigues import FAMILIES, ClassicalPair
from .series import SeriesYX, _product_sum, series_pow_rational

PDE_IDENTITIES = ("y_self", "y_lower", "x_self", "x_lower", "master")


def genfun_truncated(pair: ClassicalPair, n: int, order: int) -> SeriesYX:
    """Generating series through ``y**order`` from the row recursion.

    Rows beyond ``nu = n`` keep following the recursion with coefficient
    ``n - nu - 1`` gone negative; those are exactly the higher coefficients
    of the closed form.
    """
    forms = []
    factorial = 1
    for nu, row in enumerate(pair.rows(n, order)):
        factorial *= max(nu, 1)
        forms.append((row._den * factorial, row._nums))
    # C_nu / nu! for every nu over one lcm, reduced once
    den, nums = _over_lcm(forms)
    return SeriesYX._of(order, den, nums)


def _quadratic_prefactor(pair: ClassicalPair, order: int) -> SeriesYX:
    phi = pair.phi
    coeffs = [Poly.one(), phi.derivative(), phi * phi.coefficient(2)]
    return SeriesYX(order, coeffs[: order + 1])


def genfun_phi_factor(pair: ClassicalPair, n: int, order: int) -> SeriesYX:
    """``(phi(x + y phi)/phi)**n = (1 + y phi' + y^2 phi'' phi / 2)**n``."""
    return series_pow_rational(_quadratic_prefactor(pair, order), n)


def weight_ratio_series(pair: ClassicalPair, order: int) -> SeriesYX:
    """``rho(x + y phi) / rho(x)``, exactly truncated: a catalog family's ``FAMILIES``
    series (``exp(-2xy - y^2)`` for hermite); for any other pair ``G(0)``, that is
    ``genfun_truncated(pair, 0, order)``."""
    entry = FAMILIES.get(pair.name)
    if entry is None:
        return genfun_truncated(pair, 0, order)
    return entry.weight_ratio(order, *(pair.params[key] for key in entry.params))


def genfun_closed_form(pair: ClassicalPair, n: int, order: int) -> SeriesYX:
    """Closed form: quadratic prefactor to the ``n`` times the weight ratio."""
    return genfun_phi_factor(pair, n, order) * weight_ratio_series(pair, order)


def pde_residual(pair: ClassicalPair, n: int, order: int, *, full: SeriesYX | None = None,
                 lower: SeriesYX | None = None) -> dict[str, SeriesYX]:
    """Residuals of the generating-series identities, keyed as in ``PDE_IDENTITIES``.

    The series is built at truncation ``order``; differentiating in ``y``
    loses the top coefficient, so every residual is returned (and vanishes)
    at order ``order - 1``.  The ``*_lower`` identities relate ``n`` to
    ``n - 1`` and are present only for ``n >= 1``.  A caller that has built
    ``G(n)`` at ``order`` or ``G(n - 1)`` at ``order - 1`` already passes it as
    ``full`` or ``lower``; a series not passed is built here.
    """
    if order < 2:
        raise ValueError("order must be >= 2 to leave room for d/dy")
    if full is None:
        full = genfun_truncated(pair, n, order)
    if lower is None and n >= 1:
        lower = genfun_truncated(pair, n - 1, order - 1)
    m = order - 1
    phi, psi = pair.phi, pair.psi
    dphi = phi.derivative()
    half_phi2 = phi.coefficient(2)
    c1 = psi + (n - 1) * dphi
    c1d = c1.derivative()

    g = full.truncate(m)
    dy = full.differentiate_y()
    dx = full.differentiate_x().truncate(m)
    prefactor = _quadratic_prefactor(pair, m)
    # C_1(x + y phi), exactly: deg C_1 <= 1 leaves no higher Taylor terms
    shifted = SeriesYX(m, [c1, phi * c1d])
    # y ((1 + y phi') C_1' - y phi'' C_1 / 2), the x-identity's bracket times y
    y_bracket = SeriesYX(m, [Poly.zero(), c1d, dphi * c1d - c1 * half_phi2][: m + 1])
    # Each identity is one fused sum of products; the sparse factor goes left.
    const_phi = SeriesYX(m, [phi])
    y_self = _product_sum([(1, prefactor, dy), (-1, shifted, g)])
    residuals = {
        "y_self": y_self,
        "x_self": _product_sum([(1, prefactor, dx), (-1, y_bracket, g)]),
        # phi(x + y phi) = phi * prefactor, so master is phi times y_self
        "master": _product_sum([(1, const_phi, y_self)]),
    }
    if n >= 1:
        outer = SeriesYX(m, [Poly.one(), dphi])
        residuals["y_lower"] = _product_sum([(1, SeriesYX.one(m), dy), (-1, shifted, lower)])
        residuals["x_lower"] = _product_sum([(1, const_phi, dx), (-1, outer * shifted, lower),
                                             (1, SeriesYX(m, [c1]), g)])
    return {which: residuals[which] for which in PDE_IDENTITIES if which in residuals}
