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
computed here as truncated series that vanish identically.  No series is
built for them: read at ``y**k / k!``, each identity is an integer stencil on
at most three rows of ``n`` and ``n - 1``, with multipliers from the pair's
integer form (the stencils are in :func:`pde_residual`'s docstring).  Each
row is packed into one integer by Kronecker substitution, ``x = 2**B``, with
``B`` wide enough that no coefficient of a residual overflows its digit, so
each stencil is a few big-integer operations per power of ``y``.

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

from math import factorial
from typing import Sequence

from .poly import Poly, _over_lcm, _scales
from .rodrigues import FAMILIES, ClassicalPair
from .series import SeriesYX, series_pow_rational

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


def _pack(nums: Sequence[int], shift: int) -> int:
    """``sum_j nums[j] 2**(shift j)``: the row of numerators at ``x = 2**shift``."""
    packed = 0
    for v in reversed(nums):
        packed = (packed << shift) + v
    return packed


def _unpack(packed: int, shift: int) -> list[int]:
    """The balanced base-``2**shift`` digits of ``packed``, lowest first, each in
    ``[-2**(shift - 1), 2**(shift - 1))``, with no trailing zero: the list that
    ``_pack`` packed whenever every entry of it lies in that range."""
    mask, half = (1 << shift) - 1, 1 << (shift - 1)
    digits = []
    while packed:
        digit = packed & mask
        if digit >= half:
            digit -= mask + 1
        digits.append(digit)
        packed = (packed - digit) >> shift
    return digits


def _residual(order: int, den: int, packed: list[int], shift: int) -> SeriesYX:
    """The series whose ``y**k`` coefficient is ``packed[k]``, unpacked, over ``k! den``:
    one ``SeriesYX._of`` over ``order! den`` with row ``k`` scaled by ``order!/k!``.
    A vanishing residual is the zero series at once."""
    if not any(packed):
        return SeriesYX._of(order, 1, [[] for _ in packed])
    top = scale = factorial(order)
    rows = []
    for k, value in enumerate(packed):
        scale //= max(k, 1)
        rows.append([scale * v for v in _unpack(value, shift)])
    return SeriesYX._of(order, den * top, rows)


def pde_residual(pair: ClassicalPair, n: int, order: int) -> dict[str, SeriesYX]:
    """Residuals of the generating-series identities, keyed as in ``PDE_IDENTITIES``.

    The series is read through ``y**order``; differentiating in ``y`` loses
    the top coefficient, so every residual is returned (and vanishes) at order
    ``m = order - 1``.  The ``*_lower`` identities relate ``n`` to ``n - 1`` and
    are present only for ``n >= 1``.

    No series is built: the residuals read the memoized rows
    ``pair.rows(n, order)`` and ``pair.rows(n - 1, m)``.  With
    ``(s, (c, b, a), (e, d)) = pair._pearson``, ``Phi = c + b x + a x^2``
    (``phi = Phi / s``), ``K = K0 + K1 x`` with ``K0 = e + (n-1) b`` and
    ``K1 = d + 2(n-1) a`` (``C_1 = K / s``) and ``M_k = -k((2n-k-1) a + d)``, let
    ``R_k``, ``D_k`` and ``L_k`` be the numerators of ``C_k(x; n)``, ``C_k'(x; n)``
    and ``C_k(x; n-1)`` over the lcm ``den`` of the rows' denominators.  Then
    ``k!`` times the ``y**k`` coefficient of each residual is, over ``s^2 den``
    (``s^3 den`` for ``x_lower``):

    * ``y_self``:  ``s^2 R_{k+1} - ((K0 - k b) + (K1 - 2k a) x) s R_k + M_k Phi R_{k-1}``
    * ``y_lower``: ``s^2 R_{k+1} - s K L_k - k K1 Phi L_{k-1}``
    * ``x_self``:  ``s^2 D_k + k s (b + 2a x) D_{k-1} + k(k-1) a Phi D_{k-2}
      - k s K1 R_{k-1} - k(k-1) ((b K1 - a K0) + a K1 x) R_{k-2}``
    * ``x_lower``: ``s^2 (Phi D_k + K (R_k - L_k)) - k s P L_{k-1} - k(k-1) Q L_{k-2}``
      with ``P = (b + 2a x) K + K1 Phi`` and ``Q = K1 (b + 2a x) Phi``
    * ``master`` is ``phi`` times ``y_self``.

    Each row is packed once into the integer ``sum_j r_j 2**(B j)`` (Kronecker
    substitution ``x = 2**B``), so each stencil is one big-integer expression
    per ``k``.  Let ``|p|`` be the sum of the absolute values of ``p``'s
    coefficients, so ``|p q| <= |p| |q|``.  A stencil coefficient of ``x^j`` is
    at most ``N W_k``, with ``N`` the largest scaled numerator of any ``R_k``,
    ``D_k`` or ``L_k`` and ``W_k`` the sum of ``|p|`` over the identity's
    multipliers ``p`` (``s^2``, ``s K``, ``M_k Phi``, ...).  With
    ``t = s + |a| + |b| + |c| + |K0| + |K1|``, for every identity and ``k <= m``,

        W_k <= 3 (k + 1)^2 t^3 < W = 4 (m + 1)^2 t^3,

    since ``1 <= s <= t``, ``|a|, |K1|, |Phi|, |K| <= t``, ``|b + 2a x| <= 2t``,
    ``|M_k| <= k^2 t``, ``|(b K1 - a K0) + a K1 x| <= t^2``, ``|P| <= 3t^2`` and
    ``|Q| <= 2t^3`` bound ``W_k`` by ``(k^2 + 2k + 2) t^2`` (``y_self``),
    ``(k + 2) t^2`` (``y_lower``), ``(2k^2 + k + 1) t^2`` (``x_self``) and
    ``(2k^2 + k + 3) t^3`` (``x_lower``), each at most ``3 (k + 1)^2 t^3``.  So
    ``B = bitlength(N W) + 1`` keeps every coefficient below ``2**(B - 1)``: a
    packed residual is 0 exactly when its row is 0, and a nonzero one unpacks
    to its balanced base-``2**B`` digits.
    """
    if order < 2:
        raise ValueError("order must be >= 2 to leave room for d/dy")
    m = order - 1
    s, (c, b, a), (e, d) = pair._pearson
    rows = pair.rows(n, order)
    lower = pair.rows(n - 1, m) if n >= 1 else []
    den, scales = _scales([row._den for row in (*rows, *lower)])
    # (scale, numerators) of R_k for k <= order, D_k for k <= m and L_k for k <= m
    full = [(scale, row._nums) for scale, row in zip(scales, rows)]
    derivs = [(scale, [j * v for j, v in enumerate(nums)][1:]) for scale, nums in full[:order]]
    lows = [(scale, row._nums) for scale, row in zip(scales[order + 1:], lower)]
    biggest = max(scale * max(map(abs, nums), default=0)
                  for scale, nums in (*full, *derivs, *lows))
    k0, k1 = e + (n - 1) * b, d + 2 * (n - 1) * a
    t = s + abs(a) + abs(b) + abs(c) + abs(k0) + abs(k1)
    shift = (biggest * 4 * (m + 1) ** 2 * t ** 3).bit_length() + 1
    x = 1 << shift
    R, D, L = ([_pack(nums, shift) * scale for scale, nums in forms]
               for forms in (full, derivs, lows))
    phi, dphi, K = c + (b + a * x) * x, b + 2 * a * x, k0 + k1 * x
    a_phi, k1_phi, k1_s, s2 = a * phi, k1 * phi, k1 * s, s * s
    x_self_r2 = b * k1 - a * k0 + a * k1 * x
    P, Q = dphi * K + k1_phi, k1_phi * dphi
    y_self, y_lower, x_self, x_lower = [], [], [], []
    for k in range(m + 1):
        r1, d1 = (R[k - 1], D[k - 1]) if k else (0, 0)
        r2, d2 = (R[k - 2], D[k - 2]) if k > 1 else (0, 0)
        y_self.append(s2 * R[k + 1] - (k0 - k * b + (k1 - 2 * k * a) * x) * s * R[k]
                      - k * (k1 + (1 - k) * a) * phi * r1)
        x_self.append(s2 * D[k] + k * (s * dphi * d1 - k1_s * r1)
                      + k * (k - 1) * (a_phi * d2 - x_self_r2 * r2))
        if L:
            l1 = L[k - 1] if k else 0
            l2 = L[k - 2] if k > 1 else 0
            y_lower.append(s2 * R[k + 1] - s * K * L[k] - k * k1_phi * l1)
            x_lower.append(s2 * (phi * D[k] + K * (R[k] - L[k])) - k * s * P * l1
                           - k * (k - 1) * Q * l2)
    # the four packed stencils in PDE_IDENTITIES order; the *_lower ones are empty for n = 0
    residuals = {which: _residual(m, scale * den, stencil, shift) for which, scale, stencil
                 in zip(PDE_IDENTITIES, (s2, s2, s2, s2 * s), (y_self, y_lower, x_self, x_lower))
                 if stencil}
    # phi(x + y phi) = phi (1 + y phi' + y^2 phi'' phi/2), so master is phi times y_self
    residuals["master"] = residuals["y_self"] * pair.phi
    return residuals
