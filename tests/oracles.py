"""Independent reference computations used to freeze expected values.

Everything here is deliberately direct: closed-form moment formulas and
the classical three-term recurrences, sharing no construction code with
the Rodrigues/Pearson machinery under test.  ``Poly`` is used only as a
coefficient container; its ring operations are themselves covered by the
algebra tests.  The functional references compose the derived functionals
that the one-block kernels under test fuse, read ``u``'s moments as
``Fraction``s, and read the pair's memoized functionals as the kernels do.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from copoly import MomentFunctional, NotQuasiDefinite, Poly, SeriesYX, functional_apply
from copoly.functional import _combination, functional_derivative
from copoly.genfun import PDE_IDENTITIES, _quadratic_prefactor, genfun_truncated
from copoly.poly import _integer_form


def rising(a: Fraction | int, k: int) -> Fraction:
    """Rising factorial a(a+1)...(a+k-1), with rising(a, 0) = 1."""
    out = Fraction(1)
    for j in range(k):
        out *= Fraction(a) + j
    return out


def gaussian_moment(k: int) -> Fraction:
    """Moments of exp(-x^2) normalized to u_0 = 1: (2m-1)!!/2^m at k=2m."""
    if k % 2 == 1:
        return Fraction(0)
    m = k // 2
    double_fact = 1
    for j in range(1, 2 * m, 2):
        double_fact *= j
    return Fraction(double_fact, 2**m)


def gamma_moment(alpha: Fraction | int, k: int) -> Fraction:
    """Moments of x^alpha exp(-x) on (0, inf), normalized: rising(alpha+1, k)."""
    return rising(Fraction(alpha) + 1, k)


def uniform_moment(k: int) -> Fraction:
    """Moments of the uniform measure on [-1, 1] normalized to u_0 = 1."""
    return Fraction(0) if k % 2 == 1 else Fraction(1, k + 1)


def jacobi_moment(alpha: Fraction | int, beta: Fraction | int, k: int) -> Fraction:
    """Moments of (1-x)^alpha (1+x)^beta on [-1, 1], normalized to u_0 = 1.

    Expanding x = (2t - 1) over Beta integrals gives
    u_k = sum_j C(k, j) (-1)^(k-j) 2^j rising(beta+1, j) / rising(alpha+beta+2, j).
    """
    a, b = Fraction(alpha), Fraction(beta)
    total = Fraction(0)
    for j in range(k + 1):
        term = Fraction(math.comb(k, j) * 2**j) * rising(b + 1, j) / rising(a + b + 2, j)
        if (k - j) % 2 == 1:
            term = -term
        total += term
    return total


def bessel_moment(alpha: Fraction | int, k: int) -> Fraction:
    """Bessel moments u_k = (-2)^k / rising(alpha+2, k), solved in closed form."""
    return Fraction((-2) ** k) / rising(Fraction(alpha) + 2, k)


def hermite_poly(n: int) -> Poly:
    """Physicists' Hermite H_n via H_{m+1} = 2x H_m - 2m H_{m-1}."""
    if n == 0:
        return Poly.one()
    prev, cur = Poly.one(), Poly.monomial(1, 2)
    for m in range(1, n):
        prev, cur = cur, Poly.monomial(1, 2) * cur - 2 * m * prev
    return cur


def laguerre_poly(n: int, alpha: Fraction | int) -> Poly:
    """Generalized Laguerre L_n^alpha via the classical three-term recurrence."""
    a = Fraction(alpha)
    if n == 0:
        return Poly.one()
    prev, cur = Poly.one(), Poly([a + 1, -1])
    for m in range(1, n):
        lead = Poly([2 * m + 1 + a, -1]) * cur - (m + a) * prev
        prev, cur = cur, lead / Fraction(m + 1)
    return cur


def jacobi_poly(n: int, alpha: Fraction | int, beta: Fraction | int) -> Poly:
    """Jacobi P_n^(alpha, beta) via the classical three-term recurrence
    2(m+1)(m+1+s)(2m+s) P_{m+1}
      = (2m+s+1)((2m+s+2)(2m+s) x + alpha^2 - beta^2) P_m - 2(m+alpha)(m+beta)(2m+s+2) P_{m-1}
    with s = alpha + beta."""
    a, b = Fraction(alpha), Fraction(beta)
    s = a + b
    if n == 0:
        return Poly.one()
    prev, cur = Poly.one(), Poly([(a - b) / 2, (s + 2) / 2])
    for m in range(1, n):
        c = 2 * m + s
        lead = ((c + 1) * Poly([a * a - b * b, (c + 2) * c]) * cur
                - 2 * (m + a) * (m + b) * (c + 2) * prev)
        prev, cur = cur, lead / (2 * (m + 1) * (m + 1 + s) * c)
    return cur


def bessel_poly(n: int, alpha: Fraction | int) -> Poly:
    """``B_n = 2^n y_n(x; alpha + 2, 2)``, the generalized Bessel polynomial, via
    (m+alpha+1)(2m+alpha) B_{m+1}
      = (2m+alpha+1)((2m+alpha+2)(2m+alpha) x + 2 alpha) B_m + 4m(2m+alpha+2) B_{m-1}
    from B_0 = 1 and B_1 = 2 + (alpha + 2) x."""
    a = Fraction(alpha)
    if n == 0:
        return Poly.one()
    prev, cur = Poly.one(), Poly([2, a + 2])
    for m in range(1, n):
        c = 2 * m + a
        lead = (c + 1) * Poly([2 * a, (c + 2) * c]) * cur + 4 * m * (c + 2) * prev
        prev, cur = cur, lead / ((m + a + 1) * c)
    return cur


# (phi'', psi') of each catalog family at its parameters
_SHAPES = {
    "hermite": lambda: (0, -2),
    "laguerre": lambda a: (0, -1),
    "jacobi": lambda a, b: (-2, -(a + b + 2)),
    "bessel": lambda a: (2, a + 2),
}


def classical_diagonal(name: str, n: int, *params: Fraction) -> Poly:
    """``C_n(x; n)`` of a catalog family from its classical polynomial, under the
    Rodrigues normalization ``C_n u = (d/dx)^n (phi^n u)``: ``(-1)^n H_n``,
    ``n! L_n^a``, ``(-2)^n n! P_n^(a,b)`` and ``2^n y_n(x; a + 2, 2)``."""
    if name == "hermite":
        return (-1) ** n * hermite_poly(n)
    if name == "laguerre":
        return math.factorial(n) * laguerre_poly(n, *params)
    if name == "jacobi":
        return (-2) ** n * math.factorial(n) * jacobi_poly(n, *params)
    return bessel_poly(n, *params)


def row_eigenvalue(name: str, n: int, nu: int, *params: Fraction) -> Fraction:
    """``mu(n, nu) = -nu ((2n - nu - 1) phi''/2 + psi')`` of a catalog family."""
    phi2, psi1 = _SHAPES[name](*(Fraction(p) for p in params))
    return -nu * (Fraction(2 * n - nu - 1, 2) * phi2 + psi1)


def _fraction_product(a, b) -> list[Fraction]:
    """Coefficients of ``a * b``, one ``Fraction`` multiply and add per term."""
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def _fraction_sum(a, b) -> list[Fraction]:
    return [x + y for x, y in itertools.zip_longest(a, b, fillvalue=Fraction(0))]


def comp_rows(phi: Poly, psi: Poly, n: int, count: int) -> list[Poly]:
    """Rows ``C_0 .. C_count`` by the textbook recurrence
    ``C_{nu+1} = phi C_nu' + (psi + (n - nu - 1) phi') C_nu`` on plain
    ``Fraction`` coefficient lists."""
    rows = [[Fraction(1)]]
    dphi = [i * c for i, c in enumerate(phi.coeffs)][1:]
    for nu in range(count):
        row = rows[-1]
        drow = [i * c for i, c in enumerate(row)][1:]
        factor = _fraction_sum(psi.coeffs, [(n - nu - 1) * c for c in dphi])
        rows.append(_fraction_sum(_fraction_product(phi.coeffs, drow),
                                  _fraction_product(factor, row)))
    return [Poly(r) for r in rows]


def rodrigues_step_rows(phi: Poly, psi: Poly, n: int, count: int) -> list[Poly]:
    """Rows ``C_0 .. C_count`` by ``Poly`` arithmetic, one step
    ``C_{nu+1} = phi C_nu' + (psi + k phi') C_nu`` with ``k = n - nu - 1`` at a time:
    the operator form that the integer stencil in ``_comp_rows`` expands."""
    rows = [Poly.one()]
    for nu in range(count):
        k = n - nu - 1
        rows.append(phi * rows[-1].derivative() + (psi + k * phi.derivative()) * rows[-1])
    return rows


def ode_residual(phi: Poly, psi: Poly, n: int, nu: int, row: Poly) -> Poly:
    """``phi C'' + ((n - nu) phi' + psi) C' + mu(n, nu) C`` for ``C = row`` by ``Poly``
    arithmetic, with ``mu(n, nu) = -nu ((2n - nu - 1) phi''/2 + psi')`` read off
    the coefficients: the operator form that the integer stencil in
    ``rodrigues.ode_residual`` expands."""
    mu = -nu * ((2 * n - nu - 1) * phi.coefficient(2) + psi.coefficient(1))
    return (phi * row.derivative(2) + ((n - nu) * phi.derivative() + psi) * row.derivative()
            + mu * row)


def functional_poly_mul(h: Poly, u) -> MomentFunctional:
    """``v_k = sum h_j u_{k+j}``, one ``Fraction`` sum per moment over ``u``'s
    moments, read as far as ``functional.functional_poly_mul`` reads them:
    through ``hi + deg h`` for a block ``lo .. hi``, and not at all for ``h = 0``."""
    coeffs = h.coeffs

    def block(_, lo: int, hi: int) -> tuple[int, list[int]]:
        moments = u.moments(hi + len(coeffs) - 1) if coeffs else []
        return _integer_form([sum(map(operator.mul, coeffs, moments[k:]), Fraction(0))
                              for k in range(lo, hi + 1)])
    return MomentFunctional(block=block)


def _row_mu(pair, n: int, nu: int) -> Fraction:
    """``mu(n, nu) = -nu ((2n - nu - 1) phi''/2 + psi')`` read off the coefficients."""
    return -nu * ((2 * n - nu - 1) * pair.phi.coefficient(2) + pair.psi.coefficient(1))


def sturm_liouville_residual(pair, n: int, nu: int):
    """``(C_nu' u_{n-nu+1})' + mu(n, nu) C_nu u_{n-nu}`` as a chain of derived
    functionals (derivative of a polynomial multiple, then a weighted sum)
    over the pair's memoized rows, shifted functionals and weighted rows: the
    composition that ``rodrigues.sturm_liouville_residual`` fuses into one block."""
    row = pair.rows(n, nu)[nu]
    lhs = functional_derivative(functional_poly_mul(row.derivative(),
                                                    pair.functional_power(n - nu + 1)))
    mu = _row_mu(pair, n, nu)
    return _combination([(mu.denominator, lhs), (mu.numerator, pair.weighted_row(n, nu))],
                        mu.denominator)


def rodrigues_formula_residual(pair, n: int, nu: int, mu: int):
    """``C_nu u_{n-nu} - (d/dx)^(nu-mu) [C_mu u_{n-mu}]`` as the difference of the
    weighted row and a ``functional_derivative``: the composition that
    ``rodrigues.rodrigues_formula_residual`` fuses into one block."""
    return pair.weighted_row(n, nu) - functional_derivative(pair.weighted_row(n, mu), nu - mu)


def derivative_proportionality(diagonal: Poly, target: Poly, nu: int) -> Fraction | None:
    """``c`` with ``target = c * (d/dx)^nu diagonal`` from ``Poly`` arithmetic, or ``None``
    when the derivative is zero or no such ``c`` exists; a zero ``target`` against a
    nonzero derivative raises, as ``target.leading_coefficient`` does."""
    deriv = diagonal.derivative(nu)
    if deriv.is_zero:
        return None
    ratio = target.leading_coefficient / deriv.leading_coefficient
    return ratio if target == ratio * deriv else None


def three_term_pairing(u, polys, norms) -> list[tuple[Fraction, Fraction]]:
    """``(a_m, b_m)`` with ``a_m = <u, x P_m**2> / r_m`` from ``Poly`` products and the
    pairing ``functional_apply``, and ``b_m = r_m / r_{m-1}`` (``b_0 = 0``)."""
    x = Poly.x()
    return [(functional_apply(u, x * p * p) / r, Fraction(0) if m == 0 else r / norms[m - 1])
            for m, (p, r) in enumerate(zip(polys, norms))]


def cauchy_product(a, b) -> list[Poly]:
    """``sum_{i+j=k} a_i b_j`` for ``k = 0 .. len(a) - 1``, term by term over ``Fraction``s."""
    out = []
    for k in range(len(a)):
        acc: list[Fraction] = []
        for i in range(k + 1):
            acc = _fraction_sum(acc, _fraction_product(a[i].coeffs, b[k - i].coeffs))
        out.append(Poly(acc))
    return out


# A truncated series in y as rows of Fraction coefficients, one row per power of
# y: the references for SeriesYX's integer kernels.  Results keep their zeros;
# series_rows strips them for comparison.

def series_rows(rows) -> list[list[Fraction]]:
    """``rows`` with every trailing zero coefficient of every row removed."""
    out = []
    for row in rows:
        row = [Fraction(c) for c in row]
        while row and row[-1] == 0:
            row.pop()
        out.append(row)
    return out


def series_rows_sum(a, b, c: Fraction | int = 1) -> list[list[Fraction]]:
    """``a + c * b``, row by row."""
    return [_fraction_sum(x, [c * v for v in y]) for x, y in zip(a, b)]


def series_rows_product(a, b) -> list[list[Fraction]]:
    """``a * b`` truncated to ``len(a)`` rows: ``sum_{i+j=k} a_i b_j`` by ``Fraction``s."""
    out = []
    for k in range(len(a)):
        acc: list[Fraction] = []
        for i in range(k + 1):
            acc = _fraction_sum(acc, _fraction_product(a[i], b[k - i]))
        out.append(acc)
    return out


def series_rows_dx(a) -> list[list[Fraction]]:
    return [[i * c for i, c in enumerate(row)][1:] for row in a]


def series_rows_dy(a) -> list[list[Fraction]]:
    return [[k * c for c in row] for k, row in enumerate(a[1:], 1)]


def pde_residual(pair, n: int, order: int) -> dict[str, SeriesYX]:
    """The generating-series residuals as sums of series products: ``G(n)`` and
    ``G(n - 1)`` built from the pair's memoized rows, differentiated, and each
    identity combined by ``SeriesYX``'s ``*``, ``-`` and ``+``, the form whose
    ``y^k`` coefficients the row stencils of ``genfun.pde_residual`` expand."""
    full = genfun_truncated(pair, n, order)
    lower = genfun_truncated(pair, n - 1, order - 1) if n >= 1 else None
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
    y_self = prefactor * dy - shifted * g
    residuals = {
        "y_self": y_self,
        "x_self": prefactor * dx - y_bracket * g,
        "master": y_self * phi,
    }
    if n >= 1:
        outer = SeriesYX(m, [Poly.one(), dphi])
        residuals["y_lower"] = dy - shifted * lower
        residuals["x_lower"] = dx * phi - outer * shifted * lower + g * c1
    return {which: residuals[which] for which in PDE_IDENTITIES if which in residuals}


def _power_sum(s, weights) -> list[Poly]:
    """``sum_k weights[k] * s**k``, every power of ``s`` built by ``cauchy_product``."""
    out = [Poly.zero()] * len(s)
    power = [Poly.one()] + [Poly.zero()] * (len(s) - 1)
    for w in weights:
        out = [a + w * b for a, b in zip(out, power)]
        power = cauchy_product(power, s)
    return out


def series_exp_sum(s) -> list[Poly]:
    """``sum_{k <= N} s**k / k!`` for the coefficients ``s_0 .. s_N`` of a series with ``s_0 = 0``."""
    return _power_sum(s, [Fraction(1, math.factorial(k)) for k in range(len(s))])


def series_pow_sum(s, alpha: Fraction | int) -> list[Poly]:
    """``sum_{k <= N} binom(alpha, k) (s - 1)**k`` for the coefficients of a series with ``s_0 = 1``."""
    binom = [Fraction(1)]
    for k in range(1, len(s)):
        binom.append(binom[-1] * (Fraction(alpha) - k + 1) / k)
    return _power_sum([s[0] - 1, *s[1:]], binom)


def chebyshev_fraction(u, n: int) -> tuple[tuple[Poly, ...], tuple[Fraction, ...]]:
    """``(polys, norms)`` of the Chebyshev algorithm with every mixed moment a
    ``Fraction``: ``sigma_{k,l} = sigma_{k-1,l+1} - a sigma_{k-1,l} - b sigma_{k-2,l}``
    and ``P_{k+1} = (x - a) P_k - b P_{k-1}`` by ``Poly`` arithmetic.  Reads
    ``u.moments(2n)``; the first zero norm ``sigma_{k,k}`` raises
    ``NotQuasiDefinite(k)``."""
    top = 2 * n
    sigma = u.moments(top)
    below = [Fraction(0)] * (top + 1)
    a = b = Fraction(0)
    polys = [Poly.one()]
    norms: list[Fraction] = []
    for k in range(n + 1):
        if k:
            sigma, below = [Fraction(0)] * k + [
                sigma[l + 1] - a * sigma[l] - b * below[l]
                for l in range(k, top - k + 1)], sigma
        r = sigma[k]
        if r == 0:
            raise NotQuasiDefinite(k)
        norms.append(r)
        if k == n:
            break
        a = sigma[k + 1] / r
        previous = Poly.zero()
        if k:
            a -= below[k] / norms[k - 1]
            b = r / norms[k - 1]
            previous = polys[k - 1]
        polys.append((Poly.x() - a) * polys[k] - b * previous)
    return tuple(polys), tuple(norms)


# The term writer on Fraction coefficients that the integer-form writer in
# copoly.poly and copoly.render replaced: each coefficient's sign, magnitude
# and text come from Fraction's own comparison, abs and str.

def _signed_sum_fraction(p: Poly, body, descending: bool = False) -> str:
    cs = p.coeffs
    parts: list[str] = []
    for power in reversed(range(len(cs))) if descending else range(len(cs)):
        c = cs[power]
        if c == 0:
            continue
        if parts:
            parts.append(" - " if c < 0 else " + ")
        elif c < 0:
            parts.append("-")
        parts.append(body(power, abs(c)))
    return "".join(parts) or "0"


def _text_term_fraction(power: int, magnitude: Fraction) -> str:
    if power == 0:
        return str(magnitude)
    xs = "x" if power == 1 else f"x^{power}"
    return xs if magnitude == 1 else f"{magnitude}*{xs}"


def _latex_magnitude_fraction(value: Fraction) -> str:
    if value.denominator == 1:
        return str(abs(value.numerator))
    return f"\\frac{{{abs(value.numerator)}}}{{{value.denominator}}}"


def _latex_term_fraction(power: int, magnitude: Fraction) -> str:
    if power == 0:
        return _latex_magnitude_fraction(magnitude)
    xs = "x" if power == 1 else f"x^{{{power}}}"
    return xs if magnitude == 1 else f"{_latex_magnitude_fraction(magnitude)} {xs}"


def poly_text_fraction(p: Poly) -> str:
    """``str(p)``: ascending terms, ``3/2*x^2``."""
    return _signed_sum_fraction(p, _text_term_fraction)


def poly_latex_fraction(p: Poly) -> str:
    """``render.poly_latex(p)``: descending terms, ``\\frac{3}{2} x^{2}``."""
    return _signed_sum_fraction(p, _latex_term_fraction, descending=True)


def poly_strings_fraction(p: Poly) -> list[str]:
    """``render.poly_to_strings(p)``: ``str`` of each ``Fraction`` coefficient."""
    return [str(c) for c in p.coeffs]
