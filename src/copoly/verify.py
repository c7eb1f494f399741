"""Verification suites: run the identities over a grid and report exactly.

Each suite walks its grid in a fixed order, so the recorded failures (if
any) are already sorted by ``(n, nu)`` and the first entry is the first
counterexample.  Everything is exact; a "failure" is a nonzero object, never
a tolerance call.  ``SuiteResult`` is the one record of a suite run: its
``check`` counts every check and keeps each failure's message.  A suite writes
its notes, and the functional suite its proof depth, on the ``VerifyReport``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import AdmissibilityViolation, InvalidParameter, NotQuasiDefinite
from .functional import _quasi_definite, hankel_minors, leibniz_residual, pearson_residual
from .genfun import _quadratic_prefactor, genfun_truncated, pde_residual, weight_ratio_series
from .oracle import _gram_numerators, _step, chebyshev_ops, cross_validate, three_term_coefficients
from .poly import Poly
from .rodrigues import (
    FAMILIES,
    ClassicalPair,
    _adjoint_nums,
    _rodrigues_nums,
    _weighted_nums,
    derivative_proportionality,
    lambda_n,
    leading_coeff_probe,
    mu_eigenvalue,
    ode_residual,
    rodrigues_r1,
    rodrigues_rk,
)


@dataclass
class SuiteResult:
    suite: str
    passed: bool = True
    checks: int = 0
    failures: list[str] = field(default_factory=list)
    seconds: float = 0.0

    def check(self, ok: bool, failure: str) -> bool:
        """Count one check; keep ``failure`` only when ``ok`` is false."""
        self.checks += 1
        if not ok:
            self.passed = False
            self.failures.append(failure)
        return ok


@dataclass
class VerifyReport:
    family: str
    params: dict[str, Fraction]
    max_n: int
    series_order: int
    suites: list[SuiteResult] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    # whether the functional suite read its residuals only to proof depth
    # (None: the suite did not run)
    functional_proof: bool | None = None

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.suites)

    @property
    def first_counterexample(self) -> str | None:
        for s in self.suites:
            if s.failures:
                return f"{s.suite}: {s.failures[0]}"
        return None


def _suite_recursion(pair: ClassicalPair, report: VerifyReport, result: SuiteResult) -> None:
    dphi = pair.phi.derivative()
    for n in range(report.max_n + 1):
        rows = pair.rows(n, n)
        # chain[nu] = R_1(phi, u_{n-nu})[chain[nu-1]] = rodrigues_rk(pair, nu, n - nu, 1)
        chain = [p := Poly.one()] + [p := rodrigues_r1(pair, k, p) for k in range(n - 1, -1, -1)]
        for nu, row in enumerate(rows):
            result.check(row == chain[nu], f"n={n} nu={nu}: recursion row != iterated operator")
            result.check(row.degree == nu, f"n={n} nu={nu}: row degree {row.degree} != {nu}")
            # the splits at 0 and nu would only repeat the chain
            result.check(row == rodrigues_rk(pair, nu - nu // 2, n - nu, chain[nu // 2]),
                         f"n={n} nu={nu}: composition split at {nu // 2} differs")
        if n >= 1:
            # from Poly arithmetic, not pair._pearson: this checks the integer form
            result.check(rows[1] == (n - 1) * dphi + pair.psi,
                         f"n={n} nu=1: first row != (n-1) phi' + psi")


def _suite_ode(pair: ClassicalPair, report: VerifyReport, result: SuiteResult) -> None:
    for n in range(report.max_n + 1):
        result.check(mu_eigenvalue(pair, n, n) == lambda_n(pair, n),
                     f"n={n}: mu(n, n) != lambda_n")
        result.check(mu_eigenvalue(pair, n, 0) == 0, f"n={n}: mu(n, 0) != 0")
        for nu in range(n + 1):
            result.check(ode_residual(pair, n, nu).is_zero,
                         f"n={n} nu={nu}: differential equation residual nonzero")
    # The ladder C_{n-nu} = c (d/dx)^nu C_n has c = 1 / prod_{j=n-nu+1..n} (-mu(n, j)),
    # where -mu(n, j) = j ((2n-j-1) a + d) / s; num / scale is that product at nu.
    s, (_, _, a), (_, d) = pair._pearson
    for n in range(1, report.max_n + 1):
        num = scale = 1
        for nu in range(n + 1):
            c = derivative_proportionality(pair, n, nu)
            result.check(c is not None and c.numerator * num == c.denominator * scale,
                         f"n={n} nu={nu}: derivative ladder: C_{n - nu}(x; {n}) != c (d/dx)^{nu} "
                         f"C_{n}(x; {n}) with c = 1/prod_(j={n - nu + 1}..{n}) (-mu({n}, j))")
            num, scale = num * (n - nu) * ((n + nu - 1) * a + d), scale * s  # j = n - nu


def _suite_functional(pair: ClassicalPair, report: VerifyReport, result: SuiteResult) -> None:
    max_n = report.max_n
    depth = 2 * max_n + 4
    pearson = result.check(pearson_residual(pair.phi, pair.psi, pair.u)._vanishes(depth),
                           "pearson residual nonzero")
    if pearson and pair.u.moment(0) == 0:
        report.notes.append("functional checks are vacuous: u0 = 0, and the Pearson recurrence "
                            "is linear in u0, so every moment of u is zero")
    for probe in (Poly.one(), Poly.x(), pair.phi, pair.psi, pair.phi * pair.psi):
        result.check(leibniz_residual(probe, pair.u)._vanishes(depth),
                     f"product rule residual nonzero for p = {probe}")
    # Each residual of (n, nu) is r u with deg r <= 2n - nu, by Pearson (the
    # self-adjoint one is read one moment past that, the degree of C_nu' phi^(n-nu+1)).
    # On a u quasi-definite through deg r, moments 0 .. deg r of r u all zero force
    # r = 0, so reading them is a proof.  The certificate reads (phi, psi, u0), not
    # the moments, so it counts only once the moments satisfy Pearson.
    proof = report.functional_proof = (
        pearson and _quasi_definite(pair._pearson, pair.u0, 2 * max_n + 1))

    def depths(n: int, nu: int) -> tuple[int, int]:
        return (2 * n - nu + 1, 2 * n - nu) if proof else (2 * n + 4, 2 * n + 4)

    def weigh(n: int) -> list[tuple[int, list[int]]]:
        # Every C_nu u_{n-nu} of n as an integer vector, through the deepest moment
        # its checks read.  The self-adjoint check reads it only where mu(n, nu) != 0:
        # at proof depth the certificate has d_k != 0 for k < 4 max_n + 2, so that is
        # every nu >= 1, and otherwise both depths are equal.
        return [_weighted_nums(pair, n, nu, depths(n, nu)[0 if nu else 1])
                for nu in range(n + 1)]

    # The rows of max_n read each u_j through the deepest moment any n reads from
    # it, so each u_j is extended once, here, and every other n reads stored moments.
    last = weigh(max_n)
    for n in range(max_n + 1):
        weighted = last if n == max_n else weigh(n)
        for nu in range(n + 1):
            adjoint_depth, rodrigues_depth = depths(n, nu)
            result.check(not any(_adjoint_nums(pair, n, nu, weighted[nu], adjoint_depth)[1]),
                         f"n={n} nu={nu}: self-adjoint residual nonzero")
            for mu in sorted({0, nu // 2}):
                result.check(
                    not any(_rodrigues_nums(weighted[nu], weighted[mu], nu - mu,
                                            rodrigues_depth)[1]),
                    f"n={n} nu={nu} mu={mu}: functional Rodrigues residual nonzero")


def _suite_genfun(pair: ClassicalPair, report: VerifyReport, result: SuiteResult) -> None:
    # G(n) is built only for the closed-form check; the identities read the rows
    order = report.series_order
    # catalog only: a custom pair's weight ratio is G(0) from these same rows, no closed form
    closed = weight_ratio_series(pair, order) if pair.name in FAMILIES else None
    if closed is None:
        report.notes.append("closed-form/weight checks skipped: no catalog weight for this pair")
    else:
        prefactor = _quadratic_prefactor(pair, order)
    for n in range(report.max_n + 1):
        if closed is not None:
            # genfun_closed_form(pair, n, order) as prefactor * (the closed form at
            # n - 1), one product with a three-term left factor
            if n:
                closed = prefactor * closed
            result.check(genfun_truncated(pair, n, order) == closed,
                         f"n={n}: truncated series != closed form at order {order}")
        for which, residual in pde_residual(pair, n, order).items():
            result.check(residual.is_zero, f"n={n}: identity {which} residual nonzero")


def _suite_oracle(pair: ClassicalPair, report: VerifyReport, result: SuiteResult) -> None:
    ops = chebyshev_ops(pair.u, report.max_n)
    # Gram entry (i, j) is upper[i][j - i] / (dens[i] dens[j] mden) for i <= j
    mden, dens, upper = _gram_numerators(pair.u, ops.polys)
    for i in range(report.max_n + 1):
        for j in range(report.max_n + 1):
            if i == j:
                norm = ops.norms[i]
                result.check(upper[i][0] * norm.denominator
                             == norm.numerator * dens[i] * dens[i] * mden,
                             f"degree {i}: Gram diagonal != squared norm")
            else:
                result.check(not upper[min(i, j)][abs(i - j)],
                             f"degrees ({i},{j}): Gram entry nonzero")
    previous = Fraction(1)
    for m, delta in enumerate(hankel_minors(pair.u, report.max_n)):
        if delta == 0:
            result.check(False, f"degree {m}: Hankel determinant vanishes")
            break
        result.check(ops.norms[m] == delta / previous, f"degree {m}: norm != Hankel ratio")
        previous = delta
    coeffs = three_term_coefficients(ops)
    # the top entry has no successor inside the computed range
    for m, (a, b) in enumerate(coeffs[:-1]):
        p, q = ops.polys[m], ops.polys[m - 1] if m >= 1 else Poly.zero()
        step = _step((p._den, (0, *p._nums)), (p._den, p._nums), (q._den, q._nums), a, b)
        result.check(Poly._of(*step) == ops.polys[m + 1],
                     f"degree {m}: three-term reconstruction fails")
    degree = cross_validate(pair, ops)
    result.check(degree is None, f"cross validation: monic diagonal row {degree} differs "
                                 "from the moment-only polynomial")
    # Leading-coefficient probe: the expansion value is asserted; how it
    # relates to the eigenvalue ratio -lambda_j / j is recorded as a note.
    # from Poly coefficients, not pair._pearson: these check the integer form
    psi1 = pair.psi.coefficient(1)
    phi2 = pair.phi.coefficient(2) * 2
    for k in range(0, 5):
        for m in range(0, 5):
            if m + 2 * k < 1:
                continue
            result.check(leading_coeff_probe(pair, k, m) == psi1 + (m + 2 * k) * phi2 / 2,
                         f"k={k} m={m}: step leading coefficient != psi' + (m+2k) phi''/2")
    # -lambda_j / j = psi' + (j - 1) phi''/2, so on the probed grid it differs from
    # the probe value exactly when phi'' != 0, and first at j = m + 2k = 1
    if phi2 == 0:
        report.notes.append(
            "leading-coefficient probe: psi' + (m+2k) phi''/2 agrees with "
            "-lambda_{m+2k}/(m+2k) on the probed grid (phi'' = 0 makes them coincide)")
    else:
        report.notes.append(
            "leading-coefficient probe: value is psi' + (m+2k) phi''/2 "
            "(= -lambda_{m+2k+1}/(m+2k+1)); the ratio -lambda_{m+2k}/(m+2k) "
            f"differs, first at k=0 m=1 ({psi1 + phi2 / 2} vs {psi1})")


_SUITES = {
    "recursion": _suite_recursion,
    "ode": _suite_ode,
    "functional": _suite_functional,
    "genfun": _suite_genfun,
    "oracle": _suite_oracle,
}
SUITE_NAMES = tuple(_SUITES)


def verify_pair(pair: ClassicalPair, suites: tuple[str, ...] | list[str] | None = None,
                max_n: int = 8, order: int = 12) -> VerifyReport:
    """Run the requested suites over the ``(n, nu)`` grid up to ``max_n``.

    Only ``suites=None`` runs every suite, in ``SUITE_NAMES`` order; an empty
    or repeated selection is refused.  A suite that reads an undefined moment
    (``AdmissibilityViolation``) or a functional that is not quasi-definite
    stops there with a note, keeping the checks it made."""
    if max_n < 0:
        raise InvalidParameter("max_n must be >= 0")
    if order < 2:
        raise InvalidParameter("series order must be >= 2")
    selected = SUITE_NAMES if suites is None else tuple(suites)
    if not selected:
        raise InvalidParameter("no suite selected; pass None to run every suite")
    for name in selected:
        if name not in _SUITES:
            raise InvalidParameter(
                f"unknown suite {name!r}; expected one of {', '.join(SUITE_NAMES)}")
    if len(set(selected)) < len(selected):
        raise InvalidParameter(f"a suite is selected twice: {', '.join(selected)}")
    report = VerifyReport(pair.name, dict(pair.params), max_n, order)
    for name in selected:
        result = SuiteResult(name)
        start = time.perf_counter()
        try:
            _SUITES[name](pair, report, result)
        except (AdmissibilityViolation, NotQuasiDefinite) as exc:
            report.notes.append(f"{name} checks skipped: {exc}")
        result.seconds = time.perf_counter() - start
        report.suites.append(result)
    return report
