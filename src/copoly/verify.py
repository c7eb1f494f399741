"""Verification suites: run the identities over a grid and report exactly.

Each suite walks its grid in a fixed order, so the recorded failures (if
any) are already sorted by ``(n, nu)`` and the first entry is the first
counterexample.  Everything is exact; a "failure" is a nonzero object, never
a tolerance call.  Every check goes through the suite's ``_Tally``, which
counts it and keeps the message of each one that fails.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InvalidParameter, NotQuasiDefinite
from .functional import hankel_minors, leibniz_residual, pearson_residual
from .genfun import genfun_phi_factor, genfun_truncated, pde_residual, weight_ratio_series
from .oracle import chebyshev_ops, cross_validate, orthogonality_matrix, three_term_coefficients
from .poly import Poly
from .rodrigues import (
    FAMILIES,
    ClassicalPair,
    derivative_proportionality,
    lambda_n,
    leading_coeff_probe,
    mu_eigenvalue,
    ode_residual,
    rodrigues_formula_residual,
    rodrigues_r1,
    rodrigues_rk,
    sturm_liouville_residual,
)


@dataclass
class SuiteResult:
    suite: str
    passed: bool
    checks: int
    failures: list[str]
    seconds: float


@dataclass
class VerifyReport:
    family: str
    params: dict[str, Fraction]
    max_n: int
    series_order: int
    suites: list[SuiteResult] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.suites)

    @property
    def first_counterexample(self) -> str | None:
        for s in self.suites:
            if s.failures:
                return f"{s.suite}: {s.failures[0]}"
        return None


@dataclass
class _Tally:
    """The record of one suite run: checks counted, failure messages, notes."""

    checks: int = 0
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, failure: str) -> bool:
        """Count one check; keep ``failure`` only when ``ok`` is false."""
        self.checks += 1
        if not ok:
            self.failures.append(failure)
        return ok


def _suite_recursion(pair: ClassicalPair, max_n: int, order: int, tally: _Tally) -> None:
    dphi = pair.phi.derivative()
    for n in range(max_n + 1):
        rows = pair.rows(n, n)
        # chain[nu] = R_1(phi, u_{n-nu})[chain[nu-1]] = rodrigues_rk(pair, nu, n - nu, 1)
        chain = [p := Poly.one()] + [p := rodrigues_r1(pair, k, p) for k in range(n - 1, -1, -1)]
        for nu, row in enumerate(rows):
            tally.check(row == chain[nu], f"n={n} nu={nu}: recursion row != iterated operator")
            tally.check(row.degree == nu, f"n={n} nu={nu}: row degree {row.degree} != {nu}")
            # the splits at 0 and nu would only repeat the chain
            tally.check(row == rodrigues_rk(pair, nu - nu // 2, n - nu, chain[nu // 2]),
                        f"n={n} nu={nu}: composition split at {nu // 2} differs")
        if n >= 1:
            tally.check(rows[1] == (n - 1) * dphi + pair.psi,
                        f"n={n} nu=1: first row != (n-1) phi' + psi")


def _suite_ode(pair: ClassicalPair, max_n: int, order: int, tally: _Tally) -> None:
    for n in range(max_n + 1):
        tally.check(mu_eigenvalue(pair, n, n) == lambda_n(pair, n), f"n={n}: mu(n, n) != lambda_n")
        tally.check(mu_eigenvalue(pair, n, 0) == 0, f"n={n}: mu(n, 0) != 0")
        for nu in range(n + 1):
            tally.check(ode_residual(pair, n, nu).is_zero,
                        f"n={n} nu={nu}: differential equation residual nonzero")
    for n in range(1, max_n + 1):
        for nu in range(n + 1):
            tally.check(derivative_proportionality(pair, n, nu) is not None,
                        f"n={n} nu={nu}: derivative ladder: C_{n - nu}(x; {n}) is not a "
                        f"scalar multiple of the {nu}-fold derivative")


def _suite_functional(pair: ClassicalPair, max_n: int, order: int, tally: _Tally) -> None:
    depth = 2 * max_n + 4
    if (tally.check(pearson_residual(pair.phi, pair.psi, pair.u)._vanishes(depth),
                    "pearson residual nonzero")
            and pair.u.moment(0) == 0):
        tally.notes.append("functional checks are vacuous: u0 = 0, and the Pearson recurrence "
                           "is linear in u0, so every moment of u is zero")
    for probe in (Poly.one(), Poly.x(), pair.phi, pair.psi, pair.phi * pair.psi):
        tally.check(leibniz_residual(probe, pair.u)._vanishes(depth),
                    f"product rule residual nonzero for p = {probe}")
    for n in range(max_n + 1):
        depth_n = 2 * n + 4
        for nu in range(n + 1):
            tally.check(sturm_liouville_residual(pair, n, nu)._vanishes(depth_n),
                        f"n={n} nu={nu}: self-adjoint residual nonzero")
            for mu in sorted({0, nu // 2}):
                tally.check(rodrigues_formula_residual(pair, n, nu, mu)._vanishes(depth_n),
                            f"n={n} nu={nu} mu={mu}: functional Rodrigues residual nonzero")


def _suite_genfun(pair: ClassicalPair, max_n: int, order: int, tally: _Tally) -> None:
    weight = weight_ratio_series(pair, order) if pair.name in FAMILIES else None
    if weight is None:
        tally.notes.append("closed-form/weight checks skipped: no catalog weight for this pair")
    for n in range(max_n + 1):
        truncated = genfun_truncated(pair, n, order)
        if weight is not None:
            # the closed form genfun_closed_form(pair, n, order), sharing one weight ratio
            tally.check(truncated == genfun_phi_factor(pair, n, order) * weight,
                        f"n={n}: truncated series != closed form at order {order}")
        for which, residual in pde_residual(pair, n, order).items():
            tally.check(residual.is_zero, f"n={n}: identity {which} residual nonzero")


def _suite_oracle(pair: ClassicalPair, max_n: int, order: int, tally: _Tally) -> None:
    try:
        ops = chebyshev_ops(pair.u, max_n)
    except NotQuasiDefinite as exc:
        tally.notes.append("oracle checks skipped: moment functional is not quasi-definite "
                           f"(Hankel determinant of order {exc.level} vanishes)")
        return
    gram = orthogonality_matrix(pair.u, ops.polys)
    for i in range(max_n + 1):
        for j in range(max_n + 1):
            if i == j:
                tally.check(gram[i][j] == ops.norms[i], f"degree {i}: Gram diagonal != squared norm")
            else:
                tally.check(gram[i][j] == 0, f"degrees ({i},{j}): Gram entry nonzero")
    previous = Fraction(1)
    for m, delta in enumerate(hankel_minors(pair.u, max_n)):
        if delta == 0:
            tally.check(False, f"degree {m}: Hankel determinant vanishes")
            break
        tally.check(ops.norms[m] == delta / previous, f"degree {m}: norm != Hankel ratio")
        previous = delta
    coeffs = three_term_coefficients(ops)
    x = Poly.x()
    # the top entry has no successor inside the computed range
    for m, (a, b) in enumerate(coeffs[:-1]):
        below = ops.polys[m - 1] if m >= 1 else Poly.zero()
        tally.check(ops.polys[m + 1] == (x - a) * ops.polys[m] - b * below,
                    f"degree {m}: three-term reconstruction fails")
    degree = cross_validate(pair, ops)
    tally.check(degree is None, f"cross validation: monic diagonal row {degree} differs "
                                "from the moment-only polynomial")
    # Leading-coefficient probe: the expansion value is asserted; how it
    # relates to the eigenvalue ratio -lambda_j / j is recorded as a note.
    psi1 = pair.psi.coefficient(1)
    phi2 = pair.phi.coefficient(2) * 2
    for k in range(0, 5):
        for m in range(0, 5):
            if m + 2 * k < 1:
                continue
            tally.check(leading_coeff_probe(pair, k, m) == psi1 + (m + 2 * k) * phi2 / 2,
                        f"k={k} m={m}: step leading coefficient != psi' + (m+2k) phi''/2")
    # -lambda_j / j = psi' + (j - 1) phi''/2, so on the probed grid it differs from
    # the probe value exactly when phi'' != 0, and first at j = m + 2k = 1
    if phi2 == 0:
        tally.notes.append(
            "leading-coefficient probe: psi' + (m+2k) phi''/2 agrees with "
            "-lambda_{m+2k}/(m+2k) on the probed grid (phi'' = 0 makes them coincide)")
    else:
        tally.notes.append(
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
    """Run the requested suites over the ``(n, nu)`` grid up to ``max_n``."""
    if max_n < 0:
        raise InvalidParameter("max_n must be >= 0")
    if order < 2:
        raise InvalidParameter("series order must be >= 2")
    selected = tuple(suites) if suites else SUITE_NAMES
    for name in selected:
        if name not in _SUITES:
            raise InvalidParameter(
                f"unknown suite {name!r}; expected one of {', '.join(SUITE_NAMES)}")
    report = VerifyReport(pair.name, dict(pair.params), max_n, order)
    for name in selected:
        tally = _Tally()
        start = time.perf_counter()
        _SUITES[name](pair, max_n, order, tally)
        elapsed = time.perf_counter() - start
        report.suites.append(
            SuiteResult(name, not tally.failures, tally.checks, tally.failures, elapsed))
        report.notes.extend(tally.notes)
    return report
