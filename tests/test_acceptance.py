"""Acceptance suite: the full exact-verification grid, one check per criterion.

Every assertion is an exact equality over the rationals; nothing here uses
tolerances.  Each criterion reports a single PASS/FAIL line on the real
stdout so the run log shows the verdicts even under output capture.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from conftest import src_env
from copoly import (
    Poly,
    SeriesYX,
    as_rational,
    bessel_family,
    complementary,
    genfun_closed_form,
    genfun_truncated,
    gram_schmidt_ops,
    hankel_determinant,
    hermite_family,
    jacobi_family,
    laguerre_family,
    lambda_n,
    leading_coeff_probe,
    mu_eigenvalue,
    ode_residual,
    pde_residual,
    rodrigues_formula_residual,
    rodrigues_rk,
    sturm_liouville_residual,
)
from copoly.cli import main

MAX_N = 12


def _report(capfd, number: int, description: str):
    """Context manager printing one ACCEPTANCE line, pass or fail."""

    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            verdict = "PASS" if exc_type is None else "FAIL"
            with capfd.disabled():
                print(f"ACCEPTANCE {number} {verdict}: {description}")
            return False

    return _Ctx()


def test_criterion_1_recursion_operator_equivalence(family_pairs, capfd):
    with _report(capfd, 1, "recursion equals the k-fold Rodrigues operator, "
                           f"4 families, 0 <= nu <= n <= {MAX_N}, under 10 s"):
        start = time.perf_counter()
        one = Poly.one()
        for pair in family_pairs.values():
            for n in range(MAX_N + 1):
                for nu in range(n + 1):
                    assert complementary(pair, n, nu) == rodrigues_rk(pair, nu, n - nu, one)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_2_ode_suite(family_pairs, capfd):
    with _report(capfd, 2, "second-order ODE residual vanishes on the grid and "
                           "mu(n, n) = lambda(n)"):
        for pair in family_pairs.values():
            for n in range(MAX_N + 1):
                assert mu_eigenvalue(pair, n, n) == lambda_n(pair, n)
                for nu in range(n + 1):
                    assert ode_residual(pair, n, nu) == Poly.zero()


def test_criterion_3_functional_rodrigues_suite(family_pairs, capfd):
    with _report(capfd, 3, "functional Rodrigues and Sturm-Liouville residuals "
                           "vanish at moment depth 2n + 4"):
        for pair in family_pairs.values():
            for n in range(MAX_N + 1):
                depth = 2 * n + 4
                zeros = [0] * (depth + 1)
                for nu in range(n + 1):
                    assert sturm_liouville_residual(pair, n, nu).moments(depth) == zeros
                    for mu in range(nu + 1):
                        assert rodrigues_formula_residual(pair, n, nu, mu).moments(depth) == zeros


def test_criterion_4_generating_function_closed_form(family_pairs, capfd):
    with _report(capfd, 4, "truncated generating series equals the closed form, "
                           "n <= 8 at order 12; Hermite order-2 spot value"):
        for pair in family_pairs.values():
            for n in range(9):
                assert genfun_truncated(pair, n, 12) == genfun_closed_form(pair, n, 12)
        hermite = family_pairs["hermite"]
        expected = SeriesYX(2, [Poly.one(), Poly([0, -2]), Poly([-1, 0, 2])])
        assert genfun_truncated(hermite, 2, 2) == expected


def test_criterion_5_pde_suite(family_pairs, capfd):
    with _report(capfd, 5, "all five series identities hold through order 9 "
                           "at truncation order 10"):
        for pair in family_pairs.values():
            for n in range(9):
                for which, res in pde_residual(pair, n, order=10).items():
                    assert res.order == 9
                    assert res.is_zero, (pair.name, n, which)


def test_criterion_6_oracle_agreement(family_pairs, capfd):
    with _report(capfd, 6, "monic diagonal rows match Gram-Schmidt through "
                           f"degree {MAX_N}; Hankel determinants nonzero with "
                           "exact norm ratios"):
        for pair in family_pairs.values():
            ops = gram_schmidt_ops(pair.u, MAX_N)
            dets = [hankel_determinant(pair.u, m) for m in range(MAX_N + 1)]
            assert all(d != 0 for d in dets)
            for m in range(MAX_N + 1):
                assert complementary(pair, m, m).monic() == ops.polys[m]
                below = dets[m - 1] if m else Fraction(1)
                assert ops.norms[m] == dets[m] / below


def test_criterion_7_desk_scale_spot_values(family_pairs, capfd):
    with _report(capfd, 7, "desk-scale spot values for rows and moments"):
        hermite = family_pairs["hermite"]
        laguerre = family_pairs["laguerre"]
        jacobi = family_pairs["jacobi"]
        assert complementary(hermite, 2, 2) == Poly([-2, 0, 4])
        alpha = Fraction(1, 2)
        ja, jb = Fraction(1, 3), Fraction(2)
        for n in range(1, MAX_N + 1):
            assert complementary(laguerre, n, 1) == Poly([n + alpha, -1])
            assert complementary(jacobi, n, 1) == Poly([jb - ja, -(ja + jb + 2 * n)])
        assert hermite.u.moments(4) == [1, 0, Fraction(1, 2), 0, Fraction(3, 4)]


def test_criterion_8_leading_coefficient_probe(family_pairs, capfd):
    flagged: list[str] = []
    for name, pair in family_pairs.items():
        dpsi = pair.psi.coefficient(1)
        ddphi = 2 * pair.phi.coefficient(2)
        first = None
        for k in range(6):
            for m in range(6):
                value = leading_coeff_probe(pair, k, m)
                s = m + 2 * k
                assert value == dpsi + Fraction(s, 2) * ddphi
                assert value == -lambda_n(pair, s + 1) / (s + 1)
                if s >= 1 and first is None and value != -lambda_n(pair, s) / s:
                    first = (k, m, value, -lambda_n(pair, s) / s)
        if first is not None:
            k, m, got, stated = first
            flagged.append(f"{name} k={k} m={m}: {got} vs {stated}")
    description = ("probe equals psi' + (m+2k) phi''/2 everywhere; stated index "
                   "-lambda_s/s diverges where phi'' != 0 "
                   f"[flagged: {'; '.join(flagged)}]")
    with _report(capfd, 8, description):
        # The discrepancy is expected exactly for the curved-phi families
        # and must not fail the suite.
        assert sorted(f.split()[0] for f in flagged) == ["bessel", "jacobi"]


def test_criterion_9_cli_contract(capfd):
    with _report(capfd, 9, "verify examples exit 0/2/0 and 100 randomized "
                           "tables survive the JSON round-trip"):
        def run(*argv):
            return subprocess.run(
                [sys.executable, "-m", "copoly", *argv],
                capture_output=True, text=True, env=src_env(),
            )

        first = run("verify", "--family", "hermite", "--max-n", "8", "--suite", "all")
        second = run("verify", "--family", "bessel", "--alpha", "-5", "--max-n", "8")
        third = run("verify", "--family", "laguerre", "--alpha", "1/2",
                    "--suite", "genfun", "--order", "10")
        assert first.returncode == 0, first.stderr
        assert second.returncode == 2
        assert "k = 3" in second.stderr
        assert third.returncode == 0, third.stderr

        builders = (
            hermite_family,
            lambda: laguerre_family(Fraction(1, 2)),
            lambda: laguerre_family(2),
            lambda: jacobi_family(Fraction(1, 3), 2),
            lambda: jacobi_family(0, 0),
            lambda: jacobi_family(1, Fraction(-1, 2)),
            lambda: bessel_family(1),
            lambda: bessel_family(Fraction(1, 3)),
        )
        rng = random.Random(97)
        for _ in range(100):
            pair = rng.choice(builders)()
            n = rng.randrange(0, 8)
            flags = [f"--{key}={value}" for key, value in pair.params.items()]
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = main(["compute", "--family", pair.name, *flags, "--n", str(n),
                             "--format", "json"])
            assert code == 0
            doc = json.loads(out.getvalue())
            rows = [Poly(r) for r in doc["rows"]]
            assert rows == [complementary(pair, n, nu) for nu in range(n + 1)]
            assert as_rational(doc["lambda"]) == lambda_n(pair, n)
            mus = [as_rational(v) for v in doc["mu"][0]]
            assert mus == [mu_eigenvalue(pair, n, nu) for nu in range(n + 1)]
