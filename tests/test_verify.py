"""Invariant suite runner: pass reports, notes, and failure detection."""

from __future__ import annotations

from fractions import Fraction

import pytest

import copoly.functional
import copoly.genfun
import copoly.oracle
import copoly.rodrigues
import copoly.verify
import oracles
from conftest import FIVE_PRIME
from copoly import (
    AdmissibilityViolation,
    ClassicalPair,
    InvalidParameter,
    Poly,
    SUITE_NAMES,
    SeriesYX,
    bessel_family,
    hankel_minors,
    hermite_family,
    jacobi_family,
    laguerre_family,
    lambda_n,
    verify_pair,
)
from copoly.functional import _quasi_definite


_weighted_nums = copoly.rodrigues._weighted_nums


def _perturb_weighted_row(monkeypatch, at: tuple[int, int], j: int) -> None:
    """Wrap the weighted-row kernel, in ``rodrigues`` and where ``verify`` holds it, so
    that ``C_nu u_{n-nu}`` at ``(n, nu) == at`` gains the moments of ``x^j u_{n-nu}``."""
    def perturbed(pair, n, nu, hi):
        den, nums = _weighted_nums(pair, n, nu, hi)
        if (n, nu) != at:
            return den, nums
        u_den, u_nums = pair.functional_power(n - nu)._form(hi + j)
        return den * u_den, [w * u_den + den * v for w, v in zip(nums, u_nums[j:])]
    monkeypatch.setattr(copoly.rodrigues, "_weighted_nums", perturbed)
    monkeypatch.setattr(copoly.verify, "_weighted_nums", perturbed)


def _hermite_on_legendre_moments(legendre_pair, monkeypatch) -> ClassicalPair:
    """The Hermite pair as built by a faulty moment generator that returns
    the Legendre functional."""
    monkeypatch.setattr(copoly.rodrigues, "_pearson_moments",
                        lambda pearson, u0, max_order: legendre_pair.u)
    return ClassicalPair(Poly.one(), Poly([0, -2]), name="broken")


class TestPassingRuns:
    def test_suite_names(self):
        assert SUITE_NAMES == ("recursion", "ode", "functional", "genfun", "oracle")

    def test_full_run_passes(self, family_pairs):
        for pair in family_pairs.values():
            report = verify_pair(pair, max_n=4, order=6)
            assert report.passed
            assert report.first_counterexample is None
            assert [s.suite for s in report.suites] == list(SUITE_NAMES)
            assert all(s.checks > 0 for s in report.suites)
            assert all(s.seconds >= 0 for s in report.suites)

    def test_single_suite_selection(self, hermite_pair):
        report = verify_pair(hermite_pair, suites=("ode",), max_n=5)
        assert [s.suite for s in report.suites] == ["ode"]
        assert report.passed

    def test_unknown_suite_rejected(self, hermite_pair):
        with pytest.raises(ValueError):
            verify_pair(hermite_pair, suites=("ode", "bogus"))

    @pytest.mark.parametrize("suites", [[], (), ("ode", "ode"), ["recursion", "ode", "recursion"]],
                             ids=["empty-list", "empty-tuple", "twice", "twice-apart"])
    def test_empty_or_repeated_selection_rejected(self, hermite_pair, suites):
        # only None selects every suite
        with pytest.raises(InvalidParameter):
            verify_pair(hermite_pair, suites=suites, max_n=1, order=2)

    def test_negative_max_n_rejected(self, hermite_pair):
        with pytest.raises(ValueError):
            verify_pair(hermite_pair, max_n=-1)

    def test_report_carries_family_metadata(self, jacobi_pair):
        report = verify_pair(jacobi_pair, suites=("recursion",), max_n=3)
        assert report.family == "jacobi"
        assert report.params == {"alpha": Fraction(1, 3), "beta": Fraction(2)}
        assert report.max_n == 3

    def test_oracle_suite_builds_its_sequence_once(self, jacobi_pair, monkeypatch):
        calls = []
        original = copoly.oracle.chebyshev_ops

        def counted(u, n):
            calls.append(n)
            return original(u, n)
        monkeypatch.setattr(copoly.verify, "chebyshev_ops", counted)
        monkeypatch.setattr(copoly.oracle, "chebyshev_ops", counted)
        assert verify_pair(jacobi_pair, suites=("oracle",), max_n=4).passed
        assert calls == [4]

    def test_genfun_suite_builds_each_series_once(self, hermite_pair, monkeypatch):
        # per n: the suite's own series G(n); the identities read it, and those
        # of n + 1 read it truncated (building G(n) and G(n-1) again took 11)
        calls = []
        original = copoly.genfun.genfun_truncated

        def counted(pair, n, order):
            calls.append((n, order))
            return original(pair, n, order)
        monkeypatch.setattr(copoly.verify, "genfun_truncated", counted)
        monkeypatch.setattr(copoly.genfun, "genfun_truncated", counted)
        assert verify_pair(hermite_pair, suites=("genfun",), max_n=3, order=6).passed
        assert calls == [(n, 6) for n in range(4)]

    def test_rows_are_built_once_per_pair(self, monkeypatch):
        # A fresh pair: the session fixtures carry their row memos between tests.
        pair = jacobi_family(Fraction(1, 3), Fraction(4, 3))
        built = []
        original = copoly.rodrigues._comp_rows

        def counted(*args):
            rows = original(*args)
            built.append(len(rows))
            return rows
        monkeypatch.setattr(copoly.rodrigues, "_comp_rows", counted)
        report = verify_pair(pair, max_n=8, order=12)
        assert report.passed
        assert sum(s.checks for s in report.suites) == 549
        # rows 0..12 of n = 0..8 are 117 distinct rows
        assert sum(built) <= 162

    def test_recursion_suite_steps_once_per_row_and_split(self, hermite_pair, monkeypatch):
        # per n: n steps for the chain, then ceil(nu/2) for each split at nu // 2;
        # a chain rebuilt from 1 for every (n, nu), with three splits, took 472
        steps = []
        original = copoly.rodrigues.rodrigues_r1

        def counted(pair, k, p):
            steps.append(k)
            return original(pair, k, p)
        monkeypatch.setattr(copoly.verify, "rodrigues_r1", counted)
        monkeypatch.setattr(copoly.rodrigues, "rodrigues_r1", counted)
        assert verify_pair(hermite_pair, suites=("recursion",), max_n=8).passed
        assert len(steps) == sum(n + sum((nu + 1) // 2 for nu in range(n + 1))
                                 for n in range(9)) == 106

    def test_functional_suite_weights_each_row_once(self, monkeypatch):
        # A fresh pair: the session fixtures carry their memos between tests.
        # One integer vector C_nu u_{n-nu} per (n, nu), shared by the self-adjoint
        # check and both Rodrigues checks; polynomial multiples only for 2 Pearson,
        # 15 product-rule and the 8 shifted functionals u_1..u_8 (u_9 served only
        # the self-adjoint residual at nu = 0, which reads none of it; a memoized
        # functional per (n, nu) made it 71, and one per residual 262)
        pair = hermite_family()
        calls, weighted = [], []
        original = copoly.functional.functional_poly_mul

        def counted(h, u):
            calls.append(h)
            return original(h, u)

        def weigh(pair, n, nu, hi):
            weighted.append((n, nu))
            return _weighted_nums(pair, n, nu, hi)
        monkeypatch.setattr(copoly.functional, "functional_poly_mul", counted)
        monkeypatch.setattr(copoly.rodrigues, "functional_poly_mul", counted)
        monkeypatch.setattr(copoly.verify, "_weighted_nums", weigh)
        assert verify_pair(pair, suites=("functional",), max_n=8).passed
        assert len(calls) == 2 + 15 + 8 == 25
        assert sorted(weighted) == [(n, nu) for n in range(9) for nu in range(n + 1)]
        # with u_1 .. u_max_n built beforehand, the suite builds the same
        # functionals, those of the Pearson and product-rule checks, on any grid
        built = []
        original_init = copoly.functional.MomentFunctional.__init__

        def init(self, *args, **kwargs):
            built.append(self)
            original_init(self, *args, **kwargs)
        monkeypatch.setattr(copoly.functional.MomentFunctional, "__init__", init)
        for max_n in (1, 4, 8):
            pair = hermite_family()
            for j in range(max_n + 1):
                pair.functional_power(j)
            built.clear()
            assert verify_pair(pair, suites=("functional",), max_n=max_n).passed
            assert len(built) == 4 + 5 * 7 == 39

    @pytest.mark.parametrize("proof", [True, False], ids=["proof-depth", "fixed-depth"])
    def test_functional_suite_fills_each_shifted_functional_once(self, proof):
        # u_1 .. u_max_n are read once, through the deepest moment any check needs
        # from them: the rows of max_n go first.  Growing them with n would fill
        # u_1 eight times at max_n = 8.
        pair = jacobi_family(Fraction(1, 3), Fraction(4, 3)) if proof else laguerre_family(-2)
        max_n, fills = 8, []
        for j in range(1, max_n + 1):
            u_j = pair.functional_power(j)
            u_j._block = lambda u, lo, hi, block=u_j._block, j=j: (
                fills.append(j) or block(u, lo, hi))
        report = verify_pair(pair, suites=("functional",), max_n=max_n)
        assert report.passed and report.functional_proof is proof
        assert sorted(fills) == list(range(1, max_n + 1))

    def test_a_wrong_weighted_row_fails_where_it_is_read(self, monkeypatch):
        # C_3(x; 5) u_2 built as (C_3 + 1) u_2: both residuals that read it
        # must fail there, and nothing else may
        _perturb_weighted_row(monkeypatch, (5, 3), 0)
        report = verify_pair(hermite_family(), suites=("functional",), max_n=5, order=4)
        assert report.suites[0].failures == [
            "n=5 nu=3: self-adjoint residual nonzero",
            "n=5 nu=3 mu=0: functional Rodrigues residual nonzero",
            "n=5 nu=3 mu=1: functional Rodrigues residual nonzero",
        ]

    @pytest.mark.parametrize("build", [
        hermite_family, lambda: ClassicalPair(*FIVE_PRIME),
    ], ids=["hermite", "five-prime"])
    def test_a_wrong_shifted_functional_fails_as_the_compositions_do(self, build):
        # u_2 memoized as u_2 + u before any row is weighted: every weighted row
        # C_nu u_2 and every self-adjoint residual that reads u_2 carries it, and
        # the integer checks must fail exactly where the compositions of derived
        # functionals in oracles fail, read to the same depths
        pair = build()
        pair._shifted[2] = pair.functional_power(2) + pair.u
        report = verify_pair(pair, suites=("functional",), max_n=5, order=4)
        assert report.functional_proof is True
        expected = []
        for n in range(6):
            for nu in range(n + 1):
                if any(oracles.sturm_liouville_residual(pair, n, nu).moments(2 * n - nu + 1)):
                    expected.append(f"n={n} nu={nu}: self-adjoint residual nonzero")
                for mu in sorted({0, nu // 2}):
                    residual = oracles.rodrigues_formula_residual(pair, n, nu, mu)
                    if any(residual.moments(2 * n - nu)):
                        expected.append(
                            f"n={n} nu={nu} mu={mu}: functional Rodrigues residual nonzero")
        assert report.suites[0].failures == expected
        assert "n=3 nu=1: self-adjoint residual nonzero" in expected


class TestProofDepth:
    """The functional suite reads each residual of ``(n, nu)`` only to ``2n - nu + 1``
    (self-adjoint) and ``2n - nu`` (Rodrigues) when the moments satisfy Pearson and
    ``_quasi_definite`` certifies ``u`` through ``2 max_n + 1``; else to ``2n + 4``."""

    @pytest.mark.parametrize("pair, first_zero", [
        (hermite_family(), None),
        (laguerre_family(Fraction(1, 2)), None),
        (laguerre_family(Fraction(4, 3)), None),
        (jacobi_family(Fraction(1, 3), 2), None),
        (jacobi_family(Fraction(1, 3), Fraction(4, 3)), None),
        (jacobi_family(0, 0), None),
        (bessel_family(1), None),
        (bessel_family(Fraction(1, 3)), None),
        (ClassicalPair(Poly([2, 1]), Poly([1, -1]), Fraction(1, 2)), None),
        (ClassicalPair(Poly([3, -1, 2]), Poly([1, 5])), None),
        (ClassicalPair(*FIVE_PRIME), None),
        (laguerre_family(-1), 1),
        (laguerre_family(-2), 2),
        (laguerre_family(-3), 3),
        (jacobi_family(1, -2), 2),
    ], ids=["hermite", "laguerre-1/2", "laguerre-4/3", "jacobi-1/3-2", "jacobi-1/3-4/3",
            "legendre", "bessel-1", "bessel-1/3", "custom-2+x", "custom-3-x+2x^2", "five-prime",
            "laguerre-minus-1", "laguerre-minus-2", "laguerre-minus-3", "jacobi-1-minus-2"])
    def test_certificate_agrees_with_hankel_minors(self, pair, first_zero):
        # the minors of H_19 are the leading minors of every H_depth, depth <= 19,
        # and the list ends at its first zero
        minors = hankel_minors(pair.u, 19)
        assert next((m for m, delta in enumerate(minors) if delta == 0), None) == first_zero
        assert [_quasi_definite(pair._pearson, pair.u0, depth) for depth in range(20)] == [
            first_zero is None or depth < first_zero for depth in range(20)]

    def test_certificate_needs_every_moment_defined(self):
        # d_k = k - 3 vanishes at k = 3, so u_4, which Delta_2 needs, is undefined
        pair = ClassicalPair(Poly([0, 0, 1]), Poly([2, -3]))
        assert [_quasi_definite(pair._pearson, pair.u0, depth) for depth in range(2)] == [
            delta != 0 for delta in hankel_minors(pair.u, 1)] == [True, True]
        with pytest.raises(AdmissibilityViolation):
            hankel_minors(pair.u, 2)
        assert not any(_quasi_definite(pair._pearson, pair.u0, depth) for depth in range(2, 20))

    def test_certificate_is_false_for_a_zero_seed(self):
        pair = ClassicalPair(Poly([1, 1]), Poly([1, -1]), 0)
        assert not any(_quasi_definite(pair._pearson, pair.u0, depth) for depth in range(20))
        report = verify_pair(pair, suites=("functional",), max_n=3, order=4)
        assert report.passed and report.functional_proof is False

    def test_broken_pair_falls_back(self, legendre_pair, monkeypatch):
        # The certificate reads (phi, psi, u0), the Hermite pair's, and holds; the
        # failed Pearson check is what keeps the suite at depth 2n + 4.
        bad = _hermite_on_legendre_moments(legendre_pair, monkeypatch)
        assert _quasi_definite(bad._pearson, bad.u0, 5)
        report = verify_pair(bad, suites=("functional",), max_n=2, order=4)
        assert report.suites[0].failures[0] == "pearson residual nonzero"
        assert report.functional_proof is False

    @pytest.mark.parametrize("pair, proof", [
        (jacobi_family(Fraction(1, 3), Fraction(4, 3)), True),
        (laguerre_family(-2), False),
    ], ids=["quasi-definite", "laguerre-minus-2"])
    def test_depths_read(self, monkeypatch, pair, proof):
        # the Pearson and product-rule functionals through _vanishes, the residuals
        # through the integer kernels, in the order the suite checks them
        read = []
        original = copoly.functional.MomentFunctional._vanishes
        adjoint, rodrigues = copoly.rodrigues._adjoint_nums, copoly.rodrigues._rodrigues_nums

        def counted(u, up_to):
            read.append(up_to)
            return original(u, up_to)

        def adjoint_read(pair, n, nu, weighted, hi):
            read.append(hi)
            return adjoint(pair, n, nu, weighted, hi)

        def rodrigues_read(upper, lower, t, hi):
            read.append(hi)
            return rodrigues(upper, lower, t, hi)
        monkeypatch.setattr(copoly.functional.MomentFunctional, "_vanishes", counted)
        monkeypatch.setattr(copoly.verify, "_adjoint_nums", adjoint_read)
        monkeypatch.setattr(copoly.verify, "_rodrigues_nums", rodrigues_read)
        max_n = 4
        report = verify_pair(pair, suites=("functional",), max_n=max_n, order=4)
        assert report.passed and report.functional_proof is proof
        # the Pearson check and the five product-rule probes keep depth 2 max_n + 4
        expected = [2 * max_n + 4] * 6
        for n in range(max_n + 1):
            for nu in range(n + 1):
                adjoint, rodrigues = (2 * n - nu + 1, 2 * n - nu) if proof else (2 * n + 4,) * 2
                expected += [adjoint] + [rodrigues] * len({0, nu // 2})
        assert read == expected

    def test_moments_are_read_only_as_deep_as_the_checks(self):
        # bessel(alpha) has d + k a = alpha + 2 + k, so u_{k+1} is undefined at
        # k = -alpha - 2.  bessel(-20) is certified through 2 max_n + 1 (d_k != 0 for
        # k < 18), and at proof depth the suite reads u through 4 max_n = 16;
        # bessel(-19) is not, and at depth 2n + 4 the suite reads u through
        # 4 max_n + 4 = 20, past k = 17.  Reading every u_j through 4 max_n + 4
        # would refuse bessel(-20) too.
        report = verify_pair(bessel_family(-20), max_n=4, order=4)
        assert [s.checks for s in report.suites] == [49, 39, 42, 28, 59]
        assert report.passed and report.functional_proof is True
        with pytest.raises(AdmissibilityViolation, match="at k = 17$"):
            verify_pair(bessel_family(-19), max_n=4, order=4)

    @pytest.mark.parametrize("build", [
        hermite_family,
        lambda: jacobi_family(Fraction(1, 3), Fraction(4, 3)),
        lambda: ClassicalPair(*FIVE_PRIME),
    ], ids=["hermite", "jacobi", "five-prime"])
    @pytest.mark.parametrize("n, nu", [(5, 3), (4, 4), (6, 4)])
    def test_a_wrong_weighted_row_fails_at_proof_depth(self, monkeypatch, build, n, nu):
        # C_nu u_{n-nu} built with x^j u_{n-nu} added, j <= nu: each residual that
        # reads it gains r u with r of degree j + 2(n - nu) <= 2n - nu, inside the
        # depth read, and 2 nu > n keeps every other (n, nu') off this row
        for j in range(nu + 1):
            _perturb_weighted_row(monkeypatch, (n, nu), j)
            report = verify_pair(build(), suites=("functional",), max_n=n, order=4)
            assert report.functional_proof is True
            assert report.suites[0].failures == [
                f"n={n} nu={nu}: self-adjoint residual nonzero",
                *(f"n={n} nu={nu} mu={mu}: functional Rodrigues residual nonzero"
                  for mu in (0, nu // 2)),
            ]

    def test_report_field(self, hermite_pair):
        assert verify_pair(hermite_pair, max_n=3, order=4).functional_proof is True
        assert verify_pair(hermite_pair, suites=("ode",), max_n=3).functional_proof is None
        assert verify_pair(laguerre_family(-1), max_n=3, order=4).functional_proof is False


class TestNotes:
    def test_probe_note_reports_coincidence_without_phi2(self, hermite_pair):
        report = verify_pair(hermite_pair, suites=("oracle",), max_n=3)
        assert any("coincide" in note for note in report.notes)

    def test_probe_note_reports_divergence_with_phi2(self, jacobi_pair):
        report = verify_pair(jacobi_pair, suites=("oracle",), max_n=3)
        assert any("differs" in note for note in report.notes)

    @pytest.mark.parametrize("phi, psi", [
        (Poly([1]), Poly([0, -2])), (Poly([2, 1]), Poly([1, -1])),
        (Poly([1, 0, -1]), Poly([Fraction(1, 3), Fraction(-7, 3)])),
        (Poly([3, -1, 2]), Poly([1, 5])), (Poly([1, -2, 1]), Poly([0, Fraction(-1, 5)])),
        (Poly([0, 0, Fraction(-3, 2)]), Poly([2, -45])),
    ])
    def test_probe_note_matches_a_scan_of_the_grid(self, phi, psi):
        # the note is computed from psi' and phi''; a scan of the probed grid
        # against -lambda_j / j must find the same first divergence
        pair = ClassicalPair(phi, psi, max_order=40)
        dpsi, ddphi = psi.coefficient(1), 2 * phi.coefficient(2)
        first = next(((k, m, dpsi + Fraction(m + 2 * k, 2) * ddphi,
                       -lambda_n(pair, m + 2 * k) / (m + 2 * k))
                      for k in range(5) for m in range(5) if m + 2 * k >= 1
                      and dpsi + Fraction(m + 2 * k, 2) * ddphi
                      != -lambda_n(pair, m + 2 * k) / (m + 2 * k)), None)
        expected = _COINCIDE if first is None else _DIFFERS.replace(
            "k=0 m=1", f"k={first[0]} m={first[1]}") + f"({first[2]} vs {first[3]})"
        assert verify_pair(pair, suites=("oracle",), max_n=1, order=4).notes[-1] == expected

    def test_custom_pair_skips_closed_form(self):
        pair = ClassicalPair(Poly([2, 1]), Poly([1, -1]), max_order=40)
        report = verify_pair(pair, suites=("genfun",), max_n=3, order=6)
        assert report.passed
        assert any("skipped" in note for note in report.notes)


class TestFailureDetection:
    def test_mismatched_functional_is_caught(self, legendre_pair, monkeypatch):
        # A faulty moment generator glues Hermite (phi, psi) to Legendre
        # moments: algebra runs fine but the Pearson consistency checks must fail.
        bad = _hermite_on_legendre_moments(legendre_pair, monkeypatch)
        report = verify_pair(bad, suites=("functional",), max_n=2, order=4)
        assert not report.passed
        assert report.first_counterexample is not None
        assert "functional" in report.first_counterexample

    def test_internal_error_is_not_a_counterexample(self, hermite_pair, monkeypatch):
        def broken(pair, n, nu):
            raise TypeError("internal fault")
        monkeypatch.setattr(copoly.verify, "derivative_proportionality", broken)
        with pytest.raises(TypeError, match="internal fault"):
            verify_pair(hermite_pair, suites=("ode",), max_n=2, order=4)

    def test_genfun_suite_sees_one_perturbed_row(self):
        # C_2(x; 3) off by x: the series of n = 3 is wrong in every check that
        # reads it, and n = 4 reads it through its *_lower identities
        pair = jacobi_family(Fraction(1, 3), Fraction(4, 3))
        pair.rows(3, 8)
        pair._rows[3][2] += Poly.x()
        report = copoly.verify.VerifyReport(pair.name, dict(pair.params), 5, 8)
        result = copoly.verify.SuiteResult("genfun")
        copoly.verify._suite_genfun(pair, report, result)
        assert (result.checks, result.passed, report.notes) == (34, False, [])
        assert result.failures == [
            "n=3: truncated series != closed form at order 8",
            *(f"n=3: identity {which} residual nonzero"
              for which in ("y_self", "y_lower", "x_self", "x_lower", "master")),
            "n=4: identity y_lower residual nonzero",
            "n=4: identity x_lower residual nonzero",
        ]

    def test_custom_suite_runs_on_consistent_custom_pair(self):
        pair = ClassicalPair(Poly([2, 1]), Poly([1, -1]), Fraction(1, 2), max_order=40)
        report = verify_pair(pair, max_n=3, order=6)
        assert report.passed

    @pytest.mark.parametrize("pair, level", [
        (laguerre_family(-1), 1),
        (ClassicalPair(Poly([1, 1]), Poly([1, -1]), 0), 0),
    ], ids=["laguerre-alpha-minus-one", "custom-u0-zero"])
    def test_not_quasi_definite_skips_oracle(self, pair, level):
        # The functional itself is legal, so the vanishing level is a
        # property of the input recorded as a note, not a counterexample.
        report = verify_pair(pair, max_n=3, order=6)
        assert report.passed
        suites, notes = _summary(report)
        assert suites["oracle"] == (0, [])
        assert all(checks > 0 for name, (checks, _) in suites.items() if name != "oracle")
        assert notes[-1] == ("oracle checks skipped: moment functional is not quasi-definite "
                             f"(Hankel determinant of order {level} vanishes)")
        assert (_VACUOUS in notes) == (pair.u0 == 0)


# Golden reports: every suite's (checks, failures) and the notes, pinned
# exactly, so a change to how checks are recorded cannot move a count, a
# message or their order.

_COINCIDE = ("leading-coefficient probe: psi' + (m+2k) phi''/2 agrees with "
             "-lambda_{m+2k}/(m+2k) on the probed grid (phi'' = 0 makes them coincide)")
_DIFFERS = ("leading-coefficient probe: value is psi' + (m+2k) phi''/2 "
            "(= -lambda_{m+2k+1}/(m+2k+1)); the ratio -lambda_{m+2k}/(m+2k) differs, "
            "first at k=0 m=1 ")
_SKIPPED = "closed-form/weight checks skipped: no catalog weight for this pair"
_VACUOUS = ("functional checks are vacuous: u0 = 0, and the Pearson recurrence "
            "is linear in u0, so every moment of u is zero")
_PASSING_CHECKS = {"recursion": 68, "ode": 53, "functional": 58, "genfun": 34, "oracle": 72}


def _summary(report):
    return {s.suite: (s.checks, s.failures) for s in report.suites}, report.notes


class TestGoldenReports:
    @pytest.mark.parametrize("pair, genfun_checks, notes", [
        (hermite_family(), 34, [_COINCIDE]),
        (laguerre_family(Fraction(4, 3)), 34, [_COINCIDE]),
        (jacobi_family(Fraction(1, 3), Fraction(4, 3)), 34, [_DIFFERS + "(-14/3 vs -11/3)"]),
        (bessel_family(Fraction(1, 3)), 34, [_DIFFERS + "(10/3 vs 7/3)"]),
        (ClassicalPair(Poly([2, 1]), Poly([1, -1]), Fraction(1, 2)), 28,
         [_SKIPPED, _COINCIDE]),
    ], ids=["hermite", "laguerre", "jacobi", "bessel", "custom"])
    def test_passing_pair(self, pair, genfun_checks, notes):
        expected = {name: (count, []) for name, count in _PASSING_CHECKS.items()}
        expected["genfun"] = (genfun_checks, [])
        assert _summary(verify_pair(pair, max_n=5, order=6)) == (expected, notes)

    def test_broken_pair(self, legendre_pair, monkeypatch):
        bad = _hermite_on_legendre_moments(legendre_pair, monkeypatch)
        assert _summary(verify_pair(bad, max_n=2, order=4)) == ({
            "recursion": (20, []),
            "ode": (17, []),
            "functional": (19, [
                "pearson residual nonzero",
                "n=1 nu=1: self-adjoint residual nonzero",
                "n=1 nu=1 mu=0: functional Rodrigues residual nonzero",
                "n=2 nu=1: self-adjoint residual nonzero",
                "n=2 nu=1 mu=0: functional Rodrigues residual nonzero",
                "n=2 nu=2: self-adjoint residual nonzero",
                "n=2 nu=2 mu=0: functional Rodrigues residual nonzero",
                "n=2 nu=2 mu=1: functional Rodrigues residual nonzero",
            ]),
            "genfun": (13, []),
            "oracle": (39, ["cross validation: monic diagonal row 2 differs "
                            "from the moment-only polynomial"]),
        }, [_SKIPPED, _COINCIDE])

    def test_wrong_operator_breaks_rows_and_composition(self, hermite_pair, monkeypatch):
        # A wrong single step at base index 1 enters the chain at nu = n - 1
        # and every row built on it; the integer-kernel rows stay right.
        r1 = copoly.verify.rodrigues_r1
        monkeypatch.setattr(copoly.verify, "rodrigues_r1",
                            lambda pair, k, p: r1(pair, k, p) + (1 if k == 1 else 0))
        report = verify_pair(hermite_pair, suites=("recursion",), max_n=3, order=4)
        assert _summary(report) == ({"recursion": (33, [
            "n=2 nu=1: recursion row != iterated operator",
            "n=2 nu=2: recursion row != iterated operator",
            # the split at 1 starts from chain[1], the wrong row
            "n=2 nu=2: composition split at 1 differs",
            "n=3 nu=2: recursion row != iterated operator",
            "n=3 nu=3: recursion row != iterated operator",
        ])}, [])
        monkeypatch.undo()
        # The chain never calls rodrigues_rk; only the split at nu // 2 does,
        # with nu - nu // 2 == 2 steps first at n = 3, nu = 3.
        rk = copoly.verify.rodrigues_rk
        monkeypatch.setattr(copoly.verify, "rodrigues_rk",
                            lambda pair, k, m, p: rk(pair, k, m, p) + (1 if k == 2 else 0))
        report = verify_pair(hermite_pair, suites=("recursion",), max_n=3, order=4)
        assert _summary(report) == (
            {"recursion": (33, ["n=3 nu=3: composition split at 1 differs"])}, [])

    def test_a_wrong_memoized_row_fails_at_its_own_place(self):
        # The rows come from the integer stencil in _comp_rows, the chain from the
        # fused step rodrigues_r1: a memoized C_2(x; 3) off by x^2 is caught by the
        # chain and by the split that reads it, and nowhere else.
        pair = hermite_family()
        pair.rows(3, 3)
        pair._rows[3][2] += Poly.monomial(2)
        report = verify_pair(pair, suites=("recursion",), max_n=3, order=4)
        assert _summary(report) == ({"recursion": (33, [
            "n=3 nu=2: recursion row != iterated operator",
            "n=3 nu=2: composition split at 1 differs",
        ])}, [])

    @staticmethod
    def _ladder(n, nu):
        return (f"n={n} nu={nu}: derivative ladder: C_{n - nu}(x; {n}) != c (d/dx)^{nu} "
                f"C_{n}(x; {n}) with c = 1/prod_(j={n - nu + 1}..{n}) (-mu({n}, j))")

    @pytest.mark.parametrize("n, nu, shift, failing", [
        (3, 1, Poly.x(), [(3, 2)]),
        (5, 1, Poly.x(), [(5, 4)]),
        (4, 0, Poly.one(), [(4, 4)]),
        (3, 3, None, [(3, 1), (3, 2), (3, 3)]),
    ], ids=["C1-n3-plus-x", "C1-n5-plus-x", "C0-n4-plus-1", "C3-n3-doubled"])
    def test_the_ladder_pins_its_constant(self, n, nu, shift, failing):
        # A memoized row off along its own eigen-solution (a multiple of itself)
        # leaves the equation's residual zero; only the ladder's constant
        # c = 1/prod (-mu(n, j)) sees it, once per rung that reads the row.
        pair = hermite_family()
        pair.rows(n, n)
        row = pair._rows[n][nu]
        pair._rows[n][nu] = 2 * row if shift is None else row + shift
        report = verify_pair(pair, suites=("ode",), max_n=5, order=4)
        assert _summary(report) == (
            {"ode": (53, [self._ladder(m, k) for m, k in failing])}, [])

    @pytest.mark.parametrize("pair", [
        hermite_family(), laguerre_family(Fraction(1, 2)),
        jacobi_family(Fraction(1, 3), Fraction(4, 3)), bessel_family(Fraction(1, 3)),
        ClassicalPair(*FIVE_PRIME),
    ], ids=["hermite", "laguerre", "jacobi", "bessel", "five-prime"])
    def test_the_ladder_constant_holds_through_the_cap(self, pair):
        report = verify_pair(pair, suites=("ode",), max_n=24, order=4)
        assert _summary(report) == ({"ode": (699, [])}, [])

    def test_a_wrong_recurrence_coefficient_fails_its_degree_only(self, hermite_pair,
                                                                   monkeypatch):
        # a_1 off by 1: P_2 is rebuilt from a_1 alone, and P_3 from a_2 and b_2
        original = copoly.verify.three_term_coefficients
        monkeypatch.setattr(copoly.verify, "three_term_coefficients", lambda ops: [
            (a + (m == 1), b) for m, (a, b) in enumerate(original(ops))])
        report = verify_pair(hermite_pair, suites=("oracle",), max_n=3, order=4)
        assert _summary(report) == (
            {"oracle": (48, ["degree 1: three-term reconstruction fails"])}, [_COINCIDE])

    def test_vanishing_hankel_stops_the_ratio_checks(self, hermite_pair, monkeypatch):
        original = copoly.verify.hankel_minors
        monkeypatch.setattr(copoly.verify, "hankel_minors",
                            lambda u, n: original(u, n)[:2] + [Fraction(0)])
        report = verify_pair(hermite_pair, suites=("oracle",), max_n=4, order=4)
        assert _summary(report) == (
            {"oracle": (57, ["degree 2: Hankel determinant vanishes"])}, [_COINCIDE])

    @pytest.mark.parametrize("name, patched, suite, checks, failures", [
        # the upper triangle is stored once, so entry (0, 1) is also read as (1, 0)
        ("_gram_numerators",
         lambda orig: lambda u, polys: (lambda mden, dens, upper: (mden, dens, [
             [v + ((i, j) in ((0, 1), (2, 2))) for j, v in enumerate(row, i)]
             for i, row in enumerate(upper)]))(*orig(u, polys)),
         "oracle", 48,
         ["degrees (0,1): Gram entry nonzero", "degrees (1,0): Gram entry nonzero",
          "degree 2: Gram diagonal != squared norm"]),
        ("hankel_minors",
         lambda orig: lambda u, n: [2 * d if m == 1 else d for m, d in enumerate(orig(u, n))],
         "oracle", 48, ["degree 1: norm != Hankel ratio", "degree 2: norm != Hankel ratio"]),
        ("cross_validate",
         lambda orig: lambda pair, ops: 3,
         "oracle", 48,
         ["cross validation: monic diagonal row 3 differs from the moment-only polynomial"]),
        ("leading_coeff_probe",
         lambda orig: lambda pair, k, m: orig(pair, k, m) + ((k, m) == (1, 0)),
         "oracle", 48, ["k=1 m=0: step leading coefficient != psi' + (m+2k) phi''/2"]),
        ("derivative_proportionality",
         lambda orig: lambda pair, n, nu: None if (n, nu) == (2, 1) else orig(pair, n, nu),
         "ode", 27, ["n=2 nu=1: derivative ladder: C_1(x; 2) != c (d/dx)^1 C_2(x; 2) "
                     "with c = 1/prod_(j=2..2) (-mu(2, j))"]),
        ("ode_residual",
         lambda orig: lambda pair, n, nu: Poly.one() if (n, nu) == (2, 1) else orig(pair, n, nu),
         "ode", 27, ["n=2 nu=1: differential equation residual nonzero"]),
        ("pde_residual",
         lambda orig: lambda pair, n, order: {
             **orig(pair, n, order), **({"x_lower": Poly.one()} if n == 1 else {})},
         "genfun", 22, ["n=1: identity x_lower residual nonzero"]),
        ("weight_ratio_series",
         lambda orig: lambda pair, order: orig(pair, order) + SeriesYX(order, [0] * order + [1]),
         "genfun", 22, [f"n={n}: truncated series != closed form at order 4" for n in range(4)]),
    ], ids=["gram", "hankel-ratio", "cross-validate", "probe", "ladder", "ode", "pde",
            "closed-form"])
    def test_injected_failure(self, hermite_pair, monkeypatch,
                              name, patched, suite, checks, failures):
        monkeypatch.setattr(copoly.verify, name, patched(getattr(copoly.verify, name)))
        report = verify_pair(hermite_pair, suites=(suite,), max_n=3, order=4)
        notes = [_COINCIDE] if suite == "oracle" else []
        assert _summary(report) == ({suite: (checks, failures)}, notes)
