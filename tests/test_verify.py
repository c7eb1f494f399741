"""Invariant suite runner: pass reports, notes, and failure detection."""

from __future__ import annotations

from fractions import Fraction

import pytest

import copoly.verify
from copoly import (
    ClassicalPair,
    MomentFunctional,
    Poly,
    SUITE_NAMES,
    custom_family,
    pair_from_family,
    verify_pair,
)


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

    def test_negative_max_n_rejected(self, hermite_pair):
        with pytest.raises(ValueError):
            verify_pair(hermite_pair, max_n=-1)

    def test_report_carries_family_metadata(self, jacobi_pair):
        report = verify_pair(jacobi_pair, suites=("recursion",), max_n=3)
        assert report.family == "jacobi"
        assert report.params == {"alpha": Fraction(1, 3), "beta": Fraction(2)}
        assert report.max_n == 3


class TestNotes:
    def test_probe_note_reports_coincidence_without_phi2(self, hermite_pair):
        report = verify_pair(hermite_pair, suites=("oracle",), max_n=3)
        assert any("coincide" in note for note in report.notes)

    def test_probe_note_reports_divergence_with_phi2(self, jacobi_pair):
        report = verify_pair(jacobi_pair, suites=("oracle",), max_n=3)
        assert any("differs" in note for note in report.notes)

    def test_custom_pair_skips_closed_form(self):
        pair = pair_from_family(
            custom_family(Poly([2, 1]), Poly([1, -1])), max_order=40
        )
        report = verify_pair(pair, suites=("genfun",), max_n=3, order=6)
        assert report.passed
        assert any("skipped" in note for note in report.notes)


class TestFailureDetection:
    def test_mismatched_functional_is_caught(self, legendre_pair):
        # Hermite (phi, psi) glued to Legendre moments: algebra runs fine
        # but the Pearson consistency checks must fail.
        bad = ClassicalPair(Poly.one(), Poly([0, -2]), legendre_pair.u, name="broken")
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

    def test_custom_suite_runs_on_consistent_custom_pair(self):
        pair = pair_from_family(
            custom_family(Poly([2, 1]), Poly([1, -1]), u0=Fraction(1, 2)),
            max_order=40,
        )
        report = verify_pair(pair, max_n=3, order=6)
        assert report.passed
