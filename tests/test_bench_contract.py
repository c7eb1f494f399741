"""The names the benchmark harness in ``perfbench/`` takes from ``copoly``.

The tracer looks up every function of its layer map by name and the sweep
imports its inputs directly, so renaming or deleting one of them breaks the
benchmark.  These tests only read ``perfbench/``.
"""

from __future__ import annotations

import importlib
from fractions import Fraction
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_module(name: str, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module(name)


def test_tracer_finds_every_traced_name(monkeypatch):
    import copoly.cli  # noqa: F401  (the tracer wraps the modules the CLI loads)
    tracer = _perfbench_module("tracer", monkeypatch).Tracer()
    tracer.install()
    tracer.uninstall()


def test_sweep_imports_resolve(monkeypatch):
    sweep = _perfbench_module("sweep", monkeypatch)
    assert sweep._spec().u0 == 1


def test_catalog_spec_keeps_its_shape():
    from copoly.cli import _catalog_spec
    from copoly.rodrigues import jacobi_family
    spec = _catalog_spec("jacobi", Fraction(1, 3), None)
    expected = jacobi_family(Fraction(1, 3), 0)
    assert (spec.phi, spec.psi, spec.u0) == (expected.phi, expected.psi, 1)


def test_catalog_spec_stays_unchecked():
    """``perfbench/test_bench.py`` calls ``cli._catalog_spec`` outside its ``try`` on
    pairs whose ``psi`` has degree 0 or is zero, and the sweep reads ``.u0`` from
    what ``jacobi_family`` returns."""
    from copoly.cli import _catalog_spec
    from copoly.rodrigues import jacobi_family
    bessel = _catalog_spec("bessel", Fraction(-2), None)
    jacobi = _catalog_spec("jacobi", Fraction(-1), Fraction(-1))
    assert (bessel.psi.degree, jacobi.psi.is_zero) == (0, True)
    assert jacobi_family(Fraction(2, 3), Fraction(5, 3)).u0 == 1


def test_tracer_sees_the_poly_kernel(monkeypatch, capsys):
    """Products computed outside the wrapped ``Poly`` methods would vanish from the trace."""
    from copoly.cli import main
    tracer = _perfbench_module("tracer", monkeypatch).Tracer()
    tracer.install()
    try:
        code = main(["verify", "--family", "hermite", "--max-n", "2", "--order", "4"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    assert tracer.metrics["poly.mul_calls"] > 0
    assert tracer.metrics["poly.self_s"] > 0
    assert tracer.metrics["genfun.pde_s"] > 0
    # one series per n, for the closed-form check: pde_residual reads the rows, not G(n)
    assert tracer.metrics["genfun.truncated_builds"] == 3
    # each pair builds every row once: n <= 2, rows 0..4 for the series
    assert tracer.metrics["rodrigues.rows_built"] <= 21


def test_sweep_cases_run(monkeypatch):
    """Every swept kernel runs once at its smallest size and yields a nonzero result."""
    sweep = _perfbench_module("sweep", monkeypatch)
    for function, (_, sizes) in sweep.SIZES.items():
        call, bits = sweep._case(function, min(sizes))
        assert bits(call()) > 0, function
