"""Self-tests of the benchmark (not part of the copoly test suite).

Run from the repository root::

    python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import itertools  # noqa: E402
import json  # noqa: E402
from fractions import Fraction  # noqa: E402

import pytest  # noqa: E402

import run  # noqa: E402
from workloads import (  # noqa: E402
    KINDS, PARAMS, Pair, Request, Stream, WORKLOADS, admissible, all_pairs, quasi_definite,
)

run.prepare_imports()


@pytest.fixture(scope="module")
def runner():
    return run.Runner(run.load_digests())


def _cycle(runner, workload, seed):
    tally = run.Tally()
    outcomes = run.run_list(runner, Stream(workload, seed, smoke=True).cycle(), tally)
    return tally, run.cycle_digest(outcomes)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_cycle_reproduces_its_digests(runner, workload):
    for seed in (0, 1):
        tally, first = _cycle(runner, workload, seed)
        assert tally.failures == []
        assert _cycle(runner, workload, seed)[1] == first


def _bindings():
    import copoly.poly, copoly.series, copoly.functional  # noqa: E401
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "copoly" or name.startswith("copoly."):
            found.update({(name, k): v for k, v in vars(module).items()})
    for cls in (copoly.poly.Poly, copoly.series.SeriesYX, copoly.functional.MomentFunctional):
        found.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return found


def test_tracer_restores_everything_and_changes_no_output(runner):
    from tracer import Tracer
    before = _bindings()
    plain = _cycle(runner, "verify-grid", 3)
    tracer = Tracer()
    with tracer:
        assert _bindings() != before
        traced = _cycle(runner, "verify-grid", 3)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert plain[1] == traced[1] and traced[0].failures == []
    m = tracer.metrics
    assert m["cli.requests"] == 15 and m["verify.checks"] > 0 and m["poly.mul_calls"] > 0
    assert m["poly.self_s"] > 0 and m["rodrigues.rows_built"] > 0


def test_tracer_puts_back_what_it_wrapped_when_install_fails(monkeypatch):
    import tracer
    before = _bindings()
    monkeypatch.setitem(tracer.LAYERS, "zzz", ("copoly.cli", ["no_such_function"]))
    with pytest.raises(AttributeError):
        tracer.Tracer().install()
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


# parameters off the benchmark's grid too, so the criteria meet vanishing cases
_CRITERIA_VALUES = ("-3", "-2", "-1", "-1/2", "0") + PARAMS


@pytest.mark.parametrize("kind", KINDS)
def test_closed_form_criteria_agree_with_hankel_determinants(kind):
    from copoly.errors import AdmissibilityViolation, InvalidParameter
    from copoly.functional import hankel_determinant, moments_from_pearson
    from copoly.parsing import parse_poly_expr
    from copoly.cli import _catalog_spec
    depth = 6
    arity = {"hermite": 0, "laguerre": 1, "bessel": 1, "jacobi": 2, "custom": 3}[kind]
    combos = list(itertools.product(_CRITERIA_VALUES, repeat=arity))
    for pair in (Pair(kind, combo) for combo in combos):
        argv = pair.argv()
        opts = dict(zip(argv[::2], argv[1:][::2]))
        if kind == "custom":
            phi, psi = parse_poly_expr(opts["--phi"]), parse_poly_expr(opts["--psi"])
            u0 = Fraction(opts["--u0"])
        else:
            values = pair.values() + (None, None)
            spec = _catalog_spec(kind, values[0], values[1])
            phi, psi, u0 = spec.phi, spec.psi, spec.u0
        try:
            u = moments_from_pearson(phi, psi, u0, 2 * depth + 2)
        except (AdmissibilityViolation, InvalidParameter):   # psi' = 0 is the case k = 0
            assert not admissible(pair, 2 * depth + 2), pair
            continue
        assert admissible(pair, 2 * depth + 2), pair
        nonvanishing = all(hankel_determinant(u, m) != 0 for m in range(depth + 1))
        assert quasi_definite(pair, depth) == nonvanishing, pair


def test_generator_filters_out_pairs_that_are_not_quasi_definite():
    assert Pair("custom", ("1/3", "4/3", "0")) not in all_pairs("custom", 8, True)
    assert Pair("custom", ("1/3", "4/3", "0")) in all_pairs("custom", 8, False)
    assert len(all_pairs("custom", 8, False)) == 2 * len(PARAMS) ** 2
    streams = [Stream("verify-grid", seed).cycle() for seed in range(20)]
    drawn = {r.pair for cycle in streams for r in cycle if r.pair.kind == "custom"}
    assert all(quasi_definite(p, 12) for p in drawn)


def test_a_wrong_row_fails_the_reference_check(runner):
    pair = Pair("laguerre", ("2/3",))
    req = Request(("compute", "--n", "5", "--format", "json", *pair.argv()), pair=pair, n=5)
    _, code, out, _ = runner.call(req.argv)
    assert code == 0 and runner.refs.check(req, out) is None
    doc = json.loads(out)
    doc["rows"][5][0] = str(Fraction(doc["rows"][5][0]) + 1)
    assert runner.refs.check(req, json.dumps(doc)) is not None


def test_a_changed_output_fails_the_digest_gate(runner, monkeypatch):
    pair = Pair("hermite")
    req = Request(("compute", "--n", "5", "--format", "text", *pair.argv()), pair=pair, n=5)
    assert runner.run(req).error is None
    real = runner.call

    def call(argv):
        seconds, code, out, err = real(argv)
        return seconds, code, out.replace("family: ", "family:  "), err
    monkeypatch.setattr(runner, "call", call)
    assert "digest" in runner.run(req).error


def test_rejections_count_as_successes(runner):
    stream = Stream("cli-small", 5)
    rejects = [r for _ in range(5) for r in stream.cycle() if r.expect_exit == 2]
    assert rejects
    assert all(runner.run(r).error is None for r in rejects)


def test_tail_percentile_leaves_ten_operations_beyond_it_in_the_shortest_run():
    from workloads import min_operations
    for workload in WORKLOADS:
        pct = run.tail_percentile(workload)
        assert min_operations(workload) * (100 - pct) / 100 >= 10
        assert min_operations(workload) * (99 - pct) / 100 < 10 or pct == 99


def test_quantile_is_a_smooth_estimate_between_the_order_statistics():
    values = [float(i) for i in range(1, 102)]
    assert run.quantile(values, 0.5) == pytest.approx(51.0)
    assert 89.0 < run.quantile(values, 0.9) < 93.0
    # two clusters: the estimate moves little when one operation crosses the gap
    low, high = [1.0] * 50 + [2.0] * 51, [1.0] * 51 + [2.0] * 50
    assert 1.0 < run.quantile(high, 0.5) < run.quantile(low, 0.5) < 2.0


def test_decks_deal_every_pair_before_repeating_one():
    stream = Stream("verify-grid", 7)
    drawn = [r.pair for _ in range(9) for r in stream.cycle()
             if r.pair.kind == "jacobi" and r.n == 4]
    pool = all_pairs("jacobi", 2 * 4 + 6, True)
    assert len(pool) == 9 and sorted(map(str, drawn)) == sorted(map(str, pool))


def test_host_speed_scales_by_the_passes_near_each_moment():
    from hostspeed import REFERENCE_S, HostSpeed, calibrate
    assert calibrate() > 0
    speed = HostSpeed()
    speed.samples = [(0.0, 1e-3), (0.1, 1e-3), (0.2, 1e-3), (10.0, 3e-3), (10.1, 3e-3)]
    assert speed.scale_at(0.1) == pytest.approx(REFERENCE_S / 1e-3)
    assert speed.scale_at(10.1) == pytest.approx(REFERENCE_S / 3e-3)   # three nearest
    assert speed.pass_s == 1e-3
