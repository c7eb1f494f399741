"""copoly benchmark: one seeded workload through ``copoly.cli.main``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload verify-grid --seed 1 --seconds 20 --trace 0

Load comes from one caller in a closed loop: the next request is sent only
when the previous one has returned.  Each operation is an in-process call to
``copoly.cli.main(argv)`` with stdout and stderr captured, so it pays for
argument handling, pair set-up, the computation and rendering, but not for
interpreter start (``setup_s`` measures that separately).

Every output is checked against independent references (``reference.py``)
and against the SHA-256 stored in ``digests.json`` for its request; a wrong
exit code, a failed reference check or a different digest or ``checks``
total fails the operation.

``--trace 0`` prints the end-to-end metrics.  Their times are scaled to a
reference host speed measured by calibration passes taken between the
operations (``hostspeed.py``), because the speed of a shared host drifts by
a third within minutes; the unscaled wall-clock values are printed on a
``# wall clock`` line.  Medians and the tail are Harrell-Davis estimates.
``--trace 1`` runs the seed's first cycle untraced and then traced, prints
the per-layer metrics, the tracing overhead and the layer size sweep.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from hostspeed import REFERENCE_S, HostSpeed
from reference import References, digest
from tracer import Tracer
from workloads import MIN_CYCLES, ORDER_CAP, WORKLOADS, Request, Stream, min_operations

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DIGESTS = HERE / "digests.json"
SETUP_PROBES = 9

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_s", "s"),
              ("op_tail_s", "s"), ("peak_rss_mb", "MiB"))
PER_LAYER = (
    ("poly.init_calls", "count"), ("poly.mul_calls", "count"), ("poly.self_s", "s"),
    ("poly.max_coeff_bits", "bits"),
    ("rodrigues.rows_built", "count"), ("rodrigues.complementary_calls", "count"),
    ("rodrigues.self_s", "s"),
    ("genfun.truncated_builds", "count"), ("genfun.closed_form_s", "s"), ("genfun.pde_s", "s"),
    ("genfun.self_s", "s"),
    ("series.cauchy_products", "count"), ("series.exp_pow_s", "s"), ("series.self_s", "s"),
    ("functional.moment_calls", "count"), ("functional.hankel_s", "s"),
    ("functional.self_s", "s"),
    ("oracle.gram_schmidt_s", "s"), ("oracle.cross_validate_s", "s"), ("oracle.self_s", "s"),
    ("verify.checks", "count"), ("verify.recursion_s", "s"), ("verify.ode_s", "s"),
    ("verify.functional_s", "s"), ("verify.genfun_s", "s"), ("verify.oracle_s", "s"),
    ("parsing.calls", "count"), ("parsing.self_s", "s"),
    ("render.bytes_out", "bytes"), ("render.self_s", "s"),
    ("cli.requests", "count"), ("cli.self_s", "s"),
    ("trace.overhead", "ratio"),
)

# one small request per command, run before timing so lazy imports are done
_WARM_UP = (("families", "--format", "json"),
            ("compute", "--family", "hermite", "--n", "2", "--format", "latex"),
            ("genfun", "--family", "hermite", "--n", "1", "--order", "2", "--format", "latex"),
            ("verify", "--family", "hermite", "--max-n", "1", "--order", "2"))


@dataclass
class Outcome:
    seconds: float
    error: str | None
    digest: str
    checks: int | None
    bytes_out: int
    started: float = 0.0


class Runner:
    """Sends requests to ``copoly.cli.main`` and checks each answer."""

    def __init__(self, digests: dict[str, list] | None):
        import copoly.cli
        self.cli = copoly.cli
        self.refs = References()
        self.digests = digests   # None while digests.json is being written

    def call(self, argv) -> tuple[float, int | None, str, str]:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(argv))
        except SystemExit as exc:   # argparse rejects by exiting
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:    # any crash is a failed operation, not a stopped run
            code = None
            err.write(f"{type(exc).__name__}: {exc}")
        return time.perf_counter() - start, code, out.getvalue(), err.getvalue()

    def run(self, req: Request) -> Outcome:
        seconds, code, out, err = self.call(req.argv)
        error, sha, checks = None, "rejected", None
        if code != req.expect_exit:
            error = f"exit code {code}, expected {req.expect_exit}: {err.strip()[:200]}"
        elif req.expect_exit:
            if out or not err.startswith("error:"):
                error = "rejection must print only an error message"
        else:
            try:
                error = self.refs.check(req, out)
                sha, checks = digest(req, out)
            except (ValueError, KeyError, IndexError) as exc:
                error = f"unreadable output: {type(exc).__name__}: {exc}"
            if error is None and self.digests is not None:
                stored = self.digests.get(req.key)
                if stored is None:
                    error = "no stored digest for this request"
                elif stored != [sha, checks]:
                    error = (f"output digest/checks {sha[:12]}/{checks} != "
                             f"stored {stored[0][:12]}/{stored[1]}")
        return Outcome(seconds, error, sha, checks, len(out))


def load_digests() -> dict[str, list]:
    with open(DIGESTS, encoding="utf-8") as handle:
        return json.load(handle)


def cycle_digest(outcomes: list[Outcome]) -> str:
    return hashlib.sha256("\n".join(o.digest for o in outcomes).encode()).hexdigest()


class Tally:
    def __init__(self):
        self.outcomes: list[Outcome] = []
        self.failures: list[str] = []

    def add(self, req: Request, outcome: Outcome) -> None:
        self.outcomes.append(outcome)
        if outcome.error is not None:
            self.failures.append(f"{req.key}: {outcome.error}")

    @property
    def failed(self) -> int:
        return len(self.failures)


def run_list(runner: Runner, requests: list[Request], tally: Tally,
             between=lambda: None) -> list[Outcome]:
    outcomes = []
    for req in requests:
        started = time.perf_counter()
        outcome = runner.run(req)
        outcome.started = started
        tally.add(req, outcome)
        outcomes.append(outcome)
        between()
    return outcomes


def timed_run(runner: Runner, stream: Stream, seconds: float, tally: Tally,
              speed: HostSpeed) -> str:
    """Closed loop over whole cycles: at least ``MIN_CYCLES`` and ``seconds``.

    Stopping only between cycles keeps the mix of cheap and dear requests
    the same in every run.  Between operations the host's speed is sampled.
    """
    deadline = time.perf_counter() + seconds
    speed.sample()
    first = run_list(runner, stream.cycle(), tally, speed.maybe_sample)
    for _ in range(MIN_CYCLES[stream.workload] - 1):
        run_list(runner, stream.cycle(), tally, speed.maybe_sample)
    while time.perf_counter() < deadline:
        run_list(runner, stream.cycle(), tally, speed.maybe_sample)
    return cycle_digest(first)


def tail_percentile(workload: str) -> int:
    """Highest whole percentile with ten operations beyond it in the shortest run.

    It is fixed per workload, so a faster commit, which fits more cycles into
    a run, reports the same percentile.
    """
    n = min_operations(workload)
    return max(50, 100 * (n - 10) // n)


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile.

    It is the mean of all order statistics weighted by the Beta(q(n+1),
    (1-q)(n+1)) density over each one's share of [0, 1], so it does not jump
    when noise swaps the two operations next to the quantile, as a single
    order statistic of a mix of cheap and dear requests does.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 16   # midpoint-rule steps per order statistic
    total = weights = 0.0
    for i, x in enumerate(xs):
        w = sum(math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_beta)
                for t in ((i + (j + 0.5) / steps) / n for j in range(steps)))
        total += w * x
        weights += w
    return total / weights


def measure_setup(workload: str, seed: int, speed: HostSpeed) -> tuple[float, float]:
    """Median time of fresh interpreters that import copoly and build the inputs.

    Returns it as measured and scaled to the reference host speed; each
    interpreter's time is scaled by the passes taken just before it.
    """
    wall, at_reference = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        speed.sample(passes=3)
        start = time.perf_counter()
        # no timeout: with one, the wait polls in sleeps of up to 50 ms
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        wall.append(time.perf_counter() - start)
        at_reference.append(wall[-1] * speed.scale_at(start, window=0.0))
    return statistics.median(wall), statistics.median(at_reference)


def scaled(outcomes: list[Outcome], speed: HostSpeed) -> list[float]:
    """Operation times scaled to the reference host speed at their midpoints."""
    return [o.seconds * speed.scale_at(o.started + o.seconds / 2) for o in outcomes]


def end_to_end(runner: Runner, args, tally: Tally) -> dict[str, float]:
    """End-to-end metrics, with every time scaled to the reference host speed."""
    setup_speed, run_speed = HostSpeed(), HostSpeed()
    setup_wall, setup = measure_setup(args.workload, args.seed, setup_speed)
    stream = Stream(args.workload, args.seed)
    run_digest = timed_run(runner, stream, args.seconds, tally, run_speed)
    wall = [o.seconds for o in tally.outcomes]
    pct = tail_percentile(args.workload)

    def timings(latencies: list[float]) -> dict[str, float]:
        return {"ops_per_s": len(latencies) / sum(latencies),
                "op_p50_s": quantile(latencies, 0.5),
                "op_tail_s": quantile(latencies, pct / 100)}

    print(f"# cycle digest {run_digest}")
    print(f"# operations {len(wall)} in {sum(wall):.1f} s; tail is p{pct}")
    print(f"# error_rate {tally.failed / len(wall):.6f} ratio")
    print(f"# calibration pass median {1e3 * setup_speed.pass_s:.3f} ms at set-up, "
          f"{1e3 * run_speed.pass_s:.3f} ms over {len(run_speed.samples)} passes in the run "
          f"(reference {1e3 * REFERENCE_S:.3f} ms)")
    print(f"# wall clock setup_s={setup_wall:.6g} "
          + " ".join(f"{k}={v:.6g}" for k, v in timings(wall).items()))
    return {
        "setup_s": setup,
        **timings(scaled(tally.outcomes, run_speed)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(runner: Runner, args, tally: Tally) -> dict[str, float]:
    from sweep import run_sweep   # imports copoly, so only after prepare_imports
    requests = Stream(args.workload, args.seed).cycle()
    speed = HostSpeed()
    speed.sample()
    plain = run_list(runner, requests, tally, speed.maybe_sample)
    tracer = Tracer()
    with tracer:
        traced = run_list(runner, requests, tally, speed.maybe_sample)
    # both passes are held to the stored digests, so they agree when both pass
    print(f"# cycle digest {cycle_digest(traced)}")
    metrics = {name: tracer.metrics.get(name, 0.0) for name, _ in PER_LAYER}
    metrics["render.bytes_out"] = sum(o.bytes_out for o in traced)
    metrics["trace.overhead"] = (sum(scaled(traced, speed)) / sum(scaled(plain, speed)) - 1)
    metrics.update(run_sweep())
    return metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def prepare_imports() -> None:
    if not (SRC / "copoly" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / 'copoly'} not found; run from a copoly checkout")
    sys.path.insert(0, str(SRC))
    # the cli-small rejections and the order 16 requests assume this cap
    os.environ["COPOLY_MAX_ORDER"] = str(ORDER_CAP)


def main(argv=None) -> int:
    args = parse_args(argv)
    prepare_imports()
    if args.setup_probe:
        import copoly.cli  # noqa: F401  (the import is what is being timed)
        Stream(args.workload, args.seed).cycle()
        return 0
    runner = Runner(load_digests())
    for warm in _WARM_UP:
        runner.call(warm)
    tally = Tally()
    if args.trace:
        metrics, units = per_layer(runner, args, tally), dict(PER_LAYER)
        from sweep import metric_names
        units.update(metric_names())
    else:
        metrics, units = end_to_end(runner, args, tally), dict(END_TO_END)
    for line in tally.failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} {value:.9g} {units[name]}")
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": len(tally.outcomes),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
