"""How fast the host runs exact arithmetic right now, to scale timings by.

On a shared host the same Python computation takes up to half as long again
in one minute as in the next, because the cores' speed depends on what the
host's other tenants do.  A run therefore times a fixed calibration pass
(a sum of ``Fraction`` terms, the kind of work ``copoly`` does, with no
``copoly`` code in it) every ``EVERY_S`` seconds between operations, and
scales its timings by ``REFERENCE_S / median(pass)``: a timing then reads
as it would at the speed at which one pass takes ``REFERENCE_S``.

The garbage collector is off during a pass, so a program that keeps more
objects alive does not make the pass slower and its own timings faster.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

TERMS = 400
REFERENCE_S = 1.5e-3   # one pass on a 2-core 2.1 GHz Xeon host in a quiet phase
EVERY_S = 0.1
WINDOW_S = 2.0


def _pass() -> Fraction:
    total = Fraction(0)
    for k in range(1, TERMS + 1):
        total += Fraction(k, k * k + 1)
    return total


_EXPECTED = _pass()


def calibrate() -> float:
    """Seconds one calibration pass takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        total = _pass()
        elapsed = perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if total != _EXPECTED:
        raise RuntimeError("calibration pass computed a wrong sum")
    return elapsed


class HostSpeed:
    """Calibration passes taken during a run, and the scales they give."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (taken at, seconds)
        self._last = float("-inf")

    def sample(self, passes: int = 1) -> None:
        for _ in range(passes):
            seconds = calibrate()
            self._last = perf_counter()
            self.samples.append((self._last, seconds))

    def maybe_sample(self) -> None:
        """Take a pass if ``EVERY_S`` has gone by since the last one."""
        if perf_counter() - self._last >= EVERY_S:
            self.sample()

    @property
    def pass_s(self) -> float:
        return statistics.median(s for _, s in self.samples)

    def scale_at(self, moment: float, window: float = WINDOW_S) -> float:
        """Factor that turns a wall time taken at ``moment`` into reference-speed time.

        It uses the passes within ``window`` seconds of ``moment``, or the
        three nearest if there are fewer, because the host's speed moves
        within seconds.
        """
        near = sorted(self.samples, key=lambda s: abs(s[0] - moment))
        inside = [s for t, s in near if abs(t - moment) <= window]
        return REFERENCE_S / statistics.median(inside if len(inside) >= 3
                                               else [s for _, s in near[:3]])
