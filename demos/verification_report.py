#!/usr/bin/env python3
"""Run the full verification battery on catalog and hand-built weights."""

from fractions import Fraction

from copoly import (
    ClassicalPair,
    Poly,
    SUITE_NAMES,
    bessel_family,
    verify_pair,
)


def show(report):
    """Print a one-line verdict per suite plus any notes."""
    params = ", ".join(f"{k}={v}" for k, v in sorted(report.params.items()))
    print(f"{report.family}({params})  max_n={report.max_n}  order={report.series_order}")
    for s in report.suites:
        verdict = "ok" if s.passed else "FAILED"
        print(f"  {s.suite:<10} {verdict:<7} {s.checks:>4} checks  {s.seconds:.2f}s")
    for note in report.notes:
        print(f"  note: {note}")
    print()


# A catalog family runs all five suites: the row recursion against the
# one-step operator, the differential equations, the moment-functional
# identities, the generating-function comparisons, and the cross check
# against the orthogonal sequence built from the moments alone.
pair = bessel_family(1)
show(verify_pair(pair, max_n=6))

# Pairs built from raw (phi, psi) data work too, as long as the moments
# exist; the generating-function suite then skips the closed form, since
# there is no catalog weight to compare against.
phi = Poly([2, 1])
psi = Poly([1, -1])
custom = ClassicalPair(phi, psi, Fraction(1, 2))
show(verify_pair(custom, max_n=5))

# Restricting to a subset of suites is just a tuple argument away.
print("available suites:", SUITE_NAMES)
report = verify_pair(pair, suites=("recursion", "oracle"), max_n=4)
print("subset run:", [s.suite for s in report.suites],
      "passed =", report.passed)
