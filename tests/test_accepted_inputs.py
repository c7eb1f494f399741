"""Every request the command line accepts is answered, and no accepted pair fails verify.

The paper's identities are theorems for every admissible pair, so on a pair
the CLI accepts ``verify`` must exit 0: an exit 1 there is a false
counterexample, and an exit 3 an internal fault; so is a nonzero ``difference``
in an exit-0 ``genfun`` answer, custom pairs included.  The requests are drawn
from a seeded source at small sizes, and they lean on the degenerate
shapes: ``phi`` of degree 0, 1 and 2 (a double root included), ``u0 = 0``,
``psi'`` chosen so that ``psi' + k phi''/2`` vanishes just past the range of
``k`` the command checks (the rows' range, the same for all three commands: a
``verify`` suite that reads past it into an undefined moment is skipped with a
note), and the catalog pairs jacobi with
``alpha + beta = -12`` and bessel with ``alpha = -12``.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from copoly.cli import main

SEED = 21
SHAPES = {"phi-degree-0", "phi-degree-1", "phi-double-root", "phi-degree-2", "u0-zero",
          "vanishes-past-range", "jacobi-sum-minus-12", "bessel-minus-12"}


def _text(coeffs: list[Fraction]) -> str:
    return " + ".join(f"({c})*x^{i}" for i, c in enumerate(coeffs))


def _nonzero(rng: random.Random, span: int = 4) -> Fraction:
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, span), rng.randint(1, 3))


def _custom(rng: random.Random, first_unchecked: int) -> tuple[tuple[str, ...], set[str]]:
    """``--phi``/``--psi``/``--u0`` flags and the shapes they exercise; ``first_unchecked``
    is the first ``k`` whose admissibility the command does not check."""
    shape = rng.choice(["phi-degree-0", "phi-degree-1", "phi-double-root", "phi-degree-2"])
    if shape == "phi-degree-0":
        phi = [_nonzero(rng)]
    elif shape == "phi-degree-1":
        phi = [Fraction(rng.randint(-3, 3)), _nonzero(rng)]
    elif shape == "phi-double-root":
        a, r = _nonzero(rng, 3), Fraction(rng.randint(-3, 3))
        phi = [a * r * r, -2 * a * r, a]
    else:
        phi = [Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)), _nonzero(rng, 3)]
    tags = {shape}
    if len(phi) == 3 and rng.random() < 0.5:
        # psi' + k phi''/2 = phi[2] (k - k0) vanishes at k0, just past the checked range
        dpsi = -(first_unchecked + rng.randint(0, 2)) * phi[2]
        tags.add("vanishes-past-range")
    else:
        dpsi = _nonzero(rng)
    u0 = Fraction(0) if rng.random() < 0.25 else _nonzero(rng)
    if u0 == 0:
        tags.add("u0-zero")
    flags = (f"--phi={_text(phi)}", f"--psi={_text([Fraction(rng.randint(-3, 3)), dpsi])}",
             f"--u0={u0}")
    return flags, tags


def _catalog(rng: random.Random) -> tuple[tuple[str, ...], set[str]]:
    """``--family`` flags of a catalog pair, often one of the two degenerate shapes."""
    kind = rng.choice(["jacobi-sum-minus-12", "bessel-minus-12", "jacobi", "bessel", "laguerre"])
    if kind == "jacobi-sum-minus-12":
        alpha = Fraction(rng.randint(-12, 0), rng.randint(1, 2))
        return ("--family", "jacobi", f"--alpha={alpha}", f"--beta={-12 - alpha}"), {kind}
    if kind == "bessel-minus-12":
        return ("--family", "bessel", "--alpha=-12"), {kind}
    return (("--family", kind, f"--alpha={_nonzero(rng, 6)}")
            + ((f"--beta={_nonzero(rng, 6)}",) if kind == "jacobi" else ())), set()


def _requests(rng: random.Random):
    """``(argv, shapes)`` of 150 verify, 75 compute and 75 genfun requests."""
    for _ in range(150):
        max_n = rng.randint(0, 3)
        family, tags = (_custom(rng, max(max_n + 2, 2 * max_n - 1)) if rng.random() < 0.6
                        else _catalog(rng))
        yield ("verify", "--max-n", str(max_n), "--order", str(rng.randint(2, 5)), *family), tags
    for _ in range(75):
        n = rng.randint(0, 5)
        family, tags = (_custom(rng, max(n + 2, 2 * n - 1)) if rng.random() < 0.6
                        else _catalog(rng))
        yield ("compute", "--n", str(n), "--format", rng.choice(["text", "json", "latex"]),
               *family), tags
    for _ in range(75):
        n = rng.randint(0, 6)
        family, tags = (_custom(rng, max(n + 2, 2 * n - 1)) if rng.random() < 0.6
                        else _catalog(rng))
        yield ("genfun", "--n", str(n), "--order", str(rng.randint(0, 5)),
               "--format", rng.choice(["json", "latex"]), *family), tags


def test_accepted_requests_never_fail_or_crash(capsys):
    faults, answered = [], set()
    for argv, tags in _requests(random.Random(SEED)):
        code = main(list(argv))
        out, err = capsys.readouterr()
        if code == 0:
            answered |= tags
            if argv[0] == "genfun" and "json" in argv:
                # the closed form of an accepted pair equals its series: a nonzero
                # difference is a false counterexample
                difference = json.loads(out)["difference"]
                if any(difference):
                    faults.append((argv, code, f"difference {difference}"))
        elif code != 2 or out or not err.startswith("error:"):
            faults.append((argv, code, (err or out).strip()[-200:]))
    assert faults == []
    # every shape reached an exit-0 answer at least once, so none was only rejected
    assert answered == SHAPES
