"""Seeded request streams for the four benchmark workloads.

Every request is one ``copoly`` command line.  Pair parameters are drawn
from ``PARAMS``, a fixed set of small nonnegative rationals with one-digit
numerators and denominators, so the set of requests any seed can produce is
finite and ``digests.json`` can hold the expected output of each one.

Draws are filtered by closed-form admissibility and quasi-definiteness
criteria written out below; nothing here calls ``copoly``, so no seed can
produce a request that fails because of its input.  A request that must be
rejected is built on purpose and expects exit code 2.
"""

from __future__ import annotations

import itertools
import random
import shlex
from dataclasses import dataclass
from fractions import Fraction

# All are 1/3 mod 1, so every sum of two has denominator 3 too and no draw
# makes the coefficients much smaller than another.
PARAMS = ("1/3", "4/3", "7/3")
U0 = ("0", "2/3")  # seed moments of the custom pair; u0 = 0 is never quasi-definite
KINDS = ("hermite", "laguerre", "jacobi", "bessel", "custom")
CATALOG_KINDS = KINDS[:4]
ORDER_CAP = 16  # COPOLY_MAX_ORDER is pinned to this in the benchmark process


@dataclass(frozen=True)
class Pair:
    """A drawn pair: ``kind`` plus its parameters as ``p/q`` text.

    ``custom`` is ``phi = x + a``, ``psi = b - x`` with seed moment ``u0``;
    ``laguerre-expr`` is laguerre(alpha) spelled as ``--phi/--psi`` text with
    ``--alpha`` substituted by the expression parser.
    """

    kind: str
    params: tuple[str, ...] = ()

    def argv(self) -> list[str]:
        p = self.params
        if self.kind == "hermite":
            return ["--family", "hermite"]
        if self.kind in ("laguerre", "bessel"):
            return ["--family", self.kind, "--alpha", p[0]]
        if self.kind == "jacobi":
            return ["--family", "jacobi", "--alpha", p[0], "--beta", p[1]]
        if self.kind == "custom":
            return ["--phi", f"x + {p[0]}", "--psi", f"{p[1]} - x", "--u0", p[2]]
        if self.kind == "laguerre-expr":
            return ["--phi", "x", "--psi", "(alpha + 1) - x", "--alpha", p[0]]
        raise ValueError(f"unknown pair kind {self.kind!r}")

    def values(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v) for v in self.params)


_ARITY = {"hermite": 0, "laguerre": 1, "bessel": 1, "jacobi": 2, "custom": 2,
          "laguerre-expr": 1}


def admissible(pair: Pair, depth: int) -> bool:
    """``psi' + k phi''/2 != 0`` for ``k < depth``, from the closed-form shapes."""
    v = pair.values()
    if pair.kind == "jacobi":      # psi' + k phi''/2 = -(alpha + beta + 2 + k)
        return all(v[0] + v[1] + 2 + k != 0 for k in range(depth))
    if pair.kind == "bessel":      # alpha + 2 + k
        return all(v[0] + 2 + k != 0 for k in range(depth))
    return True                    # hermite -2, laguerre and custom -1


def quasi_definite(pair: Pair, depth: int) -> bool:
    """Every monic three-term coefficient ``b_1 .. b_depth`` is finite and nonzero.

    hermite   b_k = k/2
    laguerre  b_k = k (k + alpha)                        (custom: alpha = a + b - 1)
    jacobi    b_k = 4k(k+a)(k+b)(k+s) / ((2k+s)^2 (2k+s+1)(2k+s-1)),   s = a + b
    bessel    b_k = -4k(k+alpha) / ((2k+alpha+1)(2k+alpha)^2 (2k+alpha-1))

    At ``k = 1`` the factors ``k+s`` and ``2k+s-1`` (jacobi) and ``k+alpha``
    and ``2k+alpha-1`` (bessel) are equal and cancel.  The seed moment must be
    nonzero too; the catalog families fix it to 1.
    """
    v = pair.values()
    ks = range(2, depth + 1)
    if pair.kind == "hermite":
        return True
    if pair.kind in ("laguerre", "laguerre-expr"):
        return all(k + v[0] != 0 for k in range(1, depth + 1))
    if pair.kind == "custom":
        a, b, u0 = v
        return u0 != 0 and all(k + a + b - 1 != 0 for k in range(1, depth + 1))
    if depth < 1:
        return True
    if pair.kind == "jacobi":
        a, b = v
        s = a + b
        return (1 + a) * (1 + b) * (2 + s) * (3 + s) != 0 and all(
            (k + a) * (k + b) * (k + s) * (2 * k + s) * (2 * k + s + 1) * (2 * k + s - 1) != 0
            for k in ks)
    if pair.kind == "bessel":
        a = v[0]
        return (a + 3) * (a + 2) != 0 and all(
            (k + a) * (2 * k + a + 1) * (2 * k + a) * (2 * k + a - 1) != 0 for k in ks)
    raise ValueError(f"unknown pair kind {pair.kind!r}")


def all_pairs(kind: str, depth: int, needs_quasi_definite: bool) -> list[Pair]:
    """Every pair of ``kind`` over ``PARAMS`` that passes the criteria at ``depth``."""
    combos = itertools.product(PARAMS, repeat=_ARITY[kind])
    if kind == "custom":
        combos = [c + (u0,) for c in combos for u0 in U0]
    pairs = [Pair(kind, combo) for combo in combos]
    return [p for p in pairs if admissible(p, depth)
            and (not needs_quasi_definite or quasi_definite(p, depth))]


@dataclass(frozen=True)
class Request:
    """One command line, what it must return, and what to check in its output."""

    argv: tuple[str, ...]
    expect_exit: int = 0
    pair: Pair | None = None
    n: int | None = None       # table size or generating-series n, for the references

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def fmt(self) -> str:
        argv = self.argv
        return argv[argv.index("--format") + 1] if "--format" in argv else {
            "compute": "text", "verify": "text", "genfun": "json", "families": "text"}[argv[0]]

    @property
    def key(self) -> str:
        return shlex.join(self.argv)


# A shape turns a pair into a request; workloads are cycles of shapes.

def _verify(max_n: int, order: int, suite: str = "all", fmt: str = "json"):
    def make(pair: Pair) -> Request:
        argv = ["verify", "--format", fmt, "--max-n", str(max_n), "--order", str(order)]
        if suite != "all":
            argv += ["--suite", suite]
        return Request(tuple(argv + pair.argv()), pair=pair, n=max_n)
    return make


def _compute(n: int, fmt: str):
    def make(pair: Pair) -> Request:
        return Request(("compute", "--n", str(n), "--format", fmt, *pair.argv()),
                       pair=pair, n=n)
    return make


def _genfun(n: int, order: int, fmt: str = "json"):
    def make(pair: Pair) -> Request:
        return Request(("genfun", "--n", str(n), "--order", str(order), "--format", fmt,
                        *pair.argv()), pair=pair, n=n)
    return make


@dataclass(frozen=True)
class Shape:
    kind: str
    make: object          # Pair -> Request
    depth: int            # admissibility / quasi-definiteness depth
    needs_quasi_definite: bool

    def pairs(self) -> list[Pair]:
        return all_pairs(self.kind, self.depth, self.needs_quasi_definite)


# A cycle is a list of slots; each slot holds interchangeable alternatives
# (a Shape, drawn with a fresh pair, or a fixed Request).  Every cycle of a
# workload has the same slots, so it has the same mix of cheap and dear work.
# A run repeats cycles, so its percentiles are taken over many draws of each
# slot; each request costs at most about a second, so that a run of twenty
# seconds holds forty or more of them.

def _grid_cycle(smoke: bool) -> list[tuple]:
    sizes = (1, 1, 2) if smoke else (4, 6, 8)
    order = _SMALL_VERIFY_ORDER if smoke else _GRID_ORDER
    return [(Shape(kind, _verify(m, order), 2 * m + 6, True),)
            for m in sizes for kind in KINDS]


def _emit_cycle(smoke: bool) -> list[tuple]:
    # the smoke sizes reuse cli-small requests, so they need no digests of their own
    ns = (2, 5, 8) if smoke else (40, 80, 120)
    gns = (1, 3, 3) if smoke else (2, 8, 16)
    gorder = 8 if smoke else 16
    slots = []
    for n, gn in zip(ns, gns):
        slots += [(Shape(kind, _compute(n, fmt), n + 2, False),)
                  for fmt in ("json", "latex") for kind in KINDS]
        slots += [(Shape(kind, _genfun(gn, gorder), gorder + 2, False),)
                  for kind in CATALOG_KINDS]
    return slots


def _oracle_cycle(smoke: bool) -> list[tuple]:
    sizes = (4, 4, 6) if smoke else (12, 16, 20)
    return [(Shape(kind, _verify(m, 12, suite="oracle"), 2 * m + 6, True),)
            for m in sizes for kind in CATALOG_KINDS]


_SMALL_KINDS = KINDS + ("laguerre-expr",)
_SMALL_VERIFY_ORDER = 4
_GRID_ORDER = 8
_REJECTS = tuple(Request(argv, expect_exit=2) for argv in (
    ("compute", "--n", "3", "--phi", "x +* 2", "--psi", "1 - x"),          # bad expression
    ("verify", "--max-n", "2", "--phi", "x + (1", "--psi", "1 - x"),       # bad expression
    ("compute", "--n", "4", "--phi", "x^2", "--psi=-x"),                   # inadmissible at k = 1
    ("genfun", "--n", "2", "--phi", "x^2", "--psi=-3*x", "--order", "4"),  # inadmissible at k = 3
    ("genfun", "--family", "hermite", "--n", "2", "--order", str(ORDER_CAP + 1)),
    ("verify", "--family", "laguerre", "--alpha", "1/2", "--max-n", "1",
     "--order", str(ORDER_CAP + 3)),
))


def _small_cycle(smoke: bool) -> list[tuple]:
    """44 requests: 2 listings, 4 rejections, 18 compute, 8 genfun, 12 verify.

    Every family appears in every command at every size once per cycle; only
    the output format, the pair and (for genfun) ``n`` are drawn.  The
    stream shuffles each cycle.
    """
    slots = [(Request(("families",)),), (Request(("families", "--format", "json")),)]
    slots += [_REJECTS] * 4
    slots += [tuple(Shape(k, _compute(n, fmt), n + 2, False) for fmt in ("text", "json", "latex"))
              for n in (2, 5, 8) for k in _SMALL_KINDS]
    slots += [tuple(Shape(k, _genfun(n, order, fmt), order + 2, False)
                    for n in (1, 3) for fmt in ("json", "latex"))
              for order in (4, 8) for k in CATALOG_KINDS]
    slots += [tuple(Shape(k, _verify(m, _SMALL_VERIFY_ORDER, fmt=fmt), 2 * m + 6, True)
                    for fmt in ("text", "json"))
              for m in (1, 2) for k in _SMALL_KINDS]
    return slots


WORKLOADS = {
    "verify-grid": _grid_cycle,
    "emit-large": _emit_cycle,
    "oracle-deep": _oracle_cycle,
    "cli-small": _small_cycle,
}

# Whole cycles a run measures at least (on a shared 2-core 2.1 GHz Xeon a
# verify-grid cycle takes 5-7 s, oracle-deep 4-6 s, emit-large 4-6 s and
# cli-small 0.6-0.8 s, checks included).  The floors fix the number of operations the tail percentile is
# chosen from, so it does not change when a commit makes the program faster.
MIN_CYCLES = {"verify-grid": 3, "oracle-deep": 3, "emit-large": 4, "cli-small": 25}


def min_operations(workload: str) -> int:
    return MIN_CYCLES[workload] * len(WORKLOADS[workload](False))


class Stream:
    """Endless seeded request stream of one workload, one cycle at a time."""

    def __init__(self, workload: str, seed: int, smoke: bool = False):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
        self.workload = workload
        self.smoke = smoke
        self.rng = random.Random(f"{workload}:{seed}")
        self._decks: dict[tuple, list[Pair]] = {}

    def _draw(self, choice: Shape | Request) -> Request:
        """A fixed request, or the shape with the next pair of its shuffled deck.

        Each shape deals every admissible pair once before any pair comes
        again, so a run's mix of cheap and dear parameters hardly depends
        on the seed.
        """
        if isinstance(choice, Request):
            return choice
        key = (choice.kind, choice.depth, choice.needs_quasi_definite)
        deck = self._decks.setdefault(key, [])
        if not deck:
            deck.extend(choice.pairs())
            self.rng.shuffle(deck)
        return choice.make(deck.pop())

    def cycle(self) -> list[Request]:
        requests = [self._draw(self.rng.choice(slot))
                    for slot in WORKLOADS[self.workload](self.smoke)]
        if self.workload == "cli-small":
            self.rng.shuffle(requests)
            if self.smoke:
                requests = requests[:12]
        return requests


def all_requests(workload: str, smoke: bool) -> list[Request]:
    """Every request the stream of ``workload`` can produce, rejections excluded."""
    out: dict[str, Request] = {}
    for slot in WORKLOADS[workload](smoke):
        for choice in slot:
            if isinstance(choice, Request):
                reqs = [choice] if not choice.expect_exit else []
            else:
                reqs = [choice.make(p) for p in choice.pairs()]
            out.update((r.key, r) for r in reqs)
    return list(out.values())
