"""Independent output checks and the canonical output digest.

Nothing here imports ``copoly``.  Polynomials are plain lists of
``Fraction`` coefficients in ascending order.  The diagonal row
``C_n(x; n)`` of every pair is rebuilt from the classical three-term
recurrences (or the explicit sum, for Bessel) under the normalization fixed
by the Rodrigues formula ``C_n u = (d/dx)^n (phi^n u)``:

    hermite          (-1)^n H_n(x)
    laguerre(a)      n! L_n^a(x)
    jacobi(a, b)     (-2)^n n! P_n^(a,b)(x)
    bessel(a)        2^n y_n(x; a + 2, 2)
    custom(a, b)     n! L_n^(a+b-1)(x + a)     (phi = x + a, psi = b - x)
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from fractions import Fraction

from workloads import Pair, Request

Poly = list  # ascending Fraction coefficients, no trailing zeros


def _trim(p: Poly) -> Poly:
    while p and p[-1] == 0:
        p.pop()
    return p


def _combine(a: Poly, ca, b: Poly, cb) -> Poly:
    """``ca * a + cb * b`` where ``ca`` / ``cb`` are scalars or ``(c0, c1)`` linear factors."""
    out = [Fraction(0)] * (max(len(a), len(b)) + 1)
    for p, c in ((a, ca), (b, cb)):
        c0, c1 = c if isinstance(c, tuple) else (c, 0)
        for i, v in enumerate(p):
            out[i] += c0 * v
            out[i + 1] += c1 * v
    return _trim(out)


def _three_term(p0: Poly, p1: Poly, n: int, step) -> Poly:
    """Run ``p_{k+1} = step(k) applied to (p_k, p_{k-1})`` up to degree ``n``."""
    if n == 0:
        return p0
    prev, cur = p0, p1
    for k in range(1, n):
        lin, back, scale = step(k)
        prev, cur = cur, [v / scale for v in _combine(cur, lin, prev, back)]
    return cur


def hermite(n: int) -> Poly:
    # H_{k+1} = 2x H_k - 2k H_{k-1}
    return _three_term([Fraction(1)], [Fraction(0), Fraction(2)], n,
                       lambda k: ((0, 2), -2 * k, 1))


def laguerre(n: int, a: Fraction) -> Poly:
    # (k+1) L_{k+1} = (2k + 1 + a - x) L_k - (k + a) L_{k-1}
    return _three_term([Fraction(1)], [1 + a, Fraction(-1)], n,
                       lambda k: ((2 * k + 1 + a, -1), -(k + a), k + 1))


def jacobi(n: int, a: Fraction, b: Fraction) -> Poly:
    # 2(k+1)(k+1+s)(2k+s) P_{k+1}
    #   = (2k+s+1)((2k+s+2)(2k+s) x + a^2 - b^2) P_k - 2(k+a)(k+b)(2k+s+2) P_{k-1}
    s = a + b
    p1 = [(a - b) / 2, (s + 2) / 2]

    def step(k):
        c = 2 * k + s
        return (((c + 1) * (a * a - b * b), (c + 1) * (c + 2) * c),
                -2 * (k + a) * (k + b) * (c + 2), 2 * (k + 1) * (k + 1 + s) * c)
    return _three_term([Fraction(1)], p1, n, step)


def bessel_scaled(n: int, a: Fraction) -> Poly:
    """``2^n y_n(x; a + 2, 2) = sum_k C(n, k) (n + a + 1)_k 2^(n-k) x^k``."""
    out, rising = [], Fraction(1)
    for k in range(n + 1):
        out.append(math.comb(n, k) * rising * 2 ** (n - k))
        rising *= n + a + 1 + k
    return _trim(out)


def _shift(p: Poly, a: Fraction) -> Poly:
    """``p(x + a)`` by Horner's rule."""
    out: Poly = []
    for c in reversed(p):
        out = _combine(out, (a, 1), [c], 1)
    return out


def diagonal(pair: Pair, n: int) -> Poly:
    """``C_n(x; n)`` of ``pair`` from the classical references."""
    v = pair.values()
    fact = math.factorial(n)
    if pair.kind == "hermite":
        return [(-1) ** n * c for c in hermite(n)]
    if pair.kind in ("laguerre", "laguerre-expr"):
        return [fact * c for c in laguerre(n, v[0])]
    if pair.kind == "jacobi":
        return [(-2) ** n * fact * c for c in jacobi(n, v[0], v[1])]
    if pair.kind == "bessel":
        return bessel_scaled(n, v[0])
    if pair.kind == "custom":
        a, b, _ = v
        return [fact * c for c in _shift(laguerre(n, a + b - 1), a)]
    raise ValueError(f"unknown pair kind {pair.kind!r}")


def _pair_shape(pair: Pair) -> tuple[Fraction, Fraction]:
    """``(phi'', psi')`` of the pair."""
    v = pair.values()
    if pair.kind == "hermite":
        return Fraction(0), Fraction(-2)
    if pair.kind == "jacobi":
        return Fraction(-2), -(v[0] + v[1] + 2)
    if pair.kind == "bessel":
        return Fraction(2), v[0] + 2
    return Fraction(0), Fraction(-1)   # laguerre and the custom pairs


def mu(pair: Pair, n: int, nu: int) -> Fraction:
    """Row eigenvalue ``-nu ((n - (nu + 1)/2) phi'' + psi')``; ``mu(n, n) = lambda_n``."""
    phi2, psi1 = _pair_shape(pair)
    return -nu * (Fraction(2 * n - nu - 1, 2) * phi2 + psi1)


# --- parsing the three output formats back into polynomials -----------------

_TEXT_TERM = re.compile(r"^(?:(\d+(?:/\d+)?)(?:\*(x(?:\^(\d+))?))?|(x(?:\^(\d+))?))$")
_LATEX_TERM = re.compile(
    r"^(?:(?:\\frac\{(\d+)\}\{(\d+)\}|(\d+))(?: (x(?:\^\{(\d+)\})?))?|(x(?:\^\{(\d+)\})?))$")


def _split_terms(text: str) -> list[tuple[int, str]]:
    text = text.strip()
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    out = []
    for i, piece in enumerate(re.split(r" ([+-]) ", text)):
        if i % 2:
            sign = 1 if piece == "+" else -1
        else:
            out.append((sign, piece))
    return out


def parse_text_poly(text: str) -> Poly:
    """Inverse of the ascending ``-2 + 4*x^2`` text form."""
    if text.strip() == "0":
        return []
    coeffs: dict[int, Fraction] = {}
    for sign, body in _split_terms(text):
        m = _TEXT_TERM.match(body)
        if not m:
            raise ValueError(f"unreadable text term {body!r}")
        mag, xpart, pw, bare, bare_pw = m.groups()
        if mag is not None:
            c, power = Fraction(mag), (0 if xpart is None else int(pw or 1))
        else:
            c, power = Fraction(1), int(bare_pw or 1)
        coeffs[power] = sign * c
    return _trim([coeffs.get(i, Fraction(0)) for i in range(max(coeffs) + 1)])


def parse_latex_poly(text: str) -> Poly:
    """Inverse of the descending ``4 x^{2} - 2`` LaTeX form."""
    if text.strip() == "0":
        return []
    coeffs: dict[int, Fraction] = {}
    for sign, body in _split_terms(text):
        m = _LATEX_TERM.match(body)
        if not m:
            raise ValueError(f"unreadable LaTeX term {body!r}")
        num, den, whole, xpart, pw, bare, bare_pw = m.groups()
        if bare is not None:
            c, power = Fraction(1), int(bare_pw or 1)
        else:
            c = Fraction(int(num), int(den)) if num is not None else Fraction(int(whole))
            power = 0 if xpart is None else int(pw or 1)
        coeffs[power] = sign * c
    return _trim([coeffs.get(i, Fraction(0)) for i in range(max(coeffs) + 1)])


def _strings(items: list[str]) -> Poly:
    return _trim([Fraction(s) for s in items])


# --- the checks --------------------------------------------------------------

class References:
    """Cache of diagonal rows, shared by every request in one process."""

    def __init__(self):
        self._diagonals: dict[tuple[Pair, int], Poly] = {}

    def diagonal(self, pair: Pair, n: int) -> Poly:
        key = (pair, n)
        if key not in self._diagonals:
            self._diagonals[key] = diagonal(pair, n)
        return self._diagonals[key]

    def check(self, req: Request, out: str) -> str | None:
        """``None`` when ``out`` is right for ``req``, else what is wrong."""
        cmd, fmt = req.command, req.fmt
        if cmd == "families":
            return None if "hermite" in out and "bessel" in out else "families listing incomplete"
        if cmd == "verify":
            return _check_verify(out, fmt)
        if cmd == "compute":
            return self._check_compute(req, out, fmt)
        if cmd == "genfun":
            return self._check_genfun(req, out, fmt)
        return f"no check for command {cmd!r}"

    def _check_compute(self, req: Request, out: str, fmt: str) -> str | None:
        n, pair = req.n, req.pair
        if fmt == "json":
            doc = json.loads(out)
            if len(doc["rows"]) != n + 1:
                return f"expected {n + 1} rows, got {len(doc['rows'])}"
            if Fraction(doc["lambda"]) != mu(pair, n, n):
                return "lambda_n differs from -n psi' - n(n-1)/2 phi''"
            if [Fraction(m) for m in doc["mu"][0]] != [mu(pair, n, v) for v in range(n + 1)]:
                return "row eigenvalues differ from the closed form"
            diag = _strings(doc["rows"][n])
        else:
            last = out.rstrip("\n").split("\n")[-2 if fmt == "latex" else -1]
            if fmt == "latex":
                body = last.split(" & ", 2)[2]
                if not body.endswith(" \\\\"):
                    return "LaTeX row does not end the line"
                diag = parse_latex_poly(body[:-3])
            else:
                prefix = f"nu={n}  [mu="
                if not last.startswith(prefix):
                    return f"last text line is not row nu={n}"
                if Fraction(last[len(prefix):last.index("]")]) != mu(pair, n, n):
                    return "row eigenvalue differs from the closed form"
                diag = parse_text_poly(last[last.index("]") + 3:])
        if diag != self.diagonal(pair, n):
            return f"diagonal row C_{n}(x; {n}) differs from the classical reference"
        return None

    def _check_genfun(self, req: Request, out: str, fmt: str) -> str | None:
        n, pair = req.n, req.pair
        if fmt == "json":
            doc = json.loads(out)
            if any(doc["difference"]):
                return "truncated series differs from the closed form"
            top = _strings(doc["truncated"][n])
        else:
            lines = out.rstrip("\n").split("\n")[2:-1]
            cells = [line[:-3].split(" & ") for line in lines]
            if any(c[2] != "0" for c in cells):
                return "truncated series differs from the closed form"
            top = parse_latex_poly(cells[n][1])
        scale = math.factorial(n)
        if [c * scale for c in top] != self.diagonal(pair, n):
            return f"n! [y^{n}] G differs from the classical C_{n}(x; {n})"
        return None


def _check_verify(out: str, fmt: str) -> str | None:
    if fmt == "json":
        doc = json.loads(out)
        bad = [s["suite"] for s in doc["suites"] if not s["passed"]]
        if bad or not doc["passed"]:
            return f"verify did not PASS: {', '.join(bad) or 'overall'}"
        return None
    lines = out.rstrip("\n").split("\n")
    if lines[-1] != "overall: PASS" or " FAIL " in out:
        return "verify did not PASS"
    return None


# --- digests -----------------------------------------------------------------

_VERIFY_SUITE_KEYS = ("suite", "passed", "checks", "failures")
_VERIFY_KEYS = ("family", "params", "max_n", "series_order", "notes", "passed",
                "first_counterexample")
_TEXT_SECONDS = re.compile(r"  \d+\.\d+s$", re.MULTILINE)


def canonical(req: Request, out: str) -> tuple[bytes, int | None]:
    """Timing-free bytes of an output and the verify ``checks`` total.

    JSON and text/LaTeX documents are taken byte for byte.  A verify report
    keeps only the fields it has today, without ``seconds``, so fields added
    later leave its digest alone.
    """
    if req.command != "verify":
        return out.encode(), None
    if req.fmt == "json":
        doc = json.loads(out)
        kept = {k: doc[k] for k in _VERIFY_KEYS}
        kept["suites"] = [{k: s[k] for k in _VERIFY_SUITE_KEYS} for s in doc["suites"]]
        checks = sum(s["checks"] for s in doc["suites"])
        return json.dumps(kept, sort_keys=True, separators=(",", ":")).encode(), checks
    checks = sum(int(m) for m in re.findall(r"  checks=(\d+)", out))
    return _TEXT_SECONDS.sub("", out).encode(), checks


def digest(req: Request, out: str) -> tuple[str, int | None]:
    data, checks = canonical(req, out)
    return hashlib.sha256(data).hexdigest(), checks
