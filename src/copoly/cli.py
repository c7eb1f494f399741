"""Command line interface.

Subcommands::

    copoly families                      list the built-in weight families
    copoly compute   ...                 emit complementary rows and eigenvalues
    copoly verify    ...                 run exact identity suites over a grid
    copoly genfun    ...                 emit the generating series both ways

A pair comes from exactly one of two sources: the catalog (``--family
hermite|laguerre|jacobi|bessel``, with ``legendre`` accepted as jacobi at
alpha = beta = 0) or expressions (``--phi``/``--psi`` with optional ``--u0``).

Exit codes, one source each: 0 success; 1 ``verify`` found a counterexample;
2 invalid input, any ``CopolyError`` or other ``OSError`` (``error: <message>``);
3 an internal error, any other exception (``internal error: <Type>:
<message>``, no traceback); 141 (128 + SIGPIPE) stdout was closed early, as
by ``| head``, and nothing is printed.

Fixed caps bound the work of every accepted request; a request above one is
rejected rather than silently clamped: ``--n`` above ``MAX_N`` (``compute``
and ``genfun``), ``--max-n`` above ``MAX_VERIFY_N`` and ``--order`` above
``MAX_ORDER`` (``verify`` and ``genfun``), and a ``phi``/``psi`` coefficient
or ``u0`` whose numerator or denominator is longer than ``MAX_COEFF_BITS``.
The caps assume CPython's default integer string limit of 4300 digits, so an
interpreter running with a lower one refuses every pair.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import CopolyError, InvalidParameter
from .genfun import genfun_closed_form, genfun_truncated
from .parsing import parse_poly_expr
from .poly import MAX_LITERAL_DIGITS, Poly, as_rational
from .render import poly_latex, poly_text, poly_to_strings, rational_latex, series_to_strings
from .rodrigues import (
    FAMILIES,
    ClassicalPair,
    FamilySpec,
    _catalog_spec,
    _comp_rows,
    lambda_n,
    mu_eigenvalue,
    pair_from_family,
)
from .verify import SUITE_NAMES, VerifyReport, verify_pair

MAX_N = 400
MAX_VERIFY_N = 24
MAX_ORDER = 16
MAX_COEFF_BITS = 7

_FAMILY_HELP = (
    f"catalog family name ({', '.join(FAMILIES)}; legendre is "
    "jacobi with alpha = beta = 0)"
)


def _check_size(flag: str, value: int | str, cap: int) -> int:
    """``flag``'s value, text that ``as_rational`` reads and that has no ``/`` (or an
    int default), when it is in ``0 .. cap``; refused, never clamped, otherwise."""
    try:
        size = None if "/" in str(value) else as_rational(value).numerator
    except InvalidParameter:
        size = None
    if size is None:
        raise InvalidParameter(f"{flag} must be an integer, got {value!r}")
    if size < 0:
        raise InvalidParameter(f"{flag} must be >= 0")
    if size > cap:
        raise InvalidParameter(f"{flag} {size} exceeds the cap of {cap}")
    return size


def _rational(flag: str, text: str) -> Fraction:
    """``flag``'s text as ``as_rational`` reads it, refused under the flag's name."""
    try:
        return as_rational(text)
    except InvalidParameter:
        raise InvalidParameter(f"{flag} must be an integer or rational text "
                               f"such as '3/2', got {text!r}") from None


def resolve_family(args: argparse.Namespace) -> FamilySpec:
    """The pair from exactly one of ``--family`` and ``--phi``/``--psi``, with no
    coefficient or ``u0`` whose numerator or denominator is longer than
    ``MAX_COEFF_BITS``."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if 0 < limit < MAX_LITERAL_DIGITS:
        # every cap assumes CPython's default limit, which printing a long row needs
        raise InvalidParameter(f"the integer string limit is {limit} digits, below the "
                               f"{MAX_LITERAL_DIGITS} the caps assume; unset or raise "
                               "PYTHONINTMAXSTRDIGITS")
    alpha, beta, u0 = (None if text is None else _rational(flag, text) for flag, text in
                       (("--alpha", args.alpha), ("--beta", args.beta), ("--u0", args.u0)))
    if args.family is not None:
        if args.phi is not None or args.psi is not None:
            raise InvalidParameter("give exactly one of --family or --phi/--psi")
        if u0 is not None:
            raise InvalidParameter("--u0 applies only to --phi/--psi pairs (catalog uses u0 = 1)")
        name = args.family.lower()
        if name == "legendre":
            if alpha is not None or beta is not None:
                raise InvalidParameter("legendre fixes alpha = beta = 0; omit --alpha/--beta")
            name = "jacobi"  # absent --alpha and --beta are 0
        spec = _catalog_spec(name, alpha, beta)
    elif args.phi is None or args.psi is None:
        raise InvalidParameter("no family given: use --family, or both --phi and --psi")
    else:
        params = {k: v for k, v in (("alpha", alpha), ("beta", beta)) if v is not None}
        spec = FamilySpec(parse_poly_expr(args.phi, params), parse_poly_expr(args.psi, params),
                          Fraction(1) if u0 is None else u0, params=params)
    for name, values in (("phi", spec.phi.coeffs), ("psi", spec.psi.coeffs), ("u0", (spec.u0,))):
        for power, c in enumerate(values):
            if max(c.numerator.bit_length(), c.denominator.bit_length()) > MAX_COEFF_BITS:
                where = name if name == "u0" else f"{name} coefficient of x^{power}"
                raise InvalidParameter(f"{where} has a numerator or denominator longer "
                                       f"than the cap of {MAX_COEFF_BITS} bits")
    return spec


def _params_doc(params: dict[str, Fraction]) -> dict[str, str]:
    """Family parameters as text, sorted by name, for every output format."""
    return {name: str(value) for name, value in sorted(params.items())}


def _params_line(family: str, params: dict[str, Fraction]) -> str:
    """The first line of the text output of ``compute`` and ``verify``."""
    shown = " ".join(f"{k}={v}" for k, v in _params_doc(params).items())
    return f"family: {family}  params: {shown or '(none)'}"


class _TextRows:
    """Rows of ``poly._coefficient_texts`` strings, the value of a top-level key that
    ``_print_json`` writes as a list of lists and reads once, as it writes them."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[list[str]]):
        self.rows = rows


_ENCODER = json.JSONEncoder(indent=2)


def _print_json(doc) -> None:
    """``doc`` on stdout as ``json.dump(doc, indent=2)`` writes it, then a newline.

    Only a non-empty top-level dict (with ``str`` keys) is framed here, one key at
    a time: a ``_TextRows`` value goes to ``_write_text_rows``, a dict, list or
    tuple to the one ``_ENCODER`` with each newline indented two more spaces (the
    encoder escapes every newline inside a string, so each one it writes is its
    own), and any other value to ``json.dumps``.  Any other document is one
    ``_ENCODER`` call."""
    write = sys.stdout.write
    if not (isinstance(doc, dict) and doc):
        write(_ENCODER.encode(doc) + "\n")
        return
    separator = "{\n  "
    for key, value in doc.items():
        write(f"{separator}{json.dumps(key)}: ")
        separator = ",\n  "
        if isinstance(value, _TextRows):
            _write_text_rows(write, value.rows)
        elif isinstance(value, (dict, list, tuple)):
            write(_ENCODER.encode(value).replace("\n", "\n  "))
        else:
            write(json.dumps(value))
    write("\n}\n")


def _write_text_rows(write, rows: Iterable[list[str]]) -> None:
    """``rows`` as the ``indent=2`` encoder writes a list of lists of strings at the
    value of a top-level key, each row's items joined into one string: a
    ``poly._coefficient_texts`` string matches ``-?[0-9]+(/[0-9]+)?``, so it needs
    no escaping."""
    i = -1
    for i, texts in enumerate(rows):
        write(",\n    " if i else "[\n    ")
        if texts:
            write('[\n      "')
            write('",\n      "'.join(texts))
            write('"\n    ]')
        else:
            write("[]")
    write("[]" if i < 0 else "\n  ]")


def _print_latex_array(comment: str, rows: Iterable[tuple[str, str, str]]) -> None:
    """A ``%`` comment line, then ``rows`` as a three-column LaTeX array."""
    print(f"% {comment}")
    print("\\begin{array}{lll}")
    for cells in rows:
        print(" & ".join(cells) + " \\\\")
    print("\\end{array}")


def _compute_rows(pair: ClassicalPair, n: int, nu: int | None) -> Iterator[tuple[int, Poly]]:
    """``(nu, row)`` for every row of the table at ``n``, or for row ``nu`` alone, each
    as it is built, one ``_comp_rows`` step from the row before; no row past the
    last one yielded is built, none is kept, and ``pair.rows``'s memo is not filled."""
    row = None
    for v in range(n + 1 if nu is None else nu + 1):
        (row,) = _comp_rows(pair, n, v, v, row)
        if nu is None or v == nu:
            yield v, row


def _rows_pair(spec: FamilySpec, n: int) -> ClassicalPair:
    """The pair of ``compute`` and ``genfun`` at ``n``, admissible for ``k = 0 ..
    max(n + 1, 2n - 2)``: row ``nu + 1`` of ``n`` gains the leading factor
    ``psi' + k phi''/2`` with ``k = 2n - nu - 2``, so every row keeps its degree."""
    return pair_from_family(spec, max_order=max(n + 2, 2 * n - 1))


def cmd_compute(args: argparse.Namespace) -> int:
    spec = resolve_family(args)
    n = _check_size("--n", args.n, MAX_N)
    nu = None if args.nu is None else _check_size("--nu", args.nu, n)
    pair = _rows_pair(spec, n)
    if args.format == "json":
        # rows builds each row as _print_json writes it, and then lets it go
        _print_json({
            "family": pair.name,
            "params": _params_doc(pair.params),
            "n": n,
            "rows": _TextRows(poly_to_strings(row) for _, row in _compute_rows(pair, n, nu)),
            "lambda": str(lambda_n(pair, n)),
            "mu": [[str(mu_eigenvalue(pair, n, v))
                    for v in (range(n + 1) if nu is None else (nu,))]],
        })
    elif args.format == "latex":
        _print_latex_array(
            f"family {pair.name}, n = {n}, lambda = {rational_latex(lambda_n(pair, n))}",
            ((f"\\nu={v}", f"\\mu={rational_latex(mu_eigenvalue(pair, n, v))}", poly_latex(row))
             for v, row in _compute_rows(pair, n, nu)))
    else:
        print(_params_line(pair.name, pair.params))
        print(f"n = {n}, lambda = {lambda_n(pair, n)}")
        for v, row in _compute_rows(pair, n, nu):
            print(f"nu={v}  [mu={mu_eigenvalue(pair, n, v)}]  {poly_text(row)}")
    return 0


def _report_to_dict(report: VerifyReport) -> dict:
    doc = dataclasses.asdict(report)
    doc["params"] = _params_doc(report.params)
    doc["passed"] = report.passed
    doc["first_counterexample"] = report.first_counterexample
    return doc


def cmd_verify(args: argparse.Namespace) -> int:
    spec = resolve_family(args)
    max_n = _check_size("--max-n", args.max_n, MAX_VERIFY_N)
    order = _check_size("--order", args.order, MAX_ORDER)
    if order < 2:
        raise InvalidParameter("--order must be >= 2")
    suites = SUITE_NAMES if args.suite == "all" else (args.suite,)
    # the suites read u up to index 4m + 4, and the Leibniz probe phi*psi up to 2m + 6
    pair = pair_from_family(spec, max_order=max(2 * max_n + 6, 4 * max_n + 4))
    report = verify_pair(pair, suites, max_n, order)
    if args.format == "json":
        _print_json(_report_to_dict(report))
    else:
        print(_params_line(report.family, report.params))
        print(f"grid: max_n={report.max_n}, series order={report.series_order}")
        for suite in report.suites:
            status = "PASS" if suite.passed else "FAIL"
            print(f"  {suite.suite:<10} {status}  checks={suite.checks}  {suite.seconds:.2f}s")
            for line in suite.failures[:5]:
                print(f"      counterexample: {line}")
            if len(suite.failures) > 5:
                hidden = len(suite.failures) - 5
                print(f"      ... {hidden} more not shown (--format json lists all)")
        for note in report.notes:
            print(f"note: {note}")
        print(f"overall: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def cmd_genfun(args: argparse.Namespace) -> int:
    spec = resolve_family(args)
    n = _check_size("--n", args.n, MAX_N)
    order = _check_size("--order", args.order, MAX_ORDER)
    pair = _rows_pair(spec, n)
    truncated = genfun_truncated(pair, n, order)
    closed = genfun_closed_form(pair, n, order)
    difference = truncated - closed
    if args.format == "latex":
        _print_latex_array(
            f"family {pair.name}, n = {n}, order = {order}",
            ((f"y^{{{nu}}}", poly_latex(truncated.coeff(nu)), poly_latex(difference.coeff(nu)))
             for nu in range(order + 1)))
    else:
        doc = {
            "family": pair.name,
            "params": _params_doc(pair.params),
            "n": n,
            "order": order,
            "truncated": _TextRows(series_to_strings(truncated)),
            "closed_form": _TextRows(series_to_strings(closed)),
            "difference": _TextRows(series_to_strings(difference)),
        }
        _print_json(doc)
    return 0


def cmd_families(args: argparse.Namespace) -> int:
    rows = [(name, f.phi_text, f.psi_text, ", ".join(f.params) or "none")
            for name, f in FAMILIES.items()]
    if args.format == "json":
        doc = [{"name": name, "phi": phi, "psi": psi, "params": params}
               for name, phi, psi, params in rows]
        _print_json(doc)
    else:
        print(f"{'name':<10} {'phi':<10} {'psi':<42} params")
        for name, phi, psi, params in rows:
            print(f"{name:<10} {phi:<10} {psi:<42} {params}")
        print("alias: legendre = jacobi with alpha = beta = 0")
    return 0


def _add_family_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--family", help=_FAMILY_HELP)
    sub.add_argument("--phi", help="polynomial expression for phi (custom pair)")
    sub.add_argument("--psi", help="polynomial expression for psi (custom pair)")
    sub.add_argument("--u0", help="seed moment for a custom pair (default 1)")
    sub.add_argument("--alpha", help="family parameter alpha")
    sub.add_argument("--beta", help="family parameter beta")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once: parsing a request leaves the parser unchanged."""
    parser = argparse.ArgumentParser(
        prog="copoly",
        description="Exact construction and verification of complementary polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    families = sub.add_parser("families", help="list the built-in weight families")
    families.add_argument("--format", choices=("text", "json"), default="text")
    families.set_defaults(func=cmd_families)

    compute = sub.add_parser(
        "compute",
        help="emit complementary rows and eigenvalues",
        epilog="Text output lists terms by ascending degree; LaTeX by descending degree.",
    )
    _add_family_arguments(compute)
    compute.add_argument("--n", required=True, help=f"table size (top degree), at most {MAX_N}")
    compute.add_argument("--nu", help="emit only row nu")
    compute.add_argument("--format", choices=("text", "json", "latex"), default="text")
    compute.set_defaults(func=cmd_compute)

    verify = sub.add_parser("verify", help="run exact identity suites over a grid")
    _add_family_arguments(verify)
    verify.add_argument("--max-n", default=8,
                        help=f"largest n in the grid, at most {MAX_VERIFY_N}")
    verify.add_argument("--order", default=12,
                        help=f"series truncation order, at most {MAX_ORDER}")
    verify.add_argument("--suite", choices=("all",) + SUITE_NAMES, default="all")
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.set_defaults(func=cmd_verify)

    genfun = sub.add_parser("genfun", help="emit the generating series both ways")
    _add_family_arguments(genfun)
    genfun.add_argument("--n", required=True, help=f"series index, at most {MAX_N}")
    genfun.add_argument("--order", default=8,
                        help=f"series truncation order, at most {MAX_ORDER}")
    genfun.add_argument("--format", choices=("json", "latex"), default="json")
    genfun.set_defaults(func=cmd_genfun)

    return parser


def _stdout_to_devnull() -> None:
    """After the reader of stdout has gone, point its file descriptor, if it has one,
    at ``os.devnull``: the interpreter flushes stdout at exit, which would fail again."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # a stream with no descriptor
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _complain(line: str) -> None:
    """``line`` on stderr, or nowhere if stderr is gone: the exit code still tells."""
    try:
        print(line, file=sys.stderr, flush=True)
    except OSError:
        pass


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed stdout is met here, not in the flush at exit
        return code
    except BrokenPipeError:
        _stdout_to_devnull()
        return 141
    except (CopolyError, OSError) as exc:
        _complain(f"error: {exc}")
        return 2
    except Exception as exc:
        _complain(f"internal error: {type(exc).__name__}: {exc}")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
