"""Command line interface.

Subcommands::

    copoly families                      list the built-in weight families
    copoly compute   ...                 emit complementary rows and eigenvalues
    copoly verify    ...                 run exact identity suites over a grid
    copoly genfun    ...                 emit the generating series both ways

Families come either from the catalog (``--family hermite|laguerre|jacobi|
bessel``, with ``legendre`` accepted as jacobi at alpha = beta = 0), from a
JSON family file (``--family-file``), or from expressions (``--phi``/
``--psi`` with optional ``--u0``).

Exit codes, one source each: 0 success; 1 ``verify`` found a counterexample;
2 invalid input, any ``CopolyError`` or ``OSError`` (``error: <message>``);
3 an internal error, any other exception (``internal error: <Type>:
<message>``, no traceback).

Fixed caps bound the work of every accepted request; a request above one is
rejected rather than silently clamped: ``--n`` above ``MAX_N`` (``compute``
and ``genfun``), ``--max-n`` above ``MAX_VERIFY_N`` and ``--order`` above
``MAX_ORDER`` (``verify`` and ``genfun``), and a ``phi``/``psi`` coefficient
or ``u0`` whose numerator or denominator is longer than ``MAX_COEFF_BITS``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from fractions import Fraction
from typing import Iterable

from .errors import CopolyError, InvalidParameter
from .genfun import genfun_closed_form, genfun_truncated
from .parsing import parse_poly_expr
from .poly import Poly, as_rational
from .render import poly_latex, poly_text, poly_to_strings, rational_latex, series_to_strings
from .rodrigues import (
    FAMILIES,
    ClassicalPair,
    FamilySpec,
    catalog_family,
    jacobi_family,
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


def _check_size(flag: str, value: int, cap: int) -> int:
    """``value`` of ``flag`` when it lies in ``0 .. cap``; refused, never clamped, otherwise."""
    if value < 0:
        raise InvalidParameter(f"{flag} must be >= 0")
    if value > cap:
        raise InvalidParameter(f"{flag} {value} exceeds the cap of {cap}")
    return value


def _rational(source: str, value) -> Fraction:
    """One exact value from outside input; floats, booleans, ``p/0`` and ``1e3`` are refused."""
    try:
        # Fraction("1e20000") would build the integer before anything bounds it
        if not (isinstance(value, str) and "e" in value.lower()):
            return as_rational(value)
    except (TypeError, ValueError, ZeroDivisionError):
        pass
    raise InvalidParameter(f"{source} must be an integer or rational text "
                           f"such as '3/2', got {value!r}")


class _JsonInteger(str):
    """The text of a JSON integer literal, told apart from a JSON string."""


def load_family_file(path: str) -> FamilySpec:
    """Read a family description from JSON.

    Expected fields: ``name`` (text), ``phi`` and ``psi`` (ascending
    coefficient arrays), optional ``params`` (object of named values) and
    ``u0`` (default 1); every value is an integer or rational text, never a
    JSON float or boolean.  A file named after a catalog family must match
    that family's shape, and its ``params`` follow the ``--family`` rules:
    missing ones are 0, others are rejected.
    """
    with open(path, encoding="utf-8") as handle:
        try:
            # integers stay text, so an over-long one reaches _rational and its field name
            data = json.load(handle, parse_int=_JsonInteger)
        except RecursionError:
            raise InvalidParameter("family file nests JSON arrays or objects too deeply") from None
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise InvalidParameter(f"family file is not UTF-8 JSON: {exc}") from None
    if not isinstance(data, dict):
        raise InvalidParameter(
            "family file must hold a JSON object, not a JSON "
            + ("int" if isinstance(data, _JsonInteger) else type(data).__name__))
    for key in ("name", "phi", "psi"):
        if key not in data:
            raise InvalidParameter(f"family file is missing the {key!r} field")
    for key in ("phi", "psi"):
        if not isinstance(data[key], list):
            raise InvalidParameter(f"family file field {key!r} must be a JSON array")
    if type(data["name"]) is not str:
        raise InvalidParameter("family file field 'name' must be JSON text")
    raw_params = data.get("params", {})
    if not isinstance(raw_params, dict):
        raise InvalidParameter("family file field 'params' must be a JSON object")
    where = "family file field "
    phi = Poly([_rational(f"{where}phi[{i}]", c) for i, c in enumerate(data["phi"])])
    psi = Poly([_rational(f"{where}psi[{i}]", c) for i, c in enumerate(data["psi"])])
    params = {k: _rational(f"{where}params.{k}", v) for k, v in raw_params.items()}
    u0 = _rational(f"{where}u0", data.get("u0", 1))
    name = data["name"]
    if name in FAMILIES:
        reference = catalog_family(name, params)
        if reference.phi != phi or reference.psi != psi:
            raise InvalidParameter(
                f"family file claims {name!r} but phi/psi do not match that catalog shape")
        params = reference.params
    return FamilySpec(phi, psi, u0, name, params)


def _catalog_spec(name: str, alpha: Fraction | None, beta: Fraction | None) -> FamilySpec:
    """The ``--family name --alpha --beta`` lookup; ``None`` means the flag is absent."""
    return catalog_family(name, {"alpha": alpha, "beta": beta})


def resolve_family(args: argparse.Namespace) -> FamilySpec:
    """The family from exactly one of the accepted sources, with no coefficient
    or ``u0`` whose numerator or denominator is longer than ``MAX_COEFF_BITS``."""
    spec = _family_source(args)
    for name, values in (("phi", spec.phi.coeffs), ("psi", spec.psi.coeffs), ("u0", (spec.u0,))):
        for power, c in enumerate(values):
            if max(c.numerator.bit_length(), c.denominator.bit_length()) > MAX_COEFF_BITS:
                where = name if name == "u0" else f"{name} coefficient of x^{power}"
                raise InvalidParameter(f"{where} has a numerator or denominator longer "
                                       f"than the cap of {MAX_COEFF_BITS} bits")
    return spec


def _family_source(args: argparse.Namespace) -> FamilySpec:
    """Build the family from exactly one of the accepted sources."""
    alpha, beta, u0 = (None if text is None else _rational(flag, text) for flag, text in
                       (("--alpha", args.alpha), ("--beta", args.beta), ("--u0", args.u0)))
    sources = [args.family_file is not None, args.family is not None,
               args.phi is not None or args.psi is not None]
    if sum(sources) > 1:
        raise InvalidParameter("give exactly one of --family-file, --family, or --phi/--psi")
    if args.family_file is not None:
        return load_family_file(args.family_file)
    if args.family is not None:
        name = args.family.lower()
        if u0 is not None:
            raise InvalidParameter("--u0 applies only to --phi/--psi pairs (catalog uses u0 = 1)")
        if name == "legendre":
            if alpha is not None or beta is not None:
                raise InvalidParameter("legendre fixes alpha = beta = 0; omit --alpha/--beta")
            return jacobi_family(0, 0)
        return _catalog_spec(name, alpha, beta)
    if args.phi is None or args.psi is None:
        raise InvalidParameter(
            "no family given: use --family, --family-file, or both --phi and --psi")
    params = {}
    if alpha is not None:
        params["alpha"] = alpha
    if beta is not None:
        params["beta"] = beta
    phi = parse_poly_expr(args.phi, params)
    psi = parse_poly_expr(args.psi, params)
    return FamilySpec(phi, psi, Fraction(1) if u0 is None else u0, params=params)


def _params_doc(params: dict[str, Fraction]) -> dict[str, str]:
    """Family parameters as text, sorted by name, for every output format."""
    return {name: str(value) for name, value in sorted(params.items())}


def _params_line(family: str, params: dict[str, Fraction]) -> str:
    """The first line of the text output of ``compute`` and ``verify``."""
    shown = " ".join(f"{k}={v}" for k, v in _params_doc(params).items())
    return f"family: {family}  params: {shown or '(none)'}"


def _print_json(doc) -> None:
    """``doc`` as indented JSON on stdout, written as it is encoded, never held as one string."""
    json.dump(doc, sys.stdout, indent=2)
    print()


def _print_latex_array(comment: str, rows: Iterable[tuple[str, str, str]]) -> None:
    """A ``%`` comment line, then ``rows`` as a three-column LaTeX array."""
    print(f"% {comment}")
    print("\\begin{array}{lll}")
    for cells in rows:
        print(" & ".join(cells) + " \\\\")
    print("\\end{array}")


def _compute_rows(pair: ClassicalPair, n: int, nu: int | None) -> list[tuple[int, Fraction, Poly]]:
    """``(nu, mu, row)`` for every row of the table at ``n``, or for row ``nu`` alone;
    no row past the last one returned is built."""
    indices = range(n + 1) if nu is None else (nu,)
    rows = pair.rows(n, indices[-1])
    return [(v, mu_eigenvalue(pair, n, v), rows[v]) for v in indices]


def build_compute_document(pair: ClassicalPair, n: int, nu: int | None = None) -> dict:
    """The JSON document emitted by ``compute``; also used by tests directly."""
    rows = _compute_rows(pair, n, nu)
    return {
        "family": pair.name,
        "params": _params_doc(pair.params),
        "n": n,
        "rows": [poly_to_strings(row) for _, _, row in rows],
        "lambda": str(lambda_n(pair, n)),
        "mu": [[str(mu) for _, mu, _ in rows]],
    }


def _rows_pair(spec: FamilySpec, n: int) -> ClassicalPair:
    """The pair of ``compute`` and ``genfun`` at ``n``, admissible for ``k = 0 ..
    max(n + 1, 2n - 2)``: row ``nu + 1`` of ``n`` gains the leading factor
    ``psi' + k phi''/2`` with ``k = 2n - nu - 2``, so every row keeps its degree."""
    return pair_from_family(spec, max_order=max(n + 2, 2 * n - 1))


def cmd_compute(args: argparse.Namespace) -> int:
    spec = resolve_family(args)
    n = _check_size("--n", args.n, MAX_N)
    nu = args.nu
    if nu is not None and not 0 <= nu <= n:
        raise InvalidParameter(f"--nu must satisfy 0 <= nu <= n, got nu={nu}, n={n}")
    pair = _rows_pair(spec, n)
    if args.format == "json":
        _print_json(build_compute_document(pair, n, nu))
    elif args.format == "latex":
        _print_latex_array(
            f"family {pair.name}, n = {n}, lambda = {rational_latex(lambda_n(pair, n))}",
            ((f"\\nu={v}", f"\\mu={rational_latex(mu)}", poly_latex(row))
             for v, mu, row in _compute_rows(pair, n, nu)))
    else:
        print(_params_line(pair.name, pair.params))
        print(f"n = {n}, lambda = {lambda_n(pair, n)}")
        for v, mu, row in _compute_rows(pair, n, nu):
            print(f"nu={v}  [mu={mu}]  {poly_text(row)}")
    return 0


def _report_to_dict(report: VerifyReport) -> dict:
    doc = dataclasses.asdict(report)
    doc["params"] = _params_doc(report.params)
    doc["passed"] = report.passed
    doc["first_counterexample"] = report.first_counterexample
    return doc


def cmd_verify(args: argparse.Namespace) -> int:
    spec = resolve_family(args)
    _check_size("--max-n", args.max_n, MAX_VERIFY_N)
    order = _check_size("--order", args.order, MAX_ORDER)
    if order < 2:
        raise InvalidParameter("--order must be >= 2")
    suites = SUITE_NAMES if args.suite == "all" else (args.suite,)
    pair = pair_from_family(spec, max_order=2 * args.max_n + 6)
    report = verify_pair(pair, suites, args.max_n, order)
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
        for note in report.notes:
            print(f"note: {note}")
        print(f"overall: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def cmd_genfun(args: argparse.Namespace) -> int:
    spec = resolve_family(args)
    _check_size("--n", args.n, MAX_N)
    order = _check_size("--order", args.order, MAX_ORDER)
    pair = _rows_pair(spec, args.n)
    truncated = genfun_truncated(pair, args.n, order)
    closed = genfun_closed_form(pair, args.n, order)  # UnsupportedFamily for custom
    difference = truncated - closed
    if args.format == "latex":
        _print_latex_array(
            f"family {pair.name}, n = {args.n}, order = {order}",
            ((f"y^{{{nu}}}", poly_latex(truncated.coeff(nu)), poly_latex(difference.coeff(nu)))
             for nu in range(order + 1)))
    else:
        doc = {
            "family": pair.name,
            "params": _params_doc(pair.params),
            "n": args.n,
            "order": order,
            "truncated": series_to_strings(truncated),
            "closed_form": series_to_strings(closed),
            "difference": series_to_strings(difference),
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
    sub.add_argument("--family-file", help="path to a JSON family description")
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
    compute.add_argument("--n", type=int, required=True,
                         help=f"table size (top degree), at most {MAX_N}")
    compute.add_argument("--nu", type=int, default=None, help="emit only row nu")
    compute.add_argument("--format", choices=("text", "json", "latex"), default="text")
    compute.set_defaults(func=cmd_compute)

    verify = sub.add_parser("verify", help="run exact identity suites over a grid")
    _add_family_arguments(verify)
    verify.add_argument("--max-n", type=int, default=8,
                        help=f"largest n in the grid, at most {MAX_VERIFY_N}")
    verify.add_argument("--order", type=int, default=12,
                        help=f"series truncation order, at most {MAX_ORDER}")
    verify.add_argument("--suite", choices=("all",) + SUITE_NAMES, default="all")
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.set_defaults(func=cmd_verify)

    genfun = sub.add_parser("genfun", help="emit the generating series both ways")
    _add_family_arguments(genfun)
    genfun.add_argument("--n", type=int, required=True, help=f"series index, at most {MAX_N}")
    genfun.add_argument("--order", type=int, default=8,
                        help=f"series truncation order, at most {MAX_ORDER}")
    genfun.add_argument("--format", choices=("json", "latex"), default="json")
    genfun.set_defaults(func=cmd_genfun)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CopolyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
