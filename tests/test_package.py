"""The package namespace: everything it exports resolves, and the exact
integer kernel lives in ``poly`` alone."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import copoly
import copoly.cli
import copoly.rodrigues


def test_every_exported_name_resolves():
    missing = [name for name in copoly.__all__ if not hasattr(copoly, name)]
    assert missing == []
    assert len(set(copoly.__all__)) == len(copoly.__all__)


SRC = Path(copoly.__file__).resolve().parent


def _modules() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _is_multiply_accumulate(node: ast.AST) -> bool:
    """``acc[...] += a * b``: the step of an integer convolution."""
    return (isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add)
            and isinstance(node.target, ast.Subscript)
            and isinstance(node.value, ast.BinOp) and isinstance(node.value.op, ast.Mult))


def test_only_poly_uses_lcm_and_gcd():
    """``poly`` alone puts rationals over one denominator and reduces them."""
    offenders = []
    for name, tree in _modules().items():
        if name == "poly.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "math":
                used = {alias.name for alias in node.names} & {"gcd", "lcm", "*"}
            elif isinstance(node, ast.Attribute) and node.attr in ("gcd", "lcm"):
                used = {node.attr}
            else:
                continue
            if used:
                offenders.append((name, node.lineno, sorted(used)))
    assert offenders == []


def test_numerators_helper_is_gone():
    names = [(name, node.lineno) for name, tree in _modules().items() for node in ast.walk(tree)
             if (isinstance(node, ast.FunctionDef) and node.name == "_numerators")
             or (isinstance(node, ast.Name) and node.id == "_numerators")
             or (isinstance(node, ast.alias) and node.name == "_numerators")]
    assert names == []


def test_one_integer_convolution_loop():
    """A multiply-accumulate in a loop nested in a loop is written once, in ``poly._convolve``."""
    loops = set()
    for name, tree in _modules().items():
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            for outer in ast.walk(function):
                if isinstance(outer, ast.For) and any(
                        isinstance(inner, ast.For) and inner is not outer
                        and any(map(_is_multiply_accumulate, ast.walk(inner)))
                        for inner in ast.walk(outer)):
                    loops.add((name, function.name))
    assert loops == {("poly.py", "_convolve")}


def test_no_kernel_converts_poly_coeffs():
    """A ``Poly`` already holds its integer form, so no kernel converts ``.coeffs`` to it."""
    calls = [(name, node.lineno) for name, tree in _modules().items() for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "_integer_form"
             and any(isinstance(inner, ast.Attribute) and inner.attr == "coeffs"
                     for arg in node.args for inner in ast.walk(arg))]
    assert calls == []


def test_functional_calculus_computes_on_stored_forms():
    """``functional`` reads no ``Poly.coeffs`` anywhere, and no ``block`` closure
    builds a ``Fraction``: blocks return integer numerators over one denominator."""
    tree = _modules()["functional.py"]
    coeffs = [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr == "coeffs"]
    fractions = [node.lineno for block in ast.walk(tree)
                 if isinstance(block, ast.FunctionDef) and block.name == "block"
                 for node in ast.walk(block)
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                 and node.func.id == "Fraction"]
    assert (coeffs, fractions) == ([], [])


def test_series_kernels_compute_on_stored_forms():
    """``SeriesYX`` holds one integer form, and its kernels, ``genfun_truncated``
    and the row stencils of ``pde_residual`` read integer forms: none of them
    reads ``.coeffs`` or calls ``coeff``, which build ``Poly``s."""
    modules = _modules()
    cls = next(node for node in ast.walk(modules["series.py"])
               if isinstance(node, ast.ClassDef) and node.name == "SeriesYX")
    slots = next(ast.literal_eval(node.value) for node in cls.body
                 if isinstance(node, ast.Assign) and node.targets[0].id == "__slots__")
    kernels = {"series.py": {"_cauchy", "_first_order", "_of", "truncate", "_combine",
                             "__neg__", "_scale", "differentiate_x", "differentiate_y",
                             "is_zero", "__eq__", "__hash__"},
               "genfun.py": {"genfun_truncated", "pde_residual", "_residual"}}
    found = {(name, function.name) for name, names in kernels.items()
             for function in ast.walk(modules[name])
             if isinstance(function, ast.FunctionDef) and function.name in names}
    reads = [(name, function.name, node.lineno) for name, names in kernels.items()
             for function in ast.walk(modules[name])
             if isinstance(function, ast.FunctionDef) and function.name in names
             for node in ast.walk(function)
             if isinstance(node, ast.Attribute) and node.attr in ("coeffs", "coeff")]
    assert slots == ("_order", "_den", "_nums")
    assert found == {(name, function) for name, names in kernels.items() for function in names}
    assert reads == []


def test_exp_and_pow_have_no_loop_of_their_own():
    """Both are one check and one call of the shared first-order recurrence."""
    loops = [(function.name, node.lineno)
             for function in ast.walk(_modules()["series.py"])
             if isinstance(function, ast.FunctionDef)
             and function.name in ("series_exp", "series_pow_rational")
             for node in ast.walk(function)
             if isinstance(node, (ast.For, ast.While, ast.comprehension))]
    assert loops == []


def test_functional_residuals_have_one_entry_point():
    """Each functional identity has one public ``*_residual`` that returns its
    functional, and a ``MomentFunctional`` has one generator option, ``block``."""
    modules = _modules()
    twins = [(name, node.name) for name, tree in modules.items() for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef)
             and node.name in ("_pearson", "_leibniz", "_sturm_liouville", "_rodrigues_formula")]
    cls = next(node for node in ast.walk(modules["functional.py"])
               if isinstance(node, ast.ClassDef) and node.name == "MomentFunctional")
    init = next(node for node in cls.body
                if isinstance(node, ast.FunctionDef) and node.name == "__init__")
    params = [arg.arg for arg in init.args.args + init.args.kwonlyargs]
    assert (twins, params) == ([], ["self", "initial", "block"])


def test_chebyshev_kernel_computes_on_integer_forms():
    """``chebyshev_ops`` reads the stored moment form, not ``Fraction`` moments,
    and builds no ``Fraction`` per mixed moment or coefficient."""
    function = next(node for node in ast.walk(_modules()["oracle.py"])
                    if isinstance(node, ast.FunctionDef) and node.name == "chebyshev_ops")
    reads = sorted({node.attr for node in ast.walk(function)
                    if isinstance(node, ast.Attribute) and node.attr in ("_form", "moments")})
    fractions = [node.lineno for comp in ast.walk(function)
                 if isinstance(comp, (ast.ListComp, ast.GeneratorExp, ast.SetComp, ast.DictComp))
                 for node in ast.walk(comp)
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                 and node.func.id == "Fraction"]
    assert (reads, fractions) == (["_form"], [])


def test_one_way_into_a_pair():
    """``ClassicalPair`` takes ``(phi, psi, u0)`` and never a functional, the
    removed helpers stay gone, and ``_pearson_form`` alone reads ``phi`` and
    ``psi`` into integers: no other function reads their degree, ``_nums`` or
    ``_den``, or puts them over one denominator with ``_over_lcm``."""
    modules = _modules()
    cls = next(node for node in ast.walk(modules["rodrigues.py"])
               if isinstance(node, ast.ClassDef) and node.name == "ClassicalPair")
    init = next(node for node in cls.body
                if isinstance(node, ast.FunctionDef) and node.name == "__init__")
    params = [arg.arg for arg in init.args.args + init.args.kwonlyargs]
    gone = {"custom_family", "CATALOG", "check_pearson_degrees", "_eigen_coefficients"}
    uses = [(name, node.lineno) for name, tree in modules.items() for node in ast.walk(tree)
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in gone)
            or (isinstance(node, ast.Name) and node.id in gone)
            or (isinstance(node, ast.alias) and node.name in gone)
            or (isinstance(node, ast.Constant) and node.value in gone)]

    def is_pair_part(node: ast.AST) -> bool:
        return getattr(node, "id", getattr(node, "attr", None)) in ("phi", "psi")

    readers = {(name, function.name) for name, tree in modules.items()
               for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
               for node in ast.walk(function)
               if (isinstance(node, ast.Attribute) and node.attr in ("degree", "_nums", "_den")
                   and isinstance(node.value, (ast.Name, ast.Attribute))
                   and is_pair_part(node.value))
               or (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_over_lcm"
                   and any(isinstance(sub, (ast.Name, ast.Attribute)) and is_pair_part(sub)
                           for sub in ast.walk(node)))}
    assert (params, uses, readers) == (
        ["self", "phi", "psi", "u0", "name", "params", "max_order"], [],
        {("functional.py", "_pearson_form")})


def test_one_failure_contract():
    """The exceptions that only carried a counterexample to ``verify`` stay gone,
    ``cli`` raises no bare ``ValueError``, and ``cli.main`` maps a closed stdout to
    141, exactly ``CopolyError`` and other ``OSError``s to exit 2 and everything
    else to exit 3."""
    modules = _modules()
    gone = {"MismatchError", "NotProportional", "check_call"}
    uses = [(name, node.lineno) for name, tree in modules.items() for node in ast.walk(tree)
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in gone)
            or (isinstance(node, ast.Name) and node.id in gone)
            or (isinstance(node, ast.Attribute) and node.attr in gone)
            or (isinstance(node, ast.alias) and node.name in gone)]
    raised = [ast.unparse(node.exc.func) for node in ast.walk(modules["cli.py"])
              if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)]
    main = next(node for node in modules["cli.py"].body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    handlers = [ast.unparse(h.type) for node in ast.walk(main) if isinstance(node, ast.Try)
                for h in node.handlers]
    assert (uses, "ValueError" in raised) == ([], False)
    assert handlers == ["BrokenPipeError", "(CopolyError, OSError)", "Exception"]


def test_one_pair_type():
    """The catalog returns checked pairs; the CLI's unchecked request and the
    sweep's row table are not exported, and only ``cli`` uses the request.  The
    CLI looks a family up with the catalog's own ``_catalog_spec``, and the
    request path keeps one copy of each job: no lookup wrapper or alias, and no
    second builder of ``compute``'s JSON document."""
    pairs = [copoly.catalog_family("laguerre", 1), copoly.hermite_family(),
             copoly.laguerre_family(1), copoly.jacobi_family(1, 2), copoly.bessel_family(1)]
    unexported = {"FamilySpec", "pair_from_family", "CompTable", "complementary_table"}
    request = {"FamilySpec", "pair_from_family"}
    users = {name for name, tree in _modules().items() for node in ast.walk(tree)
             if (isinstance(node, ast.Name) and node.id in request)
             or (isinstance(node, ast.alias) and node.name in request)
             or (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in request)}
    gone = {"_catalog_lookup", "build_compute_document", "_compute_document"}
    copies = [(name, node.lineno) for name, tree in _modules().items() for node in ast.walk(tree)
              if (isinstance(node, ast.FunctionDef) and node.name in gone)
              or (isinstance(node, ast.Name) and node.id in gone)
              or (isinstance(node, ast.alias) and {node.name, node.asname} & gone)]
    assert {type(pair) for pair in pairs} == {copoly.ClassicalPair}
    assert unexported & set(copoly.__all__) == set()
    assert users == {"cli.py", "rodrigues.py"}
    assert copoly.cli._catalog_spec is copoly.rodrigues._catalog_spec
    assert (copies, hasattr(copoly.cli, "build_compute_document")) == ([], False)


def test_one_number_reader():
    """``poly.as_rational`` is the one reader of numeric text: no ``cli`` argument
    converts with argparse's ``type=``, no module but ``poly`` compiles a pattern, and
    the two exception classes folded into ``InvalidParameter`` stay gone."""
    modules = _modules()
    typed = [node.lineno for node in ast.walk(modules["cli.py"])
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "add_argument"
             and any(keyword.arg == "type" for keyword in node.keywords)]
    patterns = {name for name, tree in modules.items() for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "compile"
                and isinstance(node.value, ast.Name) and node.value.id == "re"}
    gone = [path.name for path in sorted(SRC.glob("*.py"))
            if {"UnknownIdentifier", "UnsupportedFamily"} & set(
                re.findall(r"\w+", path.read_text(encoding="utf-8")))]
    assert (typed, patterns, gone) == ([], {"poly.py"}, [])


def test_two_ways_into_a_pair():
    """The JSON family file and its second catalog-shape check stay gone: a pair
    comes from ``--family`` or from ``--phi``/``--psi``."""
    gone = {"load_family_file", "_JsonInteger", "family_file"}
    uses = [(name, node.lineno) for name, tree in _modules().items() for node in ast.walk(tree)
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in gone)
            or (isinstance(node, ast.Name) and node.id in gone)
            or (isinstance(node, ast.Attribute) and node.attr in gone)
            or (isinstance(node, ast.alias) and node.name in gone)]
    assert uses == []


def test_one_record_per_suite():
    """A suite run has one record, ``SuiteResult``: the second tally record stays
    gone, and every suite takes the pair, the report and its own result."""
    modules = _modules()
    gone = {"_Tally"}
    uses = [(name, node.lineno) for name, tree in modules.items() for node in ast.walk(tree)
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in gone)
            or (isinstance(node, ast.Name) and node.id in gone)
            or (isinstance(node, ast.Attribute) and node.attr in gone)
            or (isinstance(node, ast.alias) and node.name in gone)]
    signatures = {node.name: [arg.arg for arg in node.args.args]
                  for node in modules["verify.py"].body
                  if isinstance(node, ast.FunctionDef) and node.name.startswith("_suite_")}
    assert uses == []
    assert signatures == {f"_suite_{name}": ["pair", "report", "result"]
                          for name in copoly.SUITE_NAMES}


def test_output_is_written_from_stored_forms():
    """The term writers and the coefficient strings read ``(_den, _nums)``, never
    ``Poly.coeffs``, and ``cli._print_json`` is the one JSON writer: nothing in
    the package calls ``json.dump``, every ``json.dumps`` call and ``JSONEncoder``
    sits in ``_print_json`` or in the module-level ``_ENCODER``, and no function in
    ``cli.py`` calls itself (the framer writes only a document's top level)."""
    modules = _modules()
    writers = {"poly.py": ("_text_term", "_signed_sum", "_coefficient_texts"),
               "render.py": ("poly_to_strings", "_latex_magnitude", "_latex_term",
                             "poly_latex")}
    coeffs = [(name, function.name) for name, names in writers.items()
              for function in ast.walk(modules[name])
              if isinstance(function, ast.FunctionDef) and function.name in names
              for node in ast.walk(function)
              if (isinstance(node, ast.Attribute) and node.attr == "coeffs")
              or (isinstance(node, ast.Name) and node.id == "Fraction")]
    dumps = [(name, node.lineno) for name, tree in modules.items() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "dump"]
    encoders = {(name, top.name if hasattr(top, "name") else ast.unparse(top).split(" = ")[0])
                for name, tree in modules.items() for top in tree.body
                for node in ast.walk(top)
                if (isinstance(node, ast.Attribute) and node.attr in ("dumps", "JSONEncoder"))
                or (isinstance(node, ast.Name) and node.id in ("dumps", "JSONEncoder"))
                or (isinstance(node, ast.alias) and node.name in ("dumps", "JSONEncoder"))}
    recursive = [function.name for function in ast.walk(modules["cli.py"])
                 if isinstance(function, ast.FunctionDef)
                 for node in ast.walk(function)
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                 and node.func.id == function.name]
    assert (coeffs, dumps, recursive) == ([], [], [])
    assert encoders == {("cli.py", "_print_json"), ("cli.py", "_ENCODER")}
