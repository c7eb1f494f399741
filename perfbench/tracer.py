"""Per-layer spans around ``copoly``'s module boundaries, from outside ``src/``.

``Tracer.install`` wraps the public functions of each module and the
arithmetic methods of ``Poly``, ``SeriesYX`` and ``MomentFunctional``.  A
module-level function is rebound wherever a ``copoly`` module holds it,
because ``cli``, ``verify``, ``genfun`` and ``oracle`` import names with
``from .x import y``.  ``uninstall`` puts every original back.

Spans are folded into totals as they close instead of being stored: a
verify request opens hundreds of thousands of ``Poly`` spans.  A layer's
self time is the time of its spans minus the time of the spans they enclose.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

LAYERS = {
    "poly": ("copoly.poly", ["Poly.__init__", "Poly.__add__", "Poly.__radd__", "Poly.__sub__",
                             "Poly.__rsub__", "Poly.__neg__", "Poly.__mul__", "Poly.__rmul__",
                             "Poly.__truediv__", "Poly.__pow__", "Poly.__eq__", "Poly.__call__",
                             "Poly.derivative", "Poly.monic"]),
    "functional": ("copoly.functional", [
        "MomentFunctional.moment", "MomentFunctional.moments", "moments_from_pearson",
        "functional_apply", "functional_derivative", "functional_poly_mul",
        "functional_div_linear", "leibniz_residual", "pearson_residual", "hankel_determinant"]),
    "rodrigues": ("copoly.rodrigues", [
        "pair_from_family", "psi_k", "rodrigues_r1", "rodrigues_rk", "_comp_rows",
        "complementary", "complementary_table", "lambda_n", "mu_eigenvalue", "ode_residual",
        "sturm_liouville_residual", "rodrigues_formula_residual", "derivative_proportionality",
        "leading_coeff_probe"]),
    "series": ("copoly.series", [
        "SeriesYX.__add__", "SeriesYX.__sub__", "SeriesYX.__neg__", "SeriesYX.__mul__",
        "SeriesYX.__rmul__", "SeriesYX.__pow__", "SeriesYX.truncate", "SeriesYX.differentiate_y",
        "SeriesYX.differentiate_x", "poly_shift_substitute", "series_exp", "series_pow_rational"]),
    "genfun": ("copoly.genfun", [
        "genfun_truncated", "genfun_closed_form", "genfun_phi_factor", "weight_ratio_series",
        "pde_residual", "_quadratic_prefactor"]),
    "oracle": ("copoly.oracle", [
        "gram_schmidt_ops", "orthogonality_matrix", "three_term_coefficients", "cross_validate"]),
    "verify": ("copoly.verify", ["verify_pair"]),
    "parsing": ("copoly.parsing", ["parse_poly_expr"]),
    "render": ("copoly.render", ["poly_to_strings", "series_to_strings", "poly_text",
                                 "rational_latex", "poly_latex"]),
    "cli": ("copoly.cli", ["main"]),
}

# functions whose outermost calls are also timed on their own
INCLUSIVE = {
    "genfun_closed_form": "genfun.closed_form_s",
    "pde_residual": "genfun.pde_s",
    "series_exp": "series.exp_pow_s",
    "series_pow_rational": "series.exp_pow_s",
    "hankel_determinant": "functional.hankel_s",
    "gram_schmidt_ops": "oracle.gram_schmidt_s",
    "cross_validate": "oracle.cross_validate_s",
}

COUNTS = {
    "Poly.__init__": "poly.init_calls",
    "Poly.__mul__": "poly.mul_calls",
    "Poly.__rmul__": "poly.mul_calls",
    "complementary": "rodrigues.complementary_calls",
    "genfun_truncated": "genfun.truncated_builds",
    "MomentFunctional.moment": "functional.moment_calls",
    "parse_poly_expr": "parsing.calls",
    "main": "cli.requests",
}


# functions whose results feed a metric (see Tracer._observe)
OBSERVED = {"Poly.__mul__", "Poly.__rmul__", "_comp_rows", "SeriesYX.__mul__",
            "SeriesYX.__rmul__", "verify_pair"}


def _coeff_bits(poly) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in poly.coeffs), default=0)


class Tracer:
    """Wraps the layers on ``install``; totals are in ``self.metrics``."""

    def __init__(self):
        self.metrics: dict[str, float] = defaultdict(float)
        self._stack = [0.0]       # time covered by child spans, one slot per open span
        self._depth: dict[str, int] = defaultdict(int)
        self._saved: list[tuple[object, str, object]] = []

    def _observe(self, name: str, args, result) -> None:
        m = self.metrics
        if name in ("Poly.__mul__", "Poly.__rmul__"):
            bits = _coeff_bits(result)
            if bits > m["poly.max_coeff_bits"]:
                m["poly.max_coeff_bits"] = bits
        elif name == "_comp_rows":
            m["rodrigues.rows_built"] += len(result)
        elif name in ("SeriesYX.__mul__", "SeriesYX.__rmul__"):
            if type(args[1]) is type(args[0]):
                m["series.cauchy_products"] += 1
        elif name == "verify_pair":
            for suite in result.suites:
                m["verify.checks"] += suite.checks
                m[f"verify.{suite.suite}_s"] += suite.seconds

    def _wrap(self, layer: str, name: str, fn):
        stack, depth, metrics = self._stack, self._depth, self.metrics
        self_key = f"{layer}.self_s"
        incl_key = INCLUSIVE.get(name)
        count_key = COUNTS.get(name)
        observe = name in OBSERVED
        tracer = self

        def span(*args, **kwargs):
            stack.append(0.0)
            if incl_key:
                depth[incl_key] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                metrics[self_key] += elapsed - stack.pop()
                stack[-1] += elapsed
                if incl_key:
                    depth[incl_key] -= 1
                    if not depth[incl_key]:
                        metrics[incl_key] += elapsed
                if count_key:
                    metrics[count_key] += 1
            if observe and result is not NotImplemented:
                tracer._observe(name, args, result)
            return result
        return span

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "copoly" or n.startswith("copoly.")) and m is not None]
        try:
            for layer, (module_name, names) in LAYERS.items():
                home = sys.modules[module_name]
                for name in names:
                    if "." in name:
                        cls_name, attr = name.split(".")
                        cls = getattr(home, cls_name)
                        self._rebind(cls, attr, self._wrap(layer, name, cls.__dict__[attr]))
                        continue
                    fn = getattr(home, name)
                    wrapper = self._wrap(layer, name, fn)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is fn:
                                self._rebind(module, attr, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def _rebind(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
