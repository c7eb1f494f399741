"""Layer size sweep for the traced run: each layer alone at three sizes.

Every entry times one call with its inputs prepared beforehand and records
the largest coefficient bit-length of the result, because exact arithmetic
costs more as the numbers grow.  The pair is fixed (jacobi(2/3, 5/3)), not
seeded, so the rows compare across commits.  Nothing here gates a run.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

from copoly.functional import hankel_determinant, moments_from_pearson
from copoly.oracle import gram_schmidt_ops
from copoly.poly import Poly
from copoly.rodrigues import complementary_table, jacobi_family, pair_from_family
from copoly.series import SeriesYX, series_exp, series_pow_rational

SIZES = {
    "poly_mul": ("deg", (20, 40, 80)),
    "moments_from_pearson": ("k", (40, 80, 160)),
    "complementary_table": ("n", (20, 40, 80)),
    "gram_schmidt_ops": ("n", (8, 16, 24)),
    "hankel_determinant": ("n", (10, 20, 30)),
    "series_exp": ("order", (8, 12, 16)),
    "series_pow_rational": ("order", (8, 12, 16)),
}


def _bits(values) -> int:
    return max((max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values),
               default=0)


def _poly_bits(polys) -> int:
    return max((_bits(p.coeffs) for p in polys), default=0)


def _spec():
    return jacobi_family(Fraction(2, 3), Fraction(5, 3))


def _functional(depth: int):
    spec = _spec()
    u = moments_from_pearson(spec.phi, spec.psi, spec.u0, depth)
    u.moments(depth)
    return u


def _case(function: str, size: int):
    """Prepare the inputs, return (call, bits-of-result)."""
    spec = _spec()
    if function == "poly_mul":
        rows = complementary_table(pair_from_family(spec, size + 2), size).rows
        a, b = rows[size], rows[size - 1]
        return (lambda: a * b), lambda r: _poly_bits([r])
    if function == "moments_from_pearson":
        return (lambda: moments_from_pearson(spec.phi, spec.psi, spec.u0, size).moments(size),
                _bits)
    if function == "complementary_table":
        pair = pair_from_family(spec, size + 2)
        return (lambda: complementary_table(pair, size)), lambda t: _poly_bits(t.rows)
    if function == "gram_schmidt_ops":
        u = _functional(2 * size + 2)
        return (lambda: gram_schmidt_ops(u, size)), lambda o: max(_poly_bits(o.polys),
                                                                  _bits(o.norms))
    if function == "hankel_determinant":
        u = _functional(2 * size + 2)
        return (lambda: hankel_determinant(u, size)), lambda d: _bits([d])
    one_plus_xy = SeriesYX(size, [Poly.one(), Poly([0, 1])])
    if function == "series_exp":
        arg = SeriesYX(size, [Poly.zero(), Poly([2])]) * series_pow_rational(one_plus_xy, -1)
        return (lambda: series_exp(arg)), lambda s: _poly_bits(s.coeffs)
    if function == "series_pow_rational":
        base = SeriesYX(size, [Poly.one(), Poly([-1, -1])])
        return (lambda: series_pow_rational(base, Fraction(2, 3))), lambda s: _poly_bits(s.coeffs)
    raise ValueError(f"unknown sweep function {function!r}")


def run_sweep() -> dict[str, float]:
    """``sweep.<function>.<size>_s`` and ``sweep.<function>.<size>_bits`` for every row."""
    out: dict[str, float] = {}
    for function, (label, sizes) in SIZES.items():
        for size in sizes:
            call, bits = _case(function, size)
            start = perf_counter()
            result = call()
            elapsed = perf_counter() - start
            out[f"sweep.{function}.{label}{size}_s"] = elapsed
            out[f"sweep.{function}.{label}{size}_bits"] = bits(result)
    return out


def metric_names() -> list[tuple[str, str]]:
    names = []
    for function, (label, sizes) in SIZES.items():
        for size in sizes:
            names.append((f"sweep.{function}.{label}{size}_s", "s"))
            names.append((f"sweep.{function}.{label}{size}_bits", "bits"))
    return names
