"""Complementary polynomials of classical orthogonal families, exactly.

Given a pair ``(phi, psi)`` with ``deg phi <= 2`` and ``deg psi = 1``, the
Pearson equation ``(phi u)' = psi u`` determines a moment functional ``u``.
Iterating a first-order Rodrigues operator against the shifted functionals
``u_k = phi**k u`` produces the complementary polynomials ``C_nu(x; n)``,
whose diagonal recovers the classical orthogonal polynomials (Hermite,
Laguerre, Jacobi, Bessel).  The kernels compute on integer numerators over
one denominator and read out ``fractions.Fraction`` values; identities are
verified as exactly-zero polynomials, moment sequences, or truncated series,
never to a tolerance.
"""

from .errors import (
    AdmissibilityViolation,
    CopolyError,
    ExprSyntaxError,
    InvalidParameter,
    NotQuasiDefinite,
)
from .functional import (
    MomentFunctional,
    functional_apply,
    functional_derivative,
    functional_div_linear,
    functional_poly_mul,
    hankel_determinant,
    hankel_minors,
    leibniz_residual,
    moments_from_pearson,
    pearson_residual,
)
from .genfun import (
    PDE_IDENTITIES,
    genfun_closed_form,
    genfun_phi_factor,
    genfun_truncated,
    pde_residual,
    weight_ratio_series,
)
from .oracle import (
    MonicOPS,
    chebyshev_ops,
    cross_validate,
    gram_schmidt_ops,
    orthogonality_matrix,
    three_term_coefficients,
)
from .parsing import parse_poly_expr
from .poly import Poly, as_poly, as_rational
from .rodrigues import (
    FAMILIES,
    ClassicalPair,
    bessel_family,
    catalog_family,
    complementary,
    derivative_proportionality,
    hermite_family,
    jacobi_family,
    laguerre_family,
    lambda_n,
    leading_coeff_probe,
    mu_eigenvalue,
    ode_residual,
    psi_k,
    rodrigues_formula_residual,
    rodrigues_r1,
    rodrigues_rk,
    sturm_liouville_residual,
)
from .series import (
    SeriesYX,
    poly_shift_substitute,
    series_exp,
    series_pow_rational,
)
from .verify import SUITE_NAMES, SuiteResult, VerifyReport, verify_pair

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityViolation",
    "ClassicalPair",
    "CopolyError",
    "ExprSyntaxError",
    "FAMILIES",
    "InvalidParameter",
    "MomentFunctional",
    "MonicOPS",
    "NotQuasiDefinite",
    "PDE_IDENTITIES",
    "Poly",
    "SUITE_NAMES",
    "SeriesYX",
    "SuiteResult",
    "VerifyReport",
    "as_poly",
    "as_rational",
    "bessel_family",
    "catalog_family",
    "chebyshev_ops",
    "complementary",
    "cross_validate",
    "derivative_proportionality",
    "functional_apply",
    "functional_derivative",
    "functional_div_linear",
    "functional_poly_mul",
    "genfun_closed_form",
    "genfun_phi_factor",
    "genfun_truncated",
    "gram_schmidt_ops",
    "hankel_determinant",
    "hankel_minors",
    "hermite_family",
    "jacobi_family",
    "laguerre_family",
    "lambda_n",
    "leading_coeff_probe",
    "leibniz_residual",
    "moments_from_pearson",
    "mu_eigenvalue",
    "ode_residual",
    "orthogonality_matrix",
    "parse_poly_expr",
    "pde_residual",
    "pearson_residual",
    "poly_shift_substitute",
    "psi_k",
    "rodrigues_formula_residual",
    "rodrigues_r1",
    "rodrigues_rk",
    "series_exp",
    "series_pow_rational",
    "sturm_liouville_residual",
    "three_term_coefficients",
    "verify_pair",
    "weight_ratio_series",
]
