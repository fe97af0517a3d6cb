"""Exact Macdonald polynomials P(q, q^k) for the A-series root systems.

Everything is computed over the field of rational functions in q with
Fraction coefficients; no floating point anywhere.  The central object
is a MacdonaldContext fixing (n, k); polynomials, operators, and the
identity verifiers all hang off it.
"""

from .algebra import GroupAlgebraElement, char_lambda_r, element_to_str, orbit_sum, qdim
from .core import (
    MacdonaldContext,
    chi,
    chi0,
    delta_kernel,
    inner_product,
    load_cache,
    macdonald_coeffs,
    macdonald_poly,
    norm,
    save_cache,
)
from .exact import (
    ExactDivisionError,
    ExactScalar,
    LaurentPoly,
    evaluate_limit_q1,
    exact_div_poly,
    laurent_gcd,
    parse_poly,
    parse_scalar,
    poly_to_str,
    q_power,
    qint,
    scalar_to_str,
)
from .identities import (
    IDENTITIES,
    VerificationReport,
    cor38_ratio,
    norm_rhs,
    shapovalov_denominator,
    special_value_rhs,
    symmetry_rhs,
    verify,
    verify_grid,
)
from .operators import (
    PieriTerm,
    eigenvalue,
    macdonald_operator,
    pieri_coefficient,
    pieri_expand,
    specialized_recurrence_check,
)
from .weights import (
    RootData,
    Weight,
    dominance_leq,
    dominant_below,
    dominant_weights_up_to,
    fundamental_weight,
    lambda_r_weights,
    pairing,
    parse_weight,
    weyl_orbit,
)

__version__ = "0.1.0"

__all__ = [
    "ExactDivisionError",
    "ExactScalar",
    "GroupAlgebraElement",
    "IDENTITIES",
    "LaurentPoly",
    "MacdonaldContext",
    "PieriTerm",
    "RootData",
    "VerificationReport",
    "Weight",
    "char_lambda_r",
    "chi",
    "chi0",
    "cor38_ratio",
    "delta_kernel",
    "dominance_leq",
    "dominant_below",
    "dominant_weights_up_to",
    "eigenvalue",
    "element_to_str",
    "evaluate_limit_q1",
    "exact_div_poly",
    "fundamental_weight",
    "inner_product",
    "lambda_r_weights",
    "laurent_gcd",
    "load_cache",
    "macdonald_coeffs",
    "macdonald_operator",
    "macdonald_poly",
    "norm",
    "norm_rhs",
    "orbit_sum",
    "pairing",
    "parse_poly",
    "parse_scalar",
    "parse_weight",
    "pieri_coefficient",
    "pieri_expand",
    "poly_to_str",
    "q_power",
    "qdim",
    "qint",
    "save_cache",
    "scalar_to_str",
    "shapovalov_denominator",
    "special_value_rhs",
    "specialized_recurrence_check",
    "symmetry_rhs",
    "verify",
    "verify_grid",
    "weyl_orbit",
]
