"""Exact and numeric toolkit for Jacobi inversion on plane (n,s)-curves.

The exact layer builds curve families with rational or symbolic
coefficients, expands them at infinity, derives the associated first and
second kind differentials, and assembles the closed-form inversion
systems.  The numeric layer solves divisor round trips through
interpolation determinants and closes the loop on two-sheeted curves
with period matrices, theta functions, and the Abel map.
"""
from . import errors
from .abelian import (
    AbelianExpr,
    InversionSystem,
    RFunction,
    build_inversion_system,
    emit_system,
    system_payload,
    wp,
    zeta,
)
from .curves import (
    CurveFamily,
    CurvePoint,
    EntireRationalFn,
    Monomial,
    check_nondegenerate,
    family_from_text,
    family_to_text,
    make_family,
)
from .divisors import (
    Divisor,
    NumericRSystem,
    divisor_from_payload,
    divisor_payload,
    make_divisor,
    random_divisor,
    rfunctions_from_divisor,
    solve_divisor,
)
from .expansions import (
    associated_second_kind,
    check_rcond,
    expand_at_infinity,
    first_kind_basis,
)
from .hyperell import (
    PeriodData,
    WpValues,
    abel_map,
    abel_map_divisor,
    branch_points,
    compute_periods,
    hyperelliptic_from_branch_points,
    report_payload,
    verify_inversion,
    wp_from_theta,
)
from .theta import ThetaContext, theta_context

__version__ = "0.1.0"

__all__ = [
    "AbelianExpr",
    "CurveFamily",
    "CurvePoint",
    "Divisor",
    "EntireRationalFn",
    "InversionSystem",
    "Monomial",
    "NumericRSystem",
    "PeriodData",
    "RFunction",
    "ThetaContext",
    "WpValues",
    "abel_map",
    "abel_map_divisor",
    "associated_second_kind",
    "branch_points",
    "build_inversion_system",
    "check_nondegenerate",
    "check_rcond",
    "compute_periods",
    "divisor_from_payload",
    "divisor_payload",
    "emit_system",
    "errors",
    "expand_at_infinity",
    "family_from_text",
    "family_to_text",
    "first_kind_basis",
    "hyperelliptic_from_branch_points",
    "make_divisor",
    "make_family",
    "random_divisor",
    "report_payload",
    "rfunctions_from_divisor",
    "solve_divisor",
    "system_payload",
    "theta_context",
    "verify_inversion",
    "wp",
    "wp_from_theta",
    "zeta",
]
