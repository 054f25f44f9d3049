"""Exact-arithmetic toolkit for additive maps on plane curves over
finite fields of odd characteristic.

The central question: given a curve C in the affine plane over
F_{p^k}, does a nonzero additive map f (an F_p-linear map of the
field) exist with f(x) * f(y) = 0 at every affine point (x, y) of C?
Two independent deciders answer it exactly, several forcing bounds
predict when the answer must be "no", and a valuation module builds
the explicit counterexample construction on rational function fields.

Everything is exact integer arithmetic; no floats anywhere near a
verdict.

FqElement, UniPoly, RationalFunction, SparsePoly, LinearizedMap and
Subspace are immutable slotted values, and the records (Curve,
PointSet, FibreScan, HWWindow, CoverVerdict, BoundReport,
AnalysisReport, CodeTables, ...), the field contexts (FqContext) and
the finite-field coefficient domains are immutable too.  All derive
from errors.Frozen, a hand-written base that generates no code, so
importing the package builds no class methods at run time.  Assigning
or deleting any name raises AttributeError.
"""

from .additive import (
    LinearizedMap,
    Subspace,
    hyperplane_functionals,
    trace_functional,
)
from .caps import DEFAULT_FIELD_CAP, effective_cap
from .cover import (
    AnalysisReport,
    BoundReport,
    CoverVerdict,
    analyze,
    conic_bound,
    conjectural_by_count,
    decide_by_exhaustion,
    decide_by_hyperplanes,
    elliptic_bound,
    verify_witness,
    zero_forcing_by_count,
    zero_forcing_inequality,
)
from .curve import (
    Curve,
    HWWindow,
    PointSet,
    affine_points,
    axis_parallel_lines,
    hasse_weil_window,
    load_curve_file,
    parse_curve_file,
    points_at_infinity_count,
    singular_points,
)
from .errors import (
    CapExceeded,
    ContextMismatch,
    CurvaddError,
    Inconsistent,
    ParseError,
)
from .fields import FqContext, FqElement, embed, is_prime
from .poly import (
    QQ,
    RationalFunction,
    SparsePoly,
    UniPoly,
    field_domain,
    parse_bipoly,
)
from .valuation import (
    INFINITY,
    check_x_or_inverse,
    degree_valuation,
    ext2_family_check,
    h_additive,
    in_valuation_ring,
    padic_valuation,
    random_rational_function,
    verify_valuation_axioms,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "BoundReport",
    "CapExceeded",
    "ContextMismatch",
    "CoverVerdict",
    "Curve",
    "CurvaddError",
    "DEFAULT_FIELD_CAP",
    "FqContext",
    "FqElement",
    "HWWindow",
    "INFINITY",
    "Inconsistent",
    "LinearizedMap",
    "ParseError",
    "PointSet",
    "QQ",
    "RationalFunction",
    "SparsePoly",
    "Subspace",
    "UniPoly",
    "affine_points",
    "analyze",
    "axis_parallel_lines",
    "check_x_or_inverse",
    "conic_bound",
    "conjectural_by_count",
    "decide_by_exhaustion",
    "decide_by_hyperplanes",
    "degree_valuation",
    "elliptic_bound",
    "effective_cap",
    "embed",
    "ext2_family_check",
    "field_domain",
    "h_additive",
    "hasse_weil_window",
    "hyperplane_functionals",
    "in_valuation_ring",
    "is_prime",
    "load_curve_file",
    "padic_valuation",
    "random_rational_function",
    "parse_bipoly",
    "parse_curve_file",
    "points_at_infinity_count",
    "singular_points",
    "trace_functional",
    "verify_valuation_axioms",
    "verify_witness",
    "zero_forcing_by_count",
    "zero_forcing_inequality",
]
