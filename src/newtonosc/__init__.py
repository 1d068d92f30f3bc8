"""Decay analysis for oscillatory integrals with polynomial phases.

Exact combinatorics (Newton polygon, fractional power series of the zero
set of the mixed Hessian) drive predicted decay rates; dense midpoint
discretizations of the operator measure them; dyadic block estimates and
the dyadic-coefficient lower bound check the machinery in between.
"""

from .blocks import (
    BlockEstimate,
    Region,
    chi,
    classify_block,
    theta,
    verify_blocks,
)
from .dyadpol import (
    ExponentProfile,
    LowerBoundReport,
    LowerBoundSet,
    envelope_corners,
    lower_bound_set,
    verify_lower_bound,
)
from .errors import (
    DomainError,
    EmptyPolygonError,
    InsufficientSamplesError,
    NegativeExponentError,
    NoConvergenceError,
    ParseError,
    ResolutionError,
)
from .newton import (
    DecayReport,
    DegeneracyKind,
    NewtonPolygon,
    analyze_decay,
    build_polygon,
    decay_rate,
)
from .opnorm import (
    DiscreteOperator,
    GridSpec,
    PhaseSpec,
    discretize,
    operator_norm,
)
from .polycore import BivarPoly, integrate_xy, mixed_derivative, parse_poly
from .puiseux import BranchSet, PuiseuxBranch, PuiseuxTerm, Reality, expand_branches
from .scaling import (
    NormSample,
    ScalingReport,
    SweepConfig,
    fit_decay,
    norm_at,
    predicted_exponent,
    sweep,
    verify_theorem,
)

__all__ = [
    "BivarPoly",
    "BlockEstimate",
    "BranchSet",
    "DecayReport",
    "DegeneracyKind",
    "DiscreteOperator",
    "DomainError",
    "EmptyPolygonError",
    "ExponentProfile",
    "GridSpec",
    "InsufficientSamplesError",
    "LowerBoundReport",
    "LowerBoundSet",
    "NegativeExponentError",
    "NewtonPolygon",
    "NoConvergenceError",
    "NormSample",
    "ParseError",
    "PhaseSpec",
    "PuiseuxBranch",
    "PuiseuxTerm",
    "Reality",
    "Region",
    "ResolutionError",
    "ScalingReport",
    "SweepConfig",
    "analyze_decay",
    "build_polygon",
    "chi",
    "classify_block",
    "decay_rate",
    "discretize",
    "envelope_corners",
    "expand_branches",
    "fit_decay",
    "integrate_xy",
    "lower_bound_set",
    "mixed_derivative",
    "norm_at",
    "operator_norm",
    "parse_poly",
    "predicted_exponent",
    "sweep",
    "theta",
    "verify_blocks",
    "verify_lower_bound",
    "verify_theorem",
]
