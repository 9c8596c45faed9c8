"""Critical structure of momentum-map norm-squares for linear torus actions.

A rank-r torus acts linearly on C^n through integer weights; the momentum
map is a shifted sum of weighted radial squares.  This package enumerates
the critical components of |Phi - target|^2 exactly over the rationals,
computes Morse indices, minimizing manifolds and equivariant Poincare
series of momentum levels, and certifies the structure numerically through
Hessian analysis, negative-gradient flow and fibrewise maximization.
"""

from .critical import (
    CriticalComponent,
    TooManyWeights,
    component_squares,
    criterion_equivalence_sample,
    criterion_predicates,
    enumerate_critical_components,
    polytope_vertices,
)
from .degeneracy import (
    FlowParams,
    FlowResult,
    HessianReport,
    fibrewise_critical_locus,
    flow_trajectory,
    grad_f,
    hess_f,
    hessian_report,
    local_coords_check,
    negative_eigenspace,
    principal_angles,
    sample_component_point,
    survey_strata,
    verify_component,
    verify_minimizing,
)
from .exactlin import (
    Rat,
    RatVec,
    as_ratvec,
    cone_member,
    nearest_affine_point,
    rational_rank,
    strict_cone_member,
)
from .poincare import (
    PoincareSeries,
    betti_numbers,
    equivariant_series,
    is_regular_value,
    series_add,
    series_normalize,
    series_shift,
    series_sub,
    series_text,
)
from .weights import (
    ActionSpec,
    SpecError,
    WeightDatum,
    momentum_value,
    momentum_value_float,
    polarization_certificate,
    validate_spec,
)

__version__ = "0.1.0"

__all__ = [
    "ActionSpec", "CriticalComponent", "FlowParams", "FlowResult",
    "HessianReport", "PoincareSeries", "Rat", "RatVec", "SpecError",
    "TooManyWeights", "WeightDatum", "as_ratvec", "betti_numbers",
    "component_squares", "cone_member", "criterion_equivalence_sample",
    "criterion_predicates", "enumerate_critical_components",
    "equivariant_series", "fibrewise_critical_locus", "flow_trajectory",
    "grad_f", "hess_f", "hessian_report", "is_regular_value",
    "local_coords_check", "momentum_value", "momentum_value_float",
    "nearest_affine_point", "negative_eigenspace", "polarization_certificate",
    "polytope_vertices", "principal_angles", "rational_rank",
    "sample_component_point", "series_add", "series_normalize",
    "series_shift", "series_sub", "series_text", "strict_cone_member",
    "survey_strata", "validate_spec", "verify_component", "verify_minimizing",
]
