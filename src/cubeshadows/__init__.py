"""Cube vertices under orthogonal projection onto central hyperplane sections.

The library answers one geometric question and its consequences: given a
unit direction u, does some vertex of the cube [-1, 1]^n project into
the section of the cube by the hyperplane through the origin orthogonal
to u? The answer is controlled by a single number, the product of the
l1 and sup norms of u, compared against the threshold 2.
"""

__version__ = "0.1.0"

from .errors import (
    DegenerateSample,
    DimensionMismatch,
    DimensionTooLarge,
    InvalidDimension,
    NonConvergence,
)
from .extremal import (
    AscentResult,
    ExtremalResult,
    closed_form_max,
    maximizer,
    numerical_max,
    stationarity_residual,
    summarize,
    threshold_dimension,
)
from .geometry import (
    CriterionResult,
    Norms,
    ShadowReport,
    UnitVector,
    Vertex,
    canonical_vertex,
    criterion,
    criterion_product,
    norms,
    project,
    shadow,
    shadow_norm_closed_form,
)
from .measure import (
    MeasureEstimate,
    criterion_product_raw,
    estimate,
    growth_scan,
    sample_sphere,
)
from .oracle import (
    AgreementStats,
    OracleVerdict,
    agreement_sweep,
    any_vertex_inside,
    enumerate_shadows,
    enumerate_shadows_naive,
    is_orthogonal_to_some_vertex,
    min_abs_inner_product,
)

__all__ = [
    "__version__",
    "AgreementStats",
    "AscentResult",
    "CriterionResult",
    "DegenerateSample",
    "DimensionMismatch",
    "DimensionTooLarge",
    "ExtremalResult",
    "InvalidDimension",
    "MeasureEstimate",
    "NonConvergence",
    "Norms",
    "OracleVerdict",
    "ShadowReport",
    "UnitVector",
    "Vertex",
    "agreement_sweep",
    "any_vertex_inside",
    "canonical_vertex",
    "closed_form_max",
    "criterion",
    "criterion_product",
    "criterion_product_raw",
    "enumerate_shadows",
    "enumerate_shadows_naive",
    "estimate",
    "growth_scan",
    "is_orthogonal_to_some_vertex",
    "maximizer",
    "min_abs_inner_product",
    "norms",
    "numerical_max",
    "project",
    "sample_sphere",
    "shadow",
    "shadow_norm_closed_form",
    "stationarity_residual",
    "summarize",
    "threshold_dimension",
]
