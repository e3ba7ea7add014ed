"""Fixed points and coincidence points under matrix-weighted vector metrics.

The package works over R^n ordered by the nonnegative orthant. Distances
are vector valued: d(x, y) = W |x - y| for a strictly positive weight
matrix W. On top of that sit contraction certificates for nonnegative
matrices (one linear solve for (I - k)^-1 and its residual, and a
Collatz-Wielandt upper bound on the spectral radius),
successive-approximation solvers with componentwise a-priori error
bounds, coincidence-point iteration for pairs of maps, and
comparison-function generalizations of the linear contraction condition.

Every solver hands each step, with its a-priori error bound, to an
on_step callback as it happens, so the bounds can be audited during the
run; the result keeps only the end status and the step count. Every
sampled hypothesis check reports the witnesses it found rather than a
bare verdict.
"""

from .contraction import (
    CERT_RESIDUAL_MAX,
    ComparisonAxiomReport,
    ContractionCertificate,
    LinearComparison,
    certify_contraction,
    check_comparison_axioms,
    comparison_apply,
    linear_comparison,
    spectral_radius,
)
from .errors import (
    EvaluationError,
    NotCertifiedError,
    PreimageError,
    UsageError,
)
from .metric import (
    MetricAxiomReport,
    WeightedMatrixMetric,
    check_metric_axioms,
    converged,
    metric_eval,
)
from .ordered_algebra import (
    OrthantCone,
    SquareMatrix,
    Vector,
    cone_contains,
    mat_apply,
    order_leq,
    order_ll,
    ring_leq,
    ring_norm,
    sup_norm,
)
from .sampling import cone_sampler, interior_sampler, uniform_sampler
from .solver import (
    PREIMAGE_TOL,
    WEAK_COMPAT_TOL,
    ConditionCReport,
    IterationTrace,
    LipschitzReport,
    MapSpec,
    SolveResult,
    SolveStatus,
    affine_preimage,
    comparison_solve,
    identity_map,
    jungck_solve,
    perov_solve,
    verify_condition_c,
    verify_matrix_lipschitz,
)

__version__ = "0.1.0"

__all__ = [
    "CERT_RESIDUAL_MAX",
    "ComparisonAxiomReport",
    "ConditionCReport",
    "ContractionCertificate",
    "EvaluationError",
    "IterationTrace",
    "LinearComparison",
    "LipschitzReport",
    "MapSpec",
    "MetricAxiomReport",
    "NotCertifiedError",
    "OrthantCone",
    "PREIMAGE_TOL",
    "PreimageError",
    "SolveResult",
    "SolveStatus",
    "SquareMatrix",
    "UsageError",
    "Vector",
    "WEAK_COMPAT_TOL",
    "WeightedMatrixMetric",
    "affine_preimage",
    "certify_contraction",
    "check_comparison_axioms",
    "check_metric_axioms",
    "comparison_apply",
    "comparison_solve",
    "cone_contains",
    "cone_sampler",
    "converged",
    "identity_map",
    "interior_sampler",
    "jungck_solve",
    "linear_comparison",
    "mat_apply",
    "metric_eval",
    "order_leq",
    "order_ll",
    "perov_solve",
    "ring_leq",
    "ring_norm",
    "spectral_radius",
    "sup_norm",
    "uniform_sampler",
    "verify_condition_c",
    "verify_matrix_lipschitz",
    "__version__",
]
