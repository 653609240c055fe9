"""spheremax: maxima of multilinear forms over products of unit spheres.

Exact algebraic solving (Groebner bases and multiplication matrices), exact
counting of extreme-point classes, projective power iteration, and the
applications: matrix 2-norm, closest rank-one tensor, and a bipartite
separability bound.
"""

from .algsolver import (
    CriticalPoint,
    GroebnerBasis,
    NormalSet,
    PolySystem,
    RationalPoly,
    SolveReport,
    build_critical_system,
    groebner,
    mult_matrix,
    normal_set,
    rationalize,
    solve_argmax,
    solve_max,
    verify_buchberger_certificate,
)
from .apps import (
    DensityState,
    EntanglementReport,
    RankOneApproximation,
    closest_rank_one,
    entanglement_check,
    matrix_norm2,
    self_overlap,
    separable_max,
)
from .chowcount import (
    MultidegreeProfile,
    count_extreme_classes,
    count_fixed_points,
    gradient_profile,
)
from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    NoConvergenceError,
    NotAStateError,
    NotZeroDimensionalError,
    SphereMaxError,
    ZeroGradientError,
)
from .linalg import Matrix
from .multiform import (
    MultilinearForm,
    MultilinearMap,
    RankOneForm,
    canonical_signs,
    evaluate,
    flatten,
    form_inner,
    form_norm,
    gradient,
    partial_gradient,
    rank_one_to_form,
)
from .poweriter import (
    IterationResult,
    Status,
    bilinear_max,
    multilinear_iterate,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CriticalPoint",
    "DensityState",
    "DimensionMismatchError",
    "EntanglementReport",
    "GroebnerBasis",
    "IterationResult",
    "Matrix",
    "MultidegreeProfile",
    "MultilinearForm",
    "MultilinearMap",
    "NoConvergenceError",
    "NormalSet",
    "NotAStateError",
    "NotZeroDimensionalError",
    "PolySystem",
    "RankOneApproximation",
    "RankOneForm",
    "RationalPoly",
    "SolveReport",
    "SphereMaxError",
    "Status",
    "ZeroGradientError",
    "bilinear_max",
    "build_critical_system",
    "canonical_signs",
    "closest_rank_one",
    "count_extreme_classes",
    "count_fixed_points",
    "entanglement_check",
    "evaluate",
    "flatten",
    "form_inner",
    "form_norm",
    "gradient",
    "gradient_profile",
    "groebner",
    "matrix_norm2",
    "mult_matrix",
    "multilinear_iterate",
    "normal_set",
    "partial_gradient",
    "rank_one_to_form",
    "rationalize",
    "self_overlap",
    "separable_max",
    "solve_argmax",
    "solve_max",
    "verify_buchberger_certificate",
]
