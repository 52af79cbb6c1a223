"""qpdiff: solver-agnostic differentiation of strictly convex QPs.

Solve with any registered backend, identify the active constraints from the
primal solution, and obtain duals, directional derivatives, and parameter
gradients through a single reduced-KKT factorization.
"""

__version__ = "0.1.0"

from .bilevel import BilevelConfig, BilevelResult, run_bilevel, toy_bilevel_config
from .diagnostics import (
    GradientCheck,
    check_gradients,
    conditioning_report,
    profile_backends,
    random_direction,
)
from .differentiation import (
    DifferentiableSolution,
    GradientBundle,
    ParamDirection,
    backward,
    differentiable_solve,
    forward_directional,
    recover_duals,
)
from .errors import (
    DegeneracyError,
    DimensionError,
    DuplicateBackendError,
    EnumerationLimitError,
    InfeasibleProblemError,
    NormalizationError,
    ProblemFormatError,
    QpdiffError,
    RankDeficiencyError,
    SolveFailedError,
    UnknownBackendError,
)
from .generators import (
    TWO_PARAM_BOX,
    TWO_PARAM_BREAKS,
    gen_chain,
    gen_random_dense,
    gen_random_sparse,
    gen_simplex,
    gen_two_param_family,
)
from .identification import (
    ActiveSet,
    DifferentiabilityDiagnosis,
    diagnose,
    identify,
)
from .kkt import (
    KktFactorization,
    ReducedKkt,
    assemble_reduced_kkt,
    condition_estimate,
    factorize,
)
from .metrics import Residuals, residuals
from .oracles import (
    JacobianMatrix,
    brute_force_solve,
    finite_difference_jacobian,
    full_implicit_jacobian,
    full_implicit_matrix,
)
from .problem import (
    QpProblem,
    RowScaling,
    ValidationReport,
    load_problem,
    normalize_constraints,
    store_problem,
    validate,
)
from .solvers import (
    ActiveSetBackend,
    AdmmBackend,
    EqualityBackend,
    PrimalDualPoint,
    SolveSettings,
    SolverBackend,
    get_backend,
    list_backends,
    register_backend,
)

import types as _types

__all__ = [
    name
    for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
]
