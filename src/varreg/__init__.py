"""Variational regularization of linear inverse problems.

Solves  min_u  0.5*||F u - v||^2 + alpha*J(u)  for quadratic, l1 and
anisotropic-TV regularizers, exposes the subgradient/Bregman-distance
machinery attached to the optimality condition, and certifies the standard
stability, error-estimate and generalization-error inequalities numerically.
"""

from varreg.core import (
    DimensionMismatchError,
    LinearForwardMap,
    adjoint_consistency_check,
    as_vector,
    identity_map,
    inner,
    norm,
    operator_norm_estimate,
    substream,
)
from varreg.operators import (
    RadonGeometry,
    SampledDesign,
    draw_design,
    full_design,
    load_image_csv,
    make_convolution,
    make_dense,
    make_radon,
    make_random_dense,
    make_sampled,
    population_map,
    save_image_csv,
)
from varreg.regularizers import (
    Regularizer,
    Subgradient,
    SubgradientError,
    bregman_distance,
    is_subgradient,
    l1,
    quadratic,
    subgradient_from_optimality,
    symmetric_bregman,
    tv_aniso,
)
from varreg.solvers import (
    RegularizedSolution,
    SolverConfig,
    SolverError,
    solve_columns,
    solve_fista,
    solve_primal_dual,
    solve_tikhonov_exact,
    solve_variational,
)
from varreg.bregman_iteration import (
    BregmanStep,
    BregmanTrace,
    DebiasResult,
    bregman_iterate,
    debias_two_step,
)
from varreg.estimates import (
    EstimateReport,
    SourceInstance,
    bias_variance_study,
    check_effective_estimate,
    check_error_estimate,
    check_higher_order_estimate,
    construct_source_instance,
    convergence_study,
    distance_function,
    range_condition_defect,
    solve_source_element,
)
from varreg.risk import (
    RiskDecomposition,
    RiskPair,
    build_risk_pair,
    check_operator_error_estimate,
    check_risk_theorem,
    empirical_risk,
    error_decomposition,
    generalization_error,
    operator_generalization_gap,
    population_risk,
)

__version__ = "0.1.0"
