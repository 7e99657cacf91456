"""Dimensional analysis with relevance-ranked, unique dimensionless groups.

Classical dimensional analysis fixes only the span of the admissible
group exponents. Given an experiment and a probability box on its
independent variables, this package rotates a null-space basis by the
eigenvectors of the gradient second-moment matrix of the dimensionless
relationship, producing groups that are unique up to sign and ordered by
how strongly the output responds to them.
"""

__version__ = "0.1.0"

from .algorithms import (
    AlgorithmConfig,
    CountingExperiment,
    algorithm1,
    algorithm2,
    full_space_C,
    predict_dependent,
)
from .dimension import (
    DimensionVector,
    PiBasis,
    Quantity,
    QuantitySystem,
    build_dimension_matrix,
    check_dimensionless,
    nullspace_basis,
    parse_unit_expr,
    pi_basis,
    solve_output_exponents,
)
from .external import ExternalExperiment
from .pipeflow import (
    PipeFlowExperiment,
    PipeState,
    colebrook,
    friction_factor,
    pipe_quantity_system,
    poiseuille,
    pressure_loss,
    regime_box,
    reynolds,
)
from .quadrature import (
    QuadratureRule,
    RegimeBox,
    gauss_legendre_1d,
    latin_hypercube,
    monte_carlo_rule,
    tensor_rule,
)
from .subspace import (
    SubspaceResult,
    assemble_C,
    eigendecompose,
    express_in_classical,
    rotation_angle,
    sensitivity_metrics,
    subspace_distance,
    unique_groups,
)
from .surrogate import (
    ResponseSurface,
    eval_surface,
    fit_polynomial,
    grad_surface,
    n_coefficients,
)
