"""Dimensional analysis with relevance-ranked, unique dimensionless groups.

Classical dimensional analysis fixes only the span of the admissible
group exponents. Given an experiment and a probability box on its
independent variables, this package rotates a null-space basis by the
eigenvectors of the gradient second-moment matrix of the dimensionless
relationship, producing groups that are unique up to sign and ordered by
how strongly the output responds to them.

The public names below resolve on first use: ``pigroups.algorithm2``
imports ``pigroups.algorithms`` then, and ``import pigroups.pipeflow``
loads only that module and what it imports. Each access looks the name up
in its module again, so the package holds no copy of it.
"""

import importlib

__version__ = "0.1.0"

# the public names, by the module that defines each
_MODULE_NAMES = {
    "algorithms": ("AlgorithmConfig", "CountingExperiment", "algorithm1", "algorithm2",
                   "full_space_C", "predict_dependent"),
    "dimension": ("PiBasis", "Quantity", "QuantitySystem", "build_dimension_matrix",
                  "check_dimensionless", "nullspace_basis", "parse_unit_expr", "pi_basis",
                  "solve_output_exponents"),
    "external": ("ExternalExperiment",),
    "pipeflow": ("PipeFlowExperiment", "friction_factor", "pipe_quantity_system",
                 "regime_box"),
    "quadrature": ("QuadratureRule", "RegimeBox", "gauss_legendre_1d", "latin_hypercube",
                   "monte_carlo_rule", "tensor_rule"),
    "subspace": ("SubspaceResult", "assemble_C", "eigendecompose", "rotation_angle",
                 "unique_groups"),
    "surrogate": ("ResponseSurface", "eval_surface", "fit_polynomial", "grad_surface",
                  "n_coefficients"),
}
_EXPORTS = {name: module for module, names in _MODULE_NAMES.items() for name in names}
# submodules that are also reachable as attributes of a bare ``import pigroups``
_SUBMODULES = (*_MODULE_NAMES, "errors", "jsonio")

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
