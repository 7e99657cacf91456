"""End-to-end drivers for estimating the unique, relevance-ranked groups.

Two routes to the gradient second-moment matrix of the dimensionless
relationship g(gamma):

* the surface route fits a polynomial to (gamma, pi) pairs from a
  space-filling design and integrates its analytic gradient, one chunk
  of quadrature points at a time;
* the finite-difference route perturbs each group coordinate of every
  quadrature point and differences the experiment itself.

Both integrate in the original variables, where the uniform product
density is exactly what the tensor rule integrates; the induced density
on gamma is never materialized. A full-space variant differences all m
log-variables to expose the ridge structure of the raw input-output map.

An experiment is any object whose ``evaluate_batch`` maps an (N, m) array
of points, one run per row, to the N dependent values.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral, Real
from typing import Callable, Optional

import numpy as np

from .dimension import (
    PiBasis,
    QuantitySystem,
    build_dimension_matrix,
    check_dimensionless,
)
from .errors import ToolkitError
from .quadrature import (
    GL_MAX_POINTS,
    QuadratureRule,
    RegimeBox,
    latin_hypercube,
    monte_carlo_rule,
    tensor_rule,
)
from .subspace import (
    DEGENERATE_FLAG,
    EIGEN_GAP_RTOL,
    SubspaceResult,
    assemble_C,
    eigen_gap,
    eigendecompose,
    unique_groups,
)
from .surrogate import (
    ResponseSurface,
    eval_surface,
    fit_polynomial,
    grad_surface,
    n_coefficients,
)

DIMENSIONLESS_TOL = 1e-10


@dataclass(frozen=True)
class AlgorithmConfig:
    """Knobs shared by both algorithms.

    ``quad`` is either ``tensor:<points per dimension>``, 1 to
    ``GL_MAX_POINTS``, or ``mc:<points>``, at least 1;
    ``design`` and ``holdout`` only matter for the surface route, ``h``
    only for finite differences.
    """

    h: float = 1e-6
    degree: int = 2
    quad: str = "tensor:11"
    seed: int = 0
    design: int = 1000
    holdout: int = 200

    def __post_init__(self):
        # a config file can hold any JSON value, so types are checked too
        if isinstance(self.h, bool) or not (isinstance(self.h, Real) and self.h > 0):
            raise ValueError(f"--h must be a positive number, got {self.h!r}")
        for option, value, low in (("--degree", self.degree, 1), ("--design", self.design, 1),
                                   ("--holdout", self.holdout, 0), ("--seed", self.seed, 0)):
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{option} must be an integer, got {value!r}")
            if value < low:
                bound = "nonnegative" if low == 0 else f"at least {low}"
                raise ValueError(f"{option} must be {bound}, got {value}")
        self.parse_quad()

    def parse_quad(self):
        kind, _, arg = str(self.quad).partition(":")
        if kind not in ("tensor", "mc") or not arg.isdigit():
            raise ValueError(f"--quad must be 'tensor:<p>' or 'mc:<N>', got {self.quad!r}")
        count = int(arg)
        if count < 1:
            raise ValueError(f"--quad needs at least one point, got {self.quad!r}")
        if kind == "tensor" and count > GL_MAX_POINTS:
            raise ValueError(
                f"--quad tensor:<p> needs p at most {GL_MAX_POINTS}, got {self.quad!r}")
        return kind, count


def build_rule(box: RegimeBox, config: AlgorithmConfig) -> QuadratureRule:
    kind, count = config.parse_quad()
    if kind == "tensor":
        return tensor_rule(box, count)
    return monte_carlo_rule(box, count, config.seed)


def evaluate_experiment(experiment, points: np.ndarray) -> np.ndarray:
    """One ``evaluate_batch`` call at the (N, m) points, checked for N finite values."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    try:
        values = np.asarray(experiment.evaluate_batch(points), dtype=float).reshape(-1)
    except ToolkitError:
        raise
    except Exception as exc:
        raise ToolkitError(f"experiment raised {exc!r}") from exc
    if values.shape[0] != points.shape[0]:
        raise ToolkitError(
            f"experiment returned {values.shape[0]} values for {points.shape[0]} points"
        )
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise ToolkitError(f"experiment returned {values[bad]!r} at point index {bad}")
    return values


class CountingExperiment:
    """Wrapper that counts the rows it passes on, for budgets and manifests."""

    def __init__(self, experiment):
        self.experiment = experiment
        self.count = 0

    def evaluate_batch(self, points):
        self.count += len(points)
        return self.experiment.evaluate_batch(points)


def _weight(X, w) -> np.ndarray:
    """exp(-w^T x) at the log-points X, in a fresh N-vector. w^T x is an
    einsum, not X @ w: OpenBLAS threads that thin (N, m) product, and on a
    small host its idle workers keep spinning through the runs that follow."""
    weight = np.einsum("ij,j->i", X, w)
    np.negative(weight, out=weight)
    return np.exp(weight, out=weight)


def _pi(experiment, points, X, w) -> np.ndarray:
    """pi = q exp(-w^T x) at the points, with X = log(points)."""
    pi = _weight(X, w)
    pi *= evaluate_experiment(experiment, points)
    return pi


def _forward_differences(experiment, points, w, W, h: float):
    """Forward differences of pi = q exp(-w^T x) along each column of W.

    With x = log q, each shifted run moves x by h W[:, k], so one base run
    plus one run per column gives the (N, n) gradient estimate; w = 0 and
    W = I difference the raw map in every log-variable.

    Memory per run: one (N, m) array beside the caller's points (the base
    run's log-points, or the shifted copy that becomes a run's points),
    plus N-vectors: the weight, which becomes the difference, and the
    experiment's reply. The (N, n) gradients are the output.
    """
    pi0 = _pi(experiment, points, np.log(points), w)
    grads = np.empty((points.shape[0], W.shape[1]))
    for k in range(W.shape[1]):
        # the shifted log-points become the run's points in place: a fresh
        # array each run, because the experiment may keep a reference to it
        Q = np.log(points)
        Q += h * W[:, k]
        diff = _weight(Q, w)
        # the reply may be an array the experiment keeps: it is only read
        diff *= evaluate_experiment(experiment, np.exp(Q, out=Q))
        del Q  # free these points before the next run allocates its own
        diff -= pi0
        diff /= h
        grads[:, k] = diff
    return pi0, grads


def _finalize(system, W, C, extra) -> SubspaceResult:
    lam, U = eigendecompose(C)
    Z, descriptors = unique_groups(W, U, system.symbols)
    D = build_dimension_matrix(system)
    worst = max(check_dimensionless(D, Z[:, j]) for j in range(Z.shape[1]))
    if worst > DIMENSIONLESS_TOL:
        raise ToolkitError(f"group exponents are not dimensionless: |Dz| = {worst:.3e}")
    gap = eigen_gap(lam)
    metadata = {
        "groups": descriptors,
        "eigen_gap": gap,
        "unique": gap is None or gap >= EIGEN_GAP_RTOL,
        **extra,
    }
    if not metadata["unique"]:
        metadata["flag"] = DEGENERATE_FLAG
    return SubspaceResult(C=C, eigenvalues=lam, U=U, Z=Z, metadata=metadata)


class _SurfaceGradients:
    """The surrogate's gradient at the rule's points, computed per slice.

    ``assemble_C`` reads its gradient rows one chunk at a time, so the
    log-points, groups, features and gradients of the whole rule are never
    held at once: row r is ``grad_surface(surface, log(points[r]) @ W)``.
    """

    def __init__(self, surface: ResponseSurface, points: np.ndarray, W: np.ndarray):
        self.surface, self.points, self.W = surface, points, W
        self.shape = (points.shape[0], W.shape[1])

    def __getitem__(self, rows):
        return grad_surface(self.surface, np.log(self.points[rows]) @ self.W)


def algorithm1(
    experiment,
    system: QuantitySystem,
    basis: PiBasis,
    box: RegimeBox,
    config: AlgorithmConfig,
    trace: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], None]] = None,
) -> tuple[SubspaceResult, ResponseSurface]:
    """Surface route: design, fit, integrate the surrogate gradient.

    Returns the result and the fitted surface. Experiment calls:
    ``config.design`` for the fit plus ``config.holdout`` for the reported
    hold-out error; the integration phase evaluates only the surrogate.
    """
    w, W = basis.w, basis.W
    n = W.shape[1]
    needed = n_coefficients(n, config.degree)
    if config.design < needed:
        raise ToolkitError(f"design of {config.design} cannot fit {needed} surrogate coefficients")
    points = latin_hypercube(box, config.design, config.seed)
    logq = np.log(points)
    pi = _pi(experiment, points, logq, w)
    gamma = logq @ W
    surface = fit_polynomial(gamma, pi, config.degree)

    holdout_rmse = None
    if config.holdout > 0:
        fresh = latin_hypercube(box, config.holdout, config.seed + 1)
        fresh_log = np.log(fresh)
        fresh_pi = _pi(experiment, fresh, fresh_log, w)
        pred = eval_surface(surface, fresh_log @ W)
        holdout_rmse = float(np.sqrt(np.mean((pred - fresh_pi) ** 2)))

    rule = build_rule(box, config)
    C = assemble_C(_SurfaceGradients(surface, rule.points, W), rule.weights)
    if trace is not None:
        trace(points, pi, grad_surface(surface, gamma))
    return _finalize(system, W, C, {
        "algorithm": "surface",
        "degree": config.degree,
        "quadrature": _describe_rule(config, len(rule)),
        "w": w,
        "evaluations": int(config.design),
        "holdout_evaluations": int(config.holdout),
        "train_rmse": surface.train_rmse,
        "holdout_rmse": holdout_rmse,
        "seed": config.seed,
    }), surface


def algorithm2(
    experiment,
    system: QuantitySystem,
    basis: PiBasis,
    box: RegimeBox,
    config: AlgorithmConfig,
    trace: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], None]] = None,
) -> SubspaceResult:
    """Finite-difference route: N base runs plus N shifted runs per group.

    Exactly N (n + 1) experiment evaluations for an N-point rule.
    """
    w, W = basis.w, basis.W
    n = W.shape[1]
    h = config.h
    rule = build_rule(box, config)
    pi0, grads = _forward_differences(experiment, rule.points, w, W, h)
    C = assemble_C(grads, rule.weights)
    if trace is not None:
        trace(rule.points, pi0, grads)
    return _finalize(system, W, C, {
        "algorithm": "finite_difference",
        "h": h,
        "quadrature": _describe_rule(config, len(rule)),
        "w": w,
        "evaluations": int(len(rule) * (n + 1)),
        "seed": config.seed,
    })


def full_space_C(experiment, rule: QuadratureRule, h: float) -> SubspaceResult:
    """Gradient second moments of the raw map in all m log-variables.

    Forward-differences each coordinate of x = log q at the points of
    ``rule`` (a tensor or Monte Carlo rule, as built by ``build_rule``)
    and integrates with its weights.

    When the map factors through n groups, at most n + 1 eigenvalues
    survive as h shrinks; the rest are pure differencing error. The
    forward difference has an O(h) gradient error e, and for u orthogonal
    to span{w, W} the Rayleigh quotient u^T C u = E[(u^T e)^2] is O(h^2),
    so those trailing eigenvalues fall at second order in h, down to the
    eigensolver's round-off floor near m * eps * lambda_1.
    """
    m = rule.points.shape[1]
    _, grads = _forward_differences(experiment, rule.points, np.zeros(m), np.eye(m), h)
    C = assemble_C(grads, rule.weights)
    lam, U = eigendecompose(C)
    return SubspaceResult(C=C, eigenvalues=lam, U=U, Z=U, metadata={
        "algorithm": "full_space",
        "h": h,
        "evaluations": int(len(rule) * (m + 1)),
    })


def predict_dependent(surface: ResponseSurface, w, W, q_vec) -> float:
    """Semi-empirical prediction exp(w^T log q) * g_hat(W^T log q).

    The exponential factor restores the dependent variable's units, so the
    prediction is dimensionally homogeneous by construction.
    """
    q_vec = np.asarray(q_vec, dtype=float)
    if np.any(q_vec <= 0.0):
        raise ToolkitError("prediction requires strictly positive inputs")
    logq = np.log(q_vec)
    w = np.asarray(w, dtype=float)
    W = np.asarray(W, dtype=float)
    return float(np.exp(logq @ w) * eval_surface(surface, W.T @ logq))


def _describe_rule(config: AlgorithmConfig, size: int) -> str:
    return f"{config.quad} (N={size})"
