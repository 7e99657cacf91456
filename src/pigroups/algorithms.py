"""End-to-end drivers for estimating the unique, relevance-ranked groups.

Two routes to the gradient second-moment matrix of the dimensionless
relationship g(gamma):

* the surface route fits a polynomial to (gamma, pi) pairs from a
  space-filling design and integrates its analytic gradient, one chunk
  of quadrature points at a time;
* the finite-difference route perturbs each group coordinate of every
  quadrature point and differences the experiment itself, one run of at
  most 2**15 points and their shifted copies per experiment call, so its
  working arrays do not grow with the rule.

Both read the rule's points and weights by row range, so neither holds
an array that grows with the rule. Both integrate in the original
variables, where the uniform product density is exactly what the tensor
rule integrates; the induced density on gamma is never materialized. A
full-space variant differences all m log-variables to expose the ridge
structure of the raw input-output map.

An experiment is any object whose ``evaluate_batch`` maps an (N, m) array
of points, one run per row, to the N dependent values.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .dimension import (
    PiBasis,
    QuantitySystem,
    build_dimension_matrix,
    check_dimensionless,
)
from .errors import (
    EXTERNAL_DEFAULTS,
    MAX_POINTS,
    ConfigError,
    ToolkitError,
    check_count,
    check_positive,
)
from .quadrature import (
    GL_MAX_POINTS,
    QuadratureRule,
    RegimeBox,
    latin_hypercube,
    monte_carlo_rule,
    tensor_rule,
    tensor_size,
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
# most rule points per run of the finite-difference route: the default
# external batch, so that a run and its n shifted copies go out as n + 1
# batches of the run's size
_RUN_ROWS = EXTERNAL_DEFAULTS["batch_size"]


@dataclass(frozen=True)
class AlgorithmConfig:
    """Knobs shared by both algorithms, checked on construction.

    ``quad`` is ``tensor:<p>``, p in [1, ``GL_MAX_POINTS``], or ``mc:<N>``, N
    in [1, ``MAX_POINTS``]; ``h`` is finite and positive (kept as a float);
    the integers ``degree`` >= 1, ``seed`` >= 0, ``design`` in [1,
    ``MAX_POINTS``] and ``holdout`` in [0, ``MAX_POINTS``]. ``design`` and
    ``holdout`` only matter for the surface route, ``h`` only for finite
    differences.
    """

    h: float = 1e-6
    degree: int = 2
    quad: str = "tensor:11"
    seed: int = 0
    design: int = 1000
    holdout: int = 200

    def __post_init__(self):
        # a config file can hold any JSON value, so types are checked too
        object.__setattr__(self, "h", check_positive("--h", self.h))
        check_count("--degree", self.degree, 1)
        check_count("--design", self.design, 1, MAX_POINTS)
        check_count("--holdout", self.holdout, 0, MAX_POINTS)
        check_count("--seed", self.seed, 0)
        self.parse_quad()

    def parse_quad(self):
        kind, _, arg = str(self.quad).partition(":")
        if kind not in ("tensor", "mc") or not arg.isdecimal():
            raise ConfigError(f"--quad must be 'tensor:<p>' or 'mc:<N>', got {self.quad!r}")
        option, high = (("--quad tensor:<p>", GL_MAX_POINTS) if kind == "tensor"
                        else ("--quad mc:<N>", MAX_POINTS))
        # int() refuses a string of over 4,300 digits, leading zeros too: they
        # are dropped, and a count with more digits than MAX_POINTS is refused
        digits = arg[next((i for i, c in enumerate(arg) if int(c)), len(arg) - 1):]
        if len(digits) > len(str(MAX_POINTS)):
            shown = digits if len(digits) <= 20 else f"{len(digits)} digits"
            raise ConfigError(f"{option} must be at most {high}, got {shown}")
        return kind, check_count(option, int(digits), 1, high)

    def check_sizes(self, m: int, n: int | None = None) -> None:
        """``ConfigError`` unless the rule over m variables and the design for n groups fit."""
        kind, count = self.parse_quad()
        if kind == "tensor":
            tensor_size(count, m)
        needed = 0 if n is None else n_coefficients(n, self.degree)
        if self.design < needed:
            raise ConfigError(f"design of {self.design} cannot fit {needed} surrogate coefficients")


def build_rule(box: RegimeBox, config: AlgorithmConfig) -> QuadratureRule:
    kind, count = config.parse_quad()
    if kind == "tensor":
        return tensor_rule(box, count)
    return monte_carlo_rule(box, count, config.seed)


def evaluate_experiment(experiment, points: np.ndarray, where=None, layout=None) -> np.ndarray:
    """One ``evaluate_batch`` call at the (N, m) points, checked for N finite values.

    A non-finite value is reported at ``where(i)`` for its row i, by
    default at "point index i". A failure the experiment raises itself
    indexes the rows of the call; ``layout``, if given, says what those
    rows hold, ahead of the message and in an error of the same class."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    try:
        values = np.asarray(experiment.evaluate_batch(points), dtype=float).reshape(-1)
    except ToolkitError as exc:
        if layout is None:
            raise
        raise type(exc)(f"{layout}: {exc}") from exc
    except Exception as exc:
        ahead = "" if layout is None else f"{layout}: "
        raise ToolkitError(f"{ahead}experiment raised {exc!r}") from exc
    if values.shape[0] != points.shape[0]:
        raise ToolkitError(
            f"experiment returned {values.shape[0]} values for {points.shape[0]} points"
        )
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        at = f"point index {bad}" if where is None else where(bad)
        raise ToolkitError(f"experiment returned {float(values[bad])!r} at {at}")
    return values


class CountingExperiment:
    """Wrapper that counts the rows it passes on, for budgets and manifests."""

    def __init__(self, experiment):
        self.experiment = experiment
        self.count = 0

    def evaluate_batch(self, points):
        self.count += len(points)
        return self.experiment.evaluate_batch(points)


def _weight(X, w, out=None) -> np.ndarray:
    """exp(-w^T x) at the log-points X, in ``out`` or a fresh N-vector. w^T x
    is an einsum, not X @ w: OpenBLAS threads that thin (N, m) product, and on
    a small host its idle workers keep spinning through the runs that follow."""
    weight = np.einsum("ij,j->i", X, w, out=out)
    np.negative(weight, out=weight)
    return np.exp(weight, out=weight)


def _pi(experiment, points, X, w, where) -> np.ndarray:
    """pi = q exp(-w^T x) at the points, with X = log(points); a non-finite
    value of the experiment is reported at ``where(i)`` for its row i."""
    pi = _weight(X, w)
    pi *= evaluate_experiment(experiment, points, where)
    return pi


class _ForwardDifferences:
    """Forward differences of pi = q exp(-w^T x) along each column of W at
    the rule's points, as (N, n) gradient rows made run by run.

    With x = log q, the k-th shifted copy of a point moves x by h W[:, k];
    w = 0 and W = I difference the raw map in every log-variable. The rule
    is split into ceil(N / ``_RUN_ROWS``) runs whose sizes differ by at most
    one point, as an external experiment splits a call into batches. A run
    of r points is one experiment call: the r points, then their n shifted
    copies, r rows each. ``assemble_C`` slices the rows in order; a slice
    evaluates the runs it reaches, and one that crosses the end of a run
    joins the rows of both, so C is summed exactly as from a whole (N, n)
    array. ``trace``, if given, receives each run's points, pi and
    gradients once they are made. A non-finite reply is named by its rule
    point and copy; a failure the experiment raises itself indexes the rows
    of the run's call, so it is raised again, as the same class, after the
    run's rule points and how the call's rows map onto them.

    Memory, whatever N: the current run's (n + 1) r x m call, its r x m
    log-points, (n + 1) r weights and replies, and its r x n gradients,
    with r <= ``_RUN_ROWS``. The rule hands out its points and quadrature
    weights by row range, so neither is ever built whole.
    """

    def __init__(self, experiment, rule: QuadratureRule, w, W, h: float, trace=None):
        N = len(rule)
        count = -(-N // _RUN_ROWS)
        self.edges = [N * b // count for b in range(count + 1)]
        self.experiment, self.rule, self.w, self.W, self.h = experiment, rule, w, W, h
        self.trace = trace
        self.shape = (N, W.shape[1])
        self.run = (0, 0, None)  # first row, end and gradients of the current run

    def __getitem__(self, rows: slice) -> np.ndarray:
        start, stop, _ = rows.indices(self.shape[0])
        pieces = []
        while start < stop:
            first, end, grads = self.run
            if not first <= start < end:
                b = bisect.bisect_right(self.edges, start) - 1
                first, end = self.edges[b], self.edges[b + 1]
                grads = self._evaluate(first, end)
                self.run = first, end, grads
            take = min(stop, end)
            pieces.append(grads[start - first:take - first])
            start = take
        return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)

    def _evaluate(self, first: int, end: int) -> np.ndarray:
        w, W, h = self.w, self.W, self.h
        r, (m, n) = end - first, W.shape
        Q = np.empty(((n + 1) * r, m))
        Q[:r] = self.rule.rows(first, end)
        X = np.log(Q[:r])
        shifted = Q[r:]
        np.add(X, (h * W.T)[:, None, :], out=shifted.reshape(n, r, m))
        pi = np.empty((n + 1) * r)
        _weight(X, w, out=pi[:r])
        del X
        _weight(shifted, w, out=pi[r:])
        # the shifted log-points become the copies' points in place: a
        # fresh call array each run, because the experiment may keep it
        np.exp(shifted, out=shifted)

        def where(i):
            point, copy = first + i % r, i // r
            return f"point index {point}" + (f" shifted by h W[:, {copy - 1}]" if copy else "")

        layout = (f"rule points {first} to {end - 1}, where call row i is point {first} + i mod "
                  f"{r} in copy i div {r} (copy k > 0 is shifted by h W[:, k - 1])")
        # the reply may be an array the experiment keeps: it is only read
        pi *= evaluate_experiment(self.experiment, Q, where, layout)
        pi0 = pi[:r]
        diffs = pi[r:].reshape(n, r)
        diffs -= pi0
        diffs /= h
        grads = diffs.T.copy()
        if self.trace is not None:
            self.trace(Q[:r], pi0, grads)
        return grads


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

    ``assemble_C`` reads its gradient rows one chunk at a time, and a slice
    asks the rule for just its rows, so the points, log-points, groups,
    features and gradients of the whole rule are never held at once: row r
    is ``grad_surface(surface, log(rule.rows(r, r + 1)) @ W)``.
    """

    def __init__(self, surface: ResponseSurface, rule: QuadratureRule, W: np.ndarray):
        self.surface, self.rule, self.W = surface, rule, W
        self.shape = (len(rule), W.shape[1])

    def __getitem__(self, rows: slice) -> np.ndarray:
        start, stop, _ = rows.indices(self.shape[0])
        return grad_surface(self.surface, np.log(self.rule.rows(start, stop)) @ self.W)


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
    config.check_sizes(box.m, W.shape[1])
    points = latin_hypercube(box, config.design, config.seed)
    logq = np.log(points)
    pi = _pi(experiment, points, logq, w, lambda i: f"design point {i}")
    gamma = logq @ W
    surface = fit_polynomial(gamma, pi, config.degree)

    holdout_rmse = None
    if config.holdout > 0:
        fresh = latin_hypercube(box, config.holdout, config.seed + 1)
        fresh_log = np.log(fresh)
        fresh_pi = _pi(experiment, fresh, fresh_log, w, lambda i: f"hold-out point {i}")
        pred = eval_surface(surface, fresh_log @ W)
        holdout_rmse = float(np.sqrt(np.mean((pred - fresh_pi) ** 2)))

    rule = build_rule(box, config)
    C = assemble_C(_SurfaceGradients(surface, rule, W), rule.weights)
    if trace is not None:
        trace(points, pi, grad_surface(surface, gamma))
    return _finalize(system, W, C, {
        "algorithm": "surface",
        "degree": config.degree,
        "quadrature": f"{config.quad} (N={len(rule)})",
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
    """Finite-difference route: N base points plus N shifted points per group.

    Exactly N (n + 1) experiment evaluations for an N-point rule, one call
    per run of at most ``_RUN_ROWS`` points; ``trace`` receives each run's
    points, pi and gradients, in rule order.
    """
    w, W = basis.w, basis.W
    h = config.h
    rule = build_rule(box, config)
    C = assemble_C(_ForwardDifferences(experiment, rule, w, W, h, trace), rule.weights)
    return _finalize(system, W, C, {
        "algorithm": "finite_difference",
        "h": h,
        "quadrature": f"{config.quad} (N={len(rule)})",
        "w": w,
        "evaluations": int(len(rule) * (basis.n + 1)),
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
    m = rule.m
    C = assemble_C(_ForwardDifferences(experiment, rule, np.zeros(m), np.eye(m), h),
                   rule.weights)
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
