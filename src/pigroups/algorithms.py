"""End-to-end drivers for estimating the unique, relevance-ranked groups.

Two routes to the gradient second-moment matrix of the dimensionless
relationship g(gamma). They differ only in how they make gradient rows,
and each is a generator that yields them in blocks, in rule order:

* the surface route fits a polynomial to (gamma, pi) pairs from a
  space-filling design and yields its analytic gradient, one range of
  quadrature points at a time;
* the finite-difference route perturbs each group coordinate of every
  quadrature point and differences the experiment itself, yielding the
  rows of one run of points per experiment call, the run and its shifted
  copies as many rows as the experiment's ``call_rows`` asks.

``assemble_C(rule, blocks)`` consumes either stream, with the rule's
weights, so no route holds an array that grows with the rule. Both
integrate in the original variables, where the uniform product density is
exactly what the tensor rule integrates; the induced density on gamma is
never materialized. A full-space variant differences all m log-variables
to expose the ridge structure of the raw input-output map.

An experiment is any object whose ``evaluate_batch`` maps an (N, m) array
of points, one run per row, to the N dependent values. It may say how many
rows one finite-difference call should hold through a ``call_rows``
attribute, an integer of at least 1; without one, a call holds the default
external batch, 2**15 rows.
"""

from __future__ import annotations

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
# most rows of one finite-difference call for an experiment without a
# ``call_rows`` attribute: the default external batch
_CALL_ROWS = EXTERNAL_DEFAULTS["batch_size"]
# rows per grad_surface call of the surface route: its features are rows x T floats
_SURFACE_ROWS = 4096


def _call_rows(experiment) -> int:
    """Most rows the experiment asks one finite-difference call to hold: an
    integer of at least 1, else ``ConfigError``."""
    if not hasattr(experiment, "call_rows"):
        return _CALL_ROWS
    return check_count("call_rows", experiment.call_rows, 1)


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
    """Wrapper that counts the rows it passes on, its calls and the rows of
    its largest call, for budgets and manifests. A finite-difference call
    through it holds as many rows as through the experiment it wraps."""

    def __init__(self, experiment):
        self.experiment = experiment
        self.count = 0
        self.calls = 0
        self.largest_call = 0

    @property
    def call_rows(self) -> int:
        return _call_rows(self.experiment)

    def evaluate_batch(self, points):
        self.count += len(points)
        self.calls += 1
        self.largest_call = max(self.largest_call, len(points))
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


def _forward_differences(experiment, rule: QuadratureRule, w, W, h: float, trace=None):
    """Forward differences of pi = q exp(-w^T x) along each column of W at
    the rule's points: yields the (r, n) gradient rows of each run of r
    points, in rule order.

    With x = log q, the k-th shifted copy of a point moves x by h W[:, k];
    w = 0 and W = I difference the raw map in every log-variable. A run of
    r points is one experiment call: the r points, then their n shifted
    copies, r rows each. The rule is split into ceil(N / r) runs, with
    r = max(1, ``call_rows`` // (n + 1)) for the experiment's ``call_rows``,
    and run sizes that differ by at most one point, as an external
    experiment splits a call into batches. For an experiment whose rows are
    independent, as the built-in model's are, the run size changes no bit
    of the gradients, and ``assemble_C`` sums them in chunks of its own, so
    none of C either. ``trace``, if given, receives each run's points, pi
    and gradients once they are made.

    Memory, whatever N: one run's arrays, made in ``_run`` and freed when it
    returns its gradients, so no two runs' call arrays are held at once:
    its call array of (n + 1) r rows by m, where (n + 1) r <=
    max(``call_rows``, n + 1); its r x m log-points; its (n + 1) r weights
    and replies; and its r x n gradients. The built-in model asks for
    nothing and gets ``_CALL_ROWS`` rows a call; an external experiment
    asks for one batch per worker. The rule hands out its points by row
    range, so they are never built whole.
    """
    N = len(rule)
    count = -(-N // max(1, _call_rows(experiment) // (W.shape[1] + 1)))
    for b in range(count):
        yield _run(experiment, rule, N * b // count, N * (b + 1) // count, w, W, h, trace)


def _run(experiment, rule, first: int, end: int, w, W, h: float, trace) -> np.ndarray:
    """The gradient rows of rule points first to end - 1, from one
    experiment call. A non-finite reply is named by its rule point and
    copy; a failure the experiment raises itself indexes the rows of the
    call, so it is raised again, as the same class, after the run's rule
    points and how the call's rows map onto them."""
    r, (m, n) = end - first, W.shape
    Q = np.empty(((n + 1) * r, m))
    Q[:r] = rule.rows(first, end)
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
    pi *= evaluate_experiment(experiment, Q, where, layout)
    pi0 = pi[:r]
    diffs = pi[r:].reshape(n, r)
    diffs -= pi0
    diffs /= h
    grads = diffs.T.copy()
    if trace is not None:
        trace(Q[:r], pi0, grads)
    return grads


def _finalize(system, W, C, extra) -> SubspaceResult:
    lam, U = eigendecompose(C)
    Z, descriptors = unique_groups(W, U, system.symbols)
    D = build_dimension_matrix(system)
    worst = max(check_dimensionless(D, Z[:, j]) for j in range(Z.shape[1]))
    if not worst <= DIMENSIONLESS_TOL:
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


def _surface_gradients(surface: ResponseSurface, rule: QuadratureRule, W: np.ndarray):
    """The surrogate's gradient at the rule's points, yielded for one
    ``_SURFACE_ROWS`` range of rows at a time: ``grad_surface(surface,
    log(rule.rows(start, stop)) @ W)``. The points, log-points, groups,
    features and gradients of the whole rule are never held at once."""
    N = len(rule)
    for start in range(0, N, _SURFACE_ROWS):
        yield grad_surface(surface, np.log(rule.rows(start, min(start + _SURFACE_ROWS, N))) @ W)


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
    The rule and the design are refused before the first call, with a
    ``ConfigError``: a rule too large, or a design below the coefficient count.
    """
    w, W = basis.w, basis.W
    rule = build_rule(box, config)
    needed = n_coefficients(W.shape[1], config.degree)
    if config.design < needed:
        raise ConfigError(f"design of {config.design} cannot fit {needed} surrogate coefficients")
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

    C = assemble_C(rule, _surface_gradients(surface, rule, W))
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
    per run of points and their n shifted copies, at most
    max(``call_rows``, n + 1) rows, as the experiment asks (see
    ``_forward_differences``); ``trace`` receives each run's points, pi and
    gradients, in rule order.
    """
    w, W = basis.w, basis.W
    h = config.h
    rule = build_rule(box, config)
    C = assemble_C(rule, _forward_differences(experiment, rule, w, W, h, trace))
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
    C = assemble_C(rule, _forward_differences(experiment, rule, np.zeros(m), np.eye(m), h))
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
    if not np.all(q_vec > 0.0):  # NaN compares false
        raise ToolkitError("prediction requires strictly positive inputs")
    logq = np.log(q_vec)
    w = np.asarray(w, dtype=float)
    W = np.asarray(W, dtype=float)
    return float(np.exp(logq @ w) * eval_surface(surface, W.T @ logq))
