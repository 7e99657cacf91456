"""Shared test utilities: the pipe system's JSON document, a surface file,
synthetic ridge experiments, the per-point forward-difference oracle for
algorithm 2's batched loop, the whole-rule forward differences and trace
file that its runs must reproduce bit for bit, the graded monomial order and the direct
monomial and per-term gradient oracles for the response-surface kernels,
the per-value CSV encoder that the external batch formatter must match,
the classical-basis coordinates of group exponents (criterion 5), a
rule over points given in full, the per-column sign rule that
``normalize_column_signs`` must match and the two-state unit-expression
parser that ``parse_unit_expr`` must match."""

import json
import re
from itertools import product

import numpy as np

from pigroups import jsonio
from pigroups.dimension import MAX_EXPONENT
from pigroups.errors import ConfigError, ToolkitError
from pigroups.quadrature import QuadratureRule
from pigroups.surrogate import fit_polynomial


# the pipe system as a quantity-system file holds it
PIPE_SYSTEM_DOC = {
    "base_units": ["kg", "m", "s"],
    "independents": [
        {"name": "fluid density", "symbol": "rho", "dims": [1, -3, 0]},
        {"name": "fluid viscosity", "symbol": "mu", "dims": [1, -1, -1]},
        {"name": "pipe diameter", "symbol": "D", "dims": [0, 1, 0]},
        {"name": "pipe roughness", "symbol": "eps", "dims": [0, 1, 0]},
        {"name": "fluid velocity", "symbol": "V", "dims": [0, 1, -1]},
    ],
    "dependent": {"name": "pressure loss", "symbol": "dpdx", "dims": [1, -2, -2]},
    "w": [1.0, 0.0, -1.0, 0.0, 2.0],
}


def surface_file(**changes):
    """A surface file as ``analyze`` writes one for a two-group system of
    five quantities, with ``changes`` to its top-level keys."""
    gen = np.random.default_rng(5)
    surface = fit_polynomial(gen.normal(size=(20, 2)), gen.normal(size=20), 2)
    doc = {"surface": surface.to_dict(), "w": [1.0, 0.0, -1.0, 0.0, 2.0], "W": np.eye(5, 2)}
    return {**json.loads(jsonio.dumps(doc)), **changes}


class SpanMismatch(ToolkitError):
    """Group exponents do not lie in the span of the classical basis."""


def express_in_classical(Z, W_classical):
    """Solve Z = W_classical E by least squares; returns (E, residual).

    The classical columns must span the same null space: a max-abs
    residual above 1e-6 raises SpanMismatch.
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    Wc = np.atleast_2d(np.asarray(W_classical, dtype=float))
    if Z.shape[0] != Wc.shape[0]:
        raise ToolkitError(f"Z has {Z.shape[0]} rows, classical basis has {Wc.shape[0]}")
    E, *_ = np.linalg.lstsq(Wc, Z, rcond=None)
    residual = float(np.max(np.abs(Wc @ E - Z)))
    if residual > 1e-6:
        raise SpanMismatch(
            f"groups leave the classical span: residual {residual:.3e} > 1e-6"
        )
    return E, residual


class RidgeExperiment:
    """Experiment of the form q = exp(w . log q_vec) * fn(W^T log q_vec)."""

    def __init__(self, w, W, fn):
        self.w = np.asarray(w, dtype=float)
        self.W = np.asarray(W, dtype=float)
        self.fn = fn

    def evaluate_batch(self, points):
        X = np.log(np.atleast_2d(np.asarray(points, dtype=float)))
        return np.exp(X @ self.w) * self.fn(X @ self.W)


def evaluate_point(experiment, q_vec) -> float:
    """The experiment's value at one point, evaluated as a batch of one row."""
    return float(experiment.evaluate_batch(np.asarray(q_vec, dtype=float)[None, :])[0])


def linear_g(a, c0=2.0):
    a = np.asarray(a, dtype=float)
    return lambda G: c0 + G @ a


def exp_g(a):
    a = np.asarray(a, dtype=float)
    return lambda G: np.exp(G @ a)


def quadratic_g(a, Q, c0=1.0):
    a = np.asarray(a, dtype=float)
    Q = np.asarray(Q, dtype=float)
    return lambda G: c0 + G @ a + 0.5 * np.einsum("ni,ij,nj->n", G, Q, G)


def fd_shift_point(q_vec, W, k: int, h: float) -> np.ndarray:
    """Point whose k-th log-group coordinate is shifted by h.

    Minimum-change solution of W^T log q' = gamma + h e_k: shift log q
    along column k of W (valid because the columns are orthonormal).
    """
    q_vec = np.asarray(q_vec, dtype=float)
    W = np.asarray(W, dtype=float)
    if not 0 <= k < W.shape[1]:
        raise ToolkitError(f"group index {k} outside [0, {W.shape[1] - 1}]")
    if np.any(q_vec <= 0.0):
        raise ToolkitError("q_vec must be strictly positive")
    logq = np.log(q_vec)
    shifted = np.exp(logq + h * W[:, k])
    target = W.T @ logq
    target[k] += h
    if np.max(np.abs(W.T @ np.log(shifted) - target)) > 1e-12:
        raise ToolkitError("shifted point violates its defining system")
    return shifted


def fd_gradient(experiment, q_vec, pi_base: float, w, W, h: float) -> np.ndarray:
    """Forward-difference gradient of g at one point; n extra evaluations."""
    q_vec = np.asarray(q_vec, dtype=float)
    w = np.asarray(w, dtype=float)
    W = np.asarray(W, dtype=float)
    n = W.shape[1]
    grad = np.empty(n)
    logq = np.log(q_vec)
    for k in range(n):
        shifted = np.exp(logq + h * W[:, k])
        try:
            q_shift = evaluate_point(experiment, shifted)
        except Exception as exc:
            raise ToolkitError(
                f"experiment failed at shifted point {shifted.tolist()}: {exc!r}"
            ) from exc
        pi_shift = q_shift * np.exp(-np.dot(w, np.log(shifted)))
        grad[k] = (pi_shift - pi_base) / h
    return grad


def fd_whole_rule(experiment, points, w, W, h: float):
    """pi = q exp(-w^T x) and its forward differences along each column of
    W at all the points at once, from the whole rule's log-points X, one
    experiment call per shifted copy. Returns pi and the (N, n) gradients."""
    X = np.log(points)
    pi0 = experiment.evaluate_batch(points) * np.exp(-np.einsum("ij,j->i", X, w))
    grads = np.empty((len(points), W.shape[1]))
    for k in range(W.shape[1]):
        Q = X + h * W[:, k]
        pik = experiment.evaluate_batch(np.exp(Q)) * np.exp(-np.einsum("ij,j->i", Q, w))
        grads[:, k] = (pik - pi0) / h
    return pi0, grads


def fd_copies(points, W, h: float) -> list:
    """The points, then their copies shifted by h W[:, k] in log space."""
    X = np.log(points)
    return [points] + [np.exp(X + h * W[:, k]) for k in range(W.shape[1])]


def whole_trace(path, symbols, points, pi, grads) -> None:
    """``trace.csv`` written in one piece from the whole rule's arrays."""
    header = ",".join(list(symbols) + ["pi"] + [f"g_{j + 1}" for j in range(grads.shape[1])])
    np.savetxt(path, np.column_stack([points, pi, grads]), delimiter=",", header=header,
               comments="", fmt="%.17g")


def multi_indices(n: int, degree: int) -> np.ndarray:
    """Exponent rows of the surrogate's basis in graded lexicographic order:
    by total degree, then by descending rows; the constant term first."""
    rows = sorted((a for a in product(range(degree + 1), repeat=n) if sum(a) <= degree),
                  key=lambda a: (sum(a), [-e for e in a]))
    return np.array(rows, dtype=int).reshape(len(rows), n)


def monomials(X, alphas) -> np.ndarray:
    """Direct formula prod_j X[:, j] ** alphas[t, j], shape (N, T)."""
    X = np.asarray(X, dtype=float)
    return np.prod(X[:, None, :] ** alphas[None, :, :], axis=2)


def surface_gradient_terms(surface, gamma) -> list:
    """Terms of the surface gradient before the 1/scale factor, per coordinate.

    Entry j has shape (N, T_j): c_alpha * alpha_j * x^(alpha - e_j) at the
    standardized points x, for each monomial with alpha_j > 0, built by the
    direct formula.
    """
    G = np.atleast_2d(np.asarray(gamma, dtype=float))
    Xs = (G - surface.center) / surface.scale
    alphas = multi_indices(surface.n, surface.degree)
    terms = []
    for j in range(surface.n):
        mask = alphas[:, j] > 0
        shifted = alphas[mask].copy()
        shifted[:, j] -= 1
        terms.append(monomials(Xs, shifted) * (surface.coefficients[mask] * alphas[mask, j]))
    return terms


def surface_gradient_per_term(surface, gamma) -> np.ndarray:
    """Gradient of a response surface, (N, n): the term sums over scale."""
    terms = surface_gradient_terms(surface, gamma)
    return np.stack([t.sum(axis=1) for t in terms], axis=1) / surface.scale


class PointsRule(QuadratureRule):
    """A quadrature rule over the rows of an (N, m) array and a weight
    vector, both given in full."""

    def __init__(self, points, weights):
        self.points = np.atleast_2d(np.asarray(points, dtype=float))
        self.vector = np.asarray(weights, dtype=float).reshape(-1)
        super().__init__(self.points.shape[1], self.points.shape[0])

    def rows(self, start: int, stop: int) -> np.ndarray:
        return self.points[start:stop].copy()

    def weights(self, start: int, stop: int) -> np.ndarray:
        return self.vector[start:stop].copy()


def csv_request(symbols, Q) -> str:
    """Request text of one external batch, formatted one value at a time."""
    text = ",".join(symbols) + "\n"
    return text + "\n".join(",".join("%.17g" % v for v in row) for row in Q) + "\n"


def column_signs_by_loop(M) -> np.ndarray:
    """M with each column negated whose lead is negative, one column at a
    time: the lead is the first entry whose magnitude is within one part in
    1e12 of the column's maximum, and a zero column is left as it is."""
    M = np.array(M, dtype=float, copy=True)
    for j in range(M.shape[1]):
        mags = np.abs(M[:, j])
        top = mags.max()
        if top == 0.0:
            continue
        lead = int(np.flatnonzero(mags >= top * (1.0 - 1e-12))[0])
        if M[lead, j] < 0:
            M[:, j] = -M[:, j]
    return M


_TERM = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|1)\s*(?:\^\s*([+-]?\d+))?\s*")
_OP = re.compile(r"([*/])")


def unit_expr_by_flag(text, base_units) -> tuple:
    """The exponents of a unit expression, read by a loop that flips a flag
    between expecting a term and expecting an operator; an expression that
    is empty or ends on an operator is refused after the loop."""
    base_units = list(base_units)
    index = {name: i for i, name in enumerate(base_units)}
    exps = [0.0] * len(base_units)
    pos = 0
    sign = 1
    expect_term = True
    while pos < len(text):
        if expect_term:
            m = _TERM.match(text, pos)
            if m is None:
                raise ConfigError(f"expected a term at position {pos} in {text!r}")
            name, power = m.group(1), m.group(2)
            exponent = 1 if power is None else int(power)
            if abs(exponent) > MAX_EXPONENT:
                raise ConfigError(f"exponent {exponent} exceeds |{MAX_EXPONENT}|")
            if name != "1":
                if name not in index:
                    raise ConfigError(f"base unit {name!r} not declared")
                exps[index[name]] += sign * exponent
            pos = m.end()
            expect_term = False
        else:
            m = _OP.match(text, pos)
            if m is None:
                raise ConfigError(f"expected '*' or '/' at position {pos} in {text!r}")
            sign = 1 if m.group(1) == "*" else -1
            pos = m.end()
            expect_term = True
    if expect_term:
        raise ConfigError(f"expression {text!r} ends on an operator or is empty")
    return tuple(exps)
