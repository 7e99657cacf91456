"""Shared test utilities: synthetic ridge experiments, the per-point
forward-difference oracle for algorithm 2's batched loop, the graded
monomial order and the direct monomial and per-term gradient oracles for
the response-surface kernels, the per-value CSV encoder that the external
batch formatter must match, and the classical-basis coordinates of group
exponents (criterion 5)."""

from itertools import product

import numpy as np

from pigroups.errors import ToolkitError


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


def csv_request(symbols, Q) -> str:
    """Request text of one external batch, formatted one value at a time."""
    text = ",".join(symbols) + "\n"
    return text + "\n".join(",".join("%.17g" % v for v in row) for row in Q) + "\n"
