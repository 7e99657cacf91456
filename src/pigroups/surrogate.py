"""Polynomial response surfaces over the log-group variables.

Multivariate least squares on the full monomial basis of a given total
degree, with the inputs standardized to zero mean and unit scale before
fitting. Gradients are analytic, which is the point: the surface-based
algorithm differentiates the surrogate instead of the experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import IllConditioned, ShapeMismatch, NonFinite, Underdetermined

CONDITION_LIMIT = 1e12


def n_coefficients(n: int, degree: int) -> int:
    """Number of monomials of total degree <= degree in n variables."""
    return comb(n + degree, degree)


def multi_indices(n: int, degree: int) -> np.ndarray:
    """Exponent rows in graded lexicographic order, constant term first."""
    rows = []
    for total in range(degree + 1):
        block = [idx for idx in _compositions(total, n)]
        block.sort(reverse=True)
        rows.extend(block)
    return np.array(rows, dtype=int).reshape(len(rows), n)


def _compositions(total, n):
    if n == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, n - 1):
            yield (head,) + tail


@dataclass(frozen=True)
class ResponseSurface:
    """Fitted polynomial in standardized coordinates."""

    degree: int
    n: int
    coefficients: np.ndarray   # one per monomial, graded-lex order
    center: np.ndarray         # per-coordinate training mean
    scale: np.ndarray          # per-coordinate training scale, strictly positive
    train_rmse: float

    def to_dict(self) -> dict:
        return {
            "degree": self.degree,
            "n": self.n,
            "coefficients": self.coefficients,
            "center": self.center,
            "scale": self.scale,
            "train_rmse": self.train_rmse,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ResponseSurface":
        return cls(
            degree=int(doc["degree"]),
            n=int(doc["n"]),
            coefficients=np.asarray(doc["coefficients"], dtype=float),
            center=np.asarray(doc["center"], dtype=float),
            scale=np.asarray(doc["scale"], dtype=float),
            train_rmse=float(doc["train_rmse"]),
        )


def _features(X: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    # X: (N, n), alphas: (T, n) -> (N, T)
    return np.prod(X[:, None, :] ** alphas[None, :, :], axis=2)


def fit_polynomial(designs, targets, degree: int) -> ResponseSurface:
    """Least-squares polynomial fit of total degree ``degree``.

    Requires at least as many samples as coefficients and a feature matrix
    with condition number below 1e12. Inputs are standardized per
    coordinate; a coordinate with zero spread keeps scale 1.
    """
    X = np.atleast_2d(np.asarray(designs, dtype=float))
    y = np.asarray(targets, dtype=float).reshape(-1)
    if X.shape[0] != y.shape[0]:
        raise ShapeMismatch(f"{X.shape[0]} design rows vs {y.shape[0]} targets")
    if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
        raise NonFinite("designs and targets must be finite")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    N, n = X.shape
    T = n_coefficients(n, degree)
    if N < T:
        raise Underdetermined(f"{N} samples cannot determine {T} coefficients")
    center = X.mean(axis=0)
    scale = X.std(axis=0)
    scale = np.where(scale > 0.0, scale, 1.0)
    Xs = (X - center) / scale
    alphas = multi_indices(n, degree)
    A = _features(Xs, alphas)
    cond = np.linalg.cond(A)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise IllConditioned(f"feature matrix condition {cond:.3e} exceeds {CONDITION_LIMIT:.0e}")
    coeffs, *_ = np.linalg.lstsq(A, y, rcond=None)
    rmse = float(np.sqrt(np.mean((A @ coeffs - y) ** 2)))
    coeffs.flags.writeable = False
    return ResponseSurface(
        degree=degree, n=n, coefficients=coeffs,
        center=center, scale=scale, train_rmse=rmse,
    )


def eval_surface(surface: ResponseSurface, gamma):
    """Evaluate at one point (n,) or a batch (N, n)."""
    G, single = _as_batch(surface, gamma)
    Xs = (G - surface.center) / surface.scale
    vals = _features(Xs, multi_indices(surface.n, surface.degree)) @ surface.coefficients
    return float(vals[0]) if single else vals


def grad_surface(surface: ResponseSurface, gamma):
    """Analytic gradient with the chain-rule factor for the standardization."""
    G, single = _as_batch(surface, gamma)
    Xs = (G - surface.center) / surface.scale
    alphas = multi_indices(surface.n, surface.degree)
    out = np.zeros_like(G)
    for j in range(surface.n):
        mask = alphas[:, j] > 0
        if not np.any(mask):
            continue
        shifted = alphas[mask].copy()
        shifted[:, j] -= 1
        terms = _features(Xs, shifted) * (surface.coefficients[mask] * alphas[mask, j])
        out[:, j] = terms.sum(axis=1)
    out /= surface.scale
    return out[0] if single else out


def _as_batch(surface: ResponseSurface, gamma):
    G = np.asarray(gamma, dtype=float)
    single = G.ndim == 1
    G = np.atleast_2d(G)
    if G.shape[1] != surface.n:
        raise ShapeMismatch(f"surface expects {surface.n} inputs, got {G.shape[1]}")
    return G, single
