"""Polynomial response surfaces over the log-group variables.

Multivariate least squares on the full monomial basis of a given total
degree, with the inputs standardized to zero mean and unit scale before
fitting. Gradients are analytic, which is the point: the surface-based
algorithm differentiates the surrogate instead of the experiment. The
monomials are built by running products, and the gradient comes from the
coefficients differentiated once into the degree d - 1 basis, so a
gradient over any number of points is one feature build and one matmul.
Memory per call is rows x T floats; the surface route passes its rule
4,096 rows at a time.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement
from math import comb

import numpy as np

from . import jsonio
from .errors import ToolkitError, check_count

CONDITION_LIMIT = 1e12


def n_coefficients(n: int, degree: int) -> int:
    """Number of monomials of total degree <= degree in n variables."""
    return comb(n + degree, degree)


@dataclass(frozen=True)
class ResponseSurface:
    """Fitted polynomial in standardized coordinates.

    Construction makes the arrays float arrays and ``train_rmse`` a float, then checks
    that ``n`` >= 1 and ``degree`` >= 0 are integers (``ConfigError``), the shapes
    against them, that every value is finite and the scale positive (``ValueError``),
    so a tampered or truncated ``surface.json`` fails naming the field.
    """

    degree: int
    n: int
    coefficients: np.ndarray   # one per monomial, graded-lex order
    center: np.ndarray         # per-coordinate training mean
    scale: np.ndarray          # per-coordinate training scale, strictly positive
    train_rmse: float

    def __post_init__(self):
        for name in ("coefficients", "center", "scale"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        object.__setattr__(self, "train_rmse", float(self.train_rmse))
        check_count("surface n", self.n, 1)
        check_count("surface degree", self.degree, 0)
        sizes = {"coefficients": n_coefficients(self.n, self.degree),
                 "center": self.n, "scale": self.n}
        for name, size in sizes.items():
            shape = np.shape(getattr(self, name))
            if shape != (size,):
                raise ValueError(
                    f"surface {name} has shape {shape}, expected ({size},) "
                    f"for n={self.n}, degree={self.degree}"
                )
        for name in (*sizes, "train_rmse"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"surface {name} must be finite")
        if not np.all(self.scale > 0.0):
            raise ValueError("surface scale must be strictly positive")

    @cached_property
    def _dcoef(self) -> np.ndarray:
        """The coefficients differentiated once, built on first use: column j
        holds d/dx_j on the degree d - 1 basis (see ``grad_surface``)."""
        # graded order: the degree d - 1 basis is a prefix of the degree d one
        dcoef = np.zeros((n_coefficients(self.n, max(self.degree - 1, 0)), self.n))
        for t, j, s, e in _basis(self.n, self.degree)[1]:
            dcoef[s, j] = self.coefficients[t] * e
        dcoef.flags.writeable = False
        return dcoef

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ResponseSurface":
        jsonio.check_keys(doc, [f.name for f in fields(cls)], "surface")
        return cls(**{f.name: doc[f.name] for f in fields(cls)})


@lru_cache(maxsize=None)
def _basis(n: int, degree: int):
    """The degree-``degree`` basis in n variables, built once per (n, degree).

    A monomial is the sorted tuple of its variables' indices, one per unit
    of exponent; ``combinations_with_replacement`` lists them degree by
    degree in graded lexicographic order (descending exponent rows within
    a degree). Returns each monomial's parent in the running-product build
    of ``_features``, (t, (s, j)) with s the tuple without its last index
    j, and its lowerings (t, j, s, e), one per distinct index j, which
    monomial t holds e times and monomial s holds once less.
    """
    monomials = [m for total in range(degree + 1)
                 for m in combinations_with_replacement(range(n), total)]
    index = {m: t for t, m in enumerate(monomials)}
    parents = tuple((t, (index[m[:-1]], m[-1])) for t, m in enumerate(monomials) if m)
    lowerings = []
    for t, m in enumerate(monomials):
        for j in dict.fromkeys(m):
            k = m.index(j)
            lowerings.append((t, j, index[m[:k] + m[k + 1:]], m.count(j)))
    return parents, tuple(lowerings)


def _features(X: np.ndarray, degree: int) -> np.ndarray:
    """Monomials of total degree <= degree of the rows of X (N, n), one
    column per monomial of ``_basis(n, degree)``: (N, T).

    Each column after the constant is an earlier column times one
    coordinate (the monomial's last index).
    """
    parents, _ = _basis(X.shape[1], degree)
    A = np.empty((X.shape[0], len(parents) + 1))
    A[:, 0] = 1.0
    for t, (s, j) in parents:
        np.multiply(A[:, s], X[:, j], out=A[:, t])
    return A


def fit_polynomial(designs, targets, degree: int) -> ResponseSurface:
    """Least-squares polynomial fit of total degree ``degree``.

    Requires at least as many samples as coefficients and a feature matrix
    with condition number below 1e12. Inputs are standardized per
    coordinate; a coordinate with zero spread keeps scale 1.
    """
    X = np.atleast_2d(np.asarray(designs, dtype=float))
    y = np.asarray(targets, dtype=float).reshape(-1)
    if X.shape[0] != y.shape[0]:
        raise ToolkitError(f"{X.shape[0]} design rows vs {y.shape[0]} targets")
    if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
        raise ToolkitError("designs and targets must be finite")
    if degree < 0:
        raise ToolkitError("degree must be nonnegative")
    N, n = X.shape
    T = n_coefficients(n, degree)
    if N < T:
        raise ToolkitError(f"{N} samples cannot determine {T} coefficients")
    center = X.mean(axis=0)
    scale = X.std(axis=0)
    scale = np.where(scale > 0.0, scale, 1.0)
    Xs = (X - center) / scale
    A = _features(Xs, degree)
    coeffs, _, _, sv = np.linalg.lstsq(A, y, rcond=None)
    cond = sv[0] / sv[-1] if sv[-1] > 0.0 else np.inf
    if not cond <= CONDITION_LIMIT:
        raise ToolkitError(f"feature matrix condition {cond:.3e} exceeds {CONDITION_LIMIT:.0e}")
    rmse = float(np.sqrt(np.mean((A @ coeffs - y) ** 2)))
    coeffs.flags.writeable = False
    return ResponseSurface(
        degree=degree, n=n, coefficients=coeffs,
        center=center, scale=scale, train_rmse=rmse,
    )


def eval_surface(surface: ResponseSurface, gamma):
    """Evaluate at one point (n,) or a batch (N, n).

    A point's value may differ in the last bits with the batch it comes
    in: numpy sends a one-row product to BLAS gemv and a many-row one to
    gemm, which sum in different orders. A fixed batch is reproducible.
    """
    G, single = _as_batch(surface, gamma)
    Xs = (G - surface.center) / surface.scale
    vals = _features(Xs, surface.degree) @ surface.coefficients
    return float(vals[0]) if single else vals


def grad_surface(surface: ResponseSurface, gamma):
    """Analytic gradient with the chain-rule factor for the standardization.

    The polynomial is differentiated once, in coefficient space: the term
    c_alpha x^alpha puts c_alpha * alpha_j on monomial alpha - e_j of the
    degree d - 1 basis, in column j of ``surface._dcoef``, which is built
    on the first call and kept; the basis is built once per (n, degree).
    The gradient at every point is then one feature build and one matmul,
    over a (rows, T) feature matrix: memory per call is rows x T floats,
    which is why the surface route calls it on 4,096-row chunks. As for ``eval_surface``, a
    point's gradient may differ in the last bits with the batch it comes
    in (gemv against gemm).
    """
    G, single = _as_batch(surface, gamma)
    Xs = (G - surface.center) / surface.scale
    out = _features(Xs, max(surface.degree - 1, 0)) @ surface._dcoef / surface.scale
    return out[0] if single else out


def _as_batch(surface: ResponseSurface, gamma):
    G = np.asarray(gamma, dtype=float)
    single = G.ndim == 1
    G = np.atleast_2d(G)
    if G.shape[1] != surface.n:
        raise ToolkitError(f"surface expects {surface.n} inputs, got {G.shape[1]}")
    return G, single
