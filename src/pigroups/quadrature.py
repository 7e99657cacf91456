"""Integration rules and experimental designs over a regime box.

All rules integrate against the uniform product density on the box, so
weights always sum to one; the box volume never appears at call sites.
Random rules use a counter-based generator (Philox) so a fixed seed gives
identical points on every platform and schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jsonio
from .errors import ToolkitError

MAX_TENSOR_POINTS = 10**7
GL_MAX_POINTS = 64


@dataclass(frozen=True)
class RegimeBox:
    """Per-variable finite, strictly positive bounds, in independent-variable order."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float).reshape(-1)
        hi = np.asarray(self.upper, dtype=float).reshape(-1)
        if lo.shape != hi.shape:
            raise ToolkitError("lower and upper bounds must have equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ToolkitError("bounds must be finite")
        if np.any(lo <= 0.0) or np.any(hi <= lo):
            raise ToolkitError("bounds must satisfy 0 < lower < upper per variable")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @classmethod
    def from_pairs(cls, pairs) -> "RegimeBox":
        pairs = list(pairs)
        return cls(
            lower=np.array([p[0] for p in pairs], dtype=float),
            upper=np.array([p[1] for p in pairs], dtype=float),
        )

    @classmethod
    def from_dict(cls, doc: dict, symbols=None) -> "RegimeBox":
        bounds = doc["bounds"]
        if isinstance(bounds, dict):
            if symbols is None:
                raise ToolkitError("symbol-keyed bounds need the independent order")
            missing = [s for s in symbols if s not in bounds]
            if missing:
                raise ToolkitError(f"bounds missing for: {', '.join(missing)}")
            pairs = [bounds[s] for s in symbols]
        else:
            pairs = bounds
        return cls.from_pairs(pairs)

    @classmethod
    def from_file(cls, path, symbols=None) -> "RegimeBox":
        return jsonio.load(path, lambda doc: cls.from_dict(doc, symbols=symbols))

    @property
    def m(self) -> int:
        return self.lower.shape[0]

    @property
    def widths(self) -> np.ndarray:
        return self.upper - self.lower


@dataclass(frozen=True)
class QuadratureRule:
    """Points (N x m) with positive weights summing to one."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        P = np.atleast_2d(np.asarray(self.points, dtype=float))
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if P.shape[0] != w.shape[0]:
            raise ToolkitError("one weight per point required")
        if abs(w.sum() - 1.0) > 1e-10:
            raise ToolkitError(f"weights sum to {w.sum()!r}, expected 1")
        P.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "points", P)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return self.points.shape[0]


def gauss_legendre_1d(p: int):
    """Gauss-Legendre nodes and weights on [-1, 1], from numpy's ``leggauss``.

    Nodes ascend and the rule is made exactly +/- symmetric; weights sum
    to 2 and the rule integrates polynomials of degree <= 2p - 1 exactly.
    """
    if not isinstance(p, (int, np.integer)) or not 1 <= p <= GL_MAX_POINTS:
        raise ToolkitError(f"point count {p} outside [1, {GL_MAX_POINTS}]")
    x, w = np.polynomial.legendre.leggauss(p)
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    return x, w


def tensor_rule(box: RegimeBox, p: int) -> QuadratureRule:
    """Tensor-product Gauss-Legendre rule over the box, p points per dimension.

    The 1-D rule is mapped affinely onto each interval and the product is
    laid out in row-major dimension order; weights absorb the uniform
    density so they sum to one. The point count p**m is capped at 1e7.
    """
    if p ** box.m > MAX_TENSOR_POINTS:
        raise ToolkitError(f"{p}^{box.m} exceeds the {MAX_TENSOR_POINTS:.0e} point guard")
    x, w = gauss_legendre_1d(p)
    m = box.m
    # row-major layout: column j of the (p, ..., p, m) grid varies along axis j
    points = np.empty((p,) * m + (m,))
    for j, (lo, hi) in enumerate(zip(box.lower, box.upper)):
        points[..., j] = (lo + (x + 1.0) * 0.5 * (hi - lo)).reshape((p,) + (1,) * (m - 1 - j))
    # w sums to 2 on [-1,1]; halving makes each axis integrate its uniform density
    axis_w = [0.5 * w] * m
    weights = np.ones(1)
    for aw in axis_w:
        weights = np.multiply.outer(weights, aw)
    return QuadratureRule(points=points.reshape(-1, m), weights=weights.reshape(-1))


def monte_carlo_rule(box: RegimeBox, N: int, seed: int) -> QuadratureRule:
    """N i.i.d. uniform draws from the box, each with weight 1/N."""
    if N < 1:
        raise ToolkitError(f"need at least one point, got {N}")
    gen = np.random.Generator(np.random.Philox(seed))
    u = gen.random((N, box.m))
    points = box.lower + u * box.widths
    return QuadratureRule(points=points, weights=np.full(N, 1.0 / N))


def latin_hypercube(box: RegimeBox, N: int, seed: int) -> np.ndarray:
    """Latin hypercube design: N points whose 1-D projections each hit
    every one of the N equal strata exactly once.

    Per dimension, a seeded permutation assigns strata and a uniform
    jitter places the point inside its stratum.
    """
    if N < 1:
        raise ToolkitError(f"need at least one sample, got {N}")
    gen = np.random.Generator(np.random.Philox(seed))
    points = np.empty((N, box.m))
    for j in range(box.m):
        strata = gen.permutation(N)
        jitter = gen.random(N)
        u = (strata + jitter) / N
        points[:, j] = box.lower[j] + u * box.widths[j]
    return points
