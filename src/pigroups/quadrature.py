"""Integration rules and experimental designs over a regime box.

All rules integrate against the uniform product density on the box, so
weights always sum to one; the box volume never appears at call sites.
Random rules use a counter-based generator (Philox) so a fixed seed gives
identical points on every platform and schedule.

A rule hands out its points and its weights by row range, so a caller
that works through it in pieces holds one piece at a time, and no rule
holds or builds an array that grows with its point count N. A tensor
rule keeps only its 1-D axes and factor weights and computes a range from
the digits of the row indices; a Monte Carlo rule keeps its seed and
draws a range from the generator's place for it, and every one of its
weights is 1/N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jsonio
from .errors import MAX_POINTS, ToolkitError, check_count

GL_MAX_POINTS = 64
# weights per slice of a sum check: a tensor rule's slice costs mostly per
# call, so long slices sum its weights at a third of the cost of 4,096-row ones
_SUM_ROWS = 2**15


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
        bounds = np.array(list(pairs), dtype=float)
        if bounds.ndim != 2 or bounds.shape[1] != 2:
            raise ToolkitError("bounds must be [lower, upper] pairs")
        return cls(lower=bounds[:, 0], upper=bounds[:, 1])

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
            pairs = list(bounds)
            if symbols is not None and len(pairs) != len(symbols):
                raise ToolkitError(f"bounds has {len(pairs)} pairs for {len(symbols)} symbols")
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


class QuadratureRule:
    """N points in m dimensions with positive weights summing to one.

    ``rows(start, stop)`` makes the points of rows start to stop - 1 as a
    fresh (stop - start, m) array, and ``weights[start:stop]`` gives their
    weights. ``weights`` is an (N,) array or any object with an (N,)
    ``shape`` whose slices are weights, as ``assemble_C`` reads them; the
    tensor and Monte Carlo rules make both points and weights only as such
    ranges. Each kind of rule says how it makes its points and passes its
    m, its weights and its point count N, which the weights must match, to
    this constructor.
    """

    def __init__(self, m: int, weights, count: int):
        self.m = m
        self.weights = _checked_weights(weights, count)

    def rows(self, start: int, stop: int) -> np.ndarray:
        raise NotImplementedError

    def __len__(self) -> int:
        return self.weights.shape[0]


class _TensorRule(QuadratureRule):
    """Row-major tensor product of 1-D rules: row i takes from axis j the
    node whose index is digit j of i in base p, the first digit most
    significant. ``axes`` is the (m, p) array of the mapped nodes and
    ``factor`` the p weights of each axis."""

    def __init__(self, axes: np.ndarray, factor: np.ndarray):
        axes.flags.writeable = False
        self.axes = axes
        super().__init__(axes.shape[0], _TensorWeights(factor, axes.shape[0]),
                         axes.shape[1] ** axes.shape[0])

    def rows(self, start: int, stop: int) -> np.ndarray:
        # the node values themselves: the same bits as the rows of the meshgrid
        index = np.arange(start, stop)
        out = np.empty((index.size, self.m))
        for j in range(self.m - 1, -1, -1):
            index, digit = np.divmod(index, self.axes.shape[1])
            out[:, j] = self.axes[j, digit]
        return out


class _TensorWeights:
    """The p**m weights of a tensor rule, made per slice: the weight of row
    i is 1.0 times factor[digit j of i] for j = 0, ..., m - 1, multiplied
    in that order, as ``functools.reduce(np.multiply.outer, [np.ones(1)] +
    [factor] * m)`` multiplies them, so every bit is the same."""

    def __init__(self, factor: np.ndarray, m: int):
        factor.flags.writeable = False
        self.factor, self.m = factor, m
        self.shape = (factor.shape[0] ** m,)

    def __getitem__(self, rows: slice) -> np.ndarray:
        start, stop, _ = rows.indices(self.shape[0])
        p = self.factor.shape[0]
        # the first j digits of rows start to stop - 1 run from start // p**(m - j)
        # to ceil(stop / p**(m - j)) - 1, and their weight changes every p**(m - j) rows
        ranges = [(start, max(start, stop))]
        for _ in range(self.m):
            first, end = ranges[-1]
            ranges.append((first // p, -(-end // p)))
        first, end = ranges.pop()
        out = np.ones(end - first)
        for lo, hi in reversed(ranges):
            shift = first * p
            out = (out[:, None] * self.factor).reshape(-1)[lo - shift:hi - shift]
            first = lo
        return out


class _UniformWeights:
    """The N weights of a Monte Carlo rule, made per slice: each is 1/N."""

    def __init__(self, N: int):
        self.shape = (N,)

    def __getitem__(self, rows: slice) -> np.ndarray:
        start, stop, _ = rows.indices(self.shape[0])
        return np.full(max(0, stop - start), 1.0 / self.shape[0])


class _MonteCarloRule(QuadratureRule):
    """N uniform draws from the box: row i is lower + u * widths, with u
    the m doubles that follow the first i * m of a fresh Philox(seed)."""

    def __init__(self, box: RegimeBox, N: int, seed: int):
        self.box, self.seed = box, seed
        super().__init__(box.m, _UniformWeights(N), N)

    def rows(self, start: int, stop: int) -> np.ndarray:
        # Philox makes four doubles per counter step: skip whole steps,
        # then throw away the draws of the step that the range starts in.
        # advance() takes a Python int only, not a numpy integer
        skip = int(start) * self.m
        bits = np.random.Philox(self.seed)
        bits.advance(skip // 4)
        gen = np.random.Generator(bits)
        gen.random(skip % 4)
        # scaled and shifted in place: no (stop - start, m) temporaries
        out = gen.random((stop - start, self.m))
        out *= self.box.widths
        out += self.box.lower
        return out


def weight_source(weights):
    """``weights`` as slices can read them: an object with an (N,) ``shape``
    as it is, anything else as a float vector."""
    if isinstance(weights, np.ndarray) or not hasattr(weights, "shape"):
        return np.asarray(weights, dtype=float).reshape(-1)
    return weights


def weight_sum(weights) -> float:
    """The sum of a weight source, read ``_SUM_ROWS`` weights at a time."""
    return sum(float(np.sum(weights[start:start + _SUM_ROWS]))
               for start in range(0, weights.shape[0], _SUM_ROWS))


def _checked_weights(weights, count: int):
    """The weights, once there are ``count`` and their sum is within 1e-10
    of one, as a NaN sum is not: an array as a read-only vector, any other
    weight source as it is."""
    w = weight_source(weights)
    if isinstance(w, np.ndarray):
        w.flags.writeable = False
    if w.shape[0] != count:
        raise ToolkitError("one weight per point required")
    total = weight_sum(w)
    if not abs(total - 1.0) <= 1e-10:
        raise ToolkitError(f"weights sum to {total!r}, expected 1")
    return w


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


def tensor_size(p: int, m: int) -> int:
    """p**m, the point count of the p-point tensor rule in m dimensions;
    ``ConfigError`` naming ``--quad`` if it exceeds ``MAX_POINTS``."""
    return check_count(f"the point count {p}^{m} of --quad tensor:{p}", p ** m, 1, MAX_POINTS)


def tensor_rule(box: RegimeBox, p: int) -> QuadratureRule:
    """Tensor-product Gauss-Legendre rule over the box, p points per dimension.

    The 1-D rule is mapped affinely onto each interval and the product is
    laid out in row-major dimension order; weights absorb the uniform
    density so they sum to one. ``tensor_size`` caps the point count p**m.
    """
    tensor_size(p, box.m)
    x, w = gauss_legendre_1d(p)
    axes = np.array([lo + (x + 1.0) * 0.5 * (hi - lo) for lo, hi in zip(box.lower, box.upper)])
    # w sums to 2 on [-1,1]; halving makes each axis integrate its uniform density
    return _TensorRule(axes, 0.5 * w)


def monte_carlo_rule(box: RegimeBox, N: int, seed: int) -> QuadratureRule:
    """N i.i.d. uniform draws from the box, each with weight 1/N: the
    first N * m doubles of Philox(seed), row by row."""
    if N < 1:
        raise ToolkitError(f"need at least one point, got {N}")
    return _MonteCarloRule(box, N, seed)


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
