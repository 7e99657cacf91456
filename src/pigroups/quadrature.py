"""Integration rules and experimental designs over a regime box.

All rules integrate against the uniform product density on the box, so
weights always sum to one; the box volume never appears at call sites.
Two tensor rules share one product construction, with one row of nodes
and one row of weights per axis: Gauss-Legendre in q (``tensor_rule``),
whose axes all take the same weight row, and the Gauss rule of each axis's
own density in x = log q (``log_gauss_rule``), exact for polynomials in
log q, whose weight rows differ with the bounds. Random rules use a
counter-based generator (Philox) so a fixed seed gives identical points on
every platform and schedule.

A rule hands out its points and its weights by row range, through
``rows(start, stop)`` and ``weights(start, stop)``, so a caller that works
through it in pieces holds one piece at a time, and no rule holds or
builds an array that grows with its point count N. A tensor rule keeps
only its (m, p) axes and factor weights and makes a range of points and one
of weights from the same expansion of the row indices' digits, one digit
level at a time; a Monte Carlo rule keeps its seed and draws a range
from the generator's place for it, and every one of its weights is 1/N.
A rule's weights are checked once, when the rule is made; ``assemble_C``
then reads them one range of its chunks at a time, and takes no weights
from anywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jsonio
from .errors import MAX_POINTS, ConfigError, ToolkitError, check_count

GL_MAX_POINTS = 64
# most points per axis of a log-space Gauss rule, and the most half-width in
# log q of one panel of its discretization: with both, a 64-point panel's sum
# of exp(x) times a polynomial of degree 2p - 1 is exact to round-off
LOG_GAUSS_MAX = 32
_LOG_PANEL = 8.0
# weights per range of a sum check: a tensor rule's range costs mostly per
# call, so long ranges sum its weights at a third of the cost of 4,096-row ones
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
    def from_pairs(cls, pairs, symbols=None) -> "RegimeBox":
        """The box of one [lower, upper] pair per variable, one per symbol where
        ``symbols`` names them. Any other bound is refused by its index and symbol."""
        pairs = list(pairs)
        if symbols is not None and len(pairs) != len(symbols):
            raise ToolkitError(f"bounds has {len(pairs)} pairs for {len(symbols)} symbols")
        if not pairs:
            raise ToolkitError("bounds must be [lower, upper] pairs")
        for i, pair in enumerate(pairs):
            try:
                is_pair = np.shape(pair) == (2,)
            except ValueError:  # a ragged pair
                is_pair = False
            if not is_pair:
                name = "" if symbols is None else f" ({symbols[i]})"
                raise ToolkitError(f"bound {i}{name} must be a [lower, upper] pair, got {pair!r}")
        bounds = np.array(pairs, dtype=float)
        return cls(lower=bounds[:, 0], upper=bounds[:, 1])

    @classmethod
    def from_dict(cls, doc: dict, symbols=None) -> "RegimeBox":
        """The box of ``{"bounds": ...}``: [lower, upper] pairs in independent order, or
        one pair per symbol in any order, put in the order of ``symbols`` for ``from_pairs``."""
        jsonio.check_keys(doc, ("bounds",), "box")
        bounds = doc["bounds"]
        if isinstance(bounds, dict):
            if symbols is None:
                raise ToolkitError("symbol-keyed bounds need the independent order")
            missing = [s for s in symbols if s not in bounds]
            if missing:
                raise ConfigError(f"bounds missing for: {', '.join(missing)}")
            jsonio.check_keys(bounds, symbols, "bounds")
            bounds = [bounds[s] for s in symbols]
        return cls.from_pairs(bounds, symbols)

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
    fresh (stop - start, m) array, and ``weights(start, stop)`` their
    weights as a fresh (stop - start,) array, for 0 <= start <= stop <= N;
    the tensor and Monte Carlo rules make both only as such ranges. Each
    kind of rule says how it makes its points and weights and passes its m
    and its point count N to this constructor. It reads the weights once,
    ``_SUM_ROWS`` at a time, and refuses them unless each range holds one
    weight per row and their sum is within 1e-10 of one, as a NaN sum is
    not; ``assemble_C`` trusts them after that.
    """

    def __init__(self, m: int, N: int):
        self.m, self._N = m, N
        total = 0.0
        for start in range(0, N, _SUM_ROWS):
            stop = min(start + _SUM_ROWS, N)
            w = self.weights(start, stop)
            if w.shape != (stop - start,):
                raise ToolkitError("one weight per point required")
            total += float(np.sum(w))
        if not abs(total - 1.0) <= 1e-10:
            raise ToolkitError(f"weights sum to {total!r}, expected 1 +/- 1e-10")

    def rows(self, start: int, stop: int) -> np.ndarray:
        raise NotImplementedError

    def weights(self, start: int, stop: int) -> np.ndarray:
        raise NotImplementedError

    def __len__(self) -> int:
        return self._N


class _TensorRule(QuadratureRule):
    """Row-major tensor product of 1-D rules: row i takes from axis j the
    node whose index is digit j of i in base p, the first digit most
    significant, and weight 1.0 times factor[j, digit j of i] for j = 0,
    ..., m - 1, multiplied in that order, as ``functools.reduce(
    np.multiply.outer, [np.ones(1)] + list(factor))`` multiplies them, so
    every bit is the same. ``axes`` is the (m, p) array of the mapped nodes
    and ``factor`` the (m, p) array of their weights, one row per axis.
    Both points and weights come from ``_expand``, which builds a range's
    digit prefixes one level at a time."""

    def __init__(self, axes: np.ndarray, factor: np.ndarray):
        axes.flags.writeable = False
        factor.flags.writeable = False
        self.axes, self.factor = axes, factor
        super().__init__(axes.shape[0], axes.shape[1] ** axes.shape[0])

    def rows(self, start: int, stop: int) -> np.ndarray:
        def grow(out, j):
            # the node values themselves: the same bits as the rows of the meshgrid
            children = np.empty((out.shape[0], self.axes.shape[1], j + 1))
            children[:, :, :j] = out[:, None, :]
            children[:, :, j] = self.axes[j]
            return children.reshape(-1, j + 1)

        return self._expand(start, stop, lambda k: np.empty((k, 0)), grow)

    def weights(self, start: int, stop: int) -> np.ndarray:
        return self._expand(start, stop, np.ones,
                            lambda out, j: (out[:, None] * self.factor[j]).reshape(-1))

    def _expand(self, start: int, stop: int, root, grow) -> np.ndarray:
        """Rows start to stop - 1 of the digit expansion: ``root(k)`` makes k
        empty prefixes, and ``grow(out, j)`` the p children of each prefix in
        ``out``, one per value of digit j, as a fresh array in row order."""
        p = self.axes.shape[1]
        # the first j digits of rows start to stop - 1 run from start // p**(m - j)
        # to ceil(stop / p**(m - j)) - 1
        ranges = [(start, max(start, stop))]
        for _ in range(self.m):
            first, end = ranges[-1]
            ranges.append((first // p, -(-end // p)))
        first, end = ranges.pop()
        out = root(end - first)
        for j, (lo, hi) in enumerate(reversed(ranges)):
            shift = first * p
            out = grow(out, j)[lo - shift:hi - shift]
            first = lo
        return out


class _MonteCarloRule(QuadratureRule):
    """N uniform draws from the box: row i is lower + u * widths, with u
    the m doubles that follow the first i * m of a fresh Philox(seed).
    Every weight is 1/N."""

    def __init__(self, box: RegimeBox, N: int, seed: int):
        self.box, self.seed = box, seed
        super().__init__(box.m, N)

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

    def weights(self, start: int, stop: int) -> np.ndarray:
        return np.full(stop - start, 1.0 / self._N)


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
    density so they sum to one. A point count p**m above ``MAX_POINTS`` is
    refused with a ``ConfigError`` naming ``--quad``.
    """
    check_count(f"the point count {p}^{box.m} of --quad tensor:{p}", p ** box.m, 1, MAX_POINTS)
    x, w = gauss_legendre_1d(p)
    axes = np.array([lo + (x + 1.0) * 0.5 * (hi - lo) for lo, hi in zip(box.lower, box.upper)])
    # w sums to 2 on [-1,1]; halving makes each axis integrate its uniform density
    return _TensorRule(axes, np.tile(0.5 * w, (box.m, 1)))


def log_gauss_1d(a, b, p: int):
    """The p-point Gauss rule for x = log q with q uniform on [a, b]: nodes
    in x, ascending, and weights summing to one, exact for polynomials of
    degree <= 2p - 1 against the density exp(x) / (b - a) on [ln a, ln b].
    The bounds may be arrays of one shape, one interval each; the nodes and
    weights then gain a last axis of length p.

    The density is discretized on ``gauss_legendre_1d(GL_MAX_POINTS)`` in
    t = (x - c) / h, c and h the midpoint and half-width of [ln a, ln b],
    over [-1, 1] split into panels of half-width at most ``_LOG_PANEL`` in
    x for the widest interval, so that each panel's Gauss-Legendre sum is
    exact to round-off for p <= ``LOG_GAUSS_MAX``. A Stieltjes procedure
    on the orthonormal polynomials of that discrete measure gives the
    recurrence coefficients, and the eigenvalues and first eigenvector
    components of their Jacobi matrix are the nodes and weights (Golub and
    Welsch, 1969).
    """
    lo, hi = np.log(a), np.log(b)
    c, h = 0.5 * (hi + lo), 0.5 * (hi - lo)[..., None]
    panels = max(1, int(np.ceil(np.max(h) / _LOG_PANEL)))
    s, v = gauss_legendre_1d(GL_MAX_POINTS)
    t = ((2.0 * np.arange(panels)[:, None] + 1.0 + s) / panels - 1.0).reshape(-1)
    # the density of t, h exp(h t) / (2 sinh h), written so that no exp overflows
    lam = np.tile(v / panels, panels) * (h * np.exp(h * (t - 1.0)) / -np.expm1(-2.0 * h))
    # the orthonormal polynomials: beta_k p_(k+1) = (t - alpha_k) p_k - beta_(k-1) p_(k-1)
    J = np.zeros(lam.shape[:-1] + (p, p))
    prev, cur = np.zeros_like(lam), np.ones_like(lam) / np.sqrt(np.sum(lam, -1, keepdims=True))
    off = 0.0
    for k in range(p):
        alpha = J[..., k, k] = np.sum(lam * t * cur * cur, -1)
        nxt = (t - alpha[..., None]) * cur - off * prev
        off = np.sqrt(np.sum(lam * nxt * nxt, -1, keepdims=True))
        prev, cur = cur, nxt / off
        if k + 1 < p:  # eigh reads the lower triangle of the Jacobi matrix
            J[..., k + 1, k] = off[..., 0]
    nodes, vectors = np.linalg.eigh(J)
    return c[..., None] + h * nodes, vectors[..., 0, :] ** 2


def log_gauss_rule(box: RegimeBox, p: int) -> QuadratureRule:
    """Tensor product over the box of the p-point Gauss rules in log q of
    ``log_gauss_1d``, one per axis, with q-space nodes exp(x): exact for
    every polynomial of degree <= 2p - 1 in each log q_i under the uniform
    density on the box. It is the surface route's own rule, p its
    ``--degree``; a p above ``LOG_GAUSS_MAX``, or p**m above ``MAX_POINTS``,
    is refused with a ``ConfigError`` naming ``--degree`` and ``--quad``.
    """
    if not 1 <= p <= LOG_GAUSS_MAX or p ** box.m > MAX_POINTS:
        raise ConfigError(
            f"--degree {p} needs {p} Gauss points per axis in log q, {p}^{box.m} in "
            f"all, where at most {LOG_GAUSS_MAX} per axis and {MAX_POINTS} in all are "
            f"allowed; name a rule with --quad")
    x, factor = log_gauss_1d(box.lower, box.upper, p)
    return _TensorRule(np.exp(x), factor)


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
