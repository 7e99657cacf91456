"""Unit-expression parsing, dimension-vector algebra and null-space bases.

A measurement system declares k base units. Every quantity carries a
dimension vector: the k exponents expressing its units as a product of
powers of the base units. Stacking the independent variables' dimension
vectors column-wise gives the k-by-m dimension matrix D; the exponents of
all dimensionless products of the independents form the null space of D.
This module builds those objects and the output-exponent vector w that
makes the dependent variable dimensionless. A dimension vector is a tuple
of floats.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from . import jsonio
from .errors import ConfigError, ToolkitError

MAX_EXPONENT = 64
RANK_RTOL = 1e-10       # singular values above RANK_RTOL * sigma_max count toward rank
BASIS_TOL = 1e-12       # residual bound on D W = 0, W^T W = I and D w = v(q)

MISSING_QUANTITY_HINT = "this may indicate some missing quantities"


_TERM_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|1)\s*(?:\^\s*([+-]?\d+))?\s*")
_OP_RE = re.compile(r"([*/])")


def parse_unit_expr(text: str, base_units) -> tuple[float, ...]:
    """Parse ``base ('^' int)?`` terms joined by ``*`` or ``/``.

    The literal ``1`` stands for a dimensionless factor; ``/`` negates the
    exponents of the single term that follows it.
    """
    base_units = list(base_units)
    index = {name: i for i, name in enumerate(base_units)}
    exps = [0.0] * len(base_units)
    pos = 0
    sign = 1
    while True:
        if pos == len(text):
            raise ConfigError(f"expression {text!r} ends on an operator or is empty")
        m = _TERM_RE.match(text, pos)
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
        if pos == len(text):
            return tuple(exps)
        m = _OP_RE.match(text, pos)
        if m is None:
            raise ConfigError(f"expected '*' or '/' at position {pos} in {text!r}")
        sign = 1 if m.group(1) == "*" else -1
        pos = m.end()


@dataclass(frozen=True)
class Quantity:
    """A named quantity and its exponents over the base units, kept as floats."""

    name: str
    symbol: str
    dims: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(float(e) for e in self.dims))


@dataclass(frozen=True)
class QuantitySystem:
    """Declared base units, m independent quantities and one dependent.

    Construction converts a pinned w to floats, then validates that base units
    and symbols are strings, that each symbol, a CSV column name, is non-empty
    with no comma or line break, name uniqueness, that dimension vectors are
    finite and of length k, that D of the independents has full row rank, and
    that m > k, so that there is at least one group.
    """

    base_units: tuple[str, ...]
    independents: tuple[Quantity, ...]
    dependent: Quantity
    pinned_w: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.pinned_w is not None:
            object.__setattr__(self, "pinned_w", tuple(float(v) for v in self.pinned_w))
        k, m = len(self.base_units), len(self.independents)
        symbols = [q.symbol for q in self.independents] + [self.dependent.symbol]
        if not all(isinstance(s, str) for s in (*self.base_units, *symbols)):
            raise ToolkitError("base units and quantity symbols must be strings")
        for s in symbols:
            if not s or any(c in s for c in ",\r\n"):
                raise ToolkitError(f"quantity symbol {s!r} is empty or holds a comma or line break")
        if len(set(self.base_units)) != k:
            raise ToolkitError("base-unit names must be unique")
        names = [q.name for q in self.independents] + [self.dependent.name]
        if len(set(names)) != len(names):
            raise ToolkitError("quantity names must be unique")
        if len(set(symbols)) != len(symbols):
            raise ToolkitError("quantity symbols must be unique")
        for q in list(self.independents) + [self.dependent]:
            if len(q.dims) != k:
                raise ToolkitError(
                    f"quantity {q.symbol!r} has {len(q.dims)} exponents, expected {k}"
                )
            if not np.all(np.isfinite(q.dims)):
                raise ToolkitError(f"quantity {q.symbol!r} has a non-finite exponent")
        if not any(self.dependent.dims):
            raise ToolkitError("the dependent quantity must not be dimensionless")
        D = build_dimension_matrix(self)
        r = np.linalg.matrix_rank(D, rtol=RANK_RTOL)
        if r < k:
            raise ToolkitError(_rank_message(D, self.base_units, r))
        if m == k:
            raise ToolkitError(f"no dimensionless groups exist (m = k = {m})")
        if self.pinned_w is not None:
            if len(self.pinned_w) != m or not np.all(np.isfinite(self.pinned_w)):
                raise ToolkitError("pinned w must have one finite entry per independent")
            res = _max_abs(D @ np.asarray(self.pinned_w) - np.array(self.dependent.dims))
            if not res <= BASIS_TOL:
                raise ToolkitError(f"pinned w violates D w = v(q): residual {res:.3e}")

    @property
    def k(self) -> int:
        return len(self.base_units)

    @property
    def m(self) -> int:
        return len(self.independents)

    @property
    def symbols(self) -> tuple[str, ...]:
        return tuple(q.symbol for q in self.independents)

    @classmethod
    def from_dict(cls, doc: dict) -> "QuantitySystem":
        jsonio.check_keys(doc, ("base_units", "independents", "dependent", "w"), "system")
        base = tuple(_array(doc, "base_units", "system"))
        inds = tuple(_quantity_from_dict(d, base) for d in _array(doc, "independents", "system"))
        dep = _quantity_from_dict(doc["dependent"], base)
        w = None if doc.get("w") is None else _array(doc, "w", "system")
        return cls(base, inds, dep, w)

    @classmethod
    def from_file(cls, path) -> "QuantitySystem":
        return jsonio.load(path, cls.from_dict)


def _quantity_from_dict(d: dict, base_units) -> Quantity:
    """A system file's quantity, its dimensions from exactly one of ``unit`` and ``dims``."""
    what = f"quantity {d.get('symbol')!r}"
    jsonio.check_keys(d, ("name", "symbol", "dims", "unit"), what)
    if ("dims" in d) == ("unit" in d):
        raise ToolkitError(f"{what} needs exactly one of a 'unit' and a 'dims' field")
    dims = _array(d, "dims", what) if "dims" in d else parse_unit_expr(d["unit"], base_units)
    return Quantity(name=d["name"], symbol=d["symbol"], dims=dims)


def _array(doc: dict, key: str, what: str) -> list:
    """``doc[key]``, refused unless it is a JSON array: a string would
    otherwise be read as its characters."""
    if not isinstance(doc[key], list):
        raise TypeError(f"{what} key {key!r} must be a JSON array, got {doc[key]!r}")
    return doc[key]


def _max_abs(a) -> float:
    return float(np.max(np.abs(a), initial=0.0))


def _rank_message(D, base_units, r) -> str:
    redundant = []
    for i in range(D.shape[0]):
        rest = np.delete(D, i, axis=0)
        if np.linalg.matrix_rank(rest, rtol=RANK_RTOL) == r:
            redundant.append(base_units[i])
    msg = f"dimension matrix has rank {r} < {D.shape[0]}; {MISSING_QUANTITY_HINT}"
    if redundant:
        msg += f" (dependent base-unit row(s): {', '.join(redundant)})"
    return msg


def build_dimension_matrix(system: QuantitySystem) -> np.ndarray:
    """Column i is the dimension vector of the i-th independent quantity; its
    rank is k, since a QuantitySystem of lower rank fails to construct."""
    return np.column_stack([np.array(q.dims) for q in system.independents])


def solve_output_exponents(D: np.ndarray, v_q: np.ndarray) -> np.ndarray:
    """Minimum-norm w with D w = v(q), via least squares on the full-rank D."""
    D = np.asarray(D, dtype=float)
    v = np.asarray(v_q, dtype=float).reshape(-1)
    if v.shape[0] != D.shape[0]:
        raise ToolkitError(f"v(q) has length {v.shape[0]}, D has {D.shape[0]} rows")
    w, *_ = np.linalg.lstsq(D, v, rcond=None)
    res = _max_abs(D @ w - v)
    if not res <= BASIS_TOL:
        raise ToolkitError(f"no exponent vector solves D w = v(q); residual {res:.3e}")
    return w


def normalize_column_signs(M: np.ndarray) -> np.ndarray:
    """Flip columns so each one's largest-magnitude entry is positive.

    Magnitudes within one part in 1e12 of the maximum count as tied and
    the lowest index wins, so the rule is stable against round-off. One
    ``argmax`` over the tie mask finds every lead; a zero column keeps its signs.
    """
    M = np.array(M, dtype=float, copy=True)
    mags = np.abs(M)
    lead = np.argmax(mags >= mags.max(axis=0, initial=0.0) * (1.0 - 1e-12), axis=0)
    flip = M[lead, np.arange(M.shape[1])] < 0
    M[:, flip] = -M[:, flip]
    return M


def nullspace_basis(D: np.ndarray) -> np.ndarray:
    """Orthonormal basis W for the null space of D, one column per group.

    Columns are the right singular vectors whose singular values vanish,
    kept in the order they appear in the SVD factor, with each column's
    largest-magnitude entry made positive (ties broken by lowest index).
    """
    D = np.atleast_2d(np.asarray(D, dtype=float))
    k, m = D.shape
    r = np.linalg.matrix_rank(D, rtol=RANK_RTOL)
    if r < k:
        raise ToolkitError(f"dimension matrix has rank {r} < {k}")
    if m == r:
        raise ToolkitError(f"no dimensionless groups exist (m = k = {m})")
    _, _, Vt = np.linalg.svd(D)
    W = normalize_column_signs(Vt[r:, :].T)
    W.flags.writeable = False
    return W


def check_dimensionless(D: np.ndarray, z) -> float:
    """Max-abs residual of D z; below 1e-10 counts as dimensionless."""
    D = np.atleast_2d(np.asarray(D, dtype=float))
    z = np.asarray(z, dtype=float)
    if z.shape[0] != D.shape[1]:
        raise ToolkitError(f"z has length {z.shape[0]}, D has {D.shape[1]} columns")
    return _max_abs(D @ z)


@dataclass(frozen=True)
class PiBasis:
    """Output exponents w and an orthonormal null-space basis W (m x n)."""

    w: np.ndarray
    W: np.ndarray

    @property
    def n(self) -> int:
        return self.W.shape[1]


def pi_basis(system: QuantitySystem) -> PiBasis:
    """Construct the PiBasis for a system, validating W to 1e-12.

    w is the system's pinned vector when present, otherwise the
    minimum-norm solution; either already satisfies D w = v(q) to 1e-12.
    """
    D = build_dimension_matrix(system)
    if system.pinned_w is not None:
        w = np.array(system.pinned_w, dtype=float)
    else:
        w = solve_output_exponents(D, np.array(system.dependent.dims))
    W = nullspace_basis(D)
    res_null = _max_abs(D @ W)
    res_orth = _max_abs(W.T @ W - np.eye(W.shape[1]))
    if not res_null <= BASIS_TOL or not res_orth <= BASIS_TOL:
        raise ToolkitError(
            f"null-space basis failed validation: |DW|={res_null:.3e}, "
            f"|W^TW - I|={res_orth:.3e}"
        )
    w.flags.writeable = False
    return PiBasis(w=w, W=W)
