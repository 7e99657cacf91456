"""Unit-expression parsing, dimension-vector algebra and null-space bases.

A measurement system declares k base units. Every quantity carries a
dimension vector: the k exponents expressing its units as a product of
powers of the base units. Stacking the independent variables' dimension
vectors column-wise gives the k-by-m dimension matrix D; the exponents of
all dimensionless products of the independents form the null space of D.
This module builds those objects and the output-exponent vector w that
makes the dependent variable dimensionless.

Exponents are kept as exact rationals until linear algebra needs floats.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import jsonio
from .errors import ConfigError, ToolkitError

MAX_EXPONENT = 64
RANK_RTOL = 1e-10       # singular values above RANK_RTOL * sigma_max count toward rank
BASIS_TOL = 1e-12       # residual bound on D W = 0, W^T W = I and D w = v(q)

MISSING_QUANTITY_HINT = "this may indicate some missing quantities"


@dataclass(frozen=True)
class DimensionVector:
    """Exponents of a quantity over the declared base units.

    The all-zero vector denotes a dimensionless quantity.
    """

    exponents: tuple[Fraction, ...]

    @classmethod
    def of(cls, values) -> "DimensionVector":
        return cls(tuple(Fraction(v) for v in values))

    def __len__(self) -> int:
        return len(self.exponents)

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def as_array(self) -> np.ndarray:
        return np.array([float(e) for e in self.exponents])


_TERM_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|1)\s*(?:\^\s*([+-]?\d+))?\s*")
_OP_RE = re.compile(r"([*/])")


def parse_unit_expr(text: str, base_units) -> DimensionVector:
    """Parse ``base ('^' int)?`` terms joined by ``*`` or ``/``.

    The literal ``1`` stands for a dimensionless factor; ``/`` negates the
    exponents of the single term that follows it.
    """
    base_units = list(base_units)
    index = {name: i for i, name in enumerate(base_units)}
    exps = [Fraction(0)] * len(base_units)
    pos = 0
    sign = 1
    expect_term = True
    while pos < len(text):
        if expect_term:
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
            expect_term = False
        else:
            m = _OP_RE.match(text, pos)
            if m is None:
                raise ConfigError(f"expected '*' or '/' at position {pos} in {text!r}")
            sign = 1 if m.group(1) == "*" else -1
            pos = m.end()
            expect_term = True
    if expect_term:
        raise ConfigError(f"expression {text!r} ends on an operator or is empty")
    return DimensionVector(tuple(exps))


@dataclass(frozen=True)
class Quantity:
    name: str
    symbol: str
    dims: DimensionVector


@dataclass(frozen=True)
class QuantitySystem:
    """Declared base units, m independent quantities and one dependent.

    Construction validates name uniqueness, dimension-vector lengths and
    that the dimension matrix of the independents has full row rank.
    """

    base_units: tuple[str, ...]
    independents: tuple[Quantity, ...]
    dependent: Quantity
    pinned_w: tuple[float, ...] | None = None

    def __post_init__(self):
        k, m = len(self.base_units), len(self.independents)
        if len(set(self.base_units)) != k:
            raise ToolkitError("base-unit names must be unique")
        names = [q.name for q in self.independents] + [self.dependent.name]
        if len(set(names)) != len(names):
            raise ToolkitError("quantity names must be unique")
        symbols = [q.symbol for q in self.independents] + [self.dependent.symbol]
        if len(set(symbols)) != len(symbols):
            raise ToolkitError("quantity symbols must be unique")
        for q in list(self.independents) + [self.dependent]:
            if len(q.dims) != k:
                raise ToolkitError(
                    f"quantity {q.symbol!r} has {len(q.dims)} exponents, expected {k}"
                )
        if self.dependent.dims.is_zero():
            raise ToolkitError("the dependent quantity must not be dimensionless")
        D = build_dimension_matrix(self)
        r = matrix_rank(D)
        if r < k:
            raise ToolkitError(_rank_message(D, self.base_units, r))
        if self.pinned_w is not None:
            if len(self.pinned_w) != m:
                raise ToolkitError("pinned w must have one entry per independent")
            res = _max_abs(D @ np.asarray(self.pinned_w) - self.dependent.dims.as_array())
            if res > BASIS_TOL:
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
        base = tuple(doc["base_units"])
        inds = tuple(_quantity_from_dict(d, base) for d in doc["independents"])
        dep = _quantity_from_dict(doc["dependent"], base)
        w = doc.get("w")
        return cls(base, inds, dep, None if w is None else tuple(float(v) for v in w))

    @classmethod
    def from_file(cls, path) -> "QuantitySystem":
        return jsonio.load(path, cls.from_dict)

    def to_dict(self) -> dict:
        doc = {
            "base_units": list(self.base_units),
            "independents": [_quantity_to_dict(q, self.base_units) for q in self.independents],
            "dependent": _quantity_to_dict(self.dependent, self.base_units),
        }
        if self.pinned_w is not None:
            doc["w"] = list(self.pinned_w)
        return doc


def _quantity_from_dict(d: dict, base_units) -> Quantity:
    if "dims" in d:
        dims = DimensionVector.of(d["dims"])
        if len(dims) != len(base_units):
            raise ToolkitError(f"quantity {d.get('symbol')!r}: wrong dims length")
    elif "unit" in d:
        dims = parse_unit_expr(d["unit"], base_units)
    else:
        raise ToolkitError(f"quantity {d.get('symbol')!r} needs a 'unit' or 'dims' field")
    return Quantity(name=d["name"], symbol=d["symbol"], dims=dims)


def _quantity_to_dict(q: Quantity, base_units) -> dict:
    return {"name": q.name, "symbol": q.symbol, "dims": [float(e) for e in q.dims.exponents]}


def _max_abs(a) -> float:
    a = np.asarray(a)
    return 0.0 if a.size == 0 else float(np.max(np.abs(a)))


def matrix_rank(D: np.ndarray) -> int:
    """Rank by singular values above RANK_RTOL times the largest."""
    s = np.linalg.svd(np.atleast_2d(np.asarray(D, dtype=float)), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > RANK_RTOL * s[0]))


def _rank_message(D, base_units, r) -> str:
    redundant = []
    for i in range(D.shape[0]):
        rest = np.delete(D, i, axis=0)
        if matrix_rank(rest) == r:
            redundant.append(base_units[i])
    msg = f"dimension matrix has rank {r} < {D.shape[0]}; {MISSING_QUANTITY_HINT}"
    if redundant:
        msg += f" (dependent base-unit row(s): {', '.join(redundant)})"
    return msg


def build_dimension_matrix(system: QuantitySystem) -> np.ndarray:
    """Column i is the dimension vector of the i-th independent quantity; its
    rank is k, since a QuantitySystem of lower rank fails to construct."""
    return np.column_stack([q.dims.as_array() for q in system.independents])


def solve_output_exponents(D: np.ndarray, v_q: np.ndarray) -> np.ndarray:
    """Minimum-norm w with D w = v(q), via least squares on the full-rank D."""
    D = np.asarray(D, dtype=float)
    v = np.asarray(v_q, dtype=float).reshape(-1)
    if v.shape[0] != D.shape[0]:
        raise ToolkitError(f"v(q) has length {v.shape[0]}, D has {D.shape[0]} rows")
    w, *_ = np.linalg.lstsq(D, v, rcond=None)
    res = _max_abs(D @ w - v)
    if res > BASIS_TOL:
        raise ToolkitError(f"no exponent vector solves D w = v(q); residual {res:.3e}")
    return w


def normalize_column_signs(M: np.ndarray) -> np.ndarray:
    """Flip columns so each one's largest-magnitude entry is positive.

    Magnitudes within one part in 1e12 of the maximum count as tied and
    the lowest index wins, so the rule is stable against round-off.
    """
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


def nullspace_basis(D: np.ndarray) -> np.ndarray:
    """Orthonormal basis W for the null space of D, one column per group.

    Columns are the right singular vectors whose singular values vanish,
    kept in the order they appear in the SVD factor, with each column's
    largest-magnitude entry made positive (ties broken by lowest index).
    """
    D = np.atleast_2d(np.asarray(D, dtype=float))
    k, m = D.shape
    r = matrix_rank(D)
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
        w = solve_output_exponents(D, system.dependent.dims.as_array())
    W = nullspace_basis(D)
    res_null = _max_abs(D @ W)
    res_orth = _max_abs(W.T @ W - np.eye(W.shape[1]))
    if res_null > BASIS_TOL or res_orth > BASIS_TOL:
        raise ToolkitError(
            f"null-space basis failed validation: |DW|={res_null:.3e}, "
            f"|W^TW - I|={res_orth:.3e}"
        )
    w.flags.writeable = False
    return PiBasis(w=w, W=W)
