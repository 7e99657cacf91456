"""Reference computer experiment: viscous flow through a rough pipe.

The dependent variable is the pressure loss per unit length, driven by
the friction factor: Poiseuille's 64/Re below a critical Reynolds number
and the implicit Colebrook correlation above it. Independent variables,
in order: fluid density rho [kg/m^3], viscosity mu [kg/(m s)],
pipe diameter D [m], wall roughness eps [m], bulk velocity V [m/s].

``friction_factor`` (Colebrook everywhere with ``re_crit=None``) and
``PipeFlowExperiment.evaluate_batch`` share one checked path on flat
arrays, which names a failing point by its index in the caller's batch.
Both read ``re_crit`` through ``_read_re_crit``, its one check.

``evaluate_batch`` reads its columns by position, so the model needs the
pipe's quantities in the order above; ``regime_box`` reads a regime's
symbol-keyed bounds in any order of them, and refuses other quantities.

``PipeFlowExperiment`` is the one pressure-loss model. Its defaults are
the reference configuration that the bundled regime tables were produced
with: the Colebrook correlation across the full Reynolds range and the
Fanning pressure-gradient formula 2 lambda rho V^2 / D. With
``re_crit=RE_CRITICAL`` and ``pressure_formula="darcy"`` it is the textbook
piecewise model with the Darcy form lambda rho V^2 / (2 D), a factor 4
below the Fanning one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, ToolkitError, check_positive

if TYPE_CHECKING:
    from .dimension import QuantitySystem
    from .quadrature import RegimeBox

RE_CRITICAL = 3000.0
SYMBOLS = ("rho", "mu", "D", "eps", "V")

_LN10 = math.log(10.0)
# Newton's stop rule: each row's own residual falls below _TOL within _MAX_ITER steps
_TOL = 1e-12
_MAX_ITER = 100
# Rows per block of PipeFlowExperiment.evaluate_batch: each float64
# temporary of a block is 64 KB, so Newton's working set stays in L2.
_BLOCK_ROWS = 8192
# (lowest, highest, points) of the log-spaced axes of the Moody chart
_MOODY_RE = (6e2, 1e8, 120)
_MOODY_ROUGH = (1e-6, 5e-2, 12)

# regime bounds keyed by symbol, in the independent-variable order above
_REGIMES = {
    "laminar": {
        "rho": (1.0e-1, 1.4e-1),
        "mu": (1.0e-6, 1.0e-5),
        "D": (5.0e-1, 8.0e-1),
        "eps": (3.0e-5, 8.0e-5),
        "V": (2.5e-2, 3.0e-2),
    },
    "turbulent": {
        "rho": (1.0e-1, 1.4e-1),
        "mu": (1.0e-6, 1.0e-5),
        "D": (5.0e-1, 1.0e0),
        "eps": (5.0e-4, 2.0e-3),
        "V": (2.0e0, 4.0e0),
    },
    "high_re": {
        "rho": (1.0e-1, 1.4e-1),
        "mu": (1.0e-6, 1.0e-5),
        "D": (5.0e-1, 1.0e0),
        "eps": (1.0e-2, 4.0e-2),
        "V": (5.0e2, 7.0e2),
    },
}


def _friction(Re_a, rr_a, re_crit, rows):
    """The friction factor of 1-D float arrays: Poiseuille's 64/Re below
    ``re_crit``, Colebrook at and above it (everywhere when it is None).

    Every point must be finite and lie in the Colebrook domain (Re > 0,
    0 <= rel_rough < 1), whichever branch it takes. ``rows`` holds each
    point's index in the caller's batch; a failure names the first
    offending point by it, as ``_first_point`` does.
    """
    for message, bad in (
        ("Reynolds number and relative roughness must be finite",
         ~(np.isfinite(Re_a) & np.isfinite(rr_a))),
        ("Reynolds number must be positive", Re_a <= 0.0),
        ("relative roughness must lie in [0, 1)", (rr_a < 0.0) | (rr_a >= 1.0)),
    ):
        if bad.any():
            raise ToolkitError(f"{message} at {_first_point(bad, Re_a, rr_a, rows)}")
    if re_crit is None:
        return _newton(Re_a, rr_a, rows)
    lam = 64.0 / Re_a
    high = ~(Re_a < re_crit)
    if high.any():
        lam[high] = _newton(Re_a[high], rr_a[high], rows[high])
    return lam


def _newton(Re_a, rr_a, rows):
    """Colebrook, 1/sqrt(lambda) = -2 log10(rel_rough/3.7 + 2.51/(Re sqrt(lambda))),
    by Newton on t = 1/sqrt(lambda) from the explicit Haaland-style estimate,
    on checked 1-D arrays; a failure names its point as ``_first_point`` does.

    Below Re of about 6.9 that estimate is not positive. Such rows start at
    t = Re/2.51, where a + b t >= 1 and so F > 0, and halve t until F <= 0:
    F(t) = t + 2 log10(a + b t) increases and is concave, so Newton then
    climbs to the root without leaving the logarithm's domain.

    A row stops stepping once its own |F| < _TOL, so its value does not
    depend on the rows it is solved with."""
    a = rr_a / 3.7
    b = 2.51 / Re_a
    c = (2.0 / _LN10) * b
    t = -1.8 * np.log10(a ** 1.11 + 6.9 / Re_a)
    low = np.flatnonzero(~(t > 0.0))
    t[low] = Re_a[low] / 2.51
    while low.size:
        low = low[t[low] + 2.0 * np.log10(a[low] + b[low] * t[low]) > 0.0]
        t[low] *= 0.5
    for _ in range(_MAX_ITER):
        arg = a + b * t
        if (arg <= 0.0).any():
            raise ToolkitError(
                "logarithm argument became nonpositive at "
                f"{_first_point(arg <= 0.0, Re_a, rr_a, rows)}"
            )
        F = t + 2.0 * np.log10(arg)
        # a converged row keeps its t, and so its F: it stays converged
        active = ~(np.abs(F) < _TOL)
        if not active.any():
            break
        t = np.where(active, t - F / (1.0 + c / arg), t)
    else:
        raise ToolkitError(
            f"Newton stalled at residual {float(np.abs(F).max()):.3e} > {_TOL:.0e}; "
            f"first unconverged {_first_point(active, Re_a, rr_a, rows)}"
        )
    return 1.0 / (t * t)


def _first_point(mask, Re_a, rr_a, rows) -> str:
    """The first point where ``mask`` holds, as its index in ``rows`` and
    its (Re, rel_rough)."""
    i = int(np.argmax(mask))
    return f"point {int(rows[i])} (Re={float(Re_a[i])!r}, rel_rough={float(rr_a[i])!r})"


def _read_re_crit(value) -> float | None:
    """The one check of ``re_crit``; None or ``"none"`` in any case is Colebrook everywhere."""
    if value is None or str(value).lower() == "none":
        return None
    return check_positive("--re-crit", value)


def friction_factor(Re, rel_rough, re_crit: float | None = RE_CRITICAL):
    """Piecewise friction factor: Poiseuille's 64/Re below re_crit,
    Colebrook at and above it.

    The branch switch is a genuine discontinuity of the model;
    ``re_crit=None`` or ``"none"`` applies Colebrook at every Reynolds
    number; any other value must be a finite positive number. Every
    point must be finite and lie in the Colebrook domain (Re > 0,
    0 <= rel_rough < 1), whichever branch it takes. Scalar in, scalar out;
    arrays broadcast, and the broadcast points are solved as one flat
    batch, so a result does not depend on the arguments' shapes. A failure
    names the first offending point by its flat index in the broadcast
    arguments and its (Re, rel_rough).
    """
    Re_a, rr_a = np.broadcast_arrays(np.asarray(Re, dtype=float),
                                     np.asarray(rel_rough, dtype=float))
    lam = _friction(Re_a.ravel(), rr_a.ravel(), _read_re_crit(re_crit), np.arange(Re_a.size))
    return float(lam[0]) if Re_a.ndim == 0 else lam.reshape(Re_a.shape)


def regime_box(name: str, symbols=SYMBOLS) -> RegimeBox:
    """A named regime's box: its symbol-keyed bounds, in the order of ``symbols``."""
    # imported here, as in pipe_quantity_system, so that an external child
    # evaluating the model loads neither module
    from .quadrature import RegimeBox

    try:
        bounds = _REGIMES[name]
    except KeyError:
        known = ", ".join(sorted(_REGIMES))
        raise ConfigError(f"no regime named {name!r}; known: {known}") from None
    try:
        return RegimeBox.from_dict({"bounds": bounds}, symbols)
    except ConfigError as exc:
        raise ConfigError(f"--regime {name} needs the pipe quantities: {exc}") from None


def regime_names() -> tuple[str, ...]:
    return tuple(_REGIMES)


def pipe_quantity_system() -> QuantitySystem:
    """The pipe system over (kg, m, s), with the output exponents pinned."""
    from .dimension import Quantity, QuantitySystem

    base = ("kg", "m", "s")
    independents = (
        Quantity("fluid density", "rho", (1, -3, 0)),
        Quantity("fluid viscosity", "mu", (1, -1, -1)),
        Quantity("pipe diameter", "D", (0, 1, 0)),
        Quantity("pipe roughness", "eps", (0, 1, 0)),
        Quantity("fluid velocity", "V", (0, 1, -1)),
    )
    dependent = Quantity("pressure loss", "dpdx", (1, -2, -2))
    return QuantitySystem(base, independents, dependent, pinned_w=(1.0, 0.0, -1.0, 0.0, 2.0))


@dataclass(frozen=True)
class PipeFlowExperiment:
    """Pressure-loss experiment over q = (rho, mu, D, eps, V).

    ``re_crit=None`` or ``"none"`` applies the Colebrook correlation at
    every Reynolds number; a positive number switches to Poiseuille below
    it, and any other value is a ``ConfigError``.
    ``pressure_formula`` selects ``fanning`` (2 lambda rho V^2 / D) or
    ``darcy`` (lambda rho V^2 / (2 D)). The defaults reproduce the shipped
    regime tables. Pure function of its inputs; safe to evaluate
    concurrently.

    ``evaluate_batch`` works through its rows in blocks of ``_BLOCK_ROWS``.
    Newton stops each row on its own residual, so a row's value is the same
    to the last bit whatever block or external batch it comes in, and
    evaluated alone. A failure names the row by its index in the whole
    batch.
    """

    re_crit: float | None = None
    pressure_formula: str = "fanning"

    def __post_init__(self):
        object.__setattr__(self, "re_crit", _read_re_crit(self.re_crit))
        if self.pressure_formula not in ("fanning", "darcy"):
            raise ConfigError(
                f"pressure_formula must be 'fanning' or 'darcy', got {self.pressure_formula!r}"
            )

    def evaluate_batch(self, points) -> np.ndarray:
        Q = np.atleast_2d(np.asarray(points, dtype=float))
        if Q.shape[1] != 5:
            raise ToolkitError(f"pipe experiment expects 5 columns, got {Q.shape[1]}")
        out = np.empty(Q.shape[0])
        for s in range(0, Q.shape[0], _BLOCK_ROWS):
            rho, mu, D, eps, V = Q[s:s + _BLOCK_ROWS].T
            lam = _friction(rho * V * D / mu, eps / D, self.re_crit,
                            np.arange(s, s + rho.size))
            if self.pressure_formula == "fanning":
                out[s:s + _BLOCK_ROWS] = 2.0 * lam * rho * V**2 / D
            else:
                out[s:s + _BLOCK_ROWS] = lam * rho * V**2 / (2.0 * D)
        return out


def moody_grid(re_crit) -> np.ndarray:
    """Rows of (log10 Re, log10 rel_rough, lambda) for plotting the chart, each
    roughness over every Re in turn; ``re_crit`` as ``friction_factor`` takes it."""
    res, roughs = (np.logspace(np.log10(lo), np.log10(hi), n)
                   for lo, hi, n in (_MOODY_RE, _MOODY_ROUGH))
    lam = friction_factor(res, roughs[:, None], re_crit=re_crit)
    return np.column_stack([np.tile(np.log10(res), roughs.size),
                            np.repeat(np.log10(roughs), res.size), lam.reshape(-1)])
