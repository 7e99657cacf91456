"""Exception types shared across the toolkit, and the defaults and range
check of the external-run options.

The options live here, in the one module that every other imports and
that imports nothing heavy, so the command line can fill in and check them
for every analysis command without loading ``pigroups.external``.
"""

import math
from numbers import Integral, Real


class ToolkitError(Exception):
    """Base class for every toolkit-specific failure."""


# ---------------------------------------------------------------------------
# dimensional analysis
# ---------------------------------------------------------------------------

class UnknownBaseUnit(ToolkitError):
    """A unit expression names a base unit that was never declared."""


class UnitSyntaxError(ToolkitError):
    """A unit expression does not follow the expr/term grammar."""


class ExponentOverflow(ToolkitError):
    """A unit exponent magnitude exceeds the supported limit of 64."""


class RankDeficient(ToolkitError):
    """The dimension matrix has rank below the number of base units."""


class Inconsistent(ToolkitError):
    """The output-exponent system has no solution."""


class NoNullSpace(ToolkitError):
    """As many base units as quantities: no dimensionless groups exist."""


class NonPositiveInput(ToolkitError):
    """Log-space operations require strictly positive quantity values."""


class ShapeMismatch(ToolkitError):
    """Array arguments do not conform."""


# ---------------------------------------------------------------------------
# quadrature and designs
# ---------------------------------------------------------------------------

class OutOfRange(ToolkitError):
    """A rule parameter lies outside its supported range."""


class TooManyPoints(ToolkitError):
    """A tensor rule would exceed the point-count guard."""


# ---------------------------------------------------------------------------
# response surfaces
# ---------------------------------------------------------------------------

class Underdetermined(ToolkitError):
    """Fewer samples than polynomial coefficients."""


class IllConditioned(ToolkitError):
    """The least-squares feature matrix is numerically singular."""


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

class NotSymmetric(ToolkitError):
    """A matrix expected to be symmetric is not."""


class NotPositiveSemidefinite(ToolkitError):
    """An eigenvalue is negative beyond round-off."""


class WrongDimension(ToolkitError):
    """Operation defined only for a specific matrix size."""


class NonFinite(ToolkitError):
    """A NaN or infinity appeared where a finite value is required."""


# ---------------------------------------------------------------------------
# algorithm drivers
# ---------------------------------------------------------------------------

class DesignTooSmall(ToolkitError):
    """The experimental design cannot support the requested surrogate."""


class ExperimentFailure(ToolkitError):
    """An experiment evaluation raised or returned garbage."""


# ---------------------------------------------------------------------------
# pipe-flow model
# ---------------------------------------------------------------------------

class NoConvergence(ToolkitError):
    """An iterative solver did not reach its residual target."""


class InvalidArgument(ToolkitError):
    """A model function received an argument outside its domain."""


class UnknownRegime(ToolkitError):
    """No bounds table is registered under the requested name."""


# ---------------------------------------------------------------------------
# external experiments
# ---------------------------------------------------------------------------

class SubprocessFailure(ToolkitError):
    """An external experiment process exited abnormally."""


class ParseFailure(ToolkitError):
    """An external experiment produced unparseable output."""


class ExperimentTimeout(ToolkitError):
    """An external experiment exceeded its time budget."""


# defaults of the external-run options, keyed by their config names. A
# child's peak memory grows with its batch; 2**15 rows is the largest round
# batch at which the pipe-model child (perfbench/pipe_child.py) peaks below
# the CLI process that launches it.
EXTERNAL_DEFAULTS = {"timeout": None, "batch_size": 2**15, "workers": 1}


def check_external_options(timeout, batch_size, n_workers) -> None:
    """Raise ``ValueError`` unless ``timeout`` is None or a positive finite
    number of seconds and ``batch_size`` and ``n_workers`` are integers of
    at least 1. Messages name the command-line options."""
    if not (isinstance(batch_size, Integral) and batch_size >= 1):
        raise ValueError(f"batch size must be at least 1, got {batch_size}")
    if timeout is not None and not (
            isinstance(timeout, Real) and math.isfinite(timeout) and timeout > 0):
        raise ValueError(f"--timeout must be a positive number of seconds, got {timeout}")
    if not (isinstance(n_workers, Integral) and n_workers >= 1):
        raise ValueError(f"--workers must be at least 1, got {n_workers}")
