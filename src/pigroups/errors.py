"""The toolkit's three exception classes, and the defaults and range check
of the external-run options.

Callers tell failures apart by these classes alone, and the command line
maps each one to its exit code:

* ``ToolkitError``, a numerical failure: exit 3;
* ``ConfigError``, a unit expression, exponent, regime name or input file
  the toolkit cannot read: exit 2;
* ``ExternalError``, an external experiment that fails, times out or
  answers unparseably: exit 4.

Both subclasses derive from ``ToolkitError``, so one ``except
ToolkitError`` catches every toolkit failure. The options live here, in the
one module that every other imports and that imports nothing heavy, so the
command line can fill in and check them for every analysis command without
loading ``pigroups.external``.
"""

import math
from numbers import Integral, Real


class ToolkitError(Exception):
    """A numerical failure, and the base class of every toolkit failure."""


class ConfigError(ToolkitError):
    """A unit expression, exponent, regime name or input file the toolkit cannot read."""


class ExternalError(ToolkitError):
    """An external experiment process failed, timed out or answered garbage."""


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
        raise ValueError(f"--batch-size must be at least 1, got {batch_size}")
    if timeout is not None and not (
            isinstance(timeout, Real) and math.isfinite(timeout) and timeout > 0):
        raise ValueError(f"--timeout must be a positive number of seconds, got {timeout}")
    if not (isinstance(n_workers, Integral) and n_workers >= 1):
        raise ValueError(f"--workers must be at least 1, got {n_workers}")
