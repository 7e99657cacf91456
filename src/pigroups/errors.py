"""The toolkit's three exception classes, the two checks of an option value,
the defaults of the external-run options and the finite-difference rule.

Callers tell failures apart by these classes alone. Each class carries the
exit code that the command line returns for it:

* ``ToolkitError``, a numerical failure: exit 3;
* ``ConfigError``, an option or input file the toolkit cannot use: exit 2;
* ``ExternalError``, an external experiment that fails, times out or
  answers unparseably: exit 4.

Both subclasses derive from ``ToolkitError``, so one ``except
ToolkitError`` catches every toolkit failure. Every option value is checked
where it is read, by ``check_count`` (an integer in a range) or
``check_positive`` (a finite positive number), which raise ``ConfigError``
naming the option. They live here, in the one module that every other
imports and that imports nothing heavy, so the command line can check every
option without loading ``pigroups.external``.
"""

import math
from numbers import Integral

# the bound on every point count: a tensor rule's p**m, mc:N, the design, the hold-out
MAX_POINTS = 10**7
# the rule of every route but the surface route where no --quad names one
DEFAULT_QUAD = "tensor:11"


class ToolkitError(Exception):
    """A numerical failure, and the base class of every toolkit failure."""

    exit_code = 3


class ConfigError(ToolkitError):
    """An option, unit expression, regime name or input file the toolkit cannot use."""

    exit_code = 2


class ExternalError(ToolkitError):
    """An external experiment process failed, timed out or answered garbage."""

    exit_code = 4


def check_count(option: str, value, low: int, high: int | None = None) -> int:
    """``value`` if it is an integer, not a bool, in [low, high] (no upper
    bound when ``high`` is None); else ``ConfigError`` naming ``option``."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ConfigError(f"{option} must be an integer, got {value!r}")
    if value < low:
        bound = "nonnegative" if low == 0 else f"at least {low}"
        raise ConfigError(f"{option} must be {bound}, got {value}")
    if high is not None and value > high:
        raise ConfigError(f"{option} must be at most {high}, got {value}")
    return int(value)


def check_positive(option: str, value) -> float:
    """``float(value)`` if it is finite and positive; else ``ConfigError``
    naming ``option``. A bool is refused, a string that parses as a number is
    not, and an integer too large for a float counts as not finite."""
    try:
        number = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not (math.isfinite(number) and number > 0):
        raise ConfigError(f"{option} must be a positive number, got {value!r}")
    return number


# defaults of the external-run options, keyed by their config names. A
# child's peak memory grows with its batch; at 2**15 rows the pipe-model
# child (perfbench/pipe_child.py) peaks above the CLI process that launches
# it, at about 45-48 MB against 40 MB (Python 3.11, numpy 2.4, x86-64 Linux).
EXTERNAL_DEFAULTS = {"timeout": None, "batch_size": 2**15, "workers": 1}


def check_external_options(timeout, batch_size, n_workers) -> float | None:
    """The timeout as a float or None, once ``batch_size`` and ``n_workers`` are
    integers of at least 1 and ``timeout`` is None or a positive number."""
    check_count("--batch-size", batch_size, 1)
    timeout = None if timeout is None else check_positive("--timeout", timeout)
    check_count("--workers", n_workers, 1)
    return timeout
