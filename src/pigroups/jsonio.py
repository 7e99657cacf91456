"""Deterministic JSON emission, and the one reader of JSON input files.

Floats are written in their shortest form that round-trips exactly (the
standard library's ``repr``); dict keys keep insertion order. Identical
data therefore always produces byte-identical files, which the CLI relies
on for reproducibility. NaN and infinity are refused with ``ToolkitError``.
"""

import json

import numpy as np

from .errors import ConfigError, ToolkitError


def _to_builtin(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    try:
        text = json.dumps(obj, indent=2, allow_nan=False, default=_to_builtin)
    except ValueError as exc:
        raise ToolkitError(f"cannot serialize: {exc}") from exc
    return text + "\n"


def dump(obj, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(obj))


def load(path, parse):
    """``parse`` applied to the JSON object held by the file at ``path``.

    A file that holds anything but an object, or whose values have a type
    ``parse`` cannot use (it raises ``TypeError`` or ``AttributeError``),
    raises ``ConfigError`` naming the file.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} must hold a JSON object")
    try:
        return parse(doc)
    except (TypeError, AttributeError) as exc:
        raise ConfigError(f"{path} has a value of the wrong type: {exc}") from None
