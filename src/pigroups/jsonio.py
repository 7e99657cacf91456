"""Deterministic JSON emission; the one reader of JSON input files, and
the one check of their keys. An input object that repeats a key is refused.

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


def check_keys(doc: dict, known, what: str) -> None:
    """Refuse the keys of ``doc`` that ``known`` lacks, naming them."""
    unknown = set(doc) - set(known)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {', '.join(sorted(unknown))}")


def _unique_keys(pairs) -> dict:
    """The JSON object of ``pairs``, refused if it repeats a key."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ConfigError(f"repeats the key {key!r}")
        doc[key] = value
    return doc


def load(path, parse):
    """``parse`` applied to the JSON object held by the file at ``path``.

    A file that is not JSON, holds anything but an object, repeats a key in
    an object, or that ``parse`` refuses raises ``ConfigError`` whose
    message starts with the path and ends with the refusal's own text; a
    missing or repeated key is named.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
    except ConfigError as exc:
        raise ConfigError(f"{path} {exc}") from None
    except ValueError as exc:  # includes a file that is not UTF-8
        raise ConfigError(f"{path} is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} must hold a JSON object")
    try:
        return parse(doc)
    except KeyError as exc:
        raise ConfigError(f"{path} lacks the key {exc.args[0]!r}") from None
    except (TypeError, AttributeError) as exc:
        raise ConfigError(f"{path} has a value of the wrong type: {exc}") from None
    except (ToolkitError, ValueError, ArithmeticError, LookupError) as exc:
        raise ConfigError(f"{path} is refused: {exc}") from None
