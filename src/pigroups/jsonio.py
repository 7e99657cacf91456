"""Deterministic JSON emission.

Floats are written in their shortest form that round-trips exactly (the
standard library's ``repr``); dict keys keep insertion order. Identical
data therefore always produces byte-identical files, which the CLI relies
on for reproducibility. NaN and infinity are refused with ``NonFinite``.
"""

import json

import numpy as np

from .errors import NonFinite


def _to_builtin(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    try:
        text = json.dumps(obj, indent=2, allow_nan=False, default=_to_builtin)
    except ValueError as exc:
        raise NonFinite(f"cannot serialize: {exc}") from exc
    return text + "\n"


def dump(obj, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(obj))
