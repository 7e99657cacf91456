"""The package's declared Python floor against its declared dependency."""

import importlib.metadata
import re
import tomllib
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def lower_bound(spec: str) -> tuple[int, ...]:
    """The version of the ``>=`` clause of a version specifier, as three
    integers, so that 3.11 and 3.11.0 compare equal."""
    match = re.search(r">=\s*(\d+(?:\.\d+)*)", spec)
    assert match is not None, f"no '>=' clause in {spec!r}"
    parts = [int(part) for part in match.group(1).split(".")]
    return tuple(parts + [0] * (3 - len(parts)))


def test_the_python_floor_can_install_the_installed_numpy():
    with open(PYPROJECT, "rb") as fh:
        floor = tomllib.load(fh)["project"]["requires-python"]
    numpy_floor = importlib.metadata.metadata("numpy")["Requires-Python"]
    assert lower_bound(floor) >= lower_bound(numpy_floor), (floor, numpy_floor)
