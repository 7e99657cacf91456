import json
import math

import numpy as np
import pytest

from pigroups import jsonio
from pigroups.errors import ToolkitError


@pytest.mark.parametrize("value", [
    math.nan,
    math.inf,
    -math.inf,
    np.float64(np.inf),
    np.array([1.0, np.nan]),
    {"C": np.array([[1.0, 2.0], [np.inf, 3.0]])},
])
def test_non_finite_values_are_refused(value):
    with pytest.raises(ToolkitError, match="^cannot serialize: Out of range float values "
                                           "are not JSON compliant"):
        jsonio.dumps(value)


def test_layout_of_numpy_scalars_tuples_and_empty_containers():
    doc = {
        "n": np.int64(3),
        "x": np.float64(0.5),
        "flag": np.bool_(True),
        "pair": (1, 2.5),
        "empty_list": [],
        "empty_dict": {},
        "none": None,
        "matrix": np.array([[1.0, 2.0]]),
    }
    assert jsonio.dumps(doc) == (
        "{\n"
        '  "n": 3,\n'
        '  "x": 0.5,\n'
        '  "flag": true,\n'
        '  "pair": [\n'
        "    1,\n"
        "    2.5\n"
        "  ],\n"
        '  "empty_list": [],\n'
        '  "empty_dict": {},\n'
        '  "none": null,\n'
        '  "matrix": [\n'
        "    [\n"
        "      1.0,\n"
        "      2.0\n"
        "    ]\n"
        "  ]\n"
        "}\n"
    )


@pytest.mark.parametrize("value", [-0.0, 1.0, 0.1, 1e-300, 2.0 ** 0.5, 1.7976931348623157e308])
def test_floats_round_trip_exactly(value):
    again = json.loads(jsonio.dumps([value, np.float64(value)]))
    for item in again:
        assert isinstance(item, float)
        assert item == value and math.copysign(1.0, item) == math.copysign(1.0, value)


def test_dump_writes_dumps(tmp_path):
    path = tmp_path / "doc.json"
    jsonio.dump({"a": [1.25]}, path)
    assert path.read_text() == jsonio.dumps({"a": [1.25]})
