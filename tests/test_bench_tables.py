"""The benchmark gate's copy of the acceptance tables.

``perfbench/check.py`` keeps its own copy of the reference exponents,
eigenvalues and tolerances, so that the gate does not move when the tests
do. This test makes a change to either copy fail until the other follows.
"""

import importlib.util
import sys
from pathlib import Path

from test_acceptance import (
    DZ_TOL,
    EIG_TOL,
    HIGHRE_EIG1,
    HIGHRE_Z1,
    LAMINAR_EIG1,
    LAMINAR_Z1,
    TURBULENT_EIG_FD,
    TURBULENT_Z1_FD,
    TURBULENT_Z1_RS,
    TURBULENT_Z2_FD,
)

CHECK = Path(__file__).resolve().parents[1] / "perfbench" / "check.py"


def load_check(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_check", CHECK)
    module = importlib.util.module_from_spec(spec)
    # registered first: the dataclass decorator looks the module up by name
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_perfbench_tables_equal_the_acceptance_tables(monkeypatch):
    check = load_check(monkeypatch)
    groups_and_eig1 = {
        ("fd", "turbulent"): ((TURBULENT_Z1_FD, TURBULENT_Z2_FD), TURBULENT_EIG_FD[0]),
        ("fd", "laminar"): ((LAMINAR_Z1,), LAMINAR_EIG1),
        ("fd", "high_re"): ((HIGHRE_Z1,), HIGHRE_EIG1),
        ("surface", "turbulent"): ((TURBULENT_Z1_RS,), TURBULENT_EIG_FD[0]),
    }
    expected = {
        key: (tuple(tuple(z.tolist()) for z in groups), float(eig1), DZ_TOL[key])
        for key, (groups, eig1) in groups_and_eig1.items()
    }
    assert check.REFERENCES == expected
    assert check.EIG_TOL == EIG_TOL
