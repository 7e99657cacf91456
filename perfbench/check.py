"""Correctness check run after every benchmarked CLI command.

A command passes when it exited 0 and its ``result.json`` and
``manifest.json`` agree with the paper's pipe-flow tables and with the
evaluation counts the command must cost. The tables are copied from the
acceptance suite (``tests/test_acceptance.py``) so that the benchmark's
gate does not move when the tests do.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TURBULENT_Z1_FD = (0.309, -0.309, 0.732, -0.423, 0.309)
TURBULENT_Z2_FD = (0.436, -0.436, -0.190, 0.627, 0.436)
TURBULENT_Z1_RS = (0.304, -0.304, 0.734, -0.429, 0.304)
TURBULENT_EIG1 = 3.58e-4
LAMINAR_Z1 = (0.5, -0.5, 0.5, 0.0, 0.5)
LAMINAR_EIG1 = 2.39e-2
HIGHRE_Z1 = (0.0, 0.0, 0.707, -0.707, 0.0)
HIGHRE_EIG1 = 5.71e-3

# (route, regime) -> (leading reference group(s), leading eigenvalue, |dz| tolerance)
REFERENCES = {
    ("fd", "turbulent"): ((TURBULENT_Z1_FD, TURBULENT_Z2_FD), TURBULENT_EIG1, 0.02),
    ("fd", "laminar"): ((LAMINAR_Z1,), LAMINAR_EIG1, 0.01),
    ("fd", "high_re"): ((HIGHRE_Z1,), HIGHRE_EIG1, 0.01),
    ("surface", "turbulent"): ((TURBULENT_Z1_RS,), TURBULENT_EIG1, 0.05),
}
EIG_TOL = 0.10
DZ_TOL = 1e-10


@dataclass(frozen=True)
class Expectation:
    """What one analyze command must produce."""

    route: str              # "fd" (algorithm 2) or "surface" (algorithm 1)
    regime: str
    evaluations: int        # manifest "evaluations": N(n+1), or the design size
    experiment_calls: int   # manifest "total_experiment_calls"
    rule_points: int        # quadrature points integrated into C


@dataclass
class Outcome:
    z_err: float = float("nan")
    eig_err: float = float("nan")
    experiment_calls: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def dimension_matrix(system_doc: dict) -> np.ndarray:
    """D from a quantity-system JSON document: one column of dims per independent."""
    return np.array([q["dims"] for q in system_doc["independents"]], dtype=float).T


def check_result(result: dict, manifest: dict, expect: Expectation, D: np.ndarray) -> Outcome:
    """Compare one command's result and manifest with the tables and counts."""
    out = Outcome(experiment_calls=int(manifest.get("total_experiment_calls", 0)))
    refs, eig_ref, z_tol = REFERENCES[(expect.route, expect.regime)]
    Z = np.asarray(result["Z"], dtype=float)
    lam = np.asarray(result["eigenvalues"], dtype=float)
    out.z_err = max(_aligned_distance(Z[:, j], np.asarray(ref)) for j, ref in enumerate(refs))
    out.eig_err = abs(lam[0] / eig_ref - 1.0)
    if not out.z_err <= z_tol:
        out.problems.append(f"|dz| = {out.z_err:.3e} exceeds {z_tol}")
    if not out.eig_err <= EIG_TOL:
        out.problems.append(f"leading eigenvalue off by {out.eig_err:.1%} (limit {EIG_TOL:.0%})")
    dz = float(np.max(np.abs(D @ Z)))
    if not dz < DZ_TOL:
        out.problems.append(f"|D z| = {dz:.3e} is not below {DZ_TOL}")
    for key, want in (("evaluations", expect.evaluations),
                      ("total_experiment_calls", expect.experiment_calls)):
        if manifest.get(key) != want:
            out.problems.append(f"manifest {key} = {manifest.get(key)!r}, expected {want}")
    return out


def check_command(exit_code: int | None, out_dir: Path, expect: Expectation,
                  D: np.ndarray) -> Outcome:
    """Check a finished command from its exit code (None: killed on timeout)
    and the files it wrote."""
    if exit_code is None:
        return Outcome(problems=["timed out"])
    if exit_code != 0:
        return Outcome(problems=[f"exit code {exit_code}"])
    try:
        result = json.loads((out_dir / "result.json").read_text())
        manifest = json.loads((out_dir / "manifest.json").read_text())
        return check_result(result, manifest, expect, D)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return Outcome(problems=[f"unreadable output: {exc!r}"])


def _aligned_distance(column: np.ndarray, reference: np.ndarray) -> float:
    if column @ reference < 0:
        column = -column
    return float(np.max(np.abs(column - reference)))
