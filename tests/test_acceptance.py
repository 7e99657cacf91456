"""Acceptance suite: every shipped-table and property criterion at its
pinned tolerance, one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``. The heavy fixtures
(full tensor-rule regime analyses and the step-size sweeps) are computed
once per session.
"""

import numpy as np
import pytest

from helpers import (
    RidgeExperiment,
    exp_g,
    express_in_classical,
    linear_g,
    quadratic_g,
)
from pigroups.algorithms import (
    AlgorithmConfig,
    CountingExperiment,
    algorithm1,
    algorithm2,
    full_space_C,
)
from pigroups.cli import fit_loglog_slope, signed_column_distance
from pigroups.dimension import PiBasis, build_dimension_matrix, check_dimensionless
from pigroups.pipeflow import PipeFlowExperiment, friction_factor, regime_box
from pigroups.quadrature import RegimeBox, gauss_legendre_1d, tensor_rule
from pigroups.subspace import assemble_C, eigendecompose, rotation_angle

# reference exponent tables and eigenvalues for the three flow regimes
TURBULENT_Z1_FD = np.array([0.309, -0.309, 0.732, -0.423, 0.309])
TURBULENT_Z2_FD = np.array([0.436, -0.436, -0.190, 0.627, 0.436])
TURBULENT_EIG_FD = np.array([3.58e-4, 1.70e-5])
TURBULENT_Z1_RS = np.array([0.304, -0.304, 0.734, -0.429, 0.304])
LAMINAR_Z1 = np.array([0.5, -0.5, 0.5, 0.0, 0.5])
LAMINAR_EIG1 = 2.39e-2
HIGHRE_Z1 = np.array([0.0, 0.0, 0.707, -0.707, 0.0])
HIGHRE_EIG1 = 5.71e-3
CLASSICAL_RE = np.array([1.0, -1.0, 1.0, 0.0, 1.0])
CLASSICAL_ROUGH = np.array([0.0, 0.0, -1.0, 1.0, 0.0])

H_SWEEP_RIDGE = [1e-2, 1e-3, 1e-4, 1e-5]
H_SWEEP_FD = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7]


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def aligned(column, reference):
    column = np.asarray(column, dtype=float)
    return column if column @ reference >= 0 else -column


@pytest.fixture(scope="module")
def experiment():
    return PipeFlowExperiment()


@pytest.fixture(scope="module")
def fd_runs(experiment, pipe_system, pipe_basis):
    config = AlgorithmConfig(h=1e-6, quad="tensor:11", seed=0)
    return {
        name: algorithm2(experiment, pipe_system, pipe_basis, regime_box(name), config)
        for name in ("laminar", "turbulent", "high_re")
    }


@pytest.fixture(scope="module")
def rs_run(experiment, pipe_system, pipe_basis):
    config = AlgorithmConfig(degree=2, design=1000, holdout=200, quad="tensor:11", seed=0)
    return algorithm1(experiment, pipe_system, pipe_basis, regime_box("turbulent"), config)[0]


@pytest.fixture(scope="module")
def ridge_sweeps(experiment):
    tables = {}
    for name in ("laminar", "turbulent", "high_re"):
        rule = tensor_rule(regime_box(name), 11)
        rows = [full_space_C(experiment, rule, h=h).eigenvalues for h in H_SWEEP_RIDGE]
        tables[name] = np.array(rows)
    return tables


@pytest.fixture(scope="module")
def fd_sweeps(experiment, pipe_system, pipe_basis):
    errors = {}
    for name in ("laminar", "turbulent"):
        box = regime_box(name)
        Zs = {}
        for h in H_SWEEP_FD:
            config = AlgorithmConfig(h=h, quad="tensor:7", seed=0)
            Zs[h] = algorithm2(experiment, pipe_system, pipe_basis, box, config).Z
        reference = Zs[H_SWEEP_FD[-1]]
        errors[name] = {h: signed_column_distance(Zs[h], reference) for h in H_SWEEP_FD[:-1]}
    return errors


class TestCriterion1TurbulentFiniteDifference:
    def test_exponents_and_eigenvalues(self, fd_runs):
        result = fd_runs["turbulent"]
        d1 = np.max(np.abs(aligned(result.Z[:, 0], TURBULENT_Z1_FD) - TURBULENT_Z1_FD))
        d2 = np.max(np.abs(aligned(result.Z[:, 1], TURBULENT_Z2_FD) - TURBULENT_Z2_FD))
        eig_dev = np.max(np.abs(result.eigenvalues / TURBULENT_EIG_FD - 1.0))
        ok = d1 < 0.02 and d2 < 0.02 and eig_dev < 0.10
        assert report(
            "1 (turbulent, finite differences)", ok,
            f"|dz1|={d1:.2e} |dz2|={d2:.2e} (tol 0.02), eig dev {eig_dev:.1%} (tol 10%)",
        )

    def test_group_exponents_are_dimensionless(self, fd_runs, pipe_system):
        D = build_dimension_matrix(pipe_system)
        worst = max(
            check_dimensionless(D, run.Z[:, j])
            for run in fd_runs.values() for j in range(run.Z.shape[1])
        )
        assert worst < 1e-10


class TestCriterion2TurbulentResponseSurface:
    def test_exponents(self, rs_run):
        d1 = np.max(np.abs(aligned(rs_run.Z[:, 0], TURBULENT_Z1_RS) - TURBULENT_Z1_RS))
        ok = d1 < 0.05
        assert report(
            "2 (turbulent, response surface)", ok,
            f"|dz1|={d1:.2e} (tol 0.05), holdout rmse {rs_run.metadata['holdout_rmse']:.2e}",
        )


class TestCriterion3Laminar:
    def test_exponents_and_eigenvalues(self, fd_runs):
        result = fd_runs["laminar"]
        d1 = np.max(np.abs(aligned(result.Z[:, 0], LAMINAR_Z1) - LAMINAR_Z1))
        lam = result.eigenvalues
        ratio = lam[1] / lam[0]
        eig_dev = abs(lam[0] / LAMINAR_EIG1 - 1.0)
        ok = d1 < 0.01 and ratio < 1e-5 and eig_dev < 0.10
        assert report(
            "3 (laminar)", ok,
            f"|dz1|={d1:.2e} (tol 0.01), eig ratio {ratio:.1e} (tol 1e-5), "
            f"eig1 dev {eig_dev:.1%} (tol 10%)",
        )


class TestCriterion4HighReynolds:
    def test_exponents_and_eigenvalues(self, fd_runs):
        result = fd_runs["high_re"]
        d1 = np.max(np.abs(aligned(result.Z[:, 0], HIGHRE_Z1) - HIGHRE_Z1))
        lam = result.eigenvalues
        ratio = lam[1] / lam[0]
        eig_dev = abs(lam[0] / HIGHRE_EIG1 - 1.0)
        ok = d1 < 0.01 and ratio < 1e-6 and eig_dev < 0.10
        assert report(
            "4 (high Reynolds)", ok,
            f"|dz1|={d1:.2e} (tol 0.01), eig ratio {ratio:.1e} (tol 1e-6), "
            f"eig1 dev {eig_dev:.1%} (tol 10%)",
        )


class TestCriterion5ClassicalBasis:
    def test_exponent_combinations(self, fd_runs):
        W_classical = np.column_stack([CLASSICAL_RE, CLASSICAL_ROUGH])
        E, residual = express_in_classical(fd_runs["turbulent"].Z, W_classical)
        e1 = aligned(E[:, 0], np.array([0.309, -0.423]))
        e2 = aligned(E[:, 1], np.array([0.436, 0.627]))
        d1 = np.max(np.abs(e1 - np.array([0.309, -0.423])))
        d2 = np.max(np.abs(e2 - np.array([0.436, 0.627])))
        ok = d1 < 0.02 and d2 < 0.02 and residual < 1e-8
        assert report(
            "5 (classical-basis exponents)", ok,
            f"group1 ({e1[0]:.3f}, {e1[1]:.3f}), group2 ({e2[0]:.3f}, {e2[1]:.3f}), "
            f"tol 0.02, residual {residual:.1e}",
        )


class TestCriterion6RotationAngle:
    def test_angle(self, fd_runs):
        angle = rotation_angle(fd_runs["turbulent"].U)
        ok = abs(angle - 127.0) <= 3.0
        assert report("6 (rotation angle)", ok, f"{angle:.1f} degrees (target 127 +/- 3)")


class TestCriterion7RidgeStructure:
    def test_trailing_decay_and_leading_stability(self, ridge_sweeps):
        # The forward difference has an O(h) gradient error e. For u
        # orthogonal to span{w, W} the exact u^T C u is zero, so the
        # computed one is E[(u^T e)^2] = O(h^2): the trailing eigenvalues
        # are a quadratic form in the gradient error and decay at SECOND
        # order, hence the window [1.6, 2.4]. They do so only down to the
        # eigensolver's backward-error level m * eps * lambda_1; values at
        # or below it are round-off, so the slope is fitted through the h
        # values above it. An eigenvalue with fewer than two such points
        # must sit at that level at the smallest h (an exact ridge). The
        # leading three eigenvalues are h-stable.
        hs = np.asarray(H_SWEEP_RIDGE)
        smallest = int(np.argmin(hs))
        ok = True
        details = []
        for name, table in ridge_sweeps.items():
            floor = table.shape[1] * np.finfo(float).eps * table[:, 0]
            slopes = []
            slopes_ok = True
            for idx in (3, 4):
                above = table[:, idx] > floor
                if above.sum() >= 2:
                    slope = fit_loglog_slope(hs[above], table[above, idx])
                    slopes.append(f"{slope:.2f}")
                    slopes_ok = slopes_ok and 1.6 <= slope <= 2.4
                else:
                    slopes.append("floor")
                    slopes_ok = slopes_ok and not above[smallest]
            drift = np.max(np.abs(table[-1, :3] / table[-2, :3] - 1.0))
            drift_ok = drift < 0.05
            ok = ok and slopes_ok and drift_ok
            details.append(
                f"{name}: slopes ({', '.join(slopes)}) "
                f"{'ok' if slopes_ok else 'OUT OF [1.6, 2.4] or above floor'}, "
                f"leading drift {drift:.2%} {'ok' if drift_ok else 'TOO LARGE'}"
            )
        assert report("7 (ridge-structure decay)", ok, "; ".join(details))


class TestCriterion8ExponentConvergence:
    def test_first_order_with_floor_near_1e6(self, fd_sweeps):
        ok = True
        details = []
        for name, errors in fd_sweeps.items():
            pre_floor = [h for h in H_SWEEP_FD[:-1] if h >= 1e-5]
            slope = fit_loglog_slope(pre_floor, [errors[h] for h in pre_floor])
            slope_ok = 0.8 <= slope <= 1.2
            floor_ok = errors[1e-6] < 1e-5  # 6-to-7 accurate digits at h = 1e-6
            monotone = all(
                errors[a] > errors[b]
                for a, b in zip(H_SWEEP_FD[:-2], H_SWEEP_FD[1:-1])
            )
            ok = ok and slope_ok and floor_ok and monotone
            details.append(
                f"{name}: slope {slope:.2f}, error at 1e-6 {errors[1e-6]:.1e}, "
                f"monotone {monotone}"
            )
        assert report("8 (exponent convergence)", ok, "; ".join(details))


class TestCriterion9PropertySuite:
    def test_a_rotation_invariance(self, pipe_system, pipe_basis):
        fn = quadratic_g(np.array([2.0, -0.5]), np.array([[0.8, 0.3], [0.3, -0.4]]))
        experiment = RidgeExperiment(pipe_basis.w, pipe_basis.W, fn)
        box = regime_box("turbulent")
        config = AlgorithmConfig(degree=2, design=150, holdout=0, quad="tensor:5", seed=1)
        reference, _ = algorithm1(experiment, pipe_system, pipe_basis, box, config)
        lam = reference.eigenvalues
        assert lam[0] - lam[1] > 1e-3 * lam[0]
        worst = 0.0
        gen = np.random.default_rng(99)
        for _ in range(10):
            Q, R = np.linalg.qr(gen.normal(size=(2, 2)))
            Q = Q * np.sign(np.diag(R))
            rebased = PiBasis(w=pipe_basis.w, W=pipe_basis.W @ Q)
            result, _ = algorithm1(experiment, pipe_system, rebased, box, config)
            worst = max(worst, signed_column_distance(result.Z, reference.Z))
        ok = worst < 1e-6
        assert report("9a (rotation invariance of Z)", ok,
                      f"max sign-adjusted |dZ| over 10 re-bases {worst:.1e} (tol 1e-6)")

    def test_b_rotated_diagonal_identity(self):
        gen = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            n = int(gen.integers(2, 6))
            A = gen.normal(size=(n, n))
            C = A @ A.T
            lam, U = eigendecompose(C)
            nu = np.diag(U.T @ C @ U)
            scale = max(1.0, lam[0])
            worst = max(worst, float(np.max(np.abs(nu - lam))) / scale)
        ok = worst < 1e-10
        assert report("9b (rotated sensitivity identity)", ok,
                      f"max |diag(U^T C U) - eig| {worst:.1e} (tol 1e-10)")

    def test_c_exact_ridge_experiments(self, pipe_system, pipe_basis):
        box = regime_box("turbulent")
        config = AlgorithmConfig(h=1e-6, quad="tensor:5", seed=0)
        a = np.array([3.0, 1.0])
        u_expected = a / np.linalg.norm(a)

        linear = algorithm2(
            RidgeExperiment(pipe_basis.w, pipe_basis.W, linear_g(a)),
            pipe_system, pipe_basis, box, config)
        exponential = algorithm2(
            RidgeExperiment(pipe_basis.w, pipe_basis.W, exp_g(a)),
            pipe_system, pipe_basis, box, config)
        monomial = full_space_C(
            RidgeExperiment(pipe_basis.w, pipe_basis.W, lambda G: np.ones(len(G))),
            tensor_rule(box, 5), h=1e-6)

        trail = max(linear.eigenvalues[1] / linear.eigenvalues[0],
                    exponential.eigenvalues[1] / exponential.eigenvalues[0])
        u_dev = max(
            float(np.max(np.abs(aligned(r.U[:, 0], u_expected) - u_expected)))
            for r in (linear, exponential)
        )
        mono_trail = float(np.max(monomial.eigenvalues[1:]) / monomial.eigenvalues[0])
        w_dir = pipe_basis.w / np.linalg.norm(pipe_basis.w)
        mono_dev = float(np.max(np.abs(aligned(monomial.U[:, 0], w_dir) - w_dir)))
        ok = trail < 1e-12 and u_dev < 1e-6 and mono_trail < 1e-12 and mono_dev < 1e-5
        assert report(
            "9c (exact-ridge synthetics)", ok,
            f"trailing/leading {trail:.1e} (tol 1e-12), |du1| {u_dev:.1e} (tol 1e-6), "
            f"full-space trailing {mono_trail:.1e}",
        )

    def test_d_colebrook_against_bisection(self):
        import math

        def bisect(Re, rr):
            def residual(lam):
                return 1.0 / math.sqrt(lam) + 2.0 * math.log10(
                    rr / 3.7 + 2.51 / (Re * math.sqrt(lam)))
            lo, hi = 1e-4, 1.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if residual(mid) > 0.0:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        worst = 0.0
        for Re in np.logspace(4, 8, 20):
            for rr in np.linspace(0.0, 0.05, 20):
                lam = friction_factor(float(Re), float(rr), re_crit=None)
                worst = max(worst, abs(lam - bisect(Re, rr)))
        ok = worst < 1e-10
        assert report("9d (Colebrook vs bisection)", ok,
                      f"max |dlambda| on 20x20 grid {worst:.1e} (tol 1e-10)")

    def test_e_quadrature_exactness(self):
        gen = np.random.default_rng(7)
        box = RegimeBox.from_pairs([(0.3, 1.1), (2.0, 7.0)])
        worst = 0.0
        for p in (1, 2, 3, 5, 8):
            rule = tensor_rule(box, p)
            points, weights = rule.rows(0, len(rule)), rule.weights[0:len(rule)]
            for _ in range(10):
                degs = gen.integers(0, 2 * p, size=2)
                approx = float(np.sum(weights * np.prod(points**degs, axis=1)))
                exact = 1.0
                for (a, b), d in zip(zip(box.lower, box.upper), degs):
                    exact *= (b ** (d + 1) - a ** (d + 1)) / ((d + 1) * (b - a))
                worst = max(worst, abs(approx / exact - 1.0))
        x, w = gauss_legendre_1d(11)
        one_d = abs(np.sum(w * x**20) - 2.0 / 21.0)
        ok = worst < 1e-12 and one_d < 1e-14
        assert report("9e (quadrature exactness)", ok,
                      f"max relative moment error {worst:.1e} (tol 1e-12)")

    def test_f_evaluation_budget(self, pipe_system, pipe_basis):
        counter = CountingExperiment(PipeFlowExperiment())
        config = AlgorithmConfig(h=1e-6, quad="tensor:5", seed=0)
        result = algorithm2(counter, pipe_system, pipe_basis, regime_box("turbulent"), config)
        expected = 5**5 * (pipe_basis.n + 1)
        ok = counter.count == expected == result.metadata["evaluations"]
        assert report("9f (evaluation budget)", ok,
                      f"{counter.count} evaluations, expected {expected}")


class TestReferenceBudget:
    def test_full_rule_evaluation_count(self, fd_runs):
        # 11 points in 5 dimensions, one base run plus one per group
        assert fd_runs["turbulent"].metadata["evaluations"] == 483153
