import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import evaluate_point
from pigroups import pipeflow
from pigroups.dimension import build_dimension_matrix
from pigroups.errors import ConfigError, ToolkitError
from pigroups.pipeflow import (
    _BLOCK_ROWS,
    RE_CRITICAL,
    SYMBOLS,
    PipeFlowExperiment,
    friction_factor,
    moody_grid,
    pipe_quantity_system,
    regime_box,
)
from pigroups.quadrature import latin_hypercube


def bisect_colebrook(Re, rr):
    """Independent bracketing solve of the friction-factor fixed point."""

    def residual(lam):
        return 1.0 / math.sqrt(lam) + 2.0 * math.log10(
            rr / 3.7 + 2.51 / (Re * math.sqrt(lam))
        )

    lo, hi = 1e-4, 1.0
    assert residual(lo) > 0.0 > residual(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if residual(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestPoiseuille:
    def test_values(self):
        assert friction_factor(64.0, 0.0) == 1.0
        assert friction_factor(6400.0, 0.0, re_crit=1e4) == pytest.approx(0.01, rel=1e-15)
        assert friction_factor(429.0, 0.0) == pytest.approx(64.0 / 429.0, rel=1e-15)


class TestColebrook:
    def test_matches_bisection_oracle(self):
        lam = friction_factor(1e5, 1e-3, re_crit=None)
        assert lam == pytest.approx(bisect_colebrook(1e5, 1e-3), abs=1e-10)

    def test_oracle_grid(self):
        for Re in np.logspace(4, 8, 20):
            for rr in np.linspace(0.0, 0.05, 20):
                assert friction_factor(Re, rr, re_crit=None) == pytest.approx(
                    bisect_colebrook(Re, rr), abs=1e-10
                )

    def test_smooth_pipe_friction_decreases_with_re(self):
        smooth = friction_factor(1e6, 0.0, re_crit=None)
        assert smooth > friction_factor(1e8, 0.0, re_crit=None)

    def test_fully_rough_limit(self):
        t = -2.0 * math.log10(0.02 / 3.7)
        assert friction_factor(1e9, 0.02, re_crit=None) == pytest.approx(1.0 / t**2, rel=0.01)

    def test_residual_below_tolerance_on_all_regime_boxes(self):
        for name in ("laminar", "turbulent", "high_re"):
            box = regime_box(name)
            pts = latin_hypercube(box, 200, seed=hash(name) % 2**31)
            rho, mu, D, eps, V = pts.T
            Re = rho * V * D / mu
            rr = eps / D
            lam = friction_factor(Re, rr, re_crit=None)
            res = 1.0 / np.sqrt(lam) + 2.0 * np.log10(rr / 3.7 + 2.51 / (Re * np.sqrt(lam)))
            assert np.max(np.abs(res)) < 1e-12

    def test_domain_checks(self):
        with pytest.raises(ToolkitError, match=r"^Reynolds number must be positive at point 0 "
                                               r"\(Re=-1\.0, rel_rough=0\.0\)$"):
            friction_factor(-1.0, 0.0, re_crit=None)
        with pytest.raises(ToolkitError, match=r"^relative roughness must lie in \[0, 1\) at "
                                               r"point 0 \(Re=100000\.0, rel_rough=1\.0\)$"):
            friction_factor(1e5, 1.0, re_crit=None)

    def test_domain_errors_name_the_first_offending_point(self):
        with pytest.raises(ToolkitError, match=r"^Reynolds number must be positive at "
                           r"point 2 \(Re=-1\.0, rel_rough=0\.001\)$"):
            friction_factor(np.array([1e5, 2e5, -1.0, -2.0]), 1e-3, re_crit=None)
        with pytest.raises(ToolkitError, match=r"^relative roughness must lie in \[0, 1\) at "
                           r"point 2 \(Re=100000\.0, rel_rough=1\.5\)$"):
            friction_factor(1e5, np.array([[1e-3, 1e-2], [1.5, 1e-3]]), re_crit=None)

    def test_nonpositive_logarithm_names_the_point(self, monkeypatch):
        # no input leaves the domain; with the log term's slope c = 0, Newton
        # becomes the fixed-point step t <- -2 log10(a + b t), which at Re = 1
        # overshoots to t < 0 on its second step
        monkeypatch.setattr(pipeflow, "_LN10", math.inf)
        with pytest.raises(ToolkitError, match=r"^logarithm argument became nonpositive "
                           r"at point 1 \(Re=1\.0, rel_rough=0\.0\)$"):
            friction_factor(np.array([1e5, 1.0, 1.0]), 0.0, re_crit=None)

    @pytest.mark.parametrize("Re", [1e-6, 1e-3, 1.0, 5.0, 6.9])
    @pytest.mark.parametrize("rel_rough", [0.0, 1e-3])
    def test_below_the_haaland_range_matches_bisection_on_t(self, Re, rel_rough):
        # the Haaland seed is not positive here; bisect F(t) = t + 2 log10(a + b t)
        # on (0, Re/2.51], where F < 0 near 0 and F > 0 at the right end
        a, b = rel_rough / 3.7, 2.51 / Re
        lo, hi = 0.0, 1.0 / b
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid + 2.0 * math.log10(a + b * mid) > 0.0:
                hi = mid
            else:
                lo = mid
        lam = friction_factor(Re, rel_rough, re_crit=None)
        assert lam == pytest.approx(1.0 / lo**2, rel=1e-12)

    def test_no_convergence_names_the_point(self, monkeypatch):
        # three steps converge at Re = 1e5 and 1e6 but not at Re = 100
        monkeypatch.setattr(pipeflow, "_MAX_ITER", 3)
        with pytest.raises(ToolkitError, match=r"first unconverged point 1 "
                           r"\(Re=100\.0, rel_rough=0\.001\)$"):
            friction_factor(np.array([1e5, 100.0, 1e6]), 1e-3, re_crit=None)

    @pytest.mark.parametrize("Re,rel_rough,shown", [
        (np.nan, 1e-3, "Re=nan, rel_rough=0.001"),
        (np.inf, 1e-3, "Re=inf, rel_rough=0.001"),
        (1e5, np.nan, "Re=100000.0, rel_rough=nan"),
    ], ids=["nan-re", "inf-re", "nan-rel-rough"])
    def test_non_finite_input_is_rejected_before_newton(self, monkeypatch, Re, rel_rough,
                                                         shown):
        def no_newton(*args, **kwargs):
            raise AssertionError("Newton ran on a non-finite input")

        monkeypatch.setattr(pipeflow, "_newton", no_newton)
        message = rf"must be finite at point 1 \({re.escape(shown)}\)$"
        with pytest.raises(ToolkitError, match=message):
            friction_factor(np.array([1e5, Re, 1e6]), np.array([1e-3, rel_rough, 1e-3]),
                            re_crit=None)
        with pytest.raises(ToolkitError, match=message):
            friction_factor(np.array([1e5, Re, 1e6]), np.array([1e-3, rel_rough, 1e-3]),
                            re_crit=3000.0)

    def test_branch_failure_names_the_callers_index(self, monkeypatch):
        # a non-finite point is rejected on the caller's arrays, before the branch split
        with pytest.raises(ToolkitError, match=r"must be finite at point 2 "
                           r"\(Re=6000\.0, rel_rough=nan\)$"):
            friction_factor(np.array([500.0, 5e3, 6e3]), np.array([1e-3, 1e-3, np.nan]),
                            re_crit=3000.0)
        # only point 2 reaches Colebrook, as the first of its branch, and three
        # Newton steps do not converge at Re = 100
        monkeypatch.setattr(pipeflow, "_MAX_ITER", 3)
        with pytest.raises(ToolkitError, match=r"first unconverged point 2 "
                           r"\(Re=100\.0, rel_rough=0\.001\)$"):
            friction_factor(np.array([10.0, 10.0, 100.0]), 1e-3, re_crit=50.0)

    @pytest.mark.parametrize("re_crit", [None, RE_CRITICAL])
    def test_empty_input_gives_an_empty_result(self, re_crit):
        assert friction_factor(np.empty((0, 3)), 1e-3, re_crit=re_crit).shape == (0, 3)

    def test_vectorized_matches_scalar(self):
        Re = np.array([1e4, 1e5, 1e6])
        rr = np.array([1e-4, 1e-3, 1e-2])
        vec = friction_factor(Re, rr, re_crit=None)
        for i in range(3):
            assert vec[i] == friction_factor(float(Re[i]), float(rr[i]), re_crit=None)

    def test_scalar_reynolds_broadcasts_over_roughness(self):
        rr = np.array([1e-4, 1e-3, 1e-2])
        assert np.array_equal(friction_factor(1e5, rr, re_crit=None),
                              friction_factor(np.full(3, 1e5), rr, re_crit=None))
        assert friction_factor(np.array([[1e4], [1e6]]), rr, re_crit=None).shape == (2, 3)

    @pytest.mark.parametrize("Re", [[[5.0, 1e5], [1e5, 1e5]], [[1e5, 1e5], [1e5, 5.0]]],
                             ids=["first", "last"])
    def test_low_reynolds_seed_on_a_2d_array(self, Re):
        # the rows seeded at t = Re/2.51 are found by their flat index
        lam = friction_factor(np.array(Re), 0.0, re_crit=None)
        assert np.array_equal(lam.ravel(), friction_factor(np.ravel(Re), 0.0, re_crit=None))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
           re_cols=st.booleans(), rr_rows=st.booleans(),
           re_crit=st.sampled_from([None, RE_CRITICAL, 10.0]), data=st.data())
    def test_broadcast_equals_the_flat_evaluation(self, shape, re_cols, rr_rows, re_crit,
                                                  data):
        # Re of shape (r, c) or (r, 1), rel_rough of shape (r, c) or (1, c);
        # log10 Re from -3 covers the rows below Re = 9 that start at Re/2.51
        re_shape = shape if re_cols else (shape[0], 1)
        rr_shape = (1, shape[1]) if rr_rows else shape
        log_re = data.draw(st.lists(st.floats(-3.0, 8.0), min_size=math.prod(re_shape),
                                    max_size=math.prod(re_shape)))
        rr = data.draw(st.lists(st.floats(0.0, 0.05), min_size=math.prod(rr_shape),
                                max_size=math.prod(rr_shape)))
        Re = 10.0 ** np.reshape(log_re, re_shape)
        rr = np.reshape(rr, rr_shape)
        lam = friction_factor(Re, rr, re_crit=re_crit)
        flat_re, flat_rr = (a.ravel() for a in np.broadcast_arrays(Re, rr))
        assert lam.shape == shape
        assert np.array_equal(lam, friction_factor(flat_re, flat_rr, re_crit).reshape(shape))


class TestFrictionFactor:
    def test_laminar_branch_ignores_roughness(self):
        assert friction_factor(64.0, 0.0) == 1.0
        assert friction_factor(64.0, 0.5) == 1.0

    def test_branch_switch_is_discontinuous(self):
        below = friction_factor(2999.9, 1e-3)
        above = friction_factor(3000.1, 1e-3)
        assert below == pytest.approx(64.0 / 2999.9, rel=1e-12)
        assert abs(above - below) > 0.01

    def test_laminar_midpoint_on_poiseuille_branch(self):
        Re = 0.12 * 0.0275 * 0.65 / 5e-6
        assert Re < RE_CRITICAL
        assert friction_factor(Re, 5.5e-5 / 0.65) == pytest.approx(64.0 / Re)

    def test_monotone_on_a_grid(self):
        res = np.logspace(3.7, 8, 25)
        for rr in (0.0, 1e-5, 1e-3, 0.05):
            lam = friction_factor(res, rr)
            assert np.all(np.diff(lam) < 0.0)
        for Re in (1e4, 1e6, 1e8):
            lam = friction_factor(Re, np.linspace(0.0, 0.05, 25))
            assert np.all(np.diff(lam) > 0.0)

    def test_configurable_critical_reynolds(self):
        assert friction_factor(5000.0, 0.0, re_crit=1e4) == pytest.approx(64.0 / 5000.0)

    def test_no_critical_reynolds_is_colebrook(self):
        # below RE_CRITICAL too, the value is Colebrook's, not 64/Re
        Re = np.array([500.0, 5e3, 5e5])
        lam = friction_factor(Re, 1e-3, re_crit=None)
        assert lam[0] != pytest.approx(64.0 / Re[0], rel=0.01)
        assert lam == pytest.approx([bisect_colebrook(r, 1e-3) for r in Re], abs=1e-10)

    def test_domain_checked_on_the_laminar_branch(self):
        with pytest.raises(ToolkitError, match=r"^relative roughness must lie in \[0, 1\) at "):
            friction_factor(500.0, 1.5)
        with pytest.raises(ToolkitError, match=r"^relative roughness must lie in \[0, 1\) at "):
            friction_factor(np.array([500.0, 5e4]), np.array([1.5, 1e-3]))
        with pytest.raises(ToolkitError, match="^Reynolds number must be positive at point 0 "):
            friction_factor(-500.0, 1e-3)


# the textbook model: Poiseuille below RE_CRITICAL, the Darcy pressure gradient
TEXTBOOK = PipeFlowExperiment(re_crit=RE_CRITICAL, pressure_formula="darcy")


class TestPressureLoss:
    def test_hand_chain_at_re_429(self):
        q = np.array([0.12, 5e-6, 0.65, 5e-5, 0.0275])
        expected = (64.0 / 429.0) * 0.12 * 0.0275**2 / (2.0 * 0.65)
        value = evaluate_point(TEXTBOOK, q)
        assert value == pytest.approx(expected, rel=1e-13)
        assert value == pytest.approx(1.0414e-5, rel=1e-3)

    def test_laminar_scaling_v_over_d_squared(self):
        # rows: base, twice the velocity, twice the diameter; all laminar
        Q = np.array([[0.12, 5e-6, 0.65, 5e-5, 0.0275],
                      [0.12, 5e-6, 0.65, 5e-5, 0.055],
                      [0.12, 5e-6, 1.3, 5e-5, 0.0275]])
        assert np.all(Q[:, 0] * Q[:, 4] * Q[:, 2] / Q[:, 1] < RE_CRITICAL)
        base, faster, wider = TEXTBOOK.evaluate_batch(Q)
        assert faster / base == pytest.approx(2.0, rel=1e-12)
        assert wider / base == pytest.approx(0.25, rel=1e-12)

    def test_friction_factor_round_trip(self):
        for rho, mu, D, eps, V in ([0.12, 5e-6, 0.65, 5e-5, 0.0275],
                                   [0.12, 5e-6, 0.75, 1e-3, 3.0],
                                   [0.12, 5e-6, 0.75, 0.025, 600.0]):
            dpdx = evaluate_point(TEXTBOOK, [rho, mu, D, eps, V])
            recovered = dpdx * D / (0.5 * rho * V**2)
            direct = friction_factor(rho * V * D / mu, eps / D)
            assert recovered == pytest.approx(direct, rel=1e-12)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(log_re=st.floats(1.0, np.log10(0.999 * RE_CRITICAL)),
           log_rho=st.floats(-2.0, 3.0), log_mu=st.floats(-7.0, 0.0),
           log_D=st.floats(-3.0, 1.0), rel_rough=st.floats(0.0, 0.5))
    def test_laminar_pressure_loss_is_32_mu_v_over_d_squared(self, log_re, log_rho, log_mu,
                                                              log_D, rel_rough):
        # V is chosen so that Re = rho V D / mu lies in [10, RE_CRITICAL), where
        # Colebrook's Newton seed is positive too
        rho, mu, D = 10.0**log_rho, 10.0**log_mu, 10.0**log_D
        V = 10.0**log_re * mu / (rho * D)
        q = [rho, mu, D, rel_rough * D, V]
        darcy = evaluate_point(TEXTBOOK, q)
        assert darcy == pytest.approx(32.0 * mu * V / D**2, rel=1e-12, abs=0.0)
        for re_crit in (None, RE_CRITICAL):
            fanning = evaluate_point(PipeFlowExperiment(re_crit=re_crit), q)
            assert fanning == 4.0 * evaluate_point(
                PipeFlowExperiment(re_crit, pressure_formula="darcy"), q)


class TestRegimeBoxes:
    def test_laminar_bounds(self):
        box = regime_box("laminar")
        assert np.array_equal(box.lower, [0.1, 1e-6, 0.5, 3e-5, 2.5e-2])
        assert np.array_equal(box.upper, [0.14, 1e-5, 0.8, 8e-5, 3.0e-2])

    def test_turbulent_bounds(self):
        box = regime_box("turbulent")
        assert np.array_equal(box.lower, [0.1, 1e-6, 0.5, 5e-4, 2.0])
        assert np.array_equal(box.upper, [0.14, 1e-5, 1.0, 2e-3, 4.0])

    def test_high_re_bounds(self):
        box = regime_box("high_re")
        assert np.array_equal(box.lower, [0.1, 1e-6, 0.5, 1e-2, 5e2])
        assert np.array_equal(box.upper, [0.14, 1e-5, 1.0, 4e-2, 7e2])

    def test_unknown_regime(self):
        with pytest.raises(ConfigError, match="^no regime named 'supersonic'; known: "
                                              "high_re, laminar, turbulent$"):
            regime_box("supersonic")

    def test_branch_coverage_of_the_boxes(self):
        # turbulent and high-Re corners all sit above the critical Reynolds
        # number; the laminar box straddles it slightly at its extreme corner.
        # Re = rho V D / mu is smallest with rho, D, V low and mu high
        for name in ("turbulent", "high_re"):
            box = regime_box(name)
            assert box.lower[[0, 4, 2]].prod() / box.upper[1] > RE_CRITICAL
        box = regime_box("laminar")
        re_min = box.lower[[0, 4, 2]].prod() / box.upper[1]
        re_max = box.upper[[0, 4, 2]].prod() / box.lower[1]
        assert re_min == pytest.approx(125.0, rel=1e-12)
        assert re_max == pytest.approx(3360.0, rel=1e-12)
        assert re_max > RE_CRITICAL


class TestPipeQuantitySystem:
    def test_dimension_vectors(self, pipe_system):
        by_symbol = {q.symbol: q for q in pipe_system.independents}
        assert [int(e) for e in by_symbol["V"].dims.exponents] == [0, 1, -1]
        assert [int(e) for e in by_symbol["rho"].dims.exponents] == [1, -3, 0]
        assert [int(e) for e in by_symbol["mu"].dims.exponents] == [1, -1, -1]
        assert [int(e) for e in pipe_system.dependent.dims.exponents] == [1, -2, -2]

    def test_pinned_w_solves_integer_system(self, pipe_system):
        D = build_dimension_matrix(pipe_system)
        w = np.asarray(pipe_system.pinned_w)
        assert np.array_equal(D @ w, [1.0, -2.0, -2.0])

    def test_symbol_order(self, pipe_system):
        assert pipe_system.symbols == SYMBOLS


class TestPipeFlowExperiment:
    def test_scalar_and_batch_agree(self):
        experiment = PipeFlowExperiment()
        pts = latin_hypercube(regime_box("turbulent"), 20, seed=1)
        batch = experiment.evaluate_batch(pts)
        for i, row in enumerate(pts):
            assert evaluate_point(experiment, row) == batch[i]

    def test_default_uses_colebrook_everywhere(self):
        experiment = PipeFlowExperiment()
        q = np.array([0.12, 5e-6, 0.65, 5e-5, 0.0275])  # Re = 429
        lam = friction_factor(429.0, 5e-5 / 0.65, re_crit=None)
        assert evaluate_point(experiment, q) == pytest.approx(
            2.0 * lam * 0.12 * 0.0275**2 / 0.65, rel=1e-12)

    def test_fanning_is_four_times_darcy(self):
        fanning = PipeFlowExperiment()
        darcy = PipeFlowExperiment(pressure_formula="darcy")
        q = np.array([0.12, 5e-6, 0.75, 1e-3, 3.0])
        assert evaluate_point(fanning, q) == pytest.approx(4.0 * evaluate_point(darcy, q),
                                                           rel=1e-14)

    def test_textbook_variant_matches_pressure_loss(self):
        # one row on each branch: Re = 429 (Poiseuille) and Re = 54,000 (Colebrook)
        Q = np.array([[0.12, 5e-6, 0.65, 5e-5, 0.0275],
                      [0.12, 5e-6, 0.75, 1e-3, 3.0]])
        rho, mu, D, eps, V = Q.T
        Re = rho * V * D / mu
        lam = np.array([64.0 / Re[0], friction_factor(Re[1], eps[1] / D[1], re_crit=None)])
        want = lam * rho * V**2 / (2.0 * D)
        assert np.allclose(TEXTBOOK.evaluate_batch(Q), want, rtol=1e-14, atol=0.0)

    def test_positivity_enforced(self):
        for column in (0, 4):  # rho = 0 or V = 0 gives Re = 0
            q = np.array([0.12, 5e-6, 0.65, 5e-5, 0.0275])
            q[column] = 0.0
            with pytest.raises(ToolkitError, match="Reynolds number must be positive "
                               "at point 0 "):
                evaluate_point(PipeFlowExperiment(), q)

    def test_roughness_below_diameter(self):
        with pytest.raises(ToolkitError, match=r"relative roughness must lie in \[0, 1\) "
                           r"at point 0 \(Re=\S+, rel_rough=1\.0\)$"):
            evaluate_point(PipeFlowExperiment(), [0.12, 5e-6, 0.65, 0.65, 0.0275])

    def test_bad_formula_rejected(self):
        with pytest.raises(ToolkitError, match="^pressure_formula must be 'fanning' or "
                                               "'darcy', got 'blasius'$"):
            PipeFlowExperiment(pressure_formula="blasius")

    @pytest.mark.parametrize("re_crit", [None, RE_CRITICAL])
    def test_roughness_domain_checked_on_every_row(self, re_crit):
        # first row is laminar (Re = 429) with eps/D = 1.5, second is turbulent
        Q = np.array([[0.12, 5e-6, 0.65, 0.975, 0.0275],
                      [0.12, 5e-6, 0.75, 1e-3, 3.0]])
        with pytest.raises(ToolkitError, match=r"^relative roughness must lie in \[0, 1\) at "):
            PipeFlowExperiment(re_crit=re_crit).evaluate_batch(Q)


def block_points(*block_regimes):
    """2 _BLOCK_ROWS + 5 rows; the rows of block b alternate between the
    regime boxes named in block_regimes[b]."""
    Q = np.empty((2 * _BLOCK_ROWS + 5, 5))
    for b, regimes in enumerate(block_regimes):
        block = Q[b * _BLOCK_ROWS:(b + 1) * _BLOCK_ROWS]
        for j, name in enumerate(regimes):
            rows = block[j::len(regimes)]
            rows[:] = latin_hypercube(regime_box(name), len(rows), seed=10 * b + j)
    return Q


# Newton needs fewer steps on the middle block than on the others, so a
# whole-batch solve differs from the blocked one in the last bits. With
# re_crit = 3000 every block holds laminar rows on both branches.
COLEBROOK_BLOCKS = (("laminar", "turbulent"), ("turbulent", "high_re"), ("high_re", "laminar"))
BRANCH_BLOCKS = (("laminar", "high_re"), ("laminar", "turbulent"), ("laminar", "high_re"))


class TestEvaluationBlocks:
    N_ROWS = 2 * _BLOCK_ROWS + 5

    @pytest.mark.parametrize("re_crit,formula,regimes", [
        (None, "fanning", COLEBROOK_BLOCKS),
        (None, "darcy", COLEBROOK_BLOCKS),
        (RE_CRITICAL, "fanning", BRANCH_BLOCKS),
        (RE_CRITICAL, "darcy", BRANCH_BLOCKS),
    ], ids=["fanning", "darcy", "branches-fanning", "branches-darcy"])
    def test_batch_is_the_concatenation_of_its_blocks(self, re_crit, formula, regimes):
        experiment = PipeFlowExperiment(re_crit=re_crit, pressure_formula=formula)
        Q = block_points(*regimes)
        if re_crit is not None:
            Re = Q[:, 0] * Q[:, 4] * Q[:, 2] / Q[:, 1]
            for edge in (_BLOCK_ROWS, 2 * _BLOCK_ROWS):
                for side in (Re[edge - 4:edge], Re[edge:edge + 4]):
                    assert np.any(side < re_crit) and np.any(side >= re_crit)
        blocks = [experiment.evaluate_batch(Q[s:s + _BLOCK_ROWS])
                  for s in range(0, self.N_ROWS, _BLOCK_ROWS)]
        assert [len(b) for b in blocks] == [_BLOCK_ROWS, _BLOCK_ROWS, 5]
        assert np.array_equal(experiment.evaluate_batch(Q), np.concatenate(blocks))

    def test_bad_row_in_a_later_block_names_its_global_index(self, monkeypatch):
        bad = 2 * _BLOCK_ROWS + 3
        Q = block_points(*COLEBROOK_BLOCKS)
        Q[bad, 3] = np.nan
        with pytest.raises(ToolkitError, match=rf"must be finite at point {bad} "):
            PipeFlowExperiment().evaluate_batch(Q)
        # with a re_crit, the index passes through the block and the Colebrook subset:
        # Re = 1e-5 rows take Poiseuille; in three Newton steps row bad - 2
        # (Re = 1e5) converges and row bad (Re = 100) does not
        monkeypatch.setattr(pipeflow, "_MAX_ITER", 3)
        Q = np.tile([1.0, 1.0, 1.0, 0.0, 1e-5], (self.N_ROWS, 1))
        Q[bad - 2, 4] = 1e5
        Q[bad, 4] = 100.0
        with pytest.raises(ToolkitError, match=rf"first unconverged point {bad} "
                           r"\(Re=100\.0, rel_rough=0\.0\)$"):
            PipeFlowExperiment(re_crit=1e-4).evaluate_batch(Q)

    def test_each_row_agrees_with_its_single_evaluation(self):
        # Newton stops on each block's largest residual, so agreement is to
        # the solver tolerance, not to the bit
        experiment = PipeFlowExperiment()
        Q = block_points(*COLEBROOK_BLOCKS)
        batch = experiment.evaluate_batch(Q)
        single = np.array([evaluate_point(experiment, row) for row in Q])
        assert np.allclose(batch, single, rtol=1e-12, atol=0.0)


class TestMoodyGrid:
    def test_shape_and_values(self):
        grid = moody_grid(RE_CRITICAL)
        assert grid.shape == (120 * 12, 3)
        assert np.all(np.isfinite(grid))
        log_re, log_rr, lam = grid[137]
        assert lam == pytest.approx(friction_factor(10**log_re, 10**log_rr), rel=1e-12)
        assert np.all(grid[:, 2] > 0.0)
