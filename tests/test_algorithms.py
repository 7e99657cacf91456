import contextlib
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    PointsRule,
    RidgeExperiment,
    evaluate_point,
    exp_g,
    fd_copies,
    fd_gradient,
    fd_shift_point,
    fd_whole_rule,
    linear_g,
    quadratic_g,
    whole_trace,
)
from pigroups import algorithms, jsonio, quadrature, subspace
from pigroups.algorithms import (
    DIMENSIONLESS_TOL,
    AlgorithmConfig,
    CountingExperiment,
    algorithm1,
    algorithm2,
    build_rule,
    evaluate_experiment,
    full_space_C,
    predict_dependent,
)
from pigroups.cli import main, signed_column_distance
from pigroups.dimension import (
    RANK_RTOL,
    PiBasis,
    Quantity,
    QuantitySystem,
    build_dimension_matrix,
    check_dimensionless,
    pi_basis,
)
from pigroups.errors import ConfigError, ExternalError, ToolkitError
from pigroups.pipeflow import PipeFlowExperiment, regime_box
from pigroups.quadrature import RegimeBox, tensor_rule
from pigroups.subspace import assemble_C
from pigroups.surrogate import fit_polynomial, grad_surface


BOX = regime_box("turbulent")


def small_config(**kw):
    base = dict(h=1e-6, degree=2, quad="tensor:3", seed=0, design=60, holdout=20)
    base.update(kw)
    return AlgorithmConfig(**base)


def fd_heap_peak(basis, quad) -> int:
    """Bytes traced at the peak, above the start, while a rule is built from
    ``quad`` over BOX and the finite-difference route assembles its C, in
    the groups of ``basis`` or, if it is None, in the full space. A tensor:2
    run first makes what a first run in a process makes once."""
    def run(spec):
        rule = build_rule(BOX, AlgorithmConfig(quad=spec))
        if basis is None:
            full_space_C(PipeFlowExperiment(), rule, 1e-6)
            return
        assemble_C(rule, algorithms._forward_differences(PipeFlowExperiment(), rule, basis.w,
                                                         basis.W, 1e-6))

    run("tensor:2")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run(quad)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def random_orthogonal(n, seed):
    gen = np.random.default_rng(seed)
    Q, R = np.linalg.qr(gen.normal(size=(n, n)))
    return Q * np.sign(np.diag(R))


class TestAlgorithmConfig:
    def test_quad_parsing(self):
        assert AlgorithmConfig(quad="tensor:11").parse_quad() == ("tensor", 11)
        assert AlgorithmConfig(quad="mc:5000").parse_quad() == ("mc", 5000)
        assert AlgorithmConfig(quad="mc:" + "0" * 5000 + "7").parse_quad() == ("mc", 7)

    @pytest.mark.parametrize("bad", ["tensor", "grid:3", "mc:-1", "tensor:abc"])
    def test_bad_quad_spec(self, bad):
        with pytest.raises(ConfigError, match="^--quad "):
            AlgorithmConfig(quad=bad)

    def test_h_and_degree_validated(self):
        with pytest.raises(ConfigError, match="^--h must be a positive number, got 0.0$"):
            AlgorithmConfig(h=0.0)
        with pytest.raises(ConfigError, match="^--degree must be at least 1, got 0$"):
            AlgorithmConfig(degree=0)

    def test_build_rule_sizes(self):
        assert len(build_rule(BOX, small_config())) == 243
        assert len(build_rule(BOX, small_config(quad="mc:100"))) == 100


class TestEvaluateExperiment:
    def test_non_finite_reported_with_index(self):
        class Bad:
            def evaluate_batch(self, Q):
                out = np.ones(len(Q))
                out[3] = np.inf
                return out

        with pytest.raises(ToolkitError, match="^experiment returned inf at point index 3$"):
            evaluate_experiment(Bad(), np.ones((5, 2)))

    def test_raising_experiment_wrapped(self):
        class Boom:
            def evaluate_batch(self, Q):
                raise RuntimeError("kaput")

        with pytest.raises(ToolkitError, match=r"^experiment raised RuntimeError\('kaput'\)$"):
            evaluate_experiment(Boom(), np.ones((2, 2)))

    def test_wrong_length_output(self):
        class Short:
            def evaluate_batch(self, Q):
                return np.ones(len(Q) - 1)

        with pytest.raises(ToolkitError, match="^experiment returned 3 values for 4 points$"):
            evaluate_experiment(Short(), np.ones((4, 2)))


class TestFdShiftPoint:
    def test_zero_step_is_identity(self, pipe_basis):
        q = np.array([0.12, 5e-6, 0.75, 1e-3, 3.0])
        shifted = fd_shift_point(q, pipe_basis.W, 0, 0.0)
        assert np.max(np.abs(shifted / q - 1.0)) < 1e-15

    def test_defining_system_holds_for_random_inputs(self, pipe_basis):
        gen = np.random.default_rng(5)
        W = pipe_basis.W
        for _ in range(50):
            q = np.exp(gen.uniform(-4, 4, size=5))
            k = int(gen.integers(0, W.shape[1]))
            h = float(gen.uniform(1e-8, 1e-2))
            gamma = W.T @ np.log(q)
            shifted = fd_shift_point(q, W, k, h)
            target = gamma.copy()
            target[k] += h
            assert np.max(np.abs(W.T @ np.log(shifted) - target)) < 1e-12

    def test_pipe_point_gamma_shift_is_exact(self, pipe_basis):
        q = np.array([0.12, 5e-6, 0.75, 1e-3, 3.0])
        h = 1e-6
        before = pipe_basis.W.T @ np.log(q)
        after = pipe_basis.W.T @ np.log(fd_shift_point(q, pipe_basis.W, 0, h))
        assert after[0] - before[0] == pytest.approx(h, abs=1e-12)
        assert after[1] == pytest.approx(before[1], abs=1e-12)

    def test_bad_index(self, pipe_basis):
        with pytest.raises(ToolkitError, match=r"^group index 2 outside \[0, 1\]$"):
            fd_shift_point(np.ones(5), pipe_basis.W, 2, 1e-6)


class TestFdGradient:
    def test_exponential_ridge_gradient(self, pipe_basis):
        a = np.array([3.0, 1.0])
        experiment = RidgeExperiment(pipe_basis.w, pipe_basis.W, exp_g(a))
        gen = np.random.default_rng(2)
        h = 1e-6
        for _ in range(10):
            q = np.exp(gen.uniform(-1, 1, size=5))
            gamma = pipe_basis.W.T @ np.log(q)
            g_val = float(np.exp(a @ gamma))
            pi0 = g_val  # exp(w.x) cancels in the dimensionless output
            grad = fd_gradient(experiment, q, pi0, pipe_basis.w, pipe_basis.W, h)
            assert np.max(np.abs(grad / (a * g_val) - 1.0)) < 5e-6

    def test_constant_g_gives_zero_gradient(self, pipe_basis):
        experiment = RidgeExperiment(pipe_basis.w, pipe_basis.W, lambda G: np.ones(len(G)))
        q = np.array([0.12, 5e-6, 0.75, 1e-3, 3.0])
        grad = fd_gradient(experiment, q, 1.0, pipe_basis.w, pipe_basis.W, 1e-6)
        assert np.max(np.abs(grad)) < 1e-9

    def test_pipe_point_against_central_difference_oracle(self, pipe_basis):
        experiment = PipeFlowExperiment()
        q = np.array([0.12, 5e-6, 0.75, 1e-3, 3.0])
        w, W = pipe_basis.w, pipe_basis.W
        pi0 = evaluate_point(experiment, q) * float(np.exp(-w @ np.log(q)))
        grad = fd_gradient(experiment, q, pi0, w, W, 1e-6)
        step = 1e-7
        for k in range(2):
            up = fd_shift_point(q, W, k, step)
            dn = fd_shift_point(q, W, k, -step)
            pi_up = evaluate_point(experiment, up) * float(np.exp(-w @ np.log(up)))
            pi_dn = evaluate_point(experiment, dn) * float(np.exp(-w @ np.log(dn)))
            central = (pi_up - pi_dn) / (2 * step)
            assert grad[k] == pytest.approx(central, rel=5e-6)

    def test_failure_carries_the_point(self, pipe_basis):
        class Flaky:
            def evaluate_batch(self, points):
                raise ValueError("sensor died")

        with pytest.raises(ToolkitError, match="^experiment failed at shifted point .*sensor died"):
            fd_gradient(Flaky(), np.ones(5), 1.0, pipe_basis.w, pipe_basis.W, 1e-6)


def fd_tolerance(X, w, values, h):
    """Bound on |batched - oracle| for a forward-difference gradient.

    The oracle evaluates one row at a time and normalizes with
    log(exp(x)) rather than x, so each pi differs by a few ulps times the
    condition 1 + |w|_1 (1 + max|x|) of exp(-w^T x); the difference
    quotient divides that by h.
    """
    kappa = 1.0 + np.abs(w).sum() * (1.0 + np.abs(X).max())
    return 8.0 * np.finfo(float).eps * kappa * np.abs(values).max() / h


def fd_experiment(kind, basis):
    if kind == "ridge":
        return RidgeExperiment(basis.w, basis.W, exp_g([3.0, 1.0]))
    return PipeFlowExperiment()


class TestSharedForwardDifferences:
    """algorithm2 and full_space_C share one batched forward-difference
    loop; the per-point oracle in helpers checks it row by row."""

    @pytest.mark.parametrize("kind", ["ridge", "pipe"])
    @pytest.mark.parametrize("h", [1e-6, 1e-3])
    def test_algorithm2_gradients_match_oracle(self, pipe_system, pipe_basis, kind, h):
        experiment = fd_experiment(kind, pipe_basis)
        seen = {}
        algorithm2(experiment, pipe_system, pipe_basis, BOX, small_config(h=h),
                   trace=lambda points, pi, grads: seen.update(points=points, pi=pi, grads=grads))
        w, W = pipe_basis.w, pipe_basis.W
        X = np.log(seen["points"])
        tol = fd_tolerance(X, w, seen["pi"], h)
        assert seen["grads"].shape == (3**5, 2)
        for q, x, pi, grad in zip(seen["points"], X, seen["pi"], seen["grads"]):
            pi_base = evaluate_point(experiment, q) * float(np.exp(-w @ x))
            assert abs(pi - pi_base) <= tol * h
            oracle = fd_gradient(experiment, q, pi_base, w, W, h)
            assert np.max(np.abs(grad - oracle)) <= tol

    def test_each_run_gets_its_own_points(self, pipe_system, pipe_basis):
        class Keeper:
            """Keeps every array it is given, as a caching experiment might."""

            call_rows = 300

            def __init__(self):
                self.inner, self.kept = PipeFlowExperiment(), []

            def evaluate_batch(self, points):
                self.kept.append(points)
                return self.inner.evaluate_batch(points)

        # calls of at most 300 rows are runs of at most 100 points: 243
        # points in runs of 81, 81 and 81, one call per run, holding the
        # run's points and then its two shifted copies
        keeper = Keeper()
        h = 1e-3
        algorithm2(keeper, pipe_system, pipe_basis, BOX, small_config(h=h))
        rule = tensor_rule(BOX, 3)
        copies = fd_copies(rule.rows(0, len(rule)), pipe_basis.W, h)
        assert len(keeper.kept) == 3
        for i, kept in enumerate(keeper.kept):
            want = np.concatenate([Q[81 * i:81 * (i + 1)] for Q in copies])
            assert np.array_equal(kept, want)
            assert not any(np.shares_memory(kept, other) for other in keeper.kept[i + 1:])

    def test_a_reply_the_experiment_keeps_is_left_unchanged(self, pipe_system, pipe_basis):
        class ReplyKeeper:
            """Returns the very array it keeps, as a caching experiment might."""

            call_rows = 300

            def __init__(self):
                self.inner, self.replies, self.copies = PipeFlowExperiment(), [], []

            def evaluate_batch(self, points):
                values = self.inner.evaluate_batch(points)
                self.replies.append(values)
                self.copies.append(values.copy())
                return values

        keeper = ReplyKeeper()
        algorithm2(keeper, pipe_system, pipe_basis, BOX, small_config(h=1e-3))
        assert len(keeper.replies) == 3
        for reply, copy in zip(keeper.replies, keeper.copies):
            assert reply.tobytes() == copy.tobytes()

    @pytest.mark.parametrize("regime", ["laminar", "turbulent", "high_re"])
    @pytest.mark.parametrize("quad", ["tensor:6", "mc:5000"])
    @pytest.mark.parametrize("space", ["groups", "full"])
    def test_loop_equals_the_log_points_formula_bit_for_bit(self, pipe_basis, regime, quad,
                                                            space):
        m = BOX.m
        w, W = (pipe_basis.w, pipe_basis.W) if space == "groups" else (np.zeros(m), np.eye(m))
        rule = build_rule(regime_box(regime), small_config(quad=quad))
        experiment = PipeFlowExperiment()
        h = 1e-6
        pi0, want = fd_whole_rule(experiment, rule.rows(0, len(rule)), w, W, h)
        seen = []
        blocks = algorithms._forward_differences(experiment, rule, w, W, h,
                                                 lambda points, pi, grads: seen.append(pi))
        got = np.concatenate(list(blocks))
        # full-space tensor:6 is two runs, the others one
        assert np.concatenate(seen).tobytes() == pi0.tobytes()
        assert got.tobytes() == want.tobytes()

    def test_turbulent_tensor11_allocates_little_on_the_heap(self, pipe_basis):
        # the rule itself: its 1-D axes and factor weights. Calls of at most
        # 32,768 rows: 15 runs of 10,736 or 10,737 points, one at a time: its
        # call array of three copies (1.3 MB), log-points (0.4 MB), pi and
        # the reply (0.3 MB each) and the gradients (0.2 MB): 2.7 MiB traced
        # at the peak. Five runs of up to 32,211 points traced 6.4 MiB, and
        # with the rule's weight vector (1.3 MB) 7.7 MiB; building the rule's
        # point array and differencing it whole traced 21.1 MiB.
        assert fd_heap_peak(pipe_basis, "tensor:11") < 3.5 * 2**20

    def test_monte_carlo_rule_allocates_little_on_the_heap(self, pipe_basis):
        # the rule keeps its seed and makes each run's points and weights as
        # the run is made. 19 runs of 10,526 or 10,527 points: one run's
        # arrays at a time, 3.3 MiB traced at the peak. Seven runs of 28,571
        # or 28,572 points traced 5.8 to 6.5 MiB, and with the rule's weight
        # vector (1.6 MB) 7.3 to 8.0 MiB; drawing the 200,000 x 5 points up
        # front traced 14.9 MiB.
        assert fd_heap_peak(pipe_basis, "mc:200000") < 4 * 2**20

    def test_full_space_C_allocates_little_on_the_heap(self):
        # six copies of each point: calls of at most 32,768 rows are 11 runs
        # of 5,368 or 5,369 points, 2.9 MiB traced at the peak. Two runs of
        # 29,524 and 29,525 points, each a call of 177,150 rows, traced
        # 11.4 MiB.
        assert fd_heap_peak(None, "tensor:9") < 4 * 2**20

    def test_the_heap_peak_does_not_grow_with_the_rule(self, pipe_basis):
        # 19 runs of 10,347 or 10,348 points and 73 of 10,773 or 10,774:
        # nearly the same run arrays, so any gap of note is an array that
        # grows with N. The rule's weight vector made the gap 4.5 MiB.
        small = fd_heap_peak(pipe_basis, "mc:196608")
        large = fd_heap_peak(pipe_basis, "mc:786432")
        assert abs(large - small) < 0.5 * 2**20

    def test_the_stream_makes_no_experiment_call_until_it_is_read(self, pipe_basis):
        rule = tensor_rule(BOX, 3)
        experiment = CountingExperiment(PipeFlowExperiment())
        blocks = algorithms._forward_differences(experiment, rule, pipe_basis.w, pipe_basis.W,
                                                 1e-6)
        assert experiment.count == 0
        assert next(blocks).shape == (243, 2) and experiment.count == 3 * 243

    @pytest.mark.parametrize("points", [242, 244])
    def test_a_stream_for_another_rule_is_refused(self, pipe_basis, points):
        # the 243 gradient rows of tensor:3 against a rule of another length
        rows = tensor_rule(BOX, 3)
        rule = PointsRule(np.ones((points, 1)), np.full(points, 1.0 / points))
        blocks = algorithms._forward_differences(PipeFlowExperiment(), rows, pipe_basis.w,
                                                 pipe_basis.W, 1e-6)
        with pytest.raises(ToolkitError, match=f"^243 gradient rows for {points} rule points$"):
            assemble_C(rule, blocks)

    @pytest.mark.parametrize("kind", ["ridge", "pipe"])
    def test_full_space_C_is_the_loop_with_identity_basis(self, pipe_basis, kind):
        experiment = fd_experiment(kind, pipe_basis)
        h = 1e-4
        rule = tensor_rule(BOX, 3)
        m = BOX.m
        points = rule.rows(0, len(rule))
        values = np.array([evaluate_point(experiment, q) for q in points])
        G = np.array([
            fd_gradient(experiment, q, f0, np.zeros(m), np.eye(m), h)
            for q, f0 in zip(points, values)
        ])
        tol_g = fd_tolerance(np.log(points), pipe_basis.w, values, h)
        result = full_space_C(experiment, rule, h)
        C = assemble_C(rule, [G])
        assert np.max(np.abs(result.C - C)) <= 2.0 * np.abs(G).max() * tol_g


class TestRuns:
    """The finite-difference route in calls of at most ``_CALL_ROWS`` rows:
    at tensor:7 (16,807 points) calls of at most 15,000 rows are, for two
    groups, runs of at most 5,000 points, which end at 4,201, 8,403 and
    12,605, inside ``assemble_C``'s 4,096-row chunks, so those chunks join
    two runs. In the full space the runs hold 2,401 points each."""

    QUAD, CALL_ROWS, EDGES = "tensor:7", 15000, (4201, 8403, 12605)

    @pytest.fixture
    def runs(self, monkeypatch):
        monkeypatch.setattr(algorithms, "_CALL_ROWS", self.CALL_ROWS)
        assert all(edge % subspace._CHUNK_ROWS for edge in self.EDGES)

    def test_algorithm2_C_equals_the_whole_rule_C(self, pipe_system, pipe_basis, runs):
        class CallSizes(CountingExperiment):
            def evaluate_batch(self, points):
                self.sizes.append(len(points))
                return super().evaluate_batch(points)

        experiment = CallSizes(PipeFlowExperiment())
        experiment.sizes = []
        config = small_config(quad=self.QUAD)
        result = algorithm2(experiment, pipe_system, pipe_basis, BOX, config)
        rule = build_rule(BOX, config)
        _, grads = fd_whole_rule(PipeFlowExperiment(), rule.rows(0, len(rule)), pipe_basis.w,
                                 pipe_basis.W, config.h)
        assert result.C.tobytes() == assemble_C(rule, [grads]).tobytes()
        # one call per run: its points and their two shifted copies
        assert experiment.sizes == [3 * 4201, 3 * 4202, 3 * 4202, 3 * 4202]
        assert experiment.count == result.metadata["evaluations"] == 3 * 7**5

    def test_full_space_C_equals_the_whole_rule_C(self, runs):
        rule = build_rule(BOX, small_config(quad=self.QUAD))
        m, h = BOX.m, 1e-5
        result = full_space_C(PipeFlowExperiment(), rule, h)
        _, grads = fd_whole_rule(PipeFlowExperiment(), rule.rows(0, len(rule)), np.zeros(m),
                                 np.eye(m), h)
        assert result.C.tobytes() == assemble_C(rule, [grads]).tobytes()

    def test_trace_equals_the_whole_rule_trace(self, pipe_system, pipe_basis, runs, tmp_path):
        out = tmp_path / "run"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["analyze", "--algorithm", "2", "--regime", "turbulent",
                         "--quad", self.QUAD, "--trace", "--out-dir", str(out)]) == 0
        rule = build_rule(BOX, small_config(quad=self.QUAD))
        points = rule.rows(0, len(rule))
        pi, grads = fd_whole_rule(PipeFlowExperiment(), points, pipe_basis.w,
                                  pipe_basis.W, AlgorithmConfig().h)
        whole_trace(tmp_path / "whole.csv", pipe_system.symbols, points, pi, grads)
        assert (out / "trace.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()

    def test_non_finite_shifted_value_names_its_point_and_copy(self, pipe_system, pipe_basis,
                                                               runs):
        class NanInSecondRun:
            """The pipe model, with a NaN for the first shifted copy of the
            second run's 100th point."""

            def __init__(self):
                self.calls = 0

            def evaluate_batch(self, Q):
                values = PipeFlowExperiment().evaluate_batch(Q)
                self.calls += 1
                if self.calls == 2:
                    values[len(Q) // 3 + 99] = np.nan
                return values

        with pytest.raises(ToolkitError, match=r"^experiment returned nan at point index 4300 "
                                               r"shifted by h W\[:, 0\]$"):
            algorithm2(NanInSecondRun(), pipe_system, pipe_basis, BOX,
                       small_config(quad=self.QUAD))

    @pytest.mark.parametrize("raised,caught,message", [
        (ToolkitError("at point 4301"), ToolkitError, "at point 4301"),
        (ExternalError("row 4301: unparseable output 'x'"), ExternalError,
         "row 4301: unparseable output 'x'"),
        (RuntimeError("kaput"), ToolkitError, r"experiment raised RuntimeError\('kaput'\)"),
    ], ids=["numerical", "external", "other"])
    def test_a_failure_the_experiment_raises_names_the_run_and_its_rows(
            self, pipe_system, pipe_basis, runs, raised, caught, message):
        class FailsInSecondRun:
            """The pipe model, failing on its own in the second run's call."""

            def __init__(self):
                self.calls = 0

            def evaluate_batch(self, Q):
                self.calls += 1
                if self.calls == 2:
                    raise raised
                return PipeFlowExperiment().evaluate_batch(Q)

        # the second run holds rule points 4,201 to 8,402: call row 4,301
        # is point 4,300's first shifted copy
        with pytest.raises(caught, match=r"^rule points 4201 to 8402, where call row i is point "
                                         r"4201 \+ i mod 4202 in copy i div 4202 \(copy k > 0 "
                                         r"is shifted by h W\[:, k - 1\]\): " + message + "$"
                           ) as failure:
            algorithm2(FailsInSecondRun(), pipe_system, pipe_basis, BOX,
                       small_config(quad=self.QUAD))
        assert type(failure.value) is caught and failure.value.__cause__ is raised


class AskingPipe:
    """The pipe model, asking for finite-difference calls of ``call_rows`` rows."""

    def __init__(self, call_rows):
        self.call_rows = call_rows

    def evaluate_batch(self, points):
        return PipeFlowExperiment().evaluate_batch(points)


class TestCallRows:
    """The experiment's ``call_rows`` sizes the runs and changes no bit: each
    Newton row stops on its own residual, and ``assemble_C`` sums fixed
    chunks in row order."""

    @staticmethod
    def route(experiment, space, system, basis, trace=None):
        """C of algorithm 2 at tensor:4, which passes ``trace`` on, or of
        ``full_space_C``."""
        config = small_config(quad="tensor:4")
        if space == "groups":
            return algorithm2(experiment, system, basis, BOX, config, trace=trace).C
        return full_space_C(experiment, build_rule(BOX, config), config.h).C

    @pytest.mark.parametrize("space", ["groups", "full"])
    @settings(max_examples=30, deadline=None)
    @given(call_rows=st.integers(1, 3000))
    def test_any_call_size_gives_the_C_of_one_call(self, pipe_system, pipe_basis, space,
                                                  call_rows):
        N, copies = 4**5, (pipe_basis.n if space == "groups" else BOX.m) + 1
        whole_pi, pi = [], []
        whole = self.route(AskingPipe(N * copies), space, pipe_system, pipe_basis,
                           lambda points, p, grads: whole_pi.append(p))
        experiment = CountingExperiment(AskingPipe(call_rows))
        C = self.route(experiment, space, pipe_system, pipe_basis,
                       lambda points, p, grads: pi.append(p))
        assert C.tobytes() == whole.tobytes()
        assert experiment.calls == -(-N // max(1, call_rows // copies))
        assert experiment.largest_call <= max(call_rows, copies)
        if space == "groups":
            assert len(whole_pi) == 1
            assert np.concatenate(pi).tobytes() == whole_pi[0].tobytes()

    @pytest.mark.parametrize("space", ["groups", "full"])
    @pytest.mark.parametrize("call_rows,message", [
        (1000.0, "must be an integer, got 1000.0"),
        (0, "must be at least 1, got 0"),
        (-7, "must be at least 1, got -7"),
        (True, "must be an integer, got True"),
    ], ids=["float", "zero", "negative", "bool"])
    def test_a_call_rows_that_is_no_count_is_refused_before_any_call(
            self, pipe_system, pipe_basis, space, call_rows, message):
        experiment = CountingExperiment(AskingPipe(call_rows))
        with pytest.raises(ConfigError, match=f"^call_rows {message}$"):
            self.route(experiment, space, pipe_system, pipe_basis)
        assert experiment.calls == 0


class TestWeightReads:
    @pytest.mark.parametrize("route", ["algorithm1", "algorithm2", "full_space_C"])
    def test_a_tensor11_run_reads_each_weight_twice(self, pipe_system, pipe_basis, monkeypatch,
                                                     route):
        # once when the rule is made, to check their sum, and once in assemble_C
        reads = []
        weights = quadrature._TensorRule.weights

        def counted(rule, start, stop):
            reads.append(stop - start)
            return weights(rule, start, stop)

        monkeypatch.setattr(quadrature._TensorRule, "weights", counted)
        config = small_config(quad="tensor:11")
        if route == "algorithm1":
            algorithm1(PipeFlowExperiment(), pipe_system, pipe_basis, BOX, config)
        elif route == "algorithm2":
            algorithm2(PipeFlowExperiment(), pipe_system, pipe_basis, BOX, config)
        else:
            full_space_C(PipeFlowExperiment(), build_rule(BOX, config), 1e-6)
        assert sum(reads) == 2 * 11**5


class TestAlgorithm1:
    def test_linear_g_recovers_analytic_subspace(self, pipe_system, pipe_basis):
        a = np.array([3.0, 1.0])
        experiment = RidgeExperiment(pipe_basis.w, pipe_basis.W, linear_g(a))
        result, _ = algorithm1(experiment, pipe_system, pipe_basis, BOX,
                               small_config(degree=1))
        assert result.eigenvalues[0] == pytest.approx(10.0, rel=1e-8)
        assert result.eigenvalues[1] == pytest.approx(0.0, abs=1e-8)
        u1 = result.U[:, 0]
        assert np.max(np.abs(u1 - a / np.linalg.norm(a))) < 1e-9
        assert result.metadata["algorithm"] == "surface"
        assert result.metadata["evaluations"] == 60

    def test_design_too_small(self, pipe_system, pipe_basis):
        experiment = PipeFlowExperiment()
        with pytest.raises(ToolkitError, match="^design of 5 cannot fit 6 surrogate coefficients$"):
            algorithm1(experiment, pipe_system, pipe_basis, BOX,
                       small_config(design=5, degree=2))

    @pytest.mark.parametrize("kw,message", [
        ({"quad": "tensor:30"},
         "^the point count 30\\^5 of --quad tensor:30 must be at most 10000000, got 24300000$"),
        ({"design": 5, "degree": 2}, "^design of 5 cannot fit 6 surrogate coefficients$"),
    ], ids=["rule-too-large", "design-too-small"])
    def test_sizes_are_refused_before_the_first_call(self, pipe_system, pipe_basis, kw,
                                                     message):
        counter = CountingExperiment(PipeFlowExperiment())
        with pytest.raises(ConfigError, match=message):
            algorithm1(counter, pipe_system, pipe_basis, BOX, small_config(**kw))
        assert (counter.count, counter.calls) == (0, 0)

    def test_budget_counts_design_and_holdout(self, pipe_system, pipe_basis):
        counter = CountingExperiment(PipeFlowExperiment())
        result, _ = algorithm1(counter, pipe_system, pipe_basis, BOX, small_config())
        assert counter.count == 60 + 20
        assert result.metadata["evaluations"] == 60
        assert result.metadata["holdout_evaluations"] == 20
        assert result.metadata["holdout_rmse"] is not None

    @pytest.mark.parametrize("call,where", [(1, "design point 7"), (2, "hold-out point 7")])
    def test_non_finite_value_names_the_design_it_is_in(self, pipe_system, pipe_basis, call,
                                                        where):
        class NanAtRow7:
            """The pipe model, with a NaN at row 7 of one call: the design's
            (the first call) or the hold-out design's (the second)."""

            def __init__(self):
                self.calls = 0

            def evaluate_batch(self, Q):
                values = PipeFlowExperiment().evaluate_batch(Q)
                self.calls += 1
                if self.calls == call:
                    values[7] = np.nan
                return values

        with pytest.raises(ToolkitError, match=f"^experiment returned nan at {where}$"):
            algorithm1(NanAtRow7(), pipe_system, pipe_basis, BOX, small_config())

    def test_an_error_of_the_experiment_on_a_design_point_is_raised_unchanged(
            self, pipe_system, pipe_basis):
        error = ExternalError("batch 0: exit code 3")

        class Refuses:
            def evaluate_batch(self, Q):
                raise error

        with pytest.raises(ExternalError) as info:
            algorithm1(Refuses(), pipe_system, pipe_basis, BOX, small_config())
        assert info.value is error

    def test_returned_surface_supports_prediction(self, pipe_system, pipe_basis):
        experiment = PipeFlowExperiment()
        result, surface = algorithm1(experiment, pipe_system, pipe_basis, BOX,
                                     small_config(design=200))
        q = np.array([0.12, 5e-6, 0.75, 1e-3, 3.0])
        pred = predict_dependent(surface, pipe_basis.w, pipe_basis.W, q)
        truth = evaluate_point(experiment, q)
        assert pred == pytest.approx(truth, rel=0.05)


class TestSurfaceIntegration:
    """algorithm1 streams the surrogate gradient into assemble_C one range at a time."""

    # tensor:6 is 7,776 rows and mc:10000 three chunks: both end in a partial chunk
    @pytest.mark.parametrize("quad", ["tensor:6", "mc:10000"])
    @pytest.mark.parametrize("degree", [1, 2, 5])
    def test_chunked_C_equals_the_one_piece_C(self, pipe_system, pipe_basis, quad, degree):
        config = small_config(quad=quad, degree=degree, design=200)
        result, surface = algorithm1(PipeFlowExperiment(), pipe_system, pipe_basis, BOX, config)
        rule = build_rule(BOX, config)
        assert len(rule) > subspace._CHUNK_ROWS and len(rule) % subspace._CHUNK_ROWS
        grads = grad_surface(surface, np.log(rule.rows(0, len(rule))) @ pipe_basis.W)
        assert np.array_equal(result.C, assemble_C(rule, [grads]))

    def test_turbulent_tensor11_allocates_little_on_the_heap(self, pipe_system, pipe_basis):
        # the 161,051-point rule keeps its 1-D axes and factor weights; the
        # integration makes one 4,096-row chunk of points, log-points, groups,
        # features and gradients at a time (3.5 MiB traced in all). Slicing
        # the chunks from the rule's whole point array traced 9.6 MiB, and
        # building the chunk's arrays for the whole rule at once 33.3 MB.
        config = AlgorithmConfig(degree=5, quad="tensor:11")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            algorithm1(PipeFlowExperiment(), pipe_system, pipe_basis, BOX, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < 5 * 2**20

    def test_non_finite_gradient_in_a_later_chunk_names_its_row(
            self, pipe_system, pipe_basis, monkeypatch):
        def rule_with_a_bad_point(box, config):
            rule = build_rule(box, config)
            points = rule.rows(0, len(rule))
            points[5000, 2] = np.nan
            return PointsRule(points, rule.weights(0, len(rule)))

        monkeypatch.setattr(algorithms, "build_rule", rule_with_a_bad_point)
        with pytest.raises(ToolkitError, match="^gradient row 5000 contains a non-finite entry$"):
            algorithm1(PipeFlowExperiment(), pipe_system, pipe_basis, BOX,
                       small_config(quad="tensor:6"))


class TestAlgorithm2:
    def test_linear_g_is_exact(self, pipe_system, pipe_basis):
        a = np.array([3.0, 1.0])
        experiment = RidgeExperiment(pipe_basis.w, pipe_basis.W, linear_g(a))
        result = algorithm2(experiment, pipe_system, pipe_basis, BOX, small_config())
        lam = result.eigenvalues
        assert lam[1] < 1e-10 * lam[0]
        assert np.max(np.abs(result.U[:, 0] - a / np.linalg.norm(a))) < 1e-6

    def test_exponential_g_rank_one(self, pipe_system, pipe_basis):
        a = np.array([3.0, 1.0])
        experiment = RidgeExperiment(pipe_basis.w, pipe_basis.W, exp_g(a))
        result = algorithm2(experiment, pipe_system, pipe_basis, BOX, small_config())
        lam = result.eigenvalues
        assert lam[1] < 1e-12 * lam[0]
        assert np.max(np.abs(result.U[:, 0] - a / np.linalg.norm(a))) < 1e-6

    def test_evaluation_budget_is_exact(self, pipe_system, pipe_basis):
        counter = CountingExperiment(PipeFlowExperiment())
        result = algorithm2(counter, pipe_system, pipe_basis, BOX, small_config())
        n = pipe_basis.n
        assert counter.count == 243 * (n + 1)
        assert result.metadata["evaluations"] == counter.count

    def test_deterministic_output(self, pipe_system, pipe_basis):
        experiment = PipeFlowExperiment()
        r1 = algorithm2(experiment, pipe_system, pipe_basis, BOX, small_config())
        r2 = algorithm2(experiment, pipe_system, pipe_basis, BOX, small_config())
        assert jsonio.dumps(r1.to_dict()) == jsonio.dumps(r2.to_dict())

    @pytest.mark.parametrize("scale,ratio_tol,basis_tol", [
        # a power-of-two scale commutes exactly with the float arithmetic
        (8.0, 1e-13, 1e-13),
        # an arbitrary scale perturbs the forward differences at the
        # round-off-over-h level, which bounds what the ratio can achieve
        (7.5, 1e-8, 1e-8),
    ])
    def test_output_scaling_leaves_groups_unchanged(self, pipe_system, pipe_basis,
                                                    scale, ratio_tol, basis_tol):
        base = PipeFlowExperiment()

        class Scaled:
            def evaluate_batch(self, Q):
                return scale * base.evaluate_batch(Q)

        r1 = algorithm2(base, pipe_system, pipe_basis, BOX, small_config())
        r2 = algorithm2(Scaled(), pipe_system, pipe_basis, BOX, small_config())
        assert np.max(np.abs(r2.eigenvalues / r1.eigenvalues - scale**2)) < ratio_tol * scale**2
        assert signed_column_distance(r2.U, r1.U) < basis_tol
        assert signed_column_distance(r2.Z, r1.Z) < basis_tol

    @pytest.mark.parametrize("regime", ["laminar", "turbulent", "high_re"])
    @settings(max_examples=20, deadline=None)
    @given(k=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
    def test_input_units_leave_groups_and_eigenvalues_unchanged(self, pipe_system, pipe_basis,
                                                                regime, k):
        # base units (kg, m, s) rescaled by s = 10^k multiply the inputs by
        # c = exp(D^T log s) and the output by c_out = exp(v^T log s)
        log_s = np.log(10.0) * np.array(k)
        c = np.exp(build_dimension_matrix(pipe_system).T @ log_s)
        c_out = np.exp(np.array(pipe_system.dependent.dims) @ log_s)
        base = PipeFlowExperiment()

        class Rescaled:
            def evaluate_batch(self, Q):
                return c_out * base.evaluate_batch(Q / c)

        box = regime_box(regime)
        r1 = algorithm2(base, pipe_system, pipe_basis, box, small_config())
        r2 = algorithm2(Rescaled(), pipe_system, pipe_basis,
                        RegimeBox(box.lower * c, box.upper * c), small_config())
        assert signed_column_distance(r2.Z, r1.Z) <= 1e-7
        assert np.max(np.abs(r2.eigenvalues - r1.eigenvalues)) <= 1e-7 * r1.eigenvalues[0]

    def test_monte_carlo_rule_accepted(self, pipe_system, pipe_basis):
        experiment = PipeFlowExperiment()
        result = algorithm2(experiment, pipe_system, pipe_basis, BOX,
                            small_config(quad="mc:500"))
        assert result.metadata["evaluations"] == 500 * 3


class TestAlgorithmAgreement:
    def quadratic_setup(self, pipe_basis):
        a = np.array([2.0, -0.5])
        Q = np.array([[0.8, 0.3], [0.3, -0.4]])
        return RidgeExperiment(pipe_basis.w, pipe_basis.W, quadratic_g(a, Q))

    def test_quadratic_g_gives_matching_subspaces(self, pipe_system, pipe_basis):
        experiment = self.quadratic_setup(pipe_basis)
        r1, _ = algorithm1(experiment, pipe_system, pipe_basis, BOX,
                           small_config(design=120, degree=2, quad="tensor:5"))
        r2 = algorithm2(experiment, pipe_system, pipe_basis, BOX,
                        small_config(quad="tensor:5"))
        # spectral norm of the difference of the leading eigenvectors' projectors
        u1, u2 = r1.U[:, :1], r2.U[:, :1]
        assert np.linalg.norm(u1 @ u1.T - u2 @ u2.T, 2) < 1e-4
        assert signed_column_distance(r1.Z, r2.Z) < 1e-4

    def test_rotation_invariance_of_z(self, pipe_system, pipe_basis):
        # re-basing the null space must not move the unique groups
        experiment = self.quadratic_setup(pipe_basis)
        config = small_config(design=120, degree=2, quad="tensor:5")
        reference, _ = algorithm1(experiment, pipe_system, pipe_basis, BOX, config)
        lam = reference.eigenvalues
        assert lam[0] - lam[1] > 1e-3 * lam[0]
        for seed in range(10):
            Q = random_orthogonal(2, 600 + seed)
            rebased = PiBasis(w=pipe_basis.w, W=pipe_basis.W @ Q)
            result, _ = algorithm1(experiment, pipe_system, rebased, BOX, config)
            assert signed_column_distance(result.Z, reference.Z) < 1e-6


class TestFdRotationInvariance:
    # A forward difference along a unit direction d errs by (h/2) d^T H d.
    # Where g is close to exp(a^T gamma), H = g a a^T, so the slope along d
    # is off by the factor 1 + (h/2) a^T d, and C = E[grad g grad g^T] by a
    # relative h |a| at most in either basis. On the three pipe boxes
    # |a| = |grad log g| <= 1, so the two Cs differ by at most 2 h lambda_1:
    # that bounds the eigenvalue change (Weyl) and, over a gap above
    # 0.95 lambda_1, the eigenvector turn, and so Z = W U (Davis-Kahan).
    # The tolerance doubles 2 h for the curvature of log g; measured at
    # tensor:3 and tensor:5 for h from 1e-6 to 1e-3: |dZ| <= 0.65 h,
    # |d lambda| <= 2.4 h lambda_1.
    TOL_PER_H = 4.0

    @pytest.mark.parametrize("regime", ["laminar", "turbulent", "high_re"])
    @settings(max_examples=20, deadline=None)
    @given(angle=st.floats(0.0, 2.0 * np.pi), reflect=st.booleans())
    def test_rotating_W_leaves_Z_and_eigenvalues_unchanged_to_order_h(
            self, pipe_system, pipe_basis, regime, angle, reflect):
        c, s = np.cos(angle), np.sin(angle)
        Q = np.array([[c, -s], [s, c]]) @ np.diag([1.0, -1.0 if reflect else 1.0])
        box, config = regime_box(regime), small_config()
        reference = algorithm2(PipeFlowExperiment(), pipe_system, pipe_basis, box, config)
        rotated = algorithm2(PipeFlowExperiment(), pipe_system,
                             PiBasis(w=pipe_basis.w, W=pipe_basis.W @ Q), box, config)
        tol = self.TOL_PER_H * config.h
        lam = reference.eigenvalues
        assert signed_column_distance(rotated.Z, reference.Z) <= tol
        assert np.max(np.abs(rotated.eigenvalues - lam)) <= tol * lam[0]


class TestDimensionlessGroups:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_groups_are_dimensionless_for_random_full_rank_systems(self, data):
        k = data.draw(st.integers(1, 3), label="base units")
        m = data.draw(st.integers(k + 1, 5), label="independents")
        exponent = st.integers(-3, 3)
        D = data.draw(st.lists(st.lists(exponent, min_size=m, max_size=m),
                               min_size=k, max_size=k), label="D")
        v = data.draw(st.lists(exponent, min_size=k, max_size=k), label="v(q)")
        assume(np.linalg.matrix_rank(np.array(D, dtype=float), rtol=RANK_RTOL) == k and any(v))
        system = QuantitySystem(
            tuple(f"u{i}" for i in range(k)),
            tuple(Quantity(f"q{j}", f"q{j}", tuple(row[j] for row in D))
                  for j in range(m)),
            Quantity("out", "out", tuple(v)),
        )
        basis = pi_basis(system)
        a = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=basis.n, max_size=basis.n),
                      label="a")
        experiment = RidgeExperiment(basis.w, basis.W, exp_g(a))
        box = RegimeBox.from_pairs([(1.0, 3.0)] * m)
        result = algorithm2(experiment, system, basis, box, small_config(quad="tensor:2"))
        D = build_dimension_matrix(system)
        assert max(check_dimensionless(D, z) for z in result.Z.T) < DIMENSIONLESS_TOL


class TestFullSpaceC:
    def test_monomial_law_is_rank_one(self, pipe_basis):
        w = pipe_basis.w
        experiment = RidgeExperiment(w, pipe_basis.W, lambda G: np.ones(len(G)))
        result = full_space_C(experiment, tensor_rule(BOX, 3), h=1e-6)
        lam = result.eigenvalues
        assert np.all(lam[1:] < 1e-12 * lam[0])
        direction = w / np.linalg.norm(w)
        u1 = result.U[:, 0]
        if u1 @ direction < 0:
            u1 = -u1
        assert np.max(np.abs(u1 - direction)) < 1e-5

    def test_ridge_trailing_eigenvalues_vanish_with_h(self, pipe_basis):
        # eigenvalues beyond n+1 are pure differencing error, quadratic in
        # the O(h) forward-difference gradient error, so second order in h
        # is expected; the bound below only demands a clear fall over a decade
        a = np.array([2.0, -0.5])
        Q = np.array([[0.8, 0.3], [0.3, -0.4]])
        experiment = RidgeExperiment(pipe_basis.w, pipe_basis.W, quadratic_g(a, Q))
        hs = [1e-1, 1e-2]  # below that the error is already at the eigensolver floor
        trail = []
        for h in hs:
            lam = full_space_C(experiment, tensor_rule(BOX, 3), h=h).eigenvalues
            trail.append(float(np.max(lam[3:]) / lam[0]))
        slope = np.log(trail[0] / trail[1]) / np.log(hs[0] / hs[1])
        assert slope > 0.8
        lam_small = full_space_C(experiment, tensor_rule(BOX, 3), h=1e-4).eigenvalues
        assert np.max(lam_small[3:]) < 1e-13 * lam_small[0]

    def test_evaluation_budget(self, pipe_basis):
        counter = CountingExperiment(PipeFlowExperiment())
        result = full_space_C(counter, tensor_rule(BOX, 3), h=1e-5)
        assert counter.count == 243 * 6
        assert result.metadata["evaluations"] == counter.count


class TestPredictDependent:
    def test_constant_surface_reduces_to_scaling_factor(self, pipe_basis):
        gen = np.random.default_rng(4)
        gamma = gen.normal(size=(30, 2))
        surface = fit_polynomial(gamma, np.ones(30), 1)
        for _ in range(5):
            q = np.exp(gen.uniform(-2, 2, size=5))
            expected = float(np.exp(pipe_basis.w @ np.log(q)))
            assert predict_dependent(surface, pipe_basis.w, pipe_basis.W, q) == \
                pytest.approx(expected, rel=1e-10)

    def test_monomial_law_recovered_in_box(self, pipe_system, pipe_basis):
        experiment = RidgeExperiment(pipe_basis.w, pipe_basis.W, lambda G: np.full(len(G), 2.5))
        _, surface = algorithm1(experiment, pipe_system, pipe_basis, BOX,
                                small_config(design=100, degree=2))
        gen = np.random.default_rng(6)
        for _ in range(20):
            q = BOX.lower + gen.random(5) * BOX.widths
            pred = predict_dependent(surface, pipe_basis.w, pipe_basis.W, q)
            assert pred == pytest.approx(evaluate_point(experiment, q), rel=1e-8)

    def test_positive_inputs_required(self, pipe_basis):
        surface = fit_polynomial(np.random.default_rng(0).normal(size=(10, 2)),
                                 np.ones(10), 1)
        # NaN compares false both ways, so it must fail the check too
        for bad in (-1.0, np.nan):
            with pytest.raises(ToolkitError,
                               match="^prediction requires strictly positive inputs$"):
                predict_dependent(surface, pipe_basis.w, pipe_basis.W,
                                  np.array([1.0, bad, 1.0, 1.0, 1.0]))
