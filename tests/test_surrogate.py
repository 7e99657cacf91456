import json

import numpy as np
import pytest

from helpers import monomials, multi_indices, surface_gradient_per_term, surface_gradient_terms
from pigroups import jsonio
from pigroups.errors import ToolkitError
from pigroups.pipeflow import PipeFlowExperiment, regime_box
from pigroups.quadrature import latin_hypercube
from pigroups.surrogate import (
    ResponseSurface,
    _features,
    eval_surface,
    fit_polynomial,
    grad_surface,
    n_coefficients,
)


EPS = np.finfo(float).eps


def rng():
    return np.random.default_rng(20)


class TestMonomialBasis:
    def test_counts(self):
        assert n_coefficients(2, 2) == 6
        assert n_coefficients(3, 2) == 10
        assert n_coefficients(2, 0) == 1

    def test_graded_lexicographic_order(self):
        idx = [tuple(row) for row in multi_indices(2, 2)]
        assert idx == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]

    def test_block_sizes_match_counts(self):
        idx = multi_indices(3, 4)
        assert idx.shape == (n_coefficients(3, 4), 3)
        totals = idx.sum(axis=1)
        assert np.all(np.diff(totals) >= 0)


class TestFitPolynomial:
    def test_linear_target_recovered_exactly(self):
        X = rng().normal(size=(50, 2))
        y = 3.0 * X[:, 0] + X[:, 1] + 0.5
        s = fit_polynomial(X, y, 1)
        assert s.train_rmse < 1e-12
        assert eval_surface(s, np.array([1.0, 2.0])) == pytest.approx(5.5, abs=1e-12)
        for point in rng().normal(size=(10, 2)):
            g = grad_surface(s, point)
            assert np.max(np.abs(g - np.array([3.0, 1.0]))) < 1e-10

    def test_pure_square_recovered(self):
        X = rng().normal(size=(60, 2))
        y = X[:, 0] ** 2
        s = fit_polynomial(X, y, 2)
        for point in rng().normal(size=(20, 2)):
            assert eval_surface(s, point) == pytest.approx(point[0] ** 2, abs=1e-12)

    def test_degree_zero_fits_the_mean(self):
        X = rng().normal(size=(30, 3))
        y = rng().normal(size=30)
        s = fit_polynomial(X, y, 0)
        assert eval_surface(s, np.zeros(3)) == pytest.approx(float(y.mean()), rel=1e-13)

    def test_negative_degree_is_a_toolkit_error(self):
        with pytest.raises(ToolkitError, match="^degree must be nonnegative$"):
            fit_polynomial(rng().normal(size=(30, 3)), rng().normal(size=30), -1)

    def test_zero_targets_give_zero_surface(self):
        X = rng().normal(size=(25, 2))
        s = fit_polynomial(X, np.zeros(25), 2)
        assert eval_surface(s, np.array([0.3, -1.0])) == pytest.approx(0.0, abs=1e-14)
        assert np.max(np.abs(grad_surface(s, np.array([0.3, -1.0])))) < 1e-14

    def test_row_counts_must_match(self):
        with pytest.raises(ToolkitError, match="^10 design rows vs 9 targets$"):
            fit_polynomial(rng().normal(size=(10, 2)), np.zeros(9), 1)

    @pytest.mark.parametrize("where", ["designs", "targets"])
    def test_a_nan_is_refused(self, where):
        X, y = rng().normal(size=(10, 2)), rng().normal(size=10)
        if where == "designs":
            X[3, 0] = np.nan
        else:
            y[3] = np.nan
        with pytest.raises(ToolkitError, match="^designs and targets must be finite$"):
            fit_polynomial(X, y, 1)

    def test_underdetermined(self):
        X = rng().normal(size=(5, 2))
        with pytest.raises(ToolkitError, match="^5 samples cannot determine 6 coefficients$"):
            fit_polynomial(X, np.zeros(5), 2)

    def test_ill_conditioned_on_collapsed_design(self):
        X = np.ones((10, 2))  # a single repeated point
        with pytest.raises(ToolkitError, match=r"^feature matrix condition \S+ exceeds 1e\+12$"):
            fit_polynomial(X, np.arange(10.0), 1)

    @pytest.mark.parametrize("n,degree", [(2, 2), (2, 3), (3, 2)])
    def test_exact_recovery_of_random_polynomials(self, n, degree):
        gen = np.random.default_rng(100 * n + degree)
        alphas = multi_indices(n, degree)
        coeffs = gen.normal(size=len(alphas))
        X = gen.normal(size=(2 * len(alphas), n))
        y = monomials(X, alphas) @ coeffs
        s = fit_polynomial(X, y, degree)
        scale = float(np.std(y)) or 1.0
        assert s.train_rmse < 1e-10 * scale
        fresh = gen.normal(size=(50, n))
        truth = monomials(fresh, alphas) @ coeffs
        assert np.max(np.abs(eval_surface(s, fresh) - truth)) < 1e-8 * scale


class TestGradient:
    def fit_quadratic(self):
        gen = np.random.default_rng(8)
        X = gen.normal(size=(80, 2))
        y = 1.0 + 2.0 * X[:, 0] - X[:, 1] + 0.7 * X[:, 0] * X[:, 1] - 0.2 * X[:, 1] ** 2
        return fit_polynomial(X, y, 2), gen

    def test_matches_central_differences(self):
        s, gen = self.fit_quadratic()
        step = 1e-6
        for point in gen.normal(size=(100, 2)):
            g = grad_surface(s, point)
            fd = np.empty(2)
            for j in range(2):
                up, dn = point.copy(), point.copy()
                up[j] += step
                dn[j] -= step
                fd[j] = (eval_surface(s, up) - eval_surface(s, dn)) / (2 * step)
            assert np.max(np.abs(g - fd)) < 1e-6 * (1.0 + np.max(np.abs(g)))

    def test_constant_surface_has_zero_gradient(self):
        X = rng().normal(size=(20, 2))
        s = fit_polynomial(X, np.full(20, 4.2), 1)
        assert np.max(np.abs(grad_surface(s, np.array([1.0, -1.0])))) < 1e-12

    def test_batch_and_single_agree(self):
        s, gen = self.fit_quadratic()
        pts = gen.normal(size=(7, 2))
        batch = grad_surface(s, pts)
        for i, point in enumerate(pts):
            assert np.array_equal(batch[i], grad_surface(s, point))


class TestKernelsAgainstDirectFormulas:
    """The kernels build x^alpha by |alpha| - 1 multiplies and sum the
    gradient in matmul order; the oracles use pow per coordinate and numpy's
    sum. A monomial then carries at most degree + 3n roundings on either
    side, and a length-T sum adds T more per unit of sum |term|; the
    tolerances are twice that, in eps."""

    @pytest.mark.parametrize("degree", range(6))
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_features_match_direct_formula(self, n, degree):
        gen = np.random.default_rng(10 * n + degree)
        X = 2.0 * gen.normal(size=(200, n))
        alphas = multi_indices(n, degree)
        want = monomials(X, alphas)
        got = _features(X, degree)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 2 * (degree + 3 * n) * EPS * np.abs(want))

    @pytest.mark.parametrize("degree", range(6))
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_gradient_matches_per_term_formula(self, n, degree):
        gen = np.random.default_rng(10 * n + degree)
        T = n_coefficients(n, degree)
        s = ResponseSurface(degree=degree, n=n, coefficients=gen.normal(size=T),
                            center=gen.normal(size=n), scale=gen.uniform(0.5, 2.0, size=n),
                            train_rmse=0.0)
        G = s.center + 2.0 * s.scale * gen.normal(size=(200, n))
        want = surface_gradient_per_term(s, G)
        size = np.stack([np.abs(t).sum(axis=1) for t in surface_gradient_terms(s, G)],
                        axis=1) / s.scale
        got = grad_surface(s, G)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 2 * (degree + 3 * n + T) * EPS * size)


class TestBatchDependence:
    """A point alone and the same point in a batch go through BLAS gemv and
    gemm, which may sum the T terms in different orders. Each order is off
    by at most T eps per unit of sum |term|, so the two differ by at most
    twice that: a few ulps of the terms' scale, never more."""

    @pytest.mark.parametrize("degree", [2, 3, 4, 5])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_single_point_within_summation_error_of_its_batch(self, n, degree):
        gen = np.random.default_rng(100 * n + degree)
        T = n_coefficients(n, degree)
        s = ResponseSurface(degree=degree, n=n, coefficients=gen.normal(size=T),
                            center=gen.normal(size=n), scale=gen.uniform(0.5, 2.0, size=n),
                            train_rmse=0.0)
        G = s.center + 2.0 * s.scale * gen.normal(size=(37, n))
        A = _features((G - s.center) / s.scale, degree)
        value_size = np.abs(A) @ np.abs(s.coefficients)
        grad_size = np.stack([np.abs(t).sum(axis=1) for t in surface_gradient_terms(s, G)],
                             axis=1) / s.scale
        values, grads = eval_surface(s, G), grad_surface(s, G)
        for i, point in enumerate(G):
            assert abs(eval_surface(s, point) - values[i]) <= 2 * T * EPS * value_size[i]
            assert np.all(np.abs(grad_surface(s, point) - grads[i]) <= 2 * T * EPS * grad_size[i])


class TestInvariances:
    def test_fit_invariant_under_affine_input_rescaling(self):
        gen = np.random.default_rng(31)
        X = gen.normal(size=(60, 2))
        y = 0.3 + X[:, 0] - 2.0 * X[:, 1] + 0.5 * X[:, 0] ** 2
        scale = np.array([3.0, 0.02])
        shift = np.array([-5.0, 40.0])
        s1 = fit_polynomial(X, y, 2)
        s2 = fit_polynomial(X * scale + shift, y, 2)
        fresh = gen.normal(size=(40, 2))
        p1 = eval_surface(s1, fresh)
        p2 = eval_surface(s2, fresh * scale + shift)
        assert np.max(np.abs(p1 - p2)) < 1e-10 * max(1.0, float(np.max(np.abs(p1))))

    def test_shape_mismatch(self):
        s = fit_polynomial(rng().normal(size=(20, 2)), np.zeros(20), 1)
        with pytest.raises(ToolkitError, match="^surface expects 2 inputs, got 3$"):
            eval_surface(s, np.zeros(3))


class TestSerialization:
    def test_json_round_trip_preserves_evaluations(self):
        gen = np.random.default_rng(14)
        X = gen.normal(size=(30, 2))
        y = gen.normal(size=30)
        s = fit_polynomial(X, y, 2)
        text = jsonio.dumps(s.to_dict())
        again = ResponseSurface.from_dict(json.loads(text))
        pts = gen.normal(size=(10, 2))
        assert np.array_equal(eval_surface(again, pts), eval_surface(s, pts))
        assert np.array_equal(grad_surface(again, pts), grad_surface(s, pts))
        assert list(s.to_dict()) == ["degree", "n", "coefficients", "center", "scale",
                                     "train_rmse"]

    def test_fields_given_as_lists_equal_arrays_bit_for_bit(self):
        gen = np.random.default_rng(15)
        s = fit_polynomial(gen.normal(size=(30, 2)), gen.normal(size=30), 3)
        listed = ResponseSurface(degree=3, n=2, coefficients=s.coefficients.tolist(),
                                 center=s.center.tolist(), scale=s.scale.tolist(),
                                 train_rmse=np.float32(s.train_rmse))
        for name in ("coefficients", "center", "scale"):
            value = getattr(listed, name)
            assert type(value) is np.ndarray and value.dtype == np.float64
            assert value.tobytes() == getattr(s, name).tobytes()
        assert type(listed.train_rmse) is float
        assert listed.train_rmse == float(np.float32(s.train_rmse))
        pts = gen.normal(size=(10, 2))
        assert grad_surface(listed, pts).tobytes() == grad_surface(s, pts).tobytes()


class TestOnPipeData:
    def test_quadratic_fit_explains_turbulent_data(self, pipe_basis):
        box = regime_box("turbulent")
        experiment = PipeFlowExperiment()
        points = latin_hypercube(box, 1000, seed=0)
        values = experiment.evaluate_batch(points)
        logq = np.log(points)
        pi = values * np.exp(-logq @ pipe_basis.w)
        gamma = logq @ pipe_basis.W
        s = fit_polynomial(gamma, pi, 2)
        assert s.train_rmse < 0.05 * float(np.std(pi))

        fresh = latin_hypercube(box, 200, seed=1)
        fresh_log = np.log(fresh)
        fresh_pi = experiment.evaluate_batch(fresh) * np.exp(-fresh_log @ pipe_basis.w)
        holdout = np.sqrt(np.mean((eval_surface(s, fresh_log @ pipe_basis.W) - fresh_pi) ** 2))
        assert holdout < 0.05 * float(np.std(fresh_pi))
