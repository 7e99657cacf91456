import numpy as np
import pytest

from pigroups.errors import ToolkitError
from pigroups.pipeflow import regime_box
from pigroups.quadrature import (
    QuadratureRule,
    RegimeBox,
    gauss_legendre_1d,
    latin_hypercube,
    monte_carlo_rule,
    tensor_rule,
)


def box2():
    return RegimeBox.from_pairs([(1.0, 2.0), (0.5, 4.0)])


def in_box(box, points) -> bool:
    """Whether every point lies strictly inside the box."""
    P = np.atleast_2d(np.asarray(points, dtype=float))
    return bool(np.all(P > box.lower) and np.all(P < box.upper))


class TestRegimeBox:
    def test_bounds_must_be_positive_and_ordered(self):
        ordered = "^bounds must satisfy 0 < lower < upper per variable$"
        with pytest.raises(ToolkitError, match=ordered):
            RegimeBox.from_pairs([(0.0, 1.0)])
        with pytest.raises(ToolkitError, match=ordered):
            RegimeBox.from_pairs([(2.0, 1.0)])
        with pytest.raises(ToolkitError, match=ordered):
            RegimeBox.from_pairs([(-1.0, 1.0)])

    def test_symbol_keyed_dict(self):
        box = RegimeBox.from_dict(
            {"bounds": {"b": [1, 2], "a": [3, 4]}}, symbols=("a", "b")
        )
        assert np.array_equal(box.lower, [3.0, 1.0])
        assert np.array_equal(box.upper, [4.0, 2.0])

    def test_dict_missing_symbol(self):
        with pytest.raises(ToolkitError, match="^bounds missing for: b$"):
            RegimeBox.from_dict({"bounds": {"a": [1, 2]}}, symbols=("a", "b"))

    def test_contains(self):
        # the in_box oracle of the rules' tests below: open at the bounds
        box = box2()
        assert in_box(box, [[1.5, 1.0]])
        assert not in_box(box, [[1.5, 4.0]])


class TestGaussLegendre1d:
    def test_single_point(self):
        x, w = gauss_legendre_1d(1)
        assert np.array_equal(x, [0.0])
        assert np.array_equal(w, [2.0])

    def test_two_points(self):
        x, w = gauss_legendre_1d(2)
        assert np.max(np.abs(x - np.array([-1, 1]) / np.sqrt(3.0))) < 1e-15
        assert np.max(np.abs(w - 1.0)) < 1e-15

    def test_degree_twenty_monomial_with_eleven_points(self):
        x, w = gauss_legendre_1d(11)
        assert abs(np.sum(w * x**20) - 2.0 / 21.0) < 1e-14

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8, 13, 21, 40, 64])
    def test_weights_sum_to_two(self, p):
        _, w = gauss_legendre_1d(p)
        assert abs(w.sum() - 2.0) < 2e-15

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 6, 9, 12])
    def test_exact_for_polynomials_up_to_degree_2p_minus_1(self, p):
        x, w = gauss_legendre_1d(p)
        for d in range(2 * p):
            exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
            assert abs(np.sum(w * x**d) - exact) < 1e-13

    @pytest.mark.parametrize("p", [2, 5, 11, 32, 64])
    def test_matches_reference_implementation(self, p):
        x, w = gauss_legendre_1d(p)
        xr, wr = np.polynomial.legendre.leggauss(p)
        assert np.max(np.abs(x - xr)) < 1e-14
        assert np.max(np.abs(w - wr)) < 1e-13

    @pytest.mark.parametrize("p", [0, -1, 65])
    def test_out_of_range(self, p):
        with pytest.raises(ToolkitError, match=rf"^point count {p} outside \[1, 64\]$"):
            gauss_legendre_1d(p)


class TestTensorRule:
    def test_turbulent_box_point_count(self):
        rule = tensor_rule(regime_box("turbulent"), 11)
        assert len(rule) == 161051

    def test_linear_integrand_gives_the_uniform_mean(self):
        box = RegimeBox.from_pairs([(0.5, 2.5)])
        rule = tensor_rule(box, 2)
        assert np.sum(rule.weights * rule.points[:, 0]) == pytest.approx(1.5, rel=1e-14)

    def test_constant_integrates_to_one(self):
        rule = tensor_rule(regime_box("laminar"), 3)
        assert abs(rule.weights.sum() - 1.0) < 1e-13

    def test_moment_exactness_against_closed_form(self):
        rng = np.random.default_rng(2)
        box = RegimeBox.from_pairs([(0.2, 1.7), (3.0, 5.5), (0.01, 0.02)])
        p = 4
        rule = tensor_rule(box, p)
        for _ in range(20):
            degs = rng.integers(0, 2 * p, size=3)
            vals = np.prod(rule.points**degs, axis=1)
            approx = np.sum(rule.weights * vals)
            exact = 1.0
            for (a, b), d in zip(zip(box.lower, box.upper), degs):
                exact *= (b ** (d + 1) - a ** (d + 1)) / ((d + 1) * (b - a))
            assert approx == pytest.approx(exact, rel=1e-12)

    def test_row_major_dimension_order(self):
        rule = tensor_rule(box2(), 2)
        # first coordinate varies slowest
        assert rule.points[0, 0] == rule.points[1, 0]
        assert rule.points[0, 1] != rule.points[1, 1]

    def test_point_guard(self):
        box = RegimeBox.from_pairs([(1.0, 2.0)] * 8)
        with pytest.raises(ToolkitError, match=r"^11\^8 exceeds the 1e\+07 point guard$"):
            tensor_rule(box, 11)

    def test_points_inside_box(self):
        box = box2()
        rule = tensor_rule(box, 7)
        assert in_box(box, rule.points)


class TestMonteCarloRule:
    def test_single_point(self):
        rule = monte_carlo_rule(box2(), 1, seed=4)
        assert len(rule) == 1
        assert rule.weights[0] == 1.0
        assert in_box(box2(), rule.points)

    def test_seed_reproducibility(self):
        a = monte_carlo_rule(box2(), 100, seed=7)
        b = monte_carlo_rule(box2(), 100, seed=7)
        assert np.array_equal(a.points, b.points)
        c = monte_carlo_rule(box2(), 100, seed=8)
        assert not np.array_equal(a.points, c.points)

    def test_mean_within_standard_error(self):
        box = RegimeBox.from_pairs([(1.0, 2.0), (1.0, 2.0)])
        N = 100_000
        rule = monte_carlo_rule(box, N, seed=123)
        mean = np.sum(rule.weights * rule.points[:, 0])
        bound = 3.0 * (1.0 / np.sqrt(12.0)) / np.sqrt(N)
        assert abs(mean - 1.5) < bound

    def test_weights_and_interior(self):
        box = box2()
        rule = monte_carlo_rule(box, 1000, seed=0)
        assert abs(rule.weights.sum() - 1.0) < 1e-12
        assert in_box(box, rule.points)

    def test_needs_at_least_one_point(self):
        with pytest.raises(ToolkitError, match="^need at least one point, got 0$"):
            monte_carlo_rule(box2(), 0, seed=1)


class TestLatinHypercube:
    def test_single_sample_inside_box(self):
        pts = latin_hypercube(box2(), 1, seed=6)
        assert in_box(box2(), pts)

    def test_four_samples_fill_the_strata(self):
        box = RegimeBox.from_pairs([(1.0, 2.0)])
        pts = latin_hypercube(box, 4, seed=9)[:, 0]
        strata = np.sort(np.floor((pts - 1.0) * 4.0).astype(int))
        assert np.array_equal(strata, [0, 1, 2, 3])

    @pytest.mark.parametrize("N", [1, 2, 7, 40])
    def test_every_projection_is_a_stratum_permutation(self, N):
        box = RegimeBox.from_pairs([(0.5, 1.5), (10.0, 11.0), (2.0, 6.0)])
        pts = latin_hypercube(box, N, seed=21)
        u = (pts - box.lower) / box.widths
        for j in range(box.m):
            strata = np.sort(np.floor(u[:, j] * N).astype(int))
            assert np.array_equal(strata, np.arange(N))

    def test_seed_reproducibility(self):
        a = latin_hypercube(box2(), 50, seed=33)
        b = latin_hypercube(box2(), 50, seed=33)
        assert np.array_equal(a, b)

    def test_turbulent_design_size(self):
        pts = latin_hypercube(regime_box("turbulent"), 1000, seed=0)
        assert pts.shape == (1000, 5)
        assert in_box(regime_box("turbulent"), pts)


class TestQuadratureRuleInvariants:
    def test_weight_count_must_match(self):
        with pytest.raises(ToolkitError, match="^one weight per point required$"):
            QuadratureRule(points=np.ones((3, 2)), weights=np.array([0.5, 0.5]))

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ToolkitError, match=r"^weights sum to \S*0\.8\S*, expected 1$"):
            QuadratureRule(points=np.array([[1.0], [2.0]]), weights=np.array([0.4, 0.4]))
