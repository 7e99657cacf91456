import functools
import re
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import PointsRule, log_moment
from pigroups.errors import ConfigError, ToolkitError
from pigroups.pipeflow import regime_box
from pigroups.quadrature import (
    LOG_GAUSS_MAX,
    RegimeBox,
    gauss_legendre_1d,
    latin_hypercube,
    log_gauss_1d,
    log_gauss_rule,
    monte_carlo_rule,
    tensor_rule,
)


def box2():
    return RegimeBox.from_pairs([(1.0, 2.0), (0.5, 4.0)])


def in_box(box, points) -> bool:
    """Whether every point lies strictly inside the box."""
    P = np.atleast_2d(np.asarray(points, dtype=float))
    return bool(np.all(P > box.lower) and np.all(P < box.upper))


def all_rows(rule) -> np.ndarray:
    """The rule's whole (N, m) point array, as one row range."""
    return rule.rows(0, len(rule))


def all_weights(rule) -> np.ndarray:
    """The rule's whole weight vector, as one row range."""
    return rule.weights(0, len(rule))


def meshgrid_rows(box, p) -> np.ndarray:
    """The p-point Gauss-Legendre tensor grid over the box, row-major by meshgrid."""
    x, _ = gauss_legendre_1d(p)
    axes = [lo + (x + 1.0) * 0.5 * (hi - lo) for lo, hi in zip(box.lower, box.upper)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, box.m)


def random_box(gen, m) -> RegimeBox:
    lower = gen.uniform(0.1, 2.0, m)
    return RegimeBox(lower, lower + gen.uniform(0.1, 3.0, m))


@st.composite
def row_range(draw, N):
    """A range [start, stop) of rows, empty and full ranges included."""
    start = draw(st.integers(0, N))
    return start, draw(st.integers(start, N))


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

    def test_bounds_of_unequal_length(self):
        with pytest.raises(ToolkitError, match="^lower and upper bounds must have equal length$"):
            RegimeBox(np.ones(2), np.full(3, 2.0))

    def test_no_pairs(self):
        with pytest.raises(ToolkitError, match=r"^bounds must be \[lower, upper\] pairs$"):
            RegimeBox.from_pairs([])

    def test_symbol_keyed_bounds_need_the_symbols(self):
        with pytest.raises(ToolkitError,
                           match="^symbol-keyed bounds need the independent order$"):
            RegimeBox.from_dict({"bounds": {"a": [1, 2]}})

    @pytest.mark.parametrize("bounds", [[[1, 2], [1, 2, 3]], {"b": [1, 2, 3], "a": [1, 2]}],
                             ids=["list", "symbol-keyed"])
    def test_a_bad_bound_is_named_by_its_symbol_in_either_format(self, bounds):
        with pytest.raises(ToolkitError,
                           match=r"^bound 1 \(b\) must be a \[lower, upper\] pair, "
                                 r"got \[1, 2, 3\]$"):
            RegimeBox.from_dict({"bounds": bounds}, symbols=("a", "b"))

    def test_pairs_and_symbols_must_be_as_many(self):
        with pytest.raises(ToolkitError, match="^bounds has 2 pairs for 1 symbols$"):
            RegimeBox.from_pairs([[1, 2], [3]], symbols=("a",))

    def test_dict_missing_symbol(self):
        with pytest.raises(ConfigError, match="^bounds missing for: b$"):
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
        assert np.sum(all_weights(rule) * all_rows(rule)[:, 0]) == pytest.approx(1.5, rel=1e-14)

    def test_constant_integrates_to_one(self):
        rule = tensor_rule(regime_box("laminar"), 3)
        assert abs(all_weights(rule).sum() - 1.0) < 1e-13

    def test_moment_exactness_against_closed_form(self):
        rng = np.random.default_rng(2)
        box = RegimeBox.from_pairs([(0.2, 1.7), (3.0, 5.5), (0.01, 0.02)])
        p = 4
        rule = tensor_rule(box, p)
        points = all_rows(rule)
        for _ in range(20):
            degs = rng.integers(0, 2 * p, size=3)
            vals = np.prod(points**degs, axis=1)
            approx = np.sum(all_weights(rule) * vals)
            exact = 1.0
            for (a, b), d in zip(zip(box.lower, box.upper), degs):
                exact *= (b ** (d + 1) - a ** (d + 1)) / ((d + 1) * (b - a))
            assert approx == pytest.approx(exact, rel=1e-12)

    def test_row_major_dimension_order(self):
        points = all_rows(tensor_rule(box2(), 2))
        # first coordinate varies slowest
        assert points[0, 0] == points[1, 0]
        assert points[0, 1] != points[1, 1]

    def test_point_guard(self):
        box = RegimeBox.from_pairs([(1.0, 2.0)] * 8)
        with pytest.raises(ConfigError, match=r"^the point count 11\^8 of --quad tensor:11 must "
                                              r"be at most 10000000, got 214358881$"):
            tensor_rule(box, 11)

    def test_points_inside_box(self):
        box = box2()
        rule = tensor_rule(box, 7)
        assert in_box(box, all_rows(rule))

    @pytest.mark.parametrize("p,m", [(1, 3), (2, 1), (3, 5), (7, 2), (11, 4), (4, 6)])
    def test_rows_equal_the_meshgrid_rows_bit_for_bit(self, p, m):
        gen = np.random.default_rng(10 * p + m)
        box = random_box(gen, m)
        grid = meshgrid_rows(box, p)
        rule = tensor_rule(box, p)
        N = p ** m
        assert rule.m == m and len(rule) == N
        ranges = [(0, N), (0, 1), (N - 1, N), (N // 2, N // 2)]
        ranges += [tuple(sorted(gen.integers(0, N + 1, 2))) for _ in range(5)]
        for start, stop in ranges:
            assert rule.rows(start, stop).tobytes() == grid[start:stop].tobytes()
        # each range is a fresh array: writing to it leaves the rule as it was
        points = all_rows(rule)
        assert points.tobytes() == grid.tobytes()
        points[:] = 0.0
        assert all_rows(rule).tobytes() == grid.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(p=st.integers(1, 6), m=st.integers(1, 5), data=st.data())
    def test_rows_property_equals_the_meshgrid_rows(self, p, m, data):
        box = random_box(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))), m)
        start, stop = data.draw(row_range(p ** m))
        got = tensor_rule(box, p).rows(start, stop)
        assert got.tobytes() == meshgrid_rows(box, p)[start:stop].tobytes()

    @settings(max_examples=100, deadline=None)
    @given(p=st.integers(1, 7), m=st.integers(1, 6), data=st.data())
    def test_weight_ranges_equal_the_outer_product_bit_for_bit(self, p, m, data):
        # the weight vector that tensor_rule built whole before it made ranges
        _, w = gauss_legendre_1d(p)
        whole = functools.reduce(np.multiply.outer, [np.ones(1)] + [0.5 * w] * m).reshape(-1)
        box = random_box(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))), m)
        start, stop = data.draw(row_range(p ** m))
        got = tensor_rule(box, p).weights(start, stop)
        assert got.tobytes() == whole[start:stop].tobytes()

    @pytest.mark.parametrize("p", range(1, 8))
    @pytest.mark.parametrize("m", range(1, 7))
    def test_rows_and_weights_at_the_range_edges(self, p, m):
        box = random_box(np.random.default_rng(10 * p + m), m)
        rule = tensor_rule(box, p)
        grid = meshgrid_rows(box, p)
        _, w = gauss_legendre_1d(p)
        whole = functools.reduce(np.multiply.outer, [np.ones(1)] + [0.5 * w] * m).reshape(-1)
        # one row of factor weights per axis, each the same vector
        assert rule.factor.shape == (m, p) and all(np.array_equal(f, 0.5 * w) for f in rule.factor)
        N, mid = p ** m, p ** m // 2
        # empty ranges at 0, inside and at N; single rows; ranges that end at N
        for start, stop in [(0, 0), (mid, mid), (N, N), (0, 1), (mid, mid + 1), (N - 1, N),
                            (mid, N), (1, N), (0, N)]:
            rows, weights = rule.rows(start, stop), rule.weights(start, stop)
            assert rows.shape == (stop - start, m) and weights.shape == (stop - start,)
            assert rows.tobytes() == grid[start:stop].tobytes()
            assert weights.tobytes() == whole[start:stop].tobytes()

    def test_weight_ranges_are_fresh_arrays(self):
        rule = tensor_rule(box2(), 3)
        weights = all_weights(rule)
        weights[:] = 0.0
        assert abs(all_weights(rule).sum() - 1.0) < 1e-15


class TestLogGaussRule:
    @settings(max_examples=150, deadline=None)
    @given(lower=st.floats(-8.0, 8.0), ratio=st.floats(1e-3, 6.0), p=st.integers(1, 12))
    def test_1d_rule_integrates_log_monomials_to_degree_2p_minus_1(self, lower, ratio, p):
        # log10 of the lower bound and of the bound ratio: ratios up to 1e6
        a = 10.0 ** lower
        b = a * 10.0 ** ratio
        x, w = log_gauss_1d(a, b, p)
        assert np.all(np.diff(x) > 0) and np.all((np.exp(x) > a) & (np.exp(x) < b))
        for k in range(2 * p):
            mean, absolute = log_moment(a, b, k)
            # relative to E|x|^k: E[x^k] of odd k can cancel to zero
            assert abs(Decimal(float(np.sum(w * x**k))) - mean) <= Decimal(1e-13) * absolute, k

    @pytest.mark.parametrize("p", [5, 32])
    def test_1d_rules_of_wide_and_narrow_intervals_at_once(self, p):
        # ln(b / a) of 921 and of 46 need several panels, which the narrow
        # intervals, of ratio 1.5 and 1 + 1e-9, then share
        a = np.array([1e-200, 1e-10, 2.0, 5.0])
        b = np.array([1e200, 1e10, 3.0, 5.0 + 5e-9])
        X, W = log_gauss_1d(a, b, p)
        assert X.shape == W.shape == (4, p)
        for lo, hi, x, w in zip(a, b, X, W):
            assert np.all((x > np.log(lo)) & (x < np.log(hi)))
            for k in range(2 * p):
                mean, absolute = log_moment(lo, hi, k)
                assert abs(Decimal(float(np.sum(w * x**k))) - mean) <= Decimal(1e-13) * absolute

    @pytest.mark.parametrize("p,m", [(1, 3), (2, 5), (5, 2), (3, 4)])
    def test_rule_is_the_tensor_product_of_the_axis_rules(self, p, m):
        box = random_box(np.random.default_rng(p + 10 * m), m)
        rule = log_gauss_rule(box, p)
        nodes, factors = log_gauss_1d(box.lower, box.upper, p)
        grid = np.stack(np.meshgrid(*np.exp(nodes), indexing="ij"), axis=-1).reshape(-1, m)
        whole = functools.reduce(np.multiply.outer, [np.ones(1)] + list(factors)).reshape(-1)
        assert len(rule) == p ** m and rule.factor.shape == (m, p)
        assert all_rows(rule).tobytes() == grid.tobytes()
        assert all_weights(rule).tobytes() == whole.tobytes()
        assert in_box(box, all_rows(rule))

    def test_each_log_monomial_of_the_box_is_exact(self):
        box = RegimeBox.from_pairs([(0.2, 1.7), (3.0, 5.5), (1e-6, 1e-5)])
        rule = log_gauss_rule(box, 4)
        X = np.log(all_rows(rule))
        for degs in np.random.default_rng(3).integers(0, 8, size=(20, 3)):
            exact = np.prod([float(log_moment(a, b, int(k))[0])
                             for a, b, k in zip(box.lower, box.upper, degs)])
            assert np.sum(all_weights(rule) * np.prod(X**degs, axis=1)) == pytest.approx(
                exact, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("p,m,shown", [(26, 5, "26^5"), (LOG_GAUSS_MAX + 1, 2, "33^2")])
    def test_too_many_points_name_degree_and_quad(self, p, m, shown):
        box = RegimeBox.from_pairs([(1.0, 2.0)] * m)
        with pytest.raises(ConfigError, match=rf"^--degree {p} needs {p} Gauss points per axis "
                                              rf"in log q, {re.escape(shown)} in all, .*--quad$"):
            log_gauss_rule(box, p)


class TestMonteCarloRule:
    def test_single_point(self):
        rule = monte_carlo_rule(box2(), 1, seed=4)
        assert len(rule) == 1
        assert all_weights(rule)[0] == 1.0
        assert in_box(box2(), all_rows(rule))

    def test_seed_reproducibility(self):
        a = monte_carlo_rule(box2(), 100, seed=7)
        b = monte_carlo_rule(box2(), 100, seed=7)
        assert np.array_equal(all_rows(a), all_rows(b))
        c = monte_carlo_rule(box2(), 100, seed=8)
        assert not np.array_equal(all_rows(a), all_rows(c))

    def test_mean_within_standard_error(self):
        box = RegimeBox.from_pairs([(1.0, 2.0), (1.0, 2.0)])
        N = 100_000
        rule = monte_carlo_rule(box, N, seed=123)
        mean = np.sum(all_weights(rule) * all_rows(rule)[:, 0])
        bound = 3.0 * (1.0 / np.sqrt(12.0)) / np.sqrt(N)
        assert abs(mean - 1.5) < bound

    def test_weights_and_interior(self):
        box = box2()
        rule = monte_carlo_rule(box, 1000, seed=0)
        assert abs(all_weights(rule).sum() - 1.0) < 1e-12
        assert in_box(box, all_rows(rule))

    def test_needs_at_least_one_point(self):
        with pytest.raises(ToolkitError, match="^need at least one point, got 0$"):
            monte_carlo_rule(box2(), 0, seed=1)

    def test_points_are_the_scaled_draws_bit_for_bit(self):
        box = regime_box("turbulent")
        rule = monte_carlo_rule(box, 1000, seed=3)
        u = np.random.Generator(np.random.Philox(3)).random((1000, box.m))
        points = all_rows(rule)
        assert points.tobytes() == (box.lower + u * box.widths).tobytes()
        assert rule.rows(10, 20).tobytes() == points[10:20].tobytes()
        assert rule.m == box.m

    @settings(max_examples=60, deadline=None)
    @given(N=st.integers(1, 300), m=st.integers(1, 7), seed=st.integers(0, 2**64 - 1),
           data=st.data())
    def test_rows_property_equals_the_sliced_draws(self, N, m, seed, data):
        # start * m need not be a multiple of Philox's four doubles per step
        box = random_box(np.random.default_rng(seed), m)
        start, stop = data.draw(row_range(N))
        u = np.random.Generator(np.random.Philox(seed)).random((N, m))
        want = (box.lower + u * box.widths)[start:stop]
        assert monte_carlo_rule(box, N, seed).rows(start, stop).tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(N=st.integers(1, 200_000), data=st.data())
    def test_weight_ranges_equal_the_sliced_uniform_weights(self, N, data):
        # the weight vector that monte_carlo_rule built whole before it made ranges
        start, stop = data.draw(row_range(N))
        got = monte_carlo_rule(box2(), N, seed=0).weights(start, stop)
        assert got.tobytes() == np.full(N, 1.0 / N)[start:stop].tobytes()


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

    def test_needs_at_least_one_sample(self):
        with pytest.raises(ToolkitError, match="^need at least one sample, got 0$"):
            latin_hypercube(box2(), 0, 1)

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
            PointsRule(points=np.ones((3, 2)), weights=np.array([0.5, 0.5]))

    @pytest.mark.parametrize("weights,total", [
        (np.array([0.4, 0.4]), r"0\.8"),
        (np.full(4, 0.3), r"1\.2"),
        (np.full(10, 0.2), r"2\.0"),
    ])
    def test_weights_must_sum_to_one(self, weights, total):
        with pytest.raises(ToolkitError, match=f"^weights sum to {total}, expected 1 \\+/- 1e-10$"):
            PointsRule(points=np.ones((len(weights), 1)), weights=weights)

    @pytest.mark.parametrize("weights", [
        np.array([np.nan, 1.0]),
        np.array([0.5, np.nan, 0.5]),
        np.r_[np.nan, np.full(9, 1.0 / 9)],
    ])
    def test_a_nan_weight_is_refused(self, weights):
        with pytest.raises(ToolkitError, match=r"^weights sum to nan, expected 1 \+/- 1e-10$"):
            PointsRule(points=np.ones((len(weights), 1)), weights=weights)
