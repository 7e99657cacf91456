import json
from fractions import Fraction

import numpy as np
import pytest

from helpers import evaluate_point
from pigroups.dimension import (
    DimensionVector,
    PiBasis,
    Quantity,
    QuantitySystem,
    build_dimension_matrix,
    check_dimensionless,
    matrix_rank,
    nullspace_basis,
    parse_unit_expr,
    solve_output_exponents,
)
from pigroups.errors import ConfigError, ToolkitError

KMS = ["kg", "m", "s"]

PIPE_D = np.array([
    [1.0, 1.0, 0.0, 0.0, 0.0],
    [-3.0, -1.0, 1.0, 1.0, 1.0],
    [0.0, -1.0, 0.0, 0.0, -1.0],
])
PIPE_VQ = np.array([1.0, -2.0, -2.0])
PIPE_W = np.array([1.0, 0.0, -1.0, 0.0, 2.0])


def exps(dv):
    return [int(e) for e in dv.exponents]


class TestParseUnitExpr:
    def test_viscosity(self):
        assert exps(parse_unit_expr("kg*m^-1*s^-1", KMS)) == [1, -1, -1]

    def test_dimensionless_literal(self):
        assert exps(parse_unit_expr("1", KMS)) == [0, 0, 0]

    def test_density_with_division(self):
        assert exps(parse_unit_expr("kg/m^3", KMS)) == [1, -3, 0]

    def test_division_negates_only_next_term(self):
        assert exps(parse_unit_expr("kg/m*s", KMS)) == [1, -1, 1]

    def test_one_as_inner_term(self):
        assert exps(parse_unit_expr("kg*1*m", KMS)) == [1, 1, 0]

    def test_repeated_base_accumulates(self):
        assert exps(parse_unit_expr("m*m^2/m", KMS)) == [0, 2, 0]

    def test_whitespace_tolerated(self):
        assert exps(parse_unit_expr(" kg * m^-2 ", KMS)) == [1, -2, 0]

    def test_unknown_base_unit(self):
        with pytest.raises(ConfigError, match="^base unit 'furlong' not declared$"):
            parse_unit_expr("kg*furlong", KMS)

    @pytest.mark.parametrize("bad,message", [
        ("", "expression '' ends on an operator or is empty"),
        ("kg*", "expression 'kg\\*' ends on an operator or is empty"),
        ("/m", "expected a term at position 0 in '/m'"),
        ("kg**m", "expected a term at position 3 in 'kg\\*\\*m'"),
        ("kg^", "expected '\\*' or '/' at position 2 in 'kg\\^'"),
        ("2", "expected a term at position 0 in '2'"),
        ("kg^1.5", "expected '\\*' or '/' at position 4 in 'kg\\^1\\.5'"),
    ])
    def test_syntax_errors(self, bad, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            parse_unit_expr(bad, KMS)

    def test_exponent_overflow(self):
        with pytest.raises(ConfigError, match=r"^exponent 65 exceeds \|64\|$"):
            parse_unit_expr("kg^65", KMS)
        with pytest.raises(ConfigError, match=r"^exponent -65 exceeds \|64\|$"):
            parse_unit_expr("kg^-65", KMS)
        assert exps(parse_unit_expr("kg^64", KMS)) == [64, 0, 0]


class TestDimensionVector:
    def test_exact_rational_storage(self):
        vec = DimensionVector.of([1, -3, 0])
        assert all(isinstance(e, Fraction) for e in vec.exponents)

    def test_as_array(self):
        assert np.array_equal(DimensionVector.of([1, -3, 0]).as_array(), [1.0, -3.0, 0.0])


class TestDimensionMatrix:
    def test_pipe_matrix(self, pipe_system):
        assert np.array_equal(build_dimension_matrix(pipe_system), PIPE_D)

    def test_rank_one_two_quantities(self):
        system = QuantitySystem(
            ("u",),
            (Quantity("a", "a", DimensionVector.of([1])),
             Quantity("b", "b", DimensionVector.of([1]))),
            Quantity("c", "c", DimensionVector.of([2])),
        )
        D = build_dimension_matrix(system)
        assert np.array_equal(D, [[1.0, 1.0]])
        assert matrix_rank(D) == 1

    def test_zero_column_accepted_when_rank_holds(self):
        system = QuantitySystem(
            ("kg", "m"),
            (Quantity("a", "a", DimensionVector.of([1, 0])),
             Quantity("b", "b", DimensionVector.of([0, 1])),
             Quantity("c", "c", DimensionVector.of([0, 0]))),
            Quantity("d", "d", DimensionVector.of([1, 1])),
        )
        D = build_dimension_matrix(system)
        assert np.array_equal(D[:, 2], [0.0, 0.0])

    def test_rank_deficient_rejected_with_hint(self):
        with pytest.raises(ToolkitError,
                           match="^dimension matrix has rank 1 < 2; .*missing quantities"):
            QuantitySystem(
                ("kg", "m"),
                (Quantity("a", "a", DimensionVector.of([1, 0])),
                 Quantity("b", "b", DimensionVector.of([2, 0]))),
                Quantity("c", "c", DimensionVector.of([1, 0])),
            )


class TestOutputExponents:
    def test_pinned_pipe_vector_solves_the_system(self):
        assert np.array_equal(PIPE_D @ PIPE_W, PIPE_VQ)

    def test_zero_target_gives_zero(self):
        w = solve_output_exponents(PIPE_D, np.zeros(3))
        assert np.max(np.abs(w)) < 1e-14

    def test_matches_normal_equations_oracle(self):
        # independent min-norm oracle: w* = D^T (D D^T)^{-1} v
        w_oracle = PIPE_D.T @ np.linalg.solve(PIPE_D @ PIPE_D.T, PIPE_VQ)
        w = solve_output_exponents(PIPE_D, PIPE_VQ)
        assert np.max(np.abs(PIPE_D @ w_oracle - PIPE_VQ)) < 1e-12
        assert np.max(np.abs(w - w_oracle)) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ToolkitError, match="^v\\(q\\) has length 4, D has 3 rows$"):
            solve_output_exponents(PIPE_D, np.zeros(4))


class TestNullspaceBasis:
    def test_two_quantities_one_unit(self):
        W = nullspace_basis(np.array([[1.0, 1.0]]))
        expected = np.array([[1.0], [-1.0]]) / np.sqrt(2.0)
        assert np.max(np.abs(W - expected)) < 1e-15

    def test_pipe_identities(self):
        W = nullspace_basis(PIPE_D)
        assert W.shape == (5, 2)
        assert np.max(np.abs(PIPE_D @ W)) < 1e-12
        assert np.max(np.abs(W.T @ W - np.eye(2))) < 1e-12

    def test_padded_identity(self):
        W = nullspace_basis(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        assert np.max(np.abs(W - np.array([[0.0], [0.0], [1.0]]))) < 1e-15

    def test_no_null_space(self):
        with pytest.raises(ToolkitError, match=r"^no dimensionless groups exist \(m = k = 2\)$"):
            nullspace_basis(np.eye(2))

    def test_sign_rule_leading_entry_positive(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            D = rng.integers(-3, 4, size=(2, 5)).astype(float)
            if matrix_rank(D) != 2:
                continue
            W = nullspace_basis(D)
            for j in range(W.shape[1]):
                lead = np.argmax(np.abs(W[:, j]))
                assert W[lead, j] > 0


class TestNondimOutput:
    def test_pipe_point_equals_half_friction_factor(self):
        from pigroups.pipeflow import RE_CRITICAL, PipeFlowExperiment
        q_vec = np.array([0.12, 5e-6, 0.65, 5e-5, 0.0275])
        experiment = PipeFlowExperiment(re_crit=RE_CRITICAL, pressure_formula="darcy")
        q = evaluate_point(experiment, q_vec)
        pi = q * np.exp(-PIPE_W @ np.log(q_vec))
        re = 0.12 * 0.0275 * 0.65 / 5e-6
        lam = 64.0 / re
        assert pi == pytest.approx(lam / 2.0, rel=1e-12)


class TestCheckDimensionless:
    def test_null_basis_columns(self, pipe_basis):
        for j in range(pipe_basis.W.shape[1]):
            assert check_dimensionless(PIPE_D, pipe_basis.W[:, j]) < 1e-12

    def test_output_exponents_are_not_dimensionless(self):
        assert check_dimensionless(PIPE_D, PIPE_W) == pytest.approx(
            np.max(np.abs(PIPE_VQ)), abs=1e-15
        )

    def test_shape_mismatch(self):
        with pytest.raises(ToolkitError, match="^z has length 4, D has 5 columns$"):
            check_dimensionless(PIPE_D, np.zeros(4))


SYSTEM_DOC = {
    "base_units": ["kg", "m", "s"],
    "independents": [
        {"name": "fluid density", "symbol": "rho", "unit": "kg/m^3"},
        {"name": "fluid viscosity", "symbol": "mu", "unit": "kg*m^-1*s^-1"},
        {"name": "pipe diameter", "symbol": "D", "unit": "m"},
        {"name": "pipe roughness", "symbol": "eps", "dims": [0, 1, 0]},
        {"name": "fluid velocity", "symbol": "V", "unit": "m/s"},
    ],
    "dependent": {"name": "pressure loss", "symbol": "dpdx", "unit": "kg*m^-2*s^-2"},
    "w": [1, 0, -1, 0, 2],
}


class TestQuantitySystem:
    def test_json_document_round_trip(self, pipe_system, tmp_path):
        path = tmp_path / "system.json"
        path.write_text(json.dumps(SYSTEM_DOC))
        loaded = QuantitySystem.from_file(path)
        assert loaded.base_units == ("kg", "m", "s")
        assert loaded.symbols == pipe_system.symbols
        assert np.array_equal(build_dimension_matrix(loaded), PIPE_D)
        assert loaded.pinned_w == (1.0, 0.0, -1.0, 0.0, 2.0)
        again = QuantitySystem.from_dict(json.loads(json.dumps(loaded.to_dict())))
        assert again == loaded

    def test_duplicate_symbols_rejected(self):
        doc = json.loads(json.dumps(SYSTEM_DOC))
        doc["independents"][1]["symbol"] = "rho"
        with pytest.raises(ToolkitError, match="^quantity symbols must be unique$"):
            QuantitySystem.from_dict(doc)

    def test_dimensionless_dependent_rejected(self):
        doc = json.loads(json.dumps(SYSTEM_DOC))
        doc["dependent"] = {"name": "ratio", "symbol": "r", "unit": "1"}
        with pytest.raises(ToolkitError,
                           match="^the dependent quantity must not be dimensionless$"):
            QuantitySystem.from_dict(doc)

    def test_bad_pinned_w_rejected(self):
        doc = json.loads(json.dumps(SYSTEM_DOC))
        doc["w"] = [1, 0, 0, 0, 0]
        with pytest.raises(ToolkitError, match="^pinned w violates D w = v\\(q\\): residual "):
            QuantitySystem.from_dict(doc)

    def test_wrong_dims_length_rejected(self):
        doc = json.loads(json.dumps(SYSTEM_DOC))
        doc["independents"][3]["dims"] = [0, 1]
        with pytest.raises(ToolkitError, match="^quantity 'eps': wrong dims length$"):
            QuantitySystem.from_dict(doc)


class TestPiBasis:
    def test_pipe_basis_invariants(self, pipe_system, pipe_basis):
        D = build_dimension_matrix(pipe_system)
        v_q = pipe_system.dependent.dims.as_array()
        assert np.max(np.abs(D @ pipe_basis.W)) < 1e-12
        assert np.max(np.abs(pipe_basis.W.T @ pipe_basis.W - np.eye(2))) < 1e-12
        assert np.max(np.abs(D @ pipe_basis.w - v_q)) < 1e-12
        assert np.array_equal(pipe_basis.w, PIPE_W)  # pinned vector wins

    def test_random_integer_systems_satisfy_invariants(self):
        rng = np.random.default_rng(17)
        built = 0
        while built < 20:
            k = int(rng.integers(1, 4))
            m = k + int(rng.integers(1, 4))
            D = rng.integers(-3, 4, size=(k, m)).astype(float)
            if matrix_rank(D) != k:
                continue
            v_q = D @ rng.integers(-2, 3, size=m)
            w = solve_output_exponents(D, v_q)
            W = nullspace_basis(D)
            assert np.max(np.abs(D @ W)) < 1e-12
            assert np.max(np.abs(W.T @ W - np.eye(m - k))) < 1e-12
            assert np.max(np.abs(D @ w - v_q)) < 1e-12
            built += 1
