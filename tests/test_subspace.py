import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import PointsRule, SpanMismatch, express_in_classical
from pigroups import jsonio, subspace
from pigroups.algorithms import _finalize
from pigroups.errors import ToolkitError
from pigroups.subspace import (
    DEGENERATE_FLAG,
    SubspaceResult,
    assemble_C,
    eigen_gap,
    eigendecompose,
    group_descriptor,
    result_to_csv,
    rotation_angle,
    unique_groups,
)


def random_orthogonal(n, seed):
    gen = np.random.default_rng(seed)
    Q, R = np.linalg.qr(gen.normal(size=(n, n)))
    return Q * np.sign(np.diag(R))


class SliceLog:
    """An array handed out by slice only, as a gradient source that builds
    its rows on slicing is; ``slices`` logs each (start, stop) read."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.shape = self.values.shape
        self.slices = []

    def __getitem__(self, rows: slice):
        start, stop, _ = rows.indices(self.shape[0])
        self.slices.append((start, stop))
        return self.values[start:stop].copy()


def random_psd(n, seed):
    gen = np.random.default_rng(seed)
    Q = random_orthogonal(n, seed)
    lam = np.sort(gen.uniform(0.0, 10.0, size=n))[::-1]
    return Q @ np.diag(lam) @ Q.T


class TestAssembleC:
    def test_constant_gradient_gives_rank_one(self):
        a = np.array([1.0, 2.0, -1.0])
        G = np.tile(a, (40, 1))
        C = assemble_C(G, np.full(40, 1.0 / 40))
        assert np.max(np.abs(C - np.outer(a, a))) < 1e-14
        lam, _ = eigendecompose(C)
        assert lam[0] == pytest.approx(float(a @ a), rel=1e-14)
        assert np.max(np.abs(lam[1:])) < 1e-13

    def test_zero_gradients(self):
        C = assemble_C(np.zeros((10, 2)), np.full(10, 0.1))
        assert np.array_equal(C, np.zeros((2, 2)))

    def test_two_unit_gradients(self):
        G = np.array([[1.0, 0.0], [0.0, 1.0]])
        C = assemble_C(G, np.array([0.5, 0.5]))
        assert np.array_equal(C, np.diag([0.5, 0.5]))

    def test_exactly_symmetric(self, monkeypatch):
        monkeypatch.setattr(subspace, "_CHUNK_ROWS", 128)
        gen = np.random.default_rng(7)
        G = gen.normal(size=(1000, 4))
        w = gen.random(1000)
        w /= w.sum()
        C = assemble_C(G, w)
        assert np.array_equal(C, C.T)

    def test_chunk_size_does_not_change_result_materially(self, monkeypatch):
        gen = np.random.default_rng(3)
        G = gen.normal(size=(500, 3))
        w = np.full(500, 1.0 / 500)
        C1 = assemble_C(G, w)  # one chunk
        assert np.array_equal(C1, assemble_C(G, w))  # deterministic
        monkeypatch.setattr(subspace, "_CHUNK_ROWS", 7)
        C2 = assemble_C(G, w)
        assert np.max(np.abs(C1 - C2)) < 1e-14 * max(1.0, np.max(np.abs(C1)))

    def test_rejects_unnormalized_weights(self):
        with pytest.raises(ToolkitError,
                           match=r"^weights sum to 1\.2, expected 1 \+/- 1e-10$"):
            assemble_C(np.ones((4, 2)), np.full(4, 0.3))

    def test_rejects_non_finite_gradients(self):
        G = np.ones((4, 2))
        G[2, 1] = np.nan
        with pytest.raises(ToolkitError, match="^gradient row 2 contains a non-finite entry$"):
            assemble_C(G, np.full(4, 0.25))

    def test_rejects_a_nan_weight(self):
        # abs(nan - 1.0) > 1e-10 is False: a NaN sum must fail all the same
        with pytest.raises(ToolkitError, match=r"^weights sum to nan, expected 1 \+/- 1e-10$"):
            assemble_C(np.ones((3, 2)), [0.5, np.nan, 0.5])

    def test_a_rule_is_read_chunk_by_chunk_and_never_summed(self, monkeypatch):
        class RangeLog(PointsRule):
            ranges = []

            def weights(self, start, stop):
                self.ranges.append((start, stop))
                return super().weights(start, stop)

        monkeypatch.setattr(subspace, "_CHUNK_ROWS", 4)
        gen = np.random.default_rng(11)
        G = gen.normal(size=(10, 3))
        w = gen.random(10)
        w /= w.sum()
        rule = RangeLog(np.ones((10, 1)), w)
        # the constructor checks the weights in one range of at most 2**15
        assert rule.ranges == [(0, 10)]
        rule.ranges.clear()
        assert assemble_C(G, rule).tobytes() == assemble_C(G, w).tobytes()
        assert rule.ranges == [(0, 4), (4, 8), (8, 10)]

    @pytest.mark.parametrize("weights,message", [
        (np.full(9, 1.0 / 9), "^10 gradient rows vs 9 weights$"),
        (np.full(10, 0.2), r"^weights sum to 2\.0, expected 1 \+/- 1e-10$"),
        (np.r_[np.nan, np.full(9, 1.0 / 9)], r"^weights sum to nan, expected 1 \+/- 1e-10$"),
        (PointsRule(np.ones((9, 1)), np.full(9, 1.0 / 9)), "^10 gradient rows vs 9 weights$"),
    ], ids=["count", "sum", "nan", "rule-count"])
    def test_refused_weights_read_no_gradient_row(self, monkeypatch, weights, message):
        monkeypatch.setattr(subspace, "_CHUNK_ROWS", 4)
        gradients = SliceLog(np.ones((10, 2)))
        with pytest.raises(ToolkitError, match=message):
            assemble_C(gradients, weights)
        assert gradients.slices == []

    def test_overflow_to_inf_is_refused_by_eigendecompose(self):
        # finite gradients above about 1e154 square to inf, with a warning
        with pytest.warns(RuntimeWarning, match="^overflow encountered in matmul$"):
            C = assemble_C(np.full((2, 2), 1e160), [0.5, 0.5])
        assert np.all(np.isinf(C))
        with pytest.raises(ToolkitError, match=r"^C\[0, 0\] is inf; C must be finite$"):
            eigendecompose(C)


class TestEigendecompose:
    def test_diagonal(self):
        lam, U = eigendecompose(np.diag([2.0, 1.0]))
        assert np.array_equal(lam, [2.0, 1.0])
        assert np.array_equal(U, np.eye(2))

    def test_rank_one_analytic(self):
        a = np.array([3.0, 4.0]) / 5.0
        lam, U = eigendecompose(np.outer(a, a))
        assert lam[0] == pytest.approx(1.0, rel=1e-14)
        assert lam[1] == pytest.approx(0.0, abs=1e-14)
        assert np.max(np.abs(U[:, 0] - np.array([0.6, 0.8]))) < 1e-14

    def test_not_symmetric(self):
        with pytest.raises(ToolkitError, match="^matrix is not symmetric to 1e-10$"):
            eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry(self, bad):
        # eigh would return [1, nan] for a NaN, and warn, then do so, for inf
        with pytest.raises(ToolkitError, match=rf"^C\[0, 1\] is {bad!r}; C must be finite$"):
            eigendecompose(np.array([[1.0, bad], [bad, 1.0]]))
        with pytest.raises(ToolkitError, match=rf"^C\[0, 0\] is {bad!r}; C must be finite$"):
            eigendecompose(np.array([[bad, 0.0], [0.0, 1.0]]))

    def test_descending_order_and_reconstruction(self):
        for seed in range(100):
            C = random_psd(4, seed)
            lam, U = eigendecompose(C)
            assert np.all(np.diff(lam) <= 1e-12)
            recon = U @ np.diag(lam) @ U.T
            assert np.max(np.abs(C - recon)) < 1e-10 * (1.0 + lam[0])

    def test_rotated_coordinates_reproduce_eigenvalues(self):
        # diag(U^T C U) is the derivative-based sensitivity of each rotated
        # coordinate; it must equal the eigenvalue reported for that group
        for seed in range(100):
            C = random_psd(4, 5000 + seed)
            lam, U = eigendecompose(C)
            assert np.max(np.abs(np.diag(U.T @ C @ U) - lam)) < 1e-10

    def test_roundoff_negatives_clamped(self):
        Q = random_orthogonal(3, 1)
        C = Q @ np.diag([1.0, 1e-16, -1e-16]) @ Q.T
        lam, _ = eigendecompose(0.5 * (C + C.T))
        assert np.all(lam >= 0.0)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_eigenvalues_descend_for_random_psd_matrices(self, data):
        # C = A A^T is PSD for any A; a narrow A gives a rank-deficient C
        n = data.draw(st.integers(1, 6), label="size")
        r = data.draw(st.integers(1, n), label="rank at most")
        A = np.array(data.draw(st.lists(st.lists(st.floats(-10.0, 10.0), min_size=r, max_size=r),
                                        min_size=n, max_size=n), label="A"))
        C = A @ A.T
        lam, U = eigendecompose(C)
        assert np.all(np.diff(lam) <= 0.0)
        assert np.all(lam >= 0.0)
        scale = max(1.0, float(np.max(np.abs(C))))
        assert np.max(np.abs(U @ np.diag(lam) @ U.T - C)) <= 1e-10 * scale

    def test_genuinely_negative_raises(self):
        with pytest.raises(ToolkitError, match=r"^eigenvalue -1\.000000e-06 below -1\.0e-12; "
                                               "matrix is not PSD$"):
            eigendecompose(np.diag([1.0, -1e-6]))

    def test_sign_rule(self):
        for seed in range(30):
            lam, U = eigendecompose(random_psd(5, 1000 + seed))
            for j in range(5):
                mags = np.abs(U[:, j])
                lead = int(np.flatnonzero(mags >= mags.max() * (1 - 1e-12))[0])
                assert U[lead, j] > 0


class TestUniqueGroups:
    def test_identity_rotation_returns_w(self, pipe_basis):
        Z, descriptors = unique_groups(pipe_basis.W, np.eye(2), symbols=list("abcde"))
        assert np.array_equal(Z, pipe_basis.W)
        assert len(descriptors) == 2
        assert "^" in descriptors[0]

    def test_descriptor_rendering(self):
        text = group_descriptor(np.array([0.309, -0.423, 0.0]), ["rho", "eps", "V"])
        assert text == "rho^0.309 * eps^-0.423"
        assert group_descriptor(np.zeros(2), ["a", "b"]) == "1"

    def test_rejects_nonorthonormal_w(self):
        with pytest.raises(ToolkitError, match="^W must have orthonormal columns$"):
            unique_groups(np.ones((4, 2)), np.eye(2), list("abcd"))

    def test_rejects_nonorthogonal_u(self):
        with pytest.raises(ToolkitError, match="^U must be orthogonal$"):
            unique_groups(np.eye(4, 2), np.ones((2, 2)), list("abcd"))

    def test_shape_mismatch(self, pipe_basis):
        with pytest.raises(ToolkitError, match=r"^W is \(5, 2\), U is \(3, 3\)$"):
            unique_groups(pipe_basis.W, np.eye(3), list("abcde"))


class TestExpressInClassical:
    def test_same_basis_gives_identity(self, pipe_basis):
        E, residual = express_in_classical(pipe_basis.W, pipe_basis.W)
        assert np.max(np.abs(E - np.eye(2))) < 1e-12
        assert residual < 1e-12

    def test_rotated_basis_recovered(self, pipe_basis):
        Q = random_orthogonal(2, 9)
        Z = pipe_basis.W @ Q
        E, residual = express_in_classical(Z, pipe_basis.W)
        assert np.max(np.abs(E - Q)) < 1e-12
        assert residual < 1e-12

    def test_span_mismatch(self, pipe_basis):
        Z = pipe_basis.W.copy()
        Z[0, 0] += 0.5  # push the column out of the null space
        with pytest.raises(SpanMismatch):
            express_in_classical(Z, pipe_basis.W)


class TestRotationAngle:
    def test_identity(self):
        assert rotation_angle(np.eye(2)) == pytest.approx(0.0, abs=1e-12)

    def test_quarter_turn(self):
        U = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert rotation_angle(U) == pytest.approx(90.0, rel=1e-12)

    def test_wrong_dimension(self):
        with pytest.raises(ToolkitError,
                           match=r"^rotation angle needs a 2x2 matrix, got \(3, 3\)$"):
            rotation_angle(np.eye(3))

    def test_requires_orthogonal(self):
        with pytest.raises(ToolkitError, match="^U must be orthogonal$"):
            rotation_angle(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestRidgeRankBound:
    def test_rank_r_gradients_give_rank_r_c(self):
        # gradients of a ridge with rank-r inner structure live in a rank-r subspace
        gen = np.random.default_rng(12)
        for r in (1, 2, 3):
            B = gen.normal(size=(r, 5))
            coeffs = gen.normal(size=(400, r))
            G = coeffs @ B
            w = np.full(400, 1.0 / 400)
            lam, _ = eigendecompose(assemble_C(G, w))
            assert np.all(lam[r:] < 1e-10 * lam[0])


class TestSubspaceResult:
    def make(self, pipe_basis):
        C = random_psd(2, 77)
        lam, U = eigendecompose(C)
        Z = pipe_basis.W @ U
        return SubspaceResult(C=C, eigenvalues=lam, U=U, Z=Z,
                              metadata={"algorithm": "finite_difference", "h": 1e-6})

    def test_json_round_trip(self, pipe_basis):
        result = self.make(pipe_basis)
        doc = json.loads(jsonio.dumps(result.to_dict()))
        assert np.array_equal(doc["C"], result.C)
        assert np.array_equal(doc["Z"], result.Z)
        assert doc["metadata"]["h"] == 1e-6

    def test_csv_layout(self, pipe_basis, tmp_path):
        result = self.make(pipe_basis)
        path = tmp_path / "exponents.csv"
        result_to_csv(result, ("rho", "mu", "D", "eps", "V"), path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "variable,z_1,z_2"
        assert len(lines) == 7
        assert lines[1].startswith("rho,")
        assert lines[-1].startswith("eigenvalue,")

    def test_degenerate_flagging(self, pipe_system, pipe_basis):
        result = _finalize(pipe_system, pipe_basis.W, np.diag([1.0, 1.0 - 1e-5]), {})
        assert result.metadata["eigen_gap"] == pytest.approx(1e-5)
        assert result.metadata["unique"] is False
        assert result.metadata["flag"] == DEGENERATE_FLAG
        separated = _finalize(pipe_system, pipe_basis.W, np.diag([1.0, 0.5]), {})
        assert separated.metadata["eigen_gap"] == pytest.approx(0.5)
        assert separated.metadata["unique"] is True
        assert "flag" not in separated.metadata
        assert eigen_gap(np.array([2.0])) is None
