import json

import numpy as np
import pytest
from hypothesis import example, given, settings
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


def uniform(N):
    """A rule over N rows, every weight 1/N; assemble_C reads only its weights."""
    return PointsRule(np.ones((N, 1)), np.full(N, 1.0 / N))


def weighted(w):
    return PointsRule(np.ones((len(w), 1)), w)


def partition(G, cuts):
    """The rows of G as blocks that end at the sorted ``cuts``: a repeated
    cut makes an empty block."""
    edges = [0, *sorted(cuts), len(G)]
    return [G[a:b] for a, b in zip(edges, edges[1:])]


def random_psd(n, seed):
    gen = np.random.default_rng(seed)
    Q = random_orthogonal(n, seed)
    lam = np.sort(gen.uniform(0.0, 10.0, size=n))[::-1]
    return Q @ np.diag(lam) @ Q.T


class TestAssembleC:
    def test_constant_gradient_gives_rank_one(self):
        a = np.array([1.0, 2.0, -1.0])
        G = np.tile(a, (40, 1))
        C = assemble_C(uniform(40), [G])
        assert np.max(np.abs(C - np.outer(a, a))) < 1e-14
        lam, _ = eigendecompose(C)
        assert lam[0] == pytest.approx(float(a @ a), rel=1e-14)
        assert np.max(np.abs(lam[1:])) < 1e-13

    def test_zero_gradients(self):
        C = assemble_C(uniform(10), [np.zeros((10, 2))])
        assert np.array_equal(C, np.zeros((2, 2)))

    def test_two_unit_gradients(self):
        G = np.array([[1.0, 0.0], [0.0, 1.0]])
        C = assemble_C(uniform(2), [G])
        assert np.array_equal(C, np.diag([0.5, 0.5]))

    def test_exactly_symmetric(self, monkeypatch):
        monkeypatch.setattr(subspace, "_CHUNK_ROWS", 128)
        gen = np.random.default_rng(7)
        G = gen.normal(size=(1000, 4))
        w = gen.random(1000)
        w /= w.sum()
        C = assemble_C(weighted(w), [G])
        assert np.array_equal(C, C.T)

    def test_chunk_size_does_not_change_result_materially(self, monkeypatch):
        gen = np.random.default_rng(3)
        G = gen.normal(size=(500, 3))
        rule = uniform(500)
        C1 = assemble_C(rule, [G])  # one chunk
        assert np.array_equal(C1, assemble_C(rule, [G]))  # deterministic
        monkeypatch.setattr(subspace, "_CHUNK_ROWS", 7)
        C2 = assemble_C(rule, [G])
        assert np.max(np.abs(C1 - C2)) < 1e-14 * max(1.0, np.max(np.abs(C1)))

    @pytest.mark.parametrize("cuts,bad", [([], 2), ([2], 2), ([1, 3, 3], 5), ([4, 5], 5)],
                             ids=["one-block", "first-of-second", "fourth-block", "last"])
    def test_rejects_non_finite_gradients(self, monkeypatch, cuts, bad):
        monkeypatch.setattr(subspace, "_CHUNK_ROWS", 4)
        G = np.ones((7, 2))
        G[bad, 1] = np.nan
        with pytest.raises(ToolkitError,
                           match=f"^gradient row {bad} contains a non-finite entry$"):
            assemble_C(uniform(7), partition(G, cuts))

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
        C = assemble_C(rule, partition(G, [3, 9]))
        assert rule.ranges == [(0, 4), (4, 8), (8, 10)]
        assert np.max(np.abs(C - (G.T * w) @ G)) < 1e-14

    @settings(max_examples=200, deadline=None)
    @given(N=st.integers(1, 40), chunk=st.integers(1, 12),
           cuts=st.lists(st.integers(0, 40), max_size=43))
    # every block one row, between empty ones
    @example(N=10, chunk=3, cuts=[0, *range(11), 10])
    def test_any_partition_into_blocks_gives_the_same_bytes(self, N, chunk, cuts):
        # a repeated cut makes an empty block, and cuts one apart a one-row block
        G = np.random.default_rng(N).normal(size=(N, 3))
        w = np.random.default_rng(N + 1).random(N)
        rule = weighted(w / w.sum())
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(subspace, "_CHUNK_ROWS", chunk)
            whole = assemble_C(rule, [G])
            blocks = partition(G, [min(cut, N) for cut in cuts])
            assert assemble_C(rule, iter(blocks)).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("rows", [9, 11])
    @pytest.mark.parametrize("cuts", [[], [4], [5, 5, 8]], ids=["one", "two", "four"])
    def test_a_stream_of_another_length_is_refused(self, monkeypatch, rows, cuts):
        class RangeLog(PointsRule):
            def weights(self, start, stop):
                self.stops.append(stop)
                return super().weights(start, stop)

        RangeLog.stops = []
        monkeypatch.setattr(subspace, "_CHUNK_ROWS", 4)
        rule = RangeLog(np.ones((10, 1)), np.full(10, 0.1))
        with pytest.raises(ToolkitError, match=f"^{rows} gradient rows for 10 rule points$"):
            assemble_C(rule, partition(np.ones((rows, 2)), cuts))
        # no weight is asked for beyond the rule's last row
        assert max(RangeLog.stops) <= 10

    def test_overflow_to_inf_is_refused_by_eigendecompose(self):
        # finite gradients above about 1e154 square to inf, with a warning
        with pytest.warns(RuntimeWarning, match="^overflow encountered in matmul$"):
            C = assemble_C(uniform(2), [np.full((2, 2), 1e160)])
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

    def test_not_square(self):
        with pytest.raises(ToolkitError, match="^matrix is 2 x 3, expected square$"):
            eigendecompose(np.ones((2, 3)))

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

    @pytest.mark.parametrize("symbols", [["a"], list("abcd")])
    def test_one_symbol_per_row_of_w(self, symbols):
        with pytest.raises(ToolkitError, match=f"^{len(symbols)} symbols for 3 exponent rows$"):
            unique_groups(np.eye(3, 2), np.eye(2), symbols)

    def test_a_nan_in_w_is_refused(self):
        W = np.eye(3, 2)
        W[2, 1] = np.nan
        with pytest.raises(ToolkitError, match="^W must have orthonormal columns$"):
            unique_groups(W, np.eye(2), list("abc"))

    def test_a_nan_in_u_is_refused(self):
        with pytest.raises(ToolkitError, match="^U must be orthogonal$"):
            unique_groups(np.eye(3, 2), np.array([[1.0, 0.0], [0.0, np.nan]]), list("abc"))


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

    def test_a_nan_is_refused(self):
        with pytest.raises(ToolkitError, match="^U must be orthogonal$"):
            rotation_angle(np.full((2, 2), np.nan))


class TestRidgeRankBound:
    def test_rank_r_gradients_give_rank_r_c(self):
        # gradients of a ridge with rank-r inner structure live in a rank-r subspace
        gen = np.random.default_rng(12)
        for r in (1, 2, 3):
            B = gen.normal(size=(r, 5))
            coeffs = gen.normal(size=(400, r))
            G = coeffs @ B
            lam, _ = eigendecompose(assemble_C(uniform(400), [G]))
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
        assert list(result.to_dict()) == ["C", "eigenvalues", "U", "Z", "metadata"]

    def test_csv_layout(self, pipe_basis, tmp_path):
        result = self.make(pipe_basis)
        path = tmp_path / "exponents.csv"
        result_to_csv(result, ("rho", "mu", "D", "eps", "V"), path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "variable,z_1,z_2"
        assert len(lines) == 7
        assert lines[1].startswith("rho,")
        assert lines[-1].startswith("eigenvalue,")

    def test_csv_needs_one_symbol_per_exponent_row(self, pipe_basis, tmp_path):
        path = tmp_path / "exponents.csv"
        with pytest.raises(ToolkitError, match="^4 symbols for 5 exponent rows$"):
            result_to_csv(self.make(pipe_basis), ("rho", "mu", "D", "eps"), path)
        assert not path.exists()

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
