"""State containers and the matrix-free stiffness operator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_synthetic_instance, random_feasible_blocks
from fmopt.model import (
    DimensionMismatch,
    InvalidInstance,
    MaterialState,
    ProblemInstance,
    apply_A,
    apply_B,
    apply_Bt,
    feasible_E,
    quad_A,
)
from fmopt.oracle import dense_stiffness_reference, dense_strain_matrices


def identity_instance(k=2):
    """One element, one integration point, B = I_k, N = k."""
    return ProblemInstance(np.arange(k)[None], np.eye(k)[None, None], np.zeros((1, k)),
                           k * 0.1, 5.0, 0.1, 1.0, 1.0)


class TestMaterialState:
    def test_packed_storage_is_exactly_symmetric(self, rng):
        raw = rng.normal(0, 1, (4, 3, 3))
        state = MaterialState.from_dense(raw)
        dense = state.dense()
        assert np.array_equal(dense, np.swapaxes(dense, 1, 2))

    def test_traces_and_objective(self, rng):
        raw = rng.normal(0, 1, (5, 3, 3))
        state = MaterialState.from_dense(raw)
        sym = 0.5 * (raw + np.swapaxes(raw, 1, 2))
        np.testing.assert_allclose(state.traces(), np.einsum("qkk->q", sym))
        assert state.objective() == pytest.approx(float(np.einsum("qkk->", sym)))

    def test_shape_validation(self):
        with pytest.raises(DimensionMismatch):
            MaterialState.from_dense(np.zeros((2, 3, 4)))


class TestFeasibility:
    def test_boundary_state_is_feasible(self):
        inst = identity_instance(k=2)
        E = MaterialState.from_dense(0.1 * np.eye(2)[None, :, :])  # rho_l = k*r
        ok, report = feasible_E(inst, E)
        assert ok
        assert report.max_trace_deficit <= 1e-9

    def test_trace_excess_reported(self):
        inst = identity_instance(k=2)
        E = MaterialState.from_dense(np.diag([6.0, 0.1])[None, :, :])
        ok, report = feasible_E(inst, E)
        assert not ok
        assert report.max_trace_excess == pytest.approx(1.1)
        assert report.worst_trace_excess_block == 0

    def test_random_feasible_blocks_pass(self, rng):
        inst = make_synthetic_instance(rng, m=6)
        blocks = random_feasible_blocks(rng, 6, 3, 0.4, 2.5, 0.1)
        ok, report = feasible_E(inst, MaterialState.from_dense(blocks))
        assert ok, report
        # direct eigendecomposition oracle on every block
        for i in range(6):
            eig = np.linalg.eigvalsh(blocks[i])
            assert eig[0] >= 0.1 - 1e-9
            assert 0.4 - 1e-9 <= blocks[i].trace() <= 2.5 + 1e-9

    def test_block_count_mismatch_names_problem(self, rng):
        inst = make_synthetic_instance(rng, m=3)
        E = MaterialState.from_dense(np.tile(np.eye(3), (2, 1, 1)))
        with pytest.raises(DimensionMismatch, match="m=2"):
            feasible_E(inst, E)


class TestApplyA:
    def test_identity_composition(self, rng):
        inst = identity_instance(k=3)
        E = MaterialState.from_dense(np.eye(3)[None, :, :])
        v = rng.normal(0, 1, 3)
        np.testing.assert_allclose(apply_A(inst, E, v), v, atol=1e-14)

    def test_zero_blocks_give_zero(self, rng):
        inst = make_synthetic_instance(rng)
        E = MaterialState.from_dense(np.zeros((inst.m, 3, 3)))
        v = rng.normal(0, 1, inst.N)
        np.testing.assert_allclose(apply_A(inst, E, v), np.zeros(inst.N), atol=1e-14)

    @pytest.mark.parametrize("k", [2, 3, 6])
    def test_matches_dense_assembly_oracle(self, rng, k):
        inst = make_synthetic_instance(
            rng, m=4, k=k, N=12, n_loc=5, rho_l=k * 0.1 + 0.2, rho_u=k * 1.0
        )
        blocks = random_feasible_blocks(rng, 4, k, inst.rho_l[0], inst.rho_u[0], inst.r)
        E = MaterialState.from_dense(blocks)
        A = dense_stiffness_reference(inst, blocks)
        for _ in range(5):
            v = rng.normal(0, 1, inst.N)
            ref = A @ v
            got = apply_A(inst, E, v)
            assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))
            assert quad_A(inst, E, v) == pytest.approx(float(v @ A @ v), rel=1e-12, abs=1e-12)

    def test_linear_in_v_and_E(self, rng):
        inst = make_synthetic_instance(rng, m=3)
        E1 = random_feasible_blocks(rng, 3, 3, 0.4, 2.5, 0.1)
        E2 = random_feasible_blocks(rng, 3, 3, 0.4, 2.5, 0.1)
        v1 = rng.normal(0, 1, inst.N)
        v2 = rng.normal(0, 1, inst.N)
        a, b = 0.7, -1.3
        s1 = MaterialState.from_dense(E1)
        lhs = apply_A(inst, s1, a * v1 + b * v2)
        rhs = a * apply_A(inst, s1, v1) + b * apply_A(inst, s1, v2)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)
        mix = MaterialState.from_dense(a * E1 + b * E2)
        lhs = apply_A(inst, mix, v1)
        rhs = a * apply_A(inst, MaterialState.from_dense(E1), v1) + b * apply_A(
            inst, MaterialState.from_dense(E2), v1
        )
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_vector_length_checked(self, rng):
        inst = make_synthetic_instance(rng)
        E = MaterialState.from_dense(random_feasible_blocks(rng, inst.m, 3, 0.4, 2.5, 0.1))
        with pytest.raises(DimensionMismatch):
            apply_A(inst, E, np.zeros(inst.N + 1))

    def test_ragged_column_supports_padded_correctly(self, rng):
        cols = np.zeros((3, 5), dtype=np.int64)
        B = np.zeros((3, 2, 3, 5))
        for i, nloc in enumerate((2, 5, 3)):
            cols[i, :nloc] = np.sort(rng.choice(9, size=nloc, replace=False))
            B[i, :, :, :nloc] = rng.normal(size=(2, 3, nloc))
        inst = ProblemInstance(cols, B, rng.normal(size=(2, 9)), 0.4, 2.5, 0.1, 2.0, 3.0)
        assert inst.n_loc == 5
        blocks = random_feasible_blocks(rng, 3, 3, 0.4, 2.5, 0.1)
        E = MaterialState.from_dense(blocks)
        A = dense_stiffness_reference(inst, blocks)
        v = rng.normal(size=9)
        np.testing.assert_allclose(apply_A(inst, E, v), A @ v, atol=1e-12)


class TestElementKernel:
    @pytest.fixture
    def ragged(self, rng):
        return make_synthetic_instance(rng, m=4, N=11, L=3, n_loc=(2, 5, 3, 4))

    def test_apply_Bt_is_adjoint_of_apply_B(self, rng, ragged):
        X = rng.normal(size=(ragged.L, ragged.N))
        Y = rng.normal(size=(ragged.L, ragged.m, ragged.nig, ragged.k))
        BX, BtY = apply_B(ragged, X), apply_Bt(ragged, Y)
        assert BX.shape == Y.shape and BtY.shape == X.shape
        np.testing.assert_allclose(
            np.einsum("jqlk,jqlk->j", BX, Y), np.einsum("jn,jn->j", X, BtY),
            rtol=1e-12, atol=1e-12,
        )

    def test_matches_dense_strain_oracle(self, rng, ragged):
        dense = np.stack(dense_strain_matrices(ragged))  # (m, nig, k, N)
        X = rng.normal(size=(ragged.L, ragged.N))
        Y = rng.normal(size=(ragged.L, ragged.m, ragged.nig, ragged.k))
        np.testing.assert_allclose(
            apply_B(ragged, X), np.einsum("qlkn,jn->jqlk", dense, X), rtol=1e-12, atol=1e-12
        )
        np.testing.assert_allclose(
            apply_Bt(ragged, Y), np.einsum("qlkn,jqlk->jn", dense, Y), rtol=1e-12, atol=1e-12
        )


class TestQuadA:
    def test_zero_vector(self, rng):
        inst = make_synthetic_instance(rng)
        E = MaterialState.from_dense(random_feasible_blocks(rng, inst.m, 3, 0.4, 2.5, 0.1))
        assert quad_A(inst, E, np.zeros(inst.N)) == 0.0

    def test_identity_unit_vector(self):
        inst = identity_instance(k=2)
        E = MaterialState.from_dense(np.eye(2)[None, :, :])
        assert quad_A(inst, E, np.array([1.0, 0.0])) == pytest.approx(1.0)

    def test_coercivity_lower_bound(self, rng):
        # <A(E)v, v> >= r * lambda_min(B^T B) ||v||^2 for feasible E
        inst = make_synthetic_instance(rng, m=4, N=8, n_loc=6)
        gram = dense_stiffness_reference(
            inst, np.tile(np.eye(3), (inst.m, 1, 1))
        )  # B^T B via E = I
        lam_min = float(np.linalg.eigvalsh(gram)[0])
        E = MaterialState.from_dense(
            random_feasible_blocks(rng, inst.m, 3, 0.4, 2.5, inst.r)
        )
        for _ in range(20):
            v = rng.normal(0, 1, inst.N)
            assert quad_A(inst, E, v) >= inst.r * lam_min * float(v @ v) - 1e-9

    def test_corrupted_state_rejected(self, rng):
        inst = make_synthetic_instance(rng, m=2)
        bad = MaterialState.from_dense(-np.tile(np.eye(3), (2, 1, 1)))
        v = rng.normal(0, 1, inst.N)
        from fmopt.model import NumericalFailure

        with pytest.raises(NumericalFailure):
            quad_A(inst, bad, v)


class TestInstanceValidation:
    ONE = dict(cols=np.arange(2)[None], B=np.eye(2)[None, None])  # B = I_2, N = 2

    def test_nonfinite_operator_rejected(self, rng):
        with pytest.raises(InvalidInstance, match="element 0"):
            ProblemInstance(np.arange(2)[None], np.full((1, 1, 2, 2), np.nan),
                            np.zeros((1, 2)), 0.2, 1.0, 0.1, 1.0, 1.0)
        inst = make_synthetic_instance(rng, m=3, N=6)
        B = inst.B_packed.copy()
        B[2, 1, 0, 3] = np.nan
        with pytest.raises(InvalidInstance, match="element 2"):
            ProblemInstance(inst.cols_packed, B, inst.loads, 0.4, 2.5, 0.1, 4.0, 6.0)

    def test_trace_window_vs_floor_rejected(self, rng):
        with pytest.raises(InvalidInstance):
            ProblemInstance(**self.ONE, loads=np.zeros((1, 2)), rho_l=0.1, rho_u=1.0,
                            r=0.1, gamma=1.0, eta=1.0)  # k*r > rho_l
        with pytest.raises(InvalidInstance):  # slack is relative: an empty window at 0
            ProblemInstance(**self.ONE, loads=np.zeros((1, 2)), rho_l=0.0, rho_u=0.0,
                            r=1e-12, gamma=1.0, eta=1.0)

    @pytest.mark.parametrize("field", ["rho_l", "rho_u", "r", "gamma", "eta", "nu"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_scalar_rejected(self, field, bad):
        args = dict(rho_l=0.2, rho_u=1.0, r=0.1, gamma=1.0, eta=1.0, nu=0.0)
        args[field] = bad
        with pytest.raises(InvalidInstance, match=field):
            ProblemInstance(**self.ONE, loads=np.zeros((1, 2)), **args)

    def test_column_out_of_range_rejected(self, rng):
        with pytest.raises(DimensionMismatch, match="element 0"):
            ProblemInstance(np.array([[0, 5]]), np.eye(2)[None, None],
                            np.zeros((1, 3)), 0.2, 1.0, 0.1, 1.0, 1.0)
        inst = make_synthetic_instance(rng, m=3, N=6)
        for bad in (-1, inst.N):
            cols = inst.cols_packed.copy()
            cols[1, 2] = bad
            with pytest.raises(DimensionMismatch, match="element 1"):
                ProblemInstance(cols, inst.B_packed, inst.loads, 0.4, 2.5, 0.1, 4.0, 6.0)

    def test_repeated_dof_rejected(self):
        B = np.ones((2, 1, 2, 3))
        B[0, :, :, 2] = 0.0  # padding may repeat a DOF of a real column
        ProblemInstance(np.array([[0, 1, 0], [0, 1, 2]]), B, np.zeros((1, 3)),
                        0.2, 1.0, 0.1, 1.0, 1.0)
        with pytest.raises(InvalidInstance, match="element 1"):
            ProblemInstance(np.array([[0, 1, 0], [2, 1, 2]]), B, np.zeros((1, 3)),
                            0.2, 1.0, 0.1, 1.0, 1.0)

    def test_support_operator_shape_mismatch_rejected(self, rng):
        inst = make_synthetic_instance(rng, m=3, N=6)
        args = (inst.loads, 0.4, 2.5, 0.1, 4.0, 6.0)
        with pytest.raises(DimensionMismatch, match="element 0"):  # widths differ
            ProblemInstance(inst.cols_packed[:, :-1], inst.B_packed, *args)
        with pytest.raises(DimensionMismatch, match="element 2"):  # no support for element 2
            ProblemInstance(inst.cols_packed[:2], inst.B_packed, *args)
        with pytest.raises(DimensionMismatch):
            ProblemInstance(inst.cols_packed[0], inst.B_packed, *args)


@given(st.integers(2, 4), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_quad_matches_apply_property(k, seed):
    rng = np.random.default_rng(seed)
    inst = make_synthetic_instance(rng, m=3, k=k, N=8, n_loc=4)
    blocks = random_feasible_blocks(rng, 3, k, inst.rho_l[0], inst.rho_u[0], inst.r)
    E = MaterialState.from_dense(blocks)
    v = rng.normal(0, 1, inst.N)
    q = quad_A(inst, E, v)
    assert q == pytest.approx(float(v @ apply_A(inst, E, v)), rel=1e-10, abs=1e-10)
    assert q >= 0.0
