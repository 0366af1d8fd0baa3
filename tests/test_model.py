"""State containers and the matrix-free stiffness operator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_synthetic_instance, random_feasible_blocks
from fmopt import fem2d
from fmopt.model import (
    DimensionMismatch,
    InvalidInstance,
    MaterialState,
    ProblemInstance,
    apply_A,
    apply_B,
    apply_Bt,
    element_quads,
    feasible_E,
    scatter_index,
)
from fmopt.oracle import da_step_reference, dense_stiffness_reference, dense_strain_matrices
from fmopt.saddle import DualAccumulators, StepSchedule, beta_hat_sequence, da_step


def quad(instance, E, v) -> float:
    """<A(E) v, v> through the element kernels."""
    return float(element_quads(E.dense(), apply_B(instance, v[None]))[1][0])


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
            assert quad(inst, E, v) == pytest.approx(float(v @ A @ v), rel=1e-12, abs=1e-12)

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


MESH = fem2d.MeshSpec(nx=8, ny=4, lx=8.0, ly=4.0, loads=(
    fem2d.LoadSpec("right_edge", (0.0, -1.0)), fem2d.LoadSpec("top_right", (1.0, 0.0)),
))


def mesh_instance():
    """8x4 cantilever: interior elements share one operator, the 4 on the fixed edge differ."""
    return fem2d.build_instance(MESH, 0.3, 3.0, 0.05, 5.0, 8.0)


def with_operators(inst, B):
    return ProblemInstance(inst.cols_packed, B, inst.loads, inst.rho_l, inst.rho_u,
                           inst.r, inst.gamma, inst.eta, inst.nu)


def element_kernel_case(rng, case):
    """(instance, elements expected off the shared operator, or None for no split)."""
    if case == "ragged":  # random operators: nothing shared
        return make_synthetic_instance(rng, m=4, N=11, L=3, n_loc=(2, 5, 3, 4)), None
    if case == "mesh":
        return mesh_instance(), np.arange(MESH.ny) * MESH.nx
    if case == "mesh_one_ulp":  # one interior operator entry moved by one ulp
        inst = mesh_instance()
        B = inst.B_packed.copy()
        B[13, 2, 0, 2] = np.nextafter(B[13, 2, 0, 2], np.inf)
        return with_operators(inst, B), np.sort(np.append(np.arange(MESH.ny) * MESH.nx, 13))
    # "share_<n>": n of 100 random-support elements on one operator
    n_same = int(case.split("_")[1])
    inst = make_synthetic_instance(rng, m=100, N=40, L=2, n_loc=6)
    B = inst.B_packed.copy()
    same = rng.permutation(100)[:n_same]
    B[same] = B[same[0]]
    expected = np.setdiff1d(np.arange(100), same) if n_same >= 75 else None
    return with_operators(inst, B), expected


class TestElementKernel:
    CASES = ["ragged", "mesh", "mesh_one_ulp", "share_74", "share_75", "share_76"]

    @pytest.fixture(params=CASES)
    def case(self, rng, request):
        return element_kernel_case(rng, request.param)

    def test_shared_operator_split(self, case):
        inst, expected = case
        if expected is None:
            assert inst.shared is None
            return
        shared = inst.shared
        np.testing.assert_array_equal(shared.others, expected)
        on_shared = np.setdiff1d(np.arange(inst.m), expected)
        B_shared = shared.B.reshape(inst.nig, inst.k, inst.n_loc)
        assert (inst.B_packed[on_shared] == B_shared).all()
        assert not (inst.B_packed[expected] == B_shared).all(axis=(1, 2, 3)).any()
        np.testing.assert_array_equal(np.moveaxis(shared.B_others, -1, 0), inst.B_packed[expected])

    def test_apply_Bt_is_adjoint_of_apply_B(self, rng, case):
        inst, _ = case
        X = rng.normal(size=(inst.L, inst.N))
        Y = rng.normal(size=(inst.L, inst.m, inst.nig, inst.k))
        BX, BtY = apply_B(inst, X), apply_Bt(inst, Y)
        assert BX.shape == Y.shape and BtY.shape == X.shape
        np.testing.assert_allclose(
            np.einsum("jqlk,jqlk->j", BX, Y), np.einsum("jn,jn->j", X, BtY),
            rtol=1e-12, atol=1e-12,
        )

    def test_matches_dense_strain_oracle(self, rng, case):
        inst, _ = case
        dense = np.stack(dense_strain_matrices(inst))  # (m, nig, k, N)
        X = rng.normal(size=(inst.L, inst.N))
        Y = rng.normal(size=(inst.L, inst.m, inst.nig, inst.k))
        np.testing.assert_allclose(
            apply_B(inst, X), np.einsum("qlkn,jn->jqlk", dense, X), rtol=1e-12, atol=1e-12
        )
        np.testing.assert_allclose(
            apply_Bt(inst, Y), np.einsum("qlkn,jqlk->jn", dense, Y), rtol=1e-12, atol=1e-12
        )

    def test_apply_Bt_scatter_index_built_once(self, rng, case, monkeypatch):
        # up to L rows take a prefix of the instance's read-only index, more
        # rows build their own; the sums are bitwise those of an index built
        # on every call
        inst, _ = case
        with pytest.raises(ValueError, match="read-only"):
            inst.scatter_index[0] = 1
        counts = (1, inst.L, inst.L + 1)
        for n in counts[:2]:
            np.testing.assert_array_equal(
                inst.scatter_index[: n * inst.cols.size], scatter_index(n, inst.N, inst.cols)
            )
        Ys = [rng.normal(size=(n, inst.m, inst.nig, inst.k)) for n in counts]
        got = [apply_Bt(inst, Y) for Y in Ys]
        monkeypatch.setattr(inst, "L", 0)  # every call now builds its own index
        for Y, sums in zip(Ys, got):
            np.testing.assert_array_equal(sums, apply_Bt(inst, Y))

    @pytest.mark.parametrize("scheme", ["simple", "weighted"])
    def test_da_step_on_shared_operator_matches_oracle(self, rng, scheme):
        inst = mesh_instance()
        assert inst.shared is not None
        E = random_feasible_blocks(rng, inst.m, inst.k, 0.3, 3.0, inst.r)
        x = rng.normal(0.0, 0.1, (inst.L, inst.N))
        acc = DualAccumulators.zeros(inst)
        sched = StepSchedule(scheme, 0.4, 2.0)
        E, x, _ = da_step(inst, acc, sched, E, x)
        bh = beta_hat_sequence(sched.t + 1)[sched.t + 1]
        E_ref, x_ref, s_E_ref, s_x_ref, alpha_ref = da_step_reference(
            inst, np.array(E), x, np.array(acc.s_E), acc.s_x.copy(), scheme, 0.4, 2.0, bh
        )
        E_next, x_next, info = da_step(inst, acc, sched, E, x)
        assert info["alpha"] == pytest.approx(alpha_ref, rel=1e-12)
        for got, ref in ((E_next, E_ref), (x_next, x_ref), (acc.s_E, s_E_ref), (acc.s_x, s_x_ref)):
            np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-11)

    def test_operator_storage_is_read_only(self):
        inst = mesh_instance()
        shared = inst.shared
        for array in (inst.B, inst.cols, inst.B_packed, inst.cols_packed,
                      shared.B, shared.others, shared.B_others):
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 1

    def test_caller_storage_kept_as_given_becomes_read_only(self):
        inst = mesh_instance()
        B, cols = inst.B.copy(), inst.cols.copy()  # writable element-last storage
        kept = ProblemInstance(cols.T, np.moveaxis(B, -1, 0), inst.loads, 0.3, 3.0, 0.05, 5.0, 8.0)
        assert np.shares_memory(kept.B, B) and np.shares_memory(kept.cols, cols)
        for array in (B, cols):
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 1


class TestQuadA:
    def test_zero_vector(self, rng):
        inst = make_synthetic_instance(rng)
        E = MaterialState.from_dense(random_feasible_blocks(rng, inst.m, 3, 0.4, 2.5, 0.1))
        assert quad(inst, E, np.zeros(inst.N)) == 0.0

    def test_identity_unit_vector(self):
        inst = identity_instance(k=2)
        E = MaterialState.from_dense(np.eye(2)[None, :, :])
        assert quad(inst, E, np.array([1.0, 0.0])) == pytest.approx(1.0)

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
            assert quad(inst, E, v) >= inst.r * lam_min * float(v @ v) - 1e-9

    def test_corrupted_state_rejected(self, rng):
        inst = make_synthetic_instance(rng, m=2)
        bad = MaterialState.from_dense(-np.tile(np.eye(3), (2, 1, 1)))
        v = rng.normal(0, 1, inst.N)
        from fmopt.model import NumericalFailure

        with pytest.raises(NumericalFailure):
            quad(inst, bad, v)


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



class TestWithParams:
    SPEC = fem2d.MeshSpec(nx=4, ny=2, lx=4.0, ly=2.0)

    def test_shares_what_B_determines(self):
        base = fem2d.build_instance(self.SPEC, 0.3, 3.0, 0.05, 1.0, 10.0)
        built = base.band_layout
        variant = base.with_params(gamma=2.5, nu=4.0)
        assert (variant.gamma, variant.eta, variant.nu) == (2.5, 10.0, 4.0)
        assert (base.gamma, base.eta, base.nu) == (1.0, 10.0, 0.0)
        for name in ("B", "cols", "shared", "scatter_index", "band_layout", "loads"):
            assert getattr(variant, name) is getattr(base, name), name
        assert variant.band_layout is built

    @pytest.mark.parametrize("field,bad", [
        ("gamma", np.nan), ("gamma", 0.0), ("eta", np.inf), ("eta", -1.0),
        ("nu", np.nan), ("nu", -1.0),
    ])
    def test_validated_as_the_constructor_does(self, field, bad):
        args = dict(rho_l=0.2, rho_u=1.0, r=0.1, gamma=1.0, eta=1.0, nu=0.0)
        base = ProblemInstance(**TestInstanceValidation.ONE, loads=np.zeros((1, 2)), **args)
        with pytest.raises(InvalidInstance) as built:
            ProblemInstance(**TestInstanceValidation.ONE, loads=np.zeros((1, 2)),
                            **{**args, field: bad})
        with pytest.raises(InvalidInstance) as derived:
            base.with_params(**{field: bad})
        assert str(derived.value) == str(built.value) and field in str(derived.value)
        assert getattr(base, field) == args[field]


@given(st.integers(2, 4), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_quad_matches_apply_property(k, seed):
    rng = np.random.default_rng(seed)
    inst = make_synthetic_instance(rng, m=3, k=k, N=8, n_loc=4)
    blocks = random_feasible_blocks(rng, 3, k, inst.rho_l[0], inst.rho_u[0], inst.r)
    E = MaterialState.from_dense(blocks)
    v = rng.normal(0, 1, inst.N)
    q = quad(inst, E, v)
    assert q == pytest.approx(float(v @ apply_A(inst, E, v)), rel=1e-10, abs=1e-10)
    assert q >= 0.0
