"""Element-last storage: results do not depend on the input layout, the
certified row feasibility check agrees with an eigensolver, and every
producer hands out element-last contiguous storage."""

import tracemalloc

import numpy as np
import pytest

from conftest import make_synthetic_instance, random_feasible_blocks
from fmopt import fem2d, penalty, saddle
from fmopt.model import ProblemInstance, apply_B, apply_Bt
from fmopt.oracle import da_step_reference, dense_strain_matrices
from fmopt.proj import project_blocks
from fmopt.saddle import DualAccumulators, StepSchedule, beta_hat_sequence, da_step, subgradients

RTOL = 1e-12


def c_order(a):
    return np.ascontiguousarray(a)


def element_last(a):
    """``a`` (element axis first) as a view of element-last contiguous storage."""
    return np.moveaxis(c_order(np.moveaxis(a, 0, -1)), -1, 0)


def is_element_last(view, axis=0):
    """``view`` is a transposed view of C-contiguous element-last storage."""
    return np.moveaxis(view, axis, -1).flags.c_contiguous


def assert_close(got, ref):
    scale = max(1.0, float(np.max(np.abs(ref))))
    np.testing.assert_allclose(got, ref, rtol=RTOL, atol=RTOL * scale)


@pytest.fixture
def ragged(rng):
    """L = 3 ragged instance; load 1 has x = 0, so it lies outside R."""
    inst = make_synthetic_instance(rng, m=5, N=12, L=3, nig=2, n_loc=[2, 4, 6, 5, 3])
    E = random_feasible_blocks(rng, inst.m, inst.k, 0.4, 2.5, 0.1)
    x = rng.normal(0.0, 1.0, (inst.L, inst.N))
    x[1] = 0.0
    fallback_y = np.zeros_like(x)
    fallback_y[1] = rng.normal(0.0, 1.0, inst.N)
    return inst, E, x, fallback_y


class TestLayoutIndependence:
    def test_apply_B_and_Bt(self, ragged, rng):
        inst, _, x, _ = ragged
        W = apply_B(inst, x)
        assert W.shape == (inst.L, inst.m, inst.nig, inst.k) and is_element_last(W, axis=1)
        B = c_order(inst.B_packed)
        assert_close(W, np.einsum("qlkd,jqd->jqlk", B, x[:, inst.cols_packed]))
        dense = dense_strain_matrices(inst)
        Y = rng.normal(0.0, 1.0, W.shape)
        ref = np.array([
            sum(dense[i][l].T @ Y[j, i, l] for i in range(inst.m) for l in range(inst.nig))
            for j in range(inst.L)
        ])
        last = np.moveaxis(c_order(np.moveaxis(Y, 1, -1)), -1, 1)
        assert_close(apply_Bt(inst, Y), ref)
        assert_close(apply_Bt(inst, last), ref)

    def test_subgradients_with_fallback_branch(self, ragged):
        inst, E, x, fallback_y = ragged
        got_c = subgradients(inst, c_order(E), x, fallback_y)
        got_l = subgradients(inst, element_last(E), x, fallback_y)
        g_E, g_x, quad, in_R, used_plain = got_l
        assert list(in_R) == [True, False, True] and not used_plain
        assert not np.allclose(g_x[1], 2.0 * inst.loads[1])  # the stored branch ran
        assert g_E.shape == (inst.m, inst.k, inst.k) and is_element_last(g_E)
        for a, b in zip(got_c[:3], got_l[:3]):
            assert_close(a, b)

    def test_penalty_correction_keeps_g_E_element_last(self, small_mesh_instance):
        E = small_mesh_instance.start_material().dense()
        x = small_mesh_instance.start_dual().vectors
        g_E = subgradients(small_mesh_instance, E, x, np.zeros_like(x))[0]
        for gamma, violated in ((1e-6, small_mesh_instance.L), (1e6, 0)):
            inst = small_mesh_instance.with_params(gamma=gamma, nu=1.0)
            state = penalty.compliance_solves(inst, E)
            assert state.violated.size == violated
            correction = penalty.penalty_grad_correction(inst, state)
            assert is_element_last(correction) and is_element_last(g_E + correction)

    def test_project_blocks(self, rng):
        s = rng.normal(0.0, 1.0, (40, 3, 3))
        s = s + np.swapaxes(s, 1, 2)
        s[::2] = -3.0 * np.eye(3) + 1e-3 * s[::2]  # certified trace shift
        rho_l, rho_u = np.full(40, 0.4), np.full(40, 2.5)
        out_c = project_blocks(c_order(s), 0.8, rho_l, rho_u, 0.1)
        out_l = project_blocks(element_last(s), 0.8, rho_l, rho_u, 0.1)
        assert is_element_last(out_c) and is_element_last(out_l)
        assert_close(out_c, out_l)

    @pytest.mark.parametrize("scheme", ["simple", "weighted"])
    def test_da_step(self, ragged, scheme):
        inst, E0, x0, fallback_y = ragged
        k, m = inst.k, inst.m
        runs = {}
        for layout in ("c", "last"):
            if layout == "c":
                acc = DualAccumulators(s_E=np.zeros((m, k, k)), s_x=np.zeros((inst.L, inst.N)),
                                       E_avg=np.zeros((m, k, k)), x_avg=np.zeros((inst.L, inst.N)))
            else:
                acc = DualAccumulators.zeros(inst)
            sched = StepSchedule(scheme, 0.4, 2.0)
            E, x = E0, x0
            for _ in range(4):
                E = c_order(E) if layout == "c" else element_last(E)
                E, x, _ = da_step(inst, acc, sched, E, x, fallback_y=fallback_y)
            runs[layout] = (E, x, acc.s_E, acc.s_x, acc.E_avg)
        for a, b in zip(runs["c"], runs["last"]):
            assert_close(a, b)
        assert is_element_last(runs["last"][2]) and is_element_last(runs["last"][4])

    @pytest.mark.parametrize("scheme", ["simple", "weighted"])
    def test_da_step_matches_oracle_from_c_order(self, ragged, scheme):
        # the oracle sees a load outside R as the plain 2 f_j selection, so
        # no representatives are passed here
        inst, E, x, _ = ragged
        acc = DualAccumulators.zeros(inst)
        sched = StepSchedule(scheme, 0.4, 2.0)
        for _ in range(2):
            E, x, _ = da_step(inst, acc, sched, E, x)
        E, x = c_order(E), c_order(x)
        s_E, s_x = c_order(acc.s_E), c_order(acc.s_x)
        bh = beta_hat_sequence(sched.t + 1)[sched.t + 1]
        E_ref, x_ref, s_E_ref, s_x_ref, alpha_ref = da_step_reference(
            inst, E, x, s_E, s_x, scheme, 0.4, 2.0, bh
        )
        E_next, x_next, info = da_step(inst, acc, sched, E, x)
        assert info["alpha"] == pytest.approx(alpha_ref, rel=1e-12)
        for got, ref in ((E_next, E_ref), (x_next, x_ref), (acc.s_E, s_E_ref), (acc.s_x, s_x_ref)):
            np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-11)


    @pytest.mark.parametrize("scheme", ["simple", "weighted"])
    @pytest.mark.parametrize("layout", ["c", "last"])
    def test_multi_step_run_matches_oracle(self, ragged, scheme, layout):
        inst, E, x, _ = ragged
        shape, rows = (inst.m, inst.k, inst.k), (inst.L, inst.N)
        if layout == "c":
            acc = DualAccumulators(s_E=np.zeros(shape), s_x=np.zeros(rows),
                                   E_avg=np.zeros(shape), x_avg=np.zeros(rows))
        else:
            acc = DualAccumulators.zeros(inst)
        sched = StepSchedule(scheme, 0.4, 2.0)
        bh = beta_hat_sequence(6)
        E_ref, x_ref, s_E_ref, s_x_ref = E, x, np.zeros(shape), np.zeros(rows)
        for t in range(5):
            E, x, info = da_step(inst, acc, sched, E, x)
            E_ref, x_ref, s_E_ref, s_x_ref, alpha_ref = da_step_reference(
                inst, E_ref, x_ref, s_E_ref, s_x_ref, scheme, 0.4, 2.0, bh[t + 1]
            )
            assert info["alpha"] == pytest.approx(alpha_ref, rel=1e-12)
            for got, ref in ((E, E_ref), (x, x_ref), (acc.s_E, s_E_ref), (acc.s_x, s_x_ref)):
                np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-11)

    def test_accumulators_keep_their_storage(self, ragged):
        inst, E, x, fallback_y = ragged
        shape, rows = (inst.m, inst.k, inst.k), (inst.L, inst.N)
        given_c, given_last = np.zeros(shape), element_last(np.zeros(shape))
        acc = DualAccumulators(s_E=given_c, s_x=np.zeros(rows), E_avg=given_last)
        # C-order blocks are copied once into element-last storage, element-last ones kept
        assert is_element_last(acc.s_E) and not np.shares_memory(acc.s_E, given_c)
        assert np.shares_memory(acc.E_avg, given_last)
        created = acc.flat
        sched = StepSchedule("weighted", 0.4, 2.0)
        for _ in range(4):
            E, x, _ = da_step(inst, acc, sched, E, x, fallback_y=fallback_y)
        for array, storage in zip((acc.s_E, acc.s_x, acc.E_avg, acc.x_avg), created):
            assert np.shares_memory(array, storage) and np.any(array != 0.0)


class TestCertifiedRowCheck:
    R = 0.1

    def blocks(self, rng):
        """Adversarial blocks around the floor, with the eigvalsh verdict on each."""
        r = self.R
        out = []

        def rotated(spectrum):
            Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            return (Q * np.asarray(spectrum, dtype=float)) @ Q.T

        for low in (r, r - 2e-9, r - 1e-9, r + 1e-12, r + 1e-6):
            out.append(rotated([low, 1.0, 1.7]))
            out.append(rotated([low, 1.3, 1.3]))  # the trace bound is exact here
            for eps in (0.0, 1e-14, 1e-10, 1e-8):  # near-isotropic
                g = rng.normal(size=(3, 3))
                out.append(low * np.eye(3) + eps * (g + g.T))
        for scale in (1e6,):
            out.append(rotated([r, scale, scale]))
            out.append(rotated([r - 2e-9, scale, 2.0 * scale]))
            out.append(scale * rotated([1.0, 1.0, 1.5]))
            out.append(scale * rotated([-1.0, 1.0, 1.5]))
        out.append(np.full((3, 3), np.nan))
        nan_entry = rotated([1.0, 1.0, 1.0])
        nan_entry[0, 2] = nan_entry[2, 0] = np.nan
        out.append(nan_entry)
        out.append(rotated([0.5, 1.0, 1.0]))  # comfortably feasible
        return np.array(out)

    def expected(self, E):
        finite = np.isfinite(E).all(axis=(1, 2))
        verdict = np.zeros(E.shape[0], dtype=bool)
        verdict[finite] = np.linalg.eigvalsh(E[finite])[:, 0] >= self.R - 1e-9
        return verdict

    def test_agrees_with_eigvalsh(self, rng, monkeypatch):
        E = self.blocks(rng)
        inst = make_synthetic_instance(rng, m=E.shape[0], r=self.R, rho_l=0.3, rho_u=1e7)
        sent = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a):
            sent.append(a.shape[0])
            return eigvalsh(a)

        want = self.expected(E)
        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        for blocks in (c_order(E), element_last(E)):
            ok, floor_ok = saddle._quick_feasible(inst, blocks)
            np.testing.assert_array_equal(floor_ok, want)
            assert not ok
        assert not want[-3] and not want[-2] and want[-1]
        assert 0 < sent[0] < E.shape[0] - 1  # some blocks certified, the floor ones not

    def test_row_flag(self, rng):
        inst = make_synthetic_instance(rng, m=4, r=self.R, rho_l=0.4, rho_u=2.5)
        E = random_feasible_blocks(rng, 4, 3, 0.4, 2.5, self.R)
        assert saddle._quick_feasible(inst, element_last(E))[0]
        E[2, 1, 1] = np.nan
        assert not saddle._quick_feasible(inst, element_last(E))[0]


class TestStorageLayout:
    SPEC = fem2d.MeshSpec(nx=32, ny=16, lx=32.0, ly=16.0)

    def assert_element_last(self, inst):
        assert inst.B.shape == (inst.nig, inst.k, inst.n_loc, inst.m)
        assert inst.cols.shape == (inst.n_loc, inst.m)
        assert inst.B.flags.c_contiguous and inst.cols.flags.c_contiguous
        assert inst.B_packed.shape == (inst.m, inst.nig, inst.k, inst.n_loc)
        assert inst.cols_packed.shape == (inst.m, inst.n_loc)
        assert np.shares_memory(inst.B_packed, inst.B)
        assert np.shares_memory(inst.cols_packed, inst.cols)

    def test_producers(self, rng, tmp_path):
        built = fem2d.build_instance(self.SPEC, 0.3, 3.0, 0.05, 1.0, 10.0)
        fem2d.write_instance(built, tmp_path / "i.fmo")
        read = fem2d.read_instance(tmp_path / "i.fmo")
        synthetic = make_synthetic_instance(rng, n_loc=[2, 4, 3])
        for inst in (built, read, synthetic):
            self.assert_element_last(inst)
        np.testing.assert_array_equal(read.B, built.B)
        args = (built.loads, 0.3, 3.0, 0.05, 1.0, 10.0)
        copied = ProblemInstance(c_order(built.cols_packed), c_order(built.B_packed), *args)
        shared = ProblemInstance(built.cols_packed, built.B_packed, *args)
        for inst in (copied, shared):
            self.assert_element_last(inst)
            np.testing.assert_array_equal(inst.B, built.B)
        assert not np.shares_memory(copied.B, built.B)
        assert np.shares_memory(shared.B, built.B) and np.shares_memory(shared.cols, built.cols)

    def test_build_makes_one_copy_of_B(self):
        fem2d.build_instance(self.SPEC, 0.3, 3.0, 0.05, 1.0, 10.0)  # warm imports and caches
        tracemalloc.start()
        try:
            inst = fem2d.build_instance(self.SPEC, 0.3, 3.0, 0.05, 1.0, 10.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * inst.B.nbytes  # B, plus a transposed copy would pass 2x

    def test_loop_state_after_run(self, small_mesh_instance):
        records = []
        cfg = saddle.SolverConfig(iterations=6, log_stride=3, tau=0.5, sigma0=1.0)
        res = saddle.run_solver(small_mesh_instance, cfg, records.append)
        assert is_element_last(res.acc.s_E) and is_element_last(res.acc.E_avg)
        assert res.acc.s_E.shape == (small_mesh_instance.m, 3, 3)
        for rec in records:
            assert rec.E_ref.shape == (small_mesh_instance.m, 3, 3)
            assert is_element_last(rec.E_ref)
