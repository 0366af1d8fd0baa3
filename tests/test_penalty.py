"""Penalized Lagrangian: values, gradients, convexity, cost growth."""

import math
import time
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from conftest import make_synthetic_instance, random_feasible_blocks
from fmopt import cli, fem2d, penalty, saddle
from fmopt.fem2d import LoadSpec, MeshSpec, build_instance
from fmopt.model import DualState, InvalidInstance, MaterialState
from fmopt.oracle import compliances_reference, fd_check


def tight_instance(nx=2, ny=2, gamma_scale=0.25, nu=5.0, eta=8.0):
    """Instance whose compliance cap is deliberately below the stiffest design."""
    spec = MeshSpec(nx=nx, ny=ny, lx=float(nx), ly=float(ny),
                    loads=(LoadSpec("right_edge", (0.0, -1.0)),))
    probe = build_instance(spec, 0.3, 3.0, 0.05, 1.0, eta, 0.0)
    comp = fem2d.reference_compliance(probe, probe.start_material())
    gamma = gamma_scale * float(np.max(comp))
    return build_instance(spec, 0.3, 3.0, 0.05, gamma, eta, nu)


def penalty_grad_E(inst, E, x):
    """Material-side gradient of p(E, x): plain subgradient plus the penalty blocks."""
    g_E = saddle.subgradients(inst, E.dense(), x)[0]
    return g_E + penalty.penalty_grad_correction(inst, penalty.compliance_solves(inst, E.dense()))


class TestPenaltyValue:
    def test_equals_plain_when_feasible(self, rng, small_mesh_instance):
        inst = small_mesh_instance  # gamma = 5.0, loose at the stiff start
        E = inst.start_material()
        x = DualState.from_array(rng.normal(0, 1, (inst.L, inst.N)))
        comp = fem2d.reference_compliance(inst, E)
        assert np.all(comp <= inst.gamma)
        p = penalty.penalty_value(inst, E, x)
        f = saddle.lagrangian_value(inst, E.dense(), x.vectors)
        assert p == pytest.approx(f, rel=1e-12)

    def test_nu_zero_disables_penalty(self, rng):
        inst = tight_instance(nu=0.0)
        E = inst.start_material()
        x = DualState.from_array(rng.normal(0, 1, (inst.L, inst.N)))
        p = penalty.penalty_value(inst, E, x)
        f = saddle.lagrangian_value(inst, E.dense(), x.vectors)
        assert p == pytest.approx(f, rel=1e-12)

    def test_hand_computed_single_element(self, rng):
        inst = tight_instance(nx=1, ny=1, gamma_scale=0.25, nu=2.0)
        E = inst.start_material()
        x = DualState.from_array(np.zeros((1, inst.N)))
        comp = compliances_reference(inst, E.dense())
        expected = E.objective() + 2.0 * float(
            np.sum(np.maximum(np.sqrt(comp) - math.sqrt(inst.gamma), 0.0) ** 2)
        )
        assert penalty.penalty_value(inst, E, x) == pytest.approx(expected, rel=1e-10)


class TestPenaltyGradient:
    def test_reduces_to_plain_subgradient_when_no_violation(self, rng, small_mesh_instance):
        inst = small_mesh_instance
        E = inst.start_material()
        x = rng.normal(0, 1, (inst.L, inst.N))
        gp = penalty_grad_E(inst, E, x)
        g = saddle.subgradients(inst, E.dense(), x)[0]
        np.testing.assert_allclose(gp, g, atol=1e-14)

    def test_blocks_symmetric(self, rng):
        inst = tight_instance()
        E = inst.start_material()
        x = rng.normal(0, 1, (inst.L, inst.N))
        gp = penalty_grad_E(inst, E, x)
        np.testing.assert_allclose(gp, np.swapaxes(gp, 1, 2), atol=1e-12)

    def test_finite_difference_at_strict_violations(self, rng):
        inst = tight_instance(gamma_scale=0.2, nu=3.0)
        blocks = random_feasible_blocks(rng, inst.m, 3, 0.5, 2.8, 0.1)
        E = MaterialState.from_dense(blocks)
        comp = fem2d.reference_compliance(inst, E)
        assert np.all(comp > inst.gamma)  # strictly violated: smooth point
        x = rng.normal(0, 1, (inst.L, inst.N))
        gp = penalty_grad_E(inst, E, x)
        for _ in range(5):
            D = rng.normal(0, 1, blocks.shape)
            D = D + np.swapaxes(D, 1, 2)

            def f(vec):
                st = MaterialState.from_dense(vec.reshape(blocks.shape))
                return penalty.penalty_value(inst, st, DualState.from_array(x))

            analytic = float(np.sum(gp * D))
            assert fd_check(f, blocks.ravel(), D.ravel(), analytic) <= 1e-5

    def test_x_gradient_of_penalty_is_plain_subgradient(self, rng):
        # the penalty term does not depend on x, so d/dx p == g_x
        inst = tight_instance(nu=3.0)
        E = inst.start_material()
        x = rng.normal(0, 1, (inst.L, inst.N))
        g_x = saddle.subgradients(inst, E.dense(), x)[1]
        for _ in range(3):
            D = rng.normal(0, 1, x.shape)

            def f(vec):
                return penalty.penalty_value(
                    inst, E, DualState.from_array(vec.reshape(x.shape))
                )

            analytic = float(np.sum(g_x * D))
            assert fd_check(f, x.ravel(), D.ravel(), analytic) <= 1e-6


class TestPenaltyTermConvexity:
    def test_midpoint_below_average_on_segments(self, rng):
        inst = tight_instance(gamma_scale=0.3, nu=1.0)

        def term(blocks):
            comp = compliances_reference(inst, blocks)
            sq = np.maximum(np.sqrt(comp) - math.sqrt(inst.gamma), 0.0)
            return float(inst.nu * np.sum(sq**2))

        for _ in range(30):
            A = random_feasible_blocks(rng, inst.m, 3, 0.3, 3.0, 0.05)
            B = random_feasible_blocks(rng, inst.m, 3, 0.3, 3.0, 0.05)
            mid = term(0.5 * (A + B))
            assert mid <= 0.5 * (term(A) + term(B)) + 1e-9


class TestPenaltyMode:
    def test_solver_mode_runs_and_reports_compliance(self, tmp_path):
        inst = tight_instance(nu=3.0)
        rows = []
        cfg = saddle.SolverConfig(mode="penalty", iterations=30, log_stride=10)
        res = saddle.run_solver(inst, cfg, sink=rows.append)
        assert res.counter.counts.get("dense_solve", 0) > 0
        # the CLI's violation columns are those of each row's own iterate
        cli.run(cfg, inst, str(tmp_path / "p"))
        lines = (tmp_path / "p.csv").read_text().splitlines()[1:]
        assert [int(line.split(",")[0]) for line in lines] == [r.t for r in rows]
        for rec, line in zip(rows, lines):
            cells = [float(cell) for cell in line.split(",")]
            expected = penalty.violation_sums(inst, compliances_reference(inst, rec.E_ref))
            assert cells[4:6] == pytest.approx(expected, rel=1e-9)
        assert cells[5] > 0.0  # the tight cap is still violated at the last row

    def test_dense_threshold_refusal(self):
        inst = tight_instance()
        with pytest.raises(InvalidInstance, match="dense-only"):
            penalty.compliance_solves(inst, inst.start_material().dense(), dense_threshold=4)

    def test_runtime_ratio_grows_with_N(self):
        # penalty iteration pays the cubic factorization; the ratio to a
        # plain iteration must increase along a size ladder
        ratios = []
        for nx, ny in ((4, 4), (8, 8), (16, 16)):
            inst = tight_instance(nx=nx, ny=ny, nu=1.0)
            E = inst.start_material().dense()
            x = inst.start_dual().vectors
            t0 = time.perf_counter()
            for _ in range(3):
                saddle.subgradients(inst, E, x)
            plain = (time.perf_counter() - t0) / 3
            t0 = time.perf_counter()
            for _ in range(3):
                penalty.compliance_solves(inst, E)
            pen = (time.perf_counter() - t0) / 3
            ratios.append(pen / plain)
        assert ratios[-1] > ratios[0]


def peak_bytes(fn, *args):
    """tracemalloc high-water mark of one call, after a warm-up call."""
    fn(*args)  # the first call imports scipy's LAPACK and sparse modules
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestElementStiffness:
    def test_matches_einsum_form(self, rng, small_mesh_instance):
        ragged = make_synthetic_instance(rng, m=5, N=9, n_loc=[2, 4, 6, 8, 9])
        for inst in (small_mesh_instance, ragged):
            E = random_feasible_blocks(rng, inst.m, 3, 0.4, 2.5, 0.1)
            EB = np.einsum("qkc,qlcb->qlkb", E, inst.B_packed)
            ref = np.einsum("qlka,qlkb->qab", inst.B_packed, EB)
            np.testing.assert_allclose(penalty.element_stiffness(inst, E), ref, rtol=0, atol=1e-13)

    def test_banded_compliance_forms_no_dense_matrix(self):
        inst = tight_instance(nx=32, ny=16)
        E = inst.start_material().dense()
        assert peak_bytes(penalty.compliances, inst, E) < inst.N**2 * 8 / 4


class TestInPlaceFactorization:
    """A(E) is scattered into the Fortran-ordered storage LAPACK factors and
    factored there: no transposing copy, the same numbers as a factorization
    of a C-ordered copy."""

    @staticmethod
    def copied_dense(inst, E):
        # row-major scatter, cho_factor on a copy (LAPACK then transposes it)
        cols, N = inst.cols_packed, inst.N
        idx = (cols[:, :, None] * N + cols[:, None, :]).ravel()
        ke = penalty.element_stiffness(inst, E)
        A = np.bincount(idx, weights=ke.ravel(), minlength=N**2).reshape(N, N)
        chol = scipy.linalg.cho_factor(A.copy(), lower=True, check_finite=False)
        sol = scipy.linalg.cho_solve(chol, inst.loads.T, check_finite=False)
        return A, np.einsum("nj,jn->j", sol, inst.loads), sol

    @staticmethod
    def copied_band(inst, E):
        # row-major (bw + 1, N) band, cholesky_banded with its copy
        perm, lower, band_idx, bw = inst.band_layout
        col, diag = np.divmod(band_idx, bw + 1)
        ke = penalty.element_stiffness(inst, E)
        band = np.bincount(diag * inst.N + col, weights=ke[lower], minlength=(bw + 1) * inst.N)
        band = band.reshape(bw + 1, inst.N)
        factor = scipy.linalg.cholesky_banded(band, lower=True, check_finite=False)
        loads = inst.loads[:, perm]
        sol = scipy.linalg.cho_solve_banded((factor, True), loads.T, check_finite=False)
        return band, np.einsum("nj,jn->j", sol, loads)

    def test_bit_identical_to_factoring_a_copy(self, rng, small_mesh_instance):
        for inst in (small_mesh_instance, tight_instance(nx=6, ny=3)):
            materials = [inst.start_material().dense()] + [
                random_feasible_blocks(rng, inst.m, 3, 0.4, 2.8, 0.05) for _ in range(3)
            ]
            for E in materials:
                A, comp, sol = self.copied_dense(inst, E)
                dense = penalty.assemble_dense(inst, E)
                assert dense.flags.f_contiguous and np.array_equal(dense, A)
                state = penalty.compliance_solves(inst, E)
                assert np.array_equal(state.compliances, comp)
                assert np.array_equal(state.solutions, sol)
                band, comp = self.copied_band(inst, E)
                perm, got = penalty.assemble_band(inst, E)
                assert got.flags.f_contiguous and np.array_equal(got, band)
                permuted = A[np.ix_(perm, perm)]
                for d in range(band.shape[0]):
                    assert np.array_equal(band[d, :inst.N - d], np.diagonal(permuted, -d))
                assert np.array_equal(penalty.compliances(inst, E), comp)

    def test_dense_step_makes_no_copy_of_A(self):
        # penalty-tight size: the scatter's N x N array is the only one
        inst = tight_instance(nx=20, ny=19)
        assert inst.N == 800
        E = inst.start_material().dense()
        assert peak_bytes(penalty.compliance_solves, inst, E) < 1.5 * inst.N**2 * 8

    def test_band_factorization_makes_no_copy_of_the_band(self):
        # plain-large size: band plus element stiffnesses, not two bands
        inst = tight_instance(nx=128, ny=64)
        bw = inst.band_layout[3]  # built before the measurement, as a run builds it once
        E = inst.start_material().dense()
        band = (bw + 1) * inst.N * 8
        ke = inst.cols_packed.size * inst.cols_packed.shape[1] * 8
        assert ke + band / 10 < band  # a second band could not hide in the slack
        assert peak_bytes(penalty.compliances, inst, E) < band + ke + band / 10


class TestViolationSums:
    def test_sign_conventions(self):
        inst = tight_instance(gamma_scale=0.5)
        comp = np.array([inst.gamma * 0.5, inst.gamma * 2.0])
        lit, pos = penalty.violation_sums(inst, comp)
        assert lit == pytest.approx(-0.5 * inst.gamma)
        assert pos == pytest.approx(1.0 * inst.gamma)
