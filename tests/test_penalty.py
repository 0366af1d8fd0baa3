"""Penalized Lagrangian: values, gradients, convexity, cost growth."""

import math
import time
import tracemalloc

import numpy as np
import pytest

from conftest import make_synthetic_instance, random_feasible_blocks
from fmopt import fem2d, penalty, saddle
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
    def test_solver_mode_runs_and_reports_compliance(self):
        inst = tight_instance(nu=3.0)
        rows = []
        cfg = saddle.SolverConfig(mode="penalty", iterations=30, log_stride=10)
        res = saddle.run_solver(inst, cfg, sink=rows.append)
        assert all(r.compliances is not None for r in rows)
        assert all(r.violation_literal is not None for r in rows)
        assert res.counter.counts.get("dense_solve", 0) > 0

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
        penalty.compliances(inst, E)  # the first call also imports scipy.sparse
        tracemalloc.start()
        try:
            penalty.compliances(inst, E)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < inst.N**2 * 8 / 4


class TestViolationSums:
    def test_sign_conventions(self):
        inst = tight_instance(gamma_scale=0.5)
        comp = np.array([inst.gamma * 0.5, inst.gamma * 2.0])
        lit, pos = penalty.violation_sums(inst, comp)
        assert lit == pytest.approx(-0.5 * inst.gamma)
        assert pos == pytest.approx(1.0 * inst.gamma)
