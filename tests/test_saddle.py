"""Subgradient oracle, the DA step, averaging, and the sigma controller."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_synthetic_instance, random_feasible_blocks
from fmopt import diagnostics, fem2d, saddle
from fmopt.model import (
    InvalidInstance,
    MaterialState,
    NumericalFailure,
    ProblemInstance,
    lagrangian_value,
)
from fmopt.oracle import da_step_reference, dense_stiffness_reference, fd_check
from fmopt.saddle import (
    DualAccumulators,
    SigmaController,
    SolverConfig,
    StepSchedule,
    averaged_primal,
    beta_hat_sequence,
    da_step,
    grad_norm_star,
    run_solver,
    subgradients,
)


def identity_instance(k=2, gamma=1.0, f=None):
    loads = np.zeros((1, k)) if f is None else np.asarray(f, float)[None, :]
    return ProblemInstance(np.arange(k)[None], np.eye(k)[None, None], loads, k * 0.1, 5.0, 0.1,
                           gamma, 1.0)


class TestSubgradients:
    def test_zero_x_gives_identity_blocks(self, rng):
        inst = make_synthetic_instance(rng, m=4)
        E = MaterialState.from_dense(random_feasible_blocks(rng, 4, 3, 0.4, 2.5, 0.1))
        g, _, _, _, _ = subgradients(inst, E.dense(), np.zeros((inst.L, inst.N)))
        np.testing.assert_allclose(g, np.tile(np.eye(3), (4, 1, 1)), atol=1e-14)

    def test_identity_setup_hand_values(self):
        inst = identity_instance(k=2, gamma=1.0, f=[1.0, 0.0])
        gE, gx, _, _, _ = subgradients(inst, np.eye(2)[None, :, :], np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(gE[0], np.diag([0.0, 1.0]), atol=1e-14)
        np.testing.assert_allclose(gx, np.zeros((1, 2)), atol=1e-14)

    def test_out_of_R_uses_plain_selection(self, rng):
        inst = make_synthetic_instance(rng, m=3, L=2)
        E = MaterialState.from_dense(random_feasible_blocks(rng, 3, 3, 0.4, 2.5, 0.1))
        x = np.zeros((2, inst.N))
        _, g_x, _, in_R, used_plain = subgradients(inst, E.dense(), x)
        assert not in_R.any() and used_plain
        np.testing.assert_allclose(g_x, 2.0 * inst.loads, atol=1e-14)

    def test_out_of_R_uses_stored_unit_representative(self, rng):
        inst = make_synthetic_instance(rng, m=3, L=1)
        Ed = random_feasible_blocks(rng, 3, 3, 0.4, 2.5, 0.1)
        y = rng.normal(0, 1, (1, inst.N))
        from fmopt.model import apply_A, apply_B, element_quads

        Estate = MaterialState.from_dense(Ed)
        q = float(element_quads(Ed, apply_B(inst, y))[1][0])
        y_unit = y / math.sqrt(q)
        _, g_x, _, _, used_plain = subgradients(
            inst, Ed, np.zeros((1, inst.N)), fallback_y=y_unit
        )
        assert not used_plain
        expected = 2.0 * inst.loads[0] - 2.0 * math.sqrt(inst.gamma) * apply_A(
            inst, Estate, y_unit[0]
        )
        np.testing.assert_allclose(g_x[0], expected, atol=1e-12)

    def test_three_loads_in_R_stored_and_plain(self, rng):
        # load 0 in R, load 1 outside R with a stored unit representative,
        # load 2 outside R without one
        inst = make_synthetic_instance(rng, m=4, L=3)
        Ed = random_feasible_blocks(rng, 4, 3, 0.4, 2.5, 0.1)
        A = dense_stiffness_reference(inst, Ed)
        x = np.zeros((3, inst.N))
        x[0] = rng.normal(0, 1, inst.N)
        y = np.zeros((3, inst.N))
        y[:2] = rng.normal(0, 1, (2, inst.N))
        y[1] /= math.sqrt(y[1] @ A @ y[1])
        _, g_x, quad, in_R, used_plain = subgradients(inst, Ed, x, fallback_y=y)
        assert in_R.tolist() == [True, False, False] and used_plain
        sqrt_gamma = math.sqrt(inst.gamma)
        q0 = float(x[0] @ A @ x[0])
        assert quad[0] == pytest.approx(q0, rel=1e-12)
        f = inst.loads
        expected = [
            2.0 * f[0] - 2.0 * sqrt_gamma / math.sqrt(q0) * (A @ x[0]),
            2.0 * f[1] - 2.0 * sqrt_gamma * (A @ y[1]),
            2.0 * f[2],
        ]
        for row, want in zip(g_x, expected):
            np.testing.assert_allclose(row, want, rtol=1e-12, atol=1e-12)

    def test_finite_difference_gE(self, rng, small_mesh_instance):
        inst = small_mesh_instance
        blocks = random_feasible_blocks(rng, inst.m, 3, 0.5, 2.8, 0.1)
        x = rng.normal(0, 1, (inst.L, inst.N))
        g_E, _, quad, in_R, _ = subgradients(inst, blocks, x)
        assert in_R.all()
        for _ in range(5):
            D = rng.normal(0, 1, blocks.shape)
            D = D + np.swapaxes(D, 1, 2)

            def f(vec):
                return lagrangian_value(inst, vec.reshape(blocks.shape), x)

            analytic = float(np.sum(g_E * D))
            err = fd_check(f, blocks.ravel(), D.ravel(), analytic)
            assert err <= 1e-5

    def test_finite_difference_gx(self, rng, small_mesh_instance):
        inst = small_mesh_instance
        blocks = random_feasible_blocks(rng, inst.m, 3, 0.5, 2.8, 0.1)
        x = rng.normal(0, 1, (inst.L, inst.N))
        _, g_x, _, _, _ = subgradients(inst, blocks, x)
        for _ in range(5):
            D = rng.normal(0, 1, x.shape)

            def f(vec):
                return lagrangian_value(inst, blocks, vec.reshape(x.shape))

            analytic = float(np.sum(g_x * D))
            err = fd_check(f, x.ravel(), D.ravel(), analytic)
            assert err <= 1e-5

    def test_convexity_inequality_in_E(self, rng, small_mesh_instance):
        inst = small_mesh_instance
        blocks = random_feasible_blocks(rng, inst.m, 3, 0.5, 2.8, 0.1)
        x = rng.normal(0, 1, (inst.L, inst.N))
        g_E, g_x, _, _, _ = subgradients(inst, blocks, x)
        base = lagrangian_value(inst, blocks, x)
        for _ in range(100):
            other = random_feasible_blocks(rng, inst.m, 3, 0.3, 3.0, 0.05)
            lhs = lagrangian_value(inst, other, x)
            rhs = base + float(np.sum(g_E * (other - blocks)))
            assert lhs - rhs >= -1e-8
        # mirrored concavity in x
        for _ in range(100):
            xo = rng.normal(0, 1, x.shape)
            xo *= min(1.0, inst.eta / max(np.linalg.norm(xo, axis=1).max(), 1e-12))
            lhs = lagrangian_value(inst, blocks, xo)
            rhs = base + float(np.sum(g_x * (xo - x)))
            assert rhs - lhs >= -1e-8


class TestBetaHat:
    def test_envelope_holds(self):
        seq = beta_hat_sequence(100000)
        t = np.arange(1, 100001)
        lower = np.sqrt(2 * t - 1)
        upper = 1.0 / (1.0 + math.sqrt(3.0)) + np.sqrt(2 * t - 1)
        assert np.all(seq[1:] >= lower - 1e-12)
        assert np.all(seq[1:] <= upper + 1e-9)

    def test_schedule_advance_matches_sequence(self):
        sched = StepSchedule("simple", 0.5, 2.0)
        seq = beta_hat_sequence(6)
        for t in range(6):
            beta = sched.advance()
            assert beta == pytest.approx(2.0 * seq[t + 1])


class TestDaStep:
    def test_zero_dual_sum_gives_zero_x(self, rng):
        inst = identity_instance(k=2, gamma=1.0, f=[0.0, 0.0])
        # with f = 0 and x0 = 0: g_x = 0, s_x stays 0, so x stays 0
        acc = DualAccumulators.zeros(inst)
        sched = StepSchedule("simple", 0.5, 1.0)
        E0 = inst.start_material().dense()
        E1, x1, _ = da_step(inst, acc, sched, E0, np.zeros((1, 2)))
        np.testing.assert_allclose(x1, 0.0, atol=1e-15)

    def test_large_dual_sum_lands_on_ball_boundary(self, rng):
        inst = make_synthetic_instance(rng, m=2, L=1, eta=0.5)
        acc = DualAccumulators.zeros(inst)
        acc.s_x = rng.normal(0, 100, (1, inst.N))
        x = saddle._solve_x(acc.s_x, 1.0, 0.5, inst.eta)
        assert np.linalg.norm(x[0]) == pytest.approx(inst.eta)
        assert float(x[0] @ acc.s_x[0]) < 0

    def test_x_update_beats_sampled_feasible_points(self, rng):
        # closed form minimizes <s, x> + beta(1-tau)/2 ||x||^2 over the ball
        for _ in range(20):
            N, eta = 7, 1.5
            s = rng.normal(0, rng.choice([0.1, 1.0, 10.0]), (1, N))
            beta, tau = float(abs(rng.normal(2, 1)) + 0.1), float(rng.uniform(0.2, 0.8))
            x_star = saddle._solve_x(s, beta, tau, eta)

            def obj(x):
                return float(np.sum(s * x)) + 0.5 * beta * (1 - tau) * float(np.sum(x * x))

            best = obj(x_star)
            for _ in range(100):
                cand = rng.normal(0, 1, (1, N))
                cand *= rng.uniform(0, 1) * eta / np.linalg.norm(cand)
                assert obj(cand) >= best - 1e-10

    @pytest.mark.parametrize("scheme", ["simple", "weighted"])
    def test_matches_straight_line_reference(self, scheme, small_mesh_instance):
        inst = small_mesh_instance
        E = inst.start_material().dense()
        x = inst.start_dual().vectors
        acc = DualAccumulators.zeros(inst)
        sched = StepSchedule(scheme, 0.4, 2.0)
        Er, xr = E.copy(), x.copy()
        sE = np.zeros_like(acc.s_E)
        sx = np.zeros_like(acc.s_x)
        bh = beta_hat_sequence(9)
        for t in range(8):
            E, x, info = da_step(inst, acc, sched, E, x)
            Er, xr, sE, sx, alpha_ref = da_step_reference(
                inst, Er, xr, sE, sx, scheme, 0.4, 2.0, bh[t + 1]
            )
            assert info["alpha"] == pytest.approx(alpha_ref, rel=1e-12)
            np.testing.assert_allclose(E, Er, atol=1e-11)
            np.testing.assert_allclose(x, xr, atol=1e-11)
        np.testing.assert_allclose(acc.s_E, sE, atol=1e-11)
        np.testing.assert_allclose(acc.s_x, sx, atol=1e-11)

    def test_weighted_alpha_normalizes_gradient(self, small_mesh_instance):
        inst = small_mesh_instance
        E = inst.start_material().dense()
        x = inst.start_dual().vectors
        acc = DualAccumulators.zeros(inst)
        sched = StepSchedule("weighted", 0.4, 1.0)
        g = subgradients(inst, E, x)
        _, _, info = da_step(inst, acc, sched, E, x, grads=g)
        assert info["alpha"] * grad_norm_star(g[0], g[1], 0.4) == pytest.approx(1.0)

    def test_iterates_stay_feasible(self, small_mesh_instance):
        inst = small_mesh_instance
        E = inst.start_material().dense()
        x = inst.start_dual().vectors
        acc = DualAccumulators.zeros(inst)
        sched = StepSchedule("simple", 0.5, 1.0)
        from fmopt.model import feasible_E

        for _ in range(50):
            E, x, _ = da_step(inst, acc, sched, E, x)
            ok, report = feasible_E(inst, MaterialState.from_dense(E))
            assert ok, report
            assert np.all(np.linalg.norm(x, axis=1) <= inst.eta + 1e-12)


class TestAveragedPrimal:
    def test_before_first_step_raises(self, rng):
        inst = make_synthetic_instance(rng)
        with pytest.raises(InvalidInstance):
            averaged_primal(DualAccumulators.zeros(inst))

    def test_constant_iterates(self, rng):
        inst = make_synthetic_instance(rng, m=2)
        acc = DualAccumulators.zeros(inst)
        E0 = random_feasible_blocks(rng, 2, 3, 0.4, 2.5, 0.1)
        for _ in range(3):
            acc.E_avg += 1.0 * E0
            acc.sum_alpha += 1.0
        np.testing.assert_allclose(averaged_primal(acc).dense(), E0, atol=1e-14)

    def test_two_iterate_mean(self, rng):
        inst = make_synthetic_instance(rng, m=2)
        acc = DualAccumulators.zeros(inst)
        A = random_feasible_blocks(rng, 2, 3, 0.4, 2.5, 0.1)
        B = random_feasible_blocks(rng, 2, 3, 0.4, 2.5, 0.1)
        acc.E_avg += A
        acc.E_avg += B
        acc.sum_alpha = 2.0
        np.testing.assert_allclose(averaged_primal(acc).dense(), 0.5 * (A + B), atol=1e-14)

    def test_weighted_run_average_in_feasible_set(self, small_mesh_instance):
        inst = small_mesh_instance
        cfg = SolverConfig(scheme="weighted", iterations=60, tau=0.5, sigma0=1.0,
                           log_stride=60)
        res = run_solver(inst, cfg)
        from fmopt.model import feasible_E

        ok, report = feasible_E(inst, res.E_avg)
        assert ok, report


class TestSigmaController:
    def test_three_improvements_then_degradation(self):
        ctl = SigmaController(sigma0=1.0, window=10)
        # baseline window, then three improving windows, then a worse one
        rates = [0.1, 0.2, 0.3, 0.25]
        samples = [np.linspace(1.0, 1.0 - r, 10) for r in rates]
        for s in samples:
            ctl.observe_window(s)
        assert ctl.frozen
        assert ctl.sigma == pytest.approx(4.0)
        assert ctl.windows_used == 4

    def test_first_comparison_degrades(self):
        ctl = SigmaController(sigma0=1.0, window=10)
        ctl.observe_window(np.linspace(1.0, 0.8, 10))
        ctl.observe_window(np.linspace(1.0, 0.9, 10))
        assert ctl.frozen
        assert ctl.sigma == pytest.approx(1.0)

    def test_frozen_controller_ignores_windows(self):
        ctl = SigmaController(sigma0=1.0, window=10)
        ctl.observe_window(np.linspace(1.0, 0.8, 10))
        ctl.observe_window(np.linspace(1.0, 0.9, 10))
        before = ctl.sigma
        ctl.observe_window(np.linspace(1.0, 0.0, 10))
        assert ctl.sigma == before

    def test_synthetic_rate_peak_recovers_optimum(self):
        # simulated rate curve peaking at sigma* = 8: doubling run should
        # freeze within a factor two of the optimum
        sigma_star = 8.0

        def rate_for(sigma):
            return 1.0 / (sigma / sigma_star + sigma_star / sigma)

        ctl = SigmaController(sigma0=1.0, window=10)
        while not ctl.frozen:
            r = rate_for(ctl.sigma)
            ctl.observe_window(np.linspace(1.0, 1.0 - r, 10))
        assert sigma_star / 2 <= ctl.sigma <= 2 * sigma_star

    def test_only_first_and_last_sample_read(self, rng):
        ends = [(1.0, 1.0 - rate) for rate in (0.1, 0.2, 0.3, 0.25)]
        plain, noisy = SigmaController(sigma0=1.0, window=10), SigmaController(sigma0=1.0, window=10)
        for first, last in ends:
            plain.observe_window((first, last))
            noisy.observe_window(np.concatenate([[first], rng.uniform(-5.0, 5.0, 8), [last]]))
            assert (noisy.sigma, noisy.phase, noisy.v) == (plain.sigma, plain.phase, plain.v)
        assert plain.frozen and plain.windows_used == noisy.windows_used == 4

    def test_pending_window_samples_its_first_and_last_step(self):
        gaps = 1.0 / np.sqrt(np.arange(1.0, 41.0))  # each window's rate below the last
        ctl, ref = SigmaController(sigma0=1.0, window=10), SigmaController(sigma0=1.0, window=10)
        sampled = []
        for step, gap in enumerate(gaps, start=1):
            if ctl.count_step():
                sampled.append(step)
                ctl.observe_gap(gap)
        ref.observe_window(gaps[:10])
        ref.observe_window(gaps[10:20])
        assert sampled == [1, 10, 11, 20]
        assert ctl.frozen and ctl.window_steps == 0
        assert dataclasses.replace(ref, window_first=ctl.window_first) == ctl

    def test_budget_checked_when_it_freezes(self):
        within = SigmaController(sigma0=1.0, window=10, budget=20)
        over = SigmaController(sigma0=1.0, window=10, budget=10)
        for ctl in (within, over):
            ctl.observe_window((1.0, 0.8))  # the baseline: over a budget of 10, still growing
        within.observe_window((1.0, 0.9))
        assert within.frozen and within.test_steps == 20
        with pytest.raises(NumericalFailure, match="used 20 test steps, over the budget 10"):
            over.observe_window((1.0, 0.9))

    def test_window_minimum_enforced(self):
        with pytest.raises(InvalidInstance):
            SigmaController(sigma0=1.0, window=5)

    def test_budget_formula(self):
        assert saddle.autotune_step_budget(100.0, 4.0, 1.0, 10) == math.ceil(
            2.5 + math.log2(100.0 / 2.0)
        ) * 10


class TestRunSolver:
    def test_deterministic_runs_identical(self, small_mesh_instance):
        inst = small_mesh_instance
        cfg = SolverConfig(iterations=40, log_stride=5, deterministic=True)
        rows1, rows2 = [], []
        r1 = run_solver(inst, cfg, sink=rows1.append)
        r2 = run_solver(inst, cfg, sink=rows2.append)
        assert np.array_equal(r1.E_last.dense(), r2.E_last.dense())
        assert np.array_equal(r1.x_last.vectors, r2.x_last.vectors)
        for a, b in zip(rows1, rows2):
            assert a.objective == b.objective
            assert a.gap == b.gap
            assert a.wall_ns == b.wall_ns == 0

    def test_sink_cadence_and_final_row(self, small_mesh_instance):
        rows = []
        cfg = SolverConfig(iterations=25, log_stride=10)
        run_solver(small_mesh_instance, cfg, sink=rows.append)
        assert [r.t for r in rows] == [10, 20, 25]

    def test_gap_estimate_only_at_rows_and_window_ends(self, small_mesh_instance, monkeypatch):
        steps = []
        gap_estimate = diagnostics.gap_estimate

        def spy(acc, instance):
            steps.append(round(acc.sum_alpha))  # the step: alpha is 1 in the simple scheme
            return gap_estimate(acc, instance)

        monkeypatch.setattr(diagnostics, "gap_estimate", spy)
        window, iters = 10, 75
        cfg = SolverConfig(iterations=iters, log_stride=7, sigma0=0.05, autotune_window=window)
        rows = []
        ctl = run_solver(small_mesh_instance, cfg, rows.append).controller
        # windows opened while unfrozen give their first and, once reached, last step
        opened = ctl.windows_used + (not ctl.frozen and ctl.windows_used * window < iters)
        ends = {w * window + 1 for w in range(opened)} | {
            (w + 1) * window for w in range(ctl.windows_used)
        }
        assert steps == sorted({row.t for row in rows} | ends)  # each step at most once
        assert ctl.windows_used >= 2 and len(steps) < iters

    def test_simple_row_grad_norm_from_that_steps_subgradients(
        self, small_mesh_instance, monkeypatch
    ):
        inst = small_mesh_instance
        grads, subgradients_ = [], saddle.subgradients

        def spy(*args):
            grads.append(subgradients_(*args))
            return grads[-1]

        monkeypatch.setattr(saddle, "subgradients", spy)
        rows = []
        run_solver(inst, SolverConfig(iterations=12, log_stride=5, tau=0.4), rows.append)
        assert [row.t for row in rows] == [5, 10, 12]
        for row in rows:
            g_E, g_x = grads[row.t - 1][:2]
            assert row.grad_norm == grad_norm_star(g_E, g_x, 0.4)
        acc = DualAccumulators.zeros(inst)
        E, x = inst.start_material().dense(), inst.start_dual().vectors
        _, _, info = da_step(inst, acc, StepSchedule("simple", 0.4, 1.0), E, x)
        assert info["grad_norm"] is None  # left to the rows that read it
        assert sorted(info) == ["alpha", "beta", "grad_norm"]

    def test_autotune_changes_sigma(self, small_mesh_instance):
        cfg = SolverConfig(iterations=120, log_stride=120, autotune_window=20,
                           sigma0=1e-3)
        res = run_solver(small_mesh_instance, cfg)
        assert res.controller is not None
        assert res.sigma_final != pytest.approx(1e-3)

    def test_autotune_budget_checked_when_the_controller_freezes(self):
        # this run doubles sigma four times before it backtracks: 5 windows of 10
        spec = fem2d.MeshSpec(nx=4, ny=2, lx=4.0, ly=2.0, loads=(
            fem2d.LoadSpec("right_edge", (0.3, -1.0)), fem2d.LoadSpec("bottom_right", (0.3, -1.0)),
        ))
        inst = fem2d.build_instance(spec, 0.3, 3.0, 0.05, 5.0, 100.0)
        sigma0, window = 2.0**-13, 10
        # constants whose optimal sigma is sigma0 exactly (L_combined = 2^-13,
        # D = 1/2 at tau = 1/2), so the budget is 3 windows
        constants = dataclasses.replace(
            diagnostics.compute_constants(inst, 0.5), L_E2=2.0**-28, L_x=2.0**-14, D_E=0.5, D_x=0.5
        )
        assert constants.L_combined / math.sqrt(2.0 * constants.D) == sigma0
        budget = saddle.autotune_step_budget(constants.L_combined, constants.D, sigma0, window)
        assert budget == 3 * window

        def config(iterations):
            return SolverConfig(scheme="weighted", iterations=iterations, log_stride=iterations,
                                sigma0=sigma0, autotune_window=window)

        with pytest.raises(
            NumericalFailure, match=f"used 50 test steps, over the budget {budget}"
        ):
            run_solver(inst, config(100), constants=constants)
        # four windows in, the controller is still growing: over budget, but unchecked
        ctl = run_solver(inst, config(45), constants=constants).controller
        assert ctl.phase == "growing" and ctl.test_steps == 40 > budget
        assert run_solver(inst, config(100)).controller.test_steps == 50  # no constants, no check

    def test_gap_samples_nonnegative(self, small_mesh_instance):
        rows = []
        cfg = SolverConfig(iterations=60, log_stride=10)
        run_solver(small_mesh_instance, cfg, sink=rows.append)
        assert all(r.gap >= -1e-8 for r in rows)

    def test_ball_flag_slack_is_relative_to_eta(self):
        # at eta = 1e6 the shrink leaves norms one ulp (~1e-10) off eta, both ways
        spec = fem2d.MeshSpec(nx=8, ny=4, lx=8.0, ly=4.0)
        probe = fem2d.build_instance(spec, 0.3, 3.0, 0.05, 1.0, 1e6)
        gamma = 2.0 * float(np.max(fem2d.reference_compliance(probe, probe.start_material())))
        inst = fem2d.build_instance(spec, 0.3, 3.0, 0.05, gamma, 1e6)
        rows = []
        res = run_solver(inst, SolverConfig(iterations=200, log_stride=10, sigma0=1e-6),
                         rows.append)
        assert len(rows) == 20 and all(r.x_in_ball for r in rows)
        x = res.x_last.vectors
        assert np.linalg.norm(x, axis=1) == pytest.approx(1e6, rel=1e-15)
        assert not saddle.in_eta_ball(x * (1.0 + 1e-9), 1e6)

    @pytest.mark.parametrize("nx, ny, mode, nu", [(8, 4, "plain", 0.0), (4, 2, "penalty", 3.0)])
    def test_ledger_is_flop_table_times_calls(self, nx, ny, mode, nu):
        spec = fem2d.MeshSpec(nx=nx, ny=ny, lx=float(nx), ly=float(ny))
        inst = fem2d.build_instance(spec, 0.3, 3.0, 0.05, 0.4, 8.0, nu)
        rows = []
        res = run_solver(inst, SolverConfig(mode=mode, iterations=30, log_stride=7), rows.append)
        table = diagnostics.flop_model(inst)
        assert list(table) == [
            "grads", "dense_assembly", "dense_solve", "x_update", "E_update", "averaging"
        ]
        charged = [key for key in table if mode == "penalty" or not key.startswith("dense")]

        def ledger(t):
            # t charges of each key, one per step; a penalty step pays its own
            # dense assembly and solve, and a row pays none
            return {key: sum([float(table[key])] * t) for key in charged}

        snapshot = res.counter.snapshot()
        assert snapshot == ledger(30) and list(snapshot) == charged
        if mode == "penalty":
            assert snapshot["dense_solve"] == sum([table["dense_solve"]] * 30)
        assert [row.t for row in rows] == [7, 14, 21, 28, 30]
        assert [row.flops for row in rows] == [sum(ledger(row.t).values()) for row in rows]

    @pytest.mark.parametrize("mode, nu", [("plain", 0.0), ("penalty", 3.0)])
    def test_step_makes_no_moveaxis_or_broadcast_to_call(self, monkeypatch, mode, nu):
        # the kernels change layout by transpose and take the instance's (m,)
        # trace bounds as they are, so these calls, if any, belong to the
        # setup and the final row: the count does not grow with the steps
        spec = fem2d.MeshSpec(nx=4, ny=2, lx=4.0, ly=2.0)
        inst = fem2d.build_instance(spec, 0.3, 3.0, 0.05, 0.4, 8.0, nu)
        calls = []
        for name in ("moveaxis", "broadcast_to"):
            def counted(*args, _name=name, _original=getattr(np, name), **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np, name, counted)
        counts = []
        for iterations in (20, 40):
            calls.clear()
            run_solver(inst, SolverConfig(mode=mode, iterations=iterations, log_stride=iterations))
            counts.append(sorted(calls))
        assert counts[0] == counts[1]

    def test_penalty_mode_above_dense_threshold_refused_before_any_row(
        self, small_mesh_instance
    ):
        rows = []
        inst = small_mesh_instance.with_params(nu=1.0)
        cfg = SolverConfig(mode="penalty", iterations=5, log_stride=1,
                           dense_threshold=inst.N - 1)
        with pytest.raises(InvalidInstance, match="dense-only"):
            run_solver(inst, cfg, sink=rows.append)
        assert rows == []

    def test_nonfinite_gap_raises_naming_step(self, small_mesh_instance, monkeypatch):
        nan = float("nan")
        monkeypatch.setattr(diagnostics, "gap_estimate", lambda acc, inst: (nan, nan, nan))
        cfg = SolverConfig(iterations=20, log_stride=10)
        with pytest.raises(NumericalFailure, match="step 10: gap is not finite"):
            run_solver(small_mesh_instance, cfg)

    @pytest.mark.parametrize("extra, nu", [
        ({"scheme": "weighted", "autotune_window": 10}, 0.0),
        ({"mode": "penalty"}, 10.0),
    ], ids=["weighted-autotune", "simple-penalty"])
    def test_kept_record_keeps_its_iterate(self, extra, nu):
        # a sink may hold records past the run: each E_ref is still the
        # iterate of its t, bit for bit, after the steps that followed it
        spec = fem2d.MeshSpec(nx=4, ny=2, lx=4.0, ly=2.0)
        inst = fem2d.build_instance(spec, 0.3, 3.0, 0.05, 0.4, 8.0, nu)
        records = []
        run_solver(inst, SolverConfig(iterations=60, log_stride=10, **extra), records.append)
        assert [rec.t for rec in records] == [10, 20, 30, 40, 50, 60]
        for rec in records:
            stopped = run_solver(inst, SolverConfig(iterations=rec.t, log_stride=rec.t, **extra))
            assert np.array_equal(rec.E_ref, stopped.E_last.dense()), rec.t


@st.composite
def instance_parameters(draw):
    """A valid parameter set with any subset of it replaced by arbitrary values."""
    r = draw(st.floats(1e-3, 1.0))
    rho_l = 3 * r + draw(st.floats(0.0, 5.0))
    params = {
        "rho_l": rho_l,
        "rho_u": rho_l + draw(st.floats(0.0, 5.0)),
        "r": r,
        "gamma": draw(st.floats(1e-3, 1e3)),
        "eta": draw(st.floats(1e-3, 1e3)),
        "nu": draw(st.floats(0.0, 1e3)),
    }
    arbitrary = st.one_of(
        st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0]), st.floats(-1e3, 1e3)
    )
    for name in draw(st.sets(st.sampled_from(sorted(params)))):
        params[name] = draw(arbitrary)
    return params


@given(instance_parameters())
@settings(max_examples=200, deadline=None)
def test_instance_parameters_rejected_or_run_finite(params):
    spec = fem2d.MeshSpec(nx=2, ny=1, lx=2.0, ly=1.0)
    try:
        instance = fem2d.build_instance(spec, **params)
    except InvalidInstance:
        return
    records = []
    result = run_solver(instance, SolverConfig(iterations=20, log_stride=10), sink=records.append)
    assert [rec.t for rec in records] == [10, 20]
    for rec in records:
        assert math.isfinite(rec.objective) and math.isfinite(rec.gap)
    for state in (result.E_last.packed, result.x_last.vectors, result.E_avg.packed,
                  result.x_avg.vectors):
        assert np.all(np.isfinite(state))
