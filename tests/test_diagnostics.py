"""Bound constants, gap estimates, theoretical bounds, certificates, flops."""

import math

import numpy as np
import pytest

from conftest import make_synthetic_instance, random_feasible_blocks
from fmopt import diagnostics, fem2d, model, penalty, saddle
from fmopt.diagnostics import (
    compute_constants,
    gap_bound_prefactor,
    gap_estimate,
    optimal_parameters,
    theoretical_gap_bound,
)
from fmopt.model import DENSE_THRESHOLD, InvalidInstance, NumericalFailure, ProblemInstance
from fmopt.oracle import (
    dense_stiffness_reference,
    max_prox_over_block_reference,
    min_linear_over_block_reference,
    singular_sq_reference,
)


class TestConstants:
    def test_identity_operator_closed_form(self):
        k = 3
        inst = ProblemInstance(np.arange(k)[None], np.eye(k)[None, None], np.zeros((1, k)),
                               0.4, 2.0, 0.1, 2.0, 3.0)
        const = compute_constants(inst, 0.5)
        assert const.B_norm == pytest.approx(1.0, abs=1e-6)
        assert const.L_E2 == pytest.approx(
            1 * k + 1 * (2.0 / 0.1) * 1.0 * 9.0, rel=1e-6
        )
        assert const.D_x == pytest.approx(0.5 * 9.0)
        assert const.D_E == pytest.approx(0.5 * (2.0 - 0.3) ** 2)

    def test_B_norm_matches_dense_svd(self, rng):
        inst = make_synthetic_instance(rng, m=5, N=14, n_loc=5)
        const = compute_constants(inst, 0.5)
        lam_min, deficient, top_sv = singular_sq_reference(inst)
        assert const.B_norm == pytest.approx(top_sv, rel=1e-12)
        assert const.lam_min_BtB == pytest.approx(lam_min, rel=1e-9)
        assert const.B_rank_deficient == deficient

    def test_power_iteration_matches_dense_svd(self, rng, small_mesh_instance):
        for inst in (make_synthetic_instance(rng, m=5, N=14, n_loc=5), small_mesh_instance):
            _, _, top_sv = singular_sq_reference(inst)
            assert diagnostics.power_iteration_norm(inst) == pytest.approx(top_sv, rel=1e-6)

    def test_optimal_parameters_reuse_constants(self, small_mesh_instance):
        tau, _, const = optimal_parameters(small_mesh_instance, "weighted")
        assert const == compute_constants(small_mesh_instance, tau)

    def test_DE_extreme_point_attained(self, rng):
        # the closed form equals the direct maximization over one block
        rho_l, rho_u, r, k = 0.5, 2.5, 0.1, 3
        direct = max_prox_over_block_reference(rho_l, rho_u, r, k)
        assert direct == pytest.approx(0.5 * (rho_u - k * r) ** 2, rel=1e-12)

    def test_Dx_direct(self):
        # ball of radius eta, L loads: max of 0.5||x||^2 is L/2 eta^2
        eta, L = 3.0, 2
        best = 0.0
        rng = np.random.default_rng(0)
        for _ in range(500):
            x = rng.normal(0, 1, (L, 7))
            x *= eta / np.linalg.norm(x, axis=1, keepdims=True)
            best = max(best, 0.5 * float(np.sum(x**2)))
        assert best <= 0.5 * L * eta**2 + 1e-12
        assert best == pytest.approx(0.5 * L * eta**2, rel=1e-9)


class TestSingularSq:
    """The banded Lanczos bound data, and its dense fallback, against the SVD of stacked B."""

    @staticmethod
    def assert_matches_svd(inst, dense_threshold=DENSE_THRESHOLD):
        got = diagnostics.smallest_nonzero_singular_sq(inst, dense_threshold)
        assert diagnostics.smallest_nonzero_singular_sq(inst, dense_threshold) == got  # bitwise
        lam_min, deficient, top_sv = got
        ref_lam, ref_deficient, ref_top = singular_sq_reference(inst)
        assert lam_min == pytest.approx(ref_lam, rel=1e-9)
        assert top_sv == pytest.approx(ref_top, rel=1e-12)
        assert deficient == ref_deficient
        return deficient

    def test_mesh_instance(self, small_mesh_instance):
        spec = fem2d.MeshSpec(nx=4, ny=2, lx=4.0, ly=2.0)
        wide = fem2d.build_instance(spec, 0.3, 3.0, 0.05, 5.0, 8.0)
        for inst in (small_mesh_instance, wide):
            # a nonsingular A(I) takes the banded path, which needs no dense gate
            assert not self.assert_matches_svd(inst, dense_threshold=0)

    def test_full_rank_synthetic(self, rng):
        # every column touched; rows above, near and below N
        for m, N, nig in ((5, 14, 2), (2, 6, 1), (2, 10, 1), (6, 9, 3)):
            for _ in range(5):
                inst = make_synthetic_instance(rng, m=m, N=N, nig=nig, n_loc=N)
                # with fewer rows than N, A(I) is singular and needs the dense path
                threshold = 0 if m * nig * inst.k >= N else N
                assert not self.assert_matches_svd(inst, dense_threshold=threshold)

    @staticmethod
    def untouched_column_instance(rng):
        N, k = 8, 3
        cols = np.zeros((4, 5), dtype=np.int64)
        B = np.zeros((4, 2, k, 5))
        for i in range(4):
            cols[i] = np.sort(rng.choice(N - 1, size=5, replace=False))
            B[i] = rng.normal(0, 1, (2, k, 5))
        return ProblemInstance(cols, B, rng.normal(0, 1, (1, N)), 0.4, 2.5, 0.1, 4.0, 6.0)

    def test_untouched_column_is_rank_deficient(self, rng):
        assert self.assert_matches_svd(self.untouched_column_instance(rng))

    def test_near_singular_factors_but_counts_as_deficient(self, rng):
        # one element on all 6 columns, singular values (1, 0.9, 0.8, 0.7, 0.6, 1e-8):
        # the band Cholesky succeeds, but sigma^2 = 1e-16 is under the zero rule
        # max(rows, N) eps sigma_max^2, so the dense spectrum decides, as in the oracle
        U, _ = np.linalg.qr(rng.normal(size=(12, 6)))
        V, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        stacked = (U * np.array([1.0, 0.9, 0.8, 0.7, 0.6, 1e-8])) @ V.T
        inst = ProblemInstance(np.arange(6)[None], stacked.reshape(1, 4, 3, 6),
                               rng.normal(size=(1, 6)), 0.4, 2.5, 0.1, 4.0, 6.0)
        identity = np.eye(3)[None]
        assert penalty.band_cholesky(penalty.assemble_band(inst, identity)[1]) is not None
        assert self.assert_matches_svd(inst)
        got = diagnostics.smallest_nonzero_singular_sq(inst)
        gram_eigs = np.linalg.eigvalsh(dense_stiffness_reference(inst, identity))
        assert got[0] == pytest.approx(gram_eigs[1], rel=1e-12)
        for side in (got, singular_sq_reference(inst)):
            assert side == (pytest.approx(0.36, rel=1e-12), True, pytest.approx(1.0, rel=1e-12))
        with pytest.raises(InvalidInstance, match="--dense-threshold"):
            diagnostics.smallest_nonzero_singular_sq(inst, dense_threshold=5)

    def test_zero_operator_rejected(self):
        inst = ProblemInstance(np.arange(3)[None], np.zeros((1, 1, 3, 3)), np.ones((1, 3)),
                               0.4, 2.0, 0.1, 2.0, 3.0)
        with pytest.raises(NumericalFailure):
            diagnostics.smallest_nonzero_singular_sq(inst)

    def test_dense_gate(self, rng):
        # only a rank-deficient A(I) needs the dense spectrum; a size limit on
        # it is refused as input, not reported as a numerical failure
        inst = self.untouched_column_instance(rng)
        with pytest.raises(InvalidInstance, match="--dense-threshold"):
            diagnostics.smallest_nonzero_singular_sq(inst, dense_threshold=inst.N - 1)


class TestGapEstimate:
    def test_matches_direct_definition(self, small_mesh_instance):
        inst = small_mesh_instance
        E = inst.start_material().dense()
        x = inst.start_dual().vectors
        acc = saddle.DualAccumulators.zeros(inst)
        sched = saddle.StepSchedule("simple", 0.5, 1.0)
        gs, iters = [], []
        for _ in range(3):
            g = saddle.subgradients(inst, E, x)
            gs.append((g[0].copy(), g[1].copy()))
            iters.append((E.copy(), x.copy()))
            E, x, _ = saddle.da_step(inst, acc, sched, E, x, grads=g)
        kappa, ups, gap = gap_estimate(acc, inst)
        s_E = sum(g[0] for g in gs)
        dot_E = sum(float(np.sum(g[0] * it[0])) for g, it in zip(gs, iters))
        min_sum = sum(
            min_linear_over_block_reference(s_E[i], inst.rho_l[i], inst.rho_u[i], inst.r)
            for i in range(inst.m)
        )
        assert kappa == pytest.approx((dot_E - min_sum) / 3.0, rel=1e-9)
        s_x = -sum(g[1] for g in gs)
        dot_x = sum(float(np.sum(g[1] * it[1])) for g, it in zip(gs, iters))
        ups_ref = (inst.eta * float(np.linalg.norm(s_x, axis=1).sum()) - dot_x) / 3.0
        assert ups == pytest.approx(ups_ref, rel=1e-9)
        assert gap >= -1e-8

    def test_zero_sx_leaves_only_pairing_term(self, small_mesh_instance):
        inst = small_mesh_instance
        acc = saddle.DualAccumulators.zeros(inst)
        acc.sum_alpha = 2.0
        acc.sum_gx_dot_x = -3.5
        _, ups, _ = gap_estimate(acc, inst)
        assert ups == pytest.approx(3.5 / 2.0)

    def test_bounds_sampled_true_gap(self, rng, small_mesh_instance):
        inst = small_mesh_instance
        rows = []
        cfg = saddle.SolverConfig(iterations=50, log_stride=50)
        res = saddle.run_solver(inst, cfg, sink=rows.append)
        gap = rows[-1].gap
        E_hat = res.E_avg.dense()
        x_hat = res.x_avg.vectors
        for _ in range(100):
            Es = random_feasible_blocks(rng, inst.m, 3, 0.3, 3.0, 0.05)
            xs = rng.normal(0, 1, x_hat.shape)
            xs *= min(1.0, inst.eta / max(np.linalg.norm(xs, axis=1).max(), 1e-12))
            lower = model.lagrangian_value(inst, E_hat, xs) - model.lagrangian_value(
                inst, Es, x_hat
            )
            assert gap >= lower - 1e-8


class TestTheoreticalBound:
    def test_prefactor_values(self):
        assert gap_bound_prefactor(0) == pytest.approx(1.37)
        for T in (100, 1000, 10000):
            assert gap_bound_prefactor(T) / gap_bound_prefactor(4 * T) >= 1.9

    @staticmethod
    def simple_transcription(c, t):
        """The printed simple-scheme bound, term by term."""
        m, k, L = c.m, c.k, c.L
        B, eta, gam, r = c.B_norm, c.eta, c.gamma, c.r
        ru, f = c.rho_u_max, c.f_norm
        pre = (0.37 + math.sqrt(2 * t + 1)) / (t + 1)
        return pre * (
            math.sqrt((m * k + (gam / r) * L**2 * B**2 * eta**2) * m) * (ru - k * r)
            + 2 * (f + math.sqrt(gam * L * (ru - k * r + r)) * B) * math.sqrt(L) * eta
        )

    @staticmethod
    def weighted_transcription(c, t):
        """The printed weighted-scheme data-only bound, term by term."""
        m, k, L = c.m, c.k, c.L
        B, eta, gam, r = c.B_norm, c.eta, c.gamma, c.r
        ru, f = c.rho_u_max, c.f_norm
        pre = (0.37 + math.sqrt(2 * t + 1)) / (t + 1)
        return pre * (
            math.sqrt(m**2 * k + L**2 * m * (gam / r) * B**2 * eta**2) * (ru - k * r)
            + 2 * math.sqrt(L) * eta * f
            + 2 * math.sqrt(gam * (ru - k * r + r)) * B * L * eta
        )

    def test_simple_bound_matches_independent_transcription(self, small_mesh_instance):
        c = compute_constants(small_mesh_instance, 0.5)
        for t in (0, 17, 4096):
            expected = self.simple_transcription(c, t)
            assert theoretical_gap_bound(c, t) == pytest.approx(expected, rel=1e-12)

    def test_weighted_bounds_match_independent_transcription(self, small_mesh_instance):
        c = compute_constants(small_mesh_instance, 0.5)
        t = 33
        expected = self.weighted_transcription(c, t)
        assert theoretical_gap_bound(c, t) == pytest.approx(expected, rel=1e-12)

    def test_printed_bounds_are_one_number(self, rng):
        # both printed data-only bounds, on constants spread over decades
        for _ in range(200):
            k = int(rng.choice([2, 3, 6]))
            m, L = int(10 ** rng.uniform(0, 5)), int(10 ** rng.uniform(0, 2))
            r, gamma, eta = 10 ** rng.uniform((-3, -3, -2), (0, 3, 4))
            B_norm, f_norm = 10 ** rng.uniform((-2, -3), (3, 3))
            rho_u_max = k * r * (1.0 + 10 ** rng.uniform(-2, 2))
            L_E2 = m * k + L**2 * (gamma / r) * B_norm**2 * eta**2
            L_x = 2 * f_norm + 2 * math.sqrt(gamma * L * (rho_u_max - k * r + r)) * B_norm
            c = diagnostics.BoundConstants(
                m=m, k=k, L=L, tau=0.5, L_E2=L_E2, L_x=L_x, D_E=1.0, D_x=1.0, B_norm=B_norm,
                lam_min_BtB=1.0, B_rank_deficient=False, f_norm=f_norm, rho_u_max=rho_u_max,
                r=r, gamma=gamma, eta=eta,
            )
            t = int(rng.integers(0, 10**5))
            bound = theoretical_gap_bound(c, t)
            assert self.simple_transcription(c, t) == pytest.approx(bound, rel=1e-12)
            assert self.weighted_transcription(c, t) == pytest.approx(bound, rel=1e-12)

    def test_penalty_increment_matches_transcription(self, small_mesh_instance):
        c = compute_constants(small_mesh_instance, 0.5)
        t, nu = 12, 2.5
        pre = (0.37 + math.sqrt(2 * t + 1)) / (t + 1)
        expected = (
            pre * math.sqrt(c.m) * (c.rho_u_max - c.k * c.r) * nu
            / (c.r**2 * c.lam_min_BtB) * c.f_norm**2
        )
        got = theoretical_gap_bound(c, t, nu=nu) - theoretical_gap_bound(c, t)
        assert got == pytest.approx(expected, rel=1e-9)

    def test_dominates_measured_gap(self, small_mesh_instance):
        inst = small_mesh_instance
        for scheme in ("simple", "weighted"):
            tau, sigma, const = optimal_parameters(inst, scheme)
            rows = []
            cfg = saddle.SolverConfig(scheme=scheme, iterations=300, tau=tau,
                                      sigma0=sigma, log_stride=25)
            saddle.run_solver(inst, cfg, sink=rows.append, constants=const)
            for r in rows:
                assert r.gap <= r.theoretical_bound * (1 + 1e-6)
                assert r.gap >= -1e-8

    def test_penalty_increment_added(self, small_mesh_instance):
        const = compute_constants(small_mesh_instance, 0.5)
        base = theoretical_gap_bound(const, 10)
        with_nu = theoretical_gap_bound(const, 10, nu=2.0)
        assert with_nu > base


def lam_min(inst):
    """The instance's smallest nonzero squared singular value, as the bound data hold it."""
    return diagnostics.smallest_nonzero_singular_sq(inst)[0]


class TestCertificate:
    def test_interior_dual_certifies_solution(self, rng, small_mesh_instance):
        inst = small_mesh_instance
        E = inst.start_material()
        x = rng.normal(0, 0.01, (inst.L, inst.N))
        rep = diagnostics.approximation_certificate(
            inst, E, x, f_star_upper=E.objective(), lam_min_BtB=lam_min(inst)
        )
        assert rep.all_strictly_inside

    def test_eta_scaling_of_bound(self, small_mesh_instance):
        inst = small_mesh_instance
        E = inst.start_material()
        x = np.zeros((inst.L, inst.N))
        rep1 = diagnostics.approximation_certificate(
            inst, E, x, f_star_upper=20.0, lam_min_BtB=lam_min(inst)
        )
        big = ProblemInstance(
            inst.cols_packed, inst.B_packed, inst.loads, inst.rho_l, inst.rho_u, inst.r,
            inst.gamma, 10.0 * inst.eta, inst.nu,
        )
        rep2 = diagnostics.approximation_certificate(
            big, E, x, f_star_upper=20.0, lam_min_BtB=lam_min(big)
        )
        assert rep2.rhs_plain == pytest.approx(rep1.rhs_plain / 10.0)

    def test_penalized_bound_tighter_and_satisfied(self, rng):
        from fmopt.fem2d import LoadSpec, MeshSpec, build_instance

        spec = MeshSpec(nx=4, ny=2, lx=4.0, ly=2.0,
                        loads=(LoadSpec("bottom_right", (0.0, -1.0)),))
        inst = build_instance(spec, 0.3, 3.0, 0.05, 0.4, 8.0, nu=3.0)
        cfg = saddle.SolverConfig(mode="penalty", iterations=150, log_stride=150)
        res = saddle.run_solver(inst, cfg)
        # x at the ball boundary: bound case with the nu-dependent denominator
        x = res.x_avg.vectors
        x = x * (inst.eta / max(np.linalg.norm(x, axis=1).max(), 1e-12))
        rep = diagnostics.approximation_certificate(
            inst, res.E_avg, x, f_star_upper=96.0, lam_min_BtB=lam_min(inst)
        )
        assert rep.rhs_penalized is not None
        assert rep.rhs_penalized <= rep.rhs_plain
        assert rep.lhs_root_violation <= rep.rhs_penalized

    def test_zero_gap_takes_the_limit(self, small_mesh_instance):
        # f_star_upper at sum(rho_l), or a rounding below it: gap0 is clamped
        # at 0 and both right-hand sides take their limit 0
        inst = small_mesh_instance.with_params(gamma=1e-6, nu=1.0)
        E = inst.start_material()
        x = np.zeros((inst.L, inst.N))
        floor = float(np.sum(inst.rho_l))
        for f_star_upper in (floor, floor - 1e-13):
            rep = diagnostics.approximation_certificate(inst, E, x, f_star_upper, lam_min(inst))
            assert rep.violated.size == inst.L
            assert rep.rhs_plain == 0.0 and rep.rhs_penalized == 0.0
        # above it, the limit-safe form is the printed 1 / (sqrt(...) + ...)
        gap0 = 1e-3
        rep = diagnostics.approximation_certificate(inst, E, x, floor + gap0, lam_min(inst))
        c = inst.r * compute_constants(inst, 0.5).lam_min_BtB * inst.eta
        printed = 1.0 / (np.sqrt(inst.nu / (gap0 * inst.L) + c**2 / gap0**2) + c / gap0)
        assert rep.rhs_penalized == pytest.approx(printed, rel=1e-9)

    def test_violation_bound_on_solver_run(self, small_mesh_instance):
        inst = small_mesh_instance
        cfg = saddle.SolverConfig(iterations=200, log_stride=200)
        res = saddle.run_solver(inst, cfg)
        f_star_upper = float(np.sum(inst.rho_u))  # the stiff start is feasible here
        rep = diagnostics.approximation_certificate(
            inst, res.E_avg, res.x_avg.vectors, f_star_upper, lam_min(inst)
        )
        assert rep.bound_satisfied


class TestFlopReport:
    def test_zero_iterations_zero_counts(self, small_mesh_instance):
        from fmopt.model import FlopCounter

        rep = diagnostics.flop_report(FlopCounter().snapshot(), small_mesh_instance, 0)
        assert rep["total"] == 0.0

    def test_m_doubling_stays_linear(self):
        counts = []
        for nx in (4, 8, 16):
            spec = fem2d.MeshSpec(nx=nx, ny=2, lx=float(nx), ly=2.0)
            inst = fem2d.build_instance(spec, 0.3, 3.0, 0.05, 5.0, 8.0)
            cfg = saddle.SolverConfig(iterations=3, log_stride=3)
            res = saddle.run_solver(inst, cfg)
            counts.append(res.counter.total / 3)
        assert counts[1] / counts[0] <= 2.2
        assert counts[2] / counts[1] <= 2.2
