"""Acceptance gate: one test per criterion, one printed line each.

The heavy solver runs are shared through module-scoped fixtures; every
tolerance is pinned here, none deferred.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from fmopt import cli, diagnostics, fem2d, model, penalty, saddle
from fmopt.model import MaterialState, feasible_E
from fmopt.oracle import (
    compliances_reference,
    fd_check,
    kkt_residual_standard,
    qp_reference,
    spectral_kkt_reference,
)
from fmopt.proj import (
    BoxTraceLS,
    SpectralProjection,
    proj_sym_g,
    proj_sym_l,
    project_spectral,
    solve_box_trace_ls,
)
from conftest import random_feasible_blocks


@contextmanager
def criterion(n, desc):
    try:
        yield
    except BaseException:
        print(f"criterion {n:2d} FAIL  {desc}")
        raise
    print(f"criterion {n:2d} PASS  {desc}")


def gap_instance():
    spec = fem2d.MeshSpec(
        nx=8, ny=4, lx=8.0, ly=4.0,
        loads=(
            fem2d.LoadSpec("right_edge", (0.0, -1.0)),
            fem2d.LoadSpec("bottom_right", (1.0, 0.0)),
        ),
    )
    return fem2d.build_instance(spec, rho_l=0.3, rho_u=3.0, r=0.05, gamma=5.0, eta=8.0)


@pytest.fixture(scope="module")
def gap_runs():
    """10^5 iterations of each scheme on the m=32, L=2 instance."""
    inst = gap_instance()
    out = {}
    for scheme in ("simple", "weighted"):
        tau, sigma, const = diagnostics.optimal_parameters(inst, scheme)
        cfg = saddle.SolverConfig(
            scheme=scheme, iterations=100000, tau=tau, sigma0=sigma, log_stride=200
        )
        rows = []
        t0 = time.perf_counter()
        saddle.run_solver(inst, cfg, sink=rows.append, constants=const)
        out[scheme] = {
            "rows": rows,
            "wall": time.perf_counter() - t0,
            "constants": const,
        }
    return inst, out


@pytest.fixture(scope="module")
def cantilever_run():
    """5x10^4 iterations on the generated cantilever with logged violations."""
    spec = fem2d.MeshSpec(
        nx=8, ny=4, lx=8.0, ly=4.0,
        loads=(fem2d.LoadSpec("bottom_right", (0.0, -1.0)),),
    )
    probe = fem2d.build_instance(spec, 0.3, 3.0, 0.05, 1.0, 20.0)
    c0 = float(np.max(fem2d.reference_compliance(probe, probe.start_material())))
    inst = fem2d.build_instance(spec, 0.3, 3.0, 0.05, 4.0 * c0, 20.0)
    cfg = saddle.SolverConfig(
        scheme="simple", iterations=50000, tau=0.5, sigma0=0.5,
        log_stride=1000,
    )
    log = []

    def sink(rec):
        comp = penalty.compliance_solves(inst, rec.E_ref).compliances
        lit, pos = penalty.violation_sums(inst, comp)
        log.append((rec.t, rec.objective, lit, pos))

    res = saddle.run_solver(inst, cfg, sink=sink)
    return inst, res, log


def test_criterion_1_ls_matches_qp_oracle():
    with criterion(1, "box-trace LS matches the QP oracle on 10^4 instances"):
        rng = np.random.default_rng(101)
        t0 = time.perf_counter()
        worst_kkt = 0.0
        for _ in range(10000):
            n = int(rng.integers(1, 9))
            b = rng.normal(0, 2, n)
            w = rng.normal(0, 2, n)
            w[w == 0] = 1.0
            if n >= 2 and rng.random() < 0.25:
                j = int(rng.integers(1, n))
                b[j], w[j] = b[0], w[0]  # duplicated entries
            anchor = float(w @ np.abs(rng.normal(0, 1, n)))
            kind = rng.integers(0, 5)
            if kind == 0:
                c_l, c_u = -np.inf, anchor + abs(rng.normal())
            elif kind == 1:
                c_l, c_u = anchor - abs(rng.normal()), np.inf
            elif kind == 2:
                c_l, c_u = anchor - abs(rng.normal()), anchor + abs(rng.normal())
            elif kind == 3:
                c_l = c_u = anchor  # degenerate equality
            else:
                c_l, c_u = -np.inf, np.inf
            z, lam_l, lam_u = solve_box_trace_ls(b, w, c_l, c_u)
            zr = qp_reference(BoxTraceLS(np.ones(n), b, w, np.zeros(n), c_l, c_u))
            fz = float(np.sum((z - b) ** 2))
            fr = float(np.sum((zr - b) ** 2))
            assert fz <= fr + 1e-9
            worst_kkt = max(
                worst_kkt, kkt_residual_standard(b, w, c_l, c_u, z, lam_l, lam_u)
            )
        elapsed = time.perf_counter() - t0
        assert worst_kkt <= 1e-10, f"max KKT residual {worst_kkt:.2e}"
        assert elapsed < 5.0, f"criterion 1 took {elapsed:.1f}s"


def test_criterion_2_spectral_projection():
    with criterion(2, "spectral projection matches the KKT oracle on 2000 matrices"):
        rng = np.random.default_rng(202)
        for _ in range(2000):
            n = int(rng.integers(2, 7))
            U = rng.normal(0, 1.5, (n, n))
            U = U + U.T
            r = float(rng.normal(0, 0.5))
            c_l = n * r + abs(rng.normal(0, 1))
            c_u = c_l + abs(rng.normal(0, 2))
            Z = project_spectral(SpectralProjection(U, c_l, c_u, r))
            Zr = spectral_kkt_reference(U, c_l, c_u, r)
            assert np.linalg.norm(Z - Zr) <= 1e-9
            Z2 = project_spectral(SpectralProjection(Z, c_l, c_u, r))
            assert np.linalg.norm(Z2 - Z) <= 1e-12 * max(1.0, np.linalg.norm(Z))
            omega = np.linalg.eigvalsh(Z)
            assert np.all(np.diff(omega) >= -1e-12)


def test_criterion_3_material_scans_consistent():
    with criterion(3, "material spectrum scans agree with the projection on 1000 cases"):
        rng = np.random.default_rng(303)
        done = 0
        while done < 1000:
            k = int(rng.choice([2, 3, 6]))
            r = 0.1
            lam = rng.normal(0, 3, k)
            beta_tau = float(abs(rng.normal(1.0, 1.0)) + 0.05)
            rho_l = k * r + abs(rng.normal(0, 1))
            rho_u = rho_l + abs(rng.normal(0, 2))
            neg = lam[lam < 0].sum()
            if neg < beta_tau * (k * r - rho_u):
                omega = proj_sym_l(lam, beta_tau, rho_u, k, r)
            elif neg > beta_tau * (k * r - rho_l):
                omega = proj_sym_g(lam, beta_tau, rho_l, k, r)
            else:
                continue
            target = r * np.eye(k) - np.diag(lam) / beta_tau
            Z = project_spectral(SpectralProjection(target, rho_l, rho_u, r))
            ref = np.sort(np.linalg.eigvalsh(Z))
            assert np.max(np.abs(np.sort(omega) - ref)) <= 1e-10
            done += 1


def test_criterion_4_subgradient_validity():
    with criterion(4, "finite differences and convexity validate the subgradients"):
        rng = np.random.default_rng(404)
        inst = gap_instance()
        tight = fem2d.build_instance(
            fem2d.MeshSpec(nx=4, ny=2, lx=4.0, ly=2.0,
                           loads=(fem2d.LoadSpec("bottom_right", (0.0, -1.0)),)),
            0.3, 3.0, 0.05, 0.4, 8.0, 3.0,
        )
        for _ in range(100):
            blocks = random_feasible_blocks(rng, inst.m, 3, 0.5, 2.8, 0.1)
            x = rng.normal(0, 1, (inst.L, inst.N))
            g_E, g_x, quad, in_R, _ = saddle.subgradients(inst, blocks, x)
            assert in_R.all()
            D = rng.normal(0, 1, blocks.shape)
            D = D + np.swapaxes(D, 1, 2)
            err = fd_check(
                lambda v: model.lagrangian_value(inst, v.reshape(blocks.shape), x),
                blocks.ravel(), D.ravel(), float(np.sum(g_E * D)),
            )
            assert err <= 1e-4
            Dx = rng.normal(0, 1, x.shape)
            err = fd_check(
                lambda v: model.lagrangian_value(inst, blocks, v.reshape(x.shape)),
                x.ravel(), Dx.ravel(), float(np.sum(g_x * Dx)),
            )
            assert err <= 1e-4
        # penalty gradient at strictly violated points
        from fmopt.model import DualState

        for _ in range(100):
            blocks = random_feasible_blocks(rng, tight.m, 3, 0.5, 2.8, 0.1)
            state = penalty.compliance_solves(tight, blocks)
            assert np.all(state.compliances > tight.gamma)
            x = rng.normal(0, 1, (tight.L, tight.N))
            gp = saddle.subgradients(tight, blocks, x)[0] + penalty.penalty_grad_correction(
                tight, state
            )
            D = rng.normal(0, 1, blocks.shape)
            D = D + np.swapaxes(D, 1, 2)
            err = fd_check(
                lambda v: penalty.penalty_value(
                    tight,
                    MaterialState.from_dense(v.reshape(blocks.shape)),
                    DualState.from_array(x),
                ),
                blocks.ravel(), D.ravel(), float(np.sum(gp * D)),
            )
            assert err <= 1e-4
        # convexity inequality slack at 100 comparison points
        blocks = random_feasible_blocks(rng, inst.m, 3, 0.5, 2.8, 0.1)
        x = rng.normal(0, 1, (inst.L, inst.N))
        g_E, g_x, _, _, _ = saddle.subgradients(inst, blocks, x)
        base = model.lagrangian_value(inst, blocks, x)
        for _ in range(100):
            other = random_feasible_blocks(rng, inst.m, 3, 0.3, 3.0, 0.05)
            slack = (
                model.lagrangian_value(inst, other, x)
                - base
                - float(np.sum(g_E * (other - blocks)))
            )
            assert slack >= -1e-8


@pytest.mark.slow
def test_criterion_5_gap_bound_dominance(gap_runs):
    inst, runs = gap_runs
    with criterion(5, "gap estimate stays in [0, theoretical bound] for 10^5 steps"):
        for scheme, run in runs.items():
            rows = run["rows"]
            assert len(rows) == 500
            for r in rows:
                assert r.gap >= -1e-8
                assert r.gap <= r.theoretical_bound * (1 + 1e-6)
            assert run["wall"] < 120.0, f"{scheme} took {run['wall']:.0f}s"


@pytest.mark.slow
def test_criterion_6_sqrt_t_decay(gap_runs):
    inst, runs = gap_runs
    with criterion(6, "bound and measured gap decay like 1/sqrt(t)"):
        for T in (10**3, 10**4):
            for scheme in ("simple", "weighted"):
                c = runs[scheme]["constants"]
                b1 = diagnostics.theoretical_gap_bound(c, T)
                b4 = diagnostics.theoretical_gap_bound(c, 4 * T)
                assert b4 <= 0.6 * b1
        for scheme in ("simple", "weighted"):
            by_t = {r.t: r for r in runs[scheme]["rows"]}
            assert by_t[40000].gap <= 0.75 * by_t[10000].gap


def test_criterion_7_beta_hat_envelope():
    with criterion(7, "beta_hat envelope holds for t up to 10^6"):
        seq = saddle.beta_hat_sequence(10**6)
        t = np.arange(1, 10**6 + 1)
        low = np.sqrt(2.0 * t - 1.0)
        high = 0.36603 + np.sqrt(2.0 * t - 1.0) + 1e-9
        assert np.all(seq[1:] >= low)
        assert np.all(seq[1:] <= high)


def _count_flops_per_iter(inst, mode="plain", iters=3):
    cfg = saddle.SolverConfig(
        mode=mode, iterations=iters, log_stride=iters
    )
    res = saddle.run_solver(inst, cfg)
    return res.counter.total / iters


def test_criterion_8_cost_linearity():
    with criterion(8, "counted flops scale linearly; penalty shows the cubic term"):
        # m-doubling at fixed element size (growing domain), 4-point ladder
        per_iter = []
        for nx in (4, 8, 16, 32):
            spec = fem2d.MeshSpec(nx=nx, ny=4, lx=float(nx), ly=4.0)
            inst = fem2d.build_instance(spec, 0.3, 3.0, 0.05, 5.0, 8.0)
            per_iter.append(_count_flops_per_iter(inst))
        for a, b in zip(per_iter, per_iter[1:]):
            assert b / a <= 2.2
        # N-doubling by refinement of a fixed domain at fixed L
        per_iter = []
        for nx in (4, 8, 16, 32):
            spec = fem2d.MeshSpec(nx=nx, ny=4, lx=2.0, ly=1.0)
            inst = fem2d.build_instance(spec, 0.3, 3.0, 0.05, 5.0, 8.0)
            per_iter.append(_count_flops_per_iter(inst))
        for a, b in zip(per_iter, per_iter[1:]):
            assert b / a <= 2.2
        # penalty mode: cubic term dominates once N >= 500
        pen = []
        for nx in (13, 26):
            spec = fem2d.MeshSpec(
                nx=nx, ny=19, lx=float(nx), ly=19.0,
                loads=(fem2d.LoadSpec("bottom_right", (0.0, -1.0)),),
            )
            inst = fem2d.build_instance(spec, 0.3, 3.0, 0.05, 5.0, 8.0, nu=1.0)
            assert inst.N in (520, 1040)
            pen.append(_count_flops_per_iter(inst, mode="penalty"))
        assert pen[1] / pen[0] >= 4.0


@pytest.mark.slow
def test_criterion_9_figure_one_shape(cantilever_run):
    inst, res, log = cantilever_run
    with criterion(9, "objective falls while violation spikes then recovers"):
        obj0 = float(np.sum(inst.rho_u))
        ts, objs, lits, poss = zip(*log)
        assert objs[-1] < obj0
        assert all(o <= obj0 + 1e-9 for o in objs)
        poss = np.asarray(poss)
        peak = poss.max()
        assert peak > poss[0]  # rose before peaking
        assert poss[-1] <= 0.10 * peak
        # production feasibility flag (the CLI's banded solve) vs the independent dense LU oracle
        tol = 1e-9 * max(1.0, inst.gamma)
        comp = penalty.compliances(inst, res.E_last.dense())
        in_Q, _ = feasible_E(inst, res.E_last)
        flag_prod = bool(in_Q and float(np.maximum(comp - inst.gamma, 0.0).sum()) <= tol)
        comp_oracle = compliances_reference(inst, res.E_last.dense())
        eig_ok = bool(np.all(np.linalg.eigvalsh(res.E_last.dense())[:, 0] >= inst.r - 1e-9))
        tr = np.einsum("qkk->q", res.E_last.dense())
        tr_ok = bool(np.all(tr <= inst.rho_u + 1e-9) and np.all(tr >= inst.rho_l - 1e-9))
        flag_oracle = bool(
            eig_ok and tr_ok
            and float(np.maximum(comp_oracle - inst.gamma, 0.0).sum()) <= tol
        )
        assert flag_prod == flag_oracle


@pytest.mark.slow
def test_criterion_10_penalty_comparison():
    with criterion(10, "penalty mode ends less violated; plain iterations are cheaper"):
        spec = fem2d.MeshSpec(
            nx=20, ny=19, lx=20.0, ly=19.0,
            loads=(fem2d.LoadSpec("bottom_right", (0.0, -1.0)),),
        )
        probe = fem2d.build_instance(spec, 0.3, 3.0, 0.05, 1.0, 20.0)
        c0 = float(np.max(fem2d.reference_compliance(probe, probe.start_material())))
        gamma = 0.5 * c0  # deliberately tight
        results = {}
        for mode, nu in (("penalty", 10.0), ("plain", 0.0)):
            inst = fem2d.build_instance(spec, 0.3, 3.0, 0.05, gamma, 20.0, nu)
            assert inst.N >= 800
            cfg = saddle.SolverConfig(
                mode=mode, iterations=5000, tau=0.5, sigma0=1.0,
                log_stride=5000,
            )
            t0 = time.perf_counter()
            res = saddle.run_solver(inst, cfg)
            wall = time.perf_counter() - t0
            comp = penalty.compliance_solves(inst, res.E_last.dense()).compliances
            _, pos = penalty.violation_sums(inst, comp)
            results[mode] = {"violation": pos, "wall_per_iter": wall / 5000}
        assert results["penalty"]["violation"] <= results["plain"]["violation"]
        assert results["penalty"]["wall_per_iter"] >= 3.0 * results["plain"]["wall_per_iter"]


def test_criterion_11_determinism(tmp_path):
    with criterion(11, "seeded deterministic runs produce bit-identical CSVs"):
        spec = fem2d.MeshSpec(nx=4, ny=2, lx=4.0, ly=2.0)
        inst = fem2d.build_instance(spec, 0.3, 3.0, 0.05, 5.0, 8.0)
        for name in ("a", "b"):
            cfg = saddle.SolverConfig(iterations=200, log_stride=10, deterministic=True)
            cli.run(cfg, inst, str(tmp_path / name))
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
