"""Penalized Lagrangian: values, gradients, convexity, cost growth."""

import math
import time
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from conftest import make_synthetic_instance, random_feasible_blocks
from fmopt import cli, fem2d, model, penalty, proj, saddle
from fmopt.fem2d import LoadSpec, MeshSpec, build_instance
from fmopt.model import (
    DualState,
    InvalidInstance,
    MaterialState,
    NumericalFailure,
    ProblemInstance,
    lagrangian_value,
)
from fmopt.oracle import compliances_reference, dense_stiffness_reference, fd_check


def tight_instance(nx=2, ny=2, gamma_scale=0.25, nu=5.0, eta=8.0):
    """Instance whose compliance cap is deliberately below the stiffest design."""
    spec = MeshSpec(nx=nx, ny=ny, lx=float(nx), ly=float(ny),
                    loads=(LoadSpec("right_edge", (0.0, -1.0)),))
    probe = build_instance(spec, 0.3, 3.0, 0.05, 1.0, eta, 0.0)
    comp = fem2d.reference_compliance(probe, probe.start_material())
    gamma = gamma_scale * float(np.max(comp))
    return build_instance(spec, 0.3, 3.0, 0.05, gamma, eta, nu)


def passes_backward_error_test(inst, E, solutions):
    """LAPACK dsposv's test for every load, against the oracle's dense A(E):
    ||f_j - A x_j||_inf <= sqrt(N) eps ||A||_inf ||x_j||_inf with eps = 2^-53."""
    A = dense_stiffness_reference(inst, E)
    resid = np.abs(inst.loads.T - A @ solutions).max(axis=0)
    eps = np.finfo(float).epsneg
    bound = math.sqrt(inst.N) * eps * np.abs(A).sum(axis=1).max() * np.abs(solutions).max(axis=0)
    return bool(np.all(resid <= bound))


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
        f = lagrangian_value(inst, E.dense(), x.vectors)
        assert p == pytest.approx(f, rel=1e-12)

    def test_nu_zero_disables_penalty(self, rng):
        inst = tight_instance(nu=0.0)
        E = inst.start_material()
        x = DualState.from_array(rng.normal(0, 1, (inst.L, inst.N)))
        p = penalty.penalty_value(inst, E, x)
        f = lagrangian_value(inst, E.dense(), x.vectors)
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
        # the shared operator's map with the einsum on the fixed-edge
        # elements, and the einsum alone (no operator covers 75% of the
        # 2x2 mesh or of the ragged instance)
        mesh = tight_instance(nx=6, ny=3)
        ragged = make_synthetic_instance(rng, m=5, N=9, n_loc=[2, 4, 6, 8, 9])
        assert mesh.shared is not None and mesh.shared.others.size == 3
        assert small_mesh_instance.shared is None and ragged.shared is None
        for inst in (mesh, small_mesh_instance, ragged):
            E = random_feasible_blocks(rng, inst.m, 3, 0.4, 2.5, 0.1)
            EB = np.einsum("qkc,qlcb->qlkb", E, inst.B_packed)
            ref = np.einsum("qlka,qlkb->qab", inst.B_packed, EB)
            a, b = np.triu_indices(inst.n_loc)  # the packed upper triangle
            got = model.element_stiffness(inst, E)
            assert got.shape == (inst.m, a.size)
            np.testing.assert_allclose(got, ref[:, a, b], rtol=0, atol=1e-13)

    def test_banded_compliance_forms_no_dense_matrix(self):
        inst = tight_instance(nx=32, ny=16)
        E = inst.start_material().dense()
        assert peak_bytes(model.compliances, inst, E) < inst.N**2 * 8 / 4


class TestInPlaceFactorization:
    """A(E) is scattered into the Fortran-ordered storage LAPACK factors and
    factored there: no transposing copy, the same numbers as a factorization
    of a C-ordered copy for the double dense matrix and the band; the
    penalty step, factored in single precision, meets dsposv's
    backward-error test instead.  The double triangle, its float32 cast and
    the band scatter the same per-entry sums of one entry layout."""

    @staticmethod
    def copied_dense(inst, E):
        # the layout's entry sums scattered row-major into the full matrix,
        # cho_factor on a copy (LAPACK then transposes it)
        entry, position = inst.entry_layout[:2]
        ke = model.element_stiffness(inst, E)
        sums = np.bincount(entry, weights=ke.ravel(), minlength=position.size + 1)[:-1]
        col, row = np.divmod(position, inst.N)
        A = np.zeros((inst.N, inst.N))
        A[row, col] = A[col, row] = sums
        chol = scipy.linalg.cho_factor(A.copy(), lower=True, check_finite=False)
        sol = scipy.linalg.cho_solve(chol, inst.loads.T, check_finite=False)
        return A, np.einsum("nj,jn->j", sol, inst.loads), sol

    @staticmethod
    def copied_band(inst, A):
        # row-major (bw + 1, N) band of A in the layout's RCM order,
        # cholesky_banded with its copy
        perm, _, bw = inst.band_layout
        permuted = A[np.ix_(perm, perm)]
        band = np.zeros((bw + 1, inst.N))
        for d in range(bw + 1):
            band[d, :inst.N - d] = np.diagonal(permuted, -d)
        factor = scipy.linalg.cholesky_banded(band, lower=True, check_finite=False)
        loads = inst.loads[:, perm]
        sol = scipy.linalg.cho_solve_banded((factor, True), loads.T, check_finite=False)
        return band, np.einsum("nj,jn->j", sol, loads)

    @staticmethod
    def rcm_of_element_pairs(inst):
        # RCM on the graph of every pair of real columns of every element
        from scipy.sparse import csr_array
        from scipy.sparse.csgraph import reverse_cuthill_mckee

        real = np.any(inst.B_packed != 0.0, axis=(1, 2))
        pair = real[:, :, None] & real[:, None, :]
        rows_of = np.broadcast_to(inst.cols_packed[:, :, None], pair.shape)[pair]
        cols_of = np.broadcast_to(inst.cols_packed[:, None, :], pair.shape)[pair]
        ones = np.ones(rows_of.size, dtype=np.int8)
        graph = csr_array((ones, (rows_of, cols_of)), shape=(inst.N, inst.N))
        return reverse_cuthill_mckee(graph, symmetric_mode=True)

    def test_bit_identical_to_factoring_a_copy(self, rng, small_mesh_instance):
        # synthetic instances: ragged supports padded on DOF 0 with no shared
        # operator, and one with a DOF no element touches (A(E) singular)
        synthetic = np.random.default_rng(11)
        ragged = make_synthetic_instance(synthetic, m=6, N=9, n_loc=[2, 4, 6, 8, 9, 9])
        base = make_synthetic_instance(synthetic, m=4, N=8, n_loc=[3, 5, 8, 2], k=2)
        loads = np.hstack([base.loads, np.zeros((base.L, 1))])
        untouched = ProblemInstance(base.cols_packed, base.B_packed, loads, 0.4, 2.5, 0.1,
                                    4.0, 6.0)
        assert ragged.shared is None and untouched.N == 9
        for inst in (small_mesh_instance, tight_instance(nx=6, ny=3), ragged, untouched):
            materials = [inst.start_material().dense()] + [
                random_feasible_blocks(rng, inst.m, inst.k, 0.4, 2.8, 0.05) for _ in range(3)
            ]
            for E in materials:
                tri, norm = model.assemble_dense(inst, E)
                single, single_norm = model.assemble_dense(inst, E, np.float32)
                assert tri.flags.f_contiguous and single.flags.f_contiguous
                assert np.array_equal(single, tri.astype(np.float32)) and single_norm == norm
                ref = dense_stiffness_reference(inst, E)
                assert np.abs(tri - np.tril(ref)).max() <= 1e-13 * np.abs(ref).max()
                perm, got = model.assemble_band(inst, E)
                permuted = (tri + np.tril(tri, -1).T)[np.ix_(perm, perm)]
                for d in range(got.shape[0]):
                    assert np.array_equal(got[d, :inst.N - d], np.diagonal(permuted, -d))
                if inst is untouched:
                    with pytest.raises(NumericalFailure, match="stiffness singular"):
                        penalty.compliance_solves(inst, E)
                    continue
                A, comp, sol = self.copied_dense(inst, E)
                assert np.array_equal(tri, np.tril(A))
                # the step factors in single precision and refines in double
                state = penalty.compliance_solves(inst, E)
                assert passes_backward_error_test(inst, E, state.solutions)
                band, comp = self.copied_band(inst, A)
                assert got.flags.f_contiguous and np.array_equal(got, band)
                assert np.array_equal(model.compliances(inst, E), comp)
            assert np.array_equal(inst.band_layout[0], self.rcm_of_element_pairs(inst))

    def test_dense_step_makes_no_copy_of_A(self):
        # penalty-tight size: the scatter's float32 N x N array is the only
        # one, and no double N x N array is formed
        inst = tight_instance(nx=20, ny=19)
        assert inst.N == 800
        E = inst.start_material().dense()
        assert peak_bytes(penalty.compliance_solves, inst, E) < 0.75 * inst.N**2 * 8

    def test_band_factorization_makes_no_copy_of_the_band(self):
        # plain-large size: band plus element stiffnesses, not two bands
        inst = tight_instance(nx=128, ny=64)
        bw = inst.band_layout[2]  # built before the measurement, as a run builds it once
        E = inst.start_material().dense()
        band = (bw + 1) * inst.N * 8
        ke = inst.cols_packed.size * inst.cols_packed.shape[1] * 8
        assert ke + band / 10 < band  # a second band could not hide in the slack
        assert peak_bytes(model.compliances, inst, E) < band + ke + band / 10


def criterion_10_instance():
    """Criterion 10's 20x19 penalty instance: nu = 10, gamma 0.5x the start compliance."""
    spec = fem2d.MeshSpec(
        nx=20, ny=19, lx=20.0, ly=19.0,
        loads=(fem2d.LoadSpec("bottom_right", (0.0, -1.0)),),
    )
    probe = fem2d.build_instance(spec, 0.3, 3.0, 0.05, 1.0, 20.0)
    c0 = float(np.max(fem2d.reference_compliance(probe, probe.start_material())))
    return fem2d.build_instance(spec, 0.3, 3.0, 0.05, 0.5 * c0, 20.0, 10.0)


class Spy:
    """Wraps a callable and counts its calls."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


def test_penalty_steps_send_no_block_to_eigh(monkeypatch):
    # criterion 10's blocks have a nearly double largest eigenvalue; the 3x3
    # closed form settles them, so the batched eigh never runs
    eigh = Spy(proj._project_blocks_eigh)
    closed_form = Spy(proj._project_blocks_3x3)
    monkeypatch.setattr(proj, "_project_blocks_eigh", eigh)
    monkeypatch.setattr(proj, "_project_blocks_3x3", closed_form)
    cfg = saddle.SolverConfig(mode="penalty", iterations=50, tau=0.5, sigma0=1.0, log_stride=50)
    saddle.run_solver(criterion_10_instance(), cfg)
    assert closed_form.calls == 50 and eigh.calls == 0


def test_step_assembles_through_the_penalty_module(monkeypatch):
    # perfbench times the step's assembly as the attribute penalty.assemble_dense,
    # so the step must call A(E)'s assembly by that name
    inst = tight_instance()
    assemble = Spy(penalty.assemble_dense)
    monkeypatch.setattr(penalty, "assemble_dense", assemble)
    penalty.compliance_solves(inst, inst.start_material().dense())
    assert assemble.calls == 1  # the float32 triangle, with no double fallback


class TestMixedPrecision:
    """The step factors A(E) in single precision and refines in double
    through the matrix-free operator; what single precision cannot deliver
    goes to the double path."""

    def test_fast_path_on_penalty_steps(self, monkeypatch):
        inst = criterion_10_instance()
        dpotrf = Spy(scipy.linalg.lapack.dpotrf)
        solves = Spy(penalty._single_solve)
        monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", dpotrf)
        monkeypatch.setattr(penalty, "_single_solve", solves)
        seen = []

        def recording(instance, E, **kwargs):
            before = solves.calls
            state = compliance_solves(instance, E, **kwargs)
            seen.append((E.copy(), state, solves.calls - before))
            return state

        compliance_solves = penalty.compliance_solves
        monkeypatch.setattr(penalty, "compliance_solves", recording)
        cfg = saddle.SolverConfig(mode="penalty", iterations=50, tau=0.5, sigma0=1.0,
                                  log_stride=50)
        saddle.run_solver(inst, cfg)
        assert len(seen) == 50 and dpotrf.calls == 0
        for E, state, sweeps in seen:
            assert 1 <= sweeps <= 3
            assert passes_backward_error_test(inst, E, state.solutions)
            np.testing.assert_allclose(state.compliances, compliances_reference(inst, E),
                                       rtol=1e-12, atol=0)

    def test_overflowing_A_takes_the_double_path(self, monkeypatch):
        # B scaled by 1e20 puts A(E) near 1e40, beyond single range
        base = tight_instance(nx=6, ny=3)
        inst = ProblemInstance(base.cols_packed, 1e20 * base.B_packed, base.loads,
                               base.rho_l, base.rho_u, base.r, base.gamma, base.eta, base.nu)
        spotrf = Spy(scipy.linalg.lapack.spotrf)
        monkeypatch.setattr(scipy.linalg.lapack, "spotrf", spotrf)
        E = inst.start_material().dense()
        state = penalty.compliance_solves(inst, E)
        _, comp, sol = TestInPlaceFactorization.copied_dense(inst, E)
        assert spotrf.calls == 0
        assert np.array_equal(state.compliances, comp)
        assert np.array_equal(state.solutions, sol)

    def test_A_beyond_double_range_is_a_numerical_failure(self):
        # B scaled by 1e160 puts A(E) beyond double range: neither precision
        # has a matrix to factor
        base = tight_instance(nx=6, ny=3)
        inst = ProblemInstance(base.cols_packed, 1e160 * base.B_packed, base.loads,
                               base.rho_l, base.rho_u, base.r, base.gamma, base.eta, base.nu)
        with np.errstate(over="ignore", invalid="ignore"):  # the stiffness map's inf and nan
            with pytest.raises(NumericalFailure, match="overflows double"):
                penalty.compliance_solves(inst, inst.start_material().dense())

    def test_non_finite_residual_leaves_at_once(self, monkeypatch):
        inst = tight_instance(nx=6, ny=3)
        E = inst.start_material().dense()
        solves = Spy(penalty._single_solve)
        monkeypatch.setattr(penalty, "_single_solve", solves)
        poisoned = {}

        def apply_Bt(instance, Y):
            out = model_apply_Bt(instance, Y)
            if not poisoned:  # the first residual of the refinement
                poisoned["after"] = solves.calls
                out[0, 0] = np.nan
            return out

        model_apply_Bt = penalty.apply_Bt
        monkeypatch.setattr(penalty, "apply_Bt", apply_Bt)
        state = penalty.compliance_solves(inst, E)
        assert poisoned["after"] == 1 and solves.calls == 1
        _, comp, sol = TestInPlaceFactorization.copied_dense(inst, E)
        assert np.array_equal(state.compliances, comp)
        assert np.array_equal(state.solutions, sol)

    @pytest.mark.parametrize("damping,sweeps", [(0.0, 2), (0.5, penalty.REFINE_SWEEPS)])
    def test_refinement_that_cannot_pass_takes_the_double_path(self, monkeypatch,
                                                               damping, sweeps):
        # every correction after the first scaled by ``damping``: at 0 the
        # residual stops shrinking at the second sweep; at 0.5 it halves at
        # each sweep and is still far from passing at the cap
        inst = tight_instance(nx=6, ny=3)
        E = inst.start_material().dense()
        solves = Spy(lambda factor, rhs: (damping if solves.calls > 1 else 1.0)
                     * single_solve(factor, rhs))
        single_solve = penalty._single_solve
        monkeypatch.setattr(penalty, "_single_solve", solves)
        state = penalty.compliance_solves(inst, E)
        assert solves.calls == sweeps
        _, comp, sol = TestInPlaceFactorization.copied_dense(inst, E)
        assert np.array_equal(state.compliances, comp)
        assert np.array_equal(state.solutions, sol)

    def test_layout_built_once_and_shared(self):
        inst = tight_instance(nx=6, ny=3)
        E = inst.start_material().dense()
        penalty.compliance_solves(inst, E)
        variant = inst.with_params(gamma=2.0 * inst.gamma)
        for name in ("stiffness_map", "entry_layout"):
            assert getattr(variant, name) is getattr(inst, name)
        fresh = ProblemInstance(inst.cols_packed, inst.B_packed, inst.loads, inst.rho_l,
                                inst.rho_u, inst.r, inst.gamma, inst.eta, inst.nu)
        pairs = [(inst.stiffness_map, fresh.stiffness_map)]
        for got, want in pairs + list(zip(inst.entry_layout, fresh.entry_layout)):
            assert np.array_equal(got, want) and not got.flags.writeable


class TestViolationSums:
    def test_sign_conventions(self):
        inst = tight_instance(gamma_scale=0.5)
        comp = np.array([inst.gamma * 0.5, inst.gamma * 2.0])
        lit, pos = penalty.violation_sums(inst, comp)
        assert lit == pytest.approx(-0.5 * inst.gamma)
        assert pos == pytest.approx(1.0 * inst.gamma)
