"""Projection operators against the enumeration oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmopt import proj
from fmopt.model import FmoError, InvalidInstance, elements_first, elements_last
from fmopt.oracle import kkt_residual_standard, qp_reference, spectral_kkt_reference
from fmopt.proj import (
    BoxTraceLS,
    OpCounter,
    SpectralProjection,
    proj_sym_g,
    proj_sym_l,
    project_blocks,
    project_material_spectrum,
    project_spectral,
    reduce_ls,
    solve_box_trace_ls,
    solve_ls,
)


def projected_spectra(lam, beta_tau, rho_l, rho_u, r):
    """The projected spectra (n, k) of r*I - s/bt from the ascending eigenvalues ``lam`` of s."""
    mu = (r - lam / beta_tau).T  # (k, n), descending
    return np.maximum(mu + proj._trace_shift(mu, rho_l, rho_u, r)[2], r).T


def ls_objective(z, b):
    return float(np.sum((np.asarray(z) - np.asarray(b)) ** 2))


class TestSolveBoxTraceLS:
    def test_interior_case(self):
        z, lam_l, lam_u = solve_box_trace_ls(np.array([0.5, 0.3]), np.array([1.0, 1.0]), 0.0, 2.0)
        np.testing.assert_allclose(z, [0.5, 0.3])
        assert lam_l == lam_u == 0.0

    def test_equality_bound_case(self):
        # hand trace of the scan: T = 1, v = 1, multiplier 2*(T/v) = 2
        z, lam_l, lam_u = solve_box_trace_ls(np.array([2.0, 0.0]), np.array([1.0, 1.0]), 1.0, 1.0)
        np.testing.assert_allclose(z, [1.0, 0.0])
        assert lam_l == 0.0
        assert lam_u == pytest.approx(2.0)

    def test_lower_branch_with_mixed_signs(self):
        b = np.array([-1.0, -1.0])
        w = np.array([1.0, -1.0])
        z, lam_l, lam_u = solve_box_trace_ls(b, w, 3.0, np.inf)
        zr = qp_reference(BoxTraceLS(np.ones(2), b, w, np.zeros(2), 3.0, np.inf))
        np.testing.assert_allclose(z, zr, atol=1e-10)
        assert lam_u == 0.0 and lam_l > 0.0
        assert w @ z == pytest.approx(3.0)

    def test_rejects_zero_weights(self):
        with pytest.raises(InvalidInstance):
            solve_box_trace_ls(np.array([1.0]), np.array([0.0]), 0.0, 1.0)

    @pytest.mark.parametrize(
        "b,w,c_l,c_u",
        [
            # degenerate zero shifted bound with empty natural seed
            (np.array([-0.1, 5.0]), np.array([1.0, -1.0]), 0.0, np.inf),
            (np.array([0.1, -10.0]), np.array([1.0, -1.0]), -np.inf, 0.0),
            (np.array([-1.0, -1.0, 2.0]), np.array([1.0, 1.0, -1.0]), 0.0, 0.0),
            (np.array([-1.0, 0.5]), np.array([1.0, -1.0]), 0.0, np.inf),
        ],
    )
    def test_degenerate_zero_bounds(self, b, w, c_l, c_u):
        z, lam_l, lam_u = solve_box_trace_ls(b, w, c_l, c_u)
        zr = qp_reference(BoxTraceLS(np.ones(b.size), b, w, np.zeros(b.size), c_l, c_u))
        assert ls_objective(z, b) == pytest.approx(ls_objective(zr, b), abs=1e-10)
        assert kkt_residual_standard(b, w, c_l, c_u, z, lam_l, lam_u) <= 1e-10

    def test_bulk_random_against_oracle(self, rng):
        worst = 0.0
        for _ in range(800):
            n = int(rng.integers(1, 9))
            b = rng.normal(0, 2, n)
            w = rng.normal(0, 2, n)
            w[w == 0] = 1.0
            if n >= 3 and rng.random() < 0.3:
                b[1], w[1] = b[0], w[0]  # exact ties
            t0 = float(w @ np.abs(rng.normal(0, 1, n)))
            kind = rng.integers(0, 4)
            if kind == 0:
                c_l, c_u = -np.inf, t0 + abs(rng.normal())
            elif kind == 1:
                c_l, c_u = t0 - abs(rng.normal()), np.inf
            elif kind == 2:
                c_l, c_u = t0 - abs(rng.normal()), t0 + abs(rng.normal())
            else:
                c_l = c_u = t0
            z, lam_l, lam_u = solve_box_trace_ls(b, w, c_l, c_u)
            zr = qp_reference(BoxTraceLS(np.ones(n), b, w, np.zeros(n), c_l, c_u))
            assert ls_objective(z, b) <= ls_objective(zr, b) + 1e-9
            worst = max(worst, kkt_residual_standard(b, w, c_l, c_u, z, lam_l, lam_u))
        assert worst <= 1e-10

    def test_operation_counter_bounds(self, rng):
        for _ in range(400):
            n = int(rng.integers(1, 9))
            unit = rng.random() < 0.5
            b = rng.normal(0, 2, n)
            w = np.ones(n) if unit else rng.normal(0, 2, n)
            w[w == 0] = 1.0
            t0 = float(w @ np.abs(rng.normal(0, 1, n)))
            c_l, c_u = t0 - abs(rng.normal()), t0 + abs(rng.normal())
            if rng.random() < 0.4:
                c_l = c_u
            counter = OpCounter()
            solve_box_trace_ls(b, w, c_l, c_u, counter)
            assert counter.ops <= n**2 + 14 * n + 1
            if unit and n >= 2:
                assert counter.ops <= n**2 + 7 * n + 1


class TestReduceLS:
    def test_identity_passthrough(self):
        prob = BoxTraceLS(np.ones(2), np.array([1.0, 2.0]), np.ones(2), np.zeros(2), 0.0, 5.0)
        red = reduce_ls(prob)
        np.testing.assert_allclose(red.b, [1.0, 2.0])
        np.testing.assert_allclose(red.w, [1.0, 1.0])
        assert red.c_l == 0.0 and red.c_u == 5.0
        assert red.fixed_idx.size == 0 and red.free_idx.size == 0

    def test_zero_diag_zero_weight_fixed_at_floor(self):
        prob = BoxTraceLS(
            np.array([0.0, 1.0]),
            np.array([5.0, 2.0]),
            np.array([0.0, 1.0]),
            np.array([1.0, 0.0]),
            -np.inf,
            10.0,
        )
        red = reduce_ls(prob)
        assert list(red.fixed_idx) == [0]
        assert red.fixed_val[0] == pytest.approx(1.0)
        assert red.b.size == 1  # remainder is a 1-d standard problem

    def test_negative_diag_flip_matches_oracle(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 7))
            a = rng.normal(0, 1.5, n)
            a[np.abs(a) < 0.05] = 1.0
            a[0] = -abs(a[0])  # force a flip
            b = rng.normal(0, 2, n)
            w = rng.normal(0, 1.5, n)
            w[w == 0] = 0.5
            r = rng.normal(0, 1, n)
            t0 = float(w @ (r + np.abs(rng.normal(0, 1, n))))
            c_l, c_u = t0 - abs(rng.normal()), t0 + abs(rng.normal())
            prob = BoxTraceLS(a, b, w, r, c_l, c_u)
            z, _, _ = solve_ls(prob)
            zr = qp_reference(prob)
            f = lambda zz: float(np.sum((a * zz - b) ** 2))
            assert f(z) <= f(zr) + 1e-10
            assert np.all(z >= r - 1e-10)
            assert c_l - 1e-9 <= w @ z <= c_u + 1e-9

    def test_flat_variables_zero_floor_matches_oracle(self, rng):
        # the printed zero-diagonal rules are exact when flat floors vanish
        for _ in range(300):
            n = int(rng.integers(2, 7))
            a = rng.normal(0, 1.5, n)
            a[np.abs(a) < 0.05] = 1.0
            flat = rng.random(n) < 0.4
            if not flat.any():
                flat[0] = True
            a[flat] = 0.0
            b = rng.normal(0, 2, n)
            w = rng.normal(0, 1.5, n)
            r = rng.normal(0, 1, n)
            r[flat] = 0.0
            t0 = float(w @ (r + np.abs(rng.normal(0, 1, n))))
            c_l, c_u = t0 - abs(rng.normal()), t0 + abs(rng.normal())
            prob = BoxTraceLS(a, b, w, r, c_l, c_u)
            z, _, _ = solve_ls(prob)
            zr = qp_reference(prob)
            f = lambda zz: float(np.sum((a * zz - b) ** 2))
            assert f(z) <= f(zr) + 1e-8
            assert np.all(z >= r - 1e-10)
            assert c_l - 1e-9 <= w @ z <= c_u + 1e-9

    def test_recover_roundtrip_shapes(self, rng):
        prob = BoxTraceLS(
            np.array([2.0, 0.0, -1.0, 1.0]),
            rng.normal(0, 1, 4),
            np.array([1.0, 2.0, -1.0, 0.0]),
            np.array([0.5, 0.0, -0.5, 1.0]),
            -1.0,
            4.0,
        )
        red = reduce_ls(prob)
        z = red.recover(np.zeros(red.b.size))
        assert z.shape == (4,)
        # standardized zero maps back to the shifted floor on kept variables
        for pos, idx in enumerate(red.keep_idx):
            assert z[idx] == pytest.approx(red.shift[pos])


@st.composite
def standard_ls_instances(draw):
    n = draw(st.integers(1, 6))
    fl = st.floats(-5, 5, allow_nan=False, allow_infinity=False)
    b = np.array([draw(fl) for _ in range(n)])
    w = np.array([draw(fl) for _ in range(n)])
    w[np.abs(w) < 1e-3] = 1.0
    anchor = float(w @ np.abs(b))
    lo = draw(st.floats(0, 4))
    hi = draw(st.floats(0, 4))
    return b, w, anchor - lo, anchor + hi


@given(standard_ls_instances())
@settings(max_examples=200, deadline=None)
def test_ls_kkt_property(inst):
    b, w, c_l, c_u = inst
    z, lam_l, lam_u = solve_box_trace_ls(b, w, c_l, c_u)
    assert kkt_residual_standard(b, w, c_l, c_u, z, lam_l, lam_u) <= 1e-10
    assert lam_l == 0.0 or lam_u == 0.0


@st.composite
def symmetric_matrices(draw):
    n = draw(st.integers(2, 5))
    fl = st.floats(-3, 3, allow_nan=False, allow_infinity=False)
    U = np.array([[draw(fl) for _ in range(n)] for _ in range(n)])
    r = draw(st.floats(-1, 0.5))
    c_l = n * r + draw(st.floats(0, 2))
    c_u = c_l + draw(st.floats(0, 3))
    return U + U.T, c_l, c_u, r


@given(symmetric_matrices())
@settings(max_examples=150, deadline=None)
def test_spectral_projection_fixed_point_property(case):
    U, c_l, c_u, r = case
    Z = project_spectral(SpectralProjection(U, c_l, c_u, r))
    Z2 = project_spectral(SpectralProjection(Z, c_l, c_u, r))
    assert np.linalg.norm(Z2 - Z) <= 1e-12 * max(1.0, np.linalg.norm(Z))
    omega = np.linalg.eigvalsh(Z)
    assert omega[0] >= r - 1e-9
    assert c_l - 1e-9 <= omega.sum() <= c_u + 1e-9


class TestProjectSpectral:
    def test_already_feasible_is_fixed(self, rng):
        lam = np.array([0.5, 1.0, 1.5])
        Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        U = (Q * lam) @ Q.T
        Z = project_spectral(SpectralProjection(U, 2.0, 4.0, 0.1))
        np.testing.assert_allclose(Z, U, atol=1e-12)

    def test_diag_clip_example(self):
        Z = project_spectral(SpectralProjection(np.diag([3.0, -1.0]), 0.0, 2.0, 0.0))
        np.testing.assert_allclose(Z, np.diag([2.0, 0.0]), atol=1e-12)

    def test_precondition_rejected_before_work(self):
        with pytest.raises(InvalidInstance):
            SpectralProjection(np.eye(3), 0.0, 1.0, 2.0)  # c_u < n*r

    def test_matches_enumeration_oracle(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 7))
            U = rng.normal(0, 1, (n, n))
            U = U + U.T
            r = float(rng.normal(0, 0.5))
            c_l = n * r + abs(rng.normal(0, 1))
            c_u = c_l + abs(rng.normal(0, 2))
            Z = project_spectral(SpectralProjection(U, c_l, c_u, r))
            Zr = spectral_kkt_reference(U, c_l, c_u, r)
            assert np.linalg.norm(Z - Zr) <= 1e-9

    def test_matches_eigen_space_ls_composition(self, rng):
        # independent route: project the spectrum with the general LS solver
        for _ in range(100):
            n = int(rng.integers(2, 7))
            U = rng.normal(0, 1, (n, n))
            U = U + U.T
            r = float(rng.normal(0, 0.5))
            c_l = n * r + abs(rng.normal(0, 1))
            c_u = c_l + abs(rng.normal(0, 2))
            lam, Q = np.linalg.eigh(U)
            omega, _, _ = solve_ls(
                BoxTraceLS(np.ones(n), lam, np.ones(n), np.full(n, r), c_l, c_u)
            )
            Z = project_spectral(SpectralProjection(U, c_l, c_u, r))
            assert np.linalg.norm(Z - (Q * omega) @ Q.T) <= 1e-9

    def test_idempotent_and_order_preserving(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 7))
            U = rng.normal(0, 1, (n, n))
            U = U + U.T
            r = -0.3
            c_l, c_u = n * r + 0.5, n * r + 2.0
            Z = project_spectral(SpectralProjection(U, c_l, c_u, r))
            Z2 = project_spectral(SpectralProjection(Z, c_l, c_u, r))
            assert np.linalg.norm(Z - Z2) <= 1e-12 * max(1.0, np.linalg.norm(Z))
            lam = np.sort(np.linalg.eigvalsh(U))
            omega = np.sort(np.linalg.eigvalsh(Z))
            assert np.all(np.diff(omega) >= -1e-12)
            assert omega[0] >= r - 1e-9
            assert c_l - 1e-9 <= omega.sum() <= c_u + 1e-9
            del lam

    def test_segment_property(self, rng):
        # projecting any point between U and its projection returns the projection
        for _ in range(50):
            n = int(rng.integers(2, 6))
            U = rng.normal(0, 2, (n, n))
            U = U + U.T
            r, c_l, c_u = 0.0, 1.0, 2.0
            Z = project_spectral(SpectralProjection(U, c_l, c_u, r))
            for alpha in (0.25, 0.75, 1.0):
                mid = alpha * U + (1 - alpha) * Z
                Zm = project_spectral(SpectralProjection(mid, c_l, c_u, r))
                assert np.linalg.norm(Zm - Z) <= 1e-9

    def test_beats_random_feasible_samples(self, rng):
        n = 5
        U = rng.normal(0, 1, (n, n))
        U = U + U.T
        r, c_l, c_u = 0.0, 1.0, 3.0
        Z = project_spectral(SpectralProjection(U, c_l, c_u, r))
        dist = np.linalg.norm(Z - U)
        for _ in range(2000):
            lam = rng.random(n)
            lam = lam / lam.sum() * float(rng.uniform(c_l, c_u))
            Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            cand = (Q * lam) @ Q.T
            assert np.linalg.norm(cand - U) >= dist - 1e-9

    def test_symmetrizes_nonsymmetric_input(self, rng):
        U = rng.normal(0, 1, (4, 4))
        Z1 = project_spectral(SpectralProjection(U, 1.0, 3.0, 0.0))
        Z2 = project_spectral(SpectralProjection(0.5 * (U + U.T), 1.0, 3.0, 0.0))
        np.testing.assert_allclose(Z1, Z2, atol=1e-12)

    def test_unbounded_lower_trace(self, rng):
        U = rng.normal(0, 2, (4, 4))
        U = U + U.T
        Z = project_spectral(SpectralProjection(U, -np.inf, 2.0, 0.0))
        omega = np.linalg.eigvalsh(Z)
        assert omega[0] >= -1e-12
        assert omega.sum() <= 2.0 + 1e-9
        Zr = spectral_kkt_reference(U, -np.inf, 2.0, 0.0)
        assert np.linalg.norm(Z - Zr) <= 1e-9


class TestMaterialSpectrumScans:
    def test_case1_formula(self):
        # all eigenvalues nonnegative and the clipped trace inside the window
        lam = np.array([0.0, 1.0, 2.0])
        r, beta_tau = 0.1, 2.0
        omega = project_material_spectrum(lam, beta_tau, 0.3, 10.0, 3, r)
        np.testing.assert_allclose(omega, [r, r, r])  # negatives absent: all clip to r

    def test_case1_negative_eigs(self):
        lam = np.array([-1.0, 0.5])
        r, beta_tau = 0.1, 1.0
        omega = project_material_spectrum(lam, beta_tau, 0.2, 5.0, 2, r)
        np.testing.assert_allclose(omega, [r + 1.0, r])

    def test_syml_hand_example(self):
        r = 0.7
        omega = proj_sym_l(np.array([-4.0, -1.0]), 1.0, 2 * r + 2.0, 2, r)
        np.testing.assert_allclose(omega, [r + 2.0, r])
        assert omega.sum() == pytest.approx(2 * r + 2.0)

    def test_syml_case_condition_enforced(self):
        with pytest.raises(FmoError):
            proj_sym_l(np.array([1.0, 2.0]), 1.0, 5.0, 2, 0.1)

    def test_symg_case_condition_enforced(self):
        with pytest.raises(FmoError):
            proj_sym_g(np.array([-10.0, -2.0]), 1.0, 3.0, 2, 0.1)

    def test_symg_hand_example_cross_validated(self):
        r, beta_tau, rho_l = 0.7, 1.0, 2 * 0.7 + 1.0
        lam = np.array([3.0, 1.0])
        omega = proj_sym_g(lam, beta_tau, rho_l, 2, r)
        target = r * np.eye(2) - np.diag(lam) / beta_tau
        Z = project_spectral(SpectralProjection(target, rho_l, 10.0, r))
        np.testing.assert_allclose(np.sort(omega), np.sort(np.diag(Z)), atol=1e-10)

    @pytest.mark.parametrize("k", [2, 3, 6])
    def test_scans_match_spectral_projection(self, rng, k):
        r = 0.2
        hits = {"l": 0, "g": 0}
        for _ in range(600):
            lam = rng.normal(0, 3, k)
            beta_tau = float(abs(rng.normal(1, 1)) + 0.1)
            rho_l = k * r + abs(rng.normal(0, 1))
            rho_u = rho_l + abs(rng.normal(0, 2))
            neg_sum = lam[lam < 0].sum()
            target = r * np.eye(k) - np.diag(lam) / beta_tau
            if neg_sum < beta_tau * (k * r - rho_u):
                omega = proj_sym_l(lam, beta_tau, rho_u, k, r)
                hits["l"] += 1
            elif neg_sum > beta_tau * (k * r - rho_l):
                omega = proj_sym_g(lam, beta_tau, rho_l, k, r)
                hits["g"] += 1
            else:
                continue
            Z = project_spectral(SpectralProjection(target, rho_l, rho_u, r))
            np.testing.assert_allclose(np.sort(omega), np.sort(np.linalg.eigvalsh(Z)), atol=1e-10)
        assert hits["l"] > 20 and hits["g"] > 20

    def test_project_blocks_matches_per_block_dispatch(self, rng, monkeypatch):
        # random blocks; near-isotropic blocks t*I + eps*G; and blocks with
        # spectrum (a, b, ..., b), where the trace/Frobenius bound on the top
        # eigenvalue is exact, placed 1e-9 inside (certified trace shift) and
        # outside (closed form for k = 3, eigendecomposition otherwise) the
        # certificate boundary
        scanned = {}  # block bytes -> the solve that first took the block

        def spy(name):
            solve = getattr(proj, name)

            def counted(s_sub, *args):
                for blk in np.moveaxis(s_sub, -1, 0):
                    scanned.setdefault(blk.tobytes(), name)
                return solve(s_sub, *args)

            return counted

        for name in ("_project_blocks_3x3", "_project_blocks_eigh"):
            monkeypatch.setattr(proj, name, spy(name))
        r, beta_tau = 0.15, 0.8
        for k in (2, 3, 6):
            lo, hi = k * r + 0.5, k * r + 2.0  # trace window of the structured blocks
            blocks, rho_l, rho_u, expect_scan = [], [], [], []

            def add(s, lo_=lo, hi_=hi, scan=None):
                blocks.append(s)
                rho_l.append(lo_)
                rho_u.append(hi_)
                expect_scan.append(scan)

            for _ in range(40):
                g = rng.normal(0, 2, (k, k))
                lo_ = k * r + abs(rng.normal(0, 1))
                add(g + g.T, lo_, lo_ + abs(rng.normal(0, 2)))
            # tr(r I - t I / beta_tau) above hi (cap), inside the window, below lo (floor)
            for t in (beta_tau * (r - (hi + 1) / k), beta_tau * (r - (lo + hi) / (2 * k)),
                      beta_tau * (r - (lo - 1) / k)):
                for eps in (0.0, 1e-14, 1e-8, 1e-3):
                    g = rng.normal(0, 1, (k, k))
                    add(t * np.eye(k) + eps * (g + g.T))
            # certified iff (k-1)(a-b) <= beta_tau*(bound - k r) in the cap and
            # floor cases, and iff a <= 0 in the interior case
            b_cap = -beta_tau * (hi - k * r) / (k - 1) - 1.0
            b_mid = -beta_tau * ((lo + hi) / 2 - k * r) / (k - 1)
            for a_star, b in ((b_cap + beta_tau * (hi - k * r) / (k - 1), b_cap),
                              (1.0 + beta_tau * (lo - k * r) / (k - 1), 1.0),
                              (0.0, b_mid)):
                for delta, scan in ((-1e-9, False), (1e-9, True)):
                    Q, _ = np.linalg.qr(rng.normal(size=(k, k)))
                    add((Q * np.array([a_star + delta] + [b] * (k - 1))) @ Q.T, scan=scan)

            s = np.array(blocks)
            rho_l, rho_u = np.array(rho_l), np.array(rho_u)
            batched = project_blocks(s, beta_tau, rho_l, rho_u, r)
            hits = set()
            for i in range(s.shape[0]):
                lam, Q = np.linalg.eigh(s[i])
                omega = project_material_spectrum(lam, beta_tau, rho_l[i], rho_u[i], k, r)
                ref = (Q * omega) @ Q.T
                np.testing.assert_allclose(batched[i], ref, atol=1e-10)
                np.testing.assert_array_equal(batched[i], batched[i].T)
                on_scan = s[i].tobytes() in scanned
                if expect_scan[i] is not None:
                    assert on_scan == expect_scan[i], (k, i)
                if on_scan:
                    path = "_project_blocks_3x3" if k == 3 else "_project_blocks_eigh"
                    assert scanned[s[i].tobytes()] == path, (k, i)
                neg_sum = lam[lam < 0].sum()
                if neg_sum < beta_tau * (k * r - rho_u[i]):
                    case = "cap"
                elif neg_sum > beta_tau * (k * r - rho_l[i]):
                    case = "floor"
                else:
                    case = "interior"
                hits.add((case, on_scan))
            assert hits == {(c, p) for c in ("cap", "floor", "interior") for p in (False, True)}


class TestLambdaMin:
    """The closed-form smallest eigenvalue against eigvalsh, block by block."""

    @staticmethod
    def blocks_3x3(rng):
        def rotated(spectrum):
            Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            return (Q * np.asarray(spectrum, dtype=float)) @ Q.T

        out = []
        for _ in range(200):
            g = rng.normal(0, 1, (3, 3))
            out.append(g + g.T)
        for t in (1.0, -3.0, 1e3):
            for eps in (0.0, 1e-14, 1e-10, 1e-6, 1e-3):  # near-isotropic
                g = rng.normal(0, 1, (3, 3))
                out.append(t * np.eye(3) + eps * (g + g.T))
            out.append(rotated([t, t, t]))
        # a double root below (b > a) or above (b < a) the third eigenvalue,
        # split by delta; the closed form degrades as the smallest two merge
        for a, b in ((1.0, 2.0), (1.0, 0.0), (-1.0, 5.0), (100.0, 100.1), (1.0, 1.0 - 1e-3)):
            for delta in np.concatenate([[0.0], np.logspace(-16, -3, 27)]):
                out.append(rotated([a, a + delta, b]))
        out.append(np.zeros((3, 3)))
        return np.array(out)

    @staticmethod
    def assert_agrees(blocks):
        got = proj.lambda_min(np.moveaxis(blocks, 0, -1).copy())
        want = np.linalg.eigvalsh(blocks)[:, 0]
        mean, spread = proj.trace_spread(np.moveaxis(blocks, 0, -1))
        np.testing.assert_array_less(
            np.abs(got - want), 1e-12 * (np.abs(mean) + spread) + 1e-300
        )

    def test_matches_eigvalsh(self, rng, monkeypatch):
        sent = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a):
            sent.append(a.shape[0])
            return eigvalsh(a)

        blocks = self.blocks_3x3(rng)
        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        for scale in (1.0, 1e8, 1e-8):
            sent.clear()
            self.assert_agrees(scale * blocks)
            # the kernel's fallback took some blocks, then the reference took all
            assert len(sent) == 2 and 0 < sent[0] < blocks.shape[0] // 4
            assert sent[1] == blocks.shape[0]

    def test_near_isotropic_blocks_need_no_eigvalsh(self, rng, monkeypatch):
        # far from the loads, accumulated dual blocks are t I to within 1e-108;
        # p^3 would underflow there, so the kernel scales the deviator first
        blocks = []
        for eps in (0.0, 1e-108, 1e-14):
            for _ in range(20):
                g = rng.normal(0, 1, (3, 3))
                blocks.append(rng.uniform(-60, 60) * np.eye(3) + eps * (g + g.T))
        blocks = np.array(blocks)
        want = np.linalg.eigvalsh(blocks)[:, 0]

        def refuse(a):
            raise AssertionError(f"{a.shape[0]} blocks sent to eigvalsh")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        got = proj.lambda_min(np.moveaxis(blocks, 0, -1))
        mean, spread = proj.trace_spread(np.moveaxis(blocks, 0, -1))
        np.testing.assert_array_less(np.abs(got - want), 1e-12 * (np.abs(mean) + spread))

    def test_non_finite_blocks_take_eigvalsh(self):
        # they fail as eigvalsh fails on them
        for bad in ((slice(None), slice(None)), ([0, 2], [2, 0])):
            blocks = np.tile(np.eye(3), (3, 1, 1))
            blocks[(1,) + bad] = np.nan
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.eigvalsh(blocks)
            with pytest.raises(np.linalg.LinAlgError):
                proj.lambda_min(np.moveaxis(blocks, 0, -1))

    @pytest.mark.parametrize("k", [2, 6])
    def test_other_sizes_use_eigvalsh(self, rng, k):
        g = rng.normal(0, 1, (50, k, k))
        blocks = g + g.transpose(0, 2, 1)
        got = proj.lambda_min(np.moveaxis(blocks, 0, -1))
        np.testing.assert_array_equal(got, np.linalg.eigvalsh(blocks)[:, 0])

    def test_closed_form_is_the_trigonometric_formula_bitwise(self, rng):
        # the shared helper keeps lambda_min's arithmetic: the formula written
        # out, on blocks it resolves (the rest are eigvalsh's, pinned above)
        g = rng.normal(0, 1, (3, 3, 300))
        blocks = (g + g.transpose(1, 0, 2)) * 10.0 ** rng.integers(-6, 7, 300)
        blocks[:, :, :20] = 7.0 * np.eye(3)[:, :, None] + 1e-108 * blocks[:, :, :20]
        q = np.trace(blocks) / 3.0
        d = [blocks[i, i] - q for i in range(3)]
        shift = (d[0] + d[1] + d[2]) / 3.0
        q, d = q + shift, [x - shift for x in d]
        a01, a02, a12 = blocks[0, 1], blocks[0, 2], blocks[1, 2]
        p = np.sqrt((d[0] * d[0] + d[1] * d[1] + d[2] * d[2]
                     + 2.0 * (a01 * a01 + a02 * a02 + a12 * a12)) / 6.0)
        d0, d1, d2, a01, a02, a12 = (x / p for x in (*d, a01, a02, a12))
        cos3 = 0.5 * (
            d0 * (d1 * d2 - a12 * a12) - a01 * (a01 * d2 - a12 * a02) + a02 * (a01 * a12 - d1 * a02)
        )
        want = q + 2.0 * p * np.cos(np.arccos(np.maximum(cos3, -1.0)) / 3.0 + 2.0 * np.pi / 3.0)
        assert np.all(cos3 < 1.0 - proj.DOUBLE_ROOT_MARGIN)
        np.testing.assert_array_equal(proj.lambda_min(blocks), want)


class TestClosedForm3x3:
    """The k = 3 material update without eigh, against eigh and the oracle."""

    @staticmethod
    def adversarial_blocks(rng):
        def rotated(spectrum):
            Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            return (Q * np.asarray(spectrum, dtype=float)) @ Q.T

        out = []
        for _ in range(150):
            g = rng.normal(0, 1, (3, 3))
            out.append(g + g.T)
        for t in (1.0, -3.0, 0.3):
            for eps in (0.0, 1e-16, 1e-14, 1e-10, 1e-6, 1e-3):  # near-isotropic
                g = rng.normal(0, 1, (3, 3))
                out.append(t * np.eye(3) + eps * (g + g.T))
        # axis-aligned eigenvectors: the cross products of all but one pair of
        # rows vanish
        for order in itertools.permutations([-1.0, 0.5, 2.0]):
            out.append(np.diag(order))
        # the smallest two (b > a) or the largest two (b < a) eigenvalues split
        # by delta: exactly double, near-double and well apart
        for a, b in ((1.0, 2.0), (1.0, 0.0), (-1.0, 5.0), (0.1, 0.3), (-0.2, -0.1)):
            for delta in np.concatenate([[0.0], np.logspace(-16, -1, 16)]):
                out.append(rotated([a, a + delta, b]))
        return np.moveaxis(np.array(out), 0, -1)

    # (beta*tau, trace window): cap, floor and interior cases, up to all three
    # eigenvalues clipped, and an equality window
    CASES = ((0.1, (0.2, 0.5)), (1.0, (0.5, 3.0)), (10.0, (0.16, 0.2)), (1.0, (1.0, 1.0)),
             (0.5, (0.15, 100.0)), (3.0, (0.2, 0.4)))

    def test_adversarial_spectra_match_eigh_and_oracle(self, rng, monkeypatch):
        sent = []
        eigh_path = proj._project_blocks_eigh

        def counted(s_sub, *args):
            sent.append((scale, beta_tau, s_sub.copy()))
            return eigh_path(s_sub, *args)

        base = self.adversarial_blocks(rng)
        n, r = base.shape[-1], 0.05
        clipped = set()
        for scale in (1.0, 1e6, 1e-6):
            for bt, (lo, hi) in self.CASES:
                for beta_tau in (bt, bt * scale):
                    s = scale * base
                    rho_l, rho_u = np.full(n, lo), np.full(n, hi)
                    monkeypatch.setattr(proj, "_project_blocks_eigh", counted)
                    got = proj._project_blocks_3x3(s, beta_tau, rho_l, rho_u, r)
                    monkeypatch.undo()
                    want = proj._project_blocks_eigh(s, beta_tau, rho_l, rho_u, r)
                    size = np.abs(s).max(axis=(0, 1)) / beta_tau + hi
                    np.testing.assert_array_less(
                        np.abs(got - want).max(axis=(0, 1)), 1e-13 * size
                    )
                    lam = np.linalg.eigvalsh(np.moveaxis(s, -1, 0))
                    omega = projected_spectra(lam, beta_tau, rho_l, rho_u, r)
                    clipped.update(np.sum(omega <= r, axis=1).tolist())
                    if scale == 1.0 and beta_tau == bt:
                        for i in range(0, n, 9):
                            U = r * np.eye(3) - s[:, :, i] / beta_tau
                            ref = spectral_kkt_reference(U, lo, hi, r)
                            assert np.abs(got[:, :, i] - ref).max() <= 1e-13 * size[i]
        assert clipped == {0, 1, 2, 3}
        # near-double roots are settled in closed form unless the split of
        # the close pair leaves the clip decision open, which here takes s/bt
        # a million times the trace window; only near-double blocks go to eigh
        assert sent and max(s_sub.shape[-1] for *_, s_sub in sent) < n // 3
        for scale, beta_tau, s_sub in sent:
            assert scale == 1e6 and beta_tau < scale
            _, _, _, near = proj._trig_eigenvalues(s_sub, with_max=True)
            assert np.all(near[0] | near[1])

    # (end of the double root of s, c, far eigenvalue, double eigenvalue,
    # trace window) at r = 0.05 and beta_tau = 1, so mu = r - lam: every c
    # the closed form settles at each end, inside the window and shifted
    DOUBLE_ROOTS = (
        ("largest", 0, -2.0, -1.0, (1.0, 10.0)),
        ("largest", 0, -2.0, -1.0, (0.5, 2.0)),
        ("largest", 2, -2.0, 1.0, (1.0, 10.0)),
        ("largest", 2, 1.0, 2.0, (1.0, 2.0)),
        ("largest", 3, 1.0, 2.0, (0.15, 1.0)),
        ("smallest", 0, -1.0, -2.0, (1.0, 10.0)),
        ("smallest", 0, -1.0, -2.0, (1.0, 4.0)),
        ("smallest", 1, 1.0, -1.0, (1.0, 10.0)),
        ("smallest", 1, 1.0, -1.0, (0.5, 1.5)),
        ("smallest", 1, 2.0, 1.0, (1.0, 2.0)),
        ("smallest", 3, 2.0, 1.0, (0.15, 1.0)),
    )

    def test_double_roots_settle_in_closed_form(self, rng, monkeypatch):
        # exactly double and near-double (split by delta) eigenvalues at both
        # ends, rotated, against eigh and the oracle; none reaches eigh
        r, beta_tau = 0.05, 1.0
        deltas = (0.0, 1e-15, 1e-12, 1e-9, 1e-6, 1e-4)
        eigh_path = proj._project_blocks_eigh

        def refuse(s_sub, *args):
            raise AssertionError(f"{s_sub.shape[-1]} blocks sent to eigh")

        for end, c, far, double, (lo, hi) in self.DOUBLE_ROOTS:
            blocks = []
            for delta in deltas:
                spectrum = [far, double, double + delta] if end == "largest" else [
                    double, double + delta, far]
                for _ in range(3):
                    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
                    block = (Q * np.array(spectrum)) @ Q.T
                    blocks.append(0.5 * (block + block.T))
            s = np.moveaxis(np.array(blocks), 0, -1)
            n = s.shape[-1]
            _, _, _, near = proj._trig_eigenvalues(s, with_max=True)
            assert np.all(near[1] if end == "largest" else near[0]), (end, c)
            rho_l, rho_u = np.full(n, lo), np.full(n, hi)
            monkeypatch.setattr(proj, "_project_blocks_eigh", refuse)
            got = proj._project_blocks_3x3(s, beta_tau, rho_l, rho_u, r)
            monkeypatch.undo()
            want = eigh_path(s, beta_tau, rho_l, rho_u, r)
            size = np.abs(s).max() / beta_tau + hi
            assert np.abs(got - want).max() <= 1e-13 * size, (end, c)
            lam = np.linalg.eigvalsh(np.moveaxis(s, -1, 0))
            omega = projected_spectra(lam, beta_tau, rho_l, rho_u, r)
            assert np.all(np.sum(omega <= r, axis=1) == c), (end, c)
            for i in range(n):
                ref = spectral_kkt_reference(r * np.eye(3) - s[:, :, i] / beta_tau, lo, hi, r)
                assert np.abs(got[:, :, i] - ref).max() <= 1e-13 * size, (end, c, i)

    def test_open_clip_decision_goes_to_eigh(self, monkeypatch):
        # the largest two eigenvalues of s 1e-4 apart around 0, so mu = r - lam
        # puts the pair either side of r inside the window: c = 1, while the
        # pair at its mean would give c = 2; the closed form cannot tell the
        # two apart within the split it allows, so eigh takes the block
        r, beta_tau, lo, hi = 0.05, 1.0, 1.0, 10.0
        s = np.diag([-2.0, -5e-5, 5e-5])[:, :, None].copy()
        sent = []
        eigh_path = proj._project_blocks_eigh

        def counted(s_sub, *args):
            sent.append(s_sub.shape[-1])
            return eigh_path(s_sub, *args)

        monkeypatch.setattr(proj, "_project_blocks_eigh", counted)
        got = proj._project_blocks_3x3(s, beta_tau, np.array([lo]), np.array([hi]), r)
        monkeypatch.undo()
        assert sent == [1]
        np.testing.assert_array_equal(got, eigh_path(s, beta_tau, np.array([lo]),
                                                     np.array([hi]), r))

    def test_project_blocks_k3_needs_no_eigh_off_double_roots(self, rng, monkeypatch):
        g = rng.normal(0, 1, (200, 3, 3))
        s = g + g.transpose(0, 2, 1)
        rho_l = 0.3 + rng.random(200)
        rho_u = rho_l + 2.0 * rng.random(200)

        def refuse(a):
            raise AssertionError(f"{a.shape[0]} blocks sent to eigh")

        want = np.array([
            spectral_kkt_reference(0.1 * np.eye(3) - s[i] / 0.7, rho_l[i], rho_u[i], 0.1)
            for i in range(200)
        ])
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        got = project_blocks(s, 0.7, rho_l, rho_u, 0.1)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * (np.abs(s).max() / 0.7 + 3.0))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(1, 1), (0, 2)])
    def test_non_finite_blocks_fail_as_eigh_does(self, value, where):
        # eigh raises on some non-finite blocks and returns NaN on others;
        # the closed form sends them all to it
        blocks = np.tile(np.eye(3), (4, 1, 1))
        blocks[(2,) + where] = value
        blocks[(2,) + where[::-1]] = value
        try:
            np.linalg.eigh(blocks)
        except np.linalg.LinAlgError:
            with pytest.raises(np.linalg.LinAlgError):
                project_blocks(blocks, 0.7, 0.5, 2.0, 0.1)
        else:
            with np.errstate(invalid="ignore"):
                got = project_blocks(blocks, 0.7, 0.5, 2.0, 0.1)
            assert np.all(np.isnan(got[2])) and np.all(np.isfinite(got[[0, 1, 3]]))

    @pytest.mark.parametrize("k", [2, 6])
    def test_other_sizes_keep_the_eigh_path_bitwise(self, rng, monkeypatch, k):
        # the certified trace shift on the symmetric part, then eigh and the
        # trace scans on the rest with their result symmetrized, written out
        g = rng.normal(0, 1, (300, k, k))
        blocks = g + g.transpose(0, 2, 1)
        blocks[:100] = np.eye(k) * rng.normal(0, 3, (100, 1, 1)) + 1e-3 * blocks[:100]
        rho_l = k * 0.1 + rng.random(300)
        rho_u = rho_l + 2.0 * rng.random(300)
        bt, r = 0.7, 0.1
        s = np.moveaxis(blocks, 0, -1)
        mean, spread = proj.trace_spread(s)
        tr_y = k * (r - mean / bt)
        shift = (np.clip(tr_y, rho_l, rho_u) - tr_y) / k
        out = (s + s.transpose(1, 0, 2)) * (-0.5 / bt)
        out[np.arange(k), np.arange(k)] += r + shift
        scan = np.flatnonzero(~(mean + spread <= shift * bt))
        lam, Q = np.linalg.eigh(blocks[scan])
        omega = projected_spectra(lam, bt, rho_l[scan], rho_u[scan], r)
        Q = np.ascontiguousarray(np.moveaxis(Q, 0, -1))
        solved = np.einsum("ijq,kjq->ikq", Q * omega.T, Q)
        out[:, :, scan] = 0.5 * (solved + solved.transpose(1, 0, 2))
        want = np.moveaxis(out, -1, 0)
        assert 0 < scan.size < 300

        def refuse(*args):
            raise AssertionError("k != 3 took the closed form")

        monkeypatch.setattr(proj, "_project_blocks_3x3", refuse)
        np.testing.assert_array_equal(project_blocks(blocks, bt, rho_l, rho_u, r), want)


class TestProjectBlocksPaths:
    """``project_blocks`` with every block certified, some, or none."""

    BT, R = 0.7, 0.1

    @staticmethod
    def batch(rng, m, certified):
        """(m, 3, 3) element-last blocks; the first ``certified`` pass the trace bound.

        Those are -c I plus a 1e-3 perturbation, certified for any rho_u
        >= 0.5; the rest have spectrum (-b, c, b) with b in [2, 3] and c in
        [-1, 1], so mean + spread >= 1.98 rules the bound out for any
        rho_u < 7 at BT and R.
        """
        out = np.empty((3, 3, m))
        for i in range(m):
            Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            if i < certified:
                g = rng.normal(0, 1, (3, 3))
                block = -(1.0 + rng.random()) * np.eye(3) + 1e-3 * (g + g.T)
            else:
                b, c = 2.0 + rng.random(), rng.uniform(-1.0, 1.0)
                block = (Q * np.array([-b, c, b])) @ Q.T
            out[:, :, i] = 0.5 * (block + block.T)
        return elements_first(out)

    @staticmethod
    def sent_to_closed_form(monkeypatch):
        sent = []
        closed_form = proj._project_blocks_3x3

        def recorded(s, *args):
            sent.append(s)
            return closed_form(s, *args)

        monkeypatch.setattr(proj, "_project_blocks_3x3", recorded)
        return sent

    @pytest.mark.parametrize("certified", [0, 60, 200])
    def test_scalar_and_per_block_bounds_agree_bitwise(self, rng, certified):
        s = self.batch(rng, 200, certified)
        got = project_blocks(s, self.BT, 0.5, 2.5, self.R)
        want = project_blocks(s, self.BT, np.full(200, 0.5), np.full(200, 2.5), self.R)
        assert np.array_equal(got, want)

    def test_uncertified_batch_is_the_symmetrized_closed_form_bitwise(self, rng, monkeypatch):
        s = self.batch(rng, 200, 0)
        rho_l = 0.3 + rng.random(200)
        rho_u = rho_l + 2.0 * rng.random(200)
        sent = self.sent_to_closed_form(monkeypatch)
        got = project_blocks(s, self.BT, rho_l, rho_u, self.R)
        monkeypatch.undo()
        # s itself is solved, through a view: no gather
        assert len(sent) == 1 and sent[0].base is s.base
        solved = proj._project_blocks_3x3(elements_last(s), self.BT, rho_l, rho_u, self.R)
        assert np.array_equal(elements_last(got), 0.5 * (solved + solved.transpose(1, 0, 2)))
        assert elements_last(got).flags.c_contiguous

    def test_mixed_batch_matches_oracle(self, rng, monkeypatch):
        s = self.batch(rng, 200, 60)
        rho_l = 0.3 + rng.random(200)
        rho_u = rho_l + 2.0 * rng.random(200)
        sent = self.sent_to_closed_form(monkeypatch)
        got = project_blocks(s, self.BT, rho_l, rho_u, self.R)
        assert [a.shape[-1] for a in sent] == [140]
        want = np.array([
            spectral_kkt_reference(self.R * np.eye(3) - s[i] / self.BT, rho_l[i], rho_u[i], self.R)
            for i in range(200)
        ])
        scale = np.abs(s).max() / self.BT + 3.0
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * scale)

