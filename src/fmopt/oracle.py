"""Independent brute-force references used by the test suite.

Nothing here is part of the library API and nothing here shares code with
the production paths: every routine is a separate transcription of the
underlying optimality conditions (enumeration, dense assembly, finite
differences, LP solves).
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from .model import FmoError
from .proj import BoxTraceLS


def qp_reference(problem: BoxTraceLS):
    """Global minimizer of a small BoxTraceLS instance by exact enumeration.

    Enumerates every split of the variables into free / at-lower-bound
    together with the three trace-constraint states (inactive, at c_l, at
    c_u) and returns the best feasible candidate.  Zero-diagonal variables
    cost nothing; their admissible trace contribution is an interval that
    is intersected with the required window.
    """
    a, b, w, r = problem.a_diag, problem.b, problem.w, problem.r_lb
    c_l, c_u = problem.c_l, problem.c_u
    n = problem.n
    if n > 16:
        raise FmoError("qp_reference is an enumeration oracle; keep n small")

    nf_idx = np.flatnonzero(a != 0.0)
    fl_idx = np.flatnonzero(a == 0.0)
    nf = nf_idx.size
    a_nf, b_nf, w_nf, r_nf = a[nf_idx], b[nf_idx], w[nf_idx], r[nf_idx]
    pref = b_nf / a_nf if nf else np.zeros(0)
    flat_const = float(np.sum(b[fl_idx] ** 2))

    # attainable trace contribution of the flat variables
    if fl_idx.size:
        w_fl, r_fl = w[fl_idx], r[fl_idx]
        lo = -np.inf if np.any(w_fl < 0) else float(np.sum(w_fl * r_fl))
        hi = np.inf if np.any(w_fl > 0) else float(np.sum(w_fl * r_fl))
        base_fl = float(np.sum(w_fl * r_fl))
    else:
        lo = hi = base_fl = 0.0

    masks = ((np.arange(2**nf)[:, None] >> np.arange(nf)[None, :]) & 1).astype(bool)

    best_obj = np.inf
    best = None  # (z_nf, flat_target) of the winning candidate

    def try_candidates(z_nf, feas, flat_targets):
        nonlocal best_obj, best
        resid = a_nf[None, :] * z_nf - b_nf[None, :]
        obj = np.einsum("pi,pi->p", resid, resid) + flat_const
        obj = np.where(feas, obj, np.inf)
        i = int(np.argmin(obj))
        if obj[i] < best_obj:
            best_obj = obj[i]
            best = (z_nf[i].copy(), float(flat_targets[i]))

    # trace inactive: free variables sit at their unconstrained minimum
    z_in = np.where(masks, pref[None, :], r_nf[None, :])
    feas_in = np.all(~masks | (pref >= r_nf)[None, :], axis=1)
    t_fixed = z_in @ w_nf
    need_lo = np.where(np.isfinite(c_l), c_l - t_fixed, -np.inf)
    need_hi = np.where(np.isfinite(c_u), c_u - t_fixed, np.inf)
    inter_lo = np.maximum(need_lo, lo)
    inter_hi = np.minimum(need_hi, hi)
    feas_in &= inter_lo <= inter_hi
    flat_in = np.clip(base_fl, inter_lo, inter_hi)
    try_candidates(z_in, feas_in, flat_in)

    # trace pinned at a finite bound: flats sit at their lower bounds
    for c in {c_l, c_u}:
        if not np.isfinite(c):
            continue
        c_eff = c - base_fl
        at_bound = np.where(masks, 0.0, r_nf[None, :])
        c_tilde = c_eff - at_bound @ w_nf
        denom = masks @ (w_nf**2 / (2.0 * a_nf**2)) if nf else np.zeros(masks.shape[0])
        num = masks @ (w_nf * pref) - c_tilde
        with np.errstate(divide="ignore", invalid="ignore"):
            lam = np.where(denom > 0, num / denom, 0.0)
        z_ac = np.where(
            masks,
            pref[None, :] - lam[:, None] * (w_nf / (2.0 * a_nf**2))[None, :],
            r_nf[None, :],
        )
        feas_ac = np.all(~masks | (z_ac >= r_nf[None, :] - 1e-13), axis=1)
        feas_ac &= (denom > 0) | (np.abs(c_tilde) <= 1e-12 * (1.0 + abs(c)))
        try_candidates(z_ac, feas_ac, np.full(masks.shape[0], base_fl))

    if best is None:
        raise FmoError("qp_reference found no feasible candidate")

    z = np.zeros(n)
    z[nf_idx] = best[0]
    if fl_idx.size:
        z_fl = r[fl_idx].astype(float).copy()
        delta = best[1] - base_fl
        if abs(delta) > 0:
            w_fl = w[fl_idx]
            pick = np.flatnonzero(w_fl > 0) if delta > 0 else np.flatnonzero(w_fl < 0)
            j = pick[0]
            z_fl[j] += delta / w_fl[j]
        z[fl_idx] = z_fl
    return z


def kkt_residual_standard(b, w, c_l, c_u, z, lam_l, lam_u) -> float:
    """Max KKT violation of a standard-form solution (A = I, r = 0)."""
    b = np.asarray(b, dtype=float)
    w = np.asarray(w, dtype=float)
    z = np.asarray(z, dtype=float)
    t = float(np.dot(w, z))
    cscale = 1.0 + max(abs(c_l) if np.isfinite(c_l) else 0.0, abs(c_u) if np.isfinite(c_u) else 0.0)
    res = [0.0]
    res.append(float(np.max(-z, initial=0.0)))
    if np.isfinite(c_l):
        res.append(max(c_l - t, 0.0) / cscale)
        res.append(abs(lam_l * (c_l - t)) / cscale)
    if np.isfinite(c_u):
        res.append(max(t - c_u, 0.0) / cscale)
        res.append(abs(lam_u * (t - c_u)) / cscale)
    res.append(max(-lam_l, 0.0))
    res.append(max(-lam_u, 0.0))
    g = 2.0 * (z - b) + (lam_u - lam_l) * w
    scale = 1.0 + np.abs(b) + abs(lam_u - lam_l) * np.abs(w)
    pos = z > 0
    if np.any(pos):
        res.append(float(np.max(np.abs(g[pos]) / scale[pos])))
    if np.any(~pos):
        res.append(float(np.max(np.maximum(-g[~pos], 0.0) / scale[~pos])))
    return max(res)


def spectral_kkt_reference(U, c_l, c_u, r):
    """Projection onto {trace window, eigenvalue floor} via enumeration.

    Eigendecomposes the symmetrized input and solves the spectrum problem
    with ``qp_reference`` (unit weights), then recomposes.
    """
    U = np.asarray(U, dtype=float)
    W = 0.5 * (U + U.T)
    lam, Q = np.linalg.eigh(W)
    n = lam.shape[0]
    prob = BoxTraceLS(
        a_diag=np.ones(n), b=lam, w=np.ones(n), r_lb=np.full(n, r), c_l=c_l, c_u=c_u
    )
    omega = qp_reference(prob)
    # eigenvalue matching: like-ordered spectra give the Frobenius-nearest match
    assert np.all(np.diff(omega[np.argsort(lam, kind="stable")]) >= -1e-12)
    return (Q * omega) @ Q.T


def fd_check(f, point, direction, analytic_dd, step: float = 1e-6) -> float:
    """Relative error between a central difference and an analytic value."""
    point = np.asarray(point, dtype=float)
    direction = np.asarray(direction, dtype=float)
    hi = f(point + step * direction)
    lo = f(point - step * direction)
    fd = (hi - lo) / (2.0 * step)
    scale = max(abs(fd), abs(analytic_dd))
    if scale < 1e-12:
        return abs(fd - analytic_dd)
    return abs(fd - analytic_dd) / scale


# -- dense references for the stiffness operator -------------------------


def dense_strain_matrices(instance):
    """Dense (nig, k, N) strain operators per element, built entry by entry."""
    out = []
    for cols, values in zip(instance.cols_packed, instance.B_packed):
        dense = np.zeros((instance.nig, instance.k, instance.N))
        for ig, row, c in zip(*np.nonzero(values)):
            dense[ig, row, cols[c]] += values[ig, row, c]
        out.append(dense)
    return out


def singular_sq_reference(instance):
    """(lam_min, deficient, top_sv) from the dense SVD of the stacked B.

    Stacks every element/integration-point strain operator into one
    (m*nig*k) x N matrix; singular values with sigma^2 at or below
    max(rows, N) * eps * sigma_max^2 count as zero, the rule the bound
    data apply to the eigenvalues of B^T B (the finest a Gram-based
    computation resolves).
    """
    B = np.concatenate([d.reshape(-1, instance.N) for d in dense_strain_matrices(instance)])
    sv = np.linalg.svd(B, compute_uv=False)
    nonzero = sv[sv**2 > max(B.shape) * np.finfo(float).eps * sv[0] ** 2]
    if nonzero.size == 0:
        raise FmoError("strain operator is identically zero")
    return float(nonzero[-1] ** 2), nonzero.size < min(B.shape), float(sv[0])


def dense_stiffness_reference(instance, E_blocks):
    """A(E) assembled densely with explicit loops (test reference only).

    Each congruence B^T E_i B is added on the DOFs element i's dense
    strain operator touches, the only rows and columns where it is nonzero.
    """
    E_blocks = np.asarray(E_blocks, dtype=float)
    A = np.zeros((instance.N, instance.N))
    for i, dense in enumerate(dense_strain_matrices(instance)):
        touched = np.flatnonzero(np.any(dense != 0.0, axis=(0, 1)))
        for ig in range(instance.nig):
            B = dense[ig][:, touched]
            A[np.ix_(touched, touched)] += B.T @ E_blocks[i] @ B
    return A


def compliances_reference(instance, E_blocks):
    """<A(E)^{-1} f_j, f_j> by dense LU, one load at a time."""
    A = dense_stiffness_reference(instance, E_blocks)
    sol = np.linalg.solve(A, instance.loads.T)
    return np.einsum("nj,jn->j", sol, instance.loads)


def min_linear_over_block_reference(s, rho_l, rho_u, r):
    """min <s, E> over one feasible block, via an LP on the spectrum.

    By the eigenvalue-matching argument the minimum pairs the spectrum of E
    against the spectrum of s in opposite order, so an LP over the
    eigenvalues of E is exact.
    """
    s = np.asarray(s, dtype=float)
    k = s.shape[0]
    lam = np.linalg.eigvalsh(s)  # ascending
    # match omega (descending) against lam (ascending): decision vars omega
    c = lam
    A_ub = np.vstack([np.ones(k), -np.ones(k)])
    b_ub = np.array([rho_u, -rho_l])
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=[(r, None)] * k, method="highs")
    if not res.success:
        raise FmoError(f"LP reference failed: {res.message}")
    return float(res.fun)


def max_prox_over_block_reference(rho_l, rho_u, r, k, samples=2000, seed=0):
    """max 1/2 ||E - r I||_F^2 over one feasible block.

    The maximand depends only on the excess spectrum lam = eig(E) - r >= 0
    with sum in [rho_l - k r, rho_u - k r]; extreme points (all excess on
    one eigendirection) are tried alongside random interior samples.
    """
    rng = np.random.default_rng(seed)
    best = 0.0
    for trace in (rho_l, rho_u):
        extra = trace - k * r
        best = max(best, 0.5 * extra**2)  # all excess on one eigendirection
        best = max(best, 0.5 * extra**2 / k)  # spread evenly
    for _ in range(samples):
        u = rng.random(k)
        total = rho_l + rng.random() * (rho_u - rho_l) - k * r
        lam = u / u.sum() * total
        best = max(best, 0.5 * float(np.sum(lam**2)))
    return best


# -- straight-line reference of one dual-averaging step ------------------


def da_step_reference(instance, E_blocks, x, s_E, s_x, scheme, tau, sigma, beta_hat_next):
    """One DA iteration written as plain loops over the printed formulas.

    Returns ``(E_next, x_next, s_E_next, s_x_next, alpha)``.  The material
    subproblem is solved through ``spectral_kkt_reference``; the only code
    shared with the production path is numpy itself.
    """
    E_blocks = np.asarray(E_blocks, dtype=float)
    x = np.asarray(x, dtype=float)
    m, k = instance.m, instance.k
    L = instance.L
    gamma, eta, r = instance.gamma, instance.eta, instance.r
    dense = dense_strain_matrices(instance)

    quad = np.zeros(L)
    for j in range(L):
        for i in range(m):
            for ig in range(instance.nig):
                v = dense[i][ig] @ x[j]
                quad[j] += v @ (E_blocks[i] @ v)
    in_R = quad > 1e-14 * np.einsum("jn,jn->j", x, x)

    g_E = np.tile(np.eye(k), (m, 1, 1))
    for i in range(m):
        for j in range(L):
            if not in_R[j]:
                continue
            acc = np.zeros((k, k))
            for ig in range(instance.nig):
                v = dense[i][ig] @ x[j]
                acc += np.outer(v, v)
            g_E[i] -= np.sqrt(gamma) * acc / np.sqrt(quad[j])

    g_x = np.zeros((L, instance.N))
    for j in range(L):
        if in_R[j]:
            Ax = np.zeros(instance.N)
            for i in range(m):
                for ig in range(instance.nig):
                    B = dense[i][ig]
                    Ax += B.T @ (E_blocks[i] @ (B @ x[j]))
            g_x[j] = 2.0 * instance.loads[j] - 2.0 * np.sqrt(gamma) * Ax / np.sqrt(quad[j])
        else:
            g_x[j] = 2.0 * instance.loads[j]

    if scheme == "simple":
        alpha = 1.0
    else:
        norm2 = np.sum(g_E**2) / tau + np.sum(g_x**2) / (1.0 - tau)
        alpha = 1.0 / np.sqrt(norm2)

    s_E_next = s_E + alpha * g_E
    s_x_next = s_x - alpha * g_x

    beta_next = sigma * beta_hat_next
    x_next = np.zeros_like(x)
    for j in range(L):
        nrm = np.linalg.norm(s_x_next[j])
        if nrm > 0:
            x_next[j] = -min(eta / nrm, 1.0 / (beta_next * (1.0 - tau))) * s_x_next[j]

    E_next = np.zeros_like(E_blocks)
    for i in range(m):
        target = r * np.eye(k) - s_E_next[i] / (beta_next * tau)
        E_next[i] = spectral_kkt_reference(
            target, float(instance.rho_l[i]), float(instance.rho_u[i]), r
        )
    return E_next, x_next, s_E_next, s_x_next, alpha
