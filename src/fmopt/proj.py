"""Closed-form projection operators.

Two related problems are solved here in closed form:

* a least squares problem with nonnegative variables and a two-sided
  linear constraint (``solve_box_trace_ls``, after ``reduce_ls`` brings a
  general diagonal instance to standard form), and
* the projection of a symmetric matrix onto the set with bounded trace
  and an eigenvalue floor (``project_spectral``), which reduces to the
  vector problem on the eigenvalues.

``proj_sym_l`` / ``proj_sym_g`` are the per-block eigenvalue scans of the
material update, kept as the reference ``project_blocks`` is checked
against.  ``project_blocks`` is the batched update of the solver hot loop:
a certified trace shift for most blocks, and for the rest a closed form
when k = 3 (``_trig_eigenvalues``, shared with ``lambda_min``) or one
batched eigendecomposition otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import FmoError, InvalidInstance


@dataclass(frozen=True)
class BoxTraceLS:
    """min ||A z - b||^2  s.t.  c_l <= <w, z> <= c_u,  z >= r_lb, A diagonal.

    ``c_l`` / ``c_u`` may be ``-inf`` / ``+inf``; never encode an unbounded
    side as a large finite float.
    """

    a_diag: np.ndarray
    b: np.ndarray
    w: np.ndarray
    r_lb: np.ndarray
    c_l: float
    c_u: float

    def __post_init__(self):
        for name in ("a_diag", "b", "w", "r_lb"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not (self.a_diag.shape == self.b.shape == self.w.shape == self.r_lb.shape):
            raise InvalidInstance("a_diag, b, w, r_lb must share one shape")
        if not self.c_l <= self.c_u:
            raise InvalidInstance(f"need c_l <= c_u, got ({self.c_l}, {self.c_u})")

    @property
    def n(self) -> int:
        return self.b.shape[0]


@dataclass(frozen=True)
class SpectralProjection:
    """Projection of a square matrix onto {trace in [c_l, c_u], eig >= r}."""

    U: np.ndarray
    c_l: float
    c_u: float
    r: float

    def __post_init__(self):
        U = np.asarray(self.U, dtype=float)
        object.__setattr__(self, "U", U)
        if U.ndim != 2 or U.shape[0] != U.shape[1]:
            raise InvalidInstance(f"U must be square, got {U.shape}")
        n = U.shape[0]
        if not self.c_u >= max(n * self.r, self.c_l):
            raise InvalidInstance(
                f"need c_u >= max(n*r, c_l): c_u={self.c_u}, n*r={n * self.r}, c_l={self.c_l}"
            )

    @property
    def n(self) -> int:
        return self.U.shape[0]


@dataclass
class OpCounter:
    """Arithmetic-operation tally for the scan solver (upper-bound audit)."""

    ops: int = 0

    def add(self, n: int = 1) -> None:
        self.ops += n


@dataclass(frozen=True)
class ReducedLS:
    """Standard-form instance (A = I, r = 0, w_i != 0) plus the recovery map."""

    b: np.ndarray
    w: np.ndarray
    c_l: float
    c_u: float
    keep_idx: np.ndarray  # indices of standardized variables in the original
    scale: np.ndarray  # |a_ii| of the kept variables
    shift: np.ndarray  # r_i of the kept variables
    fixed_idx: np.ndarray  # zero-diagonal variables solved during reduction
    fixed_val: np.ndarray
    free_idx: np.ndarray  # w == 0 post-reduction, solved as [b]_+
    free_val: np.ndarray
    n_original: int

    def recover(self, z_std: np.ndarray) -> np.ndarray:
        """Map a standard-form solution back to original variables."""
        z = np.zeros(self.n_original)
        z[self.keep_idx] = z_std / self.scale + self.shift
        z[self.fixed_idx] = self.fixed_val
        z[self.free_idx] = self.free_val
        return z


def reduce_ls(problem: BoxTraceLS) -> ReducedLS:
    """Bring a general diagonal instance to the standard form.

    Zero-diagonal variables cost nothing in the objective and are assigned
    directly (three cases on the sign of w_i); negative diagonals are sign
    flipped; the bound shift z -> z - r and the scaling by the diagonal
    produce A = I, r = 0.  Variables whose scaled weight vanishes are
    solved immediately as [b]_+.
    """
    a = problem.a_diag.copy()
    b = problem.b.copy()
    w = problem.w
    r = problem.r_lb
    c_l, c_u = problem.c_l, problem.c_u
    n = problem.n

    nonzero = a != 0.0
    # Preferred values of the regular variables, used by the assignment
    # rules of the zero-diagonal ones.
    pref = np.where(nonzero, np.maximum(np.divide(b, a, out=np.zeros_like(b), where=nonzero), r), 0.0)
    pref_trace = float(np.dot(w[nonzero], pref[nonzero]))

    fixed_idx, fixed_val = [], []
    for i in np.flatnonzero(~nonzero):
        wi = w[i]
        if wi == 0.0:
            zi = r[i]
        elif wi > 0.0:
            gap = max(c_l - pref_trace, 0.0) if np.isfinite(c_l) else 0.0
            zi = max(gap / wi, r[i])
        else:
            gap = max(pref_trace - c_u, 0.0) if np.isfinite(c_u) else 0.0
            zi = max(-gap / wi, r[i])
        fixed_idx.append(i)
        fixed_val.append(zi)
        if np.isfinite(c_l):
            c_l -= wi * zi
        if np.isfinite(c_u):
            c_u -= wi * zi

    flip = nonzero & (a < 0.0)
    a[flip] = -a[flip]
    b[flip] = -b[flip]

    keep = np.flatnonzero(nonzero)
    ak, bk, wk, rk = a[keep], b[keep], w[keep], r[keep]
    b_std = bk - ak * rk  # objective becomes ||z' - (b - A r)||
    w_std = wk / ak
    shift_c = float(np.dot(wk, rk))
    if np.isfinite(c_l):
        c_l -= shift_c
    if np.isfinite(c_u):
        c_u -= shift_c

    # w = 0 after scaling: unconstrained nonnegative LS, solved directly.
    zero_w = w_std == 0.0
    free_idx = keep[zero_w]
    free_std = np.maximum(b_std[zero_w], 0.0)
    free_val = free_std / ak[zero_w] + rk[zero_w]

    sel = ~zero_w
    return ReducedLS(
        b=b_std[sel],
        w=w_std[sel],
        c_l=c_l,
        c_u=c_u,
        keep_idx=keep[sel],
        scale=ak[sel],
        shift=rk[sel],
        fixed_idx=np.asarray(fixed_idx, dtype=int),
        fixed_val=np.asarray(fixed_val, dtype=float),
        free_idx=free_idx,
        free_val=free_val,
        n_original=n,
    )


def _sorted_indices(idx, ratio, descending, counter):
    """Insertion sort on the ratio with index tie-break; counts comparisons."""
    order = list(idx)
    key = (lambda i: (-ratio[i], i)) if descending else (lambda i: (ratio[i], i))
    for j in range(1, len(order)):
        item = order[j]
        pos = j
        while pos > 0:
            counter.add()
            if key(order[pos - 1]) > key(item):
                order[pos] = order[pos - 1]
                pos -= 1
            else:
                break
        order[pos] = item
    return order


def solve_box_trace_ls(b, w, c_l, c_u, counter: OpCounter | None = None):
    """Solve the standard-form problem min ||z - b||^2, <w,z> in [c_l,c_u], z >= 0.

    Requires all ``w_i != 0``.  Returns ``(z, lam_l, lam_u)`` where at most
    one multiplier is nonzero and ``z = [b - ((lam_u - lam_l)/2) w]_+`` on
    the final support set.

    The support set is built by two alternating scans over the sign classes
    of (w_i, b_i), run until neither adds an index.  The operation counter
    follows the source cost model of the scans (sorting charged at its
    actual comparison count; unit weights skip the weight bookkeeping they
    make unnecessary).
    """
    b = np.asarray(b, dtype=float)
    w = np.asarray(w, dtype=float)
    n = b.shape[0]
    if np.any(w == 0.0):
        raise InvalidInstance("standard form requires w_i != 0 (run reduce_ls first)")
    if not c_l <= c_u:
        raise InvalidInstance("need c_l <= c_u")
    counter = counter if counter is not None else OpCounter()
    unit_w = bool(np.all(w == 1.0))

    trace_plus = float(np.dot(w, np.maximum(b, 0.0)))
    counter.add((2 * n - 1) if unit_w else (3 * n - 1))
    counter.add(2)  # compare with c_l and c_u
    if c_l <= trace_plus <= c_u:
        z = np.maximum(b, 0.0)
        return z, 0.0, 0.0

    s1 = [i for i in range(n) if w[i] > 0 and b[i] >= 0]
    s2 = [i for i in range(n) if w[i] > 0 and b[i] < 0]
    s3 = [i for i in range(n) if w[i] < 0 and b[i] >= 0]
    s4 = [i for i in range(n) if w[i] < 0 and b[i] < 0]
    if unit_w:
        ratio = b
    else:
        counter.add(2 * n)  # class split and the ratios b_i / w_i
        ratio = b / w

    if trace_plus > c_u:
        grow_desc, grow_asc = s1, s4  # candidates that may join the support
        seed = s3
        bound = c_u
        upper = True
    else:
        grow_desc, grow_asc = s2, s3
        seed = s1
        bound = c_l
        upper = False

    order_desc = _sorted_indices(grow_desc, ratio, True, counter)
    order_asc = _sorted_indices(grow_asc, ratio, False, counter)

    support = list(seed)
    T = float(np.dot(w[seed], b[seed])) - bound
    v = float(np.dot(w[seed], w[seed]))
    counter.add((2 * len(seed) if unit_w else 4 * len(seed)) + 1)
    j = 0  # next candidate in order_desc
    l = 0  # next candidate in order_asc

    def admit(i):
        nonlocal T, v
        support.append(i)
        T += w[i] * b[i]
        v += w[i] * w[i]
        counter.add(2 if unit_w else 4)

    # Degenerate start: empty seed with a zero shifted bound makes both
    # strict scan tests read 0 < 0 / 0 > 0; the support cannot stay empty
    # here (the branch test already excluded [b]_+), so seed it with the
    # top-ranked candidate.  A wrongly seeded index lands at exactly zero.
    if v == 0.0 and T == 0.0:
        if order_desc:
            admit(order_desc[0])
            j = 1
        else:
            admit(order_asc[0])
            l = 1

    changed = True
    while changed:
        changed = False
        while j < len(order_desc):
            i = order_desc[j]
            counter.add(2)
            if v * ratio[i] > T:
                admit(i)
                j += 1
                changed = True
            else:
                break
        while l < len(order_asc):
            i = order_asc[l]
            counter.add(2)
            if v * ratio[i] < T:
                admit(i)
                l += 1
                changed = True
            else:
                break

    z = np.zeros(n)
    if support:
        mult = T / v
        sup = np.asarray(support, dtype=int)
        z[sup] = b[sup] - mult * w[sup]
        counter.add((len(support) if unit_w else 2 * len(support)) + 1)
        np.maximum(z, 0.0, out=z)
    else:
        mult = 0.0
    if upper:
        return z, 0.0, 2.0 * mult
    return z, -2.0 * mult, 0.0


def solve_ls(problem: BoxTraceLS, counter: OpCounter | None = None):
    """Reduce a general instance, solve it, and map back.

    Returns ``(z, lam_l, lam_u)`` in original variables; the trace
    multipliers carry over from the standard form unchanged.
    """
    red = reduce_ls(problem)
    if red.b.shape[0] == 0:
        return red.recover(np.zeros(0)), 0.0, 0.0
    z_std, lam_l, lam_u = solve_box_trace_ls(red.b, red.w, red.c_l, red.c_u, counter)
    return red.recover(z_std), lam_l, lam_u


# -- spectral projection -------------------------------------------------


def project_spectral(problem: SpectralProjection):
    """Project a matrix onto {Z symmetric : tr in [c_l, c_u], eig_min >= r}.

    Non-symmetric real input is symmetrized as (U + U^T)/2 first.  The
    result shares the eigenbasis of the symmetrized input, with the
    spectrum adjusted by one of three cases on the clipped trace.
    """
    W = 0.5 * (problem.U + problem.U.T)
    lam, Q = np.linalg.eigh(W)
    omega = _project_spectra(lam[None], problem.c_l, problem.c_u, problem.r)[0]
    Z = (Q * omega) @ Q.T
    return 0.5 * (Z + Z.T)


def _project_spectra(mu: np.ndarray, c_l, c_u, r: float) -> np.ndarray:
    """Three-case update of each row of ``mu`` (n, k); keeps the order within a row.

    A row whose clipped trace sum max(mu, r) lies in [c_l, c_u] is clipped
    at r.  Otherwise the row is shifted toward the violated bound by the
    trace multiplier of the longest admissible prefix of its descending
    spectrum, then clipped.  ``c_l`` and ``c_u`` are scalars or (n,).
    """
    n, k = mu.shape
    clipped = np.maximum(mu, r)
    t0 = clipped.sum(axis=1)
    omega = clipped.copy()
    for bound, mask in ((c_u, t0 > c_u), (c_l, t0 < c_l)):
        if not np.any(mask):
            continue
        mu_sub = mu[mask]
        target = np.broadcast_to(bound, (n,))[mask]
        mu_desc = -np.sort(-mu_sub, axis=1)
        csum = np.cumsum(mu_desc, axis=1)
        sizes = np.arange(1, k + 1)[None, :]
        shift = (target[:, None] - csum - (k - sizes) * r) / sizes
        member = mu_desc + shift > r
        # support size = longest prefix of admissible members
        grow = np.concatenate(
            [np.ones((mu_sub.shape[0], 1), dtype=bool), member[:, 1:]], axis=1
        )
        q = np.cumprod(grow, axis=1).sum(axis=1)
        phi = shift[np.arange(mu_sub.shape[0]), q - 1]
        omega[mask] = np.maximum(mu_sub + phi[:, None], r)
    return omega


def proj_sym_l(lam, beta_tau: float, rho_u: float, k: int, r: float):
    """Spectrum of the material update when the trace cap binds.

    ``lam`` are the eigenvalues of the accumulated dual block s; requires
    the case condition sum of negative eigenvalues < beta_tau*(k r - rho_u).
    The scan admits the most negative eigenvalues first.
    """
    lam = np.asarray(lam, dtype=float)
    neg = np.flatnonzero(lam < 0)
    neg_sum = float(lam[neg].sum())
    if not neg_sum < beta_tau * (k * r - rho_u):
        raise FmoError(
            "trace-cap case condition violated: "
            f"sum of negative eigenvalues {neg_sum:.6g} >= {beta_tau * (k * r - rho_u):.6g}"
        )
    order = neg[np.argsort(lam[neg], kind="stable")]  # ascending, most negative first
    T = beta_tau * (rho_u - k * r) + lam[order[0]]
    q = 1
    while q < order.shape[0] and q * lam[order[q]] < T:
        T += lam[order[q]]
        q += 1
    P = order[:q]
    omega = np.full(lam.shape[0], r)
    omega[P] = r - lam[P] / beta_tau + T / (beta_tau * q)
    return omega


def proj_sym_g(lam, beta_tau: float, rho_l: float, k: int, r: float):
    """Spectrum of the material update when the trace floor binds.

    Requires the case condition sum of negative eigenvalues >
    beta_tau*(k r - rho_l).  Non-positive eigenvalues always join the
    support; positive ones are admitted smallest first.
    """
    lam = np.asarray(lam, dtype=float)
    neg_sum = float(lam[lam < 0].sum())
    if not neg_sum > beta_tau * (k * r - rho_l):
        raise FmoError(
            "trace-floor case condition violated: "
            f"sum of negative eigenvalues {neg_sum:.6g} <= {beta_tau * (k * r - rho_l):.6g}"
        )
    pos = np.flatnonzero(lam > 0)
    order = pos[np.argsort(lam[pos], kind="stable")]  # ascending positives
    nonpos = np.flatnonzero(lam <= 0)
    if nonpos.shape[0] == 0:
        # every eigenvalue positive: seed with the smallest one
        support = [order[0]]
        T = beta_tau * (rho_l - k * r) + lam[order[0]]
        q = 1
        start = 1
    else:
        support = list(nonpos)
        T = beta_tau * (rho_l - k * r) + neg_sum
        q = nonpos.shape[0]
        start = 0
    for idx in order[start:]:
        if q * lam[idx] < T:
            support.append(idx)
            T += lam[idx]
            q += 1
        else:
            break
    sup = np.asarray(support, dtype=int)
    omega = np.full(lam.shape[0], r)
    omega[sup] = r - lam[sup] / beta_tau + T / (beta_tau * q)
    return omega


def project_material_spectrum(lam, beta_tau: float, rho_l: float, rho_u: float, k: int, r: float):
    """Dispatch the three-case material spectrum update for one block."""
    lam = np.asarray(lam, dtype=float)
    neg_sum = float(lam[lam < 0].sum())
    lo = beta_tau * (k * r - rho_u)
    hi = beta_tau * (k * r - rho_l)
    if neg_sum < lo:
        return proj_sym_l(lam, beta_tau, rho_u, k, r)
    if neg_sum > hi:
        return proj_sym_g(lam, beta_tau, rho_l, k, r)
    omega = np.full(lam.shape[0], r)
    neg = lam < 0
    omega[neg] = r - lam[neg] / beta_tau
    return omega


def trace_spread(blocks):
    """Per-block mean eigenvalue and spread of symmetric (k, k, m) blocks.

    ``mean = tr/k`` and ``spread = sqrt((k-1)/k) ||S - mean I||_F`` bound
    the spectrum: mean - spread <= lambda_min and lambda_max <=
    mean + spread (Wolkowicz & Styan, Bounds for eigenvalues using traces,
    1980).  Computed elementwise along the element axis.
    """
    k = blocks.shape[0]
    diag = np.arange(k)
    mean = np.trace(blocks) / k
    dev = blocks.copy()
    dev[diag, diag] -= mean
    return mean, np.sqrt((k - 1) / k * np.einsum("ijq,ijq->q", dev, dev))


# blocks with cos(3 phi) within this of 1 (a double smallest eigenvalue) or
# of -1 (a double largest one) go to eigvalsh/eigh when the caller needs that
# end's eigenvalue; on the test spectra the closed forms stay at rounding
# level outside it (see test_proj)
DOUBLE_ROOT_MARGIN = 1e-6


def _trig_eigenvalues(blocks, with_max: bool):
    """End eigenvalues of symmetric (3, 3, m) blocks by the trigonometric form.

    With q = tr/3, p = ||S - qI||_F / sqrt(6) and cos(3 phi) = det((S - qI)/p) / 2,
    the eigenvalues are q + 2p cos(phi + 2 pi j/3): j = 1 gives the smallest,
    j = 0 the largest, computed elementwise along the element axis; p = 0
    means S = qI.  Returns ``(roots, q, unresolved)``: ``roots`` holds the
    smallest eigenvalue and, with ``with_max``, the largest; ``unresolved``
    masks the blocks the closed form cannot give to rounding accuracy.  Near
    a double root at an end, cos(3 phi) -> 1 (smallest) or -1 (largest) and
    acos turns a rounding error e in the cosine into sqrt(e) in that end's
    eigenvalue (Kopp, arXiv:physics/0610206), so blocks within
    ``DOUBLE_ROOT_MARGIN`` of it are unresolved, as are non-finite blocks.
    """
    q = np.trace(blocks) / 3.0
    d0, d1, d2 = blocks[0, 0] - q, blocks[1, 1] - q, blocks[2, 2] - q
    # move the rounding left in q into q, so the deviator is trace-free and
    # t I gives p = 0 whether or not 3t/3 rounds back to t
    shift = (d0 + d1 + d2) / 3.0
    q, d0, d1, d2 = q + shift, d0 - shift, d1 - shift, d2 - shift
    a01, a02, a12 = blocks[0, 1], blocks[0, 2], blocks[1, 2]
    p = np.sqrt((d0 * d0 + d1 * d1 + d2 * d2 + 2.0 * (a01 * a01 + a02 * a02 + a12 * a12)) / 6.0)
    isotropic = p == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        # the deviator scaled to unit size, so det neither underflows nor
        # overflows (blocks far from the loads deviate from qI by 1e-108)
        d0, d1, d2, a01, a02, a12 = (x / p for x in (d0, d1, d2, a01, a02, a12))
        cos3 = 0.5 * (
            d0 * (d1 * d2 - a12 * a12) - a01 * (a01 * d2 - a12 * a02) + a02 * (a01 * a12 - d1 * a02)
        )
        angle = np.arccos(np.maximum(cos3, -1.0)) / 3.0
        roots = [q + 2.0 * p * np.cos(angle + 2.0 * np.pi / 3.0)]
        if with_max:
            roots.append(q + 2.0 * p * np.cos(angle))
    for root in roots:
        root[isotropic] = q[isotropic]
    # the negated tests also catch NaN cosines (non-finite blocks)
    unresolved = ~(cos3 < 1.0 - DOUBLE_ROOT_MARGIN)
    if with_max:
        unresolved |= ~(cos3 > DOUBLE_ROOT_MARGIN - 1.0)
    return roots, q, unresolved & ~isotropic


def lambda_min(blocks):
    """Smallest eigenvalue of each symmetric (k, k, m) block, shape (m,).

    For k = 3 the trigonometric form of the characteristic cubic
    (``_trig_eigenvalues``); blocks near a double smallest eigenvalue,
    non-finite ones and every block when k != 3 go to ``eigvalsh``.
    """
    k = blocks.shape[0]
    if k != 3:
        return np.linalg.eigvalsh(np.moveaxis(blocks, -1, 0))[:, 0]
    (out,), _, unresolved = _trig_eigenvalues(blocks, with_max=False)
    rest = np.flatnonzero(unresolved)
    if rest.size:
        out[rest] = np.linalg.eigvalsh(np.moveaxis(blocks[:, :, rest], -1, 0))[:, 0]
    return out


def project_blocks(s_blocks: np.ndarray, beta_tau: float, rho_l, rho_u, r: float):
    """Batched material update: project r*I - s/(beta*tau) blockwise.

    Equivalent to the per-block three-case spectrum update (cross-checked
    in the tests).  Most blocks need no eigenvectors: with Y = r*I - s/bt
    and T its trace clipped to [rho_l, rho_u], the shifted point
    Z = Y + ((T - tr Y)/k) I is the projection whenever lambda_min(Z) >= r
    (the trace multiplier alone satisfies the KKT conditions).  That is
    certified by the trace/Frobenius bound on lambda_max(s)
    (Wolkowicz-Styan), computed elementwise on (k, k, m) slices.  The
    blocks it cannot certify are gathered into (k, k, n) and solved in
    closed form when k = 3 (``_project_blocks_3x3``), through one batched
    eigendecomposition otherwise (``_project_blocks_eigh``).  ``s_blocks``
    is (m, k, k) in any layout; the result is an (m, k, k) view of
    (k, k, m) storage, exactly symmetric.  It is built in one pass over the
    blocks, (s + s^T) * (-1/(2 bt)) added into a fresh array and scaled in
    place, then the diagonal shift, so the certified blocks are symmetric
    by construction; only the gathered solves are symmetrized, on the
    gathered (k, k, n) result.
    """
    s = np.moveaxis(np.asarray(s_blocks, dtype=float), 0, -1)
    k, _, m = s.shape
    rho_l = np.broadcast_to(np.asarray(rho_l, dtype=float), (m,))
    rho_u = np.broadcast_to(np.asarray(rho_u, dtype=float), (m,))
    diag = np.arange(k)
    mean, spread = trace_spread(s)
    tr_y = k * (r - mean / beta_tau)
    shift = (np.clip(tr_y, rho_l, rho_u) - tr_y) / k
    out = np.add(s, s.transpose(1, 0, 2), out=np.empty((k, k, m)))
    out *= -0.5 / beta_tau
    out[diag, diag] += r + shift
    # lambda_max(s) <= mean + spread, so lambda_min(Z) >= r where this holds;
    # the negated test also sends non-finite blocks to the solves
    scan = np.flatnonzero(~(mean + spread <= shift * beta_tau))
    if scan.size:
        solve = _project_blocks_3x3 if k == 3 else _project_blocks_eigh
        solved = solve(s[:, :, scan], beta_tau, rho_l[scan], rho_u[scan], r)
        out[:, :, scan] = 0.5 * (solved + solved.transpose(1, 0, 2))
    return np.moveaxis(out, -1, 0)


# per prefix {1..j} of a descending 3-spectrum: the count 3 - j of the
# entries left at the floor, and j
_PREFIX_FLOOR = np.array([[2.0], [1.0], [0.0]])
_PREFIX_SIZE = np.array([[1.0], [2.0], [3.0]])
# flat (row-major) positions of the four factors in the cofactor of (i, j) of
# a 3x3 matrix, a[i+1, j+1] a[i+2, j+2] - a[i+1, j+2] a[i+2, j+1] (indices
# mod 3); for a symmetric matrix row i of the cofactors is the cross product
# of the other two rows
_COFACTOR = np.array([
    [[3 * ((i + di) % 3) + (j + dj) % 3 for j in range(3)] for i in range(3)]
    for di, dj in ((1, 1), (2, 2), (1, 2), (2, 1))
])


def _project_blocks_3x3(s, beta_tau: float, rho_l, rho_u, r: float):
    """The material update of (3, 3, n) blocks in closed form, elementwise.

    With eigenvalues lam1 <= lam2 <= lam3 of s (``_trig_eigenvalues``),
    mu = r - lam/bt is the descending spectrum of Y = r*I - s/bt, and the
    trace shift phi of ``_project_spectra`` is the prefix shift of the
    longest admissible prefix of mu.  With c = #{mu_i + phi <= r} clipped
    eigenvalues the projection needs at most one eigenvector:
    c = 0: Y + phi I; c = 1: Y + phi I + (r - mu3 - phi) v3 v3^T;
    c = 2: r I + (mu1 + phi - r) v1 v1^T; c = 3: r I.  v is the largest
    cross product of two rows of s - lam I (Kopp, arXiv:physics/0610206).
    It is ill-conditioned only near a double eigenvalue, where its
    coefficient is smaller than that eigen-gap over bt, so the error stays
    at rounding level.  Blocks ``_trig_eigenvalues`` leaves unresolved go
    to ``_project_blocks_eigh``.  Returns (3, 3, n).
    """
    s = np.ascontiguousarray(s)  # the diagonal is updated through flat views
    (lam1, lam3), q, unresolved = _trig_eigenvalues(s, with_max=True)
    n = q.shape[0]
    with np.errstate(divide="ignore", invalid="ignore"):  # unresolved blocks are redone below
        mu = r - np.array([lam1, 3.0 * q - lam1 - lam3, lam3]) / beta_tau
        t0 = np.maximum(mu, r).sum(axis=0)
        bound = np.clip(t0, rho_l, rho_u)
        # shifts of the prefixes {1}, {1, 2}, {1, 2, 3} onto the bound, and the
        # longest admissible prefix; no shift where the clipped trace is inside
        shifts = (bound - np.cumsum(mu, axis=0) - _PREFIX_FLOOR * r) / _PREFIX_SIZE
        admit = mu[1:] + shifts[1:] > r
        phi = np.where(admit[0], np.where(admit[1], shifts[2], shifts[1]), shifts[0])
        phi[t0 == bound] = 0.0
        low = mu[1] + phi <= r  # c >= 2: r I plus the lam1 part
        coef = np.maximum(np.where(low, mu[0] + phi - r, r - mu[2] - phi), 0.0)
        # (s - lam I) / (lam3 - lam1) has O(1) entries, so the cross products
        # of its rows (the rows of its adjugate) neither underflow nor overflow;
        # zero where no eigenvector is needed
        scale = np.divide(1.0, lam3 - lam1, out=np.zeros(n), where=coef > 0.0)
        a = s * scale
        a.reshape(9, n)[::4] -= np.where(low, lam1, lam3) * scale  # the diagonal
        g = a.reshape(9, n)[_COFACTOR]
        cross = g[0] * g[1] - g[2] * g[3]
        norm2 = np.einsum("ijn,ijn->in", cross, cross)
        v = np.where(norm2[0] >= np.maximum(norm2[1], norm2[2]), cross[0],
                     np.where(norm2[1] >= norm2[2], cross[1], cross[2]))
        weight = np.divide(coef, norm2.max(axis=0), out=np.zeros(n), where=coef > 0.0)
        out = s * np.where(low, 0.0, -1.0 / beta_tau)
        out += weight * v[:, None] * v[None, :]
    out.reshape(9, n)[::4] += r + np.where(low, 0.0, phi)
    rest = np.flatnonzero(unresolved)
    if rest.size:
        out[:, :, rest] = _project_blocks_eigh(s[:, :, rest], beta_tau, rho_l[rest], rho_u[rest], r)
    return out


def _project_blocks_eigh(s, beta_tau: float, rho_l, rho_u, r: float):
    """The material update of (k, k, n) blocks through one batched eigendecomposition.

    Runs the vectorized trace scans on mu = r - lam/(beta*tau) and rebuilds
    Q diag(omega) Q^T elementwise on (k, k, n) storage; the solve of
    ``project_blocks`` for k != 3 and the fallback of ``_project_blocks_3x3``.
    """
    lam, Q = np.linalg.eigh(np.moveaxis(s, -1, 0))
    omega = _project_spectra(r - lam / beta_tau, rho_l, rho_u, r)
    Q = np.ascontiguousarray(np.moveaxis(Q, 0, -1))
    return np.einsum("ijq,kjq->ikq", Q * omega.T, Q)
