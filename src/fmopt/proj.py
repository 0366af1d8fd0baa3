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
when k = 3 (``_trig_eigenvalues``, shared with ``lambda_min``), near a
double eigenvalue included, or one batched eigendecomposition otherwise.
The 3x3 closed form leaves to that eigendecomposition only non-finite
blocks and those whose clip decision the split of a close eigenvalue pair
leaves open.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .model import FmoError, InvalidInstance, elements_first, elements_last


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
    mu = lam[::-1, None]  # descending
    phi = _trace_shift(mu, problem.c_l, problem.c_u, problem.r)[2]
    Z = (Q * np.maximum(lam + phi, problem.r)) @ Q.T
    return 0.5 * (Z + Z.T)


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
    k, _, m = blocks.shape
    mean = blocks.trace() / k
    dev = blocks.copy()
    dev.reshape(k * k, m)[:: k + 1] -= mean  # the diagonal, through a flat view
    return mean, np.sqrt((k - 1) / k * np.einsum("ijq,ijq->q", dev, dev))


# blocks with cos(3 phi) within this of 1 (a double smallest eigenvalue) or
# of -1 (a double largest one) are near a double root at that end: the
# closed forms stay at rounding level outside it (see test_proj); inside it
# lambda_min sends the smallest end to eigvalsh, and _project_blocks_3x3
# settles the pair at its mean when its decision holds over the split
DOUBLE_ROOT_MARGIN = 1e-6


def _trig_eigenvalues(blocks, with_max: bool):
    """End eigenvalues of symmetric (3, 3, m) blocks by the trigonometric form.

    With q = tr/3, p = ||S - qI||_F / sqrt(6) and cos(3 phi) = det((S - qI)/p) / 2,
    the eigenvalues are q + 2p cos(phi + 2 pi j/3): j = 1 gives the smallest,
    j = 0 the largest, computed elementwise along the element axis; p = 0
    means S = qI.  Returns ``(roots, q, p, near)``: ``roots`` holds the
    smallest eigenvalue and, with ``with_max``, the largest; ``near`` holds
    one mask per end, in the same order, of the blocks whose eigenvalue at
    that end the closed form cannot give to rounding accuracy.  Near a
    double root at an end, cos(3 phi) -> 1 (smallest) or -1 (largest) and
    acos turns a rounding error e in the cosine into sqrt(e) in that end's
    eigenvalue (Kopp, arXiv:physics/0610206), so blocks within
    ``DOUBLE_ROOT_MARGIN`` of it are masked at that end.  The eigenvalue at
    the other end sits where the cosine has zero slope and stays at
    rounding level.  Non-finite blocks are masked at both ends.
    """
    q = blocks.trace() / 3.0
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
        d0, d1, d2, a01, a02, a12 = np.array([d0, d1, d2, a01, a02, a12]) / p
        cos3 = 0.5 * (
            d0 * (d1 * d2 - a12 * a12) - a01 * (a01 * d2 - a12 * a02) + a02 * (a01 * a12 - d1 * a02)
        )
        # rounding can put the cosine just outside [-1, 1] at a double root
        angle = np.arccos(np.minimum(np.maximum(cos3, -1.0), 1.0)) / 3.0
        two_p = 2.0 * p
        roots = [q + two_p * np.cos(angle + 2.0 * np.pi / 3.0)]
        if with_max:
            roots.append(q + two_p * np.cos(angle))
    if isotropic.any():
        for root in roots:
            root[isotropic] = q[isotropic]
    # the negated tests also catch NaN cosines (non-finite blocks)
    near = [~(cos3 < 1.0 - DOUBLE_ROOT_MARGIN) & ~isotropic]
    if with_max:
        near.append(~(cos3 > DOUBLE_ROOT_MARGIN - 1.0) & ~isotropic)
    return roots, q, p, near


def lambda_min(blocks):
    """Smallest eigenvalue of each symmetric (k, k, m) block, shape (m,).

    For k = 3 the trigonometric form of the characteristic cubic
    (``_trig_eigenvalues``); blocks near a double smallest eigenvalue,
    non-finite ones and every block when k != 3 go to ``eigvalsh``.
    """
    k = blocks.shape[0]
    if k != 3:
        return np.linalg.eigvalsh(elements_first(blocks))[:, 0]
    (out,), _, _, (near,) = _trig_eigenvalues(blocks, with_max=False)
    rest = near.nonzero()[0]
    if rest.size:
        out[rest] = np.linalg.eigvalsh(elements_first(blocks[:, :, rest]))[:, 0]
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
    closed form when k = 3 (``_project_blocks_3x3``, which hands the few it
    cannot settle on), through one batched eigendecomposition otherwise
    (``_project_blocks_eigh``); when no block
    is certified, s itself is solved, through views instead of a gather.
    ``s_blocks`` is (m, k, k) in any layout; ``rho_l`` and ``rho_u`` are
    positive scalars or (m,) arrays.  The result is an (m, k, k) view of
    (k, k, m) storage, exactly symmetric.  The certified blocks are built
    in one pass, (s + s^T) * (-1/(2 bt)) added into a fresh array and
    scaled in place, then the diagonal shift, so they are symmetric by
    construction; only the solves are symmetrized, as (solved + solved^T) / 2.
    """
    s = elements_last(np.asarray(s_blocks, dtype=float))
    k, _, m = s.shape
    mean, spread = trace_spread(s)
    tr_y = k * (r - mean / beta_tau)
    # np.clip, without its Python wrappers: the same values for bounds > 0
    shift = (np.minimum(np.maximum(tr_y, rho_l), rho_u) - tr_y) / k
    # lambda_max(s) <= mean + spread, so lambda_min(Z) >= r where this holds;
    # the negated test also sends non-finite blocks to the solves
    scan = (~(mean + spread <= shift * beta_tau)).nonzero()[0]
    out = np.empty((k, k, m))
    if scan.size < m:
        np.add(s, s.transpose(1, 0, 2), out=out)
        out *= -0.5 / beta_tau
        out.reshape(k * k, m)[:: k + 1] += r + shift  # the diagonal
    if scan.size:
        solve = _project_blocks_3x3 if k == 3 else _project_blocks_eigh
        rho_l, rho_u = _per_block(rho_l, m), _per_block(rho_u, m)
        idx = scan if scan.size < m else slice(None)  # a slice takes views, not copies
        solved = solve(s[:, :, idx], beta_tau, rho_l[idx], rho_u[idx], r)
        out[:, :, idx] = 0.5 * (solved + solved.transpose(1, 0, 2))
    return elements_first(out)


def _per_block(bound, m: int) -> np.ndarray:
    """A trace bound as an (m,) array: as given when it is one, else broadcast."""
    bound = np.asarray(bound, dtype=float)
    return bound if bound.shape == (m,) else np.broadcast_to(bound, (m,))


# flat (row-major) positions of the four factors in the cofactor of (i, j) of
# a 3x3 matrix, a[i+1, j+1] a[i+2, j+2] - a[i+1, j+2] a[i+2, j+1] (indices
# mod 3); for a symmetric matrix row i of the cofactors is the cross product
# of the other two rows
_COFACTOR = np.array([
    [[3 * ((i + di) % 3) + (j + dj) % 3 for j in range(3)] for i in range(3)]
    for di, dj in ((1, 1), (2, 2), (1, 2), (2, 1))
])


@functools.cache
def _prefix_terms(k: int):
    """Per prefix {1..j} of a descending k-spectrum, as (k, 1) columns: the
    count k - j of the entries left at the floor, and j."""
    size = np.arange(1.0, k + 1.0)[:, None]
    return k - size, size


def _trace_shift(mu, rho_l, rho_u, r: float):
    """The trace shift of descending spectra ``mu`` (k, n), elementwise.

    Returns ``(t0, bound, phi)``: t0 is the clipped trace sum of max(mu, r),
    ``bound`` is t0 clipped to [rho_l, rho_u], and phi is the shift of the
    longest admissible prefix of mu onto ``bound``, 0 where t0 is inside.
    The projected spectrum is max(mu + phi, r).
    """
    t0 = np.add.reduce(np.maximum(mu, r), axis=0)
    bound = np.minimum(np.maximum(t0, rho_l), rho_u)  # np.clip, as in project_blocks
    # shifts of the prefixes {1}, {1, 2}, ..., {1..k} onto the bound, and the
    # longest admissible prefix, picked from the longest down; no shift
    # where the clipped trace is inside
    floor, size = _prefix_terms(mu.shape[0])
    shifts = (bound - mu.cumsum(axis=0) - floor * r) / size
    admit = mu[1:] + shifts[1:] > r
    phi = shifts[-1]
    for j in range(admit.shape[0] - 1, -1, -1):
        phi = np.where(admit[j], phi, shifts[j])
    phi[t0 == bound] = 0.0
    return t0, bound, phi


# relative slack on the squared half-gap of a close pair: the rounding of
# cos(3 phi), at most a few eps (1 + |q|/p), with room to spare
_SPLIT_SLACK = 256.0 * float(np.finfo(float).eps)


def _project_blocks_3x3(s, beta_tau: float, rho_l, rho_u, r: float):
    """The material update of (3, 3, n) blocks in closed form, elementwise.

    With eigenvalues lam1 <= lam2 <= lam3 of s (``_trig_eigenvalues``),
    mu = r - lam/bt is the descending spectrum of Y = r*I - s/bt, and the
    trace shift phi is the prefix shift of the longest admissible prefix of
    mu (``_trace_shift``).  With
    c = #{mu_i + phi <= r} clipped eigenvalues the projection needs at most
    one eigenvector:
    c = 0: Y + phi I; c = 1: Y + phi I + (r - mu3 - phi) v3 v3^T;
    c = 2: r I + (mu1 + phi - r) v1 v1^T; c = 3: r I.  v is the largest
    cross product of two rows of s - lam I (Kopp, arXiv:physics/0610206).
    It is ill-conditioned only near a double eigenvalue, where its
    coefficient is smaller than that eigen-gap over bt, so the error stays
    at rounding level.

    Near a double root (``near`` of ``_trig_eigenvalues``) only the root at
    the far end, its eigenvector and the sum of the close pair are
    accurate.  The pair is put at its mean, and its true split is bounded
    by the half-gap sqrt(3p^2 - 3(far - q)^2/4) plus rounding slack.  At the
    largest end (lam2 ~ lam3) c = 0, 2 and 3 need only lam1, v1 and
    lam2 + lam3; at the smallest end c = 0, 1 and 3 need only lam3, v3 and
    lam1 + lam2.  Such a block is settled when its c and the window case
    of its clipped trace hold over the whole split (``_pair_settled``).
    Blocks it does not settle, and non-finite blocks, go to
    ``_project_blocks_eigh``.  Returns (3, 3, n).
    """
    s = np.ascontiguousarray(s)  # the diagonal is updated through flat views
    (lam1, lam3), q, p, (near_low, near_high) = _trig_eigenvalues(s, with_max=True)
    n = q.shape[0]
    near = (near_low | near_high).nonzero()[0]
    with np.errstate(divide="ignore", invalid="ignore"):  # unsettled blocks are redone below
        if near.size:
            high, qn, pn = near_high[near], q[near], p[near]
            far = np.where(high, lam1[near], lam3[near])
            mean = 0.5 * (3.0 * qn - far)
            split = np.sqrt(
                np.maximum(3.0 * pn * pn - 0.75 * (far - qn) ** 2, 0.0)
                + _SPLIT_SLACK * pn * (pn + np.abs(qn))
            )
            lam3[near[high]] = mean[high]
            lam1[near[~high]] = mean[~high]
        mu = r - np.array([lam1, 3.0 * q - lam1 - lam3, lam3]) / beta_tau
        t0, bound, phi = _trace_shift(mu, rho_l, rho_u, r)
        low = mu[1] + phi <= r  # c >= 2: r I plus the lam1 part
        coef = np.maximum(np.where(low, mu[0] + phi - r, r - mu[2] - phi), 0.0)
        needed = coef > 0.0
        # (s - lam I) / (lam3 - lam1) has O(1) entries, so the cross products
        # of its rows (the rows of its adjugate) neither underflow nor overflow;
        # zero where no eigenvector is needed
        scale = np.divide(1.0, lam3 - lam1, out=np.zeros(n), where=needed)
        a = s * scale
        a.reshape(9, n)[::4] -= np.where(low, lam1, lam3) * scale  # the diagonal
        g = a.reshape(9, n)[_COFACTOR]
        cross = g[0] * g[1] - g[2] * g[3]
        norm2 = np.einsum("ijn,ijn->in", cross, cross)
        norm2_12 = np.maximum(norm2[1], norm2[2])
        v = np.where(norm2[0] >= norm2_12, cross[0],
                     np.where(norm2[1] >= norm2[2], cross[1], cross[2]))
        weight = np.divide(coef, np.maximum(norm2[0], norm2_12), out=np.zeros(n), where=needed)
        out = s * np.where(low, 0.0, -1.0 / beta_tau)
        out += weight * v[:, None] * v[None, :]
        if near.size:
            settled = _pair_settled(
                mu[:, near], (t0[near], bound[near], phi[near]), split / beta_tau, high,
                rho_l[near], rho_u[near], r,
            )
            near = near[~(settled & (high ^ near_low[near]))]  # both masks: non-finite
    out.reshape(9, n)[::4] += r + np.where(low, 0.0, phi)
    if near.size:
        out[:, :, near] = _project_blocks_eigh(s[:, :, near], beta_tau, rho_l[near], rho_u[near], r)
    return out


def _pair_settled(mu, shift, split, high, rho_l, rho_u, r: float):
    """Which blocks with a close eigenvalue pair the closed form settles.

    ``mu`` (3, n) are descending spectra whose close pair, mu[1:] where
    ``high`` and mu[:2] elsewhere, sits at its mean, and ``shift`` is their
    ``_trace_shift``; the true pair lies up to ``split`` either side of the
    mean.  As the pair spreads, the clipped trace t0 grows and each admit
    test of ``_trace_shift`` changes at most once, so the window case of t0
    (below, inside, above) and the clip count c hold over the whole split
    when they agree at its two ends.  A block is settled when they agree,
    c needs no eigenvector from the pair (c != 1 at the largest end,
    c != 2 at the smallest), and the spread pair stays on its side of the
    far eigenvalue, so the spectrum stays descending.
    """
    t0, bound, phi = shift
    spread = mu + np.where(high, [[0.0], [1.0], [-1.0]], [[1.0], [-1.0], [0.0]]) * split
    t1, bound1, phi1 = _trace_shift(spread, rho_l, rho_u, r)
    c = np.add.reduce(mu + phi <= r, axis=0)
    return (
        (np.sign(t0 - bound) == np.sign(t1 - bound1))
        & (c == np.add.reduce(spread + phi1 <= r, axis=0))
        & (c != np.where(high, 1, 2))
        & (spread[0] >= spread[1]) & (spread[1] >= spread[2])
    )


def _project_blocks_eigh(s, beta_tau: float, rho_l, rho_u, r: float):
    """The material update of (k, k, n) blocks through one batched eigendecomposition.

    Shifts mu = r - lam/(beta*tau), descending since eigh's lam ascend, by
    its ``_trace_shift`` and rebuilds Q diag(omega) Q^T elementwise on
    (k, k, n) storage; the solve of ``project_blocks`` for k != 3 and the
    fallback of ``_project_blocks_3x3``.
    """
    lam, Q = np.linalg.eigh(elements_first(s))
    mu = (r - lam / beta_tau).T
    omega = np.maximum(mu + _trace_shift(mu, rho_l, rho_u, r)[2], r)
    Q = np.ascontiguousarray(elements_last(Q))
    return np.einsum("ijq,kjq->ikq", Q * omega, Q)
