"""Penalized Lagrangian, its gradient, and compliance evaluation.

The penalty term nu * sum_j ([sqrt(compliance_j) - sqrt(gamma)]_+)^2 pulls
iterates toward compliance feasibility at the cost of one dense
factorization of A(E) per iteration, so ``compliance_solves`` refuses N
above the dense threshold through ``model.check_dense_size`` (bad input,
CLI exit 2).  That gate covers penalty mode and, in ``diagnostics``, the
bound data of a rank-deficient B, and nothing else.  Each penalty step
solves for its own E; every other compliance (the CLI's report rows in
both modes, the certificate, the gamma probe) comes from
``compliances``, a banded Cholesky in reverse Cuthill-McKee order
(``assemble_band`` and ``band_cholesky``, which also factor A(I) for the
bound data) that needs no gate; its order and scatter index
(``band_layout``) depend only on the sparsity of B, so each instance
builds them on first use and keeps them (``ProblemInstance.band_layout``).

Storage rule: a penalty step forms one N x N array, the lower triangle
of A(E) in single precision (float32), scattered straight into the
Fortran-ordered storage ``spotrf`` factors and factored in place; the
solutions are then refined in double against the matrix-free operator
(LAPACK's ``dsposv`` scheme, written out because scipy does not wrap
it), so no double N x N array exists on that path.  When single precision
cannot deliver (the sums leave its range, ``spotrf`` fails, a residual is
not finite or stops shrinking, or ``REFINE_SWEEPS`` sweeps do not pass)
the step falls back to the double N x N A(E), factored in place by
``dpotrf``.  The banded solves scatter into the (bw + 1, N) lower band
``dpbtrf`` factors, in double, and factor it in place.  No factorization
copies its matrix; a factorization destroys the matrix it is handed, and
a failed double one rebuilds A(E) from E to report lambda_min.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .model import (
    DENSE_THRESHOLD,
    DualState,
    MaterialState,
    NumericalFailure,
    ProblemInstance,
    apply_B,
    apply_Bt,
    check_dense_size,
    element_gram,
    elements_first,
    element_products,
    elements_last,
    lagrangian_value,
)

# most refinement sweeps of a single-precision solve before the double
# fallback (LAPACK's dsposv allows 30; a penalty step on a fem2d mesh
# passes at its third sweep)
REFINE_SWEEPS = 10
_SINGLE_MAX = float(np.finfo(np.float32).max)
_EPS = float(np.finfo(np.float64).epsneg)  # 2^-53, LAPACK's dlamch('Epsilon')


@dataclass
class PenaltyState:
    """Compliances and static solutions at the current material state."""

    compliances: np.ndarray  # (L,)
    solutions: np.ndarray  # (N, L) columns A(E)^{-1} f_j
    violated: np.ndarray  # indices with compliance > gamma


def element_stiffness(instance: ProblemInstance, E_dense):
    """Per-element stiffnesses sum_l B_{i,l}^T E_i B_{i,l}, shape (m, n_loc, n_loc).

    The elements on the instance's shared operator go through one matmul
    of ``instance.stiffness_map`` with their E entries, the rest through
    the einsums of ``_stiffness_einsum``; either way each block's entry
    (a, b) with a <= b is computed once and mirrored, so the blocks are
    exactly symmetric.  The result is a view of (n_loc, n_loc, m) storage.
    """
    E = elements_last(E_dense)
    shared = instance.shared
    if shared is None:
        return elements_first(_stiffness_einsum(instance.B, E))
    upper, mirror = instance.stiffness_map
    k, n_loc, m = instance.k, instance.n_loc, instance.m
    ke = np.matmul(upper, E.reshape(k * k, m)).take(mirror, axis=0).reshape(n_loc, n_loc, m)
    if shared.others.size:
        ke[..., shared.others] = _stiffness_einsum(shared.B_others, E[..., shared.others])
    return elements_first(ke)


def _stiffness_einsum(B, E):
    """(n_loc, n_loc, m) stiffnesses of element-last operators ``B`` and blocks ``E``.

    Einsums along the elements, one row of the upper triangle at a time,
    each mirrored into its column.
    """
    nig, k, n_loc, m = B.shape
    EB = np.einsum("cdq,ldbq->lcbq", E, B).reshape(nig * k, n_loc, m)
    B = B.reshape(nig * k, n_loc, m)
    ke = np.empty((n_loc, n_loc, m))
    for a in range(n_loc):
        np.einsum("xq,xbq->bq", B[:, a], EB[:, a:], out=ke[a, a:])
        ke[a + 1:, a] = ke[a, a + 1:]
    return ke


def stiffness_map(instance: ProblemInstance):
    """The linear map from a shared-operator element's E to its stiffness.

    For an element on ``instance.shared``, with B_l the (k, n_loc) rows of
    integration point l, ke[a, b] = sum_cd M[(a, b), (c, d)] E[c, d] with
    M[(a, b), (c, d)] = sum_l B_l[c, a] B_l[d, b].  Returns
    ``(upper, mirror)``: ``upper`` holds the rows of M for a <= b
    (row-major over the upper triangle), shape (n_loc (n_loc + 1) / 2, k^2),
    and ``mirror`` (n_loc^2,) gives, for each entry of the row-major block,
    the row of ``upper`` that computes it, the same one for (a, b) and
    (b, a).  None when the instance has no shared operator.  It depends
    only on B, so ``element_stiffness`` reads it from
    ``instance.stiffness_map``, built once per instance; the arrays are
    read-only.
    """
    if instance.shared is None:
        return None
    nig, k, n_loc = instance.nig, instance.k, instance.n_loc
    B = instance.shared.B.reshape(nig, k, n_loc)
    full = np.einsum("lca,ldb->abcd", B, B).reshape(n_loc * n_loc, k * k)
    a, b = np.triu_indices(n_loc)
    index = np.empty((n_loc, n_loc), dtype=np.intp)
    index[a, b] = index[b, a] = np.arange(a.size)
    layout = (np.ascontiguousarray(full[a * n_loc + b]), index.ravel())
    for array in layout:
        array.flags.writeable = False
    return layout


def assemble_dense(instance: ProblemInstance, E_dense):
    """Dense A(E), Fortran-ordered: per-element congruences scattered column-major."""
    ke = element_stiffness(instance, E_dense)
    N, cols = instance.N, instance.cols_packed
    # ke[q, a, b] adds to A[cols[q, a], cols[q, b]]: flat position row + col * N in Fortran order
    idx = (cols[:, :, None] + cols[:, None, :] * N).ravel()
    return np.bincount(idx, weights=ke.ravel(), minlength=N**2).reshape(N, N, order="F")


def dense_layout(instance: ProblemInstance):
    """Scatter layout of A(E)'s lower triangle in Fortran-ordered N x N storage.

    Returns ``(inverse, position, norm_pick, norm_row)``.  ``position``
    lists the distinct flat positions row + col * N (row >= col) that the
    elements touch, sorted; ``inverse`` maps every element-stiffness entry,
    in the (n_loc, n_loc, m) storage order of ``element_stiffness``, to
    its position's index, or to ``position.size`` (a bin that is dropped)
    when the entry lies above the diagonal or on a padded column.  The row
    sums of |A| are ``bincount(norm_row, |sums|[norm_pick])``: every
    distinct entry on its row, and each off the diagonal on its column
    too.  Like ``band_layout`` it depends only on the sparsity of B, so
    ``compliance_solves`` reads it from ``instance.dense_layout``, built
    once per instance; the arrays are read-only.
    """
    N, cols = instance.N, instance.cols  # (n_loc, m)
    real = np.any(instance.B != 0.0, axis=(0, 1))
    rows_of, cols_of = cols[:, None, :], cols[None, :, :]
    keep = real[:, None, :] & real[None, :, :] & (rows_of >= cols_of)
    flat = (rows_of + cols_of * N)[keep]
    # distinct positions sorted by hand: np.unique imports numpy.ma
    ordered = np.sort(flat)
    first = np.ones(ordered.size, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    position = ordered[first]
    inverse = np.full(keep.shape, position.size, dtype=np.int64)
    inverse[keep] = np.searchsorted(position, flat)
    col, row = np.divmod(position, N)
    off = np.flatnonzero(row != col)
    norm_pick = np.concatenate([np.arange(position.size), off])
    norm_row = np.concatenate([row, col[off]])
    layout = (inverse.ravel(), position, norm_pick, norm_row)
    for array in layout:
        array.flags.writeable = False
    return layout


def assemble_single(instance: ProblemInstance, E_dense):
    """A(E)'s lower triangle in single precision, in the storage ``spotrf`` factors.

    Returns ``(A, norm)``: the element stiffnesses are summed in double
    per distinct position of ``instance.dense_layout`` and scattered once
    into a zeroed Fortran-ordered float32 N x N array ``A`` (its strict
    upper triangle stays zero); ``norm`` is ||A(E)||_inf of the double
    sums.  ``A`` is None when a sum is outside single range.
    """
    N = instance.N
    inverse, position, norm_pick, norm_row = instance.dense_layout
    ke = elements_last(element_stiffness(instance, E_dense))  # contiguous storage
    sums = np.bincount(inverse, weights=ke.ravel(), minlength=position.size + 1)[:-1]
    norm = np.bincount(norm_row, weights=np.abs(sums)[norm_pick], minlength=N).max()
    if not norm < _SINGLE_MAX:  # NaN fails too
        return None, norm
    A = np.zeros(N * N, dtype=np.float32)
    A[position] = sums
    return A.reshape(N, N, order="F"), norm


def _singular(lam_min) -> NumericalFailure:
    return NumericalFailure(
        f"stiffness singular - check boundary conditions (lambda_min ~ {float(lam_min):.3e})"
    )


def _factor_and_solve(instance: ProblemInstance, A, E_dense=None, norm=None):
    """Cholesky-factor ``A`` in place and solve for every load: the (N, L) solutions.

    ``A`` is Fortran-ordered, so the factorization overwrites it and
    copies nothing.  A double ``A`` (``assemble_dense``) is factored by
    ``dpotrf`` and solved by ``dpotrs``.  A float32 lower triangle
    (``assemble_single``) is factored by ``spotrf`` and the solutions are
    refined in double by ``_refine`` against the A(E) of ``E_dense``,
    whose infinity norm is ``norm``.  Returns None when A is not
    numerically positive definite or the refinement fails; A is destroyed
    either way.
    """
    if A.dtype == np.float32:
        factor, info = scipy.linalg.lapack.spotrf(A, lower=1, clean=0, overwrite_a=1)
        return None if info > 0 else _refine(instance, factor, E_dense, norm)
    factor, info = scipy.linalg.lapack.dpotrf(A, lower=1, clean=0, overwrite_a=1)
    if info > 0:
        return None
    return scipy.linalg.lapack.dpotrs(factor, instance.loads.T, lower=1)[0]


def _single_solve(factor, rhs):
    """(L L^T)^{-1} rhs for a ``spotrf`` factor L, as two ``strtrs`` triangular solves.

    ``spotrs`` computes the same two solves through ``strsm``, which took
    4x as long at one right-hand side (N = 800, OpenBLAS, one thread).
    """
    y = scipy.linalg.lapack.strtrs(factor, rhs, lower=1)[0]
    return scipy.linalg.lapack.strtrs(factor, y, lower=1, trans=1, overwrite_b=1)[0]


def _refine(instance: ProblemInstance, factor, E_dense, norm):
    """Solutions of A(E) x_j = f_j in double from a single-precision Cholesky ``factor``.

    From x = 0, whose residual is the loads, each sweep solves for a
    correction with the factor (``_single_solve``), adds it in double, and takes
    the residual r = f - A(E) x through the matrix-free operator
    (``apply_B``, ``element_products``, ``apply_Bt``), so the one N x N
    array is the factor.  Returns the (N, L) solutions once every load
    passes ``dsposv``'s backward-error test
    ||r_j||_inf <= sqrt(N) eps ||A||_inf ||x_j||_inf, and None (the
    caller's double fallback) as soon as a residual is not finite, the
    residual of a load that fails the test does not shrink, or
    ``REFINE_SWEEPS`` sweeps pass without success.
    """
    loads = instance.loads
    tol = math.sqrt(instance.N) * _EPS * norm
    X = np.zeros(loads.shape)  # the solutions as rows, the layout apply_B reads
    resid, last = loads, np.full(instance.L, np.inf)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values are caught below
        for _ in range(REFINE_SWEEPS):
            X += _single_solve(factor, resid.T.astype(np.float32)).T
            resid = loads - apply_Bt(instance, element_products(E_dense, apply_B(instance, X)))
            size = np.abs(resid).max(axis=1)
            if not np.isfinite(size).all():
                return None
            failing = size > tol * np.abs(X).max(axis=1)
            if not failing.any():
                return X.T
            if np.any(size[failing] >= last[failing]):
                return None
            last = size
    return None


def band_layout(instance: ProblemInstance):
    """Reverse Cuthill-McKee order of the DOFs and the lower-band scatter index.

    Returns ``(perm, lower, band_idx, bw)``: ``perm`` lists the DOFs in RCM
    order, ``lower`` masks the (m, n_loc, n_loc) element-stiffness entries
    on or below the diagonal in that order, and ``band_idx`` is the flat
    position of each of them in (bw + 1, N) LAPACK lower band storage,
    column-major (Fortran order).  It depends only on the instance's
    sparsity, so the banded solves read it from ``instance.band_layout``,
    which calls this once per instance; the arrays are read-only.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    N, cols = instance.N, instance.cols_packed
    # padded columns, and any column an element's B leaves at zero, add nothing
    real = np.any(instance.B_packed != 0.0, axis=(1, 2))
    pair = real[:, :, None] & real[:, None, :]
    rows_of = np.broadcast_to(cols[:, :, None], pair.shape)[pair]
    cols_of = np.broadcast_to(cols[:, None, :], pair.shape)[pair]
    graph = csr_array((np.ones(rows_of.size, dtype=np.int8), (rows_of, cols_of)), shape=(N, N))
    perm = reverse_cuthill_mckee(graph, symmetric_mode=True)
    pos = np.empty(N, dtype=np.int64)
    pos[perm] = np.arange(N)
    P = pos[cols]
    offset = P[:, :, None] - P[:, None, :]  # row minus column in RCM order
    lower = pair & (offset >= 0)
    diag = offset[lower]
    bw = int(diag.max(initial=0))
    band_idx = diag + np.broadcast_to(P[:, None, :], pair.shape)[lower] * (bw + 1)
    for array in (perm, lower, band_idx):
        array.flags.writeable = False
    return perm, lower, band_idx, bw


def assemble_band(instance: ProblemInstance, E_dense):
    """A(E) in reverse Cuthill-McKee order as a lower band, in the storage ``dpbtrf`` factors.

    Returns ``(perm, band)``: ``band`` is the (bw + 1, N) lower band
    storage of A(E)[perm][:, perm], Fortran-ordered, laid out by
    ``instance.band_layout``; no N x N array is formed, so no size gate
    applies.
    """
    N = instance.N
    perm, lower, band_idx, bw = instance.band_layout
    band = np.bincount(
        band_idx, weights=element_stiffness(instance, E_dense)[lower], minlength=(bw + 1) * N
    )
    return perm, band.reshape(bw + 1, N, order="F")


def band_cholesky(band):
    """Lower Cholesky factor of an ``assemble_band`` band, computed in place.

    In RCM order A(E) of a mesh is banded, so LAPACK's band factorization
    costs about N bw^2 flops instead of N^3 / 3.  ``band`` is
    Fortran-ordered, so ``dpbtrf`` overwrites it with the factor and copies
    nothing.  Returns the factor (the same memory), or None when A(E) is
    not numerically positive definite; the band is destroyed either way,
    so a caller that still needs A(E) copies it first.
    """
    factor, info = scipy.linalg.lapack.dpbtrf(band, lower=1, overwrite_ab=1)
    return None if info > 0 else factor


def compliances(instance: ProblemInstance, E_dense) -> np.ndarray:
    """Per-load compliances <A(E)^{-1} f_j, f_j> by a banded Cholesky of A(E)."""
    perm, band = assemble_band(instance, E_dense)
    factor = band_cholesky(band)
    if factor is None:  # the factorization overwrote the band: rebuild it for lambda_min
        band = assemble_band(instance, E_dense)[1]
        raise _singular(
            scipy.linalg.eigvals_banded(
                band, lower=True, select="i", select_range=(0, 0), check_finite=False
            )[0]
        )
    loads = instance.loads[:, perm]
    sol, _ = scipy.linalg.lapack.dpbtrs(factor, loads.T, lower=1)
    return np.einsum("nj,jn->j", sol, loads)


def compliance_solves(
    instance: ProblemInstance,
    E_dense,
    dense_threshold: int = DENSE_THRESHOLD,
) -> PenaltyState:
    """Assemble, factor, and solve for every load; the per-iteration workhorse.

    A(E)'s lower triangle is scattered into one float32 N x N array
    (``assemble_single``), factored there by ``spotrf``, and the solutions
    are refined in double through the matrix-free operator until each
    passes ``dsposv``'s backward-error test (``_refine``), so the one
    N x N array of a step is that float32 triangle.  When single precision
    cannot deliver, the step takes the double path instead: the full
    A(E) of ``assemble_dense`` factored in place by ``dpotrf``, whose
    failure reports A(E) singular with its lambda_min.
    """
    check_dense_size(instance, "penalty mode", dense_threshold)
    A, norm = assemble_single(instance, E_dense)
    sol = None if A is None else _factor_and_solve(instance, A, E_dense, norm)
    if sol is None:  # single precision did not deliver: the double path
        sol = _factor_and_solve(instance, assemble_dense(instance, E_dense))
    if sol is None:  # the factorization overwrote A(E): rebuild it for lambda_min
        raise _singular(np.linalg.eigvalsh(assemble_dense(instance, E_dense))[0])
    comp = np.einsum("nj,jn->j", sol, instance.loads)
    return PenaltyState(
        compliances=comp,
        solutions=sol,
        violated=np.flatnonzero(comp > instance.gamma),
    )


def penalty_value(instance: ProblemInstance, E: MaterialState, x: DualState) -> float:
    """Penalized Lagrangian value p(E, x)."""
    instance.check_material(E)
    base = lagrangian_value(instance, E.dense(), x.vectors)
    if instance.nu == 0.0:
        return base
    state = compliance_solves(instance, E.dense())
    sq = np.maximum(np.sqrt(state.compliances) - math.sqrt(instance.gamma), 0.0)
    return base + instance.nu * float(np.sum(sq**2))


def penalty_grad_correction(instance: ProblemInstance, state: PenaltyState):
    """Blocks added to g_E by the penalty term (already sign-folded).

    For each violated load: -nu [1 - sqrt(gamma/compliance)]_+ times the
    per-element Gram blocks of B applied to the static solution.  The
    blocks are an (m, k, k) view of (k, k, m) storage, as g_E is, so the
    sum keeps element-last storage.
    """
    m, k = instance.m, instance.k
    if state.violated.size == 0 or instance.nu == 0.0:
        return elements_first(np.zeros((k, k, m)))
    coef = instance.nu * np.maximum(
        1.0 - math.sqrt(instance.gamma) / np.sqrt(state.compliances[state.violated]), 0.0
    )
    W = apply_B(instance, state.solutions.T[state.violated])
    return -element_gram(W, coef)


def violation_sums(instance: ProblemInstance, compliances) -> tuple:
    """(literal, positive) violation aggregates for reporting.

    ``literal`` is sum_j min(compliance_j - gamma, 0) as printed in the
    source experiments (nonpositive); ``positive`` is the plain positive
    part sum_j [compliance_j - gamma]_+.
    """
    diff = np.asarray(compliances) - instance.gamma
    return float(np.minimum(diff, 0.0).sum()), float(np.maximum(diff, 0.0).sum())
