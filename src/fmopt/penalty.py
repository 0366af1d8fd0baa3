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

Storage rule: A(E) is scattered straight into the Fortran-ordered storage
LAPACK factors (the N x N matrix for ``dpotrf``, the (bw + 1, N) lower
band for ``dpbtrf``) and factored in place, so no factorization copies
it.  A factorization destroys the matrix it is handed; a failed one
rebuilds A(E) from E to report lambda_min.
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
    check_dense_size,
    element_gram,
    lagrangian_value,
)


@dataclass
class PenaltyState:
    """Compliances and static solutions at the current material state."""

    compliances: np.ndarray  # (L,)
    solutions: np.ndarray  # (N, L) columns A(E)^{-1} f_j
    violated: np.ndarray  # indices with compliance > gamma


def element_stiffness(instance: ProblemInstance, E_dense):
    """Per-element stiffnesses sum_l B_{i,l}^T E_i B_{i,l}, shape (m, n_loc, n_loc).

    Einsums over the element-last operators, one row of the upper triangle
    at a time (the blocks are symmetric); the result is a view of
    (n_loc, n_loc, m) storage.
    """
    nig, k, n_loc, m = instance.B.shape
    B = instance.B.reshape(nig * k, n_loc, m)
    EB = np.einsum("cdq,ldbq->lcbq", np.moveaxis(E_dense, 0, -1), instance.B)
    EB = EB.reshape(nig * k, n_loc, m)
    ke = np.empty((n_loc, n_loc, m))
    for a in range(n_loc):
        np.einsum("xq,xbq->bq", B[:, a], EB[:, a:], out=ke[a, a:])
        ke[a + 1:, a] = ke[a, a + 1:]
    return np.moveaxis(ke, -1, 0)


def assemble_dense(instance: ProblemInstance, E_dense):
    """Dense A(E), Fortran-ordered: per-element congruences scattered column-major."""
    ke = element_stiffness(instance, E_dense)
    N, cols = instance.N, instance.cols_packed
    # ke[q, a, b] adds to A[cols[q, a], cols[q, b]]: flat position row + col * N in Fortran order
    idx = (cols[:, :, None] + cols[:, None, :] * N).ravel()
    return np.bincount(idx, weights=ke.ravel(), minlength=N**2).reshape(N, N, order="F")


def _singular(lam_min) -> NumericalFailure:
    return NumericalFailure(
        f"stiffness singular - check boundary conditions (lambda_min ~ {float(lam_min):.3e})"
    )


def _factor_and_solve(instance: ProblemInstance, A):
    """Cholesky-factor ``A`` in place and solve for every load.

    ``A`` is the Fortran-ordered A(E) of ``assemble_dense``, so ``dpotrf``
    overwrites it with the factor and copies nothing.  Returns None when A
    is not numerically positive definite; A is destroyed either way.
    """
    factor, info = scipy.linalg.lapack.dpotrf(A, lower=1, clean=0, overwrite_a=1)
    if info > 0:
        return None
    sol, _ = scipy.linalg.lapack.dpotrs(factor, instance.loads.T, lower=1)
    comp = np.einsum("nj,jn->j", sol, instance.loads)
    return PenaltyState(
        compliances=comp,
        solutions=sol,
        violated=np.flatnonzero(comp > instance.gamma),
    )


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

    A(E) is scattered into Fortran order and factored in place, so the one
    N x N array of a step is the one the scatter fills.
    """
    check_dense_size(instance, "penalty mode", dense_threshold)
    state = _factor_and_solve(instance, assemble_dense(instance, E_dense))
    if state is None:  # the factorization overwrote A(E): rebuild it for lambda_min
        raise _singular(np.linalg.eigvalsh(assemble_dense(instance, E_dense))[0])
    return state


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
        return np.moveaxis(np.zeros((k, k, m)), -1, 0)
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
