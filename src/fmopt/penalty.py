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
bound data) that needs no gate.  Both assemble A(E) through one entry
layout: ``element_stiffness`` gives each element's packed upper triangle,
``entry_layout`` sends each packed entry to its distinct lower-triangle
entry, summed in element order, and the dense triangle
(``assemble_dense``) and the band (``band_layout``, derived from it)
scatter those same sums.  The layouts depend only on the sparsity of B,
so each instance builds them once and keeps them.

Storage rule: a penalty step forms one N x N array, the lower triangle
of A(E) in single precision (float32), scattered straight into the
Fortran-ordered storage ``spotrf`` factors and factored in place; the
solutions are then refined in double against the matrix-free operator
(LAPACK's ``dsposv`` scheme, written out because scipy does not wrap
it), so no double N x N array exists on that path.  When single precision
cannot deliver (the sums leave its range, ``spotrf`` fails, a residual is
not finite or stops shrinking, or ``REFINE_SWEEPS`` sweeps do not pass)
the step falls back to the double lower triangle, factored in place by
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
    InvalidInstance,
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
_EPS = float(np.finfo(np.float64).epsneg)  # 2^-53, LAPACK's dlamch('Epsilon')


@dataclass
class PenaltyState:
    """Compliances and static solutions at the current material state."""

    compliances: np.ndarray  # (L,)
    solutions: np.ndarray  # (N, L) columns A(E)^{-1} f_j
    violated: np.ndarray  # indices with compliance > gamma


def element_stiffness(instance: ProblemInstance, E_dense):
    """Per-element stiffnesses sum_l B_{i,l}^T E_i B_{i,l} as packed upper triangles.

    Shape (m, n_loc (n_loc + 1) / 2), entry (a, b) with a <= b row-major
    over the upper triangle, the order of ``np.triu_indices(n_loc)``; a
    view of (n_loc (n_loc + 1) / 2, m) storage.  The elements on the
    instance's shared operator go through one matmul of
    ``instance.stiffness_map`` with their E entries, the rest through the
    einsums of ``_stiffness_einsum``.
    """
    E = elements_last(E_dense)
    shared = instance.shared
    if shared is None:
        return elements_first(_stiffness_einsum(instance.B, E))
    ke = np.matmul(instance.stiffness_map, E.reshape(instance.k**2, instance.m))
    if shared.others.size:
        ke[:, shared.others] = _stiffness_einsum(shared.B_others, E[..., shared.others])
    return elements_first(ke)


def _stiffness_einsum(B, E):
    """Packed (n_loc (n_loc + 1) / 2, m) stiffnesses of element-last ``B`` and blocks ``E``.

    Einsums along the elements, one row of the upper triangle at a time.
    """
    nig, k, n_loc, m = B.shape
    EB = np.einsum("cdq,ldbq->lcbq", E, B).reshape(nig * k, n_loc, m)
    B = B.reshape(nig * k, n_loc, m)
    return np.concatenate([np.einsum("xq,xbq->bq", B[:, a], EB[:, a:]) for a in range(n_loc)])


def stiffness_map(instance: ProblemInstance):
    """The linear map from a shared-operator element's E to its packed stiffness.

    For an element on ``instance.shared``, with B_l the (k, n_loc) rows of
    integration point l, ke[a, b] = sum_cd M[(a, b), (c, d)] E[c, d] with
    M[(a, b), (c, d)] = sum_l B_l[c, a] B_l[d, b].  Returns the rows of M
    for a <= b in packed order, (n_loc (n_loc + 1) / 2, k^2), or None
    without a shared operator.  Read-only, built once per instance as
    ``instance.stiffness_map``.
    """
    if instance.shared is None:
        return None
    nig, k, n_loc = instance.nig, instance.k, instance.n_loc
    B = instance.shared.B.reshape(nig, k, n_loc)
    a, b = np.triu_indices(n_loc)
    upper = np.einsum("lca,ldb->abcd", B, B)[a, b].reshape(a.size, k * k)
    upper.flags.writeable = False
    return upper


def entry_layout(instance: ProblemInstance):
    """Which entry of A(E) each element-stiffness entry adds to.

    Returns ``(entry, position, pick, rows, cols)``.  ``position`` lists the
    sorted flat positions row + col * N (row >= col, Fortran order) of the
    distinct entries; ``entry`` maps each packed entry of
    ``element_stiffness``, in its ``ravel()`` order, to its position's index
    (``position.size``, a dropped bin, on a padded column), so
    ``bincount(entry, ke.ravel())`` sums each entry in element order.
    ``rows`` and ``cols`` list A(E)'s symmetric pattern and ``pick`` the
    sum each holds: row sums of |A| are ``bincount(rows, |sums|[pick])``.
    Read-only, built once per instance as ``instance.entry_layout``.
    """
    entry, position = _distinct_entries(instance)
    col, row = np.divmod(position, instance.N)
    off = np.flatnonzero(row != col)
    pick = np.concatenate([np.arange(position.size), off])
    rows, cols = np.concatenate([row, col[off]]), np.concatenate([col, row[off]])
    layout = (entry, position, pick, rows, cols)
    for array in layout:
        array.flags.writeable = False
    return layout


def _distinct_entries(instance: ProblemInstance):
    """``entry`` and ``position`` of ``entry_layout``, by one sort.

    Each flat position carries its entry's index in the low bits, so
    ``np.sort`` orders both (an argsort is slower; np.unique imports numpy.ma).
    A function of its own, so that its arrays are freed before the pattern's
    are allocated: the first band then fits in the heap the sort used.
    """
    N = instance.N
    a, b = np.triu_indices(instance.n_loc)
    dofs = instance.cols_packed.astype(np.int64, copy=False)  # (m, n_loc)
    real = np.any(instance.B_packed != 0.0, axis=(1, 2))
    first, second = dofs[:, a], dofs[:, b]
    flat = np.maximum(first, second) + np.minimum(first, second) * N
    flat[~(real[:, a] & real[:, b])] = N * N  # padding: a bin past every position
    shift = flat.size.bit_length()
    if N * N >> (62 - shift):
        raise InvalidInstance(f"N = {N} with {flat.size} stiffness entries is too large to lay out")
    key = np.sort(flat.ravel() << shift | np.arange(flat.size))
    ordered = key >> shift
    new = ordered != np.append(-1, ordered[:-1])  # the first entry of each position
    entry = np.empty(key.size, dtype=np.int64)
    entry[key & ((1 << shift) - 1)] = np.cumsum(new) - 1
    position = ordered[new]
    return entry, position[position < N * N]  # without the padding's bin


def assemble_dense(instance: ProblemInstance, E_dense, dtype=np.float64):
    """A(E)'s lower triangle in ``dtype``, in the Fortran-ordered N x N storage LAPACK factors.

    Returns ``(A, norm)``: the element stiffnesses are summed in double
    per entry of ``instance.entry_layout`` and scattered once into a zeroed
    N x N array ``A`` (its strict upper triangle stays zero; ``spotrf``,
    ``dpotrf`` and ``eigvalsh`` read only the lower one); ``norm`` is
    ||A(E)||_inf of the double sums.  ``A`` is None when a sum is outside
    ``dtype``'s range.
    """
    N = instance.N
    entry, position, pick, rows, _ = instance.entry_layout
    ke = element_stiffness(instance, E_dense).ravel()  # element-major copy
    sums = np.bincount(entry, weights=ke, minlength=position.size + 1)[:-1]
    norm = np.bincount(rows, weights=np.abs(sums)[pick], minlength=N).max()
    if not norm < np.finfo(dtype).max:  # NaN fails too
        return None, norm
    A = np.zeros(N * N, dtype=dtype)
    A[position] = sums
    return A.reshape(N, N, order="F"), norm


def _singular(lam_min) -> NumericalFailure:
    return NumericalFailure(
        f"stiffness singular - check boundary conditions (lambda_min ~ {float(lam_min):.3e})"
    )


def _factor_and_solve(instance: ProblemInstance, A, E_dense=None, norm=None):
    """Cholesky-factor ``A`` in place and solve for every load: the (N, L) solutions.

    ``A`` is Fortran-ordered, so the factorization overwrites it and
    copies nothing.  A double lower triangle (``assemble_dense``) is
    factored by ``dpotrf`` and solved by ``dpotrs``; a float32 one by
    ``spotrf``, with the solutions refined by ``_refine`` against the A(E) of ``E_dense``,
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
    """Reverse Cuthill-McKee order of the DOFs and the band index of every element entry.

    Returns ``(perm, band_idx, bw)``: ``perm`` is the RCM order of the
    graph of ``instance.entry_layout``'s pattern, ``bw`` the bandwidth in
    it, and ``band_idx`` composes ``entry`` with each distinct entry's
    flat position in (bw + 1, N) LAPACK lower band storage,
    Fortran-ordered; a padded column goes to (bw + 1) N, a dropped bin.
    Read-only, built once per instance as ``instance.band_layout``.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    N = instance.N
    entry, position, _, rows, cols = instance.entry_layout
    graph = csr_array((np.ones(rows.size, dtype=np.int8), (rows, cols)), shape=(N, N))
    perm = reverse_cuthill_mckee(graph, symmetric_mode=True)
    pos = np.argsort(perm)  # each DOF's place in RCM order
    first, second = pos[rows[:position.size]], pos[cols[:position.size]]
    diag = np.abs(first - second)
    bw = int(diag.max(initial=0))
    band_pos = np.append(diag + np.minimum(first, second) * (bw + 1), (bw + 1) * N)
    band_idx = band_pos[entry]
    for array in (perm, band_idx):
        array.flags.writeable = False
    return perm, band_idx, bw


def assemble_band(instance: ProblemInstance, E_dense):
    """A(E) in reverse Cuthill-McKee order as a lower band, in the storage ``dpbtrf`` factors.

    Returns ``(perm, band)``: ``band`` is the (bw + 1, N) lower band
    storage of A(E)[perm][:, perm], Fortran-ordered, summed in element
    order by one bincount through ``instance.band_layout``; no N x N
    array is formed, so no size gate applies.
    """
    perm, band_idx, bw = instance.band_layout
    size = (bw + 1) * instance.N
    ke = element_stiffness(instance, E_dense).ravel()  # element-major copy
    band = np.bincount(band_idx, weights=ke, minlength=size + 1)[:size]
    return perm, band.reshape(bw + 1, instance.N, order="F")


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
    (``assemble_dense`` with ``np.float32``), factored there by
    ``spotrf``, and the solutions are refined in double through the
    matrix-free operator until each passes ``dsposv``'s backward-error
    test (``_refine``), so the one N x N array of a step is that float32
    triangle.  When single precision cannot deliver, the step takes the
    double path instead: the double lower triangle factored in place by
    ``dpotrf``, whose failure reports A(E) singular with its lambda_min.
    """
    check_dense_size(instance, "penalty mode", dense_threshold)
    A, norm = assemble_dense(instance, E_dense, np.float32)
    sol = None if A is None else _factor_and_solve(instance, A, E_dense, norm)
    if sol is None:  # single precision did not deliver: the double path
        A, norm = assemble_dense(instance, E_dense)
        if A is None:
            raise NumericalFailure(f"stiffness A(E) overflows double (||A||_inf = {norm})")
        sol = _factor_and_solve(instance, A)
    if sol is None:  # the factorization overwrote A(E): rebuild it for lambda_min
        raise _singular(np.linalg.eigvalsh(assemble_dense(instance, E_dense)[0])[0])
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
