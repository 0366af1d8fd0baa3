"""The penalty step: penalized Lagrangian, its gradient, and per-step compliances.

The penalty term nu * sum_j ([sqrt(compliance_j) - sqrt(gamma)]_+)^2 pulls
iterates toward compliance feasibility at the cost of one dense
factorization of A(E) per iteration, so ``compliance_solves`` refuses N
above the dense threshold through ``model.check_dense_size`` (bad input,
CLI exit 2).  Each penalty step solves for its own E; every other
compliance (the CLI's report rows in both modes, the certificate, the
gamma probe) comes from the banded ``model.compliances``.  The step
assembles A(E) with ``model.assemble_dense``, through the same entry
layout the band scatters.

Storage rule: a penalty step forms one N x N array, the lower triangle
of A(E) in single precision (float32), scattered straight into the
Fortran-ordered storage ``spotrf`` factors and factored in place; the
solutions are then refined in double against the matrix-free operator
(LAPACK's ``dsposv`` scheme, written out because scipy does not wrap
it), so no double N x N array exists on that path.  When single precision
cannot deliver (the sums leave its range, ``spotrf`` fails, a residual is
not finite or stops shrinking, or ``REFINE_SWEEPS`` sweeps do not pass)
the step falls back to the double lower triangle, factored in place by
``dpotrf``.  No factorization copies its matrix; a factorization destroys
the matrix it is handed, and a failed double one rebuilds A(E) from E to
report lambda_min.
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
    assemble_dense,
    check_dense_size,
    element_gram,
    elements_first,
    element_products,
    lagrangian_value,
    singular_stiffness,
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
        raise singular_stiffness(np.linalg.eigvalsh(assemble_dense(instance, E_dense)[0])[0])
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
