"""Penalized Lagrangian: dense compliance evaluation and its gradient.

The penalty term nu * sum_j ([sqrt(compliance_j) - sqrt(gamma)]_+)^2 pulls
iterates toward compliance feasibility at the cost of one dense
factorization of A(E) per iteration, so everything here is gated on a
dense-size threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .model import (
    DualState,
    FlopCounter,
    FmoError,
    MaterialState,
    NumericalFailure,
    ProblemInstance,
    apply_B,
    element_gram,
)
from .saddle import lagrangian_value

DENSE_THRESHOLD = 4000


@dataclass
class PenaltyState:
    """Factorization cache for the current material state."""

    chol: tuple  # scipy cho_factor output
    compliances: np.ndarray  # (L,)
    solutions: np.ndarray  # (N, L) columns A(E)^{-1} f_j
    violated: np.ndarray  # indices with compliance > gamma


def assemble_dense(instance: ProblemInstance, E_dense, counter: FlopCounter | None = None):
    """Dense A(E): per-element congruences scattered into an N x N matrix."""
    EB = np.einsum("qkc,qlcb->qlkb", E_dense, instance.B_packed)
    ke = np.einsum("qlka,qlkb->qab", instance.B_packed, EB)
    cols = instance.cols_packed  # flattened (row, col) target of every ke entry
    idx = (cols[:, :, None] * instance.N + cols[:, None, :]).ravel()
    A = np.bincount(idx, weights=ke.ravel(), minlength=instance.N**2).reshape(
        instance.N, instance.N
    )
    if counter is not None:
        k, N = instance.k, instance.N
        counter.add(
            "dense_assembly",
            instance.m * instance.nig * (2 * k * k * N + (k + 0.5) * N * (N + 1)),
        )
    return A


def compliances_from_dense(instance: ProblemInstance, A, counter: FlopCounter | None = None):
    """Per-load <A^{-1} f_j, f_j> via one Cholesky factorization."""
    state = _factor_and_solve(instance, A, counter)
    return state.compliances


def _factor_and_solve(instance: ProblemInstance, A, counter: FlopCounter | None = None):
    try:
        chol = scipy.linalg.cho_factor(A, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        lam_min = float(np.linalg.eigvalsh(A)[0])
        raise NumericalFailure(
            f"stiffness singular - check boundary conditions (lambda_min ~ {lam_min:.3e})"
        ) from exc
    sol = scipy.linalg.cho_solve(chol, instance.loads.T, check_finite=False)
    comp = np.einsum("nj,jn->j", sol, instance.loads)
    if counter is not None:
        N, L = instance.N, instance.L
        counter.add("dense_solve", N**3 / 3.0 + 2 * L * (N**2 + N))
    return PenaltyState(
        chol=chol,
        compliances=comp,
        solutions=sol,
        violated=np.flatnonzero(comp > instance.gamma),
    )


def compliance_solves(
    instance: ProblemInstance,
    E_dense,
    counter: FlopCounter | None = None,
    dense_threshold: int = DENSE_THRESHOLD,
) -> PenaltyState:
    """Assemble, factor, and solve for every load; the per-iteration workhorse."""
    if instance.N > dense_threshold:
        raise FmoError(
            f"penalty mode is dense-only: N={instance.N} exceeds threshold {dense_threshold}"
        )
    A = assemble_dense(instance, E_dense, counter)
    return _factor_and_solve(instance, A, counter)


def penalty_value(
    instance: ProblemInstance,
    E: MaterialState,
    x: DualState,
    dense_threshold: int = DENSE_THRESHOLD,
) -> float:
    """Penalized Lagrangian value p(E, x)."""
    instance.check_material(E)
    base = lagrangian_value(instance, E.dense(), x.vectors)
    if instance.nu == 0.0:
        return base
    state = compliance_solves(instance, E.dense(), dense_threshold=dense_threshold)
    sq = np.maximum(np.sqrt(state.compliances) - math.sqrt(instance.gamma), 0.0)
    return base + instance.nu * float(np.sum(sq**2))


def penalty_grad_correction(instance: ProblemInstance, state: PenaltyState):
    """Blocks added to g_E by the penalty term (already sign-folded).

    For each violated load: -nu [1 - sqrt(gamma/compliance)]_+ times the
    per-element Gram blocks of B applied to the static solution.
    """
    m, k = instance.m, instance.k
    if state.violated.size == 0 or instance.nu == 0.0:
        return np.zeros((m, k, k))
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
