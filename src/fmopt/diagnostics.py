"""Computable forms of the convergence bounds and the cost accounting.

Everything here is read-only over solver state: the running duality-gap
estimate (kappa + upsilon), the input-data constants entering the
theoretical gap bound, the one data-only bound both step schemes share,
the approximate-solution certificates, and the flop ledger's cost table
and report.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import penalty, proj
from .model import (
    DENSE_THRESHOLD,
    MaterialState,
    NumericalFailure,
    ProblemInstance,
    apply_A,
    check_dense_size,
    elements_last,
)

GAP_PREFACTOR_CONST = 0.37  # printed constant; beta_hat bound gives 0.36603


@dataclass(frozen=True)
class BoundConstants:
    """Input-data constants entering the gap bounds.

    ``B_norm`` is the spectral norm of the stacked strain operator;
    ``lam_min_BtB`` is the smallest nonzero singular value squared (the
    rank-deficient flag records when zero singular values were dropped).
    Both come from the spectrum of A(I) = B^T B
    (``smallest_nonzero_singular_sq``).
    ``D_E`` is the exact per-element maximum of the material prox term,
    while the printed bounds use the uniform form with ``rho_u_max``.
    """

    m: int
    k: int
    L: int
    tau: float
    L_E2: float
    L_x: float
    D_E: float
    D_x: float
    B_norm: float
    lam_min_BtB: float
    B_rank_deficient: bool
    f_norm: float
    rho_u_max: float
    r: float
    gamma: float
    eta: float

    @property
    def L_E(self) -> float:
        return math.sqrt(self.L_E2)

    @property
    def D(self) -> float:
        return self.tau * self.D_E + (1.0 - self.tau) * self.D_x

    @property
    def L_combined(self) -> float:
        """sup of the combined dual norm of (g_E, g_x)."""
        return self._combined_root(1.0)

    @property
    def sigma_opt(self) -> float:
        """L_combined / sqrt(2 D): the sigma that realizes the simple scheme's bound."""
        return self._combined_root(2.0 * self.D)

    def _combined_root(self, d: float) -> float:
        """sqrt((L_E^2 / tau + L_x^2 / (1 - tau)) / d), with no overflow in the squares.

        L_E and L_x are scaled by the power of two s at their magnitude and
        the root is multiplied back by s.  Scaling by a power of two is
        exact, so the result has the bits of the unscaled expression
        wherever that one is finite.
        """
        s = math.ldexp(1.0, math.frexp(max(self.L_E, self.L_x))[1])
        a, b = self.L_E / s, self.L_x / s
        return s * math.sqrt((a**2 / self.tau + b**2 / (1.0 - self.tau)) / d)


def power_iteration_norm(instance: ProblemInstance, tol: float = 1e-8, max_iter: int = 10000):
    """||B||_2 by power iteration on B^T B, applied matrix-free."""
    ident = MaterialState.from_dense(np.tile(np.eye(instance.k), (instance.m, 1, 1)))
    v = np.ones(instance.N) + 1e-3 * np.arange(instance.N) / max(instance.N - 1, 1)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iter):
        w = apply_A(instance, ident, v)
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            return 0.0
        lam_new = float(v @ w)
        v = w / nrm
        if abs(lam_new - lam) <= tol * max(abs(lam_new), 1.0):
            return math.sqrt(lam_new)
        lam = lam_new
    raise NumericalFailure(
        f"power iteration did not converge in {max_iter} steps "
        f"(last residual {abs(lam_new - lam):.3e})"
    )


def smallest_nonzero_singular_sq(instance: ProblemInstance, dense_threshold: int = DENSE_THRESHOLD):
    """Smallest nonzero singular value of stacked B, squared; rank flag; ||B||_2.

    The squared singular values of the (m*nig*k) x N stacked strain operator
    are the eigenvalues of its N x N Gram matrix A(I) = B^T B.  A(I) is
    assembled as a band in reverse Cuthill-McKee order
    (``penalty.assemble_band``), copied once into a sparse matrix, and
    factored in place (``penalty.band_cholesky``).  When the factorization
    succeeds, ARPACK Lanczos gives lambda_max on the sparse copy and
    lambda_min = 1/mu, with mu the largest eigenvalue of A(I)^{-1} applied
    by band solves; both start from the ones vector, so repeated calls
    agree bit for bit.  Eigenvalues at or below
    max(rows, N) * eps * lambda_max count as zero.  A rank-deficient A(I)
    (failed factorization, or lambda_min under that rule) takes one dense
    eigendecomposition instead, which instances with N above
    ``dense_threshold`` are refused as input (``model.check_dense_size``).
    A band with a non-finite entry fails as a ``NumericalFailure`` before
    it is factored.
    """
    from scipy.sparse import dia_array
    from scipy.sparse.linalg import LinearOperator

    m, k, N = instance.m, instance.k, instance.N
    rows = m * instance.nig * k
    zero = max(rows, N) * np.finfo(float).eps
    identity = np.broadcast_to(np.eye(k), (m, k, k))
    band = penalty.assemble_band(instance, identity)[1]
    if not np.isfinite(band).all():  # dpbtrf passes NaN through, and ARPACK fails on it
        raise NumericalFailure("B^T B is not finite: the strain operator overflows its Gram matrix")
    # the sparse A(I) is the one copy of the band: the factorization overwrites it
    lower = dia_array((band, -np.arange(band.shape[0])), shape=(N, N))
    gram = (lower + lower.T).tocsr()
    gram.setdiag(band[0])
    factor = penalty.band_cholesky(band)
    if factor is not None and N > 1:  # ARPACK needs N >= 2
        inverse = LinearOperator(
            (N, N),
            matvec=lambda v: scipy.linalg.cho_solve_banded((factor, True), v, check_finite=False),
            dtype=float,
        )
        lam_max = _largest_eigenvalue(gram)
        lam_min = 1.0 / _largest_eigenvalue(inverse)
        if lam_min > zero * lam_max:
            return lam_min, False, math.sqrt(lam_max)
    check_dense_size(instance, "rank-deficient bound data (the B^T B spectrum)", dense_threshold)
    # eigvalsh reads only the lower triangle that assemble_dense fills
    lam = np.linalg.eigvalsh(penalty.assemble_dense(instance, identity)[0])
    if not lam[-1] > 0.0:
        raise NumericalFailure("strain operator is identically zero")
    nonzero = lam[lam > zero * lam[-1]]
    deficient = nonzero.size < min(rows, N)
    return float(nonzero[0]), deficient, math.sqrt(lam[-1])


def _largest_eigenvalue(operator) -> float:
    """Largest eigenvalue of a symmetric operator by ARPACK Lanczos from the ones vector."""
    from scipy.sparse.linalg import eigsh

    v0 = np.ones(operator.shape[0])
    return float(eigsh(operator, k=1, which="LA", tol=0, v0=v0, return_eigenvectors=False)[0])


def _square(v: float) -> float:
    """``v**2``, or inf where the float power raises OverflowError."""
    try:
        return v**2
    except OverflowError:
        return math.inf


def compute_constants(
    instance: ProblemInstance, tau: float, dense_threshold: int = DENSE_THRESHOLD
) -> BoundConstants:
    """Evaluate the printed bound constants for one instance.

    The spectral data come from ``smallest_nonzero_singular_sq``: banded
    Lanczos at any N, and for a rank-deficient B a dense B^T B
    eigendecomposition, which ``dense_threshold`` gates.
    """
    lam_min, deficient, B_norm = smallest_nonzero_singular_sq(instance, dense_threshold)
    m, k, L = instance.m, instance.k, instance.L
    r, gamma, eta = instance.r, instance.gamma, instance.eta
    rho_u_max = float(instance.rho_u.max())
    L_E2 = m * k + L**2 * (gamma / r) * _square(B_norm) * _square(eta)
    f_norm = float(np.linalg.norm(instance.loads))
    if not math.isfinite(f_norm):  # every load is finite, so their norm overflowed
        raise NumericalFailure(f"load norm ||f|| = {f_norm} is not finite")
    L_x = 2.0 * f_norm + 2.0 * math.sqrt(gamma * L * (rho_u_max - k * r + r)) * B_norm
    D_E = 0.5 * float(np.sum((instance.rho_u - k * r) ** 2))
    D_x = 0.5 * L * _square(eta)
    for name, value in (("L_E2", L_E2), ("L_x", L_x), ("D_E", D_E), ("D_x", D_x)):
        if not math.isfinite(value):
            raise NumericalFailure(f"bound constant {name} = {value} is not finite")
    return BoundConstants(
        m=m,
        k=k,
        L=L,
        tau=tau,
        L_E2=L_E2,
        L_x=L_x,
        D_E=D_E,
        D_x=D_x,
        B_norm=B_norm,
        lam_min_BtB=lam_min,
        B_rank_deficient=deficient,
        f_norm=f_norm,
        rho_u_max=rho_u_max,
        r=r,
        gamma=gamma,
        eta=eta,
    )


def optimal_parameters(
    instance: ProblemInstance,
    scheme: str,
    tau: float | None = None,
    dense_threshold: int = DENSE_THRESHOLD,
):
    """(tau, sigma, constants) that realize the printed gap bound.

    tau, unless given, balances the two Lipschitz/diameter pairs; sigma is
    1/sqrt(2D) at that tau for the weighted scheme and
    ``BoundConstants.sigma_opt``, which carries the extra combined-norm
    factor, for the simple one (the printed simple-scheme sigma omits that
    factor and does not reproduce its own final bound).  Only ``tau`` and
    ``D`` depend on tau, so the constants are computed once, under
    ``dense_threshold``, and returned at the tau used.
    """
    constants = compute_constants(instance, 0.5 if tau is None else tau, dense_threshold)
    L_E, L_x = constants.L_E, constants.L_x
    if tau is None:
        tau = 1.0 / (1.0 + (L_x / L_E) * math.sqrt(constants.D_E / constants.D_x))
        constants = dataclasses.replace(constants, tau=tau)
    if scheme == "weighted":
        sigma = 1.0 / math.sqrt(2.0 * constants.D)
    else:
        sigma = constants.sigma_opt
    return tau, sigma, constants


def gap_bound_prefactor(t: int) -> float:
    """(0.37 + sqrt(2t+1)) / (t+1), the printed decay prefactor."""
    return (GAP_PREFACTOR_CONST + math.sqrt(2.0 * t + 1.0)) / (t + 1.0)


def theoretical_gap_bound(constants: BoundConstants, t: int, nu: float = 0.0) -> float:
    """Printed right-hand side of the duality-gap theorem after t+1 steps.

    pre(t) (sqrt(m L_E^2) (rho_u_max - k r) + sqrt(L) eta L_x), plus the
    penalty increment when nu > 0.  The paper prints one data-only bound
    per step scheme; written in the Lipschitz constants both are this one
    number, so the scheme does not enter.  The weighted scheme's
    reference-point bound needs the prox value at a saddle point, which a
    run never knows, so it is not evaluated.
    """
    c = constants
    bound = gap_bound_prefactor(t) * (
        math.sqrt(c.m * c.L_E2) * (c.rho_u_max - c.k * c.r) + math.sqrt(c.L) * c.eta * c.L_x
    )
    if nu > 0.0:
        bound += penalty_gap_increment(constants, t, nu)
    return bound


def penalty_gap_increment(constants: BoundConstants, t: int, nu: float) -> float:
    """Extra gap-bound term contributed by the compliance penalty."""
    c = constants
    return (
        gap_bound_prefactor(t)
        * math.sqrt(c.m)
        * (c.rho_u_max - c.k * c.r)
        * nu
        / (c.r**2 * c.lam_min_BtB)
        * c.f_norm**2
    )


def gap_estimate(acc, instance: ProblemInstance):
    """(kappa_t, upsilon_t, kappa_t + upsilon_t) from the running sums.

    kappa's inner minimum over each feasible block has a closed form in the
    smallest eigenvalue and the trace of the accumulated dual block
    (``proj.lambda_min``); upsilon's maximum over the eta-ball is eta times
    the accumulated dual norms.
    """
    if acc.sum_alpha <= 0:
        raise NumericalFailure("gap estimate requested before the first step")
    lam_min = proj.lambda_min(elements_last(acc.s_E))
    tr_s = np.einsum("qkk->q", acc.s_E)
    k, r = instance.k, instance.r
    lo_mass = np.maximum(instance.rho_l - k * r, 0.0)
    hi_mass = instance.rho_u - k * r
    min_lin = np.where(lam_min > 0, lo_mass * lam_min, hi_mass * lam_min) + r * tr_s
    kappa = (acc.sum_gE_dot_E - float(min_lin.sum())) / acc.sum_alpha
    s_x_norms = np.linalg.norm(acc.s_x, axis=1)
    upsilon = (instance.eta * float(s_x_norms.sum()) - acc.sum_gx_dot_x) / acc.sum_alpha
    return kappa, upsilon, kappa + upsilon


@dataclass(frozen=True)
class CertificateReport:
    """Approximate-solution certificate from the bounded-dual lemma."""

    all_strictly_inside: bool
    x_norms: np.ndarray
    violated: np.ndarray
    lhs_root_violation: float
    rhs_plain: float
    rhs_penalized: float | None
    bound_satisfied: bool
    compliances: np.ndarray
    f_star_upper: float


def approximation_certificate(
    instance: ProblemInstance,
    E: MaterialState,
    x,
    f_star_upper: float,
    lam_min_BtB: float,
) -> CertificateReport:
    """Evaluate both sides of the constraint-violation bound at (E, x).

    If every adjoint vector is strictly inside the eta-ball the lemma
    certifies an exact solution; otherwise the root-compliance violation
    sum is compared against the data bound.  ``f_star_upper`` is an upper
    estimate of the optimal cost (e.g. the best feasible objective seen),
    so the comparison is reported rather than asserted.  ``lam_min_BtB``
    is the smallest nonzero squared singular value of B, the value the
    run's ``BoundConstants`` already hold (computed under the run's dense
    threshold).  The compliances come from the banded solve and need no
    gate, so the CLI reports the certificate at any N.  The gap
    ``f_star_upper - sum(rho_l)`` is clamped at 0; at 0 both right-hand
    sides are 0.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    x_norms = np.linalg.norm(x, axis=1)
    comp = penalty.compliances(instance, E.dense())
    violated = np.flatnonzero(comp > instance.gamma)
    lhs = float(
        np.sum(np.sqrt(comp[violated]) - math.sqrt(instance.gamma))
    ) if violated.size else 0.0
    # f* >= sum(rho_l), so a negative gap0 is rounding in f_star_upper
    gap0 = max(f_star_upper - float(np.sum(instance.rho_l)), 0.0)
    c = instance.r * lam_min_BtB * instance.eta
    rhs = gap0 / (2.0 * c)
    rhs_pen = None
    if instance.nu > 0 and violated.size:
        # 1 / (sqrt(nu / (gap0 n) + c^2 / gap0^2) + c / gap0), written so that
        # gap0 = 0 gives its limit 0
        rhs_pen = gap0 / (math.sqrt(instance.nu * gap0 / violated.size + c * c) + c)
    return CertificateReport(
        all_strictly_inside=bool(np.all(x_norms < instance.eta)),
        x_norms=x_norms,
        violated=violated,
        lhs_root_violation=lhs,
        rhs_plain=rhs,
        rhs_penalized=rhs_pen,
        bound_satisfied=bool(lhs <= rhs),
        compliances=comp,
        f_star_upper=f_star_upper,
    )


def flop_model(instance: ProblemInstance) -> dict:
    """Per-call flop charge of each ledger key: the one table of cost formulas.

    ``saddle.step`` charges its ``FlopCounter`` from this table:
    ``grads`` per ``subgradients`` call, ``dense_assembly`` and
    ``dense_solve`` per penalty ``compliance_solves`` call (assembly of the
    dense A(E), then its Cholesky factor and L solves), and ``x_update``,
    ``E_update`` and ``averaging`` per ``da_step``.  ``dense_assembly``
    charges k^2 multiply-adds and one add into its sum per packed element
    stiffness entry.  ``dense_solve`` charges N^3 / 3 for the
    factorization whatever its precision (the step factors in single and
    falls back to double), and one forward and back substitution per
    load.  The refinement sweeps of the single-precision solve are not
    charged: their number depends on the data (two or three on a mesh),
    and each costs one substitution pair per load (O(L N^2)) plus one
    matrix-free product, far below N^3 / 3.  The keys are in the order a
    penalty step first charges them.
    """
    k, L, nig, m, N = instance.k, instance.L, instance.nig, instance.m, instance.N
    per_l = 4 * k * instance.n_loc + 3 * k * k + 3 * k
    packed = instance.n_loc * (instance.n_loc + 1) // 2
    return {
        "grads": L * (m * nig * per_l + m * k * (k + 1)) + 5 * L * N + 4 * L,
        "dense_assembly": m * packed * (2 * k * k + 1),
        "dense_solve": N**3 / 3.0 + 2 * L * (N**2 + N),
        "x_update": L * (3 * N + 7),
        "E_update": m * (10 * k**3 + 3 * k * k + 7 * k + 8),
        "averaging": 2 * m * k * k + 2 * L * N + m * k,
    }


def flop_report(counts: dict, instance: ProblemInstance, iterations: int) -> dict:
    """A run's ledger (``FlopCounter.snapshot()``) against per-iteration cost models.

    The ledger is charged by ``saddle.step`` from ``flop_model``,
    which also gives the subproblem model and the assembly term of the
    penalty model here.  The sparse model charges element loops on the
    touched column support (n_loc columns); the dense model is the same
    expression at full width N for comparison with the printed accounting.
    """
    k, L, nig, m, N = instance.k, instance.L, instance.nig, instance.m, instance.N
    sparse_model = (6 * k * L * nig) * m * instance.n_loc + (
        (5 * k * k + 3 * k) * L * nig + (k * k + k) * L + k
    ) * m + 5 * L * N + 4 * L
    dense_model = (6 * k * L * nig) * m * N + (
        (5 * k * k + 3 * k) * L * nig + (k * k + k) * L + k
    ) * m + 5 * L * N + 4 * L
    per_call = flop_model(instance)
    measured = float(sum(counts.values()))
    return {
        "counts": dict(counts),
        "total": measured,
        "iterations": iterations,
        "per_iteration": measured / max(iterations, 1),
        "model_sparse_update": sparse_model,
        "model_dense_update": dense_model,
        "model_subproblems": per_call["E_update"] + per_call["x_update"],
        "model_penalty_per_iteration": N**3 / 3.0 + per_call["dense_assembly"],
    }
