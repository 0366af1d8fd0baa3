"""The primal-dual subgradient (dual averaging) loop.

One iteration evaluates the convex-concave Lagrangian's subgradients at
the current pair, accumulates them into the dual averages, and re-solves
both subproblems in closed form: the adjoint vectors by a radial shrink
onto the eta-ball, the material blocks by the batched spectral projection.
Simple and weighted step weights are supported, as is the window-based
doubling/backtrack controller for the scale sigma.
"""

from __future__ import annotations

import functools
import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import daxpy

from . import diagnostics, penalty, proj
from .model import (
    DENSE_THRESHOLD,
    DualState,
    FlopCounter,
    InvalidInstance,
    MaterialState,
    NumericalFailure,
    ProblemInstance,
    apply_B,
    apply_Bt,
    element_gram,
    element_products,
    element_quads,
    elements_first,
    elements_last,
)

log = logging.getLogger(__name__)

R_THRESHOLD = 1e-14  # relative floor on <A(E)x, x> for membership in R


@dataclass
class StepSchedule:
    """Step-weight scheme plus the beta recurrence state.

    ``beta_hat`` follows beta_hat_0 = beta_hat_1 = 1 and
    beta_hat_{t+1} = beta_hat_t + 1/beta_hat_t; the subproblems at step t
    use beta_{t+1} = sigma * beta_hat_{t+1}.
    """

    scheme: str
    tau: float
    sigma: float
    beta_hat: float = 1.0
    t: int = 0

    def __post_init__(self):
        if self.scheme not in ("simple", "weighted"):
            raise InvalidInstance(f"unknown scheme {self.scheme!r}")
        if not 0.0 < self.tau < 1.0:
            raise InvalidInstance("need tau in (0, 1)")
        if not self.sigma > 0:
            raise InvalidInstance("need sigma > 0")

    def advance(self) -> float:
        """Move to the next iterate index and return beta_{t+1}."""
        if self.t >= 1:
            self.beta_hat = self.beta_hat + 1.0 / self.beta_hat
        self.t += 1
        return self.sigma * self.beta_hat


def beta_hat_sequence(t_max: int) -> np.ndarray:
    """beta_hat_t for t = 0..t_max (inclusive)."""
    out = np.empty(t_max + 1)
    out[0] = 1.0
    if t_max >= 1:
        out[1] = 1.0
    for t in range(1, t_max):
        out[t + 1] = out[t] + 1.0 / out[t]
    return out


def _blocks_flat(blocks) -> np.ndarray:
    """(m, k, k) blocks as a flat vector in element-last order.

    A view of element-last contiguous storage, a copy for any other layout;
    a flat vector is returned as it is.
    """
    return np.ascontiguousarray(elements_last(blocks), dtype=float).reshape(-1)


def _rows_flat(rows) -> np.ndarray:
    """(L, N) rows as a flat vector in C order; a view of C-contiguous storage."""
    return np.ascontiguousarray(rows, dtype=float).reshape(-1)


@dataclass
class DualAccumulators:
    """Running dual sums and the averaging/gap bookkeeping.

    The four arrays are taken into contiguous storage once, at
    construction: ``s_E`` and ``E_avg`` as (m, k, k) views of element-last
    (k, k, m) storage, ``s_x`` and ``x_avg`` in C order.  Arrays already
    stored that way are kept as given; others, such as C-order (m, k, k)
    blocks, are copied once.  ``da_step`` updates that storage in place,
    through flat views of it kept here, so the four arrays must not be
    rebound after construction (in-place updates such as ``+=`` are fine).
    """

    s_E: np.ndarray  # (m, k, k)
    s_x: np.ndarray  # (L, N)
    sum_alpha: float = 0.0
    sum_gE_dot_E: float = 0.0
    sum_gx_dot_x: float = 0.0
    E_avg: np.ndarray | None = None  # sum of alpha_l * E^(l); zeros when None
    x_avg: np.ndarray | None = None
    flat: tuple = field(init=False, repr=False, compare=False)  # s_E, s_x, E_avg, x_avg

    def __post_init__(self):
        blocks, rows = np.shape(self.s_E), np.shape(self.s_x)
        if self.E_avg is None:
            self.E_avg = np.zeros(blocks)
        if self.x_avg is None:
            self.x_avg = np.zeros(rows)
        self.flat = tuple(
            np.require(flat, requirements="W")  # daxpy writes even to read-only arrays
            for flat in (
                _blocks_flat(self.s_E), _rows_flat(self.s_x),
                _blocks_flat(self.E_avg), _rows_flat(self.x_avg),
            )
        )
        s_E, s_x, E_avg, x_avg = self.flat
        element_last = blocks[1:] + blocks[:1]  # (k, k, m)
        self.s_E = elements_first(s_E.reshape(element_last))
        self.E_avg = elements_first(E_avg.reshape(element_last))
        self.s_x, self.x_avg = s_x.reshape(rows), x_avg.reshape(rows)

    @classmethod
    def zeros(cls, instance: ProblemInstance) -> "DualAccumulators":
        blocks = (instance.k, instance.k, instance.m)
        return cls(
            s_E=elements_first(np.zeros(blocks)),
            s_x=np.zeros((instance.L, instance.N)),
            E_avg=elements_first(np.zeros(blocks)),
            x_avg=np.zeros((instance.L, instance.N)),
        )


@dataclass
class SigmaController:
    """Window-based doubling of sigma with a single backtrack.

    Runs one baseline window at sigma0, doubles while the monitored rate
    (relative decrease of the running gap bound over a window) improves,
    and on the first degradation halves once and freezes.
    """

    sigma0: float
    window: int
    v: int = 0
    sigma: float = field(init=False)
    phase: str = "baseline"  # baseline -> growing -> frozen
    prev_rate: float | None = None
    windows_used: int = 0

    def __post_init__(self):
        if self.window < 10:
            raise InvalidInstance("autotune window must be at least 10 steps")
        if not self.sigma0 > 0:
            raise InvalidInstance("need sigma0 > 0")
        self.sigma = self.sigma0

    @property
    def frozen(self) -> bool:
        return self.phase == "frozen"

    @property
    def test_steps(self) -> int:
        return self.windows_used * self.window

    def observe_window(self, gap_samples) -> float:
        """Consume one window of gap-bound samples; return the new sigma.

        Only the first and last sample are read (the rate is the relative
        decrease between them), so a caller may pass just those two.
        """
        if self.frozen:
            return self.sigma
        first, last = float(gap_samples[0]), float(gap_samples[-1])
        rate = (first - last) / max(abs(first), 1e-300)
        self.windows_used += 1
        if self.phase == "baseline":
            self.prev_rate = rate
            self.v += 1
            self.sigma = 2.0 * self.sigma
            self.phase = "growing"
        elif rate > self.prev_rate:
            self.prev_rate = rate
            self.v += 1
            self.sigma = 2.0 * self.sigma
        else:
            self.v -= 1
            self.sigma = 0.5 * self.sigma
            self.phase = "frozen"
        return self.sigma


def autotune_step_budget(L_norm: float, D: float, sigma0: float, window: int) -> int:
    """Upper bound on the number of test steps the controller may consume."""
    return int(math.ceil(2.5 + math.log2(L_norm / (sigma0 * math.sqrt(D))))) * window


# -- subgradient oracle ----------------------------------------------------


@functools.cache
def _identity(k: int) -> np.ndarray:
    """The read-only (1, k, k) identity that ``subgradients`` adds to every g_E block."""
    eye = np.eye(k)[None, :, :]
    eye.flags.writeable = False
    return eye


def subgradients(instance: ProblemInstance, E_dense, x, fallback_y=None):
    """Fused evaluation of the Lagrangian subgradients at (E, x).

    Returns ``(g_E, g_x, quad, in_R, used_plain_fallback)``.  Loads outside
    R (vanishing quadratic form) take the set-valued branch: the unit
    representative ``fallback_y`` when supplied, otherwise the plain 2 f_j
    selection, which is flagged.
    """
    W = apply_B(instance, x)
    EW, quad = element_quads(E_dense, W)
    in_R = quad > R_THRESHOLD * np.einsum("jn,jn->j", x, x)
    sqrt_gamma = math.sqrt(instance.gamma)

    coef = np.zeros(instance.L)
    coef[in_R] = sqrt_gamma / np.sqrt(quad[in_R])
    g_E = -element_gram(W, coef)
    g_E += _identity(instance.k)
    # loads outside R have coef 0, so their rows already hold the plain 2 f_j
    g_x = 2.0 * instance.loads - 2.0 * coef[:, None] * apply_Bt(instance, EW)

    plain = ~in_R
    if fallback_y is not None and plain.any():
        stored = plain & fallback_y.any(axis=1)
        plain &= ~stored
        if stored.any():
            EWy = element_products(E_dense, apply_B(instance, fallback_y[stored]))
            g_x[stored] -= 2.0 * sqrt_gamma * apply_Bt(instance, EWy)
    used_plain = bool(plain.any())
    return g_E, g_x, quad, in_R, used_plain


def grad_norm_star(g_E, g_x, tau: float) -> float:
    """Combined dual norm sqrt(|g_E|^2/tau + |g_x|^2/(1-tau)), from flat dot products.

    Takes the subgradients as (m, k, k) and (L, N) arrays or as their flat
    vectors.
    """
    g_E, g_x = _blocks_flat(g_E), _rows_flat(g_x)
    return math.sqrt(float(g_E @ g_E) / tau + float(g_x @ g_x) / (1.0 - tau))


def da_step(
    instance: ProblemInstance,
    acc: DualAccumulators,
    schedule: StepSchedule,
    E_dense,
    x,
    fallback_y=None,
    grads=None,
):
    """One dual-averaging iteration from (E, x); mutates ``acc``.

    Returns ``(E_next, x_next, info)``, ``info`` holding ``alpha``, ``beta``
    and ``grad_norm``.  ``grads`` may carry precomputed subgradients whose
    first two entries are g_E and g_x (``run_solver`` adds the penalty
    correction to g_E); without it the step calls ``subgradients`` with
    ``fallback_y``.  The four running sums are updated in place by
    ``daxpy`` on the flat views ``acc.flat``, and the two gap sums take
    flat dot products, so the step allocates no (k, k, m) temporary; E, x
    and the subgradients are read as flat views when they are in
    element-last (blocks) or C (rows) order, and copied once otherwise.
    ``info["grad_norm"]`` is the dual norm the weighted scheme divides by;
    the simple scheme does not need it and leaves it None
    (``grad_norm_star`` gives it on demand).  A non-finite norm fails the
    weighted step (``NumericalFailure`` naming it): its weight 1/inf = 0
    would leave the running sums empty.  In both schemes a non-finite
    pairing sum (``acc.sum_gE_dot_E`` or ``acc.sum_gx_dot_x``) fails the
    step, before the projection meets non-finite blocks.
    """
    if grads is None:
        grads = subgradients(instance, E_dense, x, fallback_y)
    g_E, g_x = _blocks_flat(grads[0]), _rows_flat(grads[1])
    E_flat, x_flat = _blocks_flat(E_dense), _rows_flat(x)

    gnorm = None
    if schedule.scheme == "simple":
        alpha = 1.0
    else:
        gnorm = grad_norm_star(g_E, g_x, schedule.tau)
        if not math.isfinite(gnorm):  # alpha = 0 would leave the averages empty
            raise NumericalFailure(
                f"step {schedule.t + 1}: subgradient norm is not finite ({gnorm})"
            )
        alpha = 1.0 / gnorm

    s_E, s_x, E_avg, x_avg = acc.flat
    # averaging happens before the state moves: the mean covers E^(0..t)
    daxpy(E_flat, E_avg, a=alpha)
    daxpy(x_flat, x_avg, a=alpha)
    acc.sum_alpha += alpha
    acc.sum_gE_dot_E += alpha * float(g_E @ E_flat)
    acc.sum_gx_dot_x += alpha * float(g_x @ x_flat)
    if not (math.isfinite(acc.sum_gE_dot_E) and math.isfinite(acc.sum_gx_dot_x)):
        raise NumericalFailure(f"step {schedule.t + 1}: subgradient pairing is not finite")
    daxpy(g_E, s_E, a=alpha)
    daxpy(g_x, s_x, a=-alpha)

    beta_next = schedule.advance()
    x_next = _solve_x(acc.s_x, beta_next, schedule.tau, instance.eta)
    E_next = proj.project_blocks(
        acc.s_E, beta_next * schedule.tau, instance.rho_l, instance.rho_u, instance.r
    )

    return E_next, x_next, {"alpha": alpha, "beta": beta_next, "grad_norm": gnorm}


def _solve_x(s_x, beta_next: float, tau: float, eta: float):
    """Closed-form adjoint update: radial shrink of -s onto the eta-ball."""
    # np.linalg.norm(s_x, axis=1) of a real array, the same product and
    # reduction, without its dispatch
    norms = np.sqrt(np.add.reduce(s_x * s_x, axis=1))
    scale = np.zeros(norms.shape)
    nz = norms > 0
    scale[nz] = -np.minimum(eta / norms[nz], 1.0 / (beta_next * (1.0 - tau)))
    return scale[:, None] * s_x


def averaged_primal(acc: DualAccumulators) -> MaterialState:
    """Weighted average of the visited material states."""
    if acc.sum_alpha <= 0:
        raise InvalidInstance("averaged_primal called before the first step")
    return MaterialState.from_dense(acc.E_avg / acc.sum_alpha)


def averaged_dual(acc: DualAccumulators) -> DualState:
    if acc.sum_alpha <= 0:
        raise InvalidInstance("averaged_dual called before the first step")
    return DualState.from_array(acc.x_avg / acc.sum_alpha)


# -- solver loop -----------------------------------------------------------


@dataclass
class SolverConfig:
    """The run configuration; eta/nu/gamma live on the instance.

    ``tau`` or ``sigma0`` set to None asks for the value that realizes the
    printed gap bound; ``cli.run`` resolves it from the bound data before
    the solve, and ``run_solver`` needs both numeric.  ``dense_threshold``
    gates only dense work: above that many unknowns, penalty mode and the
    bound data of a rank-deficient B are refused as input.
    """

    scheme: str = "simple"
    mode: str = "plain"
    iterations: int = 1000
    tau: float | None = 0.5
    sigma0: float | None = 1.0
    autotune_window: int = 0
    log_stride: int = 1
    dense_threshold: int = DENSE_THRESHOLD
    deterministic: bool = False

    def __post_init__(self):
        if self.iterations < 1:
            raise InvalidInstance("need iterations >= 1")
        if self.log_stride < 1:
            raise InvalidInstance("need log_stride >= 1")
        if self.mode not in ("plain", "penalty"):
            raise InvalidInstance(f"unknown mode {self.mode!r}")
        if self.scheme not in ("simple", "weighted"):
            raise InvalidInstance(f"unknown scheme {self.scheme!r}")
        if self.dense_threshold < 0:
            raise InvalidInstance(f"need dense_threshold >= 0, got {self.dense_threshold}")
        # checked here, so that cli.run refuses them before it opens any file
        if self.tau is not None and not 0.0 < self.tau < 1.0:
            raise InvalidInstance(f"need tau in (0, 1), got {self.tau}")
        if self.sigma0 is not None and not (math.isfinite(self.sigma0) and self.sigma0 > 0):
            raise InvalidInstance(f"need a finite sigma0 > 0, got {self.sigma0}")
        if self.autotune_window != 0 and self.autotune_window < 10:
            raise InvalidInstance(
                f"need autotune_window 0 (off) or at least 10 steps, got {self.autotune_window}"
            )


@dataclass
class IterationRecord:
    """Per-iteration sink payload (state AFTER ``t`` completed steps).

    It holds no compliances: a sink that reports them solves at ``E_ref``.
    """

    t: int
    alpha: float
    beta: float
    sigma: float
    objective: float
    grad_norm: float
    gap_kappa: float
    gap_upsilon: float
    gap: float
    theoretical_bound: float | None
    feasible: bool
    x_in_ball: bool
    flops: float
    wall_ns: int
    E_ref: np.ndarray | None = None  # current iterate; rebound every step, safe to hold


@dataclass
class SolveResult:
    E_last: MaterialState
    x_last: DualState
    E_avg: MaterialState
    x_avg: DualState
    acc: DualAccumulators
    counter: FlopCounter
    sigma_final: float
    controller: SigmaController | None
    fallback_events: int


def run_solver(
    instance: ProblemInstance,
    config: SolverConfig,
    sink=None,
    constants=None,
) -> SolveResult:
    """Run the dual-averaging loop from the canonical starting point.

    ``sink`` receives an IterationRecord every ``log_stride`` steps and at
    the final step.  ``constants`` (a diagnostics.BoundConstants) enables
    the theoretical-bound column, the one data-only bound of both schemes;
    nu enters it only in penalty mode, the one mode that reads nu.  The
    constants also arm the autotune budget: a controller that started at
    or below ``constants.sigma_opt`` and freezes after more test steps
    than ``autotune_step_budget`` allows fails the run.  Each penalty step
    solves for the compliances of its own E (one dense assembly and solve
    on the ledger) and adds the penalty correction to g_E; rows compute
    none.  Penalty mode above the
    dense threshold is refused by the first step's ``compliance_solves``,
    before any row reaches the sink.  The flop ledger ``counter`` is
    charged here, per call, from ``diagnostics.flop_model``.

    Per-step diagnostics are computed only where they are read.  With a
    controller tuning sigma, ``diagnostics.gap_estimate`` runs at the first
    and the last step of each window (the two samples
    ``SigmaController.observe_window`` reads) and at logged rows, at most
    once per step, a row sharing the estimate of its step; the pending
    window is just its first gap and its step count.  In the simple scheme
    the row's ``grad_norm`` is computed at the row, from the subgradients
    of that step.
    """
    if config.tau is None or config.sigma0 is None:
        raise InvalidInstance("run_solver needs numeric tau and sigma0 (cli.run resolves auto)")

    E = instance.start_material().dense()
    x = instance.start_dual().vectors
    acc = DualAccumulators.zeros(instance)
    controller = None
    sigma = config.sigma0
    if config.autotune_window:
        controller = SigmaController(sigma0=config.sigma0, window=config.autotune_window)
        sigma = controller.sigma
    schedule = StepSchedule(scheme=config.scheme, tau=config.tau, sigma=sigma)
    counter = FlopCounter()
    flops = diagnostics.flop_model(instance)
    fallback_y = np.zeros((instance.L, instance.N))
    fallback_events = 0
    window_first, window_steps = 0.0, 0  # the pending window: first gap, steps so far

    penalty_mode = config.mode == "penalty"
    nu = instance.nu if penalty_mode else 0.0  # plain mode reads no nu

    last_wall = time.perf_counter_ns()
    for step in range(config.iterations):
        g_E, g_x, quad, in_R, used_plain = subgradients(instance, E, x, fallback_y)
        counter.add("grads", flops["grads"])
        if penalty_mode:
            state = penalty.compliance_solves(instance, E, dense_threshold=config.dense_threshold)
            counter.add("dense_assembly", flops["dense_assembly"])
            counter.add("dense_solve", flops["dense_solve"])
            g_E = g_E + penalty.penalty_grad_correction(instance, state)
        if used_plain:
            fallback_events += 1
            log.info("step %d: plain 2f selection used for a load outside R", step)
        if in_R.any():
            # unit-quadratic representatives for the set-valued branch:
            # the pre-step iterate scaled by its own quadratic form
            fallback_y[in_R] = x[in_R] / np.sqrt(quad[in_R])[:, None]

        E, x, info = da_step(instance, acc, schedule, E, x, grads=(g_E, g_x))
        for key in ("x_update", "E_update", "averaging"):
            counter.add(key, flops[key])

        gap_parts = None  # this step's (kappa, upsilon, gap), once computed
        if controller is not None and not controller.frozen:
            window_steps += 1
            if window_steps == 1:
                gap_parts = diagnostics.gap_estimate(acc, instance)
                window_first = gap_parts[2]
            elif window_steps == controller.window:
                gap_parts = diagnostics.gap_estimate(acc, instance)
                schedule.sigma = controller.observe_window((window_first, gap_parts[2]))
                window_steps = 0
                if controller.frozen and constants is not None:
                    # theorem budget applies when sigma0 starts below the optimum
                    if config.sigma0 <= constants.sigma_opt:
                        budget = autotune_step_budget(
                            constants.L_combined, constants.D, config.sigma0,
                            controller.window,
                        )
                        if controller.test_steps > budget:
                            raise NumericalFailure(
                                f"sigma autotune used {controller.test_steps} test steps, "
                                f"over the budget {budget}"
                            )

        t = step + 1
        if t % config.log_stride == 0 or t == config.iterations:
            now = time.perf_counter_ns()
            wall_ns = 0 if config.deterministic else now - last_wall
            last_wall = now
            if gap_parts is None:
                gap_parts = diagnostics.gap_estimate(acc, instance)
            kappa, upsilon, gap = gap_parts
            grad_norm = info["grad_norm"]
            if grad_norm is None:  # the simple scheme leaves it to the rows
                grad_norm = grad_norm_star(g_E, g_x, config.tau)
            bound = None
            if constants is not None:
                bound = diagnostics.theoretical_gap_bound(constants, t - 1, nu=nu)
            objective = float(np.einsum("qkk->", E))
            for name, value in (
                ("objective", objective), ("gap", gap),
                ("alpha", info["alpha"]), ("sigma", schedule.sigma),
            ):
                if not math.isfinite(value):
                    raise NumericalFailure(f"step {t}: {name} is not finite ({value})")
            feas_ok, _ = _quick_feasible(instance, E)
            record = IterationRecord(
                t=t,
                alpha=info["alpha"],
                beta=info["beta"],
                sigma=schedule.sigma,
                objective=objective,
                grad_norm=grad_norm,
                gap_kappa=kappa,
                gap_upsilon=upsilon,
                gap=gap,
                theoretical_bound=bound,
                feasible=feas_ok,
                x_in_ball=in_eta_ball(x, instance.eta),
                flops=counter.total,
                wall_ns=wall_ns,
                E_ref=E,
            )
            if sink is not None:
                sink(record)

    return SolveResult(
        E_last=MaterialState.from_dense(E),
        x_last=DualState.from_array(x),
        E_avg=averaged_primal(acc),
        x_avg=averaged_dual(acc),
        acc=acc,
        counter=counter,
        sigma_final=schedule.sigma,
        controller=controller,
        fallback_events=fallback_events,
    )


def in_eta_ball(x, eta: float) -> bool:
    """Row flag: every adjoint vector has norm at most eta.

    The shrink puts a vector on the sphere only to within rounding of eta,
    so the slack is relative: 1e-12 eta, far above the few ulps of the norm.
    """
    return bool(np.all(np.linalg.norm(x, axis=1) <= eta * (1.0 + 1e-12)))


def _quick_feasible(instance: ProblemInstance, E_dense) -> tuple:
    """Row feasibility flag: trace window and eigenvalue floor, 1e-9 slack.

    lambda_min(E_i) >= tr/k - sqrt((k-1)/k) ||E_i - (tr/k) I||_F
    (Wolkowicz-Styan, ``proj.trace_spread``), so a block whose bound clears
    the floor by more than its rounding error needs no eigensolver;
    ``eigvalsh`` runs on the rest, and non-finite blocks fail.  Returns
    ``(ok, floor_ok)`` with the per-block verdict on the floor.
    """
    E = elements_last(E_dense)
    mean, spread = proj.trace_spread(E)
    traces = E.trace()
    floor = instance.r - 1e-9
    slack = 64 * np.finfo(float).eps * (np.abs(mean) + spread)
    floor_ok = mean - spread >= floor + slack
    rest = np.flatnonzero(~floor_ok & np.isfinite(E).all(axis=(0, 1)))
    if rest.size:
        eigmin = np.linalg.eigvalsh(elements_first(E[:, :, rest]))[:, 0]
        floor_ok[rest] = eigmin >= floor
    ok = bool(
        np.all(traces <= instance.rho_u + 1e-9)
        and np.all(traces >= instance.rho_l - 1e-9)
        and np.all(floor_ok)
    )
    return ok, floor_ok
