"""Workload definitions and seeded input generation.

Each workload is one cantilever problem solved one run at a time (a closed
loop: the next solve starts when the previous process has exited).  The
benchmark seed picks the loaded right-edge node(s) and the load direction;
the solver only ever sees the resulting ``MeshSpec``/``LoadSpec`` (or an
``fmo-inst/1`` file written from them).

Why these three:

* ``plain-large`` (128x64, N = 16640): the element sweep and the material
  projection do nearly all the work, and N is over the dense gate, so every
  dense compliance and bound-constant path is bypassed.
* ``cli-logged`` (32x16, L = 3): the batch user's path through the CLI.
  Setup is dominated by the bound constants (power iteration, dense SVD of
  B), the loop by logged-row dense compliances and the per-step gap
  estimate while the sigma controller tunes, the finish by the certificate.
* ``penalty-tight`` (20x19, N = 800, nu = 10, gamma = 0.5x initial
  compliance): every step assembles and factors the dense A(E) -- the same
  code ``cli-logged`` calls once per logged row.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from fmopt import fem2d, oracle, saddle

DEFAULT_SEED = 1
RHO_L, RHO_U, R = 0.3, 3.0, 0.05

# Fixed per-solve step counts; ``gap_fraction`` sets the time_to_gap target
# as a share of the first logged gap estimate.  Each share lies in the widest
# gap between two logged rows across seeds 1-30 (1-20 on cli-logged), so the
# target is met on the same row whatever the seed: row 3 (step 30) on
# plain-large and penalty-tight, row 6 (step 60) on cli-logged.
WORKLOADS = {
    "plain-large": {
        "nx": 128, "ny": 64, "n_loads": 1, "eta": 10.0, "nu": 0.0, "gamma_factor": 2.0,
        "mode": "plain", "scheme": "simple", "iterations": 120, "stride": 10, "gap_fraction": 0.5,
    },
    "cli-logged": {
        "nx": 32, "ny": 16, "n_loads": 3, "eta": 10.0, "nu": 0.0, "gamma_factor": 2.0,
        "mode": "plain", "scheme": "weighted", "iterations": 200, "stride": 10, "gap_fraction": 0.68,
        "autotune_window": 50,
    },
    "penalty-tight": {
        "nx": 20, "ny": 19, "n_loads": 1, "eta": 20.0, "nu": 10.0, "gamma_factor": 0.5,
        "mode": "penalty", "scheme": "simple", "iterations": 200, "stride": 10, "gap_fraction": 0.5,
    },
}


def mesh_spec(inputs: dict) -> fem2d.MeshSpec:
    loads = tuple(
        fem2d.LoadSpec((load["node"],), tuple(load["force"])) for load in inputs["loads"]
    )
    nx, ny = inputs["nx"], inputs["ny"]
    return fem2d.MeshSpec(nx=nx, ny=ny, lx=float(nx), ly=float(ny), fixed_edge="left", loads=loads)


def seeded_loads(nx: int, ny: int, n_loads: int, seed: int) -> list:
    """Distinct right-edge nodes, each pushed down or up within 30 degrees of vertical."""
    rng = np.random.default_rng(seed)
    rows = rng.choice(ny + 1, size=n_loads, replace=False)
    loads = []
    for iy in rows:
        theta = rng.uniform(-np.pi / 6, np.pi / 6)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        force = [sign * float(np.sin(theta)), -sign * float(np.cos(theta))]
        loads.append({"node": int(iy * (nx + 1) + nx), "force": force})
    return loads


def start_compliance(instance) -> float:
    """max_j <A(E0)^{-1} f_j, f_j> at the start material, by a sparse solve.

    Only used to pick gamma when generating inputs; it works above the
    solver's dense gate.
    """
    E0 = instance.start_material().dense()
    B, cols = instance.B_packed, instance.cols_packed
    ke = np.einsum("qlka,qkc,qlcb->qab", B, E0, B)
    rows = np.broadcast_to(cols[:, :, None], ke.shape).ravel()
    cidx = np.broadcast_to(cols[:, None, :], ke.shape).ravel()
    A = scipy.sparse.csc_matrix((ke.ravel(), (rows, cidx)), shape=(instance.N, instance.N))
    sol = scipy.sparse.linalg.splu(A).solve(np.ascontiguousarray(instance.loads.T))
    return float(np.max(np.einsum("nj,jn->j", sol, instance.loads)))


def make_inputs(name: str, seed: int, workdir) -> dict:
    """Generate a workload's inputs from the seed; writes the instance file for cli-logged."""
    wl = WORKLOADS[name]
    inputs = {
        "workload": name,
        "seed": seed,
        "nx": wl["nx"],
        "ny": wl["ny"],
        "loads": seeded_loads(wl["nx"], wl["ny"], wl["n_loads"], seed),
    }
    if name == "penalty-tight":
        return inputs  # gamma comes from the program's own probe, inside the timed setup
    spec = mesh_spec(inputs)
    probe = fem2d.build_instance(spec, RHO_L, RHO_U, R, 1.0, wl["eta"])
    inputs["gamma"] = wl["gamma_factor"] * start_compliance(probe)
    if name == "cli-logged":
        instance = fem2d.build_instance(spec, RHO_L, RHO_U, R, inputs["gamma"], wl["eta"])
        path = workdir / "instance.fmo"
        fem2d.write_instance(instance, path)
        inputs["instance_path"] = str(path)
    return inputs


def solver_instance(inputs: dict):
    """The timed setup of plain-large and penalty-tight.

    penalty-tight probes at gamma = 1 and sets gamma to 0.5x the initial
    compliance, as ``scripts/penalty_comparison.py`` does.
    """
    wl = WORKLOADS[inputs["workload"]]
    spec = mesh_spec(inputs)
    gamma = inputs.get("gamma")
    if gamma is None:
        probe = fem2d.build_instance(spec, RHO_L, RHO_U, R, 1.0, wl["eta"])
        c0 = float(np.max(fem2d.reference_compliance(probe, probe.start_material())))
        gamma = wl["gamma_factor"] * c0
    return fem2d.build_instance(spec, RHO_L, RHO_U, R, gamma, wl["eta"], wl["nu"])


def oracle_step_check(name: str, inputs: dict, warm_steps: int = 2) -> str | None:
    """Compare one production ``da_step`` with ``oracle.da_step_reference``.

    Takes ``warm_steps`` production steps first so that the compared step
    starts from nonzero dual sums.  Returns a failure message or None.
    """
    if name == "cli-logged":
        instance = fem2d.read_instance(inputs["instance_path"])
    elif name == "penalty-tight":
        instance = solver_instance(inputs)
    else:
        raise ValueError(f"no oracle check for {name}")
    scheme, tau, sigma = WORKLOADS[name]["scheme"], 0.5, 1.0
    E = instance.start_material().dense()
    x = instance.start_dual().vectors
    acc = saddle.DualAccumulators.zeros(instance)
    schedule = saddle.StepSchedule(scheme=scheme, tau=tau, sigma=sigma)
    for _ in range(warm_steps):
        E, x, _ = saddle.da_step(instance, acc, schedule, E, x)
    beta_hat_next = saddle.beta_hat_sequence(schedule.t + 1)[schedule.t + 1]
    E_ref, x_ref, s_E_ref, s_x_ref, alpha_ref = oracle.da_step_reference(
        instance, E, x, acc.s_E, acc.s_x, scheme, tau, sigma, beta_hat_next
    )
    E, x, info = saddle.da_step(instance, acc, schedule, E, x)
    pairs = (("E", E, E_ref), ("x", x, x_ref), ("s_E", acc.s_E, s_E_ref), ("s_x", acc.s_x, s_x_ref))
    for label, got, ref in pairs:
        atol = 1e-10 * max(1.0, float(np.max(np.abs(ref))))
        if not np.allclose(got, ref, rtol=1e-9, atol=atol):
            err = float(np.max(np.abs(got - ref)))
            return f"da_step {label} differs from oracle by {err:.3e} (atol {atol:.1e})"
    if not np.isclose(info["alpha"], alpha_ref, rtol=1e-12):
        return f"da_step alpha {info['alpha']!r} != oracle {alpha_ref!r}"
    return None
