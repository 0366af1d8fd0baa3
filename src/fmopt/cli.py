"""Batch front-end: generate or load an instance, solve, write artifacts.

Outputs per run: an iteration CSV (stride-sampled), a JSON report row in
the shape of the experiment tables (m, N, L, nig, obj0, cpu, obj, const),
and the final material states (last iterate and weighted average) in the
state file format.

Exit codes: 0 success, 2 bad input, 3 numerical failure.  On exit 2 or 3
stderr is one JSON line: ``{"error", "kind"}``, plus a ``warnings`` list of
the distinct warnings the run raised when there were any.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
import warnings

import numpy as np

from . import diagnostics, fem2d, penalty, saddle
from .model import (
    DENSE_THRESHOLD,
    FmoError,
    InvalidInstance,
    MaterialState,
    NumericalFailure,
    ProblemInstance,
    check_dense_size,
    feasible_E,
)

CSV_HEADER = (
    "t,objective,gap_estimate,theoretical_bound,violation_literal,"
    "violation_positive,sigma,alpha,wall_ns,flops"
)


def run(config: saddle.SolverConfig, instance: ProblemInstance, out_prefix: str) -> dict:
    """Solve one instance and write CSV/report/state artifacts under ``out_prefix``.

    The bound constants are computed once, at the given tau or the balanced
    one when tau is None, and feed the bound column, an auto (None)
    ``sigma0`` and the certificate.  Returns the report dictionary.  In
    both modes the violation columns come from the banded compliance solve
    at logged rows, so every column, the final violation and the
    certificate are filled at any N.  The final step is always a logged
    row, at E_last, so the final violation is that row's.  Only dense work
    is gated: above the dense threshold, penalty mode and rank-deficient
    bound data are refused before any file is opened.
    """
    if config.mode == "penalty":
        check_dense_size(instance, "penalty mode", config.dense_threshold)
    tau, auto_sigma, constants = diagnostics.optimal_parameters(
        instance, config.scheme, config.tau, config.dense_threshold
    )
    sigma0 = auto_sigma if config.sigma0 is None else config.sigma0
    config = dataclasses.replace(config, tau=tau, sigma0=sigma0)

    csv_path = f"{out_prefix}.csv"
    best_feasible_obj = None
    final_violation = None  # (literal, positive) of the latest row

    with open(csv_path, "w") as csv_file:
        csv_file.write(CSV_HEADER + "\n")

        def sink(rec: saddle.IterationRecord):
            nonlocal best_feasible_obj, final_violation
            comp = fem2d.reference_compliance(instance, MaterialState.from_dense(rec.E_ref))
            lit, pos = final_violation = penalty.violation_sums(instance, comp)
            if rec.feasible and pos <= 0.0:
                obj = rec.objective
                if best_feasible_obj is None or obj < best_feasible_obj:
                    best_feasible_obj = obj
            row = [
                rec.t,
                rec.objective,
                rec.gap,
                rec.theoretical_bound,
                lit,
                pos,
                rec.sigma,
                rec.alpha,
                rec.wall_ns,
                rec.flops,
            ]
            csv_file.write(",".join(map(str, row)) + "\n")  # str(float) is its repr

        t0 = time.perf_counter()
        result = saddle.run_solver(instance, config, sink, constants)
        cpu = time.perf_counter() - t0

    state_path = f"{out_prefix}_state.txt"
    avg_path = f"{out_prefix}_state_avg.txt"
    fem2d.write_state(result.E_last, state_path)
    fem2d.write_state(result.E_avg, avg_path)

    final_literal, final_positive = final_violation
    in_Q, _ = feasible_E(instance, result.E_last)
    feasible_flag = bool(in_Q and final_positive <= 1e-9 * max(1.0, instance.gamma))
    f_star_upper = best_feasible_obj
    if f_star_upper is None:
        f_star_upper = float(np.sum(instance.rho_u))  # always an upper bound
    cert = diagnostics.approximation_certificate(
        instance, result.E_avg, result.x_avg.vectors, f_star_upper,
        lam_min_BtB=constants.lam_min_BtB,
    )
    certificate = {
        "f_star_upper_estimate": f_star_upper,
        "all_dual_strictly_inside": cert.all_strictly_inside,
        "violated_loads": cert.violated.tolist(),
        "lhs_root_violation": cert.lhs_root_violation,
        "rhs_plain": cert.rhs_plain,
        # nu matters only in penalty mode, as in the bound column
        "rhs_penalized": cert.rhs_penalized if config.mode == "penalty" else None,
        "bound_satisfied": cert.bound_satisfied,
    }

    report = {
        "m": instance.m,
        "N": instance.N,
        "L": instance.L,
        "nig": instance.nig,
        "obj0": float(np.sum(instance.rho_u)),
        "cpu": cpu,
        "obj": result.E_avg.objective(),
        "obj_last": result.E_last.objective(),
        # published tables show the violation with the sign of min(gamma - c, 0)
        "const": "f" if feasible_flag else -final_positive,
        "feasible": feasible_flag,
        "violation_literal": final_literal,
        "violation_positive": final_positive,
        "scheme": config.scheme,
        "mode": config.mode,
        "iterations": config.iterations,
        "tau": config.tau,
        "sigma0": config.sigma0,
        "sigma_final": result.sigma_final,
        "fallback_events": result.fallback_events,
        "best_feasible_obj": best_feasible_obj,
        "certificate": certificate,
        "flops": result.counter.total,
        "csv": csv_path,
        "state": state_path,
        "state_avg": avg_path,
    }
    try:
        text = json.dumps(report, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NumericalFailure(f"report holds a non-finite value: {exc}") from exc
    with open(f"{out_prefix}_report.json", "w") as fh:
        fh.write(text)
    return report


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fmopt",
        description="First-order saddle-point solver for minimum-cost material design",
    )
    src = p.add_argument_group("problem source")
    src.add_argument("--instance", help="path to an fmo-inst/1 file")
    src.add_argument("--mesh", help="generate instead: NXxNY element grid, e.g. 8x4")
    src.add_argument("--lx", type=float, default=None, help="domain width (default nx)")
    src.add_argument("--ly", type=float, default=None, help="domain height (default ny)")
    src.add_argument("--fixed-edge", default="left", choices=list(fem2d.EDGES))
    src.add_argument(
        "--load",
        action="append",
        default=None,
        metavar="SEL:FX,FY",
        help="load case, e.g. right_edge:0,-1 (repeatable)",
    )
    src.add_argument("--rho-l", type=float, default=0.3)
    src.add_argument("--rho-u", type=float, default=3.0)
    src.add_argument("--r", type=float, default=0.05)
    src.add_argument("--gamma", type=float, default=None, help="compliance cap (default: 2x initial)")
    src.add_argument("--save-instance", help="write the generated instance here")

    rung = p.add_argument_group("run")
    rung.add_argument("--mode", default="plain", choices=["plain", "penalty"])
    rung.add_argument("--scheme", default="simple", choices=["simple", "weighted"])
    rung.add_argument("--iters", type=int, default=1000)
    rung.add_argument("--tau", default="0.5", help="float or 'auto'")
    rung.add_argument("--sigma0", default="1.0", help="float or 'auto'")
    rung.add_argument("--autotune-window", type=int, default=0)
    rung.add_argument("--eta", type=float, default=None, help="override the instance eta")
    rung.add_argument("--nu", type=float, default=None, help="override the instance nu")
    rung.add_argument(
        "--stride",
        type=int,
        default=1,
        help="log every STRIDE steps; each logged row costs a banded compliance solve",
    )
    rung.add_argument("--deterministic", action="store_true")
    rung.add_argument(
        "--dense-threshold",
        type=int,
        default=DENSE_THRESHOLD,
        help="largest N for which an N x N matrix is formed: above it, penalty mode (dense "
        "A(E) per step) and the bound data of a rank-deficient B (dense B^T B spectrum) are "
        "refused; every other path is banded and runs at any N",
    )
    rung.add_argument("--out", default="fmopt_run", help="output path prefix")
    return p


def _parse_loads(tokens):
    loads = []
    for tok in tokens:
        sel, _, comps = tok.partition(":")
        fx, fy = (float(v) for v in comps.split(","))
        loads.append(fem2d.LoadSpec(sel, (fx, fy)))
    return tuple(loads)


def _instance_from_args(args) -> ProblemInstance:
    if args.instance:
        return fem2d.read_instance(args.instance).with_params(eta=args.eta, nu=args.nu)
    if not args.mesh:
        raise InvalidInstance("provide --instance or --mesh")
    nx, _, ny = args.mesh.partition("x")
    nx, ny = int(nx), int(ny)
    loads = _parse_loads(args.load) if args.load else (fem2d.LoadSpec("right_edge", (0.0, -1.0)),)
    spec = fem2d.MeshSpec(
        nx=nx,
        ny=ny,
        lx=args.lx if args.lx is not None else float(nx),
        ly=args.ly if args.ly is not None else float(ny),
        fixed_edge=args.fixed_edge,
        loads=loads,
    )
    eta = args.eta if args.eta is not None else 10.0
    nu = args.nu if args.nu is not None else 0.0
    gamma = 1.0 if args.gamma is None else args.gamma
    inst = fem2d.build_instance(spec, args.rho_l, args.rho_u, args.r, gamma, eta, nu)
    if args.gamma is None:  # probe at gamma = 1; the variant shares what B determines
        c0 = float(np.max(fem2d.reference_compliance(inst, inst.start_material())))
        if c0 == 0.0:
            raise InvalidInstance(
                "zero load: the start compliance is 0, so the default gamma (twice it) "
                "would be 0; give --gamma"
            )
        inst = inst.with_params(gamma=2.0 * c0)
    if args.save_instance:
        fem2d.write_instance(inst, args.save_instance)
    return inst


def _fail(exc: Exception, kind: str, code: int, caught: list) -> int:
    """Write the JSON error line, with the distinct warnings in ``caught``; return ``code``."""
    error = {"error": str(exc), "kind": kind}
    messages = [f"{w.category.__name__}: {w.message}" for w in caught]
    if messages:
        error["warnings"] = list(dict.fromkeys(messages))
    json.dump(error, sys.stderr)
    sys.stderr.write("\n")
    return code


def _show(caught: list) -> None:
    """Show recorded warnings as the warnings module would have shown them."""
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)


def _solve(args) -> dict:
    """Build the instance and configuration from ``args``; run them; return the report."""
    instance = _instance_from_args(args)
    config = saddle.SolverConfig(
        scheme=args.scheme,
        mode=args.mode,
        iterations=args.iters,
        tau=None if args.tau == "auto" else float(args.tau),
        sigma0=None if args.sigma0 == "auto" else float(args.sigma0),
        autotune_window=args.autotune_window,
        log_stride=args.stride,
        dense_threshold=args.dense_threshold,
        deterministic=args.deterministic,
    )
    return run(config, instance, args.out)


def main(argv=None) -> int:
    """Run the CLI; return its exit code.

    Warnings are recorded under the filters in force.  A run that exits 2
    or 3 folds them into its JSON error line, so that stderr is that one
    line; any other run, one that raises included, shows them unchanged
    once the recording has ended (while it lasts, showing a warning would
    record it again).
    """
    args = _build_parser().parse_args(argv)
    code = 0
    try:
        with warnings.catch_warnings(record=True) as caught:
            try:
                report = _solve(args)
            except np.linalg.LinAlgError as exc:  # a ValueError subclass, but not bad input
                code = _fail(exc, "numerical", 3, caught)
            except (InvalidInstance, OSError, ValueError) as exc:
                code = _fail(exc, "input", 2, caught)
            except FmoError as exc:
                code = _fail(exc, "numerical", 3, caught)
    finally:
        if not code:
            _show(caught)
    if code:
        return code
    json.dump(report, sys.stdout, indent=2, allow_nan=False)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
