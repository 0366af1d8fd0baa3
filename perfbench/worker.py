"""One solve of one workload in a fresh process, then its output checks.

Usage (spawned by ``run.py``, one process per solve)::

    python3 perfbench/worker.py --inputs inputs.json --out result.json [--trace] [--reference obj]

Timestamps come from a hook on ``saddle.run_solver`` (loop start and end)
and on the sink it receives (one timestamp per logged row); with
``--trace`` every call listed in ``spans.TRACED_CALLS`` also records a
span.  The result is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import pathlib
import resource
import statistics
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from fmopt import cli, fem2d, model, saddle  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

FEASIBLE_E = model.feasible_E  # bound before any tracing is installed
BALL_RTOL = 1e-12
REFERENCE_RTOL = 1e-6
SETUP_REPEATS = 3  # plain-large and penalty-tight; cli-logged sets up once inside cli.main
EDGE_PROBES = 5  # probe samples taken right before and right after the solve


class SpeedProbe:
    """Samples the host's current speed by timing a fixed piece of work.

    The work (a Python loop, element-batched einsums over a strain-like
    array of 1.5 MB, and a 200x200 Cholesky factorization; about 3 ms)
    does not touch fmopt, so no change to the program can move it.  Every
    call appends its duration to ``samples``.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.b = rng.standard_normal((2048, 4, 3, 8))
        self.e = rng.standard_normal((2048, 3, 3))
        self.x = rng.standard_normal((2048, 8))
        g = rng.standard_normal((200, 200))
        self.spd = g @ g.T + 200.0 * np.eye(200)
        self.samples: list[float] = []

    def __call__(self) -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(12_000):
            acc += i * i
        w = np.einsum("qlkd,qd->qlk", self.b, self.x)
        ew = np.einsum("qkc,qlc->qlk", self.e, w)
        np.einsum("qlkd,qlk->qd", self.b, ew)
        np.linalg.cholesky(self.spd)
        took = time.perf_counter() - start
        self.samples.append(took)
        return took


class LoopHook:
    """Wraps ``saddle.run_solver`` to timestamp the loop and each logged row.

    At each logged row the sink also takes one speed-probe sample, so the
    samples follow the host's speed through the solve.  The probe time is
    kept out of every timing: ``paused`` sums it, and each row's stamp is
    the clock at sink entry minus the probe time before it.
    """

    def __init__(self, tracer: Tracer | None, probe: SpeedProbe):
        self.tracer = tracer
        self.probe = probe
        self.paused = 0.0
        self.loop_start = self.loop_end = None
        self.rows: list[tuple] = []  # (t, probe-free stamp at sink entry, gap)
        self.row_probes: list[float] = []  # the probe sample taken at each row
        self.instance = self.result = None
        self._inner = None

    def install(self) -> None:
        self._inner = saddle.run_solver  # the traced wrapper, when tracing
        saddle.run_solver = self.run_solver

    def uninstall(self) -> None:
        saddle.run_solver = self._inner

    def run_solver(self, instance, config, sink=None, constants=None):
        rows = self.rows
        inner_sink = sink  # only the CLI passes a sink of its own
        if sink is not None and self.tracer is not None:
            inner_sink = self.tracer.span("cli.row", sink)

        def timed_sink(rec):
            rows.append((rec.t, time.perf_counter() - self.paused, rec.gap))
            took = self.probe()
            self.paused += took
            self.row_probes.append(took)
            if inner_sink is not None:
                inner_sink(rec)

        self.instance = instance
        self.loop_start = time.perf_counter()
        self.result = self._inner(instance, config, timed_sink, constants)
        self.loop_end = time.perf_counter()
        return self.result


def solve(inputs: dict, workdir: pathlib.Path, hook: LoopHook, setup_repeats: int) -> dict:
    """Run the workload's program path; returns first-call and last-output times."""
    name = inputs["workload"]
    wl = workloads.WORKLOADS[name]
    out: dict = {}
    if name == "cli-logged":
        argv = [
            "--instance", inputs["instance_path"],
            "--scheme", wl["scheme"],
            "--iters", str(wl["iterations"]),
            "--tau", "auto",
            "--sigma0", "auto",
            "--autotune-window", str(wl["autotune_window"]),
            "--stride", str(wl["stride"]),
            "--deterministic",
            "--out", str(workdir / "cli"),
        ]
        stdout = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        t_last = time.perf_counter()
        out.update(exit_code=code, stdout=stdout.getvalue(), prefix=str(workdir / "cli"))
    else:
        config = saddle.SolverConfig(
            scheme=wl["scheme"],
            mode=wl["mode"],
            iterations=wl["iterations"],
            tau=0.5,
            sigma0=1.0,
            log_stride=wl["stride"],
        )
        # repeated setups (untraced solves only) steady the setup_s median;
        # the last one feeds the solve
        out["earlier_setups"] = []
        for _ in range(setup_repeats - 1):
            t0 = time.perf_counter()
            workloads.solver_instance(inputs)
            out["earlier_setups"].append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        saddle.run_solver(workloads.solver_instance(inputs), config)
        t_last = time.perf_counter()
    out.update(t0=t0, t_last=t_last)
    return out


def strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-finite JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def check_cli_outputs(prefix: str, stdout: str, wl: dict, failures: list) -> dict:
    """Strict parse of the CLI report (file and stdout) and of the CSV."""
    try:
        report = strict_json(pathlib.Path(f"{prefix}_report.json").read_text())
        if strict_json(stdout) != report:
            failures.append("stdout report differs from the report file")
    except (OSError, ValueError) as exc:
        failures.append(f"report does not parse strictly: {exc}")
        return {}
    try:
        lines = pathlib.Path(f"{prefix}.csv").read_text().splitlines()
    except OSError as exc:
        failures.append(f"csv unreadable: {exc}")
        return report
    if not lines or lines[0] != cli.CSV_HEADER:
        failures.append("csv header mismatch")
    expected_rows = wl["iterations"] // wl["stride"]
    if len(lines) - 1 != expected_rows:
        failures.append(f"csv has {len(lines) - 1} rows, expected {expected_rows}")
    width = len(cli.CSV_HEADER.split(","))
    for n, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != width:
            failures.append(f"csv line {n}: {len(cells)} cells")
            break
        try:
            values = [float(c) for c in cells]
        except ValueError:
            failures.append(f"csv line {n}: unparsable cell")
            break
        if not all(math.isfinite(v) for v in values):
            failures.append(f"csv line {n}: non-finite cell")
            break
    return report


def check_outputs(inputs: dict, hook: LoopHook, run: dict, reference: float | None) -> dict:
    """Every output check for one solve; returns failures and the checked values."""
    name = inputs["workload"]
    wl = workloads.WORKLOADS[name]
    failures: list[str] = []
    res, instance = hook.result, hook.instance
    if name == "cli-logged":
        if run["exit_code"] != 0:
            return {"failures": [f"cli exited {run['exit_code']}"], "obj_avg": None}
        report = check_cli_outputs(run["prefix"], run["stdout"], wl, failures)
        states = {
            "E_last(file)": fem2d.read_state(f"{run['prefix']}_state.txt"),
            "E_avg(file)": fem2d.read_state(f"{run['prefix']}_state_avg.txt"),
        }
        obj_avg = report.get("obj")
        if obj_avg is not None and obj_avg != res.E_avg.objective():
            failures.append("report obj differs from the averaged state")
    else:
        obj_avg = res.E_avg.objective()
        states = {}
    states.update({"E_last": res.E_last, "E_avg": res.E_avg})
    for label, state in states.items():
        ok, rep = FEASIBLE_E(instance, state)
        if not ok:
            failures.append(f"{label} infeasible: {rep}")
    for label, dual in (("x_last", res.x_last), ("x_avg", res.x_avg)):
        worst = float(np.max(dual.norms()))
        if not worst <= instance.eta * (1.0 + BALL_RTOL):
            failures.append(f"{label} leaves the eta-ball: |x| = {worst!r} > {instance.eta!r}")
    gaps = [gap for _, _, gap in hook.rows]
    expected_rows = wl["iterations"] // wl["stride"]
    if len(gaps) != expected_rows:
        failures.append(f"{len(gaps)} logged rows, expected {expected_rows}")
    bad = [g for g in gaps if g is None or not math.isfinite(g) or g < 0.0]
    if bad:
        failures.append(f"{len(bad)} logged gaps not finite and >= 0 (first {bad[0]!r})")
    if reference is not None and obj_avg is not None:
        if not math.isclose(obj_avg, reference, rel_tol=REFERENCE_RTOL):
            failures.append(
                f"averaged objective {obj_avg!r} != reference {reference!r} "
                f"(rtol {REFERENCE_RTOL})"
            )
    return {"failures": failures, "obj_avg": obj_avg}


def timings(inputs: dict, hook: LoopHook, run: dict) -> dict:
    wl = workloads.WORKLOADS[inputs["workload"]]
    t0 = run["t0"]
    rows = hook.rows
    pairs = [
        (a, b, (pa + pb) / 2)
        for a, b, pa, pb in zip(rows, rows[1:], hook.row_probes, hook.row_probes[1:])
        if b[0] > a[0]
    ]
    steps = [(b[1] - a[1]) * 1e3 / (b[0] - a[0]) for a, b, _ in pairs]
    time_to_gap = iters_to_gap = None
    if rows and rows[0][2] is not None and math.isfinite(rows[0][2]):
        target = wl["gap_fraction"] * rows[0][2]
        for t, stamp, gap in rows:
            if gap is not None and gap <= target:
                time_to_gap, iters_to_gap = stamp - t0, t
                break
    return {
        "setup_s": statistics.median(run.get("earlier_setups", []) + [hook.loop_start - t0]),
        "solve_s": hook.loop_end - hook.loop_start - hook.paused,
        "total_s": run["t_last"] - t0 - hook.paused,
        "step_ms": steps,
        "step_probe_s": [probe for _, _, probe in pairs],  # the probes on either side
        "row_probe_s": hook.row_probes,
        "time_to_gap_s": time_to_gap,
        "iters_to_gap": iters_to_gap,
    }


def layer_metrics(tracer: Tracer, hook: LoopHook, prefix: str | None) -> dict:
    """Per-layer numbers of one traced solve, keyed by metric name."""
    spans = tracer.summary()

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def total_s(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    res, instance = hook.result, hook.instance
    counts = res.counter.snapshot()
    n_steps = hook.rows[-1][0]
    out = {
        "fem2d.build_instance_s": total_s("fem2d.build_instance"),
        "fem2d.read_instance_s": total_s("fem2d.read_instance"),
        "fem2d.write_state_s": total_s("fem2d.write_state"),
        "model.apply_A_calls": calls("model.apply_A"),
        "model.apply_A_s": self_s("model.apply_A"),
        "model.feasible_E_s": self_s("model.feasible_E"),
        "saddle.subgradients_s": self_s("saddle.subgradients"),
        "saddle.subgradients_calls": calls("saddle.subgradients"),
        "saddle.solve_x_s": self_s("saddle.solve_x"),
        "saddle.da_step_self_s": self_s("saddle.da_step"),
        "saddle.quick_feasible_s": self_s("saddle.quick_feasible"),
        "saddle.fallback_events": res.fallback_events,
        "proj.project_blocks_s": self_s("proj.project_blocks"),
        "proj.project_blocks_calls": calls("proj.project_blocks"),
        "diagnostics.gap_estimate_s": self_s("diagnostics.gap_estimate"),
        "diagnostics.gap_estimate_calls": calls("diagnostics.gap_estimate"),
        "diagnostics.compute_constants_s": total_s("diagnostics.compute_constants"),
        "diagnostics.power_iteration_s": total_s("diagnostics.power_iteration"),
        "diagnostics.singular_sq_s": total_s("diagnostics.singular_sq"),
        "diagnostics.certificate_s": total_s("diagnostics.certificate"),
        "penalty.assemble_dense_s": self_s("penalty.assemble_dense"),
        "penalty.factor_solve_s": self_s("penalty.factor_solve"),
        "penalty.compliance_calls": calls("penalty.factor_solve"),
        "penalty.grad_correction_s": self_s("penalty.grad_correction"),
        "cli.row_s": self_s("cli.row"),
        "cli.rows": calls("cli.row"),
        "cli.csv_bytes": os.path.getsize(f"{prefix}.csv") if prefix else 0,
    }
    for key in ("grads", "x_update", "E_update", "averaging", "dense_assembly", "dense_solve"):
        out[f"flops_per_step.{key}"] = counts.get(key, 0.0) / n_steps
    sub_s, proj_s = out["saddle.subgradients_s"], out["proj.project_blocks_s"]
    out["saddle.subgradients_gflops"] = counts.get("grads", 0.0) / sub_s * 1e-9 if sub_s else 0.0
    out["proj.project_blocks_gflops"] = counts.get("E_update", 0.0) / proj_s * 1e-9 if proj_s else 0.0
    # compulsory traffic of one subgradients call, from array sizes: the packed
    # strain operator and column map, E, x, the loads, the fallback
    # representatives, and the two outputs (g_E like E, g_x like x)
    k, m, L, N = instance.k, instance.m, instance.L, instance.N
    nbytes = (
        instance.B_packed.nbytes + instance.cols_packed.nbytes
        + 2 * m * k * k * 8 + 4 * L * N * 8
    )
    out["saddle.subgradients_flops_per_byte"] = counts.get("grads", 0.0) / n_steps / nbytes
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--inputs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--reference", type=float, default=None)
    args = p.parse_args(argv)
    inputs = json.loads(pathlib.Path(args.inputs).read_text())
    workdir = pathlib.Path(args.out).parent

    probe = SpeedProbe()
    for _ in range(EDGE_PROBES):
        probe()
    tracer = Tracer() if args.trace else None
    hook = LoopHook(tracer, probe)
    if tracer is not None:
        tracer.install()
    hook.install()
    try:
        run = solve(inputs, workdir, hook, 1 if args.trace else SETUP_REPEATS)
    finally:
        hook.uninstall()
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for _ in range(EDGE_PROBES):
        probe()
    result = {"peak_rss_mb": peak_rss_mb, "probe_s": probe.samples}
    if hook.result is None:
        result["failures"] = [f"solver did not finish (cli exit {run.get('exit_code')})"]
    else:
        result.update(timings(inputs, hook, run))
        result.update(check_outputs(inputs, hook, run, args.reference))
        if result["time_to_gap_s"] is None:
            result["failures"].append("gap target never reached")
        if tracer is not None:
            result["layers"] = layer_metrics(tracer, hook, run.get("prefix"))
            result["layers"]["saddle.iters_to_gap"] = result["iters_to_gap"] or 0
            result["spans"] = tracer.spans
    pathlib.Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
