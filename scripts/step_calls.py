#!/usr/bin/env python3
"""Python-level calls per step of ``saddle.run_solver``, printed as JSON.

A call is a ``sys.setprofile`` "call" (Python function) or "c_call"
(builtin or C function, numpy's included) event.  For a given numpy the
count is deterministic, where time is not, so it measures the fixed
per-call work of a step on any host.  Four runs:

* ``8x4``: the criterion 5 instance (m = 32, L = 2), simple scheme at its
  optimal tau and sigma, 10^4 steps, a row every 200
* ``cli-logged``: the perfbench instance (32x16, L = 3) read from its file,
  weighted scheme, auto tau and sigma0, autotune window 50, 200 steps, a
  row every 10
* ``plain-large`` and ``penalty-tight``: the perfbench workloads' own
  instances and configurations

For each run it prints the calls per step over the whole run (setup and
rows included) and over the last stride, which only steps of the same
regime make, and the material blocks of the run by the path of
``proj.project_blocks`` that updated them: the certified trace shift, the
3x3 closed form, or the batched ``eigh``.  The blocks are counted in the
same profile hook, from the arguments of each call, so counting them adds
no call.

Usage: PYTHONPATH=src python scripts/step_calls.py [--seed 1]
"""

import argparse
import json
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))

import numpy as np  # noqa: E402
import workloads  # noqa: E402

from fmopt import diagnostics, fem2d, proj, saddle  # noqa: E402


def criterion_5_run():
    spec = fem2d.MeshSpec(
        nx=8, ny=4, lx=8.0, ly=4.0,
        loads=(
            fem2d.LoadSpec("right_edge", (0.0, -1.0)),
            fem2d.LoadSpec("bottom_right", (1.0, 0.0)),
        ),
    )
    instance = fem2d.build_instance(spec, rho_l=0.3, rho_u=3.0, r=0.05, gamma=5.0, eta=8.0)
    tau, sigma, _ = diagnostics.optimal_parameters(instance, "simple")
    config = saddle.SolverConfig(
        scheme="simple", iterations=10000, tau=tau, sigma0=sigma, log_stride=200
    )
    return instance, config


def cli_logged_run(seed, workdir):
    inputs = workloads.make_inputs("cli-logged", seed, workdir)
    instance = fem2d.read_instance(inputs["instance_path"])
    tau, sigma, _ = diagnostics.optimal_parameters(instance, "weighted", None)
    wl = workloads.WORKLOADS["cli-logged"]
    config = saddle.SolverConfig(
        scheme="weighted", iterations=wl["iterations"], tau=tau, sigma0=sigma,
        autotune_window=wl["autotune_window"], log_stride=wl["stride"],
    )
    return instance, config


def workload_run(name, seed, workdir):
    inputs = workloads.make_inputs(name, seed, workdir)
    wl = workloads.WORKLOADS[name]
    config = saddle.SolverConfig(
        scheme=wl["scheme"], mode=wl["mode"], iterations=wl["iterations"],
        tau=0.5, sigma0=1.0, log_stride=wl["stride"],
    )
    return workloads.solver_instance(inputs), config


def count_calls(instance, config):
    """Calls in all, per step, and per step over the last stride; blocks per projection path."""
    events = 0
    at_rows = []
    # blocks handed to project_blocks, to the closed form and to eigh
    sent = dict.fromkeys(("project_blocks", "closed_form", "eigh"), 0)
    solves = {
        proj.project_blocks.__code__: ("project_blocks", "s_blocks", 0),
        proj._project_blocks_3x3.__code__: ("closed_form", "s", -1),
        proj._project_blocks_eigh.__code__: ("eigh", "s", -1),
    }

    def profile(frame, event, arg):
        nonlocal events
        if event == "call" or event == "c_call":
            events += 1
            if event == "call" and frame.f_code in solves:
                key, name, axis = solves[frame.f_code]
                sent[key] += frame.f_locals[name].shape[axis]

    def sink(record):
        at_rows.append((record.t, events))

    sys.setprofile(profile)
    try:
        saddle.run_solver(instance, config, sink=sink)
    finally:
        sys.setprofile(None)
    (t0, c0), (t1, c1) = at_rows[-2], at_rows[-1]
    solved = sent["closed_form"] if instance.k == 3 else sent["eigh"]
    return {
        "steps": config.iterations,
        "calls": events,
        "calls_per_step": round(events / config.iterations, 2),
        "last_stride": [t0, t1],
        "calls_per_step_last_stride": round((c1 - c0) / (t1 - t0), 2),
        "projection_blocks": {
            "certified_shift": sent["project_blocks"] - solved,
            "closed_form": sent["closed_form"] - sent["eigh"],
            "eigh": sent["eigh"],
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    args = parser.parse_args()
    out = {"numpy": np.__version__, "seed": args.seed, "runs": {}}
    with tempfile.TemporaryDirectory() as tmp:
        workdir = pathlib.Path(tmp)
        runs = {
            "8x4": criterion_5_run(),
            "cli-logged": cli_logged_run(args.seed, workdir),
            "plain-large": workload_run("plain-large", args.seed, workdir),
            "penalty-tight": workload_run("penalty-tight", args.seed, workdir),
        }
        for name, (instance, config) in runs.items():
            out["runs"][name] = count_calls(instance, config)
    json.dump(out, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
