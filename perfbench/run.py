#!/usr/bin/env python3
"""fmopt benchmark: timed solves of three cantilever workloads, with output checks.

Run from the repository root:

    python3 perfbench/run.py --workload plain-large --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, traced and untraced
    python3 perfbench/run.py --workload cli-logged --steady 10   # run-to-run spread

One run generates the workload's inputs from ``--seed``, then starts one
solve after another (each in its own process, ``worker.py``) until
``--seconds`` is used up.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced solves
and reports the per-layer metrics, with the tracing overhead as traced
against untraced ``solve_s``.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it carries the details (environment, percentiles, failures).
"""

from __future__ import annotations

import os

BLAS_THREADS = 1  # pinned for solver and workers; at most nproc
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SPANS_OUT = ROOT / ".perfbench_out"
CHILD_TIMEOUT_S = 60  # normal solves take under 10 s; MIN_SOLVES of these stay under 180 s
MIN_SOLVES = 2
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
# Timing metrics are scaled to the host speed at which one worker.SpeedProbe
# sample takes PROBE_REF_S (about its median on a 2-vCPU Xeon 4th-gen VM).
PROBE_REF_S = 0.0032


def fail(message: str) -> None:
    """Exit nonzero without printing a result."""
    sys.stderr.write(f"perfbench: {message}\n")
    raise SystemExit(2)


def load_program() -> None:
    """Import fmopt from this checkout's ``src``; refuse any other copy."""
    src = ROOT / "src"
    if not (src / "fmopt" / "__init__.py").is_file():
        fail(f"no fmopt sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import fmopt

    if pathlib.Path(fmopt.__file__).resolve().parent != (src / "fmopt").resolve():
        fail(f"imported fmopt from {fmopt.__file__}, not from {src}")


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def tail_percentile(samples: list) -> dict:
    """Median and the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return {"p50": statistics.median(ordered), "tail": ordered[-1], "tail_pct": 100.0, "n": n}
    return {
        "p50": statistics.median(ordered),
        "tail": ordered[n - TAIL_BEYOND - 1],
        "tail_pct": round(100.0 * (n - TAIL_BEYOND) / n, 2),
        "n": n,
    }


def spawn_solve(index: int, workdir: pathlib.Path, traced: bool, reference) -> dict:
    """Run one solve in a fresh process; returns its result or a failure record."""
    out = workdir / f"solve{index}.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--inputs", str(workdir / "inputs.json"),
        "--out", str(out),
    ]
    if traced:
        cmd.append("--trace")
    if reference is not None:
        cmd += ["--reference", repr(reference)]
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"failures": [f"solve {index} timed out after {CHILD_TIMEOUT_S} s"]}
    wall = time.perf_counter() - started
    if proc.returncode != 0 or not out.is_file():
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"failures": [f"solve {index} exited {proc.returncode}: {' | '.join(tail)}"], "wall_s": wall}
    result = json.loads(out.read_text())
    result["wall_s"] = wall
    result["traced"] = traced
    return result


def run_workload(name: str, seed: int, seconds: int, trace: bool, bench: dict) -> int:
    import workloads  # importable once load_program() has run

    references = json.loads((HERE / "reference.json").read_text())
    reference = references[name] if seed == workloads.DEFAULT_SEED else None
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    failures: list[str] = []
    attempted = failed = 0
    try:
        inputs = workloads.make_inputs(name, seed, workdir)
        (workdir / "inputs.json").write_text(json.dumps(inputs))
        if name in ("cli-logged", "penalty-tight"):
            attempted += 1
            try:
                message = workloads.oracle_step_check(name, inputs)
            except Exception as exc:  # a crash in the checked kernel is a failed check
                message = f"raised {exc!r}"
            if message:
                failed += 1
                failures.append(f"oracle check: {message}")

        solves: list[dict] = []
        started = time.perf_counter()
        while True:
            traced = trace and len(solves) % 2 == 1  # untraced, traced, untraced, ...
            result = spawn_solve(len(solves), workdir, traced, reference)
            solves.append(result)
            attempted += 1
            if result["failures"]:
                failed += 1
                failures += result["failures"]
            elapsed = time.perf_counter() - started
            walls = [s["wall_s"] for s in solves if "wall_s" in s] or [0.0]
            if len(solves) >= MIN_SOLVES and elapsed + statistics.median(walls) > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    timed = [s for s in solves if "solve_s" in s]
    untraced = [s for s in timed if not s["traced"]]
    detail = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "solves": len(solves),
        "fail_ratio": failed / attempted,
        "failures": failures,
        "environment": environment(),
        "obj_avg": [s.get("obj_avg") for s in timed],
        "per_solve": {
            key: [s.get(key) for s in timed]
            for key in ("setup_s", "solve_s", "total_s", "time_to_gap_s", "iters_to_gap", "peak_rss_mb")
        },
    }
    if trace:
        metrics = layer_metrics(timed, untraced, bench)
        detail["spans_file"] = write_spans(name, seed, timed)
    else:
        metrics = end_to_end_metrics(untraced, bench, detail)
    print(json.dumps({"detail": detail}))
    if metrics is None:
        fail(f"{name}: no solve produced every metric; failures: {failures}")
    units = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    for key, val in metrics.items():
        print(f"  {key:42s} {val['value']:.6g} {units[key]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def write_spans(name: str, seed: int, timed: list) -> str:
    """Write every traced solve's spans ([name, start_ns, end_ns, parent]) to one file."""
    SPANS_OUT.mkdir(exist_ok=True)
    path = SPANS_OUT / f"spans-{name}-seed{seed}.json"
    solves = [s.pop("spans") for s in timed if "spans" in s]
    path.write_text(json.dumps({"workload": name, "seed": seed, "solves": solves}))
    return str(path.relative_to(ROOT))


def _median_of(solves: list, key: str):
    values = [s[key] for s in solves if s.get(key) is not None]
    return statistics.median(values) if values else None


def speed_scaled(solve: dict) -> dict:
    """One solve's times at the reference host speed.

    The host's speed drifts by up to ~1.5x over seconds to minutes, because
    other tenants share its cores and caches.  The worker times a fixed
    probe before the solve, at every logged row and after it.  Each time is
    multiplied by PROBE_REF_S over the mean probe time of the part of the
    solve it covers: every sample for setup_s, total_s and time_to_gap_s,
    the samples at the logged rows for solve_s, and the two samples on
    either side of a step interval for that interval.
    """
    scale = PROBE_REF_S / statistics.fmean(solve["probe_s"])
    loop_scale = PROBE_REF_S / statistics.fmean(solve["row_probe_s"])
    out = {"scale": scale, "peak_rss_mb": solve["peak_rss_mb"], "solve_s": solve["solve_s"] * loop_scale}
    for key in ("setup_s", "total_s", "time_to_gap_s"):
        out[key] = solve[key] * scale if solve.get(key) is not None else None
    out["step_ms"] = [
        ms * PROBE_REF_S / probe for ms, probe in zip(solve["step_ms"], solve["step_probe_s"])
    ]
    return out


def end_to_end_metrics(untraced: list, bench: dict, detail: dict):
    scaled = [speed_scaled(s) for s in untraced]
    steps = [ms for s in scaled for ms in s["step_ms"]]
    if not steps:
        return None
    pct = tail_percentile(steps)
    detail["step_ms"] = pct
    detail["speed_scale"] = [s["scale"] for s in scaled]
    values = {
        "setup_s": _median_of(scaled, "setup_s"),
        "solve_s": _median_of(scaled, "solve_s"),
        "total_s": _median_of(scaled, "total_s"),
        "step_ms_p50": pct["p50"],
        "step_ms_tail": pct["tail"],
        "time_to_gap_s": _median_of(scaled, "time_to_gap_s"),
        "peak_rss_mb": _median_of(scaled, "peak_rss_mb"),
    }
    return _as_metrics(values, bench["end_to_end"])


def layer_metrics(timed: list, untraced: list, bench: dict):
    traced = [s for s in timed if s["traced"]]
    if not traced or not untraced:
        return None
    values = {
        key: statistics.median(s["layers"][key] for s in traced)
        for key in traced[0]["layers"]
    }
    on = _median_of([speed_scaled(s) for s in traced], "solve_s")
    off = _median_of([speed_scaled(s) for s in untraced], "solve_s")
    values["trace.solve_s_traced"] = on
    values["trace.solve_s_untraced"] = off
    values["trace.overhead_pct"] = 100.0 * (on / off - 1.0)
    return _as_metrics(values, bench["per_layer"])


def _as_metrics(values: dict, declared: list):
    out = {}
    for m in declared:
        val = values.get(m["name"])
        if val is None or not math.isfinite(val):
            return None
        out[m["name"]] = {"value": val, "unit": m["unit"]}
    return out


def last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def run_child_bench(name: str, seed: int, seconds: int, trace: bool) -> tuple:
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    if proc.returncode != 0:
        return None, proc.stderr.strip()
    lines = proc.stdout.strip().splitlines()
    return last_json_line(proc.stdout), json.loads(lines[0])["detail"]


def run_all(seed: int, seconds: int, bench: dict) -> int:
    """Every workload, untraced then traced; prints every metric with its unit."""
    summary = {}
    ok = True
    for wl in bench["workloads"]:
        for trace in (False, True):
            result, detail = run_child_bench(wl["name"], seed, seconds, trace)
            if result is None:
                print(f"{wl['name']} trace={int(trace)}: FAILED: {detail}")
                ok = False
                continue
            ok = ok and result["correct"]
            print(
                f"{wl['name']} trace={int(trace)}: attempted {result['attempted']}, "
                f"failed {result['failed']}, fail_ratio {detail['fail_ratio']:.3f}"
            )
            for key, m in result["metrics"].items():
                print(f"  {key:42s} {m['value']:.6g} {m['unit']}")
            if not trace:
                pct = detail["step_ms"]
                print(f"  step_ms_tail is p{pct['tail_pct']} of {pct['n']} step samples")
            for msg in detail["failures"]:
                print(f"  check failed: {msg}")
            summary.setdefault(wl["name"], {}).update(
                {k: m["value"] for k, m in result["metrics"].items()}
            )
            summary[wl["name"]][f"fail_ratio_trace{int(trace)}"] = detail["fail_ratio"]
    print(json.dumps({"correct": ok, "workloads": summary}))
    return 0 if ok else 1


def run_steady(names: list, seed: int, repeats: int, seconds: int, bench: dict) -> int:
    """Repeat each workload on seeds seed..seed+repeats-1; spread = IQR / median."""
    report = {}
    ok = True
    for name in names:
        runs = []
        for i in range(repeats):
            result, detail = run_child_bench(name, seed + i, seconds, False)
            if result is None:
                print(f"{name} seed {seed + i}: FAILED: {detail}")
                ok = False
                continue
            runs.append(result)
            ok = ok and result["correct"]
            values = ", ".join(f"{k}={m['value']:.5g}" for k, m in result["metrics"].items())
            print(
                f"{name} seed {seed + i}: failed {result['failed']}/{result['attempted']}, {values}",
                flush=True,
            )
        report[name] = {}
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            within = spread <= m["bound"] / 3.0
            ok = ok and (within or m["name"] == "setup_s")
            report[name][m["name"]] = {
                "median": med, "spread": spread, "bound": m["bound"], "within_third": within,
            }
            print(
                f"  {name:14s} {m['name']:14s} median {med:10.5g} {m['unit']:5s} "
                f"spread {spread:6.2%}  bound {m['bound']:.0%}  "
                f"{'ok' if within else 'WIDE'} (target < bound/3)"
            )
    print(json.dumps({"steady": ok, "spreads": report}))
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="fmopt benchmark")
    p.add_argument("--workload", required=True, help="workload name, or 'all'")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None, help="default: run_seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", type=int, default=0, metavar="K",
                   help="repeat on K seeds and report each metric's spread against its bound")
    args = p.parse_args(argv)
    bench_path = ROOT / "BENCHMARK.json"
    if not bench_path.is_file():
        fail(f"{bench_path} missing")
    bench = json.loads(bench_path.read_text())
    load_program()
    names = [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    if args.workload != "all" and args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose from {names} or 'all'")
    if args.steady:
        chosen = names if args.workload == "all" else [args.workload]
        return run_steady(chosen, args.seed, args.steady, seconds, bench)
    if args.workload == "all":
        return run_all(args.seed, seconds, bench)
    return run_workload(args.workload, args.seed, seconds, bool(args.trace), bench)


if __name__ == "__main__":
    raise SystemExit(main())
