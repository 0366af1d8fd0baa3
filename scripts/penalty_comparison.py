#!/usr/bin/env python3
"""Penalized vs plain runs on a deliberately tight compliance cap.

Mirrors the paper-style comparison: same instance, same budget, penalty
mode pays a dense factorization per iteration but ends closer to
compliance feasibility.

Usage: python scripts/penalty_comparison.py [iters] [outdir]
"""

import pathlib
import sys

import numpy as np

from fmopt import cli, fem2d, saddle
from fmopt.model import compliances


def main() -> int:
    iters = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    outdir = pathlib.Path(sys.argv[2] if len(sys.argv) > 2 else "penalty_out")
    outdir.mkdir(parents=True, exist_ok=True)

    spec = fem2d.MeshSpec(
        nx=20, ny=19, lx=20.0, ly=19.0,
        loads=(fem2d.LoadSpec("bottom_right", (0.0, -1.0)),),
    )
    probe = fem2d.build_instance(spec, 0.3, 3.0, 0.05, 1.0, 20.0)
    c0 = float(np.max(compliances(probe, probe.start_material().dense())))
    gamma = 0.5 * c0  # tight on purpose: infeasible from the stiffest start

    for mode, nu in (("penalty", 10.0), ("plain", 0.0)):
        instance = probe.with_params(gamma=gamma, nu=nu)
        config = saddle.SolverConfig(
            mode=mode, iterations=iters, sigma0=1.0, log_stride=max(iters // 100, 1)
        )
        report = cli.run(config, instance, str(outdir / f"tight_{mode}"))
        print(
            f"{mode:8s}: violation+ {report['violation_positive']:.4f}, "
            f"obj {report['obj']:.2f}, cpu {report['cpu']:.1f}s "
            f"({report['cpu'] / iters * 1e3:.2f} ms/iter)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
