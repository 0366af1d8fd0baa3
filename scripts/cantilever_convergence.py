#!/usr/bin/env python3
"""Reproduce the qualitative convergence picture on a generated cantilever.

Generates an 8x4 cantilever (left edge fixed, tip load), runs both step
schemes, and writes objective/violation curves to CSV via the batch CLI.

Usage: python scripts/cantilever_convergence.py [outdir]
"""

import pathlib
import sys

import numpy as np

from fmopt import cli, fem2d, saddle
from fmopt.model import compliances


def main() -> int:
    outdir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "cantilever_out")
    outdir.mkdir(parents=True, exist_ok=True)

    spec = fem2d.MeshSpec(
        nx=8, ny=4, lx=8.0, ly=4.0,
        loads=(fem2d.LoadSpec("bottom_right", (0.0, -1.0)),),
    )
    probe = fem2d.build_instance(spec, 0.3, 3.0, 0.05, 1.0, 20.0)
    c0 = float(np.max(compliances(probe, probe.start_material().dense())))
    instance = probe.with_params(gamma=4.0 * c0)
    fem2d.write_instance(instance, outdir / "cantilever.fmo")

    for scheme in ("simple", "weighted"):
        config = saddle.SolverConfig(scheme=scheme, iterations=50000, sigma0=0.5, log_stride=500)
        report = cli.run(config, instance, str(outdir / f"cantilever_{scheme}"))
        print(
            f"{scheme}: obj {report['obj0']} -> {report['obj']:.3f}, "
            f"const={report['const']}, cpu={report['cpu']:.1f}s"
        )
    print(f"curves written under {outdir}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
