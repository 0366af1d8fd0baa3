"""Span recording around calls into the fmopt modules, from outside the package.

A ``Tracer`` replaces module attributes with thin wrappers that record one
span (name, start, end, parent) per call.  Calls made inside a module look
their callee up in the module namespace at call time, so patching the
attribute also catches internal calls such as ``da_step`` ->
``proj.project_blocks``.  Spans stay in memory; ``uninstall`` restores the
originals, and ``summary`` derives per-name call counts, inclusive times
and self times (duration minus the time covered by direct children).
"""

from __future__ import annotations

import functools
import importlib
import time

# (module, attribute, span name): the public calls of each layer, plus the
# private kernels the layer metrics single out (the adjoint shrink, the
# per-row feasibility check and the dense factorization).
TRACED_CALLS = (
    ("fem2d", "build_instance", "fem2d.build_instance"),
    ("fem2d", "read_instance", "fem2d.read_instance"),
    ("fem2d", "write_state", "fem2d.write_state"),
    ("fem2d", "reference_compliance", "fem2d.reference_compliance"),
    ("model", "apply_A", "model.apply_A"),
    ("model", "feasible_E", "model.feasible_E"),
    ("saddle", "run_solver", "saddle.run_solver"),
    ("saddle", "subgradients", "saddle.subgradients"),
    ("saddle", "da_step", "saddle.da_step"),
    ("saddle", "_solve_x", "saddle.solve_x"),
    ("saddle", "_quick_feasible", "saddle.quick_feasible"),
    ("proj", "project_blocks", "proj.project_blocks"),
    ("diagnostics", "optimal_parameters", "diagnostics.optimal_parameters"),
    ("diagnostics", "compute_constants", "diagnostics.compute_constants"),
    ("diagnostics", "power_iteration_norm", "diagnostics.power_iteration"),
    ("diagnostics", "smallest_nonzero_singular_sq", "diagnostics.singular_sq"),
    ("diagnostics", "gap_estimate", "diagnostics.gap_estimate"),
    ("diagnostics", "approximation_certificate", "diagnostics.certificate"),
    ("penalty", "compliance_solves", "penalty.compliance_solves"),
    ("penalty", "assemble_dense", "penalty.assemble_dense"),
    ("penalty", "_factor_and_solve", "penalty.factor_solve"),
    ("penalty", "penalty_grad_correction", "penalty.grad_correction"),
    ("cli", "run", "cli.run"),
)


class Tracer:
    """In-memory span recorder; one per traced solve."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def span(self, name: str, fn):
        """Return ``fn`` wrapped so that each call records a span ``name``."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()

        return traced

    def install(self, calls=TRACED_CALLS) -> None:
        for mod_name, attr, name in calls:
            module = importlib.import_module(f"fmopt.{mod_name}")
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self.span(name, original))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def summary(self) -> dict:
        """name -> {"calls", "total_s", "self_s"} over every recorded span."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict] = {}
        for (name, start, end, _), covered in zip(self.spans, child_ns):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += (end - start) * 1e-9
            row["self_s"] += (end - start - covered) * 1e-9
        return out
