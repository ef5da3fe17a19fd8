"""Span tracer for the benchmark: times and counts calls into each expidae module.

The library is not edited.  ``Tracer.install`` replaces the attributes that
callers actually look up at call time (module globals such as
``expidae.integrators.krylov_flow`` and methods on the classes) with timing
wrappers, and ``Tracer.uninstall`` puts the originals back.  Modules are taken
from ``importlib.import_module``: the package attribute ``expidae.flow`` is the
function ``flow``, not the module.

Every wrapper records a span on a stack, so each span name gets its call count,
total time and self time (total minus the time of the traced spans it caused).
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

import numpy as np

perf_counter = time.perf_counter

# The step functions the workloads run.
STEP_FUNCTIONS = ("exponential_euler_step", "second_order_step")

# The span whose call count shows that a layer was exercised.
LAYER_SPANS = {
    "problems": "problems.build_problem",
    "linalg": "linalg.saddle_solve",
    "flow": "flow.flow",
    "phi": "phi.expm",
    "integrators": "integrators.step",
    "harness": "harness.build_reference",
    "cli": "cli.main",
}


class _SuperLUProxy:
    """Stands in for a SuperLU object and times its ``solve``."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Spans and samples of one traced operation."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.child = defaultdict(float)
        self.step_times = []
        self.expm_dims = []
        self.flow_basis = []
        self.flow_substeps = []
        self.cache_hits = 0
        self.diagnostics = []
        self._stack = []
        self._undo = []

    # -- spans -------------------------------------------------------------

    def wrap(self, name, fn, on_call=None, on_result=None):
        """Return ``fn`` wrapped in a span called ``name``."""
        stack = self._stack
        calls, total, child = self.calls, self.total, self.child

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                calls[name] += 1
                total[name] += dt
                child[name] += frame[0]
                if stack:
                    stack[-1][0] += dt
            if on_result is not None:
                on_result(result, dt)
            return result

        return traced

    def self_time(self, name) -> float:
        return self.total[name] - self.child[name]

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, name, **hooks):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **hooks))

    def install(self):
        mods = {
            key: importlib.import_module(f"expidae.{key}")
            for key in ("problems", "linalg", "flow", "phi", "integrators", "harness", "cli")
        }
        linalg, flow, integ = mods["linalg"], mods["flow"], mods["integrators"]
        harness, cli = mods["harness"], mods["cli"]

        self._patch(mods["problems"], "build_problem", "problems.build_problem")
        self._patch(cli, "build_problem", "problems.build_problem")

        self._patch(integ, "require_spd", "linalg.require_spd")
        self._patch(linalg.SaddleFactorization, "__init__", "linalg.factorize")
        self._patch(linalg.SaddleFactorization, "solve", "linalg.saddle_solve")
        raw_splu = linalg.splu

        def splu(*args, **kwargs):
            lu = raw_splu(*args, **kwargs)
            return _SuperLUProxy(lu, self.wrap("linalg.superlu_solve", lu.solve))

        self._undo.append((linalg, "splu", raw_splu))
        linalg.splu = splu
        self._patch(flow, "kernel_project", "linalg.kernel_project")

        self._patch(integ, "krylov_flow", "flow.flow", on_result=self._on_flow)
        self._patch(flow.DaeOperator, "apply", "flow.arnoldi_step")
        self._patch(flow.DaeOperator, "project", "flow.project")

        self._patch(flow, "expm", "phi.expm", on_call=self._on_expm)

        for fn_name in STEP_FUNCTIONS:
            self._patch(integ, fn_name, "integrators.step", on_result=self._on_step)
        self._patch(integ, "lift_constraint", "integrators.lift")
        self._patch(integ, "kernel_solve", "integrators.kernel_solve")
        self._patch(integ.ConstrainedSystem, "load", "integrators.load")

        self._patch(harness, "build_reference", "harness.build_reference",
                    on_result=self._on_reference)
        self._patch(harness, "integrate", "harness.integrate", on_result=self._on_integrate)
        self._patch(harness, "error_norm", "harness.error_norm")
        self._patch(cli, "run_convergence", "harness.run_convergence")
        self._patch(cli, "emit_csv", "harness.emit_csv")
        self._patch(cli, "main", "cli.main")

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- hooks -------------------------------------------------------------

    def _on_flow(self, result, dt):
        self.flow_basis.append(result.basis_size)
        self.flow_substeps.append(result.substeps)

    def _on_expm(self, args):
        self.expm_dims.append(np.shape(args[0])[0])

    def _on_step(self, result, dt):
        self.step_times.append(dt)

    def _on_reference(self, result, dt):
        self.cache_hits += bool(result.from_cache)

    def _on_integrate(self, result, dt):
        self.diagnostics.append(result[1])

    # -- derived metrics -----------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer numbers of the traced operation, keyed by metric name."""
        c, s = self.calls, self.total
        steps = c["integrators.step"]
        per_step = lambda n: n / steps if steps else 0.0
        ratio = lambda a, b: a / b if b else 0.0
        dims = np.array(self.expm_dims, dtype=float)
        step_ms = np.array(self.step_times) * 1e3
        arnoldi = c["flow.arnoldi_step"]
        refinements = c["linalg.superlu_solve"] - c["linalg.saddle_solve"]
        out = {
            "problems.build_problem.s": s["problems.build_problem"],
            "linalg.factorize.calls": c["linalg.factorize"],
            "linalg.factorize.s": s["linalg.factorize"],
            "linalg.require_spd.s": s["linalg.require_spd"],
            "linalg.saddle_solve.calls": c["linalg.saddle_solve"],
            "linalg.saddle_solve.s": s["linalg.saddle_solve"],
            "linalg.saddle_solve.per_step": per_step(c["linalg.saddle_solve"]),
            "linalg.superlu_solve.calls": c["linalg.superlu_solve"],
            "linalg.superlu_solve.s": s["linalg.superlu_solve"],
            "linalg.refinements": refinements,
            "linalg.refine_ratio": ratio(refinements, c["linalg.saddle_solve"]),
            "linalg.solve_overhead": ratio(s["linalg.saddle_solve"], s["linalg.superlu_solve"]),
            "linalg.kernel_project.calls": c["linalg.kernel_project"],
            "linalg.kernel_project.s": s["linalg.kernel_project"],
            "flow.flow.calls": c["flow.flow"],
            "flow.flow.s": s["flow.flow"],
            "flow.flow.self_s": self.self_time("flow.flow"),
            "flow.arnoldi_steps": arnoldi,
            "flow.arnoldi_steps.per_flow": ratio(arnoldi, c["flow.flow"]),
            "flow.basis.mean": float(np.mean(self.flow_basis)) if self.flow_basis else 0.0,
            "flow.basis.max": max(self.flow_basis, default=0),
            "flow.substeps": sum(self.flow_substeps),
            "flow.halvings": sum(max(n - 1, 0) for n in self.flow_substeps),
            "flow.project.s": s["flow.project"],
            "phi.expm.calls": c["phi.expm"],
            "phi.expm.s": s["phi.expm"],
            "phi.expm.dim.mean": float(dims.mean()) if dims.size else 0.0,
            "phi.expm.r3_sum": float((dims**3).sum()),
            "phi.expm.per_arnoldi_step": ratio(c["phi.expm"], arnoldi),
            "integrators.step.calls": steps,
            "integrators.step.s": s["integrators.step"],
            "integrators.step.self_s": self.self_time("integrators.step"),
            "integrators.step_ms.p50": float(np.percentile(step_ms, 50)) if steps else 0.0,
            "integrators.step_ms.p99": float(np.percentile(step_ms, 99)) if steps else 0.0,
            "integrators.repairs": sum(d.repairs for d in self.diagnostics),
        }
        for layer in ("lift", "kernel_solve", "load"):
            name = f"integrators.{layer}"
            out[f"{name}.calls"] = c[name]
            out[f"{name}.s"] = s[name]
            out[f"{name}.per_step"] = per_step(c[name])
        out.update({
            "harness.build_reference.calls": c["harness.build_reference"],
            "harness.build_reference.s": s["harness.build_reference"],
            "harness.cache_hits": self.cache_hits,
            "harness.integrate.s": s["harness.integrate"],
            "harness.error_norm.s": s["harness.error_norm"],
            "harness.emit_csv.s": s["harness.emit_csv"],
            "cli.main.self_s": self.self_time("cli.main"),
        })
        return out

    def self_check(self, layers) -> list[str]:
        """Consistency of the traced counts; returns one message per violation.

        ``diagnostics`` must hold the ``Diagnostics`` of every integration the
        traced operation ran.
        """
        c = self.calls
        problems = []
        for layer in layers:
            if c[LAYER_SPANS[layer]] == 0:
                problems.append(f"layer {layer} was not exercised ({LAYER_SPANS[layer]})")
        substeps = sum(d.flow_substeps for d in self.diagnostics)
        if sum(self.flow_substeps) != substeps:
            problems.append(f"flow substeps {sum(self.flow_substeps)} != Diagnostics {substeps}")
        max_basis = max((d.max_basis_size for d in self.diagnostics), default=0)
        if max(self.flow_basis, default=0) != max_basis:
            problems.append(f"max basis {max(self.flow_basis, default=0)} != Diagnostics {max_basis}")
        rhs = sum(d.rhs_evaluations for d in self.diagnostics)
        if c["integrators.load"] != rhs:
            problems.append(f"forcing calls {c['integrators.load']} != Diagnostics {rhs}")
        solves = (c["flow.arnoldi_step"] + c["integrators.lift"]
                  + c["integrators.kernel_solve"] + c["linalg.kernel_project"])
        if c["linalg.saddle_solve"] != solves:
            problems.append(
                f"saddle solves {c['linalg.saddle_solve']} != Arnoldi steps + lifts"
                f" + kernel solves + projections = {solves}"
            )
        if c["linalg.superlu_solve"] < c["linalg.saddle_solve"]:
            problems.append("fewer SuperLU solves than saddle solves")
        return problems
