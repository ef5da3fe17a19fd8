"""The library names the benchmark's tracer wraps must stay the ones callers use.

``perfbench/tracer.py`` times a layer by replacing the module attributes and
methods that callers look up at call time.  If a step routine bound one of
them at import, or called around it, the traced counts would break their
identities; these tests run the tracer over short integrations of both
benchmark step functions, over a reference build, whose exact flows go
around the Krylov flow, and over runs whose second flows go through the
operator's Phi_2 columns, and check those identities.  The tracer file is
only imported, never changed.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
MODULES = ("problems", "linalg", "flow", "phi", "integrators", "harness", "cli")
LAYERS = ("problems", "linalg", "flow", "phi", "integrators")
# Every span of a name that integrate() and the step functions must look up
# at call time.  ``integrators.kernel_solve`` is not one: no step makes a
# kernel solve, so its span must stay at 0 calls.
SPANS = (
    "integrators.step", "integrators.lift",
    "integrators.load", "flow.flow", "flow.arnoldi_step", "flow.project",
    "linalg.kernel_project", "linalg.require_spd", "phi.expm",
)


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_FILE)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def library_namespace():
    """(owner, attribute) -> object for the modules and classes the tracer patches."""
    mods = {name: importlib.import_module(f"expidae.{name}") for name in MODULES}
    owners = dict(mods)
    owners["SaddleFactorization"] = mods["linalg"].SaddleFactorization
    owners["DaeOperator"] = mods["flow"].DaeOperator
    owners["ConstrainedSystem"] = mods["integrators"].ConstrainedSystem
    return {(owner, attr): value for owner, obj in owners.items()
            for attr, value in vars(obj).items()}


def changed(before, after):
    return {key for key in before if after.get(key) is not before[key]}


def test_traced_integrations_keep_the_count_identities(monkeypatch):
    # Every span must be exercised, DaeOperator.apply too: the Krylov flow.
    monkeypatch.setattr(importlib.import_module("expidae.integrators"), "MAPPED_FLOW_MAX_N", 0)
    before = library_namespace()
    tracer = load_tracer().Tracer()
    tau = 1 / 2560
    with tracer:
        patched = changed(before, library_namespace())
        assert ("integrators", "second_order_step") in patched
        assert ("DaeOperator", "apply") in patched
        integ = importlib.import_module("expidae.integrators")
        prob = importlib.import_module("expidae.problems").build_problem("nonsym", n_cells=16)
        for scheme in ("second-order", "exp-euler"):
            config = integ.SchemeConfig(scheme=scheme)
            _, diag = integ.integrate(prob.system, config, prob.u0, 0.0, 4 * tau, tau)
            tracer.diagnostics.append(diag)

    assert tracer.self_check(LAYERS) == []
    assert tracer.calls["integrators.step"] == 8
    assert tracer.calls["flow.flow"] == 4 * 2 + 4 * 1
    assert [span for span in SPANS if tracer.calls[span] == 0] == []
    assert tracer.calls["integrators.kernel_solve"] == 0

    after = library_namespace()
    assert changed(before, after) == set()
    assert all(attr.startswith("__") for _, attr in set(after) - set(before))


def traced_run(**config):
    """The tracer of a run of 4 steps on ``nonsym`` h=1/16 with ``SchemeConfig(**config)``."""
    tracer = load_tracer().Tracer()
    tau = 1 / 2560
    with tracer:
        integ = importlib.import_module("expidae.integrators")
        prob = importlib.import_module("expidae.problems").build_problem("nonsym", n_cells=16)
        _, diag = integ.integrate(
            prob.system, integ.SchemeConfig(**config), prob.u0, 0.0, 4 * tau, tau
        )
        tracer.diagnostics.append(diag)
    return tracer


def test_traced_alt_euler_keeps_the_saddle_solve_identity():
    # Every saddle solve the alternative scheme makes goes through a
    # traced entry, and none is a kernel solve.
    tracer = traced_run(scheme="alt-euler")
    assert tracer.self_check(("linalg", "flow")) == []
    assert tracer.calls["integrators.kernel_solve"] == 0


def test_traced_family_keeps_the_saddle_solve_identity():
    # The family's loads go into the Arnoldi solves of its two flows.
    tracer = traced_run(scheme="second-order-family", c2=0.5)
    assert tracer.self_check(("linalg", "flow")) == []
    assert tracer.calls["integrators.kernel_solve"] == 0


def test_traced_reference_build_keeps_the_count_identities():
    # The reference runs flow through exact dense step maps: every flow is
    # one traced flow.flow call that makes no Arnoldi step, and adds only
    # its one substep and its mapped count to Diagnostics.
    tracer = load_tracer().Tracer()
    tau = 1 / 2560
    with tracer:
        harness = importlib.import_module("expidae.harness")
        prob = importlib.import_module("expidae.problems").build_problem("nonsym", n_cells=16)
        harness.build_reference(prob, 4 * tau, tau)

    assert tracer.self_check(("linalg", "phi", "integrators", "harness")) == []
    assert tracer.calls["integrators.step"] == 4 + 8
    assert tracer.calls["flow.flow"] == 2 * (4 + 8)
    assert tracer.calls["flow.arnoldi_step"] == 0
    assert tracer.calls["phi.expm"] == 2
    assert len(tracer.diagnostics) == 2
    for diag, flows in zip(tracer.diagnostics, (8, 16)):
        counters = (diag.flow_substeps, diag.flow_checks, diag.arnoldi_steps, diag.max_basis_size)
        assert counters == (flows, 0, 0, 0)
        assert diag.mapped_flows == flows


def test_traced_run_through_phi2_columns_keeps_the_count_identities(monkeypatch):
    # dynbc h=1/8 above the size bound (n = 63, slopes on 7 unknowns): the
    # first second-order step builds the 7 columns by Krylov flows of unit
    # loads, and every step's second flow is then a column flow.  Both go
    # through the traced flow entry and into Diagnostics.
    monkeypatch.setattr(importlib.import_module("expidae.integrators"), "MAPPED_FLOW_MAX_N", 0)
    tracer = load_tracer().Tracer()
    tau = 1 / 2560
    with tracer:
        integ = importlib.import_module("expidae.integrators")
        prob = importlib.import_module("expidae.problems").build_problem("dynbc", n_cells=8)
        config = integ.SchemeConfig(scheme="second-order")
        for _ in range(2):
            _, diag = integ.integrate(prob.system, config, prob.u0, 0.0, 8 * tau, tau)
            tracer.diagnostics.append(diag)

    assert tracer.self_check(LAYERS) == []
    assert tracer.calls["flow.flow"] == 2 * (8 + 8) + 7
    first, rerun = tracer.diagnostics
    assert (first.column_flows, rerun.column_flows) == (8, 8)
    assert first.flow_substeps == 8 + 7 + 8 and rerun.flow_substeps == 16
    assert tracer.calls["flow.arnoldi_step"] == first.arnoldi_steps + rerun.arnoldi_steps
    assert tracer.calls["integrators.kernel_solve"] == 0
    # g = g' = 0 on dynbc: no lift matrix is built.
    assert tracer.calls["integrators.lift"] == 0
