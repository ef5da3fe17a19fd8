"""Acceptance suite.

Each test prints one PASS/FAIL line (visible with pytest -s or in the
captured output of failing runs).  The constraint-residual criterion
aggregates over every integration performed by the other criteria, so
this module is meant to run in file order.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import arnoldi, kernel_reduction_flow, make_operator, phi, random_constrained
from expidae.flow import flow
from expidae.harness import emit_csv, error_norm, run_convergence
from expidae.integrators import (
    SchemeConfig,
    StepState,
    alt_euler_step,
    exponential_euler_step,
    integrate,
    second_order_family_step,
    second_order_step,
)
from expidae.problems import (
    MeshConfig,
    ToyConfig,
    build_dynbc,
    build_nonsym,
    build_toy,
)

# Residuals of every integration run by the acceptance criteria; the
# constraint-invariant criterion asserts over this pool.
CONSTRAINT_RESIDUALS: list[tuple[str, float]] = []

# Criterion-5 tables, reused by the determinism criterion.
_DYNBC_LADDER = [0.05 / 2**k for k in range(6)]
_DYNBC_REF_TAU = 0.05 / 32 / 16          # 1/10240
_NONSYM_LADDER = [0.05 / 2**k for k in range(7)]
_NONSYM_REF_TAU = min(_NONSYM_LADDER) / 32


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _track(problem: str, value: float) -> None:
    CONSTRAINT_RESIDUALS.append((problem, float(value)))


@pytest.fixture(scope="module")
def dynbc_problem():
    return build_dynbc(MeshConfig(n_cells=32))


@pytest.fixture(scope="module")
def nonsym_problems():
    return {n: build_nonsym(MeshConfig(n_cells=n)) for n in (32, 64)}


def test_c1_phi_identities():
    t0 = time.time()
    exact_values = all(
        phi(k, 0.0) == 1.0 / math.factorial(k) for k in range(5)
    )

    rng = np.random.default_rng(2024)
    worst_recursion = 0.0
    for _ in range(40):
        n = int(rng.integers(1, 8))
        z = rng.standard_normal((n, n))
        z *= rng.uniform(0.05, 5.0) / max(np.linalg.norm(z, 2), 1e-12)
        for k in range(4):
            res = np.linalg.norm(
                z @ phi(k + 1, z) - (phi(k, z) - np.eye(n) / math.factorial(k))
            )
            worst_recursion = max(worst_recursion, res)

    worst_integral = 0.0
    for k in (1, 2):
        for zv in (-6.0, -1.0, -0.25, 0.3, 2.0):
            val, _ = quad(
                lambda s: math.exp((1 - s) * zv) * s ** (k - 1) / math.factorial(k - 1),
                0.0,
                1.0,
            )
            worst_integral = max(worst_integral, abs(phi(k, zv) - val))

    ok = exact_values and worst_recursion <= 1e-10 and worst_integral <= 1e-8
    _report(
        "1 phi-identities",
        ok,
        f"phi_k(0) exact={exact_values}, recursion residual {worst_recursion:.2e} "
        f"<= 1e-10, integral defect {worst_integral:.2e} <= 1e-8 "
        f"({time.time() - t0:.1f}s)",
    )


def test_c2_c3_krylov_flow_and_arnoldi():
    t0 = time.time()
    rng = np.random.default_rng(99)
    worst_rel = 0.0
    worst_defect = 0.0
    worst_orth = 0.0
    worst_arnoldi = 0.0
    for trial in range(50):
        n = int(rng.integers(10, 101))
        m = int(rng.integers(0, 6))
        M, A, B = random_constrained(rng, n, m, symmetric=bool(rng.integers(2)))
        op = make_operator(M, A, B)
        x0 = op.project(rng.standard_normal(n))

        result = flow(op, x0, 1.0, tol=1e-10)
        oracle = kernel_reduction_flow(M, A, B, x0, 1.0)
        worst_rel = max(
            worst_rel,
            np.linalg.norm(result.state - oracle) / np.linalg.norm(oracle),
        )
        if m:
            worst_defect = max(
                worst_defect,
                np.linalg.norm(B @ result.state) / np.linalg.norm(result.state),
            )

        V, H, h_next = arnoldi(op, x0, min(30, n))
        r = H.shape[0]
        worst_orth = max(worst_orth, np.linalg.norm(V.T @ V - np.eye(r)))
        # X V = V H + h_next v_{r+1} e_r^T: all defect columns but the
        # last vanish; the last has norm h_next and is orthogonal to V.
        XV = np.column_stack([op.apply(V[:, j]) for j in range(r)])
        defect = XV - V @ H
        last = defect[:, -1]
        relation = math.hypot(
            np.linalg.norm(defect[:, :-1]),
            abs(np.linalg.norm(last) - h_next),
            np.linalg.norm(V.T @ last),
        )
        worst_arnoldi = max(worst_arnoldi, relation / max(np.linalg.norm(H), 1.0))

    ok2 = worst_rel <= 1e-8 and worst_defect <= 1e-10
    _report(
        "2 krylov-flow-oracle",
        ok2,
        f"50 systems: worst rel error {worst_rel:.2e} <= 1e-8, "
        f"worst constraint defect {worst_defect:.2e} <= 1e-10 "
        f"({time.time() - t0:.1f}s)",
    )
    ok3 = worst_orth <= 1e-10 and worst_arnoldi <= 1e-9
    _report(
        "3 arnoldi-structure",
        ok3,
        f"worst orthonormality {worst_orth:.2e} <= 1e-10, "
        f"worst relation residual {worst_arnoldi:.2e} <= 1e-9",
    )


def test_c4_manufactured_orders():
    t0 = time.time()
    prob = build_toy(ToyConfig(n=40, m=3, seed=0))
    taus = [0.1 / 2**k for k in range(6)]
    fits = {}
    for scheme, tol in (("exp-euler", 0.05), ("second-order", 0.1)):
        table = run_convergence(
            prob,
            SchemeConfig(scheme=scheme, flow_tol=1e-12),
            taus,
            1.0,
            norm="l2",
        )
        fits[scheme] = table.fitted_order
        _track("toy", table.max_constraint_residual)
    ok = abs(fits["exp-euler"] - 1.0) <= 0.05 and abs(fits["second-order"] - 2.0) <= 0.1
    _report(
        "4 manufactured-orders",
        ok,
        f"euler {fits['exp-euler']:.3f} (1.0+-0.05), "
        f"second-order {fits['second-order']:.3f} (2.0+-0.1) "
        f"({time.time() - t0:.1f}s)",
    )


@pytest.fixture(scope="module")
def dynbc_tables(dynbc_problem, session_cache_dir):
    tables = {}
    for scheme in ("exp-euler", "second-order"):
        tables[scheme] = run_convergence(
            dynbc_problem,
            SchemeConfig(scheme=scheme),
            _DYNBC_LADDER,
            0.7,
            norm="energy",
            tau_ref=_DYNBC_REF_TAU,
            cache_dir=session_cache_dir,
        )
    return tables


def test_c5_dynbc_orders(dynbc_tables):
    t0 = time.time()
    euler = dynbc_tables["exp-euler"]
    second = dynbc_tables["second-order"]
    for table in dynbc_tables.values():
        _track("dynbc", table.max_constraint_residual)
    monotone = all(np.diff(euler.errors) < 0) and all(np.diff(second.errors) < 0)
    drop_coarse_euler = abs(
        np.polyfit(np.log(euler.taus[1:]), np.log(euler.errors[1:]), 1)[0]
        - euler.fitted_order
    )
    ok = (
        abs(euler.fitted_order - 1.0) <= 0.15
        and abs(second.fitted_order - 2.0) <= 0.2
        and monotone
        and drop_coarse_euler < 0.1
    )
    _report(
        "5 dynbc-orders",
        ok,
        f"euler {euler.fitted_order:.3f} (1.0+-0.15), "
        f"second-order {second.fitted_order:.3f} (2.0+-0.2), "
        f"errors monotone={monotone}, coarse-drop shift {drop_coarse_euler:.3f} < 0.1 "
        f"({time.time() - t0:.1f}s)",
    )


def test_c6_nonsym_orders(nonsym_problems, session_cache_dir):
    t0 = time.time()
    fits = {}
    monotone = True
    for n_cells, prob in nonsym_problems.items():
        for scheme in ("exp-euler", "second-order"):
            table = run_convergence(
                prob,
                SchemeConfig(scheme=scheme),
                _NONSYM_LADDER,
                0.5,
                norm="h1",
                tau_ref=_NONSYM_REF_TAU,
                cache_dir=session_cache_dir,
                sample="max",
            )
            fits[(scheme, n_cells)] = table.fitted_order
            monotone = monotone and all(np.diff(table.errors) < 0)
            _track("nonsym", table.max_constraint_residual)
    euler_ok = all(
        abs(fits[("exp-euler", n)] - 1.0) <= 0.15 for n in (32, 64)
    )
    second_in_window = all(
        1.25 <= fits[("second-order", n)] <= 1.5 for n in (32, 64)
    )
    # Non-increasing from h=1/32 to h=1/64, within the resolution of a
    # 7-point least-squares fit.
    non_increasing = (
        fits[("second-order", 64)] <= fits[("second-order", 32)] + 0.02
    )
    ok = euler_ok and second_in_window and non_increasing and monotone
    _report(
        "6 nonsym-orders",
        ok,
        f"euler h=1/32 {fits[('exp-euler', 32)]:.3f}, h=1/64 "
        f"{fits[('exp-euler', 64)]:.3f} (1.0+-0.15); second-order h=1/32 "
        f"{fits[('second-order', 32)]:.3f}, h=1/64 {fits[('second-order', 64)]:.3f} "
        f"(within [1.25, 1.5], non-increasing); errors monotone={monotone} "
        f"({time.time() - t0:.1f}s)",
    )


def test_c7_scheme_coincidences(dynbc_problem, nonsym_problems):
    t0 = time.time()
    s = dynbc_problem.system
    tau = 0.01
    cfg = SchemeConfig(flow_tol=1e-12)

    a = StepState(0.0, dynbc_problem.u0.copy())
    b = StepState(0.0, dynbc_problem.u0.copy())
    for _ in range(10):
        a = second_order_step(s, a, tau, cfg)
        b = second_order_family_step(s, b, tau, replace(cfg, c2=1.0))
    family_diff = np.linalg.norm(a.u - b.u) / np.linalg.norm(a.u)

    c = StepState(0.0, dynbc_problem.u0.copy())
    d = StepState(0.0, dynbc_problem.u0.copy())
    for _ in range(10):
        c = exponential_euler_step(s, c, tau, cfg)
        d = alt_euler_step(s, d, tau, replace(cfg, theta=0.5))
    alt_diff = np.linalg.norm(c.u - d.u) / np.linalg.norm(c.u)

    ns = nonsym_problems[32].system
    state = StepState(0.0, nonsym_problems[32].u0.copy())
    worst_defect = 0.0
    for _ in range(10):
        state = alt_euler_step(ns, state, tau, replace(cfg, theta=0.0))
        gval = ns.g(state.t)
        defect = np.linalg.norm(ns.constraint @ state.u - gval)
        worst_defect = max(worst_defect, defect / (1.0 + np.linalg.norm(gval)))

    ok = family_diff <= 1e-10 and alt_diff <= 1e-10 and worst_defect <= 1e-9
    _report(
        "7 scheme-coincidences",
        ok,
        f"family(c2=1) vs second-order {family_diff:.2e} <= 1e-10, "
        f"alt-euler vs euler (g=0) {alt_diff:.2e} <= 1e-10, "
        f"alt-euler theta=0 constraint defect {worst_defect:.2e} <= 1e-9 "
        f"({time.time() - t0:.1f}s)",
    )


def test_c8_constraint_invariant():
    assert CONSTRAINT_RESIDUALS, "earlier criteria must populate the residual pool"
    worst_problem, worst = max(CONSTRAINT_RESIDUALS, key=lambda item: item[1])
    ok = worst <= 1e-9
    _report(
        "8 constraint-invariant",
        ok,
        f"max relative constraint residual over {len(CONSTRAINT_RESIDUALS)} "
        f"acceptance integrations: {worst:.2e} <= 1e-9 (worst: {worst_problem})",
    )


def test_c9_determinism(dynbc_problem, session_cache_dir, tmp_path):
    t0 = time.time()
    outputs = []
    for run in range(2):
        for scheme in ("exp-euler", "second-order"):
            table = run_convergence(
                dynbc_problem,
                SchemeConfig(scheme=scheme),
                _DYNBC_LADDER,
                0.7,
                norm="energy",
                tau_ref=_DYNBC_REF_TAU,
                cache_dir=session_cache_dir,
            )
            path = tmp_path / f"c9-{scheme}-{run}.csv"
            emit_csv(table, path)
            outputs.append(path.read_bytes())
    ok = outputs[0] == outputs[2] and outputs[1] == outputs[3]
    _report(
        "9 determinism",
        ok,
        f"criterion-5 study repeated: CSV bytes identical={ok} "
        f"({time.time() - t0:.1f}s)",
    )
