import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CountingLU,
    polyrhs_solution,
    push_flows_off_kernel,
    random_constrained,
    random_spd,
    raw_flow_endpoint,
    spy_scipy_expm,
)
from expidae.errors import (
    DimensionMismatch,
    ExpidaeError,
    InconsistentInitialData,
    InconsistentState,
    NonFinite,
    SingularSaddle,
)
from expidae.flow import DaeOperator, flow
from expidae.harness import REFERENCE_SCHEME
from expidae.integrators import (
    SCHEME_IDS,
    ConstrainedSystem,
    Diagnostics,
    SchemeConfig,
    StepState,
    _finite,
    alt_euler_step,
    exponential_euler_step,
    integrate,
    kernel_solve,
    lift_constraint,
    save_trajectory_binary,
    save_trajectory_csv,
    second_order_family_step,
    second_order_step,
    step_count,
)
from expidae.linalg import SaddleFactorization, kernel_project
from expidae.problems import ToyConfig, build_problem, build_toy


def make_system(M, A, B, forcing=None, g=None, gdot=None):
    n, m = A.shape[0], B.shape[0]
    return ConstrainedSystem(
        sp.csr_matrix(M),
        sp.csr_matrix(A),
        sp.csr_matrix(B),
        forcing or (lambda t, x: np.zeros(n)),
        g or (lambda t: np.zeros(m)),
        gdot or (lambda t: np.zeros(m)),
    )


class TestConstrainedSystem:
    def test_rejects_non_spd_mass(self):
        with pytest.raises(ValueError):
            make_system(np.diag([1.0, -1.0]), np.eye(2), np.zeros((0, 2)))

    def test_rejects_rank_deficient_constraint(self):
        B = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(SingularSaddle):
            make_system(np.eye(3), np.eye(3), B)

    def test_rejects_h1_form_of_the_wrong_shape(self):
        with pytest.raises(DimensionMismatch, match="h1_form"):
            ConstrainedSystem(
                sp.identity(10, format="csr"), sp.identity(10, format="csr"),
                sp.csr_matrix((0, 10)), lambda t, x: np.zeros(10),
                lambda t: np.zeros(0), lambda t: np.zeros(0),
                h1_form=sp.identity(7, format="csr"),
            )

    @pytest.mark.parametrize(
        "shapes, name",
        [
            (((4, 4), (3, 3), (1, 4)), "stiffness"),
            (((4, 4), (4, 4), (1, 3)), "constraint"),
            (((4, 3), (4, 4), (1, 4)), "mass"),
        ],
    )
    def test_matrix_of_the_wrong_shape_is_named(self, shapes, name):
        mass, stiffness, constraint = (np.eye(*shape) for shape in shapes)
        with pytest.raises(DimensionMismatch, match=name):
            make_system(mass, stiffness, constraint)

    def test_matrices_are_those_of_the_flow_operator(self):
        sys_ = build_toy(ToyConfig(n=8, m=2, seed=0)).system
        op = sys_.flow_op
        assert sys_.mass is op.mass
        assert sys_.stiffness is op.stiffness
        assert sys_.constraint is op.constraint
        assert (sys_.n, sys_.m) == (op.n, op.m) == (8, 2)

    def test_stiffness_saddle_shares_the_operator_matrices(self):
        sys_ = build_problem("dynbc", n_cells=32).system
        assert sys_.stiffness_saddle.S is sys_.stiffness
        assert sys_.stiffness_saddle.B is sys_.constraint

    def test_forcing_validated(self):
        sys_ = make_system(
            np.eye(2), np.eye(2), np.zeros((0, 2)), forcing=lambda t, x: np.array([np.nan, 0.0])
        )
        with pytest.raises(NonFinite):
            sys_.load(0.0, np.zeros(2))


class TestStepCount:
    """The one grid rule of integrate, build_reference and run_convergence."""

    @pytest.mark.parametrize(
        "span, tau, n", [(0.0, 0.1, 0), (0.5, 0.05, 10), (0.7, 0.01, 70), (0.5, 1 / 40960, 20480)]
    )
    def test_whole_number_of_steps(self, span, tau, n):
        assert step_count(span, tau) == n

    @pytest.mark.parametrize(
        "span, tau",
        [(0.5, tau) for tau in (0.0, -0.1, np.inf, np.nan, 1e-320)]
        + [(span, 0.1) for span in (-0.1, np.inf, np.nan)]
        + [(1.0, 0.3)],
    )
    def test_rejection_is_a_configuration_error(self, span, tau):
        # A ValueError is not an ExpidaeError, so the CLI exits with 2.
        with pytest.raises(ValueError) as info:
            step_count(span, tau)
        assert not isinstance(info.value, ExpidaeError)


class TestNoConstraints:
    """With m = 0 the general path runs on an empty B."""

    def test_constraint_maps_of_toy_without_constraints(self):
        sys_ = build_toy(ToyConfig(m=0)).system
        x = np.random.default_rng(0).standard_normal(sys_.n)
        assert np.array_equal(lift_constraint(sys_, np.zeros(0)), np.zeros(sys_.n))
        p = kernel_project(sys_.flow_op._saddle, x)
        assert np.linalg.norm(p - x) <= 1e-14 * np.linalg.norm(x)
        assert sys_.constraint_residual(0.3, x) == 0.0
        assert sys_.flow_op.constraint_defect(x) == 0.0


class TestLiftConstraint:
    def test_zero_data_lifts_to_zero(self):
        rng = np.random.default_rng(0)
        sys_ = make_system(*random_constrained(rng, 10, 2))
        assert np.linalg.norm(lift_constraint(sys_, np.zeros(2))) == 0.0

    def test_constraint_and_orthogonality(self):
        rng = np.random.default_rng(1)
        M, A, B = random_constrained(rng, 14, 3)
        sys_ = make_system(M, A, B)
        target = rng.standard_normal(3)
        x = lift_constraint(sys_, target)
        np.testing.assert_allclose(B @ x, target, rtol=1e-10, atol=1e-12)
        kernel = scipy.linalg.null_space(B)
        assert np.linalg.norm(kernel.T @ (A @ x)) <= 1e-10 * np.linalg.norm(A @ x)


class TestLinearMaps:
    """Lifts as L g and projections as x - W (B x) against their refined solves."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(4, 40),
        st.integers(0, 3),
        st.integers(0, 10_000),
        st.floats(-3.0, 3.0),
        st.floats(-3.0, 3.0),
        st.booleans(),
    )
    def test_maps_agree_with_refined_solves(self, n, m, seed, mass_exp, stiff_exp, symmetric):
        rng = np.random.default_rng(seed)
        M, A, B = random_constrained(rng, n, m, symmetric=symmetric)
        sys_ = make_system(10.0**mass_exp * M, 10.0**stiff_exp * A, B)
        op = sys_.flow_op

        g = rng.standard_normal(m)
        x, ref = sys_.lift_map @ g, lift_constraint(sys_, g)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
        assert np.linalg.norm(B @ x - g) <= 1e-12 * (1.0 + np.linalg.norm(g))

        # A random vector, and a raw flow endpoint built from unrefined
        # Arnoldi solves over about one time constant of the system.
        x = rng.standard_normal(n)
        t = 0.5 * 10.0 ** (mass_exp - stiff_exp)
        raw = raw_flow_endpoint(op, op.project(x), t)
        for v in (x, raw):
            p = op.project(v)
            assert np.linalg.norm(p - kernel_project(op._saddle, v)) <= 1e-12 * np.linalg.norm(v)
            assert np.linalg.norm(B @ p) <= 1e-12 * (1.0 + np.linalg.norm(v))

    def test_built_maps_give_bit_identical_runs(self):
        def system():
            rng = np.random.default_rng(8)
            M, A, B = random_constrained(rng, 12, 2, symmetric=False)
            g0, g1, c = rng.standard_normal(2), rng.standard_normal(2), rng.standard_normal(12)
            return make_system(
                M, A, B,
                forcing=lambda t, x: c * np.cos(t) + 0.5 * np.sin(x),
                g=lambda t: g0 * np.cos(t) + g1 * np.sin(t),
                gdot=lambda t: -g0 * np.sin(t) + g1 * np.cos(t),
            )

        config = SchemeConfig(scheme="second-order")
        built = system()
        u0 = lift_constraint(built, built.g(0.0)) + built.flow_op.project(
            np.random.default_rng(9).standard_normal(12)
        )
        integrate(built, config, u0, 0.0, 0.2, 0.05)
        assert "lift_map" in vars(built) and "_projector" in vars(built.flow_op)
        fresh = system()
        assert "lift_map" not in vars(fresh) and "_projector" not in vars(fresh.flow_op)
        runs = [integrate(s, config, u0, 0.0, 0.2, 0.05)[0] for s in (built, fresh)]
        assert [s.u.tobytes() for s in runs[0]] == [s.u.tobytes() for s in runs[1]]


class TestKernelSolve:
    def test_zero_load(self):
        rng = np.random.default_rng(2)
        sys_ = make_system(*random_constrained(rng, 10, 2))
        assert np.linalg.norm(kernel_solve(sys_, np.zeros(10))) == 0.0

    def test_inverse_on_kernel(self):
        rng = np.random.default_rng(3)
        M, A, B = random_constrained(rng, 12, 2)
        sys_ = make_system(M, A, B)
        kernel = scipy.linalg.null_space(B)
        v = kernel @ rng.standard_normal(kernel.shape[1])
        w = kernel_solve(sys_, A @ v)
        np.testing.assert_allclose(w, v, rtol=1e-9, atol=1e-11)

    def test_against_dense_block_solve(self):
        rng = np.random.default_rng(4)
        M, A, B = random_constrained(rng, 15, 3)
        sys_ = make_system(M, A, B)
        load = rng.standard_normal(15)
        w = kernel_solve(sys_, load)
        block = np.block([[A, B.T], [B, np.zeros((3, 3))]])
        dense = np.linalg.solve(block, np.concatenate([load, np.zeros(3)]))
        np.testing.assert_allclose(w, dense[:15], rtol=1e-10, atol=1e-12)


class TestEulerStep:
    def test_homogeneous_step_is_pure_flow(self):
        rng = np.random.default_rng(5)
        M, A, B = random_constrained(rng, 12, 2)
        sys_ = make_system(M, A, B)
        u0 = sys_.flow_op.project(rng.standard_normal(12))
        tau = 0.3
        state = exponential_euler_step(sys_, StepState(0.0, u0), tau)
        expected = flow(sys_.flow_op, u0, tau, tol=1e-10).state
        np.testing.assert_allclose(state.u, expected, rtol=1e-9, atol=1e-12)

    def test_constant_forcing_matches_phi_formula(self):
        # Unconstrained with identity mass: one step must equal
        # phi_0(-tau A) u0 + tau phi_1(-tau A) c.
        rng = np.random.default_rng(6)
        n = 8
        A = random_spd(rng, n, 0.5, 3.0)
        c = rng.standard_normal(n)
        sys_ = make_system(np.eye(n), A, np.zeros((0, n)), forcing=lambda t, x: c)
        u0 = rng.standard_normal(n)
        tau = 0.25
        state = exponential_euler_step(
            sys_, StepState(0.0, u0), tau, SchemeConfig(flow_tol=1e-12)
        )
        expected = polyrhs_solution(A, u0, [c], tau)
        np.testing.assert_allclose(state.u, expected, rtol=1e-10, atol=1e-12)


def linear_in_time_system():
    """System whose solution x*(t) is affine in t, with an affine multiplier."""
    rng = np.random.default_rng(7)
    n, m = 10, 2
    M, A, B = random_constrained(rng, n, m)
    p0, p1 = rng.standard_normal(n), rng.standard_normal(n)
    lam0, lam1 = rng.standard_normal(m), rng.standard_normal(m)
    exact = lambda t: p0 + t * p1
    forcing = lambda t, x: M @ p1 + A @ exact(t) + B.T @ (lam0 + t * lam1)
    sys_ = make_system(M, A, B, forcing=forcing, g=lambda t: B @ exact(t), gdot=lambda t: B @ p1)
    return sys_, exact


def combined_flow_trajectory(sys_, u0, tau, nsteps, tol):
    """Second-order states from the family formula, with z0 + w'' in one flow.

    Built from the public pieces, independently of the step routines.
    """
    u, t = u0, 0.0
    states = []
    for _ in range(nsteps):
        t1 = t + tau
        lift_g0, lift_gd0 = lift_constraint(sys_, sys_.g(t)), lift_constraint(sys_, sys_.gdot(t))
        lift_g1, lift_gd1 = lift_constraint(sys_, sys_.g(t1)), lift_constraint(sys_, sys_.gdot(t1))
        f0 = sys_.load(t, u)
        w = kernel_solve(sys_, f0 - sys_.mass @ lift_gd0)
        z0 = u - lift_g0 - w
        u_euler = lift_g1 + flow(sys_.flow_op, z0, tau, tol=tol).state + w
        f1 = sys_.load(t1, u_euler)
        w1 = kernel_solve(sys_, f1 - f0 - sys_.mass @ (lift_gd1 - lift_gd0))
        w2 = kernel_solve(sys_, sys_.mass @ w1 / tau)
        u = lift_g1 + flow(sys_.flow_op, z0 + w2, tau, tol=tol).state + w + w1 - w2
        t = t1
        states.append(u)
    return states


class TestSecondOrderStep:
    def test_exact_on_linear_in_time_data(self):
        # x*(t) affine in t with affine multiplier: the phi_2 correction
        # integrates the forcing exactly, so one step lands on x*.
        sys_, exact = linear_in_time_system()
        tau = 0.4
        cfg = SchemeConfig(scheme="second-order", flow_tol=1e-13)
        state = second_order_step(sys_, StepState(0.0, exact(0.0)), tau, cfg)
        np.testing.assert_allclose(state.u, exact(tau), rtol=1e-10, atol=1e-10)

    def test_reduces_to_euler_for_constant_data(self):
        # f and g' time-constant make the correction solves vanish.
        rng = np.random.default_rng(8)
        n, m = 10, 2
        M, A, B = random_constrained(rng, n, m)
        c = rng.standard_normal(n)
        g1 = rng.standard_normal(m)
        sys_ = make_system(
            M, A, B, forcing=lambda t, x: c, g=lambda t: t * g1, gdot=lambda t: g1
        )
        u0 = lift_constraint(sys_, np.zeros(m)) + sys_.flow_op.project(
            rng.standard_normal(n)
        )
        tau = 0.3
        cfg = SchemeConfig(flow_tol=1e-13)
        st_euler = exponential_euler_step(sys_, StepState(0.0, u0.copy()), tau, cfg)
        st_second = second_order_step(sys_, StepState(0.0, u0.copy()), tau, cfg)
        np.testing.assert_allclose(st_second.u, st_euler.u, rtol=1e-10, atol=1e-12)

    def test_manufactured_second_order(self):
        prob = build_toy(ToyConfig(n=12, m=2, seed=24))
        sys_ = prob.system
        errors = []
        taus = [0.1 / 2**k for k in range(5)]
        cfg = SchemeConfig(scheme="second-order", flow_tol=1e-12)
        for tau in taus:
            traj, _ = integrate(sys_, cfg, prob.u0, 0.0, 1.0, tau)
            errors.append(np.linalg.norm(traj[-1].u - prob.exact(1.0)))
        slope = np.polyfit(np.log(taus), np.log(errors), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)

    @pytest.mark.parametrize("name, tau", [("toy", 0.05), ("dynbc", 1 / 2560)])
    def test_matches_the_combined_flow_formula(self, name, tau):
        # The step flows w'' apart from the stage; the formula flows
        # z0 + w'' together.  By linearity they agree to the flow tolerance.
        prob = build_problem(name, n_cells=32) if name == "dynbc" else build_toy(ToyConfig())
        sys_, tol = prob.system, 1e-13
        expected = combined_flow_trajectory(sys_, prob.u0, tau, 10, tol)
        state = StepState(0.0, prob.u0)
        for u in expected:
            state = second_order_step(sys_, state, tau, SchemeConfig(flow_tol=tol))
            assert np.linalg.norm(state.u - u) <= 1e-10 * np.linalg.norm(u)


class TestFamilyStep:
    def test_half_stage_exact_on_linear_in_time_data(self):
        sys_, exact = linear_in_time_system()
        tau = 0.4
        cfg = SchemeConfig(scheme="second-order-family", c2=0.5, flow_tol=1e-13)
        state = second_order_family_step(sys_, StepState(0.0, exact(0.0)), tau, cfg)
        np.testing.assert_allclose(state.u, exact(tau), rtol=1e-10, atol=1e-10)

    def test_c2_one_coincides_with_second_order(self):
        prob = build_toy(ToyConfig(n=14, m=3, seed=11))
        sys_ = prob.system
        cfg = SchemeConfig(scheme="second-order", flow_tol=1e-13)
        cfg_fam = SchemeConfig(scheme="second-order-family", c2=1.0, flow_tol=1e-13)
        tau = 0.05
        a = StepState(0.0, prob.u0.copy())
        b = StepState(0.0, prob.u0.copy())
        for _ in range(10):
            a = second_order_step(sys_, a, tau, cfg)
            b = second_order_family_step(sys_, b, tau, cfg_fam)
        assert np.linalg.norm(a.u - b.u) <= 1e-10 * np.linalg.norm(a.u)

    def test_half_stage_second_order(self):
        prob = build_toy(ToyConfig(n=12, m=2, seed=33))
        sys_ = prob.system
        errors = []
        taus = [0.1 / 2**k for k in range(5)]
        cfg = SchemeConfig(scheme="second-order-family", c2=0.5, flow_tol=1e-12)
        for tau in taus:
            traj, _ = integrate(sys_, cfg, prob.u0, 0.0, 1.0, tau)
            errors.append(np.linalg.norm(traj[-1].u - prob.exact(1.0)))
        slope = np.polyfit(np.log(taus), np.log(errors), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.15)

    def test_homogeneous_matches_euler(self):
        rng = np.random.default_rng(9)
        M, A, B = random_constrained(rng, 10, 2)
        sys_ = make_system(M, A, B)
        u0 = sys_.flow_op.project(rng.standard_normal(10))
        tau = 0.2
        cfg = SchemeConfig(flow_tol=1e-13)
        st_euler = exponential_euler_step(sys_, StepState(0.0, u0.copy()), tau, cfg)
        st_fam = second_order_family_step(
            sys_, StepState(0.0, u0.copy()), tau, replace(cfg, c2=0.5)
        )
        np.testing.assert_allclose(st_fam.u, st_euler.u, rtol=1e-10, atol=1e-13)


class TestAltEulerStep:
    def test_matches_euler_for_homogeneous_constraint(self):
        # With g == 0 the blend solve and the w_n solve coincide.
        prob = build_toy(ToyConfig(n=12, m=0, seed=3))
        rng = np.random.default_rng(10)
        M, A, B = random_constrained(rng, 12, 2)
        forcing_vec = rng.standard_normal(12)
        sys_ = make_system(M, A, B, forcing=lambda t, x: forcing_vec * (1 + t))
        u0 = sys_.flow_op.project(rng.standard_normal(12))
        tau = 0.1
        cfg = SchemeConfig(flow_tol=1e-13)
        a = StepState(0.0, u0.copy())
        b = StepState(0.0, u0.copy())
        for _ in range(5):
            a = exponential_euler_step(sys_, a, tau, cfg)
            b = alt_euler_step(sys_, b, tau, replace(cfg, theta=0.5))
        assert np.linalg.norm(a.u - b.u) <= 1e-10 * np.linalg.norm(a.u)

    def test_theta_zero_enforces_constraint_at_new_time(self):
        prob = build_toy(ToyConfig(n=14, m=3, seed=8))
        sys_ = prob.system
        tau = 0.05
        state = StepState(0.0, prob.u0.copy())
        for _ in range(4):
            state = alt_euler_step(sys_, state, tau, SchemeConfig(theta=0.0, flow_tol=1e-12))
            defect = np.linalg.norm(sys_.constraint @ state.u - sys_.g(state.t))
            assert defect <= 1e-9 * (1.0 + np.linalg.norm(sys_.g(state.t)))

    def test_theta_one_keeps_flow_input_consistent(self):
        # With theta = 1 and consistent u_n the flowed remainder starts
        # on the constraint manifold; the step must not reproject.
        prob = build_toy(ToyConfig(n=14, m=3, seed=8))
        sys_ = prob.system
        f0 = sys_.load(0.0, prob.u0)
        w_bar, _ = sys_.stiffness_saddle.solve(f0, sys_.g(0.0))
        z0 = prob.u0 - w_bar
        assert np.linalg.norm(sys_.constraint @ z0) <= 1e-11 * np.linalg.norm(z0)


class TestIntegrate:
    @pytest.mark.parametrize(
        "config, order, tol",
        [
            (SchemeConfig(scheme="exp-euler"), 1.0, 0.05),
            (SchemeConfig(scheme="alt-euler", theta=0.0), 1.0, 0.05),
            (SchemeConfig(scheme="alt-euler", theta=0.5), 1.0, 0.05),
            (SchemeConfig(scheme="alt-euler", theta=1.0), 1.0, 0.05),
            (SchemeConfig(scheme="second-order-family", c2=0.25), 2.0, 0.1),
        ],
        ids=["exp-euler", "alt-euler-theta0", "alt-euler-theta0.5", "alt-euler-theta1",
             "family-c2-0.25"],
    )
    def test_manufactured_order(self, config, order, tol):
        # Alt-Euler's constraint residual at theta > 0 is its designed
        # behaviour, so only the order is gated here.
        prob = build_toy(ToyConfig(n=12, m=2, seed=42))
        config = replace(config, flow_tol=1e-12)
        errors = []
        taus = [0.1 / 2**k for k in range(5)]
        for tau in taus:
            traj, _ = integrate(prob.system, config, prob.u0, 0.0, 1.0, tau)
            errors.append(np.linalg.norm(traj[-1].u - prob.exact(1.0)))
        slope = np.polyfit(np.log(taus), np.log(errors), 1)[0]
        assert slope == pytest.approx(order, abs=tol)

    def test_step_times_are_on_the_grid(self):
        # Accumulating t + tau ends 30 steps of 0.1 at 3.0000000000000013.
        prob = build_toy(ToyConfig())
        traj, _ = integrate(prob.system, SchemeConfig(), prob.u0, 0.0, 3.0, 0.1)
        assert len(traj) == 31
        assert [st.t for st in traj] == [0.0 + k * 0.1 for k in range(31)]
        assert traj[-1].t == 3.0

    def test_zero_steps(self):
        prob = build_toy(ToyConfig(n=8, m=1, seed=0))
        traj, diag = integrate(prob.system, SchemeConfig(), prob.u0, 0.0, 0.0, 0.1)
        assert len(traj) == 1
        assert diag.steps == 0
        np.testing.assert_array_equal(traj[0].u, prob.u0)

    def test_non_integral_step_count_rejected(self):
        prob = build_toy(ToyConfig(n=8, m=1, seed=0))
        with pytest.raises(ValueError):
            integrate(prob.system, SchemeConfig(), prob.u0, 0.0, 1.0, 0.3)

    def test_inconsistent_initial_data_rejected(self):
        prob = build_toy(ToyConfig(n=8, m=1, seed=0))
        bad = prob.u0 + 1.0
        with pytest.raises(InconsistentInitialData):
            integrate(prob.system, SchemeConfig(), bad, 0.0, 1.0, 0.1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "name, overrides", [("toy", {}), ("nonsym", {"n_cells": 16}), ("dynbc", {"n_cells": 8})]
    )
    def test_non_finite_initial_value_is_named(self, name, overrides, value):
        # A NaN residual passes the consistency test, so u0 is checked first.
        prob = build_problem(name, **overrides)
        u0 = prob.u0.copy()
        u0[len(u0) // 2] = value
        with pytest.raises(NonFinite, match="u0"):
            integrate(prob.system, SchemeConfig(), u0, 0.0, 0.01, 0.005)

    def test_constraint_residuals_recorded_below_tolerance(self):
        prob = build_toy(ToyConfig(n=16, m=3, seed=5))
        traj, diag = integrate(prob.system, SchemeConfig(), prob.u0, 0.0, 0.5, 0.05)
        assert len(diag.constraint_residuals) == 10
        assert diag.max_constraint_residual <= 1e-9

    def test_rhs_evaluation_counts(self):
        # One evaluation per Euler step, two per second-order step.
        prob = build_toy(ToyConfig(n=10, m=2, seed=1))
        _, diag = integrate(
            prob.system, SchemeConfig(scheme="exp-euler"), prob.u0, 0.0, 0.5, 0.1
        )
        assert diag.rhs_evaluations == 5
        _, diag = integrate(
            prob.system, SchemeConfig(scheme="second-order"), prob.u0, 0.0, 0.5, 0.1
        )
        assert diag.rhs_evaluations == 10

    def test_scheme_config_validation(self):
        with pytest.raises(ValueError):
            SchemeConfig(scheme="unknown")
        with pytest.raises(ValueError):
            SchemeConfig(c2=0.0)
        with pytest.raises(ValueError):
            SchemeConfig(theta=1.5)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
    @pytest.mark.parametrize("name", ["c2", "flow_tol"])
    def test_c2_and_flow_tol_must_be_finite_and_positive(self, name, value):
        # NaN fails every comparison, so a bare `<= 0` check lets it through.
        with pytest.raises(ValueError, match=name) as info:
            SchemeConfig(scheme="second-order-family", **{name: value})
        assert not isinstance(info.value, ExpidaeError)

    @pytest.mark.parametrize("scheme", SCHEME_IDS)
    def test_dispatches_to_the_scheme_routine(self, scheme):
        # c2 and theta off their defaults make every scheme's states
        # differ from every other scheme's.
        step = {
            "exp-euler": exponential_euler_step,
            "second-order": second_order_step,
            "second-order-family": second_order_family_step,
            "alt-euler": alt_euler_step,
        }[scheme]
        prob = build_toy(ToyConfig(n=10, m=2, seed=4))
        tau = 0.05
        config = SchemeConfig(scheme=scheme, c2=0.5, theta=0.5)
        traj, _ = integrate(prob.system, config, prob.u0, 0.0, 3 * tau, tau)
        assert len(traj) == 4
        state = StepState(0.0, prob.u0.copy())
        for expected in traj[1:]:
            state = step(prob.system, state, tau, config)
            assert state.t == expected.t
            assert np.array_equal(state.u, expected.u)

    def test_repeated_calls_are_bit_identical_and_start_cold(self, monkeypatch):
        prob = build_problem("nonsym", n_cells=64)
        cold_step, _, _ = _flows_of_run(monkeypatch, prob, 1, cold=True)
        first_flows, first, _ = _flows_of_run(monkeypatch, prob, 10)
        second_flows, second, _ = _flows_of_run(monkeypatch, prob, 10)
        # Basis hints travel on the step states only: each call starts cold.
        assert first_flows[:2] == second_flows[:2] == cold_step
        assert first_flows == second_flows
        assert len(first) == len(second) == 11
        for a, b in zip(first, second):
            assert a.t == b.t
            assert np.array_equal(a.u, b.u)

    @pytest.mark.parametrize("scheme", SCHEME_IDS)
    def test_steady_state_is_kept(self, scheme):
        # Constant f and g: the flow inputs cancel to round-off and must
        # not be taken for inconsistent states.
        rng = np.random.default_rng(12)
        n, m = 10, 2
        c, g0 = rng.standard_normal(n), rng.standard_normal(m)
        M, A, B = random_constrained(rng, n, m, symmetric=False)
        sys_ = make_system(M, A, B, forcing=lambda t, x: c, g=lambda t: g0)
        u0 = lift_constraint(sys_, g0) + kernel_solve(sys_, c)
        traj, _ = integrate(sys_, SchemeConfig(scheme=scheme, c2=0.5), u0, 0.0, 0.3, 0.1)
        for state in traj:
            assert np.linalg.norm(state.u - u0) <= 1e-12 * np.linalg.norm(u0)


def _spoiled(fn, value, t_bad):
    """``fn`` with its first entry replaced by ``value`` from ``t_bad`` on."""

    def spoiled(t):
        v = np.array(fn(t), dtype=float)
        if t >= t_bad - 1e-12:
            v[0] = value
        return v

    return spoiled


class TestConsistencyRepair:
    def test_step_that_leaves_the_constraint_is_repaired(self, monkeypatch, caplog):
        prob = build_problem("nonsym", n_cells=16)
        sys_, tau = prob.system, 1 / 2560
        push_flows_off_kernel(monkeypatch)
        diag = Diagnostics()
        with caplog.at_level("WARNING", logger="expidae.integrators"):
            state = exponential_euler_step(sys_, StepState(0.0, prob.u0), tau, diag=diag)
        assert diag.repairs == 1
        (res,) = diag.constraint_residuals
        assert res <= 1e-9
        assert res == sys_.constraint_residual(tau, state.u)
        assert "above tolerance" in caplog.text and "reprojecting" in caplog.text


class TestNonFiniteConstraintData:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "scheme, callback",
        [
            (scheme, callback)
            for scheme in SCHEME_IDS
            for callback in ("constraint_rhs", "constraint_rate")
            # alt-Euler never evaluates g'.
            if (scheme, callback) != ("alt-euler", "constraint_rate")
        ],
    )
    def test_is_reported_by_callback_name(self, scheme, callback, value):
        prob = build_toy(ToyConfig(n=10, m=2, seed=1))
        sys_ = prob.system
        g, gdot = sys_._g, sys_._gdot
        if callback == "constraint_rhs":
            g = _spoiled(g, value, 0.05)
        else:
            gdot = _spoiled(gdot, value, 0.05)
        bad = ConstrainedSystem(sys_.mass, sys_.stiffness, sys_.constraint, sys_._forcing, g, gdot)
        with pytest.raises(NonFinite, match=f"{callback} returned non-finite values at t=0.05"):
            integrate(bad, SchemeConfig(scheme=scheme, c2=0.5), prob.u0, 0.0, 0.2, 0.05)


class TestFiniteCheck:
    """``_finite``: one sum, and the entrywise scan only when the sum is not finite."""

    def test_finite_vector_whose_sum_overflows_is_accepted(self):
        v = np.array([1e308, 1e308])
        with np.errstate(over="ignore"):  # numpy flags the overflow of the test sum
            assert np.array_equal(_finite(v, 2, "forcing", 0.5), v)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "value", [[np.nan, 1.0], [1.0, np.inf], [-np.inf, 1.0], [np.nan, -np.inf]]
    )
    def test_non_finite_vector_is_reported_by_callback_name(self, value):
        with pytest.raises(NonFinite, match="forcing returned non-finite values at t=0.5"):
            _finite(np.array(value), 2, "forcing", 0.5)

    def test_opposite_infinities_are_reported(self):
        with np.errstate(invalid="ignore"):  # inf - inf in the test sum
            with pytest.raises(NonFinite, match="constraint_rhs returned non-finite"):
                _finite(np.array([np.inf, -np.inf]), 2, "constraint_rhs", 0.5)


class TestNoSparseDispatch:
    """Per-step sparse products go through ``linalg.spmv``, never SciPy's operators."""

    @staticmethod
    def _spy(monkeypatch, matrix):
        owner = next(c for c in type(matrix).__mro__ if "__matmul__" in vars(c))
        calls = []
        for attr in ("__matmul__", "__rmatmul__", "dot"):
            raw = getattr(owner, attr)

            def counted(self, other, _raw=raw, _attr=attr):
                calls.append(_attr)
                return _raw(self, other)

            monkeypatch.setattr(owner, attr, counted)
        return calls

    def _check(self, monkeypatch, mapped, config):
        if not mapped:
            monkeypatch.setattr(sys.modules["expidae.integrators"], "MAPPED_FLOW_MAX_N", 0)
        prob = build_problem("nonsym", n_cells=16)
        system, tau = prob.system, 1 / 2560
        # The first step builds L and W, and the maps of a mapped run.
        state = second_order_step(system, StepState(0.0, prob.u0), tau, config)
        calls = self._spy(monkeypatch, system.mass)
        second_order_step(system, state, tau, config)
        assert calls == []
        system.mass @ prob.u0  # the spy sees an operator product
        assert calls == ["__matmul__"]

    def test_steady_state_second_order_step(self, monkeypatch):
        self._check(monkeypatch, False, SchemeConfig())

    def test_mapped_reference_step(self, monkeypatch):
        self._check(monkeypatch, True, REFERENCE_SCHEME)


class TestNoExpmDispatch:
    """Krylov checks past one vector take SciPy's Pade kernels, not ``scipy.linalg.expm``."""

    @staticmethod
    def _spy(monkeypatch):
        if sys.modules["expidae.phi"]._PADE_KERNELS is None:
            pytest.skip("SciPy's Pade kernels did not pass the self-check")
        return spy_scipy_expm(monkeypatch)

    def test_warm_second_order_step(self, monkeypatch):
        monkeypatch.setattr(sys.modules["expidae.integrators"], "MAPPED_FLOW_MAX_N", 0)
        prob = build_problem("nonsym", n_cells=16)
        tau = 1 / 2560
        state = second_order_step(prob.system, StepState(0.0, prob.u0), tau, SchemeConfig())
        assert min(state.flow_bases) > 2  # so no warm shot checks at one vector
        calls = self._spy(monkeypatch)
        diag = Diagnostics()
        second_order_step(prob.system, state, tau, SchemeConfig(), diag)
        assert diag.flow_checks > 0
        assert calls == []

    def test_cold_shot_checks_one_vector_through_scipy(self, monkeypatch):
        op = build_problem("nonsym", n_cells=16).system.flow_op
        x0 = op.project(np.random.default_rng(0).standard_normal(op.n))
        calls = self._spy(monkeypatch)
        result = flow(op, x0, 1 / 2560)
        assert result.checks > 1
        assert calls == [2]


class TestTrajectoryExport:
    def test_csv_columns(self, tmp_path):
        prob = build_toy(ToyConfig(n=8, m=1, seed=2))
        traj, diag = integrate(prob.system, SchemeConfig(), prob.u0, 0.0, 0.3, 0.1)
        path = tmp_path / "traj.csv"
        save_trajectory_csv(traj, diag, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,t,constraint_residual,solution_norm"
        assert len(lines) == 1 + len(traj)
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[3]) == pytest.approx(np.linalg.norm(prob.u0))

    def test_strided_trajectory_is_rejected_before_writing(self, tmp_path):
        prob = build_problem("toy")
        traj, diag = integrate(
            prob.system, SchemeConfig(), prob.u0, 0.0, 0.4, 0.05, snapshot_stride=4
        )
        path = tmp_path / "traj.csv"
        with pytest.raises(ValueError):
            save_trajectory_csv(traj, diag, path)
        assert not path.exists()

    def test_binary_round_trip(self, tmp_path):
        import struct

        prob = build_toy(ToyConfig(n=8, m=1, seed=2))
        traj, _ = integrate(prob.system, SchemeConfig(), prob.u0, 0.0, 0.3, 0.1)
        path = tmp_path / "traj.bin"
        save_trajectory_binary(traj, path)
        raw = path.read_bytes()
        n, count = struct.unpack("<qq", raw[:16])
        assert (n, count) == (8, len(traj))
        data = np.frombuffer(raw[16:], dtype="<f8").reshape(count, n)
        np.testing.assert_array_equal(data[0], traj[0].u)
        np.testing.assert_array_equal(data[-1], traj[-1].u)


class TestSolveCounts:
    """Deterministic count gate: saddle and SuperLU solves of one step."""

    @staticmethod
    def _gate_step(monkeypatch, name, n_cells, step, config, projections):
        """A step of ``step`` after the first one, which built L and W.

        It makes no lift solve and no kernel solve, ``projections``
        projections without a saddle solve, one SuperLU solve per Arnoldi
        step, and exactly one SuperLU solve per saddle solve: every saddle
        solve of the step is an Arnoldi step.  The flows take the Krylov
        path, whose Arnoldi steps are saddle solves, at every size.
        """
        linalg_mod = sys.modules["expidae.linalg"]
        integ_mod = sys.modules["expidae.integrators"]
        monkeypatch.setattr(sys.modules["expidae.integrators"], "MAPPED_FLOW_MAX_N", 0)
        lus = []
        raw_splu = linalg_mod.splu

        def counting_splu(*args, **kwargs):
            lus.append(CountingLU(raw_splu(*args, **kwargs)))
            return lus[-1]

        monkeypatch.setattr(linalg_mod, "splu", counting_splu)
        prob = build_problem(name, n_cells=n_cells)
        sys_, tau = prob.system, 1 / 2560
        # The first step builds L and W.
        state = step(sys_, StepState(0.0, prob.u0), tau, config)

        counts = Counter()
        arnoldi_lu_solves = []

        def lu_solves():
            return sum(lu.solves for lu in lus)

        def count(owner, attr, name):
            fn = getattr(owner, attr)

            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counted)

        count(SaddleFactorization, "solve", "saddle solves")
        count(integ_mod, "lift_constraint", "lifts")
        count(integ_mod, "kernel_solve", "kernel solves")
        apply, project = DaeOperator.apply, DaeOperator.project

        def counted_apply(self, rhs):
            before = lu_solves()
            y = apply(self, rhs)
            arnoldi_lu_solves.append(lu_solves() - before)
            return y

        def counted_project(self, x):
            counts["projections"] += 1
            before = counts["saddle solves"]
            p = project(self, x)
            counts["projection saddle solves"] += counts["saddle solves"] - before
            return p

        monkeypatch.setattr(DaeOperator, "apply", counted_apply)
        monkeypatch.setattr(DaeOperator, "project", counted_project)
        before = lu_solves()
        step(sys_, state, tau, config)

        assert counts["lifts"] == 0
        assert (counts["kernel solves"], counts["projections"]) == (0, projections)
        assert counts["projection saddle solves"] == 0
        assert counts["saddle solves"] == len(arnoldi_lu_solves)
        assert len(arnoldi_lu_solves) > 0
        assert set(arnoldi_lu_solves) == {1}
        assert lu_solves() - before == counts["saddle solves"]

    def test_second_order_step_of_nonsym(self, monkeypatch):
        self._gate_step(monkeypatch, "nonsym", 64, second_order_step, SchemeConfig(), 2)

    def test_second_order_step_of_dynbc(self, monkeypatch):
        self._gate_step(monkeypatch, "dynbc", 32, second_order_step, SchemeConfig(), 2)

    @pytest.mark.parametrize("name, n_cells", [("nonsym", 64), ("dynbc", 32)])
    def test_family_step(self, monkeypatch, name, n_cells):
        config = SchemeConfig(scheme="second-order-family", c2=0.5)
        self._gate_step(monkeypatch, name, n_cells, second_order_family_step, config, 2)

    @pytest.mark.parametrize("name, n_cells, projections", [("nonsym", 64, 2), ("dynbc", 32, 1)])
    def test_alt_euler_step(self, monkeypatch, name, n_cells, projections):
        # At theta = 1 a step ends on g_n, so on nonsym, whose g moves,
        # the next flow input is projected before the flow.
        config = SchemeConfig(scheme="alt-euler")
        self._gate_step(monkeypatch, name, n_cells, alt_euler_step, config, projections)

    @pytest.mark.parametrize("name, n_cells", [("nonsym", 64), ("dynbc", 32)])
    @pytest.mark.parametrize("c2", [1.0, 0.5])
    def test_every_solve_of_a_step_is_an_arnoldi_step_with_a_nonzero_rhs(
        self, monkeypatch, name, n_cells, c2
    ):
        monkeypatch.setattr(sys.modules["expidae.integrators"], "MAPPED_FLOW_MAX_N", 0)
        prob = build_problem(name, n_cells=n_cells)
        sys_, tau = prob.system, 1 / 2560
        config = SchemeConfig(scheme="second-order-family", c2=c2)
        # The first step builds L and W.
        state = second_order_family_step(sys_, StepState(0.0, prob.u0), tau, config)
        inside, solves, rhs_norms = [], [], []
        apply, solve = DaeOperator.apply, SaddleFactorization.solve

        def spied_apply(op, rhs):
            rhs_norms.append(np.linalg.norm(rhs))
            inside.append(1)
            try:
                return apply(op, rhs)
            finally:
                inside.pop()

        def spied_solve(fact, *args):
            solves.append(bool(inside))
            return solve(fact, *args)

        monkeypatch.setattr(DaeOperator, "apply", spied_apply)
        monkeypatch.setattr(SaddleFactorization, "solve", spied_solve)
        second_order_family_step(sys_, state, tau, config)
        assert len(solves) == len(rhs_norms) > 0
        assert all(solves)
        assert min(rhs_norms) > 0.0

    def test_warm_started_flows_of_nonsym_check_at_most_twice(self, monkeypatch):
        prob = build_problem("nonsym", n_cells=64)
        warm, _, diag = _flows_of_run(monkeypatch, prob, 20)
        cold, _, _ = _flows_of_run(monkeypatch, prob, 20, cold=True)
        assert len(warm) == len(cold) == 40
        # From step 2 on every flow has a hint from the step before.
        assert max(expms for expms, _ in warm[2:]) <= 2
        assert sum(steps for _, steps in warm) <= sum(steps for _, steps in cold) + len(warm)
        assert diag.flow_checks == sum(expms for expms, _ in warm)

    def test_first_flow_of_nonsym_accepts_at_most_25_vectors(self):
        prob = build_problem("nonsym", n_cells=64)
        result = flow(prob.system.flow_op, prob.u0, 1 / 2560)
        assert result.substeps == 1
        assert result.basis_size <= 25

    def test_study_rungs_keep_their_capped_krylov_bases(self, monkeypatch):
        # The exp-Euler rungs of the benchmark's study-nonsym: their
        # capped flows go on from the capped basis.  1 500 Arnoldi steps,
        # on either generator; throwing capped shots away and halving the
        # interval cost 1 792.
        monkeypatch.setattr(sys.modules["expidae.integrators"], "MAPPED_FLOW_MAX_N", 0)
        prob = build_problem("nonsym", n_cells=32)
        config = SchemeConfig(scheme="exp-euler")
        steps = 0
        for tau in (0.05, 0.025, 0.0125, 0.00625):
            _, diag = integrate(prob.system, config, prob.u0, 0.0, 0.1, tau)
            steps += diag.arnoldi_steps
        assert steps <= 1550

    @pytest.mark.parametrize("name, n_cells, max_steps", [("nonsym", 64, 650), ("dynbc", 32, 200)])
    def test_arnoldi_steps_of_20_second_order_steps(self, monkeypatch, name, n_cells, max_steps):
        flows, _, _ = _flows_of_run(monkeypatch, build_problem(name, n_cells=n_cells), 20)
        assert len(flows) == 40
        assert sum(steps for _, steps in flows) <= max_steps

    def test_warm_start_costs_dynbc_no_arnoldi_steps(self, monkeypatch):
        prob = build_problem("dynbc", n_cells=32)
        warm, _, diag = _flows_of_run(monkeypatch, prob, 20)
        cold, _, _ = _flows_of_run(monkeypatch, prob, 20, cold=True)
        assert sum(steps for _, steps in warm) == sum(steps for _, steps in cold)
        assert sum(expms for expms, _ in warm) < sum(expms for expms, _ in cold)
        assert diag.flow_checks == sum(expms for expms, _ in warm)


class TestMappedStep:
    """Exponential steps through the step maps their system's operator holds."""

    @staticmethod
    def _only(monkeypatch, system, tau):
        """``system`` holding the maps of ``tau`` and building no others."""
        monkeypatch.setattr(sys.modules["expidae.integrators"], "MAPPED_FLOW_MAX_N", 0)
        system.flow_op.hold_maps(tau)
        return system

    @pytest.mark.parametrize("scheme", ["second-order", "exp-euler"])
    def test_twenty_steps_match_the_krylov_steps(self, monkeypatch, scheme):
        krylov_prob, prob = (build_problem("nonsym", n_cells=32) for _ in range(2))
        tau, config = 1 / 2560, SchemeConfig(scheme=scheme, flow_tol=1e-13)
        with monkeypatch.context() as mp:
            mp.setattr(sys.modules["expidae.integrators"], "MAPPED_FLOW_MAX_N", 0)
            krylov, diag = integrate(krylov_prob.system, config, prob.u0, 0.0, 20 * tau, tau)
        exact, exact_diag = integrate(prob.system, config, prob.u0, 0.0, 20 * tau, tau)
        assert diag.arnoldi_steps > 0 and exact_diag.arnoldi_steps == 0
        assert exact_diag.rhs_evaluations == diag.rhs_evaluations
        assert exact_diag.max_constraint_residual <= 1e-12
        for a, b in zip(exact[1:], krylov[1:]):
            assert a.t == b.t
            assert np.linalg.norm(a.u - b.u) <= 1e-11 * np.linalg.norm(b.u)

    @pytest.mark.parametrize("name, options, tau", [
        ("toy", {}, 0.01), ("nonsym", {"n_cells": 64}, 1 / 2560),
    ])
    @pytest.mark.parametrize("config", [
        SchemeConfig(scheme="exp-euler"),
        SchemeConfig(scheme="second-order"),
        SchemeConfig(scheme="second-order-family", c2=0.5),
        SchemeConfig(scheme="alt-euler", theta=0.5),
    ], ids=["exp-euler", "second-order", "family-c2-0.5", "alt-euler-theta-0.5"])
    def test_every_scheme_matches_its_krylov_run(self, monkeypatch, name, options, tau, config):
        krylov_prob, prob = (build_problem(name, **options) for _ in range(2))
        with monkeypatch.context() as mp:
            mp.setattr(sys.modules["expidae.integrators"], "MAPPED_FLOW_MAX_N", 0)
            krylov, diag = integrate(krylov_prob.system, config, prob.u0, 0.0, 20 * tau, tau)
        mapped, mapped_diag = integrate(prob.system, config, prob.u0, 0.0, 20 * tau, tau)
        assert diag.mapped_flows == 0 and diag.arnoldi_steps > 0
        assert mapped_diag.arnoldi_steps == mapped_diag.flow_checks == 0
        assert mapped_diag.mapped_flows == mapped_diag.flow_substeps > 0
        for a, b in zip(mapped[1:], krylov[1:]):
            assert np.linalg.norm(a.u - b.u) <= 1e-9 * np.linalg.norm(b.u)

    def test_runs_on_one_system_build_the_maps_of_each_duration_once(self, monkeypatch):
        flow_mod = sys.modules["expidae.flow"]
        built = Counter()
        for attr in ("kernel_reduction", "step_maps"):
            fn = getattr(flow_mod, attr)

            def counted(op, *args, _fn=fn, _attr=attr):
                built[_attr, args[0] if args else None] += 1
                return _fn(op, *args)

            monkeypatch.setattr(flow_mod, attr, counted)
        prob = build_problem("nonsym", n_cells=16)
        tau = 1 / 2560
        family = SchemeConfig(scheme="second-order-family", c2=0.5)
        for config in (SchemeConfig(scheme="second-order"), family, family):
            integrate(prob.system, config, prob.u0, 0.0, 4 * tau, tau)
        reduction = prob.system.flow_op._reduction
        assert built == {("kernel_reduction", None): 1, ("step_maps", tau): 1,
                         ("step_maps", 0.5 * tau): 1}
        assert sorted(prob.system.flow_op.maps) == [0.5 * tau, tau]
        assert prob.system.flow_op._reduction is reduction

    def test_dynbc_at_h_1_32_builds_no_maps(self):
        prob = build_problem("dynbc", n_cells=32)
        op = prob.system.flow_op
        assert op.n > sys.modules["expidae.integrators"].MAPPED_FLOW_MAX_N
        _, diag = integrate(prob.system, SchemeConfig(scheme="second-order"), prob.u0,
                            0.0, 2 / 2560, 1 / 2560)
        assert diag.mapped_flows == 0 and diag.arnoldi_steps > 0
        assert op.maps == {} and "_reduction" not in vars(op)

    def test_makes_no_saddle_solve_and_no_arnoldi_step(self, monkeypatch):
        prob = build_problem("dynbc", n_cells=16)
        tau = 1 / 2560
        # The first step builds L, W and the maps of tau.
        state = second_order_step(prob.system, StepState(0.0, prob.u0), tau)
        integ_mod = sys.modules["expidae.integrators"]
        calls = Counter()

        def spy(owner, attr):
            fn = getattr(owner, attr)

            def counted(*args, **kwargs):
                calls[attr] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counted)

        spy(SaddleFactorization, "solve")
        spy(DaeOperator, "apply")
        spy(integ_mod, "krylov_flow")
        spy(DaeOperator, "project")
        diag = Diagnostics()
        state = second_order_step(prob.system, state, tau, diag=diag)
        # The maps map into ker B, so no flow projects its result.
        assert calls == {"krylov_flow": 2}
        assert diag.rhs_evaluations == 2 and len(diag.constraint_residuals) == 1
        assert diag.mapped_flows == 2

    @pytest.mark.parametrize("config, evaluations", [
        (SchemeConfig(scheme="second-order"), 2),
        (SchemeConfig(scheme="exp-euler"), 2),
        (SchemeConfig(scheme="second-order-family", c2=0.5), 3),
    ], ids=["second-order", "exp-euler", "family-c2-0.5"])
    def test_evaluates_g_once_per_time(self, config, evaluations):
        # g(t_n), g(t_n + c2 tau) and g(t_{n+1}), where t_n + c2 tau is
        # t_{n+1} at c2 = 1; the residual check reuses g(t_{n+1}).
        prob = build_problem("nonsym", n_cells=16)
        tau = 1 / 2560
        step = {"second-order": second_order_step, "exp-euler": exponential_euler_step,
                "second-order-family": second_order_family_step}[config.scheme]
        state = step(prob.system, StepState(0.0, prob.u0), tau, config)
        g, times = prob.system._g, []
        prob.system._g = lambda t: times.append(t) or g(t)
        diag = Diagnostics()
        step(prob.system, state, tau, config, diag)
        assert len(times) == evaluations
        assert sorted(set(times)) == sorted({state.t, state.t + config.c2 * tau, state.t + tau})
        assert diag.mapped_flows > 0 and len(diag.constraint_residuals) == 1

    def test_family_endpoint_takes_the_maps(self, monkeypatch):
        krylov_prob, prob = (build_problem("nonsym", n_cells=32) for _ in range(2))
        tau = 1 / 2560
        config = SchemeConfig(scheme="second-order-family", c2=0.5, flow_tol=1e-13)
        mapped = self._only(monkeypatch, prob.system, tau)
        krylov, _ = integrate(krylov_prob.system, config, prob.u0, 0.0, 20 * tau, tau)
        integ_mod = sys.modules["expidae.integrators"]
        krylov_flow, durations = integ_mod.krylov_flow, []

        def counted(op, x0, t, **kwargs):
            result = krylov_flow(op, x0, t, **kwargs)
            if not result.mapped:
                durations.append(t)
            return result

        monkeypatch.setattr(integ_mod, "krylov_flow", counted)
        exact, _ = integrate(mapped, config, prob.u0, 0.0, 20 * tau, tau)
        # Only the stage, over c2 tau, has no maps.
        assert durations == [0.5 * tau] * 20
        for a, b in zip(exact[1:], krylov[1:]):
            assert np.linalg.norm(a.u - b.u) <= 1e-11 * np.linalg.norm(b.u)

    def test_other_durations_and_stages_take_the_krylov_path(self, monkeypatch):
        prob = build_problem("nonsym", n_cells=16)
        tau = 1 / 2560
        mapped = self._only(monkeypatch, prob.system, tau)
        state = StepState(0.0, prob.u0)
        for step, config, step_tau in (
            (second_order_step, SchemeConfig(), tau / 2),
            (second_order_family_step, SchemeConfig(scheme="second-order-family", c2=0.5), tau),
        ):
            diag = Diagnostics()
            step(mapped, state, step_tau, config, diag)
            assert diag.arnoldi_steps > 0

    def test_inconsistent_state_raises(self):
        prob = build_problem("nonsym", n_cells=16)
        tau = 1 / 2560
        u = prob.u0 + np.random.default_rng(4).standard_normal(prob.system.n)
        for step in (second_order_step, exponential_euler_step):
            with pytest.raises(InconsistentState):
                step(prob.system, StepState(0.0, u), tau)
        assert prob.system.flow_op.maps


def _flows_of_run(monkeypatch, prob, nsteps, cold=False, tau=1 / 2560):
    """Second-order ``integrate`` from 0 over ``nsteps`` steps of ``tau``, all Krylov flows.

    Returns (flows, trajectory, diagnostics), where ``flows`` holds the
    (expm calls, Arnoldi steps) of each flow.  ``cold=True`` drops the
    basis hints, which runs the cold check schedule.
    """
    flow_mod = sys.modules["expidae.flow"]
    integ_mod = sys.modules["expidae.integrators"]
    totals = Counter()
    flows = []
    expm, apply, krylov_flow = flow_mod.expm, DaeOperator.apply, integ_mod.krylov_flow

    def counted_expm(a):
        totals["expm"] += 1
        return expm(a)

    def counted_apply(self, rhs):
        totals["arnoldi"] += 1
        return apply(self, rhs)

    def counted_flow(*args, basis_hint=None, **kwargs):
        before = totals.copy()
        result = krylov_flow(*args, basis_hint=None if cold else basis_hint, **kwargs)
        flows.append((totals["expm"] - before["expm"], totals["arnoldi"] - before["arnoldi"]))
        return result

    with monkeypatch.context() as mp:
        mp.setattr(integ_mod, "MAPPED_FLOW_MAX_N", 0)
        mp.setattr(flow_mod, "expm", counted_expm)
        mp.setattr(DaeOperator, "apply", counted_apply)
        mp.setattr(integ_mod, "krylov_flow", counted_flow)
        config = SchemeConfig(scheme="second-order")
        traj, diag = integrate(prob.system, config, prob.u0, 0.0, nsteps * tau, tau)
    return flows, traj, diag


def random_system(rng, n, m, forcing=None, g=None, gdot=None):
    """Random non-symmetric system and a consistent initial value."""
    M, A, B = random_constrained(rng, n, m, symmetric=False)
    sys_ = make_system(M, A, B, forcing=forcing, g=g, gdot=gdot)
    u0 = lift_constraint(sys_, sys_.g(0.0)) + sys_.flow_op.project(rng.standard_normal(n))
    return sys_, u0


class TestIntegrateProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(4, 12),
        st.integers(0, 3),
        st.integers(0, 10_000),
        st.sampled_from(("exp-euler", "second-order", "second-order-family")),
    )
    def test_constraint_residual_bound(self, n, m, seed, scheme):
        rng = np.random.default_rng(seed)
        g0, g1 = rng.standard_normal(m), rng.standard_normal(m)
        c = rng.standard_normal(n)
        sys_, u0 = random_system(
            rng, n, m,
            forcing=lambda t, x: c * np.cos(t) + 0.5 * np.sin(x),
            g=lambda t: g0 * np.cos(t) + g1 * np.sin(t),
            gdot=lambda t: -g0 * np.sin(t) + g1 * np.cos(t),
        )
        config = SchemeConfig(scheme=scheme, c2=0.5)
        traj, diag = integrate(sys_, config, u0, 0.0, 0.2, 0.05)
        assert len(diag.constraint_residuals) == 4
        assert diag.max_constraint_residual <= 1e-9
        for state in traj:
            assert sys_.constraint_residual(state.t, state.u) <= 1e-9

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(4, 12),
        st.integers(0, 3),
        st.integers(0, 10_000),
        st.floats(0.01, 1.0),
    )
    def test_euler_half_steps_agree_for_constant_data(self, n, m, seed, tau):
        # Exponential Euler is exact for constant f and g, so halving the
        # step only changes the result by the flow tolerance.
        rng = np.random.default_rng(seed)
        c, g0 = rng.standard_normal(n), rng.standard_normal(m)
        sys_, u0 = random_system(rng, n, m, forcing=lambda t, x: c, g=lambda t: g0)
        config = SchemeConfig(scheme="exp-euler")
        one, _ = integrate(sys_, config, u0, 0.0, tau, tau)
        two, _ = integrate(sys_, config, u0, 0.0, tau, tau / 2)
        assert len(one) == 2 and len(two) == 3
        u1, u2 = one[-1].u, two[-1].u
        assert np.linalg.norm(u1 - u2) <= 1e-8 * np.linalg.norm(u2)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(6, 12), st.integers(2, 3), st.integers(0, 10_000))
    def test_rank_deficient_constraint_raises_singular_saddle(self, n, m, seed):
        rng = np.random.default_rng(seed)
        M, A, B = random_constrained(rng, n, m, symmetric=False)
        B[-1] = rng.standard_normal(m - 1) @ B[:-1]
        with pytest.raises(SingularSaddle):
            sys_ = make_system(M, A, B)
            integrate(sys_, SchemeConfig(), np.zeros(n), 0.0, 0.1, 0.05)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 12), st.integers(0, 1), st.integers(0, 10_000))
    def test_non_spd_mass_is_a_configuration_error(self, n, m, seed):
        rng = np.random.default_rng(seed)
        _, A, B = random_constrained(rng, n, m)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        eigs = rng.uniform(0.5, 2.0, n)
        eigs[rng.integers(n)] = -rng.uniform(0.1, 2.0)
        M = (q * eigs) @ q.T
        # A ValueError is not an ExpidaeError, so the CLI exits with 2.
        with pytest.raises(ValueError) as info:
            sys_ = make_system(M, A, B)
            integrate(sys_, SchemeConfig(), np.zeros(n), 0.0, 0.1, 0.05)
        assert not isinstance(info.value, ExpidaeError)

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(4, 12),
        st.integers(0, 3),
        st.integers(0, 10_000),
        st.integers(0, 3),
        st.sampled_from((np.nan, np.inf, -np.inf)),
        st.sampled_from(SCHEME_IDS),
    )
    def test_non_finite_forcing_raises(self, n, m, seed, bad_step, bad_value, scheme):
        rng = np.random.default_rng(seed)
        c = rng.standard_normal(n)
        bad = rng.integers(n)
        t_bad = bad_step * 0.05

        def forcing(t, x):
            f = c.copy()
            if t >= t_bad - 1e-12:
                f[bad] = bad_value
            return f

        sys_, u0 = random_system(rng, n, m, forcing=forcing)
        with pytest.raises(NonFinite):
            integrate(sys_, SchemeConfig(scheme=scheme), u0, 0.0, 0.2, 0.05)
