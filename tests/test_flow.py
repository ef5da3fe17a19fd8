import math
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    arnoldi,
    generator_image,
    kernel_reduction_flow,
    make_operator,
    random_constrained,
    raw_flow_endpoint,
)
from expidae.errors import (
    DimensionMismatch,
    ExpidaeError,
    InconsistentState,
    NoConvergence,
    NonFinite,
)
from expidae.flow import (
    DEFAULT_TOL,
    DaeOperator,
    StepMaps,
    flow,
    kernel_reduction,
    step_maps,
)
from expidae.integrators import kernel_solve
from expidae.linalg import SaddleFactorization
from expidae.phi import expm
from expidae.problems import build_problem

# The package exports the function ``flow`` under the module's name.
flow_module = sys.modules["expidae.flow"]


class TestApply:
    def test_zero_maps_to_zero(self):
        rng = np.random.default_rng(0)
        op = make_operator(*random_constrained(rng, 10, 2))
        assert np.linalg.norm(generator_image(op, np.zeros(10))) == 0.0
        # The generator skips the solve of a zero right-hand side; the solve gives 0 too.
        assert np.linalg.norm(op.apply(np.zeros(10))) == 0.0

    def test_unconstrained_identity_mass(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((6, 6))
        op = make_operator(np.eye(6), A, np.zeros((0, 6)))
        x0 = rng.standard_normal(6)
        np.testing.assert_allclose(generator_image(op, x0), -A @ x0, rtol=1e-12, atol=1e-14)

    def test_hand_solved_3x3(self):
        # M = I, A = I, B = [1 1], x0 = (1, -1): y = (-1, 1)
        op = make_operator(np.eye(2), np.eye(2), np.array([[1.0, 1.0]]))
        y = generator_image(op, np.array([1.0, -1.0]))
        np.testing.assert_allclose(y, [-1.0, 1.0], atol=1e-14)

    def test_result_in_kernel(self):
        rng = np.random.default_rng(2)
        M, A, B = random_constrained(rng, 30, 4)
        op = make_operator(M, A, B)
        x0 = op.project(rng.standard_normal(30))
        y = generator_image(op, x0)
        assert np.linalg.norm(B @ y) <= 1e-11 * np.linalg.norm(y)

    def test_load_adds_its_mass_solve(self):
        # apply(l) = S l with S the mass solve on ker B, and the generator
        # with the load maps [x; 1] to [X x + S l; 0].
        rng = np.random.default_rng(12)
        M, A, B = random_constrained(rng, 20, 3, symmetric=False)
        op = make_operator(M, A, B)
        x0, load = op.project(rng.standard_normal(20)), rng.standard_normal(20)
        Z = scipy.linalg.null_space(B)
        mass_solve = Z @ np.linalg.solve(Z.T @ M @ Z, Z.T @ load)
        np.testing.assert_allclose(op.apply(load), mass_solve, atol=1e-12)
        image = generator_image(op, np.append(x0, 1.0), loads=(load,))
        np.testing.assert_allclose(
            image, np.append(generator_image(op, x0) + mass_solve, 0.0), atol=1e-12
        )

    def test_stiffness_of_the_wrong_shape_is_a_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch, match="stiffness"):
            make_operator(np.eye(4), np.eye(3), np.zeros((0, 4)))


class TestArnoldi:
    def test_eigenvector_breaks_down_immediately(self):
        op = make_operator(np.eye(3), np.diag([1.0, 2.0, 3.0]), np.zeros((0, 3)))
        V, H, h_next = arnoldi(op, np.array([1.0, 0.0, 0.0]), 5)
        assert H.shape == (1, 1)
        np.testing.assert_allclose(H, [[-1.0]], atol=1e-14)
        assert h_next == 0.0

    def test_single_step_rayleigh_quotient(self):
        rng = np.random.default_rng(3)
        M, A, B = random_constrained(rng, 12, 2)
        op = make_operator(M, A, B)
        x0 = op.project(rng.standard_normal(12))
        v1 = x0 / np.linalg.norm(x0)
        V, H, h_next = arnoldi(op, x0, 1)
        np.testing.assert_allclose(H, [[v1 @ generator_image(op, v1)]], rtol=1e-12)

    def test_orthonormality_and_relation(self):
        rng = np.random.default_rng(4)
        M, A, B = random_constrained(rng, 20, 2)
        op = make_operator(M, A, B)
        x0 = op.project(rng.standard_normal(20))
        V, H, h_next = arnoldi(op, x0, 12)
        r = H.shape[0]
        assert np.linalg.norm(V.T @ V - np.eye(r)) <= 1e-10
        # X V = V H + h_next v_{r+1} e_r^T; without v_{r+1} the defect
        # is confined to the last column with magnitude h_next.
        defect = generator_image(op, V) - V @ H
        scale = max(np.linalg.norm(H), 1.0)
        assert np.linalg.norm(defect[:, :-1]) <= 1e-9 * scale
        assert abs(np.linalg.norm(defect[:, -1]) - h_next) <= 1e-9 * scale

    @pytest.mark.parametrize("source", ["nonsym", "random"])
    def test_oracle_rebuilds_the_flow_endpoint(self, source):
        # The oracle's basis at the accepted size of a one-shot flow gives
        # the flow's endpoint, so the oracle runs the steps every flow runs.
        rng = np.random.default_rng(8)
        if source == "nonsym":
            op, t = build_problem("nonsym", n_cells=16).system.flow_op, 1 / 2560
        else:
            op, t = make_operator(*random_constrained(rng, 40, 3, symmetric=False)), 1.0
        x0 = op.project(rng.standard_normal(op.n))
        result = flow(op, x0, t)
        assert result.substeps == 1 and result.basis_size > 1
        V, H, _ = arnoldi(op, x0, result.basis_size)
        rebuilt = op.project(np.linalg.norm(x0) * (V @ expm(t * H)[:, 0]))
        assert np.linalg.norm(rebuilt - result.state) <= 1e-13 * np.linalg.norm(result.state)


class TestFlow:
    def test_time_zero_identity(self):
        rng = np.random.default_rng(5)
        M, A, B = random_constrained(rng, 8, 1)
        op = make_operator(M, A, B)
        x0 = op.project(rng.standard_normal(8))
        result = flow(op, x0, 0.0)
        np.testing.assert_array_equal(result.state, x0)
        assert result.substeps == 0

    def test_zero_state_flows_to_zero(self):
        op = make_operator(np.eye(3), np.eye(3), np.zeros((0, 3)))
        result = flow(op, np.zeros(3), 1.0)
        assert np.linalg.norm(result.state) == 0.0

    def test_unconstrained_matches_dense_exponential(self):
        rng = np.random.default_rng(6)
        n = 60
        A = rng.standard_normal((n, n))
        A = A @ A.T / n + 0.5 * np.eye(n)
        op = make_operator(np.eye(n), A, np.zeros((0, n)))
        x0 = rng.standard_normal(n)
        result = flow(op, x0, 1.0, tol=1e-10)
        expected = expm(-A) @ x0
        assert np.linalg.norm(result.state - expected) <= 1e-8 * np.linalg.norm(expected)

    def test_constrained_matches_kernel_reduction_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(10, 80))
            m = int(rng.integers(1, 5))
            M, A, B = random_constrained(rng, n, m, symmetric=bool(rng.integers(2)))
            op = make_operator(M, A, B)
            x0 = op.project(rng.standard_normal(n))
            result = flow(op, x0, 1.0, tol=1e-10)
            oracle = kernel_reduction_flow(M, A, B, x0, 1.0)
            assert np.linalg.norm(result.state - oracle) <= 1e-8 * np.linalg.norm(oracle)
            assert result.residual_estimate <= 1e-10

    def test_constraint_preserved(self):
        rng = np.random.default_rng(8)
        M, A, B = random_constrained(rng, 40, 3)
        op = make_operator(M, A, B)
        x0 = op.project(rng.standard_normal(40))
        result = flow(op, x0, 2.0)
        defect = np.linalg.norm(B @ result.state)
        assert defect <= 1e-10 * np.linalg.norm(result.state)

    def test_semigroup_property(self):
        rng = np.random.default_rng(9)
        M, A, B = random_constrained(rng, 25, 2)
        op = make_operator(M, A, B)
        x0 = op.project(rng.standard_normal(25))
        once = flow(op, x0, 1.0, tol=1e-11).state
        twice = flow(op, flow(op, x0, 0.4, tol=1e-11).state, 0.6, tol=1e-11).state
        assert np.linalg.norm(once - twice) <= 1e-7 * np.linalg.norm(once)

    def test_linearity(self):
        rng = np.random.default_rng(10)
        M, A, B = random_constrained(rng, 25, 2)
        op = make_operator(M, A, B)
        x0 = op.project(rng.standard_normal(25))
        y0 = op.project(rng.standard_normal(25))
        alpha, beta = 1.7, -0.4
        combined = flow(op, alpha * x0 + beta * y0, 1.0, tol=1e-11).state
        separate = alpha * flow(op, x0, 1.0, tol=1e-11).state + beta * flow(
            op, y0, 1.0, tol=1e-11
        ).state
        assert np.linalg.norm(combined - separate) <= 1e-8 * np.linalg.norm(combined)

    def test_inconsistent_initial_state_raises(self):
        op = make_operator(np.eye(2), np.eye(2), np.array([[1.0, 0.0]]))
        with pytest.raises(InconsistentState):
            flow(op, np.array([1.0, 1.0]), 1.0)

    def test_substep_below_t_eps_raises_naming_the_flow(self, monkeypatch):
        # With one basis vector the estimate beta dt' |h21 phi_1(dt' h11)|
        # falls only like dt', as tol dt' / t does, so no substep meets it
        # and the shrink trials run down to t * eps.
        rng = np.random.default_rng(13)
        n = 40
        skew = rng.standard_normal((n, n))
        A = 0.1 * np.eye(n) + 50.0 * (skew - skew.T)
        op = make_operator(np.eye(n), A, np.zeros((0, n)))
        monkeypatch.setattr(flow_module, "BASIS_CAP", 1)
        dims = _count_expm(monkeypatch)
        with pytest.raises(NoConvergence) as info:
            flow(op, np.ones(n), 1.0, tol=1e-12)
        message = str(info.value)
        assert "below t * eps" in message
        assert "t = 1 with 1 of it left" in message
        assert "basis 1 (cap 1)" in message and "last error estimate" in message
        # The cap check, then trials shrinking by at most 16 each: 16^13 > 1/eps.
        assert len(dims) == 14

    def test_substep_limit_counts_every_substep(self, monkeypatch):
        # At a cap of 16 the flow takes several substeps, each one shot.
        prob = build_problem("nonsym", n_cells=16)
        op, x0 = prob.system.flow_op, prob.u0
        monkeypatch.setattr(flow_module, "BASIS_CAP", 16)
        substeps = flow(op, x0, 0.05).substeps
        assert substeps > 2
        monkeypatch.setattr(flow_module, "SUBSTEP_LIMIT", substeps)
        assert flow(op, x0, 0.05).substeps == substeps
        monkeypatch.setattr(flow_module, "SUBSTEP_LIMIT", substeps - 1)
        with pytest.raises(NoConvergence) as info:
            flow(op, x0, 0.05)
        message = str(info.value)
        assert f"flow substep limit {substeps - 1} reached" in message
        assert "t = 0.05 with " in message and " of it left" in message
        assert "basis 16 (cap 16)" in message and "last error estimate" in message

    def test_substepping_recovers_accuracy(self, monkeypatch):
        # Oscillatory part forces substeps at a small basis cap
        # without losing the oracle answer.
        rng = np.random.default_rng(11)
        n = 30
        M, A, B = random_constrained(rng, n, 2)
        skew = rng.standard_normal((n, n))
        skew = skew - skew.T
        A = A + 60.0 * skew / np.linalg.norm(skew, 2)
        op = make_operator(M, A, B)
        x0 = op.project(rng.standard_normal(n))
        monkeypatch.setattr(flow_module, "BASIS_CAP", 20)
        result = flow(op, x0, 1.0, tol=1e-10)
        assert result.substeps > 1
        oracle = kernel_reduction_flow(M, A, B, x0, 1.0)
        assert np.linalg.norm(result.state - oracle) <= 1e-8 * np.linalg.norm(oracle)

    def test_preprojection_drift_small(self):
        # The final projection is a safety net: the raw Krylov endpoint
        # must already sit near the constraint manifold.
        rng = np.random.default_rng(21)
        M, A, B = random_constrained(rng, 60, 4)
        op = make_operator(M, A, B)
        x0 = op.project(rng.standard_normal(60))
        raw = raw_flow_endpoint(op, x0, 1.0)
        drift = np.linalg.norm(B @ raw) / np.linalg.norm(raw)
        assert drift <= 1e-7

    def test_negative_time_rejected(self):
        op = make_operator(np.eye(2), np.eye(2), np.zeros((0, 2)))
        with pytest.raises(ValueError):
            flow(op, np.ones(2), -1.0)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_is_a_configuration_error(self, t):
        op = make_operator(np.eye(2), np.eye(2), np.zeros((0, 2)))
        # A ValueError is not an ExpidaeError, so the CLI exits with 2.
        with pytest.raises(ValueError, match="flow time must be finite") as info:
            flow(op, np.ones(2), t)
        assert not isinstance(info.value, ExpidaeError)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_initial_value_is_named(self, value):
        op = build_problem("nonsym", n_cells=16).system.flow_op
        x0 = np.zeros(op.n)
        x0[3] = value
        with pytest.raises(NonFinite, match="x0"):
            flow(op, x0, 0.01)

    @pytest.mark.filterwarnings("error")
    def test_a_huge_finite_initial_value_is_measured_quietly(self):
        # The squares of 2^996 z overflow, its scaled norm does not; through
        # held maps the flow is the flow of z scaled by 2^996, bit for bit.
        op, z, _, _ = _phi_form_case("nonsym", {"n_cells": 16})
        op.hold_maps(0.01)
        scale = 2.0**996
        result = flow(op, scale * z, 0.01)
        assert result.mapped
        np.testing.assert_array_equal(result.state, scale * flow(op, z, 0.01).state)

    @pytest.mark.filterwarnings("error")
    def test_a_huge_finite_initial_value_flows_on_the_krylov_path(self):
        # The squares of 2^996 z overflow; the Krylov flow measures it by the
        # scaled norm and, with the tolerance scaled alike, takes the bases of
        # the flow of z.  Dividing by 2^996 is exact.
        op, z, _, _ = _phi_form_case("nonsym", {"n_cells": 16})
        scale = 2.0**996
        result = flow(op, scale * z, 0.01, tol=scale * 1e-10)
        assert op.maps == {} and not result.mapped
        expected = flow(op, z, 0.01).state
        assert np.isfinite(result.state).all()
        assert np.linalg.norm(result.state / scale - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("n_cells", [32, 64])
    @pytest.mark.parametrize("t", [0.01, 0.05])
    def test_stiff_nonsym_flow_is_not_accepted_at_one_vector(self, n_cells, t):
        # On these stiff shots the one-vector endpoint is about 0 while the
        # exact flow is O(1): an estimate that underflows there accepts it.
        op = build_problem("nonsym", n_cells=n_cells).system.flow_op
        M, A, B = (mat.toarray() for mat in (op.mass, op.stiffness, op.constraint))
        x0 = op.project(np.random.default_rng(0).standard_normal(op.n))
        result = flow(op, x0, t)
        exact = kernel_reduction_flow(M, A, B, x0, t)
        assert np.linalg.norm(result.state - exact) <= 10 * DEFAULT_TOL

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(8, 40),
        st.integers(0, 3),
        st.integers(0, 10_000),
        st.floats(0.0, 4.0),
        st.sampled_from([1e-3, 1e-2, 1.0]),
    )
    def test_endpoint_error_is_within_ten_tol(self, n, m, seed, log_scale, t):
        rng = np.random.default_rng(seed)
        M, A, B = random_constrained(rng, n, m, symmetric=bool(seed % 2))
        A = 10.0**log_scale * A
        op = make_operator(M, A, B)
        x0 = op.project(rng.standard_normal(n))
        tol = 1e-10
        result = flow(op, x0, t, tol=tol)
        exact = kernel_reduction_flow(M, A, B, x0, t)
        assert np.linalg.norm(result.state - exact) <= 10 * tol


def _count_expm(monkeypatch):
    """Record the basis size of every error check the flow module makes.

    Each check takes the exponential of the Hessenberg matrix bordered
    by one row and column, so the basis size is one below its dimension.
    """
    dims = []
    original = flow_module.expm

    def counted(a):
        dims.append(a.shape[0] - 1)
        return original(a)

    monkeypatch.setattr(flow_module, "expm", counted)
    return dims


class TestCheckSchedule:
    def test_nonsym_shot_checks_rarely_and_accepts_the_every_step_basis(self, monkeypatch):
        prob = build_problem("nonsym", n_cells=64)
        op = prob.system.flow_op
        tol = 1e-10
        dims = _count_expm(monkeypatch)
        result = flow(op, prob.u0, 1 / 2560, tol=tol)
        assert result.substeps == 1
        assert 2 * len(dims) < result.basis_size
        assert dims[-1] == result.basis_size
        assert result.residual_estimate <= tol

        scheduled = len(dims)
        monkeypatch.setattr(flow_module, "_next_check", lambda r, *_: r + 1)
        every_step = flow(op, prob.u0, 1 / 2560, tol=tol)
        assert len(dims) - scheduled == every_step.basis_size
        assert every_step.basis_size == result.basis_size
        np.testing.assert_array_equal(every_step.state, result.state)

    def test_capped_flow_counts_every_shot_and_trial(self, monkeypatch):
        # Every Arnoldi step is one DaeOperator.apply.
        prob = build_problem("nonsym", n_cells=16)
        monkeypatch.setattr(flow_module, "BASIS_CAP", 16)
        dims = _count_expm(monkeypatch)
        applied = []
        apply = DaeOperator.apply
        monkeypatch.setattr(
            DaeOperator, "apply", lambda op, rhs: applied.append(1) or apply(op, rhs)
        )
        result = flow(prob.system.flow_op, prob.u0, 0.05, basis_hint=10)
        assert result.substeps > 1
        # Shrink trials count too.
        assert result.checks == len(dims)
        assert result.arnoldi_steps == len(applied)
        # Checks grow with r within a shot and trials stay at the cap, so a
        # shot starts where r falls.  Every substep is one shot.
        starts = [0] + [i for i in range(1, len(dims)) if dims[i] < dims[i - 1]]
        assert len(starts) == result.substeps
        # The hinted shot over the whole interval first checks at hint - 1,
        # the shots over the rest at 1.
        assert dims[0] == 9
        assert [dims[i] for i in starts[1:]] == [1] * (len(starts) - 1)
        # Every shot but the last keeps its capped basis: 16 Arnoldi steps,
        # then at least one trial at the cap.
        ends = starts[1:] + [len(dims)]
        for start, end in zip(starts[:-1], ends[:-1]):
            assert dims[end - 1] == dims[end - 2] == 16
        assert 16 * (result.substeps - 1) < result.arnoldi_steps <= 16 * result.substeps

    def test_capped_shot_checks_at_the_cap_then_shrinks(self, monkeypatch):
        rng = np.random.default_rng(11)
        n = 30
        M, A, B = random_constrained(rng, n, 2)
        skew = rng.standard_normal((n, n))
        skew = skew - skew.T
        A = A + 60.0 * skew / np.linalg.norm(skew, 2)
        op = make_operator(M, A, B)
        x0 = op.project(rng.standard_normal(n))
        dims = _count_expm(monkeypatch)
        monkeypatch.setattr(flow_module, "BASIS_CAP", 20)
        result = flow(op, x0, 1.0, tol=1e-10)
        assert result.substeps > 1
        first_shot = dims[: dims.index(1, 1)]
        before_cap = [d for d in first_shot if d < 20]
        assert len(before_cap) < 19
        # The check at the cap fails, then a few shrink trials on that basis.
        trials = len(first_shot) - len(before_cap) - 1
        assert first_shot[len(before_cap):] == [20] * (trials + 1)
        assert 1 <= trials <= 8

    def test_a_nan_estimate_is_never_accepted(self):
        # _log_ratio reads NaN as far above the tolerance, and a shrink whose
        # every trial estimate is NaN runs out of substep instead of passing.
        assert flow_module._log_ratio(math.nan, 1e-10) == 700.0
        assert flow_module._log_ratio(0.0, 1e-10) == -700.0
        assert flow_module._log_ratio(math.inf, 1e-10) == 700.0
        H = np.triu(np.random.default_rng(2).standard_normal((5, 4)), -1)
        with pytest.raises(NoConvergence, match="below t \\* eps"):
            flow_module._shrink(H, 4, math.nan, 1.0, 1.0, math.nan, 1e-10, 1.0)

    def test_accepted_first_shot_does_not_depend_on_the_cap(self, monkeypatch):
        # A flow whose first shot is accepted takes the same path under any
        # cap at or above the basis it accepts.
        op, z, load, slope = _phi_form_case("nonsym", {"n_cells": 64})
        results = []
        for cap in (None, 60, 45, 30):
            if cap is not None:
                monkeypatch.setattr(flow_module, "BASIS_CAP", cap)
            results.append(flow(op, z, 1 / 2560, loads=(load, slope)))
            if cap is None:
                r = results[0].basis_size
                assert results[0].substeps == 1 and 2 < r < 30
        monkeypatch.setattr(flow_module, "BASIS_CAP", r)
        results.append(flow(op, z, 1 / 2560, loads=(load, slope)))
        first = results[0]
        for result in results[1:]:
            np.testing.assert_array_equal(result.state, first.state)
            assert (result.checks, result.arnoldi_steps, result.substeps) == (
                first.checks, first.arnoldi_steps, 1
            )
            assert result.basis_size == first.basis_size
            assert result.residual_estimate == first.residual_estimate


def _random_flow_problem(n, m, seed):
    rng = np.random.default_rng(seed)
    M, A, B = random_constrained(rng, n, m, symmetric=bool(seed % 2))
    op = make_operator(M, A, B)
    return op, op.project(rng.standard_normal(n))


class TestBasisHint:
    """A hint moves the first error check of a flow, never its acceptance."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(8, 40),
        st.integers(0, 3),
        st.integers(0, 10_000),
        st.integers(10, 40),
        st.data(),
    )
    def test_any_hint_meets_tol_and_matches_the_cold_flow(self, n, m, seed, r_max, data):
        op, x0 = _random_flow_problem(n, m, seed)
        hint = data.draw(st.integers(1, r_max + 5), label="basis_hint")
        tol = 1e-10
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(flow_module, "BASIS_CAP", r_max)
            cold = flow(op, x0, 1.0, tol=tol)
            warm = flow(op, x0, 1.0, tol=tol, basis_hint=hint)
        assert warm.residual_estimate <= tol
        assert np.linalg.norm(warm.state - cold.state) <= 1e-8 * np.linalg.norm(cold.state)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(8, 40), st.integers(0, 3), st.integers(0, 10_000), st.integers(10, 40),
           st.integers(1, 100))
    def test_hint_above_the_cap_clamps_to_the_cap(self, n, m, seed, r_max, excess):
        op, x0 = _random_flow_problem(n, m, seed)
        r_cap = min(r_max, n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(flow_module, "BASIS_CAP", r_max)
            dims = _count_expm(mp)
            above = flow(op, x0, 1.0, basis_hint=r_cap + excess)
            checks_above = list(dims)
            del dims[:]
            # Hint r_cap + 1 puts the first check exactly at the cap.
            at_cap = flow(op, x0, 1.0, basis_hint=r_cap + 1)
        assert checks_above == dims
        assert checks_above[0] <= r_cap
        assert above.checks == len(checks_above)
        np.testing.assert_array_equal(above.state, at_cap.state)

    @settings(max_examples=40, deadline=None)
    @given(
        st.one_of(
            st.integers(max_value=0),
            st.floats(allow_nan=True, allow_infinity=True),
            st.text(max_size=3),
            st.just(3.0),
        )
    )
    def test_invalid_hint_is_a_configuration_error(self, hint):
        op = make_operator(np.eye(3), np.eye(3), np.zeros((0, 3)))
        # A ValueError is not an ExpidaeError, so the CLI exits with 2.
        with pytest.raises(ValueError) as info:
            flow(op, np.ones(3), 1.0, basis_hint=hint)
        assert not isinstance(info.value, ExpidaeError)

    @pytest.mark.parametrize("hint", [True, np.True_])
    def test_bool_hint_is_rejected(self, hint):
        op = make_operator(np.eye(3), np.eye(3), np.zeros((0, 3)))
        with pytest.raises(ValueError, match="basis_hint"):
            flow(op, np.ones(3), 1.0, basis_hint=hint)


class TestStepMaps:
    @pytest.mark.parametrize("name, options", [("toy", {}), ("nonsym", {"n_cells": 32})])
    @pytest.mark.parametrize("t", [1 / 40960, 0.01])
    def test_flow_map_matches_the_oracle_and_the_krylov_flow(self, name, options, t):
        op = build_problem(name, **options).system.flow_op
        x0 = op.project(np.random.default_rng(3).standard_normal(op.n))
        state = op.project(step_maps(op, t, kernel_reduction(op)).flow @ x0)

        M, A, B = (mat.toarray() for mat in (op.mass, op.stiffness, op.constraint))
        oracle = kernel_reduction_flow(M, A, B, x0, t)
        assert np.linalg.norm(state - oracle) <= 1e-12 * np.linalg.norm(oracle)
        tol = 1e-13
        assert np.linalg.norm(state - flow(op, x0, t, tol=tol).state) <= 10 * tol
        assert np.linalg.norm(B @ state) <= 1e-12 * np.linalg.norm(state)

    @pytest.mark.parametrize("name, options", [("toy", {}), ("nonsym", {"n_cells": 32})])
    @pytest.mark.parametrize("t", [1 / 40960, 0.01])
    def test_phi_maps_match_the_solve_based_sequence(self, name, options, t):
        # Phi_1 l = w - E w and Phi_2 l = w - w'' + E w'', with w the kernel
        # solve of l and w'' that of M w / t.  Both sides difference terms
        # up to 6e9 times the result on toy at t = 1/40960, so they agree
        # to round-off of the largest term summed, not of the result.
        system = build_problem(name, **options).system
        op = system.flow_op
        M, A, B = (mat.toarray() for mat in (op.mass, op.stiffness, op.constraint))
        load = np.random.default_rng(4).standard_normal(op.n)
        maps = step_maps(op, t, kernel_reduction(op))

        w = kernel_solve(system, load)
        w2 = kernel_solve(system, system.mass @ w / t)
        phi1 = w - kernel_reduction_flow(M, A, B, w, t)
        phi2 = w - w2 + kernel_reduction_flow(M, A, B, w2, t)
        for phi_map, expected, scale in ((maps.phi1, phi1, w), (maps.phi2, phi2, w2)):
            image = phi_map @ load
            assert np.linalg.norm(image - expected) <= 1e-12 * np.linalg.norm(scale)
            assert np.linalg.norm(B @ image) <= 1e-12 * np.linalg.norm(scale)

    def test_one_exponential_per_build(self, monkeypatch):
        op = build_problem("nonsym", n_cells=16).system.flow_op
        reduction = kernel_reduction(op)
        dims = _count_expm(monkeypatch)
        maps = {t: step_maps(op, t, reduction) for t in (0.02, 0.01)}
        assert len(dims) == 2
        assert [maps[t].tau for t in maps] == [0.02, 0.01]
        x0 = op.project(np.ones(op.n))
        twice = maps[0.01].flow @ (maps[0.01].flow @ x0)
        once = maps[0.02].flow @ x0
        assert np.linalg.norm(twice - once) <= 1e-12 * np.linalg.norm(once)


def _phi_form_case(name, options, seed=5):
    """Operator, consistent z, a load l and a slope s of a built problem."""
    op = build_problem(name, **options).system.flow_op
    rng = np.random.default_rng(seed)
    z = op.project(rng.standard_normal(op.n))
    return op, z, rng.standard_normal(op.n), rng.standard_normal(op.n)


def _dense_phi_sum(op, t, z, loads):
    """E(t) z + sum_k Phi_k(t) loads[k-1] from the dense maps of ``step_maps``."""
    maps = step_maps(op, t, kernel_reduction(op))
    total = np.zeros(op.n) if z is None else maps.flow @ z
    for phi_map, load in zip((maps.phi1, maps.phi2), loads):
        if load is not None:
            total = total + phi_map @ load
    return total


class TestPhiForm:
    """``flow`` with loads: E(t) z + Phi_1(t) l + Phi_2(t) s in one Krylov flow."""

    @pytest.mark.parametrize("name, options", [("toy", {}), ("nonsym", {"n_cells": 32})])
    @pytest.mark.parametrize("t", [1 / 40960, 0.01])
    @pytest.mark.parametrize("orders", ["z+l", "z+l+s", "s"])
    def test_matches_the_dense_step_maps(self, name, options, t, orders):
        op, z, load, slope = _phi_form_case(name, options)
        loads = {"z+l": (load,), "z+l+s": (load, slope), "s": (None, slope)}[orders]
        x0 = np.zeros(op.n) if orders == "s" else z
        tol = DEFAULT_TOL
        result = flow(op, x0, t, tol=tol, loads=loads)
        expected = _dense_phi_sum(op, t, x0, loads)
        assert np.linalg.norm(result.state - expected) <= 10 * tol
        assert np.linalg.norm(op.constraint @ result.state) <= 1e-12 * np.linalg.norm(expected)

    def test_capped_flow_carries_the_load_coordinates(self, monkeypatch):
        op, z, load, slope = _phi_form_case("nonsym", {"n_cells": 32})
        monkeypatch.setattr(flow_module, "BASIS_CAP", 16)
        tol = DEFAULT_TOL
        result = flow(op, z, 0.01, tol=tol, loads=(load, slope))
        assert result.substeps > 2
        expected = _dense_phi_sum(op, 0.01, z, (load, slope))
        assert np.linalg.norm(result.state - expected) <= 10 * tol

    def test_capped_flow_with_two_loads_at_the_default_cap(self):
        # At h = 1/128 and t = 0.05 the shot over the whole flow reaches the
        # cap of 60; the flow goes on from each capped basis.
        op, z, load, slope = _phi_form_case("nonsym", {"n_cells": 128})
        tol = DEFAULT_TOL
        result = flow(op, z, 0.05, tol=tol, loads=(load, slope))
        assert result.substeps > 1 and result.basis_size == 60
        assert result.residual_estimate <= tol
        expected = _dense_phi_sum(op, 0.05, z, (load, slope))
        assert np.linalg.norm(result.state - expected) <= 10 * tol

    @pytest.mark.parametrize("position", [0, 1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_load_is_named(self, position, bad):
        op, z, load, slope = _phi_form_case("nonsym", {"n_cells": 16})
        loads = [load, slope]
        loads[position] = loads[position].copy()
        loads[position][3] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinite, match=f"flow load {position + 1} is not finite"):
                flow(op, z, 0.01, loads=tuple(loads))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("size", [1e307, 1e300, 1e200])
    def test_a_huge_load_overflows_quietly_and_is_named(self, size):
        # The Krylov flow runs with overflow warnings off and names itself and t.
        op, z, _, _ = _phi_form_case("nonsym", {"n_cells": 16})
        assert op.maps == {}
        with pytest.raises(NonFinite, match=r"^Krylov flow over t = 0\.01 is not finite: "):
            flow(op, z, 0.01, loads=(np.full(op.n, size),))

    def test_arnoldi_steps_count_saddle_solves(self, monkeypatch):
        # From [0; e_1] with no first load, the first step is a pure
        # shift of the load coordinates: no solve, and not counted.
        op, _, _, slope = _phi_form_case("nonsym", {"n_cells": 16})
        solves = []
        solve = SaddleFactorization.solve
        monkeypatch.setattr(
            SaddleFactorization, "solve",
            lambda fact, *args: solves.append(1) or solve(fact, *args),
        )
        result = flow(op, np.zeros(op.n), 1 / 2560, loads=(None, slope))
        assert result.substeps == 1
        assert result.arnoldi_steps == len(solves) == result.basis_size - 1

    def test_arnoldi_relation_of_the_bordered_generator(self):
        # X V = V H + h_next v_{r+1} e_r^T for the dense [[X, S C], [0, J]]
        # of the flow's generator, with X and the mass solve S on ker B
        # from the kernel reduction.
        op, z, load, slope = _phi_form_case("nonsym", {"n_cells": 16})
        t = 0.01
        M, A = op.mass.toarray(), op.stiffness.toarray()
        Z = kernel_reduction(op).basis
        mass_solve = Z @ np.linalg.solve(Z.T @ M @ Z, Z.T)
        n = op.n
        bordered = np.zeros((n + 2, n + 2))
        bordered[:n, :n] = -mass_solve @ A
        bordered[:n, n] = mass_solve @ load
        bordered[:n, n + 1] = mass_solve @ slope / t
        bordered[n + 1, n] = 1.0
        V, H, h_next = arnoldi(op, z, 12, loads=(load, slope), t=t)
        r = H.shape[0]
        assert np.linalg.norm(V.T @ V - np.eye(r)) <= 1e-10
        defect = bordered @ V - V @ H
        scale = max(np.linalg.norm(H), 1.0)
        assert np.linalg.norm(defect[:, :-1]) <= 1e-9 * scale
        assert abs(np.linalg.norm(defect[:, -1]) - h_next) <= 1e-9 * scale

    def test_zero_loads_and_state_make_no_solve(self, monkeypatch):
        op = build_problem("nonsym", n_cells=16).system.flow_op
        monkeypatch.setattr(
            DaeOperator, "apply", lambda *args: pytest.fail("apply called")
        )
        for loads in ((None,), (None, None), (np.zeros(op.n),), (np.zeros(op.n), None)):
            result = flow(op, np.zeros(op.n), 0.01, loads=loads)
            assert np.linalg.norm(result.state) == 0.0
            assert result.arnoldi_steps == 0

    def test_load_of_the_wrong_length_is_a_dimension_mismatch(self):
        op = build_problem("nonsym", n_cells=16).system.flow_op
        with pytest.raises(DimensionMismatch, match="load"):
            flow(op, np.zeros(op.n), 0.01, loads=(np.ones(op.n + 1),))


class TestMappedFlow:
    """``flow`` through the step maps that ``DaeOperator.hold_maps`` gives the operator."""

    @pytest.mark.parametrize("orders", ["z+l", "z+l+s", "s"])
    def test_matches_the_krylov_flow(self, orders):
        op, z, load, slope = _phi_form_case("nonsym", {"n_cells": 32})
        loads = {"z+l": (load,), "z+l+s": (load, slope), "s": (None, slope)}[orders]
        x0 = np.zeros(op.n) if orders == "s" else z
        tol = 1e-12
        krylov = flow(op, x0, 0.01, tol=tol, loads=loads)
        op.hold_maps(0.01)
        mapped = flow(op, x0, 0.01, tol=tol, loads=loads)
        assert not krylov.mapped and krylov.arnoldi_steps > 0
        assert mapped.mapped
        assert (mapped.substeps, mapped.basis_size, mapped.checks, mapped.arnoldi_steps) == (
            1, 0, 0, 0
        )
        assert np.linalg.norm(mapped.state - krylov.state) <= 10 * tol
        assert np.linalg.norm(op.constraint @ mapped.state) <= 1e-12 * np.linalg.norm(z)
        # Another duration, or more loads than the maps cover, stays on Krylov.
        assert not flow(op, x0, 0.005, loads=loads).mapped
        assert not flow(op, x0, 0.01, loads=(load, slope, load)).mapped

    def test_a_direct_flow_on_a_fresh_small_operator_makes_arnoldi_steps(self, monkeypatch):
        op, z, load, _ = _phi_form_case("nonsym", {"n_cells": 64})
        applied = []
        apply = DaeOperator.apply
        monkeypatch.setattr(
            DaeOperator, "apply", lambda op, rhs: applied.append(1) or apply(op, rhs)
        )
        result = flow(op, z, 1 / 2560, loads=(load,))
        assert not result.mapped
        assert result.arnoldi_steps == len(applied) > 0
        assert op.maps == {} and "_reduction" not in vars(op)

    def test_keeps_the_input_checks(self):
        op, z, load, _ = _phi_form_case("nonsym", {"n_cells": 16})
        op.hold_maps(0.01)
        with pytest.raises(InconsistentState):
            flow(op, z + op.constraint.T @ np.ones(op.m), 0.01, loads=(load,))
        bad = load.copy()
        bad[2] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinite, match="flow load 2 is not finite"):
                flow(op, z, 0.01, loads=(load, bad))

    @pytest.mark.parametrize("options", [
        {"tol": 0.0}, {"basis_hint": True}, {"basis_hint": 0}, {"basis_hint": 2.5},
    ], ids=["tol-0", "hint-True", "hint-0", "hint-2.5"])
    def test_rejects_the_options_flow_rejects(self, options):
        op, z, load, _ = _phi_form_case("nonsym", {"n_cells": 16})
        op.hold_maps(0.01)
        with pytest.raises(ValueError):
            flow(op, z, 0.01, loads=(load,), **options)

    def test_a_numpy_integer_hint_takes_the_maps(self):
        op, z, load, _ = _phi_form_case("nonsym", {"n_cells": 16})
        op.hold_maps(0.01)
        result = flow(op, z, 0.01, basis_hint=np.int64(3), loads=(load,))
        assert result.mapped
        np.testing.assert_array_equal(result.state, flow(op, z, 0.01, loads=(load,)).state)

    @pytest.mark.parametrize("name, options", [("toy", {}), ("nonsym", {"n_cells": 32})])
    def test_held_maps_map_into_the_kernel(self, name, options):
        op = build_problem(name, **options).system.flow_op
        for t in (1 / 2560, 0.01):
            maps = op.hold_maps(t)
            for matrix in (maps.flow, maps.phi1, maps.phi2):
                assert np.linalg.norm(op.constraint @ matrix) <= 1e-13 * np.linalg.norm(matrix)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", ["full", "column"])
    def test_an_overflowing_product_raises_non_finite_without_a_warning(self, kind):
        if kind == "full":
            # Phi_1(1) has a row of absolute sum 5.0 on nonsym h=1/16, so a
            # load of 1e308 with the signs of that row makes a product of 5e308.
            op, x0, _, _ = _phi_form_case("nonsym", {"n_cells": 16})
            phi1 = op.hold_maps(1.0).phi1
            row = phi1[np.abs(phi1).sum(axis=1).argmax()]
            assert np.abs(row).sum() > 2.0
            loads = (1e308 * np.sign(row),)
        else:
            # Column maps of 1e300 on the 7 boundary unknowns of dynbc h=1/8.
            op = build_problem("dynbc", n_cells=8).system.flow_op
            support = np.arange(op.n - 7, op.n)
            op.maps[1.0] = StepMaps(
                1.0, None, None, np.full((op.n, 7), 1e300), support, np.zeros(7)
            )
            x0, slope = np.zeros(op.n), np.zeros(op.n)
            slope[support] = 1e300
            loads = (None, slope)
        with pytest.raises(NonFinite, match="mapped flow over t = 1 is not finite"):
            flow(op, x0, 1.0, loads=loads)

    def test_zero_state_and_zero_loads_make_no_mapped_flow(self):
        op = build_problem("nonsym", n_cells=16).system.flow_op
        op.hold_maps(0.01)
        result = flow(op, np.zeros(op.n), 0.01, loads=(None, None))
        assert not result.mapped and result.substeps == 0
        assert np.linalg.norm(result.state) == 0.0

    def test_the_operator_builds_one_reduction_and_keeps_each_duration(self, monkeypatch):
        op = build_problem("nonsym", n_cells=16).system.flow_op
        reductions = []
        reduce = flow_module.kernel_reduction
        monkeypatch.setattr(
            flow_module, "kernel_reduction", lambda op: reductions.append(1) or reduce(op)
        )
        first = op.hold_maps(0.01)
        assert op.hold_maps(0.01) is first
        op.hold_maps(0.02)
        assert len(reductions) == 1 and sorted(op.maps) == [0.01, 0.02]
        for t in (0.0, -0.01, math.inf, math.nan):
            with pytest.raises(ValueError, match="duration"):
                op.hold_maps(t)


def _saddle_matrix(op):
    """The dense mass saddle matrix [[M, B^T], [B, 0]] of ``op``."""
    n, m = op.n, op.m
    saddle = np.zeros((n + m, n + m))
    saddle[:n, :n] = op.mass.toarray()
    saddle[n:, :n] = op.constraint.toarray()
    saddle[:n, n:] = saddle[n:, :n].T
    return saddle


class TestFiniteChecks:
    """The finiteness tests of ``flow``: one norm, the scan only when it is not finite."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("path", ["full", "column", "krylov"])
    def test_a_nan_load_is_named_on_every_path(self, path):
        # dynbc h=1/8: n = 63, the slopes live on the 7 boundary unknowns.
        op = build_problem("dynbc", n_cells=8).system.flow_op
        support = np.arange(op.n - 7, op.n)
        if path == "full":
            op.hold_maps(0.01)
        elif path == "column":
            op.maps[0.01] = StepMaps(
                0.01, None, None, np.zeros((op.n, 7)), support, np.zeros(7)
            )
        x0, slope = np.zeros(op.n), np.zeros(op.n)
        slope[support] = 1.0
        result = flow(op, x0, 0.01, loads=(None, slope))
        assert (result.mapped, result.column) == (path == "full", path == "column")
        slope[support[3]] = np.nan
        with pytest.raises(NonFinite, match="flow load 2 is not finite"):
            flow(op, x0, 0.01, loads=(None, slope))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_nan_load_is_named_at_t_zero(self):
        op = build_problem("nonsym", n_cells=16).system.flow_op
        with pytest.raises(NonFinite, match="flow load 1 is not finite"):
            flow(op, np.zeros(op.n), 0.0, loads=(np.full(op.n, np.nan),))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_load_of_the_wrong_length_is_rejected_at_t_zero(self):
        op = build_problem("nonsym", n_cells=16).system.flow_op
        with pytest.raises(DimensionMismatch, match="load has length 3"):
            flow(op, np.zeros(op.n), 0.0, loads=(np.ones(3),))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_finite_load_whose_norm_overflows_passes_the_load_check(self):
        op = build_problem("nonsym", n_cells=16).system.flow_op
        load = np.full(op.n, 1e308)
        assert flow_module._checked_load(op, load, 0) is load


class TestMassSolve:
    """An image of the generator is one mass saddle solve of C c - A x."""

    def test_sparse_image_with_two_loads(self):
        op, z, load, slope = _phi_form_case("nonsym", {"n_cells": 16})
        n, t, c = op.n, 0.01, np.array([0.3, -0.7])
        image = generator_image(op, np.concatenate((z, c)), (load, slope), t=t)
        rhs = -(op.stiffness.toarray() @ z) + c[0] * load + c[1] * slope / t
        expected = np.linalg.solve(_saddle_matrix(op), np.concatenate((rhs, np.zeros(op.m))))[:n]
        assert np.linalg.norm(image[:n] - expected) <= 1e-12 * np.linalg.norm(expected)
        np.testing.assert_array_equal(image[n:], [0.0, c[0]])
