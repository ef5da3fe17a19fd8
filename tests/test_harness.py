import builtins
import copy
import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from conftest import radau_endpoint
from expidae import harness
from expidae.errors import NegativeEnergy, SelfCheckFailed
from expidae.harness import (
    ConvergenceTable,
    build_reference,
    emit_csv,
    error_norm,
    fit_order,
    read_convergence_csv,
    run_convergence,
)
from expidae.integrators import ConstrainedSystem, SchemeConfig, integrate
from expidae.problems import ToyConfig, build_problem, build_toy


def toy_problem(**kw):
    cfg = dict(n=14, m=3, seed=5)
    cfg.update(kw)
    return build_toy(ToyConfig(**cfg))


class TestErrorNorm:
    def test_zero_vector(self):
        prob = toy_problem()
        for norm in ("energy", "h1", "l2"):
            assert error_norm(prob.system, np.zeros(prob.system.n), norm) == 0.0

    def test_energy_positive_on_kernel(self):
        prob = build_problem("dynbc", n_cells=8)
        s = prob.system
        rng = np.random.default_rng(0)
        v = s.flow_op.project(rng.standard_normal(s.n))
        assert error_norm(s, v, "energy") > 0.0

    def test_l2_is_mass_norm(self):
        prob = toy_problem()
        s = prob.system
        e = np.ones(s.n)
        expected = np.sqrt(e @ (s.mass @ e))
        assert error_norm(s, e, "l2") == pytest.approx(expected, rel=1e-14)

    def test_energy_uses_symmetric_part(self):
        n = 4
        A = np.diag([1.0, 2.0, 3.0, 4.0])
        A[0, 1], A[1, 0] = 5.0, -5.0  # pure skew contribution
        sys_ = ConstrainedSystem(
            sp.eye(n, format="csr"), sp.csr_matrix(A), sp.csr_matrix((0, n)),
            lambda t, x: np.zeros(n), lambda t: np.zeros(0), lambda t: np.zeros(0),
        )
        e = np.array([1.0, 1.0, 0.0, 0.0])
        assert error_norm(sys_, e, "energy") == pytest.approx(np.sqrt(3.0), rel=1e-12)

    def test_negative_energy_raises(self):
        n = 2
        sys_ = ConstrainedSystem(
            sp.eye(n, format="csr"), sp.csr_matrix(np.diag([1.0, -1.0])),
            sp.csr_matrix((0, n)),
            lambda t, x: np.zeros(n), lambda t: np.zeros(0), lambda t: np.zeros(0),
        )
        with pytest.raises(NegativeEnergy):
            error_norm(sys_, np.array([0.0, 1.0]), "energy")

    def test_unknown_norm(self):
        prob = toy_problem()
        with pytest.raises(ValueError):
            error_norm(prob.system, np.zeros(prob.system.n), "sup")


class TestFitOrder:
    def test_exact_power_law(self):
        taus = np.array([0.1 / 2**k for k in range(5)])
        errors = 3.0 * taus**1.7
        assert fit_order(taus, errors, 10.0) == pytest.approx(1.7, abs=1e-12)

    def test_preasymptotic_point_dropped(self):
        taus = np.array([0.1 / 2**k for k in range(5)])
        errors = 2.0 * taus**2
        errors[0] = 8.0  # garbage coarse point, above half the scale
        assert fit_order(taus, errors, 10.0) == pytest.approx(2.0, abs=1e-10)


class TestBuildReference:
    def test_matches_manufactured_solution(self, tmp_path):
        prob = toy_problem()
        ref = build_reference(prob, 1.0, 1.0 / 4096, cache_dir=tmp_path)
        exact = prob.exact(1.0)
        assert np.linalg.norm(ref.state - exact) <= 1e-8 * np.linalg.norm(exact)

    def test_cache_round_trip_bit_identical(self, tmp_path):
        prob = toy_problem()
        first = build_reference(prob, 0.5, 1.0 / 256, cache_dir=tmp_path)
        second = build_reference(prob, 0.5, 1.0 / 256, cache_dir=tmp_path)
        assert not first.from_cache
        assert second.from_cache
        np.testing.assert_array_equal(first.states, second.states)
        np.testing.assert_array_equal(first.check_states, second.check_states)

    def test_other_numerics_revision_is_rebuilt(self, tmp_path, monkeypatch):
        prob = toy_problem()
        monkeypatch.setattr(harness, "NUMERICS_REVISION", harness.NUMERICS_REVISION - 1)
        build_reference(prob, 0.5, 1.0 / 256, cache_dir=tmp_path)
        monkeypatch.undo()
        rebuilt = build_reference(prob, 0.5, 1.0 / 256, cache_dir=tmp_path)
        assert not rebuilt.from_cache
        assert build_reference(prob, 0.5, 1.0 / 256, cache_dir=tmp_path).from_cache

    def test_snapshot_grid(self, tmp_path):
        prob = toy_problem()
        ref = build_reference(prob, 0.5, 1.0 / 128, snapshot_tau=0.125)
        np.testing.assert_allclose(ref.times, [0.0, 0.125, 0.25, 0.375, 0.5])
        assert ref.states.shape == (5, prob.system.n)
        mid = ref.states[2]
        exact = prob.exact(0.25)
        assert np.linalg.norm(mid - exact) <= 1e-5 * np.linalg.norm(exact)

    def test_unreadable_cache_file_is_closed(self, tmp_path, monkeypatch):
        # A truncated file makes np.load raise after the file was opened.
        path = tmp_path / "ref.npz"
        harness._write_cache(path, "key", np.zeros(2), np.ones((2, 3)), np.ones((2, 3)))
        path.write_bytes(path.read_bytes()[:100])
        opened = []
        raw_open = builtins.open

        def recorded(*args, **kwargs):
            opened.append(raw_open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(builtins, "open", recorded)
        assert harness._read_cache(path, "key") is None
        monkeypatch.undo()
        assert opened and all(fh.closed for fh in opened)

    def test_failed_cache_write_leaves_no_file(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(harness.np, "savez", fail)
        with pytest.raises(OSError, match="disk full"):
            build_reference(toy_problem(), 0.5, 1.0 / 256, cache_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_snapshot_step_must_be_whole_reference_steps(self):
        with pytest.raises(ValueError, match="whole number"):
            build_reference(toy_problem(), 0.5, 1.0 / 128, snapshot_tau=0.1)

    def test_exact_flow_reference_runs_no_arnoldi_step(self, monkeypatch):
        prob = build_problem("nonsym", n_cells=32)
        flow_module = sys.modules["expidae.flow"]
        exponentials, arnoldi_steps = [], []
        expm, apply = flow_module.expm, flow_module.DaeOperator.apply

        def counted_expm(a):
            exponentials.append(a.shape[0])
            return expm(a)

        def counted_apply(op, rhs):
            arnoldi_steps.append(1)
            return apply(op, rhs)

        monkeypatch.setattr(flow_module, "expm", counted_expm)
        monkeypatch.setattr(flow_module.DaeOperator, "apply", counted_apply)
        build_reference(prob, 0.05, 1 / 2560)
        assert arnoldi_steps == []
        assert len(exponentials) == 2
        # The operator held the maps of each run for that run only.
        assert prob.system.flow_op.maps == {}

    def test_kernel_reduction_is_built_once_per_cold_build(self, monkeypatch, tmp_path):
        # Both reference runs share null_space(B), Z^T M Z, Z^T A Z and the solves.
        calls = []
        null_space = scipy.linalg.null_space

        def counted(*args, **kwargs):
            calls.append(1)
            return null_space(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "null_space", counted)
        prob = build_problem("nonsym", n_cells=16)
        cold = build_reference(prob, 0.05, 1 / 2560, cache_dir=tmp_path)
        assert not cold.from_cache and len(calls) == 1
        warm = build_reference(prob, 0.05, 1 / 2560, cache_dir=tmp_path)
        assert warm.from_cache and len(calls) == 1

    @pytest.mark.parametrize("name, n_cells, norm", [("nonsym", 32, "h1"), ("dynbc", 16, "energy")])
    def test_reference_is_within_twice_its_gap_of_radau(self, name, n_cells, norm):
        # A second-order reference at tau_ref is off by gap / (1 - 2^-2)
        # from the exact solution, 1.33 gaps; a reference that shares an
        # error with its half-step check, such as a dropped M L g' term
        # in the loads, is off by far more than its gap.
        prob = build_problem(name, n_cells=n_cells)
        ref = build_reference(prob, 0.1, 1 / 2560)
        gap = error_norm(prob.system, ref.state - ref.check_states[-1], norm)
        oracle = radau_endpoint(prob.system, prob.u0, 0.1)
        assert gap > 0.0
        assert error_norm(prob.system, ref.state - oracle, norm) <= 2.0 * gap

    def test_dynbc_reference_holds_the_maps_of_one_step_at_a_time(self, monkeypatch):
        prob = build_problem("dynbc", n_cells=32)
        op = prob.system.flow_op
        assert sys.modules["expidae.integrators"].MAPPED_FLOW_MAX_N < op.n
        held = []
        integrate = harness.integrate

        def spied(system, config, u0, t0, t_end, tau, **kwargs):
            held.append((tau, sorted(op.maps)))
            return integrate(system, config, u0, t0, t_end, tau, **kwargs)

        monkeypatch.setattr(harness, "integrate", spied)
        tau_ref = 1 / 10240
        build_reference(prob, 2 * tau_ref, tau_ref)
        assert held == [(tau_ref, [tau_ref]), (tau_ref / 2, [tau_ref / 2])]
        assert op.maps == {}

    def test_cap_takes_dynbc_at_h_1_32_and_not_at_h_1_64(self):
        small, large = (build_problem("dynbc", n_cells=n).system.n for n in (32, 64))
        assert small <= harness.EXACT_FLOW_MAX_N < large

    def test_above_the_cap_the_reference_is_the_krylov_run(self, monkeypatch):
        prob = build_problem("nonsym", n_cells=32)
        monkeypatch.setattr(sys.modules["expidae.integrators"], "MAPPED_FLOW_MAX_N", 0)
        monkeypatch.setattr(harness, "EXACT_FLOW_MAX_N", prob.system.n - 1)
        ref = build_reference(prob, 0.05, 1 / 2560)
        for tau, states in ((1 / 2560, ref.states), (1 / 5120, ref.check_states)):
            traj, diag = integrate(
                prob.system, harness.REFERENCE_SCHEME, prob.u0, 0.0, 0.05, tau,
                snapshot_stride=10**6,
            )
            assert diag.arnoldi_steps > 0
            np.testing.assert_array_equal(states, [st.u for st in traj])

    def test_exact_and_krylov_references_agree(self, monkeypatch):
        prob = build_problem("nonsym", n_cells=32)
        exact = build_reference(prob, 0.05, 1 / 2560, snapshot_tau=0.0125)
        monkeypatch.setattr(sys.modules["expidae.integrators"], "MAPPED_FLOW_MAX_N", 0)
        monkeypatch.setattr(harness, "EXACT_FLOW_MAX_N", 0)
        krylov = build_reference(prob, 0.05, 1 / 2560, snapshot_tau=0.0125)
        assert exact.states.shape == krylov.states.shape == (5, prob.system.n)
        for a, b in ((exact.states, krylov.states), (exact.check_states, krylov.check_states)):
            assert np.linalg.norm(a - b) <= 1e-9 * np.linalg.norm(b)


class TestRunConvergence:
    def test_toy_against_exact(self):
        prob = toy_problem()
        table = run_convergence(
            prob,
            SchemeConfig(scheme="exp-euler", flow_tol=1e-12),
            [0.1 / 2**k for k in range(4)],
            1.0,
            norm="l2",
        )
        assert table.fitted_order == pytest.approx(1.0, abs=0.1)
        assert all(np.diff(table.errors) < 0)
        assert table.local_orders[0] is None
        assert len(table.local_orders) == 4
        assert table.tau_ref is None
        assert table.self_check_gap is None
        assert table.flow_tol == 1e-12

    def test_csv_names_the_ladder_flows(self, tmp_path, monkeypatch):
        # toy has 8 unknowns: its ladder takes the step maps unless the
        # size bound sends it to the Krylov flow.
        ladders = {}
        for label, bound in (("mapped", None), ("krylov", 0)):
            if bound is not None:
                monkeypatch.setattr(sys.modules["expidae.integrators"], "MAPPED_FLOW_MAX_N", bound)
            table = run_convergence(toy_problem(), SchemeConfig(), [0.1, 0.05], 0.5, norm="l2")
            path = tmp_path / f"{label}.csv"
            emit_csv(table, path)
            meta, _ = read_convergence_csv(path)
            ladders[label] = (table.ladder_flows, meta["ladder_flows"])
        assert ladders == {"mapped": ("mapped", "mapped"), "krylov": ("krylov", "krylov")}

    def test_a_study_leaves_the_operator_maps_as_it_found_them(self, tmp_path, monkeypatch):
        # Each rung of the family needs the maps of tau and c2 tau, and
        # c2 tau is the next rung's tau, so the rungs share them.
        taus, t_end, tau_ref = [0.05, 0.025, 0.0125], 0.1, 0.0125 / 16
        config = SchemeConfig(scheme="second-order-family", c2=0.5)
        flow_module = sys.modules["expidae.flow"]
        build = flow_module.step_maps
        csv = {}
        for label, held_taus in (("fresh", ()), ("held", (0.025, tau_ref, 0.3))):
            prob = build_problem("nonsym", n_cells=32)
            op = prob.system.flow_op
            held = {t: op.hold_maps(t) for t in held_taus}
            built = []
            monkeypatch.setattr(
                flow_module, "step_maps", lambda op, t, r: built.append(t) or build(op, t, r)
            )
            table = run_convergence(prob, config, taus, t_end, norm="h1", tau_ref=tau_ref)
            monkeypatch.setattr(flow_module, "step_maps", build)
            assert len(built) == len(set(built))
            assert table.ladder_flows == "mapped"
            assert op.maps.keys() == held.keys()
            assert all(op.maps[t] is held[t] for t in held)
            emit_csv(table, tmp_path / f"{label}.csv")
            csv[label] = (tmp_path / f"{label}.csv").read_bytes()
        assert csv["held"] == csv["fresh"]

    def test_toy_against_integrated_reference(self, tmp_path):
        prob = toy_problem()
        taus = [0.1, 0.05, 0.025]
        table = run_convergence(
            prob,
            SchemeConfig(scheme="second-order"),
            taus,
            1.0,
            norm="energy",
            tau_ref=0.025 / 16,
            cache_dir=tmp_path,
        )
        assert table.fitted_order == pytest.approx(2.0, abs=0.15)
        assert table.tau_ref == 0.025 / 16
        assert table.flow_tol == SchemeConfig().flow_tol
        assert table.self_check_gap is not None
        assert table.self_check_gap <= 0.01 * min(table.errors)

    def test_max_sampling_bounds_final(self, tmp_path):
        prob = toy_problem()
        taus = [0.1, 0.05, 0.025]
        kw = dict(norm="l2", tau_ref=0.025 / 16, cache_dir=tmp_path)
        final = run_convergence(prob, SchemeConfig(), taus, 1.0, sample="final", **kw)
        peak = run_convergence(prob, SchemeConfig(), taus, 1.0, sample="max", **kw)
        assert all(p >= f * (1 - 1e-12) for p, f in zip(peak.errors, final.errors))

    def test_coarse_reference_rejected(self):
        prob = toy_problem()
        with pytest.raises(ValueError):
            run_convergence(
                prob, SchemeConfig(), [0.1, 0.05], 1.0, tau_ref=0.05 / 8
            )

    def test_ladder_must_be_whole_multiples_of_its_smallest_step(self):
        with pytest.raises(ValueError, match="whole number"):
            run_convergence(toy_problem(), SchemeConfig(), [0.1, 0.03], 1.0)

    @pytest.mark.parametrize("norm", ["bogus", "h1"])
    def test_norm_is_checked_before_the_reference_is_built(self, tmp_path, monkeypatch, norm):
        prob = toy_problem()
        system = copy.copy(prob.system)
        system.h1_form = None
        built = []
        monkeypatch.setattr(harness, "build_reference", lambda *a, **k: built.append(a))
        with pytest.raises(ValueError, match="norm 'bogus'|h1 form"):
            run_convergence(
                replace(prob, system=system), SchemeConfig(), [0.1, 0.05], 0.5,
                norm=norm, tau_ref=0.05 / 16, cache_dir=tmp_path,
            )
        assert built == [] and list(tmp_path.iterdir()) == []

    def test_missing_reference_mode(self):
        prob = build_problem("nonsym", n_cells=8)
        with pytest.raises(ValueError, match="no exact solution.*tau_ref"):
            run_convergence(prob, SchemeConfig(), [0.1, 0.05], 1.0)

    def test_cold_study_builds_the_lift_matrix_once(self, tmp_path, monkeypatch):
        # The reference runs on shallow copies of the system; they share
        # L with the ladder instead of building their own.
        integ_mod = sys.modules["expidae.integrators"]
        lifts = []
        lift_constraint = integ_mod.lift_constraint

        def counted(*args):
            lifts.append(1)
            return lift_constraint(*args)

        monkeypatch.setattr(integ_mod, "lift_constraint", counted)
        prob = build_problem("nonsym", n_cells=16)
        run_convergence(
            prob, SchemeConfig(scheme="exp-euler"), [0.02, 0.01], 0.04,
            norm="h1", tau_ref=0.01 / 16, cache_dir=tmp_path,
        )
        assert prob.system.m > 0
        assert len(lifts) == prob.system.m

    def test_self_check_failure_detected(self, tmp_path, monkeypatch):
        # A first-order reference is not converged enough for a
        # second-order ladder at these step sizes.
        prob = toy_problem()
        monkeypatch.setattr(harness, "REFERENCE_SCHEME", SchemeConfig(scheme="exp-euler"))
        with pytest.raises(SelfCheckFailed):
            run_convergence(
                prob,
                SchemeConfig(scheme="second-order", flow_tol=1e-13),
                [0.0125, 0.00625],
                1.0,
                norm="l2",
                tau_ref=0.00625 / 16,
                cache_dir=tmp_path,
            )


class TestCsv:
    def sample_table(self, nrows=2):
        taus = tuple(0.1 / 2**k for k in range(nrows))
        errors = tuple(0.3 * t for t in taus)
        orders = (None,) + tuple(1.0 for _ in range(nrows - 1))
        return ConvergenceTable(
            problem="toy", scheme="exp-euler", norm="l2", h=None,
            taus=taus, errors=errors, local_orders=orders,
            fitted_order=1.0, reference_scale=2.0, max_constraint_residual=1e-12,
        )

    def test_empty_table(self, tmp_path):
        table = ConvergenceTable(
            problem="toy", scheme="exp-euler", norm="l2", h=0.125,
            taus=(), errors=(), local_orders=(),
            fitted_order=float("nan"), reference_scale=1.0,
            max_constraint_residual=0.0,
        )
        path = tmp_path / "empty.csv"
        emit_csv(table, path)
        lines = path.read_text().splitlines()
        assert lines[-1] == "tau,error,local_order"
        assert all(line.startswith("#") for line in lines[:-1])

    def test_two_rows_have_one_local_order(self, tmp_path):
        path = tmp_path / "two.csv"
        emit_csv(self.sample_table(2), path)
        _, rows = read_convergence_csv(path)
        assert rows[0][2] is None
        assert rows[1][2] == pytest.approx(1.0)

    def test_round_trip_exact(self, tmp_path):
        table = ConvergenceTable(
            problem="dynbc", scheme="second-order", norm="energy", h=1 / 32,
            taus=(0.05, 0.025, 0.0125),
            errors=(1.234567890123456e-3, 3.086419725308640e-4, 7.716049313271600e-5),
            local_orders=(None, 2.0000000001, 2.0000000002),
            fitted_order=2.00000000015, reference_scale=3.3,
            max_constraint_residual=1e-15,
        )
        path = tmp_path / "rt.csv"
        emit_csv(table, path)
        meta, rows = read_convergence_csv(path)
        assert meta["problem"] == "dynbc"
        assert meta["norm"] == "energy"
        for (tau, err, order), t_exp, e_exp, o_exp in zip(
            rows, table.taus, table.errors, table.local_orders
        ):
            assert tau == t_exp
            assert err == e_exp
            if o_exp is not None:
                assert order == o_exp

    def test_evidence_metadata_round_trips(self, tmp_path):
        table = ConvergenceTable(
            problem="nonsym", scheme="exp-euler", norm="h1", h=1 / 32,
            taus=(0.05, 0.025), errors=(0.1, 0.05), local_orders=(None, 1.0),
            fitted_order=1.0, reference_scale=0.1 + 0.2,
            max_constraint_residual=1 / 3 * 1e-15, self_check_gap=2 / 3 * 1e-7,
            tau_ref=0.05 / 128, flow_tol=1e-10,
        )
        path = tmp_path / "meta.csv"
        emit_csv(table, path)
        meta, _ = read_convergence_csv(path)
        for key in ("reference_scale", "max_constraint_residual", "self_check_gap",
                    "tau_ref", "flow_tol"):
            assert float(meta[key]) == getattr(table, key)

    def test_missing_evidence_is_empty(self, tmp_path):
        # An exact reference has no reference step and no self check.
        path = tmp_path / "exact.csv"
        emit_csv(self.sample_table(2), path)
        meta, _ = read_convergence_csv(path)
        assert meta["self_check_gap"] == ""
        assert meta["tau_ref"] == ""
        assert float(meta["reference_scale"]) == 2.0

    def test_table_validation(self):
        with pytest.raises(ValueError):
            ConvergenceTable(
                problem="x", scheme="exp-euler", norm="l2", h=None,
                taus=(0.1, 0.2), errors=(1.0, 0.5), local_orders=(None, 1.0),
                fitted_order=1.0, reference_scale=1.0, max_constraint_residual=0.0,
            )
        with pytest.raises(ValueError):
            ConvergenceTable(
                problem="x", scheme="exp-euler", norm="l2", h=None,
                taus=(0.2, 0.1), errors=(1.0, -0.5), local_orders=(None, 1.0),
                fitted_order=1.0, reference_scale=1.0, max_constraint_residual=0.0,
            )


class TestDeterminism:
    def test_same_study_twice_bit_identical(self, tmp_path):
        prob = toy_problem()
        taus = [0.1, 0.05]
        paths = []
        for k in range(2):
            table = run_convergence(
                prob, SchemeConfig(), taus, 0.5, norm="l2",
                tau_ref=0.05 / 16, cache_dir=tmp_path,
            )
            path = tmp_path / f"run{k}.csv"
            emit_csv(table, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
