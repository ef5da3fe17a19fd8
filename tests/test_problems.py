import tracemalloc

import numpy as np
import pytest

from expidae.harness import error_norm
from expidae.integrators import ConstrainedSystem, SchemeConfig, integrate
from expidae.problems import (
    KAPPA,
    PROBLEMS,
    MeshConfig,
    ToyConfig,
    build_dynbc,
    build_nonsym,
    build_problem,
    build_toy,
    mass_matrix_1d,
    nonsym_initial_profile,
    parse_config_file,
    stiffness_matrix_1d,
)


class TestAssemblyHelpers:
    def test_mass_partition_of_unity(self):
        # Row sums of the full P1 mass matrix integrate the hat
        # functions: h inside, h/2 at the ends, total length 1.
        n = 16
        M = mass_matrix_1d(n)
        sums = np.asarray(M.sum(axis=1)).ravel()
        np.testing.assert_allclose(sums[1:-1], 1.0 / n, rtol=1e-14)
        np.testing.assert_allclose(sums[[0, -1]], 0.5 / n, rtol=1e-14)
        assert M.sum() == pytest.approx(1.0)

    def test_stiffness_annihilates_constants(self):
        K = stiffness_matrix_1d(8)
        assert np.linalg.norm(K @ np.ones(9)) <= 1e-12

    def test_refinement_scaling(self):
        # 1-d: stiffness entries grow like 1/h, mass entries shrink like h.
        K8, K16 = stiffness_matrix_1d(8), stiffness_matrix_1d(16)
        M8, M16 = mass_matrix_1d(8), mass_matrix_1d(16)
        assert K16[3, 3] == pytest.approx(2.0 * K8[3, 3])
        assert M16[3, 3] == pytest.approx(0.5 * M8[3, 3])


class TestDynBc:
    def test_dimensions_n8(self):
        prob = build_dynbc(MeshConfig(n_cells=8))
        assert prob.system.n == 63   # 56 bulk + 7 boundary unknowns
        assert prob.system.m == 7

    def test_initial_value_consistent_exactly(self):
        prob = build_dynbc(MeshConfig(n_cells=8))
        defect = prob.system.constraint @ prob.u0
        assert np.abs(defect).max() == 0.0

    def test_constraint_rhs_identically_zero(self):
        prob = build_dynbc(MeshConfig(n_cells=8))
        assert np.linalg.norm(prob.system.g(0.37)) == 0.0
        assert np.linalg.norm(prob.system.gdot(1.2)) == 0.0

    def test_operator_blocks(self):
        cfg = MeshConfig(n_cells=8)
        prob = build_dynbc(cfg)
        A = prob.system.stiffness
        n_bulk = prob.system.n - prob.system.m
        coupling = A[:n_bulk, n_bulk:]
        assert coupling.nnz == 0  # block diagonal operator
        sym_defect = abs(A - A.T)
        assert sym_defect.max() <= 1e-14 if sym_defect.nnz else True

    def test_forcing_lives_on_boundary_block(self):
        prob = build_dynbc(MeshConfig(n_cells=8))
        s = prob.system
        load = s.load(0.0, prob.u0)
        n_bulk = s.n - s.m
        assert np.linalg.norm(load[:n_bulk]) == 0.0
        assert np.linalg.norm(load[n_bulk:]) > 0.0

    def test_energy_estimate_linearized(self):
        # Frozen forcing: the energy at each grid time is bounded by the
        # initial energy plus the accumulated forcing integral.
        cfg = MeshConfig(n_cells=8)
        prob = build_dynbc(cfg)
        s = prob.system
        n_bulk = s.n - s.m
        edge_mass = s.mass[n_bulk:, n_bulk:]
        p0 = prob.u0[n_bulk:]

        def frozen(t, x):
            return s.load(t, np.concatenate([np.zeros(n_bulk), p0]))

        frozen_sys = ConstrainedSystem(
            s.mass, s.stiffness, s.constraint, frozen, s.g, s.gdot
        )
        tau = 1.0 / 64
        traj, _ = integrate(frozen_sys, SchemeConfig(scheme="second-order"),
                            prob.u0, 0.0, 0.5, tau)

        def forcing_h_sq(t):
            # load = (0, M_edge q): squared H-norm is q^T M_edge q
            q = 3.0 * np.cos(2 * np.pi * t) - np.sin(
                2 * np.pi * np.arange(1, 8) / 8
            ) - p0**3
            return float(q @ (edge_mass @ q))

        energy = lambda u: float(u @ (s.stiffness @ u))
        acc = 0.0
        for k, st in enumerate(traj[1:], start=1):
            t_prev, t_cur = traj[k - 1].t, st.t
            acc += 0.5 * tau * (forcing_h_sq(t_prev) + forcing_h_sq(t_cur))
            assert energy(st.u) <= 1.05 * (energy(prob.u0) + acc)

    def test_snapshot_run_stays_bounded(self):
        # Solution-snapshot configuration: trajectory remains bounded
        # and on the constraint manifold over the whole interval.
        prob = build_dynbc(MeshConfig(n_cells=32))
        traj, diag = integrate(
            prob.system, SchemeConfig(scheme="exp-euler"), prob.u0, 0.0, 0.7, 1.0 / 100
        )
        norms = [np.linalg.norm(st.u) for st in traj]
        assert max(norms) <= 10.0 * (1.0 + norms[0])
        assert diag.max_constraint_residual <= 1e-9

    def test_mesh_refinement_consistency(self):
        # The boundary dynamics at shared nodes must agree across mesh
        # refinements to discretization accuracy (quadratic for
        # bilinear elements); guards the assembly scale factors.
        vals = {}
        for n in (8, 16):
            prob = build_dynbc(MeshConfig(n_cells=n))
            s = prob.system
            traj, _ = integrate(
                s, SchemeConfig(scheme="second-order"), prob.u0, 0.0, 0.25, 1.0 / 64
            )
            p = traj[-1].u[s.n - s.m:]
            xs = np.round(np.arange(1, n) / n, 6)
            vals[n] = dict(zip(xs, p))
        shared = sorted(set(vals[8]) & set(vals[16]))
        p8 = np.array([vals[8][x] for x in shared])
        p16 = np.array([vals[16][x] for x in shared])
        assert np.linalg.norm(p8 - p16) <= 0.02 * np.linalg.norm(p16)

    @pytest.mark.parametrize("n", [8, 16])
    def test_bulk_rows_are_the_q1_stencils(self, n):
        # Q1 on squares of side h: the stiffness is h-independent and the
        # mass scales as h^2.  Each stencil lists rows y - h, y, y + h of
        # columns x - h, x, x + h: the mass in units of h^2 / 36 and the
        # stiffness over KAPPA in units of 1/3.  An interior node sums
        # four elements; a bottom-edge node sums the two above it.
        stencils = {
            n // 2: ([[1, 4, 1], [4, 16, 4], [1, 4, 1]],
                     [[-1, -1, -1], [-1, 8, -1], [-1, -1, -1]]),
            0: ([[0, 0, 0], [2, 8, 2], [1, 4, 1]],
                [[0, 0, 0], [-0.5, 4, -0.5], [-1, -1, -1]]),
        }
        s = build_dynbc(MeshConfig(n_cells=n)).system
        n_bulk = s.n - s.m
        dof = lambda i, j: j * (n - 1) + i - 1  # x runs fastest
        i = n // 2
        for j, (mass_stencil, stiff_stencil) in stencils.items():
            expected_mass, expected_stiff = np.zeros(n_bulk), np.zeros(n_bulk)
            for dj in (-1, 0, 1):
                for di in (-1, 0, 1):
                    if mass_stencil[dj + 1][di + 1]:
                        expected_mass[dof(i + di, j + dj)] = mass_stencil[dj + 1][di + 1]
                        expected_stiff[dof(i + di, j + dj)] = stiff_stencil[dj + 1][di + 1]
            row = dof(i, j)
            np.testing.assert_allclose(
                s.mass[row, :n_bulk].toarray().ravel(), expected_mass / (36 * n * n), rtol=1e-14
            )
            np.testing.assert_allclose(
                s.stiffness[row, :n_bulk].toarray().ravel() / KAPPA, expected_stiff / 3,
                rtol=1e-14,
            )

    def test_rejects_tiny_mesh(self):
        with pytest.raises(ValueError):
            MeshConfig(n_cells=2)


class TestNonSym:
    def test_dimensions(self):
        prob = build_nonsym(MeshConfig(n_cells=16))
        assert prob.system.n == 32
        assert prob.system.m == 1

    def test_operator_not_symmetric(self):
        prob = build_nonsym(MeshConfig(n_cells=16))
        A = prob.system.stiffness
        assert abs(A - A.T).max() > 0.0

    def test_initial_value_consistent(self):
        prob = build_nonsym(MeshConfig(n_cells=16))
        s = prob.system
        assert np.linalg.norm(s.constraint @ prob.u0 - s.g(0.0)) == 0.0
        assert s.g(0.0)[0] == 0.0

    def test_series_truncation_stable(self):
        x = np.arange(1, 33) / 32
        diff = np.abs(
            nonsym_initial_profile(x, 1000) - nonsym_initial_profile(x, 4000)
        ).max()
        assert diff < 1e-3

    def test_blocked_series_matches_the_dense_sum(self):
        xs = np.arange(1, 65) / 64
        k = np.arange(1, 1001)
        dense = np.sin(np.outer(xs, k * np.pi)) @ (k**-1.55)
        assert np.abs(nonsym_initial_profile(xs, 1000) - dense).max() <= 1e-13
        u0 = build_nonsym(MeshConfig(n_cells=64)).u0
        assert np.abs(u0 - np.concatenate([dense, dense])).max() <= 1e-13

    def test_fine_mesh_build_memory_is_linear_in_the_cells(self):
        # The dense n x terms series matrix peaked at 64 MiB here.
        tracemalloc.start()
        try:
            build_problem("nonsym", n_cells=1024)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("n_cells", [16, 64, 512])
    def test_meshes_to_512_start_from_the_1000_term_profile(self, n_cells):
        u0 = build_nonsym(MeshConfig(n_cells=n_cells)).u0
        xs = (1.0 / n_cells) * np.arange(1, n_cells + 1)  # the builder's nodes
        profile = nonsym_initial_profile(xs, 1000)
        assert u0.tobytes() == np.concatenate([profile, profile]).tobytes()

    def test_fine_mesh_builds_with_a_longer_series(self):
        # 1000 terms drift by 7.8e-3 at h = 1/1024; the builder doubles them.
        prob = build_problem("nonsym", n_cells=1024)
        s = prob.system
        assert s.n == 2048
        assert np.linalg.norm(s.constraint @ prob.u0 - s.g(0.0)) == 0.0
        xs = (1.0 / 1024) * np.arange(1, 1025)
        drift = np.abs(prob.u0[:1024] - nonsym_initial_profile(xs, 4000)).max()
        assert drift <= 5e-3

    def test_constraint_selects_endpoint_difference(self):
        prob = build_nonsym(MeshConfig(n_cells=16))
        B = prob.system.constraint.toarray().ravel()
        expected = np.zeros(32)
        expected[15] = 1.0
        expected[31] = -1.0
        np.testing.assert_array_equal(B, expected)

    def test_linear_part_bounded(self):
        # Cubic terms off, homogeneous constraint: no blow-up on [0, 1].
        prob = build_nonsym(MeshConfig(n_cells=16))
        s = prob.system
        lin = ConstrainedSystem(
            s.mass, s.stiffness, s.constraint,
            lambda t, x: np.zeros(32),
            lambda t: np.zeros(1),
            lambda t: np.zeros(1),
            h1_form=s.h1_form,
        )
        traj, _ = integrate(lin, SchemeConfig(scheme="exp-euler"), prob.u0, 0.0, 1.0, 0.05)
        norms = [np.linalg.norm(st.u) for st in traj]
        assert max(norms) <= 10.0 * norms[0]


class TestToy:
    def test_manufactured_solution_satisfies_constraint(self):
        prob = build_toy(ToyConfig(n=20, m=4, seed=7))
        s = prob.system
        for t in (0.0, 0.4, 1.0):
            x = prob.exact(t)
            assert np.linalg.norm(s.constraint @ x - s.g(t)) <= 1e-12

    def test_manufactured_residual_in_discrete_system(self):
        # Substituting x* into M x' + A x + B^T lam - f must vanish for
        # the multiplier the construction used; eliminate it by testing
        # the residual against the kernel of B^T's complement, i.e.
        # check that the residual lies in range(B^T).
        prob = build_toy(ToyConfig(n=15, m=3, seed=1))
        s = prob.system
        eps = 1e-7
        for t in (0.1, 0.6):
            x_dot = (prob.exact(t + eps) - prob.exact(t - eps)) / (2 * eps)
            res = s.mass @ x_dot + s.stiffness @ prob.exact(t) - s.load(t, prob.exact(t))
            # res = -B^T lam: projecting out range(B^T) must leave ~0
            bt = s.constraint.toarray().T
            coeffs, *_ = np.linalg.lstsq(bt, res, rcond=None)
            assert np.linalg.norm(res - bt @ coeffs) <= 1e-6 * max(np.linalg.norm(res), 1.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ToyConfig(n=10, m=10)
        with pytest.raises(ValueError):
            ToyConfig(n=300, m=1)


class TestRegistry:
    def test_all_problems_buildable(self):
        for name in PROBLEMS:
            prob = build_problem(name)
            assert prob.system.n > 0
            assert prob.u0.shape == (prob.system.n,)

    def test_overrides(self):
        prob = build_problem("nonsym", n_cells=8)
        assert prob.system.n == 16

    def test_unknown_problem(self):
        with pytest.raises(KeyError):
            build_problem("nosuch")

    def test_unknown_key(self):
        with pytest.raises(ValueError):
            build_problem("toy", bogus=1)

    def test_h1_norm_of_sine_interpolant(self):
        # || sin(pi x) ||_H1^2 = pi^2/2 + 1/2 on (0, 1).
        prob = build_problem("nonsym", n_cells=256)
        s = prob.system
        xs = np.arange(1, 257) / 256
        e = np.concatenate([np.sin(np.pi * xs), np.zeros(256)])
        val = error_norm(s, e, "h1")
        assert val == pytest.approx(np.sqrt(np.pi**2 / 2 + 0.5), rel=0.01)


class TestConfigFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# study setup\nproblem = dynbc\nh=1/16\n\ntau = 0.01\n")
        values = parse_config_file(path)
        assert values == {"problem": "dynbc", "h": "1/16", "tau": "0.01"}

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just some words\n")
        with pytest.raises(ValueError):
            parse_config_file(path)
