import math

import numpy as np
import pytest
from scipy.integrate import quad

from expidae.errors import DimensionMismatch, NonFinite, OrderTooHigh
from expidae.phi import expm, phi, polyrhs_solution


def expm_series(a):
    """Independent oracle: scaled Taylor series, squared back up."""
    a = np.asarray(a, dtype=float)
    s = 0
    while np.linalg.norm(a, 1) / 2**s > 0.25:
        s += 1
    x = a / 2**s
    term = np.eye(a.shape[0])
    total = term.copy()
    for j in range(1, 40):
        term = term @ x / j
        total = total + term
    for _ in range(s):
        total = total @ total
    return total


class TestExpm:
    def test_zero(self):
        np.testing.assert_array_equal(expm(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        out = expm(np.diag([1.0, 2.0]))
        np.testing.assert_allclose(out, np.diag([np.e, np.e**2]), rtol=1e-14)

    def test_nilpotent(self):
        out = expm(np.array([[0.0, 1.0], [0.0, 0.0]]))
        np.testing.assert_allclose(out, [[1.0, 1.0], [0.0, 1.0]], atol=1e-15)

    def test_against_series_oracle_norm_up_to_10(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            n = int(rng.integers(1, 9))
            a = rng.standard_normal((n, n))
            a *= rng.uniform(0.05, 10.0) / max(np.linalg.norm(a, 2), 1e-12)
            reference = expm_series(a)
            rel = np.linalg.norm(expm(a) - reference) / np.linalg.norm(reference)
            assert rel <= 1e-12

    def test_semigroup(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.standard_normal((5, 5))
            a *= rng.uniform(0.1, 2.0) / np.linalg.norm(a, 2)
            lhs = expm(a) @ expm(a)
            rhs = expm(2.0 * a)
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_overflow_raises(self):
        with pytest.raises(NonFinite):
            expm(np.array([[2000.0]]))

    def test_nonfinite_input_raises(self):
        with pytest.raises(NonFinite):
            expm(np.array([[np.inf]]))

    def test_nonsquare_raises(self):
        with pytest.raises(DimensionMismatch):
            expm(np.ones((2, 3)))


class TestPhi:
    def test_values_at_zero_exact(self):
        for k in range(5):
            assert phi(k, 0.0) == 1.0 / math.factorial(k)

    def test_matrix_zero_exact(self):
        for k in range(5):
            np.testing.assert_array_equal(phi(k, np.zeros((2, 2))), np.eye(2) / math.factorial(k))

    def test_phi1_at_two(self):
        assert abs(phi(1, 2.0) - (np.e**2 - 1.0) / 2.0) < 1e-13

    def test_phi2_at_one(self):
        # phi_2(1) = (phi_1(1) - 1) / 1 = e - 2
        assert abs(phi(2, 1.0) - (np.e - 2.0)) < 1e-13

    def test_order_limit(self):
        with pytest.raises(OrderTooHigh):
            phi(5, 1.0)
        with pytest.raises(OrderTooHigh):
            phi(-1, 1.0)

    def test_recursion_identity_random_matrices(self):
        # Z phi_{k+1}(Z) = phi_k(Z) - I/k! for norms up to 5
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            z = rng.standard_normal((n, n))
            z *= rng.uniform(0.05, 5.0) / max(np.linalg.norm(z, 2), 1e-12)
            for k in range(4):
                lhs = z @ phi(k + 1, z)
                rhs = phi(k, z) - np.eye(n) / math.factorial(k)
                assert np.linalg.norm(lhs - rhs) <= 1e-10

    def test_integral_identity_scalar(self):
        # phi_k(z) = int_0^1 e^{(1-s) z} s^{k-1}/(k-1)! ds
        for k in (1, 2):
            for z in (-8.0, -1.0, -0.3, 0.2, 3.0):
                val, _ = quad(
                    lambda s: math.exp((1.0 - s) * z) * s ** (k - 1) / math.factorial(k - 1),
                    0.0,
                    1.0,
                )
                assert abs(phi(k, z) - val) <= 1e-8

    def test_scalar_series_small_argument(self):
        z = 1e-5
        assert abs(phi(1, z) - math.expm1(z) / z) < 1e-13

    def test_singular_arguments_match_closed_forms(self):
        # phi_k acts on each eigenvalue, and 0 maps to 1/k!.
        out = phi(1, np.diag([2.0, 0.0]))
        expected = np.diag([(np.e**2 - 1.0) / 2.0, 1.0])
        np.testing.assert_allclose(out, expected, rtol=1e-14, atol=1e-15)
        # N nilpotent (N^2 = 0): the series phi_2(N) = I/2 + N/6 + N^2/24 + ... stops.
        n = np.array([[0.0, 1.0, 3.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        for k in range(5):
            expected = np.eye(3) / math.factorial(k) + n / math.factorial(k + 1)
            np.testing.assert_allclose(phi(k, n), expected, rtol=1e-14, atol=1e-15)
        # A rank-one argument of norm 4: phi_k(-4 P) for the projector P.
        v = np.array([1.0, -2.0, 0.5])
        z = np.outer(v, v) * (-4.0 / (v @ v))
        proj = np.outer(v, v) / (v @ v)
        for k, scalar in ((1, (1.0 - np.exp(-4.0)) / 4.0), (2, (np.exp(-4.0) - 1.0 + 4.0) / 16.0)):
            expected = np.eye(3) / math.factorial(k) + (scalar - 1.0 / math.factorial(k)) * proj
            np.testing.assert_allclose(phi(k, z), expected, rtol=1e-13, atol=1e-15)


class TestPolyrhsSolution:
    def test_homogeneous_reduces_to_exponential(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 4))
        u0 = rng.standard_normal(4)
        out = polyrhs_solution(a, u0, [], 0.7)
        np.testing.assert_allclose(out, expm(-0.7 * a) @ u0, rtol=1e-12)

    def test_zero_operator_constant_forcing(self):
        u0 = np.array([1.0, 2.0])
        f1 = np.array([3.0, -1.0])
        out = polyrhs_solution(np.zeros((2, 2)), u0, [f1], 0.5)
        np.testing.assert_allclose(out, u0 + 0.5 * f1, rtol=1e-14)

    def test_scalar_case(self):
        # u' + u = 1, u(0) = 1  =>  u(1) = e^{-1} + (1 - e^{-1}) = 1
        out = polyrhs_solution(np.array([[1.0]]), [1.0], [[1.0]], 1.0)
        np.testing.assert_allclose(out, [1.0], rtol=1e-13)

    def test_quadratic_forcing_against_ode_quadrature(self):
        # u' + a u = f1 + f2 t with solution checked by fine RK4.
        rng = np.random.default_rng(9)
        a = rng.standard_normal((3, 3))
        a = a @ a.T / 3.0 + np.eye(3)
        u0 = rng.standard_normal(3)
        f1 = rng.standard_normal(3)
        f2 = rng.standard_normal(3)
        t_end = 0.8

        def rhs(t, u):
            return -(a @ u) + f1 + f2 * t

        u = u0.copy()
        nsteps = 4000
        dt = t_end / nsteps
        for i in range(nsteps):
            t = i * dt
            k1 = rhs(t, u)
            k2 = rhs(t + dt / 2, u + dt / 2 * k1)
            k3 = rhs(t + dt / 2, u + dt / 2 * k2)
            k4 = rhs(t + dt, u + dt * k3)
            u = u + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)

        out = polyrhs_solution(a, u0, [f1, f2], t_end)
        np.testing.assert_allclose(out, u, rtol=1e-10)

    def test_dimension_checks(self):
        with pytest.raises(DimensionMismatch):
            polyrhs_solution(np.eye(2), np.ones(3), [], 1.0)
        with pytest.raises(DimensionMismatch):
            polyrhs_solution(np.eye(2), np.ones(2), [np.ones(3)], 1.0)
