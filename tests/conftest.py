"""Shared helpers: random constrained instances, dense oracles and call counters."""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from expidae.flow import DaeOperator, _arnoldi_extend, _PhiForm, flow
from expidae.phi import expm


def random_spd(rng, n, lo=0.5, hi=2.0):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * rng.uniform(lo, hi, size=n)) @ q.T


def random_constrained(rng, n, m, symmetric=True):
    """Random (M, A, B) with M SPD and A elliptic on ker B."""
    M = random_spd(rng, n, 0.5, 2.0)
    A = random_spd(rng, n, 0.5, 3.0)
    if not symmetric:
        skew = rng.standard_normal((n, n))
        A = A + 0.3 * (skew - skew.T)
    B = rng.standard_normal((m, n)) if m else np.zeros((0, n))
    return M, A, B


def make_operator(M, A, B):
    return DaeOperator(sp.csr_matrix(M), sp.csr_matrix(A), sp.csr_matrix(B))


def raw_flow_endpoint(op, x0, t):
    """The state of ``flow(op, x0, t)`` before its final projection onto ker B."""
    endpoints = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DaeOperator, "project", lambda self, x: endpoints.append(x) or x)
        flow(op, x0, t)
    (raw,) = endpoints
    return raw


def kernel_reduction_flow(M, A, B, x0, t):
    """Brute-force oracle: restrict the system to an orthonormal basis
    of ker B, solve the reduced dense ODE exactly, lift back."""
    if B.shape[0]:
        basis = scipy.linalg.null_space(B)
    else:
        basis = np.eye(M.shape[0])
    reduced = np.linalg.solve(basis.T @ M @ basis, basis.T @ A @ basis)
    return basis @ (expm(-t * reduced) @ (basis.T @ x0))


def phi(order, z):
    """phi_order at a scalar or square matrix argument, by the production ``expm``.

    phi_0 is the exponential and phi_{k+1}(z) = (phi_k(z) - 1/k!) / z.
    phi_order(Z) is the top-right n x n block of the exponential of the
    block companion matrix [[Z, I, 0, ..., 0], [0, 0, I, ..., 0], ...,
    [0, ..., 0, 0]] with ``order`` identity blocks (Al-Mohy & Higham,
    SIAM J. Sci. Comput. 33, 2011, Thm 2.1), which has no cancellation
    at small Z.  Z = 0 returns I / order! exactly.  A scalar argument
    returns a float.
    """
    scalar = np.ndim(z) == 0
    mat = np.array([[z]] if scalar else z, dtype=np.float64)
    n = mat.shape[0]
    if not mat.any():
        out = np.eye(n) / math.factorial(order)
    else:
        dim = n * (order + 1)
        w = np.zeros((dim, dim))
        w[:n, :n] = mat
        for i in range(order):
            w[i * n : (i + 1) * n, (i + 1) * n : (i + 2) * n] = np.eye(n)
        out = expm(w)[:n, order * n :]
    return float(out[0, 0]) if scalar else out


def polyrhs_solution(a, u0, forcing, t):
    """Exact solution of u' + a u = sum_k f_k t^(k-1) / (k-1)! at time t.

    ``forcing`` is the (possibly empty) list of coefficient vectors
    f_1..f_n; the solution is phi_0(-t a) u0 + sum_k phi_k(-t a) f_k t^k.
    """
    z = -t * np.asarray(a, dtype=np.float64)
    u = phi(0, z) @ np.asarray(u0, dtype=np.float64)
    for k, fk in enumerate(forcing, start=1):
        u = u + (t**k) * (phi(k, z) @ np.asarray(fk, dtype=np.float64))
    return u


def arnoldi(op, x0, r_max, loads=(), t=1.0):
    """Orthonormal Krylov basis of span{x0, X x0, ...} and its Hessenberg matrix.

    The steps are the production ``flow._arnoldi_extend``, the loop body
    of every Krylov shot, on the generator a flow with ``loads`` over
    ``t`` runs: ``op`` itself without loads, else its ``flow._PhiForm``
    from [x0; e_1].  Returns (V, H, h_next) with V of shape (n + p, r),
    H of shape (r, r) and h_next the first neglected subdiagonal entry;
    a happy breakdown stops early with h_next reported as 0.0.
    """
    if loads:
        op = _PhiForm(op, loads, t)
        x0 = np.concatenate((x0, np.eye(len(loads))[0]))
    size = x0.shape[0]
    r_cap = min(r_max, size)
    V = np.empty((r_cap + 1, size))
    H = np.zeros((r_cap + 1, r_cap))
    V[0] = x0 / np.linalg.norm(x0)
    sumsq = 0.0
    for j in range(r_cap):
        hnext, sumsq, breakdown = _arnoldi_extend(op, V, H, j, sumsq)
        if breakdown:
            break
    r = j + 1
    return V[:r].T.copy(), H[:r, :r].copy(), 0.0 if breakdown else float(hnext)


class CountingLU:
    """Stands in for a SuperLU object and counts its solves."""

    def __init__(self, lu):
        self.lu = lu
        self.solves = 0

    def solve(self, rhs):
        self.solves += 1
        return self.lu.solve(rhs)

    def __getattr__(self, name):
        return getattr(self.lu, name)


def push_flows_off_kernel(monkeypatch, scale=1e-6):
    """Make every Krylov flow of the integrators end ``scale B^T 1`` off ker B."""
    integ = sys.modules["expidae.integrators"]
    krylov_flow = integ.krylov_flow

    def pushed(op, x0, t, **kwargs):
        result = krylov_flow(op, x0, t, **kwargs)
        offset = op.constraint.T @ np.ones(op.m)
        return replace(result, state=result.state + scale * offset)

    monkeypatch.setattr(integ, "krylov_flow", pushed)


@pytest.fixture(scope="session")
def session_cache_dir(tmp_path_factory):
    """Reference-solution cache shared by all tests in one run."""
    return tmp_path_factory.mktemp("refcache")


def spy_scipy_expm(monkeypatch):
    """Record the size of every ``scipy.linalg.expm`` call, such as those ``phi.expm`` makes."""
    phi_module = sys.modules["expidae.phi"]
    calls = []
    raw = phi_module.scipy.linalg.expm

    def counted(a):
        calls.append(a.shape[0])
        return raw(a)

    monkeypatch.setattr(phi_module.scipy.linalg, "expm", counted)
    return calls
