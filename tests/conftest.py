"""Shared helpers: random constrained instances, dense oracles and call counters."""

import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from expidae.flow import DaeOperator
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


def kernel_reduction_flow(M, A, B, x0, t):
    """Brute-force oracle: restrict the system to an orthonormal basis
    of ker B, solve the reduced dense ODE exactly, lift back."""
    if B.shape[0]:
        basis = scipy.linalg.null_space(B)
    else:
        basis = np.eye(M.shape[0])
    reduced = np.linalg.solve(basis.T @ M @ basis, basis.T @ A @ basis)
    return basis @ (expm(-t * reduced) @ (basis.T @ x0))


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
