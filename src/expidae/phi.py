"""Dense matrix exponential and the phi-function family.

phi_0 is the exponential and phi_{k+1}(z) = (phi_k(z) - phi_k(0)) / z
with phi_k(0) = 1/k!.  These functions drive the small Hessenberg
exponentials inside the Krylov flow and serve as dense oracles for the
integrator tests via the closed-form solution of linear systems with
polynomial forcing.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, NonFinite, OrderTooHigh

__all__ = ["expm", "phi", "polyrhs_solution"]

MAX_PHI_ORDER = 4


def expm(a) -> np.ndarray:
    """Matrix exponential (SciPy's scaling-and-squaring Pade algorithm).

    Raises ``DimensionMismatch`` for a non-square argument and
    ``NonFinite`` for non-finite input or an overflowing result.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expm needs a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NonFinite("expm input has non-finite entries")
    with np.errstate(over="ignore", invalid="ignore"):
        result = scipy.linalg.expm(a)
    if not np.isfinite(result).all():
        raise NonFinite("matrix exponential overflowed")
    return result


def phi(order: int, z):
    """Evaluate phi_order at a scalar or square matrix argument.

    Orders 0..4 are supported.  Every finite argument, singular or not,
    takes one path: phi_order(Z) is the top-right n x n block of the
    exponential of the block companion matrix

        [[Z, I, 0, ..., 0], [0, 0, I, ..., 0], ..., [0, ..., 0, 0]]

    with ``order`` identity blocks (Al-Mohy & Higham, SIAM J. Sci.
    Comput. 33, 2011, Thm 2.1), which has no cancellation at small Z.
    Z = 0 returns I / order! exactly.  A scalar argument returns a float.
    """
    if not 0 <= order <= MAX_PHI_ORDER:
        raise OrderTooHigh(f"phi order must be in 0..{MAX_PHI_ORDER}, got {order}")
    scalar = np.ndim(z) == 0
    mat = np.array([[z]] if scalar else z, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch(f"phi needs a scalar or square matrix, got {mat.shape}")
    if not np.isfinite(mat).all():
        raise NonFinite("phi argument has non-finite entries")
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


def polyrhs_solution(a, u0, forcing, t: float) -> np.ndarray:
    """Exact solution of u' + a u = sum_k f_k t^(k-1) / (k-1)! at time t.

    ``forcing`` is the (possibly empty) list of coefficient vectors
    f_1..f_n; the solution is phi_0(-t a) u0 + sum_k phi_k(-t a) f_k t^k.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"coefficient matrix must be square, got {a.shape}")
    n = a.shape[0]
    u0 = np.atleast_1d(np.asarray(u0, dtype=np.float64))
    if u0.shape != (n,):
        raise DimensionMismatch(f"u0 has shape {u0.shape}, expected ({n},)")
    if len(forcing) > MAX_PHI_ORDER:
        raise OrderTooHigh(f"at most {MAX_PHI_ORDER} forcing terms supported")

    z = -t * a
    u = phi(0, z) @ u0
    for k, fk in enumerate(forcing, start=1):
        fk = np.atleast_1d(np.asarray(fk, dtype=np.float64))
        if fk.shape != (n,):
            raise DimensionMismatch(f"forcing term {k} has shape {fk.shape}")
        u = u + (t**k) * (phi(k, z) @ fk)
    return u
