"""Dense matrix exponential and the phi-function family.

phi_0 is the exponential and phi_{k+1}(z) = (phi_k(z) - phi_k(0)) / z
with phi_k(0) = 1/k!.  These functions drive the small Hessenberg
exponentials inside the Krylov flow and serve as dense oracles for the
integrator tests via the closed-form solution of linear systems with
polynomial forcing.

``expm`` computes the exponential by SciPy's scaling-and-squaring Pade
algorithm (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 2009).  A
bordered Hessenberg matrix of a Krylov check has a few dozen rows, and
``scipy.linalg.expm`` spends most of such a call outside its Pade
kernels.  So, for a matrix with a nonzero sub- and superdiagonal band,
``expm`` calls SciPy's kernels ``pick_pade_structure`` and
``pade_UV_calc`` itself and squares, as the generic branch of
``scipy.linalg.expm`` does, which gives the same bits.  The kernels are
private and their signatures have changed between SciPy releases, so
they are used only if a self-check at import reproduces
``scipy.linalg.expm`` bit for bit on a matrix that needs squaring; else
every call goes to ``scipy.linalg.expm``.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, NonFinite, OrderTooHigh

__all__ = ["expm", "phi", "polyrhs_solution"]

MAX_PHI_ORDER = 4


def _pade_expm(a, kernels) -> np.ndarray | None:
    """exp(a) by SciPy's Pade kernels and squaring, or None if a kernel fails.

    ``a`` is a finite float64 matrix of at least 2 x 2 that is neither
    upper nor lower triangular, so ``scipy.linalg.expm`` takes its
    generic branch, which this repeats.  The result owns its memory.
    """
    pick_pade_structure, pade_UV_calc = kernels
    n = a.shape[0]
    work = np.empty((5, n, n))
    work[0] = a
    m, s = pick_pade_structure(work)  # scales work[0] by 2**-s
    if m < 0 or pade_UV_calc(work, m) != 0:
        return None
    if s == 0:
        return work[0].copy()
    result = work[0]
    for _ in range(s):
        result = result @ result
    return result


def _bind_pade_kernels(source):
    """SciPy's (``pick_pade_structure``, ``pade_UV_calc``) from ``source``, if they check out.

    The check runs ``_pade_expm`` on a fixed bordered Hessenberg matrix
    whose exponential needs squaring and compares it bit for bit with
    ``scipy.linalg.expm``.  Returns None if a name is missing, a call
    raises or a bit differs.
    """
    try:
        kernels = (source.pick_pade_structure, source.pade_UV_calc)
        probe = np.zeros((5, 5))
        probe[:4, :4] = np.triu(np.arange(1.0, 17.0).reshape(4, 4), -1)
        probe[0, 4] = 1.0
        direct = _pade_expm(probe, kernels)
        reference = scipy.linalg.expm(probe)
    except (AttributeError, TypeError, ValueError):
        return None
    if direct is None or not np.array_equal(direct, reference):
        return None
    return kernels


try:
    from scipy.linalg import _matfuncs_expm
except ImportError:
    _PADE_KERNELS = None
else:
    _PADE_KERNELS = _bind_pade_kernels(_matfuncs_expm)


def expm(a) -> np.ndarray:
    """Matrix exponential (SciPy's scaling-and-squaring Pade algorithm).

    A matrix whose first sub- and superdiagonal test nonzero (every
    bordered Hessenberg matrix of a Krylov check past one vector) goes
    straight to SciPy's Pade kernels when they are bound; everything
    else, and a kernel failure, goes to ``scipy.linalg.expm``.  Both
    give the same bits.  The two band tests look at one entry first, so
    they cost less than ``scipy.linalg.bandwidth``.

    Raises ``DimensionMismatch`` for a non-square argument and
    ``NonFinite`` for non-finite input or an overflowing result.  Each
    finiteness test is one sum, with the entrywise scan only when the
    sum is not finite (a finite matrix whose sum overflows); overflow
    warnings stay suppressed.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expm needs a square matrix, got shape {a.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        if not (math.isfinite(a.sum()) or np.isfinite(a).all()):
            raise NonFinite("expm input has non-finite entries")
        result = None
        if (
            _PADE_KERNELS is not None
            and a.shape[0] >= 2
            and (a[1, 0] != 0 or a.diagonal(-1).any())
            and (a[0, -1] != 0 or a.diagonal(1).any())
        ):
            result = _pade_expm(a, _PADE_KERNELS)
        if result is None:
            result = scipy.linalg.expm(a)
        if not (math.isfinite(result.sum()) or np.isfinite(result).all()):
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
