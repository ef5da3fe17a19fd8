"""Dense matrix exponential for the small matrices of the ``flow`` module.

Each error check of a Krylov flow takes the exponential of a bordered
Hessenberg matrix, whose last column holds phi_1 of the Hessenberg
matrix, and the dense step maps take the exponential of the reduced
generator on ker B.  ``expm`` is that exponential.

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

from .errors import DimensionMismatch, NonFinite

__all__ = ["expm"]


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


def _finite(a) -> bool:
    """Whether every entry of ``a`` is finite, by one dot product of its entries.

    The sum of squares is finite for a finite matrix unless it overflows;
    only then, or for a non-finite entry, are the entries scanned.  Call
    with overflow warnings suppressed.
    """
    flat = a.ravel()
    return math.isfinite(flat.dot(flat)) or bool(np.isfinite(a).all())


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
    finiteness test is one dot product (``_finite``), with the entrywise
    scan only when it is not finite; overflow warnings stay suppressed.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expm needs a square matrix, got shape {a.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        if not _finite(a):
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
        if not _finite(result):
            raise NonFinite("matrix exponential overflowed")
    return result
