"""Sparse and dense real linear algebra underneath the integrators.

The central object is :class:`SaddleFactorization`, a cached sparse LU
factorization of the indefinite block matrix

    [ S  B^T ]
    [ B   0  ]

which every stationary subproblem and the constrained flow evaluation
reduce to.  Matrices are carried as scipy CSR, vectors as 1-d numpy
arrays of float64.

``spmv`` is the matrix-vector product of every step.  At the sizes of
the benchmark problems (n of a hundred to a thousand) the CSR kernel
takes 1-3 microseconds, while ``A @ x`` spends about as much again in
SciPy's operator dispatch; ``spmv`` calls the kernel that ``A @ x``
ends in, so it returns the same bits for the cost of the kernel and one
shape check.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec
from scipy.sparse.linalg import splu

from .errors import DimensionMismatch, SingularSaddle

__all__ = [
    "canonical_csr",
    "SaddleFactorization",
    "kernel_project",
    "require_spd",
]

# Relative pivot threshold below which a factorization is declared singular.
PIVOT_RTOL = 1e-13

# Largest |M - M^T| entry, relative to max(1, max |M|), that require_spd accepts.
SYMMETRY_RTOL = 1e-12


def canonical_csr(matrix, copy: bool = True) -> sp.csr_matrix:
    """Return ``matrix`` as a canonical CSR matrix.

    Canonical means: duplicates summed, explicit zeros dropped, column
    indices sorted within each row, all entries finite.  The result is a
    new matrix, except that with ``copy=False`` a float64 ``csr_matrix``
    that is canonical already is returned itself.
    """
    if not copy and _is_canonical(matrix):
        return matrix
    out = sp.csr_matrix(matrix, dtype=np.float64, copy=True)
    out.sum_duplicates()
    out.eliminate_zeros()
    out.sort_indices()
    if out.nnz and not np.isfinite(out.data).all():
        raise ValueError("sparse matrix contains non-finite entries")
    return out


def _is_canonical(matrix) -> bool:
    return (
        type(matrix) is sp.csr_matrix
        and matrix.dtype == np.float64
        and matrix.has_canonical_format
        and bool(matrix.data.all())
        and bool(np.isfinite(matrix.data).all())
    )


def as_vector(x, length: int, name: str = "vector") -> np.ndarray:
    """Validate and convert ``x`` to a 1-d float64 array of ``length`` entries."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-d, got shape {v.shape}")
    if v.shape[0] != length:
        raise DimensionMismatch(f"{name} has length {v.shape[0]}, expected {length}")
    return v


def spmv(a, x) -> np.ndarray:
    """``a @ x`` for a CSR matrix ``a`` and a vector ``x``, without SciPy's dispatch.

    Calls SciPy's CSR kernel, as ``a @ x`` does, into a fresh zero
    vector, so the result has the same bits.  The kernel checks no
    bounds, so ``x`` must have shape ``(a.shape[1],)``; any other shape
    raises ``DimensionMismatch``.
    """
    if x.__class__ is not np.ndarray:
        x = np.asarray(x, dtype=np.float64)
    n_row, n_col = a.shape
    if x.shape != (n_col,):
        raise DimensionMismatch(f"operand has shape {x.shape}, expected ({n_col},)")
    y = np.zeros(n_row)
    csr_matvec(n_row, n_col, a.indptr, a.indices, a.data, x, y)
    return y


class SaddleFactorization:
    """Sparse LU factorization of ``[[S, B^T], [B, 0]]``.

    The factorization is computed once (fill-reducing column ordering,
    partial pivoting) and reused for every solve; it is read-only after
    construction, so concurrent solves against one factorization are
    fine.  The object keeps references to S and B so projections can
    be formed without re-assembly; a canonical float64 CSR argument is
    kept itself, not copied (``canonical_csr(..., copy=False)``), so a
    caller must not modify it afterwards.

    Every solve is one SuperLU solve.  LU with partial pivoting is
    normwise backward stable, and every step checks and repairs its
    constraint residual (``integrators._finish_step``).

    Raises SingularSaddle if the block matrix is structurally singular
    or a pivot falls below the module constant ``PIVOT_RTOL`` times
    the largest entry, which signals a rank-deficient B or an S that
    is singular on the kernel of B.
    """

    def __init__(self, S, B):
        self.S = canonical_csr(S, copy=False)
        self.B = canonical_csr(B, copy=False)
        n = self.S.shape[0]
        m = self.B.shape[0]
        if self.S.shape[1] != n:
            raise DimensionMismatch("S must be square")
        if self.B.shape[1] != n:
            raise DimensionMismatch("constraint B must have as many columns as S")
        if m > n:
            raise DimensionMismatch("more constraint rows than unknowns")
        self.n = n
        self.m = m

        blocks = [[self.S, self.B.T], [self.B, None]]
        block = sp.bmat(blocks, format="csc", dtype=np.float64)
        scale = np.abs(block.data).max() if block.nnz else 0.0
        if scale == 0.0:
            raise SingularSaddle("saddle block matrix is all zero")
        try:
            self._lu = splu(block, permc_spec="COLAMD")
        except RuntimeError as exc:  # SuperLU signals exact singularity this way
            raise SingularSaddle(f"saddle factorization failed: {exc}") from exc
        pivots = np.abs(self._lu.U.diagonal())
        if pivots.min() < PIVOT_RTOL * scale:
            raise SingularSaddle(
                f"pivot {pivots.min():.3e} below threshold {PIVOT_RTOL * scale:.3e}"
            )

    def solve(self, rhs_primal, rhs_constraint) -> tuple[np.ndarray, np.ndarray]:
        """Solve S x + B^T mult = rhs_primal, B x = rhs_constraint.

        Both parts are written into one stacked right-hand side.  Arrays
        of shapes (n,) and (m,) go there as they are; anything else is
        converted by ``as_vector`` first, which raises ``DimensionMismatch``
        for a wrong shape.
        """
        n, m = self.n, self.m
        shapes = getattr(rhs_primal, "shape", None), getattr(rhs_constraint, "shape", None)
        if shapes != ((n,), (m,)):
            rhs_primal = as_vector(rhs_primal, n, "rhs_primal")
            rhs_constraint = as_vector(rhs_constraint, m, "rhs_constraint")
        rhs = np.empty(n + m)
        rhs[:n] = rhs_primal
        rhs[n:] = rhs_constraint
        sol = self._lu.solve(rhs)
        return sol[:n], sol[n:]


def kernel_project(fact: SaddleFactorization, x) -> np.ndarray:
    """S-orthogonal projection of ``x`` onto the kernel of B.

    ``fact`` must have been assembled from the inner-product matrix
    (typically the mass matrix) and B.  Solves S p + B^T mu = S x,
    B p = 0; with no constraints (m = 0) that is S p = S x, so p is x
    up to round-off.
    """
    x = as_vector(x, fact.n, "x")
    p, _ = fact.solve(fact.S @ x, np.zeros(fact.m))
    return p


def require_spd(mat, name: str = "matrix") -> None:
    """Check symmetry, then positive definiteness by one banded Cholesky factorization.

    The band is the matrix's own, so the check costs O(n p^2) for
    bandwidth p and is an exact dense factorization when p = n - 1.
    """
    mat = canonical_csr(mat)
    n = mat.shape[0]
    if mat.shape[1] != n:
        raise DimensionMismatch(f"{name} must be square")
    scale = np.abs(mat.data).max() if mat.nnz else 0.0
    asym = sp.csr_matrix(mat - mat.T)
    asym_max = np.abs(asym.data).max() if asym.nnz else 0.0
    if asym_max > SYMMETRY_RTOL * max(scale, 1.0):
        raise ValueError(f"{name} is not symmetric (deviation {asym_max:.3e})")
    coo = mat.tocoo()
    upper = coo.col >= coo.row
    offset = (coo.col - coo.row)[upper]
    p = int(offset.max(initial=0))
    ab = np.zeros((p + 1, n))
    ab[p - offset, coo.col[upper]] = coo.data[upper]
    try:
        scipy.linalg.cholesky_banded(ab, lower=False)
    except scipy.linalg.LinAlgError as exc:
        raise ValueError(f"{name} is not positive definite: {exc}") from exc
