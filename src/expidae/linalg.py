"""Sparse and dense real linear algebra underneath the integrators.

The central object is :class:`SaddleFactorization`, a cached sparse LU
factorization of the indefinite block matrix

    [ S  B^T ]
    [ B   0  ]

which every stationary subproblem and the constrained flow evaluation
reduce to.  Matrices are carried as scipy CSR, vectors as 1-d numpy
arrays of float64.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sp
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


def canonical_csr(matrix) -> sp.csr_matrix:
    """Return ``matrix`` as a canonical CSR matrix.

    Canonical means: duplicates summed, explicit zeros dropped, column
    indices sorted within each row, all entries finite.
    """
    out = sp.csr_matrix(matrix, dtype=np.float64, copy=True)
    out.sum_duplicates()
    out.eliminate_zeros()
    out.sort_indices()
    if out.nnz and not np.isfinite(out.data).all():
        raise ValueError("sparse matrix contains non-finite entries")
    return out


def as_vector(x, length: int | None = None, name: str = "vector") -> np.ndarray:
    """Validate and convert ``x`` to a 1-d float64 array."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-d, got shape {v.shape}")
    if length is not None and v.shape[0] != length:
        raise DimensionMismatch(f"{name} has length {v.shape[0]}, expected {length}")
    return v


class SaddleFactorization:
    """Sparse LU factorization of ``[[S, B^T], [B, 0]]``.

    The factorization is computed once (fill-reducing column ordering,
    partial pivoting) and reused for every solve; it is read-only after
    construction, so concurrent solves against one factorization are
    fine.  The object keeps references to S and B so projections can
    be formed without re-assembly.

    Every solve is one SuperLU solve.  LU with partial pivoting is
    normwise backward stable, and every step checks and repairs its
    constraint residual (``integrators._finish_step``).

    Raises SingularSaddle if the block matrix is structurally singular
    or a pivot falls below the module constant ``PIVOT_RTOL`` times
    the largest entry, which signals a rank-deficient B or an S that
    is singular on the kernel of B.
    """

    def __init__(self, S, B):
        self.S = canonical_csr(S)
        self.B = canonical_csr(B)
        n = self.S.shape[0]
        m = self.B.shape[0]
        if self.S.shape[1] != n:
            raise DimensionMismatch("S must be square")
        if self.B.shape[1] != n:
            raise DimensionMismatch("B must have as many columns as S")
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
        """Solve S x + B^T mult = rhs_primal, B x = rhs_constraint."""
        rp = as_vector(rhs_primal, self.n, "rhs_primal")
        rc = as_vector(rhs_constraint, self.m, "rhs_constraint")
        sol = self._lu.solve(np.concatenate([rp, rc]))
        return sol[: self.n], sol[self.n :]


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
