"""Krylov evaluation of the constrained flow in phi-form.

The linear DAE

    M z'(t) + A z(t) + B^T mu(t) = 0,      B z(t) = 0

with consistent initial value has solution z(t) = exp(X t) z0 for a
(never formed) matrix X whose action is one saddle solve:

    M y + B^T mu = -A z0,   B y = 0   =>   y = X z0.

``flow`` approximates exp(X t) z0 + sum_k t phi_k(t X) S l_k, with S
the mass solve on ker B and l_1, ..., l_p loads, in the Krylov subspace
built by the Arnoldi iteration, using the dense exponential of the
small Hessenberg matrix.  The loads ride along as p extra coordinates
of the Arnoldi vectors, as in Niesen & Wright's phipm (ACM TOMS 38,
2012) and Sidje's Expokit (ACM TOMS 24, 1998), and an Arnoldi step is
still one saddle solve (``_PhiForm``).  A flow without loads is the
case p = 0, so every flow runs this one generator.  Each shot runs its
own loop of the one Arnoldi step, ``_arnoldi_extend``.  If the basis
cap is reached before Saad's a-posteriori error estimate meets the
tolerance, ``flow`` replaces the interval by its two halves, in one
loop over a stack of pending intervals; the load coordinates go on with
the state.  The accepted result is projected back onto the kernel of B
to kill round-off drift, by the rank-m update x - W (B x) of
``DaeOperator.project``.

An Arnoldi step is one sparse product and one saddle solve, a few
microseconds of kernel each at the sizes of the benchmark problems.  So
the Arnoldi step calls SciPy's CSC kernel on its bordered matrix
directly, the products of the projection and the consistency check go
through ``linalg.spmv`` (the CSR kernel without SciPy's dispatch), and
vector norms are sqrt(x . x), the same bits as ``np.linalg.norm`` for
less overhead.

For a system small enough to hold dense n x n matrices, ``step_maps``
forms exp(X t) and the phi_1 and phi_2 maps of an exponential step
itself on ker B, so that the step needs no flow and no tolerance.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.sparse._sparsetools import csc_matvec

from .errors import DimensionMismatch, InconsistentState, NoConvergence, NonFinite
from .linalg import SaddleFactorization, as_vector, canonical_csr, kernel_project, spmv
from .phi import expm

__all__ = [
    "DaeOperator",
    "KrylovFlowResult",
    "flow",
    "KernelReduction",
    "kernel_reduction",
    "StepMaps",
    "step_maps",
]

DEFAULT_TOL = 1e-10
BASIS_CAP = 60
SUBSTEP_LIMIT = 30
BREAKDOWN_RTOL = 1e-14
CONSISTENCY_RTOL = 1e-8


@dataclass(frozen=True)
class KrylovFlowResult:
    """Flow endpoint together with Arnoldi diagnostics.

    ``checks`` counts the error-estimate evaluations over all substeps,
    each one dense exponential of the Hessenberg matrix bordered to
    (r+1) x (r+1).  ``arnoldi_steps`` counts the Arnoldi steps over all
    shots, failed ones included, each one saddle solve.
    """

    state: np.ndarray
    basis_size: int
    residual_estimate: float
    substeps: int
    checks: int = 0
    arnoldi_steps: int = 0


class DaeOperator:
    """The matrices M, A and B of the constrained flow, and its mass saddle solves.

    The operator holds the canonical copies of the three matrices that
    the integrators use too.  ``apply`` is the saddle solve of one
    Arnoldi step, whose right-hand side the generator ``_PhiForm``
    forms: X x is ``apply(-A x)``.
    ``project`` is the M-orthogonal projection onto ker B as the rank-m
    update x - W (B x), with the dense n x m matrix
    W = M^{-1} B^T (B M^{-1} B^T)^{-1}.  W is built on the first
    projection from m ``kernel_project`` solves, as W = Y - P(Y)
    for the right inverse Y = B^+ of B.

    The matrices and the factorization are fixed at construction; W and
    the layouts of ``_bordered_layout`` are the things filled in later.
    They are deterministic, so a projection gives the same bits whether W
    was just built or reused, and concurrent flow evaluations against one
    operator are safe: each owns its basis storage, and two first
    projections at once build the same W.
    """

    def __init__(self, mass, stiffness, constraint):
        self.stiffness = canonical_csr(stiffness)
        self._saddle = SaddleFactorization(mass, constraint)
        self.n = self._saddle.n
        self.m = self._saddle.m
        if self.stiffness.shape != (self.n, self.n):
            raise DimensionMismatch("stiffness shape does not match mass/constraint")
        self.mass = self._saddle.S
        self.constraint = self._saddle.B
        self._zero_dual = np.zeros(self.m)
        self._bordered_layouts = {}

    def apply(self, rhs) -> np.ndarray:
        """y of the mass saddle solve M y + B^T mu = rhs, B y = 0."""
        y, _ = self._saddle.solve(rhs, self._zero_dual)
        return y

    def project(self, x) -> np.ndarray:
        """Mass-orthogonal projection onto the kernel of B: x - W (B x)."""
        x = as_vector(x, self.n, "x")
        return x - self._projector @ spmv(self.constraint, x)

    @functools.cached_property
    def _projector(self) -> np.ndarray:
        """W, built by the first ``project``."""
        # P(Y) = Y - W B Y = Y - W for any Y with B Y = I.
        Y = np.linalg.pinv(self.constraint.toarray())
        W = np.empty((self.n, self.m), order="F")
        for i in range(self.m):
            W[:, i] = Y[:, i] - kernel_project(self._saddle, Y[:, i])
        return W

    def _bordered_layout(self, p):
        """(indptr, indices, data) of -A in CSC, with room for p dense columns after it.

        The data is that of -A alone; appending the p columns, each of
        length n, gives the CSC matrix [-A, columns].  Built once per p.
        """
        layout = self._bordered_layouts.get(p)
        if layout is None:
            a = self.stiffness.tocsc()
            tail = a.indptr[-1] + self.n * np.arange(1, p + 1)
            indptr = np.concatenate((a.indptr, tail.astype(a.indptr.dtype)))
            rows = np.tile(np.arange(self.n, dtype=a.indices.dtype), p)
            layout = (indptr, np.concatenate((a.indices, rows)), -a.data)
            self._bordered_layouts[p] = layout
        return layout

    def constraint_defect(self, x) -> float:
        defect = spmv(self.constraint, x)
        return math.sqrt(defect.dot(defect))


class _PhiForm:
    """The flow generator, [[X, W], [0, J]] on (n + p)-vectors [x; c].

    With loads l_1, ..., l_p (None for a zero load) and flow time t, the
    k-th column of W is S l_k / t^(k-1) and J shifts c down by one
    entry.  The flow of this matrix from [x0; e_1] over t ends at
    [exp(t X) x0 + sum_k t phi_k(t X) S l_k; (1, t, ..., t^(p-1) / (p-1)!)]
    (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 2011, Thm 2.1).  With
    no loads (p = 0) it is X itself on n-vectors.

    ``apply`` forms the right-hand side -A x + sum_k c_k l_k / t^(k-1) as
    one sparse product with the bordered matrix [-A, l_1, ..., l_p / t^(p-1)],
    held in CSC so that the load columns are one block appended to the
    data of -A, and solves it with one ``DaeOperator.apply``; a zero
    right-hand side makes no solve, and ``shifts`` counts those steps.
    The image is written into one buffer that every call reuses, which
    is safe because ``_arnoldi_extend`` consumes it before the next call.
    """

    def __init__(self, op, loads, t):
        n, p = op.n, len(loads)
        indptr, indices, stiffness = op._bordered_layout(p)
        data = np.empty(len(stiffness) + n * p)
        data[: len(stiffness)] = stiffness
        columns = data[len(stiffness) :].reshape(p, n)
        for k, load in enumerate(loads):
            if load is None:
                columns[k] = 0.0
            else:
                np.divide(as_vector(load, n, "load"), t**k, out=columns[k])
        self._product = (n, n + p, indptr, indices, data)
        self.op, self.n, self.size = op, n, n + p
        self.shifts = 0
        self._image = np.empty(n + p)

    def apply(self, v) -> np.ndarray:
        n = self.n
        rhs = np.zeros(n)
        csc_matvec(*self._product, v, rhs)
        w = self._image
        if rhs[0] or rhs.any():  # the first entry settles most steps without a scan
            w[:n] = self.op.apply(rhs)
        else:
            w[:n] = 0.0
            self.shifts += 1
        if self.size > n:
            w[n] = 0.0
        if self.size > n + 1:  # skips an empty slice assignment, about 0.3 us
            w[n + 1 :] = v[n:-1]
        return w


def _arnoldi_extend(op, V, H, j, sumsq):
    """Arnoldi step j + 1: fill column j of H and normalize v_{j+2} into V[j + 1].

    ``op`` is the generator of the flow, a ``_PhiForm``.  Classical
    Gram-Schmidt with a single refinement pass on the basis rows
    V[:j+1].  ``sumsq`` is the squared Frobenius norm of the finished
    entries of H before the step.  Returns (h_next, sumsq, breakdown):
    the subdiagonal entry h_{j+2,j+1}, the updated sum, and whether the
    step is a happy breakdown, h_next at round-off relative to the
    Frobenius norm of H_{j+1}.  After a breakdown h_next is not added to
    the sum, and the basis must not be extended further.
    """
    w = op.apply(V[j])
    basis = V[: j + 1]
    # ndarray.dot: the same BLAS calls as @, with less dispatch per call.
    h = basis.dot(w)
    w -= h.dot(basis)
    h2 = basis.dot(w)
    w -= h2.dot(basis)
    column = H[: j + 1, j]
    column[:] = h + h2
    hnext = math.sqrt(w.dot(w))
    H[j + 1, j] = hnext
    if hnext > 0.0:
        np.divide(w, hnext, out=V[j + 1])
    sumsq += column.dot(column)
    breakdown = hnext <= BREAKDOWN_RTOL * max(math.sqrt(sumsq), 1.0)
    if not breakdown:
        sumsq += hnext * hnext
    return hnext, sumsq, breakdown


def _next_check(r, estimate, previous, tol):
    """Basis size of the next error check after a failed check at ``r``.

    Adaptive checkpointing after Niesen & Wright's phipm: while the
    estimate falls, extrapolate its log-linear decay since the previous
    failed check ``previous = (r', e')`` and check half way to ``tol``,
    at most doubling r; otherwise check after the next step.  A failed
    estimate exceeds ``tol > 0``, so both logarithms are finite.
    """
    if previous is not None and estimate < previous[1]:
        r_prev, e_prev = previous
        rate = (math.log(estimate) - math.log(e_prev)) / (r - r_prev)
        gap = 0.5 * (math.log(tol) - math.log(estimate)) / rate
        return r + max(1, int(min(gap, r)))
    return r + 1


def _krylov_shot(op, x0, beta, dt, tol, first_check=1):
    """Single Krylov approximation of exp(X dt) x0, X the generator ``op`` applies.

    The shot is a plain loop of ``_arnoldi_extend`` steps.  Each check
    is one ``expm`` of the bordered matrix [[dt H_r, e_1], [0, 0]]; for
    r >= 2 that matrix has a nonzero sub- and superdiagonal, so
    ``phi.expm`` takes SciPy's Pade kernels without the dispatch of
    ``scipy.linalg.expm``.  Its first column holds exp(dt H_r) e_1
    (the state) and its last holds phi_1(dt H_r) e_1.  The latter
    gives Saad's first-term estimate of the absolute endpoint error,
    beta dt |h_{r+1,r} [phi_1(dt H_r)]_{r,1}| (SIAM J. Numer. Anal. 29,
    1992).  Checks are made only at check points: r =
    ``first_check``, the points ``_next_check`` picks after a failed
    check, a happy breakdown and the basis cap.  Where the first check
    goes decides only how many exponentials and Arnoldi steps the shot
    spends: a basis is accepted only when its full estimate meets
    ``tol``.  Returns (checks, steps, shot) with ``checks`` the number
    of estimates evaluated, ``steps`` the number of Arnoldi steps and
    ``shot`` either (state, basis_size, estimate) or None when
    ``BASIS_CAP`` is exhausted before the error estimate meets ``tol``.
    """
    size = x0.shape[0]
    r_cap = min(BASIS_CAP, size)
    V = np.empty((r_cap + 1, size))  # one basis vector per row
    H = np.zeros((r_cap + 1, r_cap))
    V[0] = x0 / beta
    check, failed, checks, sumsq = first_check, None, 0, 0.0
    for j in range(r_cap):
        hnext, sumsq, breakdown = _arnoldi_extend(op, V, H, j, sumsq)
        r = j + 1
        if r < check and r < r_cap and not breakdown:
            continue
        checks += 1
        bordered = np.zeros((r + 1, r + 1))
        bordered[:r, :r] = dt * H[:r, :r]
        bordered[0, r] = 1.0
        E = expm(bordered)  # [[exp(dt H_r), phi_1(dt H_r) e_1], [0, 1]]
        estimate = 0.0 if breakdown else beta * dt * abs(hnext * E[r - 1, r])
        if breakdown or estimate <= tol:
            state = beta * (E[:r, 0] @ V[:r])
            return checks, r, (state, r, estimate)
        check = _next_check(r, estimate, failed, tol)
        failed = (r, estimate)
    return checks, r, None


def flow(
    op: DaeOperator,
    x0,
    t: float,
    tol: float = DEFAULT_TOL,
    basis_hint: int | None = None,
    loads=(),
) -> KrylovFlowResult:
    """Approximate exp(X t) x0 + sum_k t phi_k(t X) S loads[k-1] on ker B.

    S is the mass solve on ker B, so the k-th term is Phi_k(t) loads[k-1]
    (notation of ``step_maps``); a load of None is zero, and without
    loads this is the homogeneous flow exp(X t) x0.  Every flow runs
    the generator ``_PhiForm`` with the p = len(loads) loads as
    coordinates of its Arnoldi vectors, so the flow makes no solve
    beyond its Arnoldi steps.

    ``x0`` must satisfy the constraint, |B x0| <= 1e-8 (1 + |x0|), the
    ``1 +`` as in ``constraint_residual``: an x0 that cancels to
    round-off, such as the flow input of a step from a steady state,
    passes.  ``tol`` bounds the estimated absolute error of the
    endpoint, with the load coordinates, summed over the substeps (the
    estimate carries the norm of [x0; 1] as a factor).  A shot that
    reaches the module constant ``BASIS_CAP`` halves its interval; a
    flow that needs more than ``SUBSTEP_LIMIT`` accepted substeps
    raises ``NoConvergence`` (a shot that fails at the cap uses none of
    that budget).  The endpoint is projected onto the kernel of B.
    ``arnoldi_steps`` of the result counts saddle solves: an Arnoldi
    step on a vector with zero state and zero load is a pure shift of
    the load coordinates and makes none.

    ``basis_hint``, a positive integer such as the basis a similar flow
    accepted, moves the first error check of the shot over the whole
    interval to ``min(basis_hint - 1, cap)`` instead of 1; ``None``
    starts the check schedule cold.  Acceptance is unchanged, so a wrong
    hint costs Arnoldi steps or exponentials but never accuracy.

    A non-finite or negative ``t``, a ``tol`` that is not positive and a
    ``basis_hint`` that is not a positive integer (a bool is not) raise
    ``ValueError``.
    """
    x0 = as_vector(x0, op.n, "x0")
    if not math.isfinite(t):
        raise ValueError(f"flow time must be finite, got {t!r}")
    if t < 0:
        raise ValueError("flow time must be nonnegative")
    if not tol > 0:
        raise ValueError("flow tolerance must be positive")
    if basis_hint is not None and (
        isinstance(basis_hint, bool)
        or not isinstance(basis_hint, numbers.Integral)
        or basis_hint < 1
    ):
        raise ValueError(f"basis_hint must be a positive integer, got {basis_hint!r}")
    norm0 = _require_consistent(op, x0)
    loads = tuple(loads)
    if t == 0.0 or (norm0 == 0.0 and all(load is None for load in loads)):
        return KrylovFlowResult(x0.copy(), 0, 0.0, 0)

    generator = _PhiForm(op, loads, t)
    state = np.zeros(generator.size)  # [x0; e_1], or x0 alone without loads
    state[: op.n] = x0
    state[op.n : op.n + 1] = 1.0
    basis_size, estimate, substeps, checks, steps = 0, 0.0, 0, 0, 0
    first_check = 1 if basis_hint is None else max(1, basis_hint - 1)
    pending = [(t, tol, 0)]  # (duration, tolerance, depth), the next one last
    while pending:
        dt, dt_tol, depth = pending.pop()
        if substeps >= SUBSTEP_LIMIT:
            raise NoConvergence("flow substep limit exceeded")
        if depth > 16:
            raise NoConvergence("flow interval-halving recursion too deep")
        beta = math.sqrt(state.dot(state))
        if beta == 0.0:
            substeps += 1
            continue
        shot_checks, shot_steps, shot = _krylov_shot(
            generator, state, beta, dt, dt_tol, first_check
        )
        first_check = 1
        checks += shot_checks
        steps += shot_steps
        if shot is None:
            pending += [(dt / 2, dt_tol / 2, depth + 1)] * 2
            continue
        state, r, shot_estimate = shot
        basis_size = max(basis_size, r)
        estimate += shot_estimate
        substeps += 1
    state, steps = state[: op.n], steps - generator.shifts
    return KrylovFlowResult(op.project(state), basis_size, estimate, substeps, checks, steps)


def _require_consistent(op, x0) -> float:
    """|x0|, after raising ``NonFinite`` if it is not finite, or
    ``InconsistentState`` if |B x0| > 1e-8 (1 + |x0|)."""
    norm0 = math.sqrt(x0.dot(x0))
    if not math.isfinite(norm0):
        raise NonFinite(f"flow initial value x0 is not finite: |x0| = {norm0}")
    defect = op.constraint_defect(x0)
    if defect > CONSISTENCY_RTOL * (1.0 + norm0):
        raise InconsistentState(
            f"initial value violates constraint: |B x0| = {defect:.3e}, |x0| = {norm0:.3e}"
        )
    return norm0


@dataclass(frozen=True)
class KernelReduction:
    """The part of ``step_maps`` that does not depend on the step, from ``kernel_reduction``.

    ``basis`` is Z, ``generator`` is M_K^{-1} A_K = -X_K and ``kernel``
    is K = Z A_K^{-1} Z^T (notation of ``step_maps``).
    """

    basis: np.ndarray
    generator: np.ndarray
    kernel: np.ndarray


def kernel_reduction(op: DaeOperator) -> KernelReduction:
    """Z = ``null_space(B)``, M_K^{-1} A_K and K of ``step_maps``, for any step.

    One SVD of B, two reduced products and two dense solves; ``step_maps``
    of several steps on one operator can share them.
    """
    Z = scipy.linalg.null_space(op.constraint.toarray())
    mass_k = Z.T @ (op.mass @ Z)
    stiff_k = Z.T @ (op.stiffness @ Z)
    generator = np.linalg.solve(mass_k, stiff_k)
    kernel = Z @ np.linalg.solve(stiff_k, Z.T)
    return KernelReduction(Z, generator, kernel)


@dataclass(frozen=True)
class StepMaps:
    """Dense maps of one exponential step of duration ``tau``, from ``step_maps``.

    ``flow`` is E = exp(tau X) on ker B, and ``phi1`` and ``phi2`` are
    Z tau phi_k(tau X_K) M_K^{-1} Z^T for k = 1, 2 (notation of
    ``step_maps``), each an n x n array whose range is ker B.
    """

    tau: float
    flow: np.ndarray
    phi1: np.ndarray
    phi2: np.ndarray


def step_maps(op: DaeOperator, tau: float, reduction: KernelReduction) -> StepMaps:
    """The maps E, Phi_1 and Phi_2 of an exponential step of duration ``tau``.

    With Z an orthonormal basis of ker B, M_K = Z^T M Z, A_K = Z^T A Z,
    X_K = -M_K^{-1} A_K and K = Z A_K^{-1} Z^T (the kernel solve):

        E = Z exp(tau X_K) Z^T,
        Phi_1 = (I - E) K,
        Phi_2 = K + (E - I) K M K / tau.

    E x0 = exp(X tau) x0 for every consistent x0.  The step-independent
    part is ``reduction``, from ``kernel_reduction(op)``.  The rest is
    one dense exponential of the k x k generator, k = n - m, and a
    few dense products; time O(n^3) and memory a few dense n x n
    arrays, so this is for small systems only.
    """
    Z, kernel = reduction.basis, reduction.kernel
    flow_map = (Z @ expm(-tau * reduction.generator)) @ Z.T
    phi1 = kernel - flow_map @ kernel
    # (E - I) K M K = -Phi_1 M K
    phi2 = kernel - phi1 @ (op.mass @ kernel) / tau
    return StepMaps(tau, flow_map, phi1, phi2)
