"""Krylov evaluation of the homogeneous constrained flow.

The linear DAE

    M z'(t) + A z(t) + B^T mu(t) = 0,      B z(t) = 0

with consistent initial value has solution z(t) = exp(X t) z0 for a
(never formed) matrix X whose action is one saddle solve:

    M y + B^T mu = -A z0,   B y = 0   =>   y = X z0.

exp(X t) z0 is approximated in the Krylov subspace built by the Arnoldi
iteration, using the dense exponential of the small Hessenberg matrix.
Each shot runs its own loop of the one Arnoldi step, ``_arnoldi_extend``.
If the basis cap is reached before Saad's a-posteriori error estimate
meets the tolerance, the interval is halved recursively.  The accepted
result is projected back onto the kernel of B to kill round-off drift,
by the rank-m update x - W (B x) of ``DaeOperator.project``.

An Arnoldi step is one sparse product and one saddle solve, a few
microseconds of kernel each at the sizes of the benchmark problems.  So
the products of the Arnoldi step, the projection and the consistency
check go through ``linalg.spmv`` (the CSR kernel without SciPy's
dispatch), and their vector norms are sqrt(x . x), the same bits as
``np.linalg.norm`` for less overhead.

For a system small enough to hold dense n x n matrices, ``step_maps``
forms exp(X t) and the phi_1 and phi_2 maps of an exponential step
itself on ker B, so that the step needs no flow and no tolerance.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import InconsistentState, NoConvergence
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
    """Action of the constrained-flow generator via mass saddle solves.

    ``apply`` (one Arnoldi step) is one saddle solve with M.
    ``project`` is the M-orthogonal projection onto ker B as the rank-m
    update x - W (B x), with the dense n x m matrix
    W = M^{-1} B^T (B M^{-1} B^T)^{-1}.  W is built on the first
    projection from m ``kernel_project`` solves, as W = Y - P(Y)
    for the right inverse Y = B^+ of B.

    The matrices and the factorization are fixed at construction; W is
    the one thing filled in later.  It is deterministic, so a projection
    gives the same bits whether W was just built or reused, and
    concurrent flow evaluations against one operator are safe: each owns
    its basis storage, and two first projections at once build the same W.
    """

    def __init__(self, mass, stiffness, constraint):
        self.stiffness = canonical_csr(stiffness)
        self._saddle = SaddleFactorization(mass, constraint)
        if self.stiffness.shape != (self._saddle.n, self._saddle.n):
            raise ValueError("stiffness shape does not match mass/constraint")
        self.n = self._saddle.n
        self.m = self._saddle.m
        self._neg_stiffness = -self.stiffness
        self._zero_dual = np.zeros(self.m)
        self._projector = None  # W, built by the first project()

    @property
    def mass(self):
        return self._saddle.S

    @property
    def constraint(self):
        return self._saddle.B

    def apply(self, x0) -> np.ndarray:
        """y = X x0, i.e. solve M y + B^T mu = -A x0, B y = 0."""
        y, _ = self._saddle.solve(spmv(self._neg_stiffness, x0), self._zero_dual)
        return y

    def project(self, x) -> np.ndarray:
        """Mass-orthogonal projection onto the kernel of B: x - W (B x)."""
        x = as_vector(x, self.n, "x")
        if self._projector is None:
            self._projector = self._build_projector()
        return x - self._projector @ spmv(self.constraint, x)

    def _build_projector(self) -> np.ndarray:
        # P(Y) = Y - W B Y = Y - W for any Y with B Y = I.
        Y = np.linalg.pinv(self.constraint.toarray())
        W = np.empty((self.n, self.m), order="F")
        for i in range(self.m):
            W[:, i] = Y[:, i] - kernel_project(self._saddle, Y[:, i])
        return W

    def constraint_defect(self, x) -> float:
        defect = spmv(self.constraint, x)
        return math.sqrt(defect.dot(defect))


def _arnoldi_extend(op, V, H, j, sumsq):
    """Arnoldi step j + 1: fill column j of H and normalize v_{j+2} into V[j + 1].

    Classical Gram-Schmidt with a single refinement pass on the basis
    rows V[:j+1].  ``sumsq`` is the squared Frobenius norm of the
    finished entries of H before the step.  Returns (h_next, sumsq,
    breakdown): the subdiagonal entry h_{j+2,j+1}, the updated sum, and
    whether the step is a happy breakdown, h_next at round-off relative
    to the Frobenius norm of H_{j+1}.  After a breakdown h_next is not
    added to the sum, and the basis must not be extended further.
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
    """Single Krylov approximation of exp(X dt) x0.

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
    r_cap = min(BASIS_CAP, op.n)
    V = np.empty((r_cap + 1, op.n))  # one basis vector per row
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


def _flow_recursive(op, x0, dt, tol, budget, depth, basis_hint=None):
    """Flow over dt, halving the interval when a shot exhausts the cap.

    Returns a ``KrylovFlowResult`` whose state is not yet projected.
    Only the shot over the whole interval uses ``basis_hint``: it makes
    its first check at ``basis_hint - 1``.  The halves start cold at r = 1.
    """
    if budget[0] <= 0:
        raise NoConvergence("flow substep limit exceeded")
    if depth > 16:
        raise NoConvergence("flow interval-halving recursion too deep")
    beta = math.sqrt(x0.dot(x0))
    if beta == 0.0:
        budget[0] -= 1
        return KrylovFlowResult(x0.copy(), 0, 0.0, 1)
    first_check = 1 if basis_hint is None else max(1, basis_hint - 1)
    checks, steps, shot = _krylov_shot(op, x0, beta, dt, tol, first_check)
    if shot is not None:
        state, r, estimate = shot
        budget[0] -= 1
        return KrylovFlowResult(state, r, estimate, 1, checks, steps)
    half = (dt / 2, tol / 2, budget, depth + 1)
    a = _flow_recursive(op, x0, *half)
    b = _flow_recursive(op, a.state, *half)
    return KrylovFlowResult(
        b.state,
        max(a.basis_size, b.basis_size),
        a.residual_estimate + b.residual_estimate,
        a.substeps + b.substeps,
        checks + a.checks + b.checks,
        steps + a.arnoldi_steps + b.arnoldi_steps,
    )


def flow(
    op: DaeOperator,
    x0,
    t: float,
    tol: float = DEFAULT_TOL,
    basis_hint: int | None = None,
) -> KrylovFlowResult:
    """Approximate exp(X t) x0 for the homogeneous constrained system.

    ``x0`` must satisfy the constraint, |B x0| <= 1e-8 (1 + |x0|), the
    ``1 +`` as in ``constraint_residual``: an x0 that cancels to
    round-off, such as the flow input of a step from a steady state,
    passes.  ``tol`` bounds the estimated absolute error of the
    endpoint, summed over the substeps (the estimate carries the norm
    of x0 as a factor).  A shot that reaches the module constant
    ``BASIS_CAP`` halves its interval; a flow that needs more than
    ``SUBSTEP_LIMIT`` accepted substeps raises ``NoConvergence`` (a shot
    that fails at the cap uses none of that budget).  The endpoint is
    projected onto the kernel of B.

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
    if t == 0.0 or norm0 == 0.0:
        return KrylovFlowResult(x0.copy(), 0, 0.0, 0)

    r = _flow_recursive(op, x0, t, tol, [SUBSTEP_LIMIT], 0, basis_hint)
    return KrylovFlowResult(
        op.project(r.state),
        r.basis_size,
        r.residual_estimate,
        r.substeps,
        r.checks,
        r.arnoldi_steps,
    )


def _require_consistent(op, x0) -> float:
    """|x0|, after raising ``InconsistentState`` if |B x0| > 1e-8 (1 + |x0|)."""
    norm0 = math.sqrt(x0.dot(x0))
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
