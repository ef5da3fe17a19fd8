"""Evaluation of the constrained flow in phi-form: Krylov, or dense step maps.

The linear DAE

    M z'(t) + A z(t) + B^T mu(t) = 0,      B z(t) = 0

with consistent initial value has solution z(t) = exp(X t) z0 for a
matrix X whose action is one saddle solve:

    M y + B^T mu = -A z0,   B y = 0   =>   y = X z0.

``flow`` evaluates exp(X t) z0 + sum_k t phi_k(t X) S l_k, with S the
mass solve on ker B and l_1, ..., l_p loads, in one of two ways.

If the operator holds the dense step maps of the duration t
(``DaeOperator.hold_maps``), the sum is up to three matrix-vector
products with E(t), Phi_1(t) and Phi_2(t) (``step_maps``), which carry
no flow-tolerance error.  The maps are projected onto ker B when they
are built, so a mapped flow makes no projection of its own
(``_mapped_flow``).  The integrators give a system with at most
``integrators.MAPPED_FLOW_MAX_N`` unknowns the maps of each step
duration, and the harness gives a reference run those of its step.

Otherwise the sum is approximated in the Krylov subspace built by the
Arnoldi iteration, using the dense exponential of the small Hessenberg
matrix.  The loads ride along as p extra coordinates of the Arnoldi
vectors, as in Niesen & Wright's phipm (ACM TOMS 38, 2012) and Sidje's
Expokit (ACM TOMS 24, 1998), and an Arnoldi step is still one saddle
solve (``_PhiForm``): its right-hand side is formed from the p x n
array of the rows l_k / t^(k-1) and one ``linalg.spmv`` with A (the CSR
kernel without SciPy's dispatch).  A flow without loads is the case
p = 0, so every Krylov flow runs this one generator.  Each shot runs
its own loop of the one Arnoldi step, ``_arnoldi_extend``.  ``flow``
marches across the interval in substeps, each one shot over the rest of
it.  If the basis cap is reached before Saad's a-posteriori error
estimate meets the tolerance, the shot keeps that basis and takes the
largest substep it supports, as Expokit and phipm do: each trial
substep costs one dense exponential and no solve (``_shrink``).  The
state and the load coordinates advance by it, and the next shot starts
from there.

A Krylov result is projected back onto the kernel of B to kill
round-off drift, by the rank-m update x - W (B x) of
``DaeOperator.project``; ``step_maps`` applies the same update to each
column of the maps.  The products of the projection and the consistency
check go through
``linalg.spmv`` too, and vector norms are sqrt(x . x), the same bits
as ``np.linalg.norm`` for less overhead.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg

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
# Substeps per flow; the nonsym h=1/256 flow over tau = 0.05 takes about 60.
SUBSTEP_LIMIT = 128
BREAKDOWN_RTOL = 1e-14
CONSISTENCY_RTOL = 1e-8
# Expokit's safety factor 0.9 and the largest shrink of one trial of ``_shrink``.
_LOG_SAFETY = math.log(0.9)
_LOG_MAX_SHRINK = math.log(16.0)
_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class KrylovFlowResult:
    """Flow endpoint together with Arnoldi diagnostics.

    ``substeps`` counts the shots, each of which advances the flow.
    ``checks`` counts the error-estimate evaluations over all substeps,
    shrink trials included, each one dense exponential of the Hessenberg
    matrix bordered to (r+1) x (r+1).  ``arnoldi_steps`` counts the
    Arnoldi steps over all shots that apply the generator, each one
    saddle solve.  A flow through the operator's step maps is
    ``mapped``: one substep, basis 0, no check and no Arnoldi step.
    """

    state: np.ndarray
    basis_size: int
    residual_estimate: float
    substeps: int
    checks: int = 0
    arnoldi_steps: int = 0
    mapped: bool = False


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

    ``maps`` is the cache of step maps: a dict from a flow duration t to
    the ``StepMaps`` of t, three dense n x n arrays projected onto
    ker B, which ``flow`` then uses for every flow over t.  It starts
    empty; ``hold_maps`` fills it, building the step-independent
    ``kernel_reduction`` once per operator and W on the first build,
    and a caller drops an entry with ``maps.pop``.  The operator bounds
    nothing: it holds one entry per duration a caller asked for, until
    the caller drops it.

    The matrices and the factorization are fixed at construction; W,
    the reduction and the maps are the things filled in later.  They are
    deterministic, so a flow or a projection gives the same bits whether
    they were just built or reused, and two first uses at once build the
    same arrays.  Concurrent integrations on one operator therefore give
    the same bits as one at a time, as long as no caller drops maps that
    another is using: a flow over a duration whose maps were dropped
    takes the Krylov path, whose result differs at the flow tolerance.
    The library drops maps only in the harness, after each reference
    run and each rung of a study, and only the maps that run built, so
    an integration over such a step that runs beside a study may lose
    them.  Each Krylov flow owns its basis storage.
    """

    def __init__(self, mass, stiffness, constraint):
        self.stiffness = canonical_csr(stiffness)
        self._saddle = SaddleFactorization(canonical_csr(mass), canonical_csr(constraint))
        self.n = self._saddle.n
        self.m = self._saddle.m
        if self.stiffness.shape != (self.n, self.n):
            raise DimensionMismatch("stiffness shape does not match mass/constraint")
        self.mass = self._saddle.S
        self.constraint = self._saddle.B
        self._zero_dual = np.zeros(self.m)
        self.maps = {}

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

    @functools.cached_property
    def _reduction(self) -> KernelReduction:
        """``kernel_reduction`` of the operator, built by the first ``hold_maps``."""
        return kernel_reduction(self)

    def hold_maps(self, t: float) -> StepMaps:
        """The step maps of duration t, built on the first call and kept in ``maps``.

        ``t`` must be finite and positive (``ValueError``).  A build is
        one dense exponential of the (n - m) x (n - m) reduced generator
        and a few dense n x n products (``step_maps``).
        """
        maps = self.maps.get(t)
        if maps is None:
            if not (math.isfinite(t) and t > 0.0):
                raise ValueError(f"step maps need a finite positive duration, got {t!r}")
            maps = self.maps[t] = step_maps(self, t, self._reduction)
        return maps

    def constraint_defect(self, x) -> float:
        defect = spmv(self.constraint, x)
        return math.sqrt(defect.dot(defect))


class _PhiForm:
    """The flow generator, [[X, S C], [0, J]] on (n + p)-vectors [x; c].

    With loads l_1, ..., l_p (None for a zero load) and flow time t, the
    k-th column of C is l_k / t^(k-1), S is the mass solve on ker B and
    J shifts c down by one entry.  The generator holds C^T, the p x n
    array ``_columns``.  The flow of this matrix from [x0; e_1] over t
    ends at
    [exp(t X) x0 + sum_k t phi_k(t X) S l_k; (1, t, ..., t^(p-1) / (p-1)!)]
    (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 2011, Thm 2.1).  With
    no loads (p = 0) it is X itself on n-vectors.

    ``apply`` forms the right-hand side C c - A x by one product with
    the load array and one ``linalg.spmv`` with A, and solves it with
    one ``DaeOperator.apply``.  A zero right-hand side makes no solve:
    the step only shifts the load coordinates, and ``shifts`` counts
    those steps.  The image is written into one buffer of the flow that
    every call reuses, which is safe because ``_arnoldi_extend``
    consumes it before the next call.
    """

    def __init__(self, op, loads, t):
        n, p = op.n, len(loads)
        columns = np.empty((p, n))
        for k, load in enumerate(loads):
            load = _checked_load(op, load, k)
            if load is None:
                columns[k] = 0.0
            else:
                np.divide(load, t**k, out=columns[k])
        self.op, self.n, self.size, self._columns = op, n, n + p, columns
        self.shifts = 0
        self._image = np.empty(n + p)

    def apply(self, v) -> np.ndarray:
        n, w = self.n, self._image
        rhs = v[n:].dot(self._columns)
        rhs -= spmv(self.op.stiffness, v[:n])
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


def _checked_load(op, load, k):
    """Load k (from 0) of a flow as a vector of length n, or None for a zero load.

    A load that is not finite raises ``NonFinite`` naming it.
    """
    if load is None:
        return None
    load = as_vector(load, op.n, "load")
    if not np.isfinite(load).all():
        raise NonFinite(f"flow load {k + 1} is not finite")
    return load


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


def _bordered_expm(H, r, dt):
    """expm of [[dt H_r, e_1], [0, 0]], which is [[exp(dt H_r), phi_1(dt H_r) e_1], [0, 1]]."""
    bordered = np.zeros((r + 1, r + 1))
    bordered[:r, :r] = dt * H[:r, :r]
    bordered[0, r] = 1.0
    return expm(bordered)


def _no_convergence(why, t, left, r, estimate):
    return NoConvergence(
        f"{why} in a flow over t = {t:.6g} with {left:.6g} of it left: "
        f"basis {r} (cap {BASIS_CAP}), last error estimate {estimate:.3e}"
    )


def _krylov_shot(op, x0, beta, dt, tol, t, first_check=1):
    """Krylov approximation of exp(X dt') x0 for the largest dt' <= dt the basis supports.

    ``op`` is the generator ``_PhiForm``; ``dt`` is the rest of the flow
    time ``t``, and a substep of length dt' must meet the tolerance
    ``tol * dt' / t`` of the flow's ``tol`` (``tol`` itself over the
    whole flow, not ``tol * t / t``, which can differ in the last bit).

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
    spends: a basis is accepted only when its full estimate meets the
    tolerance.  A basis that reaches ``BASIS_CAP`` without meeting it
    is kept, and ``_shrink`` picks the substep dt' < dt it supports.

    Returns (checks, state, r, estimate, dt') with ``checks`` the number
    of estimates evaluated, shrink trials included, and r the basis
    size, which is also the number of Arnoldi steps.
    """
    size = x0.shape[0]
    r_cap = min(BASIS_CAP, size)
    V = np.empty((r_cap + 1, size))  # one basis vector per row
    H = np.zeros((r_cap + 1, r_cap))
    V[0] = x0 / beta
    shot_tol = tol if dt == t else tol * dt / t
    check, failed, checks, sumsq = first_check, None, 0, 0.0
    for j in range(r_cap):
        hnext, sumsq, breakdown = _arnoldi_extend(op, V, H, j, sumsq)
        r = j + 1
        if r < check and r < r_cap and not breakdown:
            continue
        checks += 1
        E = _bordered_expm(H, r, dt)
        estimate = 0.0 if breakdown else beta * dt * abs(hnext * E[r - 1, r])
        if breakdown or estimate <= shot_tol:
            break
        if r == r_cap:
            trials, dt, E, estimate = _shrink(H, r, hnext, beta, dt, estimate, tol, t)
            checks += trials
            break
        check = _next_check(r, estimate, failed, shot_tol)
        failed = (r, estimate)
    state = beta * (E[:r, 0] @ V[:r])
    return checks, state, r, estimate, dt


def _shrink(H, r, hnext, beta, dt, estimate, tol, t):
    """The substep dt' < dt that the capped basis H_r supports, after Expokit's rule.

    ``estimate`` at ``dt`` fails the tolerance.  Each trial dt' is one
    ``expm`` of the bordered matrix and no solve, and passes if its
    estimate meets tol * dt' / t.  The search runs on s = log dt' and
    g = log(estimate / (tol dt' / t)), which falls with s:

    - Until a trial passes, each steps down from the smallest failed one
      by Expokit's rule (Sidje, ACM TOMS 24, 1998), dt' <- 0.9 dt'
      (tol dt' / (t estimate))^(1/q), with q = r first and then the slope
      of g over the last two failed trials, kept within [1, r].  Where
      the estimate barely falls with dt' (a flat g), that slope makes
      the step larger than the rule with r would; no trial goes below a
      sixteenth of the failed one before it.
    - Once a trial passes, regula falsi between the largest pass and the
      smallest failure aims at g = log 0.9, kept to the inner 60 % of
      that bracket, until the failure is within a factor 1/0.9 of the
      pass, which is returned.

    So a capped substep takes a few trials: at most 13 until one passes
    (16^13 exceeds 1/eps) and 15 refinements (0.8^15 log 16 < -log 0.9).
    A trial below t * eps raises ``NoConvergence``.  Returns
    (trials, dt', E, estimate') with E the bordered exponential at dt'.
    """
    high = (math.log(dt), _log_ratio(estimate, tol * dt / t))
    previous = low = None
    trials = 0
    while True:
        if low is None:
            slope = r
            if previous is not None:
                slope = (high[1] - previous[1]) / (high[0] - previous[0])
                slope = min(max(slope, 1.0), r)
            s = high[0] - min(high[1] / slope - _LOG_SAFETY, _LOG_MAX_SHRINK)
        else:
            width = high[0] - low[0]
            s = low[0] + width * (_LOG_SAFETY - low[1]) / (high[1] - low[1])
            s = min(max(s, low[0] + 0.2 * width), high[0] - 0.2 * width)
        trial = math.exp(s)
        if trial < t * _EPS:
            raise _no_convergence(f"flow substep {trial:.3e} below t * eps", t, dt, r, estimate)
        trials += 1
        E_trial = _bordered_expm(H, r, trial)
        trial_estimate = beta * trial * abs(hnext * E_trial[r - 1, r])
        trial_tol = tol * trial / t
        if trial_estimate <= trial_tol:
            low = (s, _log_ratio(trial_estimate, trial_tol))
            dt_ok, E, estimate = trial, E_trial, trial_estimate
        else:
            previous, high = high, (s, _log_ratio(trial_estimate, trial_tol))
        if low is not None and high[0] - low[0] <= -_LOG_SAFETY:
            return trials, dt_ok, E, estimate


def _log_ratio(estimate, tolerance):
    """log(estimate / tolerance), kept finite for the search of ``_shrink``."""
    ratio = estimate / tolerance
    return max(-700.0, min(700.0, math.log(ratio))) if ratio > 0 else -700.0


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
    loads this is the homogeneous flow exp(X t) x0.

    If ``op.maps`` holds the maps of t (``DaeOperator.hold_maps``) and
    there are at most two loads, the sum is one dense product per
    nonzero term with maps whose range is the kernel of B, checked for
    finiteness (``NonFinite``, without numpy's warning); ``tol`` and
    ``basis_hint`` are checked but do not enter, and the result is
    ``mapped`` with one substep, basis 0, no check and no Arnoldi step.
    Otherwise the flow
    runs the Krylov generator ``_PhiForm`` with the p = len(loads) loads
    as coordinates of its Arnoldi vectors, so it makes no solve beyond
    its Arnoldi steps.  Both paths check x0 and the loads alike.

    ``x0`` must satisfy the constraint, |B x0| <= 1e-8 (1 + |x0|), the
    ``1 +`` as in ``constraint_residual``: an x0 that cancels to
    round-off, such as the flow input of a step from a steady state,
    passes.  ``tol`` bounds the estimated absolute error of the
    endpoint, with the load coordinates, summed over the substeps (the
    estimate carries the norm of [x0; 1] as a factor).  The flow
    marches over [0, t]: each substep is one shot over the rest of the
    interval, and a shot whose basis reaches the module constant
    ``BASIS_CAP`` keeps that basis and advances the state and the load
    coordinates by the largest part dt' of the rest whose estimate
    meets tol * dt' / t (``_shrink``).  A flow that needs more than
    ``SUBSTEP_LIMIT`` substeps, or a substep below t * eps, raises
    ``NoConvergence`` naming t, the time left, the basis and the last
    estimate.  The Krylov endpoint is projected onto the kernel of B.
    ``arnoldi_steps`` of the result counts the Arnoldi steps that apply
    the generator, each one saddle solve: a step whose state image is
    zero, such as one on a vector with zero state
    and zero load, is a pure shift of the load coordinates and counts
    as none.

    ``basis_hint``, a positive integer such as the basis a similar flow
    accepted, moves the first error check of the shot over the whole
    interval to ``min(basis_hint - 1, cap)`` instead of 1; ``None``
    starts the check schedule cold.  Acceptance is unchanged, so a wrong
    hint costs Arnoldi steps or exponentials but never accuracy.

    A non-finite or negative ``t``, a ``tol`` that is not positive and a
    ``basis_hint`` that is not a positive integer (a bool is not) raise
    ``ValueError``; a load that is not finite raises ``NonFinite``.
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
    maps = op.maps.get(t)
    if maps is not None and len(loads) <= 2:
        return _mapped_flow(op, maps, x0 if norm0 else None, loads)

    generator = _PhiForm(op, loads, t)
    state = np.zeros(generator.size)  # [x0; e_1], or x0 alone without loads
    state[: op.n] = x0
    state[op.n : op.n + 1] = 1.0
    basis_size, estimate, substeps, checks, steps = 0, 0.0, 0, 0, 0
    first_check = 1 if basis_hint is None else max(1, basis_hint - 1)
    left, r, shot_estimate = t, 0, 0.0
    while left > 0.0:
        beta = math.sqrt(state.dot(state))
        if beta == 0.0:  # the rest of the flow of zero is zero
            break
        if substeps >= SUBSTEP_LIMIT:
            raise _no_convergence(
                f"flow substep limit {SUBSTEP_LIMIT} reached", t, left, r, shot_estimate
            )
        shot_checks, state, r, shot_estimate, dt = _krylov_shot(
            generator, state, beta, left, tol, t, first_check
        )
        first_check = 1
        checks += shot_checks
        steps += r
        left = 0.0 if dt == left else left - dt
        basis_size = max(basis_size, r)
        estimate += shot_estimate
        substeps += 1
    state, steps = state[: op.n], steps - generator.shifts
    return KrylovFlowResult(op.project(state), basis_size, estimate, substeps, checks, steps)


def _mapped_flow(op, maps, x0, loads) -> KrylovFlowResult:
    """E x0 + Phi_1 loads[0] + Phi_2 loads[1] of ``maps``; None terms drop out.

    The maps map into ker B, so the sum needs no projection.  The
    products run with numpy's overflow warnings off, and a result that
    is not finite raises ``NonFinite``.
    """
    loads = [_checked_load(op, load, k) for k, load in enumerate(loads)]
    with np.errstate(over="ignore", invalid="ignore"):
        state = None if x0 is None else maps.flow.dot(x0)
        for phi_map, load in zip((maps.phi1, maps.phi2), loads):
            if load is None:
                continue
            if state is None:
                state = phi_map.dot(load)
            else:
                state += phi_map.dot(load)
        finite = np.isfinite(state).all()
    if not finite:
        raise NonFinite(f"mapped flow over t = {maps.tau:.6g} is not finite")
    return KrylovFlowResult(state, 0, 0.0, 1, mapped=True)


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
    ``step_maps``), each an n x n array whose range is ker B: every
    column is projected by the update of ``DaeOperator.project``, so
    |B map| is at round-off of |map|.
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
    arrays, so this is for small systems only.  Each map is returned
    projected onto ker B by the update a -= W (B a) of
    ``DaeOperator.project``, once per build instead of once per flow.
    """
    Z, kernel = reduction.basis, reduction.kernel
    flow_map = (Z @ expm(-tau * reduction.generator)) @ Z.T
    phi1 = kernel - flow_map @ kernel
    # (E - I) K M K = -Phi_1 M K
    phi2 = kernel - phi1 @ (op.mass @ kernel) / tau
    W = op._projector
    for a in (flow_map, phi1, phi2):
        a -= W @ (op.constraint @ a)
    return StepMaps(tau, flow_map, phi1, phi2)
