"""Exponential time integration schemes for constrained parabolic systems.

The semidiscrete problem is

    M u'(t) + A u(t) + B^T lambda(t) = f(t, u),      B u(t) = g(t),

with M symmetric positive definite, B of full row rank and A invertible
on the kernel of B.  Every scheme is an exponential integrator in
phi-form: a step over a duration t maps z on ker B and loads b_1, b_2 to

    E(t) z + Phi_1(t) b_1 + Phi_2(t) b_2,
    E(t) = exp(t X),   Phi_k(t) = Z t phi_k(t X_K) M_K^{-1} Z^T,

with X the generator of the homogeneous constrained flow (notation of
``flow.step_maps``), and adds the lift of g at the new time.
``_propagate`` evaluates that sum as one ``flow.flow``: on a system with
at most ``MAPPED_FLOW_MAX_N`` unknowns through the dense maps of the
duration, which the system's operator builds on first need and keeps,
and otherwise as a Krylov flow.  ``_exponential_step`` runs the
exponential Euler step and the second-order family through it.  Every
lift is the product L g with the n x m matrix
L = [lift(e_1) ... lift(e_m)], and every load M lift(g') the product of
g' with the n x m matrix M L, both built on first use
(``ConstrainedSystem.lift_map`` and ``mass_lift_map``).  A step
evaluates g once at each time it needs, and its consistency check
reuses g(t_{n+1}).

Discrete right-hand-side convention: ``f(t, x)`` returns a load vector
(already mass weighted), while constraint lifts are coefficient
vectors.  Whenever a lift is subtracted from f inside a saddle
right-hand side it is therefore multiplied by M first, and Phi_k takes
a load to a coefficient vector through the mass solve M_K^{-1}.  This
is the unique pairing under which the discrete scheme is the Galerkin
image of the continuous one.
"""

from __future__ import annotations

import functools
import logging
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    InconsistentInitialData,
    NonFinite,
)
from .flow import DEFAULT_TOL, DaeOperator, flow as krylov_flow
from .linalg import SaddleFactorization, as_vector, canonical_csr, require_spd, spmv

__all__ = [
    "ConstrainedSystem",
    "StepState",
    "SchemeConfig",
    "SCHEME_IDS",
    "lift_constraint",
    "kernel_solve",
    "exponential_euler_step",
    "second_order_step",
    "second_order_family_step",
    "alt_euler_step",
    "integrate",
    "step_count",
    "Diagnostics",
    "save_trajectory_csv",
    "save_trajectory_binary",
]

log = logging.getLogger(__name__)

SCHEME_IDS = ("exp-euler", "second-order", "second-order-family", "alt-euler")

CONSISTENCY_RTOL = 1e-9

# Systems with at most this many unknowns propagate through the dense step
# maps of each duration (``DaeOperator.hold_maps``), built on first need and
# kept.  On nonsym (one OpenBLAS thread, 2-vCPU VM), building the maps of one
# duration took 3.8-4.1 ms at n = 128 and 21-29 ms at n = 256, against
# 0.73-0.80 ms and 1.6-1.9 ms for one second-order Krylov step at
# tau = 1/2560, so they pay for themselves within some 6 and 15 steps.  A
# mapped second-order step then takes 68-71 us at n = 128 and 94-99 us at
# n = 256 (best of 9 runs of 160 steps, same host), of which its three dense
# products are some 8 us at n = 128.  The maps hold 3 n^2 doubles per
# duration, 1.5 MB at n = 256.
MAPPED_FLOW_MAX_N = 256


def step_count(span: float, tau: float) -> int:
    """Whole number n of steps of ``tau`` in ``span``, the one grid rule of the package.

    Raises ``ValueError`` (a configuration error) unless ``tau`` is finite
    and positive, ``span`` finite and nonnegative, ``span / tau`` finite
    and |n tau - span| <= 1e-9 tau.
    """
    if not (math.isfinite(tau) and tau > 0.0):
        raise ValueError(f"step {tau!r} must be finite and positive")
    if not (math.isfinite(span) and span >= 0.0):
        raise ValueError(f"span {span!r} must be finite and nonnegative")
    ratio = span / tau
    if not math.isfinite(ratio):
        raise ValueError(f"span {span!r} / step {tau!r} overflows")
    n = int(round(ratio))
    if abs(n * tau - span) > 1e-9 * tau:
        raise ValueError(f"span {span!r} is not a whole number of steps {tau!r}")
    return n


class ConstrainedSystem:
    """Semidiscrete constrained parabolic system (M, A, B, f, g).

    Parameters
    ----------
    mass, stiffness : sparse matrices, n x n
        M must be symmetric positive definite (verified by a banded
        Cholesky factorization); A only needs to be invertible on ker B.
    constraint : sparse matrix, m x n
        Full row rank (verified through the saddle factorization).
    forcing : callable (t, x) -> load vector of length n
    constraint_rhs, constraint_rate : callable t -> vector of length m
        g and its analytic time derivative.  No finite-difference
        fallback is offered: a hidden O(tau) error in g' would corrupt
        the observed orders.
    h1_form : sparse matrix, optional
        SPD form used by the discrete H1 norm (stiffness + mass blocks).

    ``mass``, ``stiffness`` and ``constraint`` are the matrices of
    ``flow_op``, the ``DaeOperator`` that holds them in canonical form,
    checks their shapes and factorizes the mass saddle matrix; the
    stiffness saddle factorization is built here.  Each step forms every
    lift it needs as L g, with the dense n x m lift matrix
    L = [lift_constraint(e_1) ... lift_constraint(e_m)] (``lift_map``), and
    each load M lift(g') as (M L) g' (``mass_lift_map``); no lift is
    carried from one step to the next.  The steps project with
    ``flow_op.project`` (x - W (B x), see ``DaeOperator``).  L and
    W are built on first use, each from m saddle solves, and kept; both
    are deterministic, so a run on a system whose maps are built gives
    the same bits as a run on a fresh one.

    On a system with at most ``MAPPED_FLOW_MAX_N`` unknowns the first
    propagation over each step duration has ``flow_op`` build the dense
    step maps of that duration (``DaeOperator.hold_maps``), and every
    propagation over it, in any scheme and any later ``integrate`` on
    this system, is then up to three products with them instead of a
    Krylov flow (``_propagate``).  No maps are built before the first
    step.
    """

    def __init__(
        self,
        mass,
        stiffness,
        constraint,
        forcing,
        constraint_rhs,
        constraint_rate,
        h1_form=None,
    ):
        require_spd(mass, name="mass matrix")
        # Both factorizations are reused for every step; building them
        # here also validates the shapes and rank assumptions once and for all.
        self.flow_op = op = DaeOperator(mass, stiffness, constraint)
        self.mass, self.stiffness, self.constraint = op.mass, op.stiffness, op.constraint
        self.n, self.m = op.n, op.m
        self.h1_form = canonical_csr(h1_form) if h1_form is not None else None
        if self.h1_form is not None and self.h1_form.shape != (self.n, self.n):
            raise DimensionMismatch("h1_form shape does not match mass")
        self._forcing = forcing
        self._g = constraint_rhs
        self._gdot = constraint_rate
        self.stiffness_saddle = SaddleFactorization(self.stiffness, self.constraint)
        self._zero_dual = np.zeros(self.m)

    def load(self, t: float, x) -> np.ndarray:
        return _finite(self._forcing(t, x), self.n, "forcing", t)

    def g(self, t: float) -> np.ndarray:
        """g(t); a non-finite entry raises ``NonFinite`` naming ``constraint_rhs``."""
        return _finite(self._g(t), self.m, "constraint_rhs", t)

    def gdot(self, t: float) -> np.ndarray:
        """g'(t); a non-finite entry raises ``NonFinite`` naming ``constraint_rate``."""
        return _finite(self._gdot(t), self.m, "constraint_rate", t)

    def constraint_residual(self, t: float, u) -> float:
        """Relative defect |B u - g(t)| / (1 + |g(t)|)."""
        return _relative_defect(self, u, self.g(t))

    @functools.cached_property
    def lift_map(self) -> np.ndarray:
        """L = [lift_constraint(e_1) ... lift_constraint(e_m)], built on first use."""
        L = np.empty((self.n, self.m))
        for i, e in enumerate(np.eye(self.m)):
            L[:, i] = lift_constraint(self, e)
        return L

    @functools.cached_property
    def mass_lift_map(self) -> np.ndarray:
        """M L, the dense n x m matrix that takes g' to the load M lift(g')."""
        return self.mass @ self.lift_map


def _relative_defect(sys, u, gval) -> float:
    """|B u - gval| / (1 + |gval|), ``constraint_residual`` with g(t) already evaluated."""
    defect = spmv(sys.constraint, u) - gval
    return math.sqrt(defect.dot(defect)) / (1.0 + math.sqrt(gval.dot(gval)))


def _finite(value, length, name, t) -> np.ndarray:
    """``value`` of callback ``name`` at t as a vector, checked for finiteness.

    The test is one sum, with the entrywise scan only when the sum is
    not finite (a finite vector whose sum overflows, for which numpy
    warns about the overflow).
    """
    v = as_vector(value, length, f"{name} value")
    if not (math.isfinite(v.sum()) or np.isfinite(v).all()):
        raise NonFinite(f"{name} returned non-finite values at t={t}")
    return v


@dataclass
class StepState:
    """Approximation at one time level, with what the next step can reuse.

    ``flow_bases`` holds the accepted Krylov basis size of each flow of
    the step that produced this state, in call order, with 0 for a flow
    that took more than one substep or went through dense maps; the next step
    starts the error checks of its flow in the same slot there (see
    ``flow``'s ``basis_hint``).  It is empty for an initial state, whose
    step runs the cold check schedule.
    """

    t: float
    u: np.ndarray
    flow_bases: tuple[int, ...] = ()


@dataclass(frozen=True)
class SchemeConfig:
    """Scheme selection and flow tolerance for :func:`integrate` and the steps.

    ``c2`` places the stage of the second-order family and ``theta`` is
    the constraint blend of the alternative scheme; the other schemes
    ignore both.
    """

    scheme: str = "exp-euler"
    c2: float = 1.0
    theta: float = 1.0
    flow_tol: float = DEFAULT_TOL

    def __post_init__(self):
        if self.scheme not in SCHEME_IDS:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {SCHEME_IDS}")
        if not (math.isfinite(self.c2) and self.c2 > 0.0):
            raise ValueError(f"c2 must be finite and positive, got {self.c2!r}")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")
        if not (math.isfinite(self.flow_tol) and self.flow_tol > 0.0):
            raise ValueError(f"flow_tol must be finite and positive, got {self.flow_tol!r}")


@dataclass
class Diagnostics:
    """Per-integration bookkeeping."""

    steps: int = 0
    constraint_residuals: list = field(default_factory=list)
    max_constraint_residual: float = 0.0
    repairs: int = 0
    rhs_evaluations: int = 0
    flow_substeps: int = 0
    flow_checks: int = 0
    arnoldi_steps: int = 0
    max_basis_size: int = 0
    mapped_flows: int = 0

    def record_flow(self, result):
        self.flow_substeps += result.substeps
        self.flow_checks += result.checks
        self.arnoldi_steps += result.arnoldi_steps
        self.max_basis_size = max(self.max_basis_size, result.basis_size)
        self.mapped_flows += result.mapped

    def record_residual(self, res):
        self.constraint_residuals.append(res)
        self.max_constraint_residual = max(self.max_constraint_residual, res)


def lift_constraint(sys: ConstrainedSystem, rhs_g) -> np.ndarray:
    """A-orthogonal lift of constraint data into the state space.

    Solves A x + B^T nu = 0, B x = rhs_g; the result satisfies the
    constraint exactly (up to solver accuracy) and <A x, w> = 0 for all
    w in ker B, which makes it the discrete right-inverse of B used
    throughout the schemes.
    """
    rhs_g = as_vector(rhs_g, sys.m, "constraint data")
    x, _ = sys.stiffness_saddle.solve(np.zeros(sys.n), rhs_g)
    return x


def kernel_solve(sys: ConstrainedSystem, load) -> np.ndarray:
    """Solve the stationary operator on ker B: A w + B^T nu = load, B w = 0.

    No step makes this solve: ``_propagate`` passes its loads to the flow.
    """
    load = as_vector(load, sys.n, "load")
    w, _ = sys.stiffness_saddle.solve(load, sys._zero_dual)
    return w


def _finish_step(sys, t1, u1, lift_g1, g1, diag):
    """Consistency check with kernel-projection repair on violation; g1 is g(t1)."""
    res = _relative_defect(sys, u1, g1)
    if res > CONSISTENCY_RTOL:
        log.warning(
            "constraint residual %.3e above tolerance at t=%.6g; reprojecting", res, t1
        )
        u1 = lift_g1 + sys.flow_op.project(u1 - lift_g1)
        diag.repairs += 1
        res = _relative_defect(sys, u1, g1)
    diag.record_residual(res)
    return u1


def _propagate(sys, t, z, load, slope, config, diag, state, slot):
    """E(t) z + Phi_1(t) load + Phi_2(t) slope on ker B, and the basis to record.

    A term that is None is dropped.  The sum is one flow with the loads
    (``flow``), called through the module name ``krylov_flow``.  On a
    system with n <= ``MAPPED_FLOW_MAX_N`` the operator first builds the
    maps of duration t if it does not hold them.  Over a duration whose
    maps the operator holds, the flow is up to three dense products
    (the maps are projected onto ker B when built), and the basis to
    record is 0.  Otherwise it is a
    Krylov flow, which makes one saddle solve per Arnoldi step and no
    other; it is warm-started from flow ``slot`` of the step that made
    ``state``, and the basis to record in that slot of the next state's
    ``flow_bases`` is the accepted one, or 0 if the flow took more than
    one substep.
    """
    if sys.n <= MAPPED_FLOW_MAX_N:
        sys.flow_op.hold_maps(t)
    x0 = np.zeros(sys.n) if z is None else z
    loads = (load,) if slope is None else (load, slope)
    bases = state.flow_bases
    hint = bases[slot] if slot < len(bases) and bases[slot] > 0 else None
    result = krylov_flow(
        sys.flow_op, x0, t, tol=config.flow_tol, basis_hint=hint, loads=loads
    )
    diag.record_flow(result)
    return result.state, result.basis_size if result.substeps == 1 else 0


def _exponential_step(sys, state, tau, c2, config, diag, *, stage_only=False):
    """One step of the exponential schemes, with its stage at t_n + c2 tau.

    With l(t, u) = f(t, u) - M lift(g'(t)), l_0 = l(t_n, u_n) and
    z_0 = u_n - lift(g_n), the stage is an exponential Euler step of
    length c2 tau,

        u_s = lift(g(t_n + c2 tau)) + E(c2 tau) z_0 + Phi_1(c2 tau) l_0.

    The first-order scheme is this stage at c2 = 1 (``stage_only``).
    The second-order schemes go on with the slope
    d = (l(t_n + c2 tau, u_s) - l_0) / c2,

        u_{n+1} = lift(g_{n+1}) + E(tau) z_0 + Phi_1(tau) l_0 + Phi_2(tau) d,

    which at c2 = 1 is u_s + Phi_2(tau) d.  Every term goes through
    ``_propagate``.  For c2 < 1 the division amplifies the round-off of
    the stage in d, and what overflows is named by c2: the step runs
    with numpy's overflow warnings off, a slope whose squared norm
    overflows raises ``NonFinite``, and so does any non-finite value of
    the step, also in the load of a state that an earlier step at this
    c2 blew up.
    """
    diag = Diagnostics() if diag is None else diag
    if c2 >= 1.0:
        return _stage_and_slope(sys, state, tau, c2, config, diag, stage_only)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return _stage_and_slope(sys, state, tau, c2, config, diag, stage_only)
        except NonFinite as exc:
            raise NonFinite(f"{exc} at c2 = {c2!r} (t = {state.t})") from exc


def _stage_and_slope(sys, state, tau, c2, config, diag, stage_only):
    """The body of ``_exponential_step``."""
    t0, t1 = state.t, state.t + tau
    t_stage = t0 + c2 * tau  # t1 itself at c2 = 1
    lift, mass_lift = sys.lift_map, sys.mass_lift_map
    load0 = sys.load(t0, state.u) - mass_lift @ sys.gdot(t0)
    z0 = state.u - lift @ sys.g(t0)
    z_stage, basis0 = _propagate(sys, c2 * tau, z0, load0, None, config, diag, state, 0)
    g_stage = sys.g(t_stage)
    lift_g_stage = lift @ g_stage
    u_stage = lift_g_stage + z_stage
    if stage_only:
        diag.rhs_evaluations += 1
        u1 = _finish_step(sys, t1, u_stage, lift_g_stage, g_stage, diag)
        return StepState(t1, u1, flow_bases=(basis0,))

    load_stage = sys.load(t_stage, u_stage) - mass_lift @ sys.gdot(t_stage)
    diag.rhs_evaluations += 2
    slope = (load_stage - load0) / c2
    if c2 == 1.0:  # u_s already holds lift(g_{n+1}) + E(tau) z_0 + Phi_1(tau) l_0
        g1, lift_g1, base, z0, load0 = g_stage, lift_g_stage, u_stage, None, None
    else:
        g1 = sys.g(t1)
        lift_g1 = base = lift @ g1
    if c2 < 1.0 and not math.isfinite(slope.dot(slope)):
        raise NonFinite("stage slope (l(t_n + c2 tau) - l_0) / c2 overflows")
    z_end, basis1 = _propagate(sys, tau, z0, load0, slope, config, diag, state, 1)
    u1 = _finish_step(sys, t1, base + z_end, lift_g1, g1, diag)
    return StepState(t1, u1, flow_bases=(basis0, basis1))


def exponential_euler_step(
    sys: ConstrainedSystem,
    state: StepState,
    tau: float,
    config: SchemeConfig = SchemeConfig(),
    diag: Diagnostics | None = None,
) -> StepState:
    """One step of the first-order exponential scheme: the stage at c2 = 1."""
    return _exponential_step(sys, state, tau, 1.0, config, diag, stage_only=True)


def second_order_step(
    sys: ConstrainedSystem,
    state: StepState,
    tau: float,
    config: SchemeConfig = SchemeConfig(),
    diag: Diagnostics | None = None,
) -> StepState:
    """One step of the second-order scheme: the family member with c2 = 1."""
    return _exponential_step(sys, state, tau, 1.0, config, diag)


def second_order_family_step(
    sys: ConstrainedSystem,
    state: StepState,
    tau: float,
    config: SchemeConfig = SchemeConfig(),
    diag: Diagnostics | None = None,
) -> StepState:
    """One step of the second-order family, with its stage at t_n + ``config.c2`` tau."""
    return _exponential_step(sys, state, tau, config.c2, config, diag)


def alt_euler_step(
    sys: ConstrainedSystem,
    state: StepState,
    tau: float,
    config: SchemeConfig = SchemeConfig(),
    diag: Diagnostics | None = None,
) -> StepState:
    """One step of the alternative first-order scheme, with theta = ``config.theta``.

    With g_b the theta-blend of g_n and g_{n+1} and z = u_n - lift(g_b),
    projected onto ker B first if the blend made it inconsistent, the
    step is u_{n+1} = lift(g_b) + E(tau) z + Phi_1(tau) f_n
    (``_propagate``).  theta = 0 enforces the constraint at t_{n+1},
    theta = 1 keeps the flow initial value consistent instead; no
    consistency repair is applied because the residual is the scheme's
    own theta-controlled behavior.
    """
    diag = Diagnostics() if diag is None else diag
    t0, t1 = state.t, state.t + tau
    g0, g1 = sys.g(t0), sys.g(t1)
    g_blend = config.theta * g0 + (1.0 - config.theta) * g1
    f0 = sys.load(t0, state.u)
    diag.rhs_evaluations += 1
    lift_blend = sys.lift_map @ g_blend
    z = state.u - lift_blend
    if sys.flow_op.constraint_defect(z) > 1e-12 * (1.0 + np.linalg.norm(z)):
        z = sys.flow_op.project(z)
    z_end, basis = _propagate(sys, tau, z, f0, None, config, diag, state, 0)
    u1 = lift_blend + z_end
    diag.record_residual(_relative_defect(sys, u1, g1))
    return StepState(t1, u1, flow_bases=(basis,))


def integrate(
    sys: ConstrainedSystem,
    config: SchemeConfig,
    u0,
    t0: float,
    t_end: float,
    tau: float,
    snapshot_stride: int = 1,
) -> tuple[list[StepState], Diagnostics]:
    """March from t0 to t_end on the uniform grid with step tau.

    The step count is ``step_count(t_end - t0, tau)``, step k ends at
    t0 + k tau (a step computes its new time as state.t + tau, within
    round-off of that grid time, and ``integrate`` then puts the state
    on the grid), and u0 must satisfy B u0 = g(t0).  The
    returned trajectory holds every ``snapshot_stride``-th state (plus
    the final one); pass 1 to keep all steps.
    """
    if snapshot_stride < 1:
        raise ValueError("snapshot_stride must be a positive integer")
    nsteps = step_count(t_end - t0, tau)

    u0 = as_vector(u0, sys.n, "u0")
    if not np.isfinite(u0).all():
        raise NonFinite("initial value u0 has non-finite entries")
    initial_residual = sys.constraint_residual(t0, u0)
    if initial_residual > CONSISTENCY_RTOL:
        raise InconsistentInitialData(
            f"|B u0 - g(t0)| relative residual {initial_residual:.3e} exceeds "
            f"{CONSISTENCY_RTOL:.1e}"
        )

    diag = Diagnostics()
    # Looked up per call, so that a wrapper put on a step function applies.
    step = {
        "exp-euler": exponential_euler_step,
        "second-order": second_order_step,
        "second-order-family": second_order_family_step,
        "alt-euler": alt_euler_step,
    }[config.scheme]
    state = StepState(t0, u0.copy())
    trajectory = [state]
    for k in range(1, nsteps + 1):
        state = step(sys, state, tau, config, diag)
        state.t = t0 + k * tau
        if not np.isfinite(state.u).all():
            raise NonFinite(f"state became non-finite at t={state.t}")
        if k % snapshot_stride == 0 or k == nsteps:
            trajectory.append(state)
    diag.steps = nsteps
    return trajectory, diag


def save_trajectory_csv(trajectory, diagnostics, path) -> None:
    """Write step index, time, constraint residual and state norm per row.

    Row k is step k, so the trajectory must hold every step
    (``snapshot_stride=1``); otherwise a ``ValueError`` is raised before
    the file is opened.
    """
    residuals = diagnostics.constraint_residuals
    if len(trajectory) != len(residuals) + 1:
        raise ValueError(f"{len(trajectory)} states for {len(residuals)} steps: strided")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("step,t,constraint_residual,solution_norm\n")
        for k, state in enumerate(trajectory):
            res = 0.0 if k == 0 else residuals[k - 1]
            fh.write(
                f"{k},{state.t:.17g},{res:.17g},{np.linalg.norm(state.u):.17g}\n"
            )


def save_trajectory_binary(trajectory, path) -> None:
    """Dump all states as flat little-endian float64 after an (n, count) header."""
    count = len(trajectory)
    n = trajectory[0].u.shape[0] if count else 0
    with open(path, "wb") as fh:
        fh.write(struct.pack("<qq", n, count))
        for state in trajectory:
            fh.write(np.ascontiguousarray(state.u, dtype="<f8").tobytes())
