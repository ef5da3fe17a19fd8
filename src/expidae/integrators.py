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
and otherwise as a Krylov flow.  On a larger system the second flow of
a second-order step at c2 = 1, Phi_2(tau) d with zero state, goes
through the operator's column maps Phi_2(tau)[:, S] on the support S of
the slope d instead, one n x |S| product, once an ``integrate`` of at
least |S| steps has built them from |S| Krylov flows of unit loads
(``_hold_columns``).  ``_exponential_step`` runs the
exponential Euler step and the second-order family through it.  The
lift of a nonzero g is the product L g with the n x m matrix
L = [lift(e_1) ... lift(e_m)], and the load M lift(g') of a nonzero g'
the product of g' with the n x m matrix M L; L and M L are built at the
first nonzero g or g' (``ConstrainedSystem.lift_map`` and
``mass_lift_map``).  Zero data costs no product: its lift is the scalar
0.0, and the zero test is the norm of the finiteness check of g or g'
(``_checked``).  So a system whose g and g' vanish, such as ``dynbc``,
never builds L.  A step evaluates g once at each time it needs, and its
consistency check reuses g(t_{n+1}).

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
from .flow import DEFAULT_TOL, DaeOperator, StepMaps, flow as krylov_flow
from .linalg import (
    SaddleFactorization, as_vector, canonical_csr, finite_norm, kernel_project, norm2,
    relative_defect, require_spd,
)

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
# duration, 1.5 MB at n = 256.  Larger systems keep Krylov flows, except
# that an ``integrate`` of at least |S| steps gives the Phi_2 term of its
# second-order steps the column maps Phi_2(tau)[:, S] on the support S of
# the slope when |S|^2 <= n (``_hold_columns``): n |S| <= n^1.5 doubles,
# 0.25 MB on dynbc h=1/32 (n = 1023, |S| = 31).
MAPPED_FLOW_MAX_N = 256


def step_count(span: float, tau: float) -> int:
    """Whole number n of steps of ``tau`` in ``span``, the one grid rule of the package.

    Raises ``ValueError`` (a configuration error) unless ``tau`` is finite
    and positive, ``span`` finite and nonnegative, ``span / tau`` at most
    2**53 and |n tau - span| <= 1e-9 tau.  Above 2**53 steps float64
    no longer holds every integer, so the step times t0 + k tau repeat.
    """
    if not (math.isfinite(tau) and tau > 0.0):
        raise ValueError(f"step {tau!r} must be finite and positive")
    if not (math.isfinite(span) and span >= 0.0):
        raise ValueError(f"span {span!r} must be finite and nonnegative")
    ratio = span / tau
    if not ratio <= 2**53:
        raise ValueError(f"span {span!r} / step {tau!r} is more than 2**53 steps")
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
    stiffness saddle factorization is built here.  Each step forms the
    lift of a nonzero g as L g, with the dense n x m lift matrix
    L = [lift_constraint(e_1) ... lift_constraint(e_m)] (``lift_map``),
    and the load M lift(g') of a nonzero g' as (M L) g'
    (``mass_lift_map``); zero data costs no product, and no lift is
    carried from one step to the next.  L and M L are built at the first
    nonzero g or g', so a system whose g and g' vanish never builds
    them.  The steps project with ``flow_op.project`` (x - W (B x), see
    ``DaeOperator``).  L and W are built on first use, each from m
    saddle solves, and kept; both are deterministic, so a run on a
    system whose maps are built gives the same bits as a run on a fresh
    one.

    On a system with at most ``MAPPED_FLOW_MAX_N`` unknowns the first
    propagation over each step duration has ``flow_op`` build the dense
    step maps of that duration (``DaeOperator.hold_maps``), and every
    propagation over it, in any scheme and any later ``integrate`` on
    this system, is then up to three products with them instead of a
    Krylov flow (``_propagate``).  No maps are built before the first
    step.  On a larger system an ``integrate`` of at least |S| steps has
    ``flow_op`` hold the column maps of the step, Phi_2 on the support S
    of the first slope of its second-order steps (``_hold_columns``),
    which every later such step over that duration on this system reuses.
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
        return _checked(self._forcing(t, x), self.n, "forcing", t)[0]

    def g(self, t: float) -> np.ndarray:
        """g(t); a non-finite entry raises ``NonFinite`` naming ``constraint_rhs``."""
        return _checked(self._g(t), self.m, "constraint_rhs", t)[0]

    def gdot(self, t: float) -> np.ndarray:
        """g'(t); a non-finite entry raises ``NonFinite`` naming ``constraint_rate``."""
        return _checked(self._gdot(t), self.m, "constraint_rate", t)[0]

    def _lift(self, t: float) -> tuple[np.ndarray, np.ndarray | float]:
        """g(t) and its lift L g(t), the scalar 0.0 when g(t) = 0."""
        g, norm = _checked(self._g(t), self.m, "constraint_rhs", t)
        return g, self.lift_map @ g if norm else 0.0

    def _rate_load(self, t: float) -> np.ndarray | float:
        """The load M lift(g'(t)) = (M L) g'(t), the scalar 0.0 when g'(t) = 0."""
        gdot, norm = _checked(self._gdot(t), self.m, "constraint_rate", t)
        return self.mass_lift_map @ gdot if norm else 0.0

    def constraint_residual(self, t: float, u) -> float:
        """Relative defect |B u - g(t)| / (1 + |g(t)|)."""
        return relative_defect(self.constraint, u, self.g(t))

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


def _checked(value, length, name, t) -> tuple[np.ndarray, float]:
    """``value`` of callback ``name`` at t as a vector v, and |v|.

    The finiteness test is ``linalg.finite_norm``: one norm, which
    raises no floating-point warning, with the entrywise scan only when
    it is not finite (also for a finite vector whose norm overflows).
    A non-finite entry raises ``NonFinite`` naming the callback.
    """
    v = as_vector(value, length, f"{name} value")
    norm = finite_norm(v)
    if norm is None:
        raise NonFinite(f"{name} returned non-finite values at t={t}")
    return v, norm


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
    """Per-integration bookkeeping.

    ``steps`` is the step count of the run, which ``integrate`` sets
    before the first step.  ``mapped_flows`` counts the flows through
    full step maps, which carry no flow-tolerance error, and
    ``column_flows`` those through the operator's column maps, which
    do; the Krylov flows that build the columns are recorded like any
    other.
    """

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
    column_flows: int = 0

    def record_flow(self, result):
        self.flow_substeps += result.substeps
        self.flow_checks += result.checks
        self.arnoldi_steps += result.arnoldi_steps
        self.max_basis_size = max(self.max_basis_size, result.basis_size)
        self.mapped_flows += result.mapped
        self.column_flows += result.column

    def record_residual(self, res):
        self.constraint_residuals.append(res)
        self.max_constraint_residual = max(self.max_constraint_residual, res)


def lift_constraint(sys: ConstrainedSystem, rhs_g) -> np.ndarray:
    """A-orthogonal lift of constraint data into the state space.

    The ``kernel_project`` of 0 onto {x : B x = rhs_g} on the stiffness
    saddle: it solves A x + B^T nu = 0, B x = rhs_g, refined once if the
    relative constraint defect exceeds ``linalg.LIFT_RTOL``.  The result
    satisfies the constraint exactly (up to solver accuracy) and
    <A x, w> = 0 for all w in ker B, which makes it the discrete
    right-inverse of B used throughout the schemes.
    """
    return kernel_project(sys.stiffness_saddle, np.zeros(sys.n), rhs_g)


def kernel_solve(sys: ConstrainedSystem, load) -> np.ndarray:
    """Solve the stationary operator on ker B: A w + B^T nu = load, B w = 0.

    No step makes this solve: ``_propagate`` passes its loads to the flow.
    """
    load = as_vector(load, sys.n, "load")
    w, _ = sys.stiffness_saddle.solve(load, sys._zero_dual)
    return w


def _finish_step(sys, t1, u1, lift_g1, g1, diag):
    """Consistency check with kernel-projection repair on violation; g1 is g(t1)."""
    res = relative_defect(sys.constraint, u1, g1)
    if res > CONSISTENCY_RTOL:
        log.warning(
            "constraint residual %.3e above tolerance at t=%.6g; reprojecting", res, t1
        )
        u1 = lift_g1 + sys.flow_op.project(u1 - lift_g1)
        diag.repairs += 1
        res = relative_defect(sys.constraint, u1, g1)
    diag.record_residual(res)
    return u1


def _propagate(sys, t, z, load, slope, config, diag, state):
    """E(t) z + Phi_1(t) load + Phi_2(t) slope on ker B, and the basis to record.

    A term that is None is dropped.  The sum is one flow with the loads
    (``flow``), called through the module name ``krylov_flow``.  On a
    system with n <= ``MAPPED_FLOW_MAX_N`` the operator first builds the
    full maps of duration t if it does not hold them.  Over a duration
    whose full maps the operator holds, the flow is up to three dense
    products (the maps are projected onto ker B when built), and the
    basis to record is 0.  On a larger system the term Phi_2(t) slope
    alone first has the operator hold the column maps of t on the
    support of the slope, if it holds no maps of t and the run is long
    enough (``_hold_columns``); a slope on their support whose estimate
    meets the flow tolerance is then one product with them, with basis
    0.  Otherwise it is a Krylov flow, which makes one saddle solve per
    Arnoldi step and no other.  Its slot in ``flow_bases`` follows from
    the inputs: 1 for the flow with a slope, the second of a
    second-order step, and 0 for any other.  It is warm-started from
    that slot of the step that made ``state``, and the basis to record
    in that slot of the next state's ``flow_bases`` is the accepted one,
    or 0 if the flow took more than one substep.
    """
    op = sys.flow_op
    if sys.n <= MAPPED_FLOW_MAX_N:
        op.hold_maps(t)
    elif z is None and load is None and t not in op.maps:
        _hold_columns(sys, t, slope, config, diag)
    x0 = np.zeros(sys.n) if z is None else z
    loads = (load,) if slope is None else (load, slope)
    bases, slot = state.flow_bases, 0 if slope is None else 1
    hint = bases[slot] if slot < len(bases) and bases[slot] > 0 else None
    result = krylov_flow(op, x0, t, tol=config.flow_tol, basis_hint=hint, loads=loads)
    diag.record_flow(result)
    return result.state, result.basis_size if result.substeps == 1 else 0


def _hold_columns(sys, t, slope, config, diag):
    """Have ``sys.flow_op`` hold the column maps of t on the support S of ``slope``, if it pays.

    The columns are built only when S is not empty, |S| is at most the
    run's step count ``diag.steps`` (each column costs about one flow,
    and each step that uses them saves one) and |S|^2 <= n, which keeps
    dense slopes out and the columns at n |S| <= n^1.5 doubles.  A lone
    step, whose ``Diagnostics`` count no steps, builds nothing.  Column
    j is the flow of the unit load e_j, ``krylov_flow(op, 0, t,
    loads=(None, e_j))`` at ``config.flow_tol`` and warm-started from
    the column before, recorded in ``diag``; its endpoint is projected
    onto ker B and its error estimate is kept beside it, in the column
    maps ``flow.StepMaps`` with ``flow`` and ``phi1`` None.
    """
    support = np.flatnonzero(slope)
    count = support.size
    if not 0 < count <= diag.steps or count * count > sys.n:
        return
    op, x0, unit = sys.flow_op, np.zeros(sys.n), np.zeros(sys.n)
    phi2 = np.empty((sys.n, count), order="F")
    estimates = np.empty(count)
    hint = None
    for i, j in enumerate(support):
        unit[j] = 1.0
        result = krylov_flow(op, x0, t, tol=config.flow_tol, basis_hint=hint, loads=(None, unit))
        unit[j] = 0.0
        diag.record_flow(result)
        phi2[:, i] = result.state
        estimates[i] = result.residual_estimate
        hint = result.basis_size if result.substeps == 1 else None
    op.maps[t] = StepMaps(t, None, None, phi2, support, estimates)


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
    """The body of ``_exponential_step``; zero g or g' costs no product."""
    t0, t1 = state.t, state.t + tau
    t_stage = t0 + c2 * tau  # t1 itself at c2 = 1
    load0 = sys.load(t0, state.u) - sys._rate_load(t0)
    z0 = state.u - sys._lift(t0)[1]
    z_stage, basis0 = _propagate(sys, c2 * tau, z0, load0, None, config, diag, state)
    g_stage, lift_g_stage = sys._lift(t_stage)
    u_stage = lift_g_stage + z_stage
    if stage_only:
        diag.rhs_evaluations += 1
        u1 = _finish_step(sys, t1, u_stage, lift_g_stage, g_stage, diag)
        return StepState(t1, u1, flow_bases=(basis0,))

    load_stage = sys.load(t_stage, u_stage) - sys._rate_load(t_stage)
    diag.rhs_evaluations += 2
    slope = load_stage - load0
    if c2 == 1.0:  # u_s already holds lift(g_{n+1}) + E(tau) z_0 + Phi_1(tau) l_0
        g1, lift_g1, base, z0, load0 = g_stage, lift_g_stage, u_stage, None, None
    else:
        slope /= c2
        g1, lift_g1 = sys._lift(t1)
        base = lift_g1
    if c2 < 1.0 and not math.isfinite(slope.dot(slope)):
        raise NonFinite("stage slope (l(t_n + c2 tau) - l_0) / c2 overflows")
    z_end, basis1 = _propagate(sys, tau, z0, load0, slope, config, diag, state)
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
    g0, norm0 = _checked(sys._g(t0), sys.m, "constraint_rhs", t0)
    g1, norm1 = _checked(sys._g(t1), sys.m, "constraint_rhs", t1)
    g_blend = config.theta * g0 + (1.0 - config.theta) * g1
    f0 = sys.load(t0, state.u)
    diag.rhs_evaluations += 1
    # The lift of a blend of zero data is the scalar 0.0 (ConstrainedSystem._lift).
    lift_blend = sys.lift_map @ g_blend if norm0 or norm1 else 0.0
    z = state.u - lift_blend
    if sys.flow_op.constraint_defect(z) > 1e-12 * (1.0 + norm2(z)):
        z = sys.flow_op.project(z)
    z_end, basis = _propagate(sys, tau, z, f0, None, config, diag, state)
    u1 = lift_blend + z_end
    diag.record_residual(relative_defect(sys.constraint, u1, g1))
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
    if finite_norm(u0) is None:
        raise NonFinite("initial value u0 has non-finite entries")
    initial_residual = sys.constraint_residual(t0, u0)
    if initial_residual > CONSISTENCY_RTOL:
        raise InconsistentInitialData(
            f"|B u0 - g(t0)| relative residual {initial_residual:.3e} exceeds "
            f"{CONSISTENCY_RTOL:.1e}"
        )

    diag = Diagnostics(steps=nsteps)  # read by the steps (``_hold_columns``)
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
        if finite_norm(state.u) is None:
            raise NonFinite(f"state became non-finite at t={state.t}")
        if k % snapshot_stride == 0 or k == nsteps:
            trajectory.append(state)
    return trajectory, diag


def save_trajectory_csv(trajectory, diagnostics, path) -> None:
    """Write step index, time, constraint residual and state norm per row.

    The norm is sqrt(u . u), the bits of ``np.linalg.norm``, except where
    u . u overflows: there it is ``linalg.norm2``, which is scaled, so a
    finite state whose squares overflow is written finite and quietly.

    Row k is step k, so the trajectory must hold every step
    (``snapshot_stride=1``); otherwise a ``ValueError`` is raised before
    the file is opened.
    """
    residuals = diagnostics.constraint_residuals
    if len(trajectory) != len(residuals) + 1:
        raise ValueError(f"{len(trajectory)} states for {len(residuals)} steps: strided")
    with open(path, "w", encoding="ascii") as fh, np.errstate(over="ignore"):
        fh.write("step,t,constraint_residual,solution_norm\n")
        for k, state in enumerate(trajectory):
            res = 0.0 if k == 0 else residuals[k - 1]
            norm = math.sqrt(state.u.dot(state.u))
            norm = norm if math.isfinite(norm) else norm2(state.u)
            fh.write(f"{k},{state.t:.17g},{res:.17g},{norm:.17g}\n")


def save_trajectory_binary(trajectory, path) -> None:
    """Dump all states as flat little-endian float64 after an (n, count) header."""
    count = len(trajectory)
    n = trajectory[0].u.shape[0] if count else 0
    with open(path, "wb") as fh:
        fh.write(struct.pack("<qq", n, count))
        for state in trajectory:
            fh.write(np.ascontiguousarray(state.u, dtype="<f8").tobytes())
