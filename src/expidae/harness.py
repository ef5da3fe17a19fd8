"""Convergence-study driver: error norms, reference solutions, CSV output.

A study integrates one problem over a ladder of step sizes, measures
the error against a reference solution in a chosen discrete norm
(at the final time, or as the maximum over the time grid) and fits the
observed order as the least-squares slope of log(error) versus
log(step size).  Given a reference step, the reference is produced by
the second-order scheme at that much finer step and validated by
comparing against a run with half that step; it is cached on disk keyed
by problem, config, final time, reference step and numerics revision.
Without a reference step the study measures against the problem's exact
solution, which only a manufactured problem has.

Every propagation of the reference runs of a system with at most
``EXACT_FLOW_MAX_N`` unknowns takes the dense exact step maps on ker B
(``flow.step_maps``) instead of a Krylov flow: each step is three
matrix-vector products and carries no flow-tolerance error.  Larger
systems fall back to the Krylov flow.  The ladder takes the same kind
of maps on a system with at most ``integrators.MAPPED_FLOW_MAX_N``
unknowns, so there the reference and the ladder share the maps'
arithmetic and only the step sizes differ; the CSV says which flows the
ladder ran (``ladder_flows``).  Each reference run and each ladder
restores the operator's maps (``DaeOperator.maps``, full or column
maps) when it ends, so a study leaves the operator holding what it
held before.
The test suite checks the reference against an independent solver.
"""

from __future__ import annotations

import contextlib
import hashlib
import logging
import math
import os
import tempfile
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NegativeEnergy, SelfCheckFailed
from .integrators import ConstrainedSystem, SchemeConfig, integrate, step_count
from .linalg import as_vector, finite_norm
from .problems import Problem

__all__ = [
    "error_norm",
    "ConvergenceTable",
    "ReferenceSolution",
    "build_reference",
    "run_convergence",
    "emit_csv",
    "read_convergence_csv",
    "fit_order",
]

log = logging.getLogger(__name__)

NORMS = ("energy", "h1", "l2")

# Part of the reference-cache key.  Bump it in every change that alters
# computed states, even at round-off, so that no cache written by an
# older revision is served.
NUMERICS_REVISION = 20

# Points with error above this fraction of the reference scale are
# treated as pre-asymptotic and excluded from the order fit.
PREASYMPTOTIC_FRACTION = 0.5

REFERENCE_SCHEME = SchemeConfig(scheme="second-order", flow_tol=1e-12)

# Reference runs of a system with at most this many unknowns step
# through dense exact step maps, three n x n arrays (25 MB at the cap)
# for one run at a time; larger systems keep the Krylov flow.
EXACT_FLOW_MAX_N = 1024


def error_norm(sys: ConstrainedSystem, e, norm: str) -> float:
    """Discrete norm of an error vector.

    ``energy`` uses the symmetric part of the spatial operator, whose
    quadratic form is e.A e, ``h1`` the problem's stiffness-plus-mass
    form, ``l2`` the mass matrix.
    """
    e = as_vector(e, sys.n, "error vector")
    _require_norm(sys, norm)
    if norm == "l2":
        val = float(e @ (sys.mass @ e))
    elif norm == "energy":
        val = float(e @ (sys.stiffness @ e))
        if val < -1e-12:
            raise NegativeEnergy(
                f"energy quadratic form evaluated to {val:.3e}; "
                "symmetric part of the operator is not elliptic here"
            )
    else:
        val = float(e @ (sys.h1_form @ e))
    return math.sqrt(max(val, 0.0))


def _require_norm(sys: ConstrainedSystem, norm: str) -> None:
    """Raise ``ValueError`` unless ``error_norm`` can measure ``norm`` on ``sys``."""
    if norm not in NORMS:
        raise ValueError(f"unknown norm {norm!r}, expected one of {NORMS}")
    if norm == "h1" and sys.h1_form is None:
        raise ValueError("problem does not define an h1 form")


@dataclass(frozen=True)
class ReferenceSolution:
    """Fine-step solution used as the error yardstick.

    ``times``/``states`` hold the snapshot grid (the final time alone
    unless a snapshot step was requested), ``check_states`` the same
    snapshots at half the reference step; ``from_cache`` marks a cache hit.
    """

    times: np.ndarray
    states: np.ndarray          # (len(times), n)
    check_states: np.ndarray
    from_cache: bool = False

    @property
    def state(self) -> np.ndarray:
        """Endpoint at the final time."""
        return self.states[-1]


@dataclass(frozen=True)
class ConvergenceTable:
    """Step sizes, errors and fitted order of one study."""

    problem: str
    scheme: str
    norm: str
    h: float | None
    taus: tuple
    errors: tuple
    local_orders: tuple         # None in the first slot
    fitted_order: float
    reference_scale: float
    max_constraint_residual: float
    self_check_gap: float | None = None
    sample: str = "final"
    tau_ref: float | None = None        # None for an exact reference
    flow_tol: float | None = None
    ladder_flows: str = "krylov"        # "mapped" if no rung ran a Krylov flow

    def __post_init__(self):
        taus = np.asarray(self.taus)
        if taus.size and not (np.diff(taus) < 0).all():
            raise ValueError("step sizes must be strictly decreasing")
        errors = np.asarray(self.errors, dtype=np.float64)
        if finite_norm(errors) is None or not (errors > 0).all():
            raise ValueError("errors must be finite and positive")


def fit_order(taus, errors, reference_scale: float) -> float:
    """Least-squares slope of log(error) vs log(tau).

    Points whose error exceeds half the reference scale are flagged as
    pre-asymptotic and dropped (unless that would leave fewer than two
    points).
    """
    taus = np.asarray(taus, dtype=float)
    errors = np.asarray(errors, dtype=float)
    keep = errors <= PREASYMPTOTIC_FRACTION * reference_scale
    if keep.sum() < 2:
        keep = np.ones_like(keep, dtype=bool)
    slope = np.polyfit(np.log(taus[keep]), np.log(errors[keep]), 1)[0]
    return float(slope)


def local_orders(taus, errors) -> tuple:
    out = [None]
    for i in range(1, len(taus)):
        out.append(
            float(math.log(errors[i - 1] / errors[i]) / math.log(taus[i - 1] / taus[i]))
        )
    return tuple(out)


def _cache_key(problem: Problem, t_end, tau_ref, snapshot_tau) -> str:
    return (
        f"{problem.name}|{problem.config!r}|t_end={t_end!r}|tau_ref={tau_ref!r}"
        f"|snap={snapshot_tau!r}|{REFERENCE_SCHEME!r}|rev={NUMERICS_REVISION}"
    )


def _read_cache(path: Path, key: str):
    """(times, states, check_states) stored under ``key``, or None on a miss.

    A missing file, another key, or a file that cannot be read (for
    instance one truncated by an interrupted writer) is a miss; the
    last is logged.  The file is opened here, so that its handle is
    closed also when ``np.load`` fails on it.
    """
    if not path.exists():
        return None
    try:
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
            if str(data["key"]) != key:
                return None
            return data["times"], data["states"], data["check_states"]
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
        log.warning("reference cache %s is unreadable, rebuilding: %s", path, exc)
        return None


def _write_cache(path: Path, key: str, times, states, check_states) -> None:
    """Write through a temporary file and rename, so that no reader sees a partial file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, key=np.str_(key), times=times, states=states,
                     check_states=check_states)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


@contextlib.contextmanager
def _restoring_maps(op):
    """Restore ``op.maps`` as it was when the block exits.

    Maps the block built are dropped, and maps it replaced (column maps,
    by the full maps of ``DaeOperator.hold_maps``) come back.
    """
    held = dict(op.maps)
    try:
        yield
    finally:
        op.maps.clear()
        op.maps.update(held)


def _snapshot_run(problem, t_end, tau, stride, exact):
    """One reference run, through the step maps of ``tau`` if ``exact``.

    The maps are given to the operator of the problem's system for the
    run, and its maps are restored as they were when the run returns.
    Otherwise the run takes whatever flow ``integrate`` picks for the
    system.
    """
    op = problem.system.flow_op
    with _restoring_maps(op):
        if exact:
            op.hold_maps(tau)
        traj, _ = integrate(
            problem.system, REFERENCE_SCHEME, problem.u0, 0.0, t_end, tau,
            snapshot_stride=stride,
        )
    times = np.array([st.t for st in traj])
    states = np.stack([st.u for st in traj])
    return times, states


def build_reference(
    problem: Problem,
    t_end: float,
    tau_ref: float,
    cache_dir=None,
    snapshot_tau: float | None = None,
) -> ReferenceSolution:
    """Integrate ``REFERENCE_SCHEME``, read at call time, at tau_ref and tau_ref / 2.

    With ``snapshot_tau`` the full state is kept at every multiple of
    that step, which ``step_count`` must find a whole number of tau_ref;
    otherwise only the endpoint is stored.  Results are cached on disk
    (when ``cache_dir`` is given) and served bit-identically on repeated
    calls with the same key; the key embeds ``repr`` of the problem's
    config and of ``REFERENCE_SCHEME``, so a change to either is a miss.

    With at most ``EXACT_FLOW_MAX_N`` unknowns every propagation of a
    run takes the dense step maps of its step (``flow.step_maps``),
    which the system's operator holds for that run only, in place of any
    column maps of that step it held, so the build never adds the maps of
    tau_ref and tau_ref / 2 together, and the reference
    carries no flow-tolerance error.  The step-independent part of the
    maps (``flow.kernel_reduction``) and the lift matrix L are built
    once per system, so both runs share them with each other and with
    the ladder.  Larger systems fall back to the Krylov flow with
    ``REFERENCE_SCHEME.flow_tol``.
    """
    stride = step_count(t_end if snapshot_tau is None else snapshot_tau, tau_ref)

    key = _cache_key(problem, t_end, tau_ref, snapshot_tau)
    cache_path = None
    if cache_dir is not None:
        digest = hashlib.sha256(key.encode()).hexdigest()[:20]
        cache_path = Path(cache_dir) / f"ref-{problem.name}-{digest}.npz"
        cached = _read_cache(cache_path, key)
        if cached is not None:
            return ReferenceSolution(*cached, from_cache=True)

    exact = problem.system.n <= EXACT_FLOW_MAX_N
    times, states = _snapshot_run(problem, t_end, tau_ref, stride, exact)
    _, check_states = _snapshot_run(problem, t_end, tau_ref / 2, 2 * stride, exact)

    if cache_path is not None:
        _write_cache(cache_path, key, times, states, check_states)
    return ReferenceSolution(times, states, check_states)


def run_convergence(
    problem: Problem,
    scheme: SchemeConfig,
    taus,
    t_end: float,
    norm: str = "energy",
    tau_ref: float | None = None,
    cache_dir=None,
    sample: str = "final",
) -> ConvergenceTable:
    """Integrate the ladder of step sizes and fit the observed order.

    With a ``tau_ref`` the reference is :func:`build_reference` at that
    step, which must be a whole number of t_end (and, for "max", of
    min(taus)) by ``step_count`` and at most min(taus)/16; without one it
    is the problem's exact solution, and a problem that has none raises
    ``ValueError``.  ``sample``
    selects the error functional: "final" measures at t_end only, "max"
    takes the maximum over all time grid points, which is what resolves
    the initial transient of problems with rough data.  ``t_end`` must be
    positive, each step size a whole number of the smallest, t_end a
    whole number of each step by ``step_count``, and ``norm`` one that
    ``error_norm`` can measure on the problem; all of this is checked
    before the reference is built.  The maps the ladder builds on the
    system's operator, full or column maps, are kept while it runs, so
    one rung reuses those another built, and dropped when it ends, so a
    study leaves the operator's maps as it found them.
    """
    taus = sorted((float(t) for t in taus), reverse=True)
    if len(taus) < 2:
        raise ValueError("a convergence study needs at least two step sizes")
    if len(set(taus)) != len(taus):
        raise ValueError("duplicate step sizes in ladder")
    if sample not in ("final", "max"):
        raise ValueError(f"unknown sample mode {sample!r}")
    if not t_end > 0.0:
        raise ValueError(f"t_end {t_end!r} must be positive")
    sys = problem.system
    _require_norm(sys, norm)
    for tau in taus:  # every step first, so that a bad one is named as a step
        step_count(t_end, tau)
    tau_min = min(taus)
    strides = [step_count(tau, tau_min) for tau in taus]

    ref = None
    exact = None
    if tau_ref is None:
        if problem.exact is None:
            raise ValueError(
                f"problem {problem.name!r} has no exact solution; give a reference step tau_ref"
            )
        exact = problem.exact
        ref_state = np.asarray(exact(t_end), dtype=float)
    else:
        snapshot_tau = tau_min if sample == "max" else None
        for span in (t_end,) if snapshot_tau is None else (t_end, snapshot_tau):
            try:
                step_count(span, tau_ref)
            except ValueError as exc:
                raise ValueError(f"reference step tau_ref={tau_ref!r}: {exc}") from None
        if tau_ref > tau_min / 16 + 1e-15:
            raise ValueError(
                f"tau_ref={tau_ref} too coarse; must be <= min(taus)/16 = {tau_min / 16}"
            )
        ref = build_reference(
            problem, t_end, tau_ref, cache_dir=cache_dir, snapshot_tau=snapshot_tau
        )
        ref_state = ref.state

    errors = []
    max_residual = 0.0
    ladder_flows = "mapped"
    with _restoring_maps(sys.flow_op):  # rungs share maps, e.g. c2 tau = the next tau
        for tau, stride in zip(taus, strides):
            traj, diag = integrate(sys, scheme, problem.u0, 0.0, t_end, tau)
            if diag.flow_substeps > diag.mapped_flows:  # a Krylov flow ran
                ladder_flows = "krylov"
            if sample == "final":
                err = error_norm(sys, traj[-1].u - ref_state, norm)
            else:
                err = 0.0
                for k, st in enumerate(traj[1:], start=1):
                    target = exact(st.t) if exact is not None else ref.states[k * stride]
                    err = max(err, error_norm(sys, st.u - target, norm))
            errors.append(err)
            max_residual = max(max_residual, diag.max_constraint_residual)

    gap = None
    if ref is not None:
        # Without snapshots the states are u0 and the endpoint alone.
        pairs = zip(ref.states[1:], ref.check_states[1:])
        gap = max(error_norm(sys, a - b, norm) for a, b in pairs)
        if gap > 0.01 * min(errors):
            raise SelfCheckFailed(
                f"reference resolution check failed: gap {gap:.3e} exceeds 1% of "
                f"the smallest measured error {min(errors):.3e}"
            )

    scale = error_norm(sys, ref_state, norm)
    return ConvergenceTable(
        problem=problem.name,
        scheme=scheme.scheme,
        norm=norm,
        h=problem.mesh_h,
        taus=tuple(taus),
        errors=tuple(errors),
        local_orders=local_orders(taus, errors),
        fitted_order=fit_order(taus, errors, scale),
        reference_scale=scale,
        max_constraint_residual=max_residual,
        self_check_gap=gap,
        sample=sample,
        tau_ref=tau_ref,
        flow_tol=scheme.flow_tol,
        ladder_flows=ladder_flows,
    )


def _number(value) -> str:
    """17 significant digits, which float() reads back exactly; '' for None."""
    return "" if value is None else format(value, ".17g")


def emit_csv(table: ConvergenceTable, path) -> None:
    """Write the table with a '#'-prefixed metadata block and 17-digit rows.

    The metadata carries the study's own evidence: the reference scale,
    the largest constraint residual, the reference self-check gap, the
    reference step, the flow tolerance and which flows the ladder ran,
    ``mapped`` (dense step maps, where ``flow_tol`` bounds no error) or
    ``krylov``.  Nothing in the file depends on whether the reference
    came from the cache.
    """
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# problem={table.problem}\n")
        fh.write(f"# scheme={table.scheme}\n")
        fh.write(f"# norm={table.norm}\n")
        fh.write(f"# h={_number(table.h)}\n")
        fh.write(f"# sample={table.sample}\n")
        fh.write(f"# fitted_order={_number(table.fitted_order)}\n")
        fh.write(f"# reference_scale={_number(table.reference_scale)}\n")
        fh.write(f"# max_constraint_residual={_number(table.max_constraint_residual)}\n")
        fh.write(f"# self_check_gap={_number(table.self_check_gap)}\n")
        fh.write(f"# tau_ref={_number(table.tau_ref)}\n")
        fh.write(f"# flow_tol={_number(table.flow_tol)}\n")
        fh.write(f"# ladder_flows={table.ladder_flows}\n")
        fh.write("tau,error,local_order\n")
        for i, (tau, err) in enumerate(zip(table.taus, table.errors)):
            order = table.local_orders[i]
            fh.write(f"{tau:.17g},{err:.17g},{_number(order)}\n")


def read_convergence_csv(path):
    """Parse a file written by :func:`emit_csv`.

    Returns (metadata dict, list of (tau, error, local_order or None)).
    Metadata values are the strings as written: ``float()`` recovers a
    number exactly, and an empty value stands for None.
    """
    meta = {}
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key.strip()] = value.strip()
            elif line.startswith("tau,"):
                continue
            else:
                tau_txt, err_txt, order_txt = line.split(",")
                rows.append(
                    (
                        float(tau_txt),
                        float(err_txt),
                        float(order_txt) if order_txt else None,
                    )
                )
    return meta, rows
