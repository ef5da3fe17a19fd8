"""The benchmark's workloads: inputs from the seed, the timed calls, output checks.

A session builds the problem once; its first call is the cold call and every
later call is a rerun of the same call in the same process.  A call is an
``integrate`` for the integration workloads and one ``expidae converge`` for
the study.  Checks return the reasons a call failed, so a failed check counts
as a failed operation without stopping the run.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

perf_counter = time.perf_counter

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.npz"

# c8: per-step constraint residual bound; c2: agreement with a stored state.
RESIDUAL_BOUND = 1e-9
STATE_RTOL = 1e-8
# c6: observed order window of the exponential Euler study.
ORDER_WINDOW = (0.85, 1.15)
# The finest-step study error may move by round-off, not by a changed scheme.
ERR_MIN_RTOL = 1e-2


def module(name):
    """An expidae module, looked up at call time so that tracer wrappers apply.

    ``import_module`` returns the module itself; the package attribute
    ``expidae.flow`` is the function ``flow``.
    """
    return importlib.import_module(f"expidae.{name}")


def load_reference() -> dict:
    if not REFERENCE_FILE.is_file():
        return {}
    with np.load(REFERENCE_FILE, allow_pickle=False) as data:
        return {key: data[key] for key in data.files}


class Session:
    """One built problem: a cold call, then reruns of the same call.

    Every call is one operation.  A call that raises or fails a check is
    recorded in ``failures`` as (call number, label, reason) and the session
    goes on.
    """

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures = []
        self.diagnostics = []
        self.problem = workload.build()

    @property
    def failed(self) -> int:
        return len({number for number, _, _ in self.failures})

    def fail(self, number, label, reason):
        self.failures.append((number, label, reason))

    def call(self, label) -> float | None:
        """Time one call; returns its wall time, or None if it raised."""
        self.attempted += 1
        number = self.attempted
        try:
            t0 = perf_counter()
            result = self._call(label)
            seconds = perf_counter() - t0
            reasons = self._check(label, result)
        except Exception as exc:  # a raising call is a failed operation
            self.fail(number, label, f"raised {type(exc).__name__}: {exc}")
            return None
        for reason in reasons:
            self.fail(number, label, reason)
        return seconds

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class IntegrationSession(Session):
    def __init__(self, workload, seed, reference):
        super().__init__(workload)
        self.seed = seed
        self.reference = reference
        self.u0 = workload.amplitude(seed) * self.problem.u0
        self.config = module("integrators").SchemeConfig(scheme="second-order")
        self.final_state = None

    def _call(self, label):
        w = self.workload
        return module("integrators").integrate(
            self.problem.system, self.config, self.u0, 0.0, w.t_end, w.tau
        )

    def _check(self, label, result):
        traj, diag = result
        self.diagnostics.append(diag)
        problems = self.workload.check(traj, diag, self.seed, self.reference)
        if self.final_state is None:
            self.final_state = traj[-1].u
        elif not np.array_equal(traj[-1].u, self.final_state):
            problems.append("final state differs from the first call's")
        return problems


@dataclass(frozen=True)
class Integration:
    """Second-order integration of one paper problem through ``integrate``.

    The seed scales the initial value by a factor in [0.9, 1.1] (seed 0: 1).
    The number of steps, flows, Arnoldi steps and ``expm`` calls does not
    depend on it; SuperLU refinements do, by a few in 16 500 solves on
    ``nonsym-so``.  Both problems have g(0) = 0, so the scaled value stays
    consistent.
    """

    name: str
    problem: str
    n_cells: int
    t_end: float
    tau: float = 1.0 / 2560
    reruns = 1
    layers = ("problems", "linalg", "flow", "phi", "integrators")

    def build(self):
        return module("problems").build_problem(self.problem, n_cells=self.n_cells)

    def amplitude(self, seed: int) -> float:
        return 1.0 if seed == 0 else float(np.random.default_rng(seed).uniform(0.9, 1.1))

    def session(self, seed: int, reference: dict, workdir: Path) -> IntegrationSession:
        return IntegrationSession(self, seed, reference)

    def check(self, traj, diag, seed, reference) -> list[str]:
        problems = []
        steps = int(round(self.t_end / self.tau))
        if diag.steps != steps or len(traj) != steps + 1:
            problems.append(f"expected {steps} steps, got {diag.steps} ({len(traj)} states)")
        if not all(np.isfinite(st.u).all() for st in traj):
            problems.append("non-finite state")
        if not diag.max_constraint_residual <= RESIDUAL_BOUND:
            problems.append(f"constraint residual {diag.max_constraint_residual:.3e}")
        if seed == 0:
            ref = reference.get(self.name)
            if ref is None:
                problems.append("no stored reference state")
            else:
                dev = np.linalg.norm(traj[-1].u - ref) / np.linalg.norm(ref)
                if not dev <= STATE_RTOL:
                    problems.append(f"final state deviates from reference by {dev:.3e}")
        return problems


class StudySession(Session):
    """Cold ``converge`` into a fresh cache directory, then warm reruns against it."""

    def __init__(self, workload, reference, workdir):
        super().__init__(workload)
        self.reference = reference
        self.tmp = Path(tempfile.mkdtemp(prefix="study-", dir=workdir))
        self.cache = self.tmp / "refcache"
        self.cold_csv = None
        self.cold_cache = None
        self.err_min = None

    def __exit__(self, *exc):
        shutil.rmtree(self.tmp, ignore_errors=True)
        return False

    def _call(self, label):
        out = self.tmp / f"{label}-{self.attempted}.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                code = module("cli").main(self.workload.argv(self.cache, out))
            except SystemExit as exc:  # argparse rejects bad flags this way
                code = exc.code
        data = parsed = None
        if out.exists():
            data = out.read_bytes()
            parsed = module("harness").read_convergence_csv(out)
            out.unlink()
        return code, data, parsed

    def _check(self, label, result):
        code, data, parsed = result
        if code != 0:
            return [f"exit code {code}"]
        if label == "run":
            return self._check_cold(data, parsed)
        if self.cold_csv is None:
            return ["no successful cold run to compare against"]
        problems = []
        if data != self.cold_csv:
            problems.append("warm CSV differs from the cold CSV")
        if cache_state(self.cache) != self.cold_cache:
            problems.append("warm run rewrote the reference cache")
        return problems

    def _check_cold(self, data, parsed):
        problems = []
        self.cold_csv = data
        self.cold_cache = cache_state(self.cache)
        meta, rows = parsed
        self.err_min = rows[-1][1]
        order = float(meta["fitted_order"])
        if not ORDER_WINDOW[0] <= order <= ORDER_WINDOW[1]:
            problems.append(f"fitted order {order:.3f} outside {ORDER_WINDOW}")
        base = self.reference.get(f"{self.workload.name}.err_min")
        if base is None:
            problems.append("no stored err_min")
        elif not abs(self.err_min - float(base)) <= ERR_MIN_RTOL * float(base):
            problems.append(f"err_min {self.err_min:.6e} vs stored {float(base):.6e}")
        return problems


@dataclass(frozen=True)
class Study:
    """``expidae converge`` run in-process through ``expidae.cli.main``.

    The inputs do not depend on the seed.  The study stops at t_end 0.1: the
    H1 error sampled by ``--sample max`` peaks before then, so the CSV is the
    one t_end 0.25 writes, and the cold call takes a third of the time.
    """

    name: str = "study-nonsym"
    reruns = 2
    layers = ("problems", "linalg", "flow", "phi", "integrators", "harness", "cli")

    def build(self):
        return module("problems").build_problem("nonsym", n_cells=32)

    def argv(self, cache_dir, out):
        return [
            "converge", "--problem", "nonsym", "--h", "1/32", "--scheme", "exp-euler",
            "--taus", "0.05,0.025,0.0125,0.00625", "--ref-tau", "0.000390625",
            "--norm", "h1", "--sample", "max", "--t-end", "0.1",
            "--cache-dir", str(cache_dir), "--out", str(out),
        ]

    def session(self, seed: int, reference: dict, workdir: Path) -> StudySession:
        return StudySession(self, reference, workdir)


def cache_state(cache: Path) -> dict:
    """File name -> (size, mtime) of the cache; a cache miss rewrites the file."""
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns) for p in sorted(cache.iterdir())}


# 160 steps each, an eighth and a tenth of the problems' final times, so that a
# run holds some thirty short sessions spread over its length.
WORKLOADS = {
    "nonsym-so": Integration("nonsym-so", "nonsym", n_cells=64, t_end=0.0625),
    "dynbc-so": Integration("dynbc-so", "dynbc", n_cells=32, t_end=0.0625),
    "study-nonsym": Study(),
}


def make_workdir(root: Path) -> Path:
    base = root / ".bench_work"
    base.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=base))
