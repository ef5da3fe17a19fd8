"""Benchmark of expidae: one workload per process, metrics as JSON on the last line.

    python3 perfbench/run.py --workload nonsym-so --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout; the library is imported from ``src/``.
``--trace 0`` times the workload untraced and prints the end-to-end metrics;
``--trace 1`` makes a cold call and one rerun untraced, then the same under the
tracer, and prints the per-layer metrics of the traced pair.  See README.md in
this directory.
"""

from __future__ import annotations

import os

# Single-threaded BLAS/OpenMP; must be set before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# build_problem is timed this many times at the start of each session.
BUILDS_PER_SESSION = 5


def import_library():
    """Put the checkout's ``src`` first on the path; refuse any other expidae."""
    if not (SRC / "expidae" / "__init__.py").is_file():
        raise ImportError(f"no expidae sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import expidae

    if Path(expidae.__file__).resolve().parent != SRC / "expidae":
        raise ImportError(f"imported expidae from {expidae.__file__}, not from {SRC}")


class Calibration:
    """A fixed numpy/SciPy loop that does not touch expidae: SuperLU solves, a
    small dense ``expm`` and short vector operations in Python, the mix the
    workloads spend their time in.  Timed next to every call, so that a call's
    time can be read in units of the host's current speed.
    """

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp
        from scipy.linalg import expm
        from scipy.sparse.linalg import splu

        n = 4000
        self.lu = splu(sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n), format="csc"))
        rng = np.random.default_rng(12345)
        self.b = rng.standard_normal(n)
        self.h = rng.standard_normal((12, 12)) / 12
        self.v = rng.standard_normal(64)
        self.expm, self.norm = expm, np.linalg.norm

    def __call__(self) -> float:
        b = self.b
        t0 = time.perf_counter()
        for i in range(150):
            b = self.lu.solve(b)
            b /= self.norm(b)
            self.expm(self.h * (1 + i % 3))
            v = self.v
            for _ in range(10):
                v = v - (v @ v) * 1e-3 * v
        return time.perf_counter() - t0

    def median(self, times=5) -> float:
        return statistics.median(self() for _ in range(times))


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = ROOT / ".git" / text[5:]
    return ref.read_text().strip() if ref.is_file() else None


def metadata(args, calib_s) -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_sha": git_sha(),
        "host.calib_s": calib_s,
    }


def tally(session, seed, totals):
    """Report a session's failures on stderr and count them in ``totals``."""
    for number, label, reason in session.failures:
        print(f"{session.workload.name} seed={seed} call {number} ({label}): {reason}",
              file=sys.stderr)
    totals["attempted"] += session.attempted
    totals["failed"] += session.failed


def timed_builds(workload, builds):
    for _ in range(BUILDS_PER_SESSION):
        t0 = time.perf_counter()
        workload.build()
        builds.append(time.perf_counter() - t0)


def measure(workload, seed, seconds, reference, workdir, totals, calibrate) -> dict:
    """Sessions of a cold call and its reruns while another fits in ``seconds``.

    The host's speed changes in spells of seconds to minutes, and every kind
    of code slows alike (README.md).  So each call is timed between two runs
    of the calibration loop and divided by their geometric mean: ``run_rel``
    and ``rerun_rel`` are the run's medians of these ratios.  ``setup_s`` is
    the median of the run's builds, in seconds.
    """
    builds = []
    times = {"run": [], "rerun": []}
    ratios = {"run": [], "rerun": []}
    calibs = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        timed_builds(workload, builds)
        with workload.session(seed, reference, workdir) as session:
            calibs.append(calibrate())
            for label in ["run"] + ["rerun"] * workload.reruns:
                seconds_taken = session.call(label)
                calibs.append(calibrate())
                if seconds_taken is not None:
                    times[label].append(seconds_taken)
                    ratios[label].append(seconds_taken / math.sqrt(calibs[-2] * calibs[-1]))
        tally(session, seed, totals)
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break
    if not ratios["run"] or not ratios["rerun"]:
        raise RuntimeError(f"{workload.name}: the calls raised; no time to report")
    median = statistics.median
    print(f"# samples: {len(builds)} builds, {len(times['run'])} runs, "
          f"{len(times['rerun'])} reruns, {len(calibs)} calibrations", file=sys.stderr)
    print(f"# medians in seconds: run {median(times['run']):.6g}, "
          f"rerun {median(times['rerun']):.6g}, calibration {median(calibs):.6g}",
          file=sys.stderr)
    return {
        "setup_s": median(builds),
        "run_rel": median(ratios["run"]),
        "rerun_rel": median(ratios["rerun"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def trace(workload, seed, reference, workdir, totals, calib_s) -> dict:
    """A cold call and one rerun untraced, then the same traced; per-layer numbers."""
    from tracer import Tracer

    with workload.session(seed, reference, workdir) as plain:
        plain_run_s = plain.call("run")
        plain.call("rerun")
    tally(plain, seed, totals)
    with Tracer() as tracer, workload.session(seed, reference, workdir) as traced:
        traced_run_s = traced.call("run")
        traced.call("rerun")
    tracer.diagnostics += traced.diagnostics
    # A count identity that fails marks the traced cold call as failed.
    for reason in tracer.self_check(workload.layers):
        traced.fail(1, "trace", reason)
    tally(traced, seed, totals)
    values = tracer.metrics()
    values["harness.err_min"] = getattr(traced, "err_min", None) or 0.0
    values["host.calib_s"] = calib_s
    both = plain_run_s is not None and traced_run_s is not None
    values["trace.overhead_s"] = traced_run_s - plain_run_s if both else 0.0
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_library()
    except ImportError as exc:
        print(f"cannot import expidae: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, load_reference, make_workdir

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    calibrate = Calibration()
    calib_s = calibrate.median()
    print(json.dumps({"meta": metadata(args, calib_s)}))

    reference = load_reference()
    workdir = make_workdir(ROOT)
    totals = {"attempted": 0, "failed": 0}
    try:
        if args.trace:
            metrics = trace(workload, args.seed, reference, workdir, totals, calib_s)
        else:
            metrics = measure(workload, args.seed, args.seconds, reference, workdir, totals,
                              calibrate)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    attempted, failed = totals["attempted"], totals["failed"]
    print(f"# fail_frac={failed}/{attempted}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
