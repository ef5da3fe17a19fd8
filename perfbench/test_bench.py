"""Tests of the benchmark itself:  python3 -m pytest perfbench -q

The exact-count metrics must repeat exactly for the same inputs, the tracer's
count identities must hold, the tracer must leave the library as it found it,
and the benchmark must refuse to run without the library sources.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_library()

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Integration, load_reference, module  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]


def traced_operation(workload, seed, workdir):
    """A cold call and one rerun under the tracer, as a traced benchmark run makes."""
    with Tracer() as tracer, workload.session(seed, load_reference(), workdir) as session:
        session.call("run")
        session.call("rerun")
    tracer.diagnostics += session.diagnostics
    return session, tracer


def short(workload, steps=24):
    """The integration workload cut to a few steps (seed != 0: no stored state)."""
    return dataclasses.replace(workload, t_end=steps * workload.tau)


@pytest.mark.parametrize("name", ["nonsym-so", "dynbc-so", "study-nonsym"])
def test_counts_repeat_exactly(name, tmp_path):
    workload = WORKLOADS[name]
    if isinstance(workload, Integration):
        workload = short(workload)
    counts = []
    for _ in range(2):
        session, tracer = traced_operation(workload, 1, tmp_path)
        assert session.failures == []
        assert tracer.self_check(workload.layers) == []
        metrics = tracer.metrics()
        assert metrics["phi.expm.per_arnoldi_step"] == 1.0
        counts.append({key: metrics[key] for key in COUNTS})
    assert counts[0] == counts[1]


def test_layer_profile_of_the_short_workloads(tmp_path):
    nonsym = traced_operation(short(WORKLOADS["nonsym-so"]), 1, tmp_path)[1].metrics()
    dynbc = traced_operation(short(WORKLOADS["dynbc-so"]), 1, tmp_path)[1].metrics()
    assert nonsym["flow.basis.max"] > dynbc["flow.basis.max"]
    assert nonsym["flow.halvings"] == dynbc["flow.halvings"] == 0
    assert dynbc["linalg.refinements"] == 0
    assert nonsym["harness.cache_hits"] == dynbc["harness.cache_hits"] == 0


def test_uninstall_restores_the_library():
    names = {
        "integrators": ["krylov_flow", "lift_constraint", "kernel_solve", "second_order_step"],
        "flow": ["expm", "kernel_project"],
        "linalg": ["splu"],
        "cli": ["run_convergence", "emit_csv", "main", "build_problem"],
    }
    before = {(mod, attr): getattr(module(mod), attr) for mod, attrs in names.items()
              for attr in attrs}
    saddle = module("linalg").SaddleFactorization
    methods = (saddle.__init__, saddle.solve)
    with Tracer():
        assert module("flow").expm is not before["flow", "expm"]
    assert {key: getattr(module(key[0]), key[1]) for key in before} == before
    assert (saddle.__init__, saddle.solve) == methods


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "nonsym-so", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert Path(tmp_path, ".bench_work").exists() is False
