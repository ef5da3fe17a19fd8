"""Record the seed-0 outputs that the benchmark's checks compare against.

    python3 perfbench/record_reference.py

Writes reference.npz next to this file: the final state of each integration
workload at seed 0 and the finest-step error of the study.  Re-record only when
a change is meant to alter results beyond the checks' tolerances, and say so.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np

import run

if __name__ == "__main__":
    run.import_library()
    from workloads import REFERENCE_FILE, WORKLOADS, Integration, Study

    values = {}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for name, workload in WORKLOADS.items():
            with workload.session(0, {}, Path(tmp)) as session:
                session.call("run")
            bad = [r for _, _, r in session.failures if not r.startswith("no stored")]
            if bad:
                raise SystemExit(f"{name} failed: {bad}")
            if isinstance(workload, Integration):
                values[name] = session.final_state
            elif isinstance(workload, Study):
                values[f"{name}.err_min"] = np.float64(session.err_min)
            print(name, "recorded", file=sys.stderr)
    np.savez(REFERENCE_FILE, **values)
