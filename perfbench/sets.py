"""Run sets of benchmark runs and report their spread.

    python3 perfbench/sets.py --seeds 0-9 --out results.jsonl [--trace 0|1]
    python3 perfbench/sets.py --report results.jsonl [--compare other.jsonl]

Each run is a fresh process; the workloads are interleaved within a seed, so
host drift over minutes falls on every workload alike.  The report gives, per
workload and end-to-end metric, the median and the quartile spread
(Q3 - Q1) / median from ``statistics.quantiles(values, n=4)``, against the
metric's bound; ``setup_s`` is raw seconds and follows the host's speed, so
its spread is shown but not gated.  ``--compare`` checks that the second set's
medians, ``setup_s`` too, are within the bounds of the first and that every
count metric of traced runs repeats exactly for the same workload and seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_sets(seeds, trace, out):
    command = SPEC["command"]
    with open(out, "a", encoding="utf-8") as fh:
        for seed in seeds:
            for workload in SPEC["workloads"]:
                argv = command + ["--workload", workload["name"], "--seed", str(seed),
                                  "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
                t0 = time.perf_counter()
                proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
                wall = time.perf_counter() - t0
                if proc.returncode != 0:
                    print(proc.stderr, file=sys.stderr)
                    raise SystemExit(f"{workload['name']} seed={seed} exited {proc.returncode}")
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                record = {"workload": workload["name"], "seed": seed, "trace": trace,
                          "wall_s": wall, **result}
                fh.write(json.dumps(record) + "\n")
                fh.flush()
                print(f"{workload['name']:>13} seed={seed} wall={wall:6.1f}s "
                      f"correct={result['correct']} failed={result['failed']}/{result['attempted']}",
                      file=sys.stderr)


def load(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def summary(records):
    """workload -> metric -> (median, spread) over untraced runs."""
    out = {}
    for workload in SPEC["workloads"]:
        runs = [r for r in records if r["workload"] == workload["name"] and r["trace"] == 0]
        if len(runs) < 2:
            continue
        out[workload["name"]] = {}
        for metric in SPEC["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            out[workload["name"]][metric["name"]] = (statistics.median(values), (q3 - q1) / med,
                                                     len(values))
    return out


def report(path, compare=None):
    first = summary(load(path))
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    ok = True
    for workload, metrics in first.items():
        for name, (med, spread, n) in metrics.items():
            line = (f"{workload:>13} {name:<12} n={n:2d} median={med:.6g} "
                    f"spread={spread:.4f} bound={bounds[name]}")
            if name == "setup_s":
                line += "  (raw seconds: only its median change is gated)"
            elif spread > bounds[name]:
                ok = False
                line += "  SPREAD OVER BOUND"
            elif spread > bounds[name] / 3:
                line += "  (over a third of the bound)"
            print(line)
    if compare:
        second = summary(load(compare))
        for workload, metrics in first.items():
            for name, (med, _, _) in metrics.items():
                med2 = second[workload][name][0]
                change = (med2 - med) / med
                flag = "" if change <= bounds[name] else "  WORSE THAN BOUND"
                ok &= not flag
                print(f"{workload:>13} {name:<12} median {med:.6g} -> {med2:.6g} ({change:+.2%}){flag}")
        ok &= compare_counts(load(path), load(compare))
    return ok


def compare_counts(first, second):
    """Count metrics of traced runs must repeat exactly for the same workload and seed."""
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    traced = lambda recs: {(r["workload"], r["seed"]): r for r in recs if r["trace"] == 1}
    a, b = traced(first), traced(second)
    ok = True
    for key in sorted(set(a) & set(b)):
        diff = [n for n in counts if a[key]["metrics"][n]["value"] != b[key]["metrics"][n]["value"]]
        ok &= not diff
        print(f"{key[0]:>13} seed={key[1]} counts {'identical' if not diff else f'DIFFER: {diff}'}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--report")
    parser.add_argument("--compare")
    args = parser.parse_args()
    if args.seeds is not None:
        run_sets(args.seeds, args.trace, args.out)
    if args.report:
        return 0 if report(args.report, args.compare) else 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
