#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 benchmark/spread.py --workload neumann_study --seeds 1 2 3 4 5

For every metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound from ``BENCHMARK.json``.  Runs are made one after the
other, with the settings of ``BENCHMARK.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "benchmark" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    args = p.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = bench["end_to_end"]
    values = {m["name"]: [] for m in declared}
    for seed in args.seeds:
        out = run_once(args.workload, seed, bench["run_seconds"], 0)
        print(f"seed {seed}: correct={out['correct']} "
              f"attempted={out['attempted']} failed={out['failed']} "
              + " ".join(f"{k}={v['value']:.6g}"
                         for k, v in out["metrics"].items()), flush=True)
        for name in values:
            values[name].append(out["metrics"][name]["value"])
    worst = 0.0
    for m in declared:
        vals = values[m["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        worst = max(worst, spread / m["bound"])
        print(f"{m['name']:36s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
              f"spread {spread:.4f} bound {m['bound']:g}, "
              f"spread/bound {spread / m['bound']:.2f}")
    print(f"largest spread/bound: {worst:.2f}")


if __name__ == "__main__":
    main()
