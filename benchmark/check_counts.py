#!/usr/bin/env python3
"""Check that the benchmark's work counts repeat exactly between runs.

    python3 benchmark/check_counts.py --seed 1

Runs each workload twice with tracing on and compares the counts that a
later change may cite as evidence: outer iterations, ray evaluations,
kernel points and the computed dense-array size.  They depend only on
the seed, the code, the BLAS build and its thread count.  Exits 1 when
any of them differ.
"""

import argparse
import json
import sys
from pathlib import Path

from spread import run_once

COUNTS = ("mountain_pass.iterations", "mountain_pass.ray_evals",
          "kernels.gamma_points", "assembly.dense_mb")


def main():
    root = Path(__file__).resolve().parent.parent
    bench = json.loads((root / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        first, second = (run_once(workload, args.seed, bench["run_seconds"], 1)
                         for _ in range(2))
        for name in COUNTS:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            same = a == b
            ok = ok and same
            print(f"{workload:16s} {name:28s} {a!r:>14} {b!r:>14} "
                  f"{'equal' if same else 'DIFFERENT'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
