#!/usr/bin/env python3
"""Benchmark of the nonlocalmp package: one workload per run.

Run from the repository root:

    python3 benchmark/run.py --workload dirichlet_study --seed 1 \\
        --seconds 30 --trace 0

The package is imported from ``src/`` of the same checkout, with
BLAS/OpenMP threads pinned to 1 before numpy is imported.  The run
generates the workload's inputs from the seed, repeats timed passes for
about ``--seconds`` (at least one pass; each pass runs every row of the
workload once, one after the other), checks every output, writes a
result file with the environment under ``.bench_out/results/`` and
prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``.  With ``--trace 1`` the first half of the time runs
untraced passes and the second half traced ones; the metrics are then the
per-layer ones, taken from spans recorded around the package's functions
(see ``tracing.py``), plus the tracing overhead.  The spans of the last
traced pass are written to ``.bench_out/spans/<workload>.npz``.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR",
                   help="only time imports and input generation into DIR")
    return p.parse_args(argv)


# -- environment record -------------------------------------------------------

def _git_commit():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version,
        "platform": platform.platform(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": blas.get("openblas configuration")},
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
    }


# -- passes -------------------------------------------------------------------

# seconds of the timed blocks, row outcomes, per-layer metrics (traced
# passes only), peak resident MiB of the process when the pass ended
Pass = namedtuple("Pass", "seconds outcomes layers peak_rss_mb")


def run_passes(workloads, workload, plan, budget, tracer=None,
               layer_metrics=None):
    """Timed passes until the next one would overrun ``budget`` seconds.

    Returns a list of ``Pass``.
    """
    passes = []
    begin = time.perf_counter()
    while True:
        sw = workloads.Stopwatch()
        if tracer is not None:
            tracer.clear()
            mark_row = lambda i: setattr(tracer, "row", i)  # noqa: E731
        else:
            mark_row = lambda i: None  # noqa: E731
        outcomes = workload.run_pass(plan, sw, mark_row)
        layers = layer_metrics(tracer, outcomes) if tracer else None
        passes.append(Pass(sw.total, outcomes, layers, _peak_rss_mb()))
        elapsed = time.perf_counter() - begin
        if elapsed + statistics.median(p.seconds for p in passes) > budget:
            return passes


def probe_setup(args, workdir, plan):
    """Set-up seconds of fresh processes; also checks inputs are seeded."""
    samples, problems = [], []
    for i in range(SETUP_PROBES):
        pdir = workdir / f"probe{i}"
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-probe", str(pdir)],
            capture_output=True, text=True, timeout=170, cwd=os.getcwd())
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-2000:]}")
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
        for row in plan.rows:
            twin = pdir / Path(row.start_csv).name
            if twin.read_bytes() != Path(row.start_csv).read_bytes():
                problems.append(f"{row.label}: same seed gave other inputs")
        shutil.rmtree(pdir, ignore_errors=True)
    return samples, problems


def _median(values):
    values = [v for v in values if v is not None and math.isfinite(v)]
    return statistics.median(values) if values else 0.0


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(passes, setup_samples):
    last = passes[-1].outcomes
    r_l1 = [o.R_L1 for o in last if math.isfinite(o.R_L1) and o.R_L1 > 0]
    return {
        "wall_s": statistics.median(p.seconds for p in passes),
        "setup_s": statistics.median(setup_samples),
        # after the first pass, as in a one-study process: later passes
        # can raise it by heap fragmentation, and their number varies
        "peak_rss_mb": passes[0].peak_rss_mb,
        "iterations": sum(o.iterations for o in last),
        "rows_passed_frac": 1.0 - sum(o.failed for o in last) / len(last),
        "residual_l1_gmean": math.exp(statistics.fmean(map(math.log, r_l1)))
        if r_l1 else 0.0,
    }


def per_layer(tracing):
    """Builds the function that turns one traced pass into layer metrics."""

    def metrics(tracer, outcomes):
        s = tracing.SpanSummary(tracer)
        it = sum(o.iterations for o in outcomes)
        evals = sum(o.ray_evals for o in outcomes)
        solve_s = s.seconds("mountain_pass.solve")
        stops = [o.stop for o in outcomes]
        fem_setup = ("fem.build_mesh", "fem.build_extended_mesh",
                     "fem.omega_norm_matrices", "fem.interpolate",
                     "fem.step_function", "fem.read_function_csv")
        return {
            "kernels.gamma_calls": s.count("kernels.gamma"),
            "kernels.gamma_points": s.work("kernels.gamma"),
            "kernels.gamma_s": s.seconds("kernels.gamma"),
            "kernels.self_s": s.layer_self("kernels"),
            "fem.setup_s": s.outside(fem_setup, ("fem", "assembly")),
            "fem.write_s": s.seconds("fem.write_function_csv"),
            "fem.bytes_written": s.work("fem.write_function_csv"),
            "fem.self_s": s.layer_self("fem"),
            "assembly.assemble_s": s.seconds("assembly.assemble"),
            "assembly.dense_mb": s.work("assembly.assemble", "max"),
            "assembly.operator_quad_s":
                s.seconds("assembly.operator_at_omega_quad"),
            "assembly.dump_s": s.seconds("assembly.dump_matrix"),
            "assembly.dump_bytes": s.work("assembly.dump_matrix"),
            "assembly.quad_values_calls":
                s.count("assembly.values_at_omega_quad"),
            "assembly.quad_values_s":
                s.seconds("assembly.values_at_omega_quad"),
            "assembly.load_vector_calls": s.count("assembly.load_vector"),
            "assembly.load_vector_s": s.seconds("assembly.load_vector"),
            "assembly.full_values_s": s.seconds("assembly.full_values"),
            "assembly.solve_spd_calls": s.count("assembly.solve_spd"),
            "assembly.solve_spd_s": s.seconds("assembly.solve_spd"),
            "assembly.cholesky_factorizations": s.count("linalg.cho_factor"),
            "assembly.cholesky_solves": s.count("linalg.cho_solve"),
            "assembly.cholesky_solve_s": s.seconds("linalg.cho_solve"),
            "assembly.self_s": s.layer_self("assembly"),
            "energy.moments_calls": s.count("energy.moments"),
            "energy.moments_s": s.seconds("energy.moments"),
            "energy.gradient_calls": s.count("energy.gradient"),
            "energy.gradient_s": s.seconds("energy.gradient"),
            "energy.t_star_calls": s.count("energy.t_star"),
            "energy.t_star_s": s.seconds("energy.t_star"),
            "energy.ray_energy_s": s.seconds("energy.ray_energy"),
            "energy.self_s": s.layer_self("energy"),
            "mountain_pass.solve_s": solve_s,
            "mountain_pass.self_s": s.layer_self("mountain_pass"),
            "mountain_pass.direction_solve_s":
                s.under("linalg.cho_solve", "mountain_pass.solve"),
            "mountain_pass.iterations": it,
            "mountain_pass.ray_evals": evals,
            "mountain_pass.halvings": sum(o.halvings for o in outcomes),
            "mountain_pass.accept_ratio": it / evals if evals else 0.0,
            "mountain_pass.us_per_ray_eval":
                1e6 * solve_s / evals if evals else 0.0,
            "mountain_pass.stop_converged": stops.count("converged"),
            "mountain_pass.stop_max_iterations":
                stops.count("max_iterations"),
            "mountain_pass.stop_stall": stops.count("stall"),
            "mountain_pass.final_grad_norm_max":
                max((o.final_grad_norm for o in outcomes
                     if math.isfinite(o.final_grad_norm)), default=0.0),
            "verify.residual_s": s.seconds("verify.residual_norms"),
            "verify.reference_s": s.seconds("verify.reference_errors"),
            "verify.trivial_ratio_min":
                min((o.trivial_ratio for o in outcomes
                     if math.isfinite(o.trivial_ratio)), default=0.0),
            "verify.report_write_s": s.seconds("verify.write_report"),
            "verify.self_s": s.layer_self("verify"),
        }

    return metrics


def count_problems(passes):
    first = [o.counts() for o in passes[0].outcomes]
    if any([o.counts() for o in p.outcomes] != first for p in passes[1:]):
        return ["row counts differ between passes of one run"]
    return []


# -- main ---------------------------------------------------------------------

def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "nonlocalmp" / "__init__.py").is_file():
        print(f"error: package source {SRC / 'nonlocalmp'} not found; run "
              "from a full checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:                 # before numpy is imported
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import nonlocalmp
    import tracing
    import workloads
    from nonlocalmp.errors import ExtensionMarginWarning
    if Path(nonlocalmp.__file__).resolve().parent != SRC / "nonlocalmp":
        print(f"error: nonlocalmp imported from {nonlocalmp.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    # case 5's margin is below the kernel's truncation radius by design
    warnings.simplefilter("ignore", ExtensionMarginWarning)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    if args.setup_probe:
        os.makedirs(args.setup_probe, exist_ok=True)
        workload.setup(args.seed, args.setup_probe)
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / "work" / f"{run_id}-{os.getpid()}"
    (workdir / "main").mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    try:
        if tracer:
            tracer.install()
        plan = workload.setup(args.seed, str(workdir / "main"))
        problems = list(plan.problems)
        setup_samples = []
        if tracer:
            parse_s = tracing.SpanSummary(tracer).seconds(
                "config.parse_config_text")
            tracer.uninstall()
        else:
            setup_samples, bad = probe_setup(args, workdir, plan)
            problems += bad
        budget = args.seconds / 2 if tracer else args.seconds
        passes = run_passes(workloads, workload, plan, budget)
        traced = []
        if tracer:
            tracer.install()
            traced = run_passes(workloads, workload, plan, budget, tracer,
                                per_layer(tracing))
            tracer.uninstall()
            (OUT / "spans").mkdir(parents=True, exist_ok=True)
            tracer.save(OUT / "spans" / f"{args.workload}.npz")
        if args.seed == 0:
            problems += workloads.preset_check(plan.rows[0])
        problems += count_problems(passes + traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    all_passes = passes + traced
    outcomes = [o for p in all_passes for o in p.outcomes]
    problems += [msg for o in outcomes for msg in o.problems]
    if tracer:
        layer_runs = [p.layers for p in traced]
        metrics = {k: _median(r[k] for r in layer_runs) for k in layer_runs[0]}
        untraced_s = statistics.median(p.seconds for p in passes)
        traced_s = statistics.median(p.seconds for p in traced)
        metrics.update({
            "config.parse_s": parse_s,
            "trace.untraced_wall_s": untraced_s,
            "trace.traced_wall_s": traced_s,
            "trace.overhead_frac": traced_s / untraced_s - 1.0,
        })
    else:
        metrics = end_to_end(passes, setup_samples)

    units = {m["name"]: m["unit"] for m in wanted}
    if set(units) != set(metrics):
        print(f"error: metrics {sorted(set(units) ^ set(metrics))} do not "
              "match BENCHMARK.json", file=sys.stderr)
        return 3

    last = all_passes[-1].outcomes
    failed_rows = [o for o in last if o.failed]
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(),
        "passes": [{"seconds": p.seconds, "peak_rss_mb": p.peak_rss_mb,
                    "traced": i >= len(passes),
                    "rows": [vars(o) for o in p.outcomes]}
                   for i, p in enumerate(all_passes)],
        "setup_samples_s": setup_samples,
        "not_traced": tracer.not_traced if tracer else [],
        "problems": problems,
        "metrics": metrics,
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    result_path = OUT / "results" / f"{run_id}-{int(time.time())}.json"
    result_path.write_text(json.dumps(record, indent=1, default=str))

    print(f"{args.workload} seed {args.seed}: {len(passes)} untraced and "
          f"{len(traced)} traced pass(es) of {len(last)} rows")
    print(f"rows_failed_frac = {len(failed_rows) / len(last):.6g} "
          f"({len(failed_rows)}/{len(last)} rows per pass)")
    for o in failed_rows:
        print(f"  failed row {o.label}: {o.error or ''} "
              f"{'; '.join(o.problems)}")
    for msg in problems:
        print(f"check failed: {msg}")
    if tracer and tracer.not_traced:
        print("not traced (target missing): " + ", ".join(tracer.not_traced))
    for name in units:
        print(f"  {name:36s} {metrics[name]:.6g} {units[name]}")
    print(f"result file: {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
