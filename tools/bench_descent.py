#!/usr/bin/env python3
"""Import cost and per-row descent counts and seconds of source trees.

    python3 tools/bench_descent.py BENCH_18.json parent=OLD/src change=src

Each LABEL=SRC names a source tree holding the ``nonlocalmp`` package.
For every tree the script runs, in a fresh process with BLAS/OpenMP
threads pinned to 1, the descent of these rows from their preset starts:

- the 15 preset rows of the benchmark studies: cases 1-4 at 20, 40 and
  80 elements and case 5 at h = 0.3, 0.15 and 0.075;
- case 1 at 160, 320 and 640 elements;
- case 4 at 160, 320 and 640 elements and case 2 at 320 and 640
  elements.

Every row runs to its own stop under its preset's solver settings.

It records per row the iterations, the step halvings taken over the
whole descent (the sum of ``halvings_used`` over its records), the stop
reason, the Newton counts of ``SolveResult`` (attempts, full and damped
steps, attempts ended by negative curvature, steps along negative
curvature, Hessian-vector products),
the solve seconds (``SolveResult.wall_time``, which includes building
the modal basis) and the microseconds per iteration.  Trees take turns, one process per
tree and repeat; the counts must repeat exactly.  Per row it keeps the
median seconds over ``--repeats`` and the minimum microseconds per
iteration (``us_per_iteration_min``).  On a shared machine other load
only ever adds time, and the median of a few repeats can move by 40%
between runs of one tree.  The minimum is steadier on the long rows, but
a row of about 10 ms or less is short enough that one scheduler stall is
a large share of every repeat: on a shared 2-core VM, two 5-repeat runs
of one tree read 107 and 184 us per iteration on case3/20.  On such rows
the minimum backs no claim.  The environment record comes from
``benchmark/run.py``.

The per-iteration cost without the basis build comes from one more
process per tree (``measure_iteration``): per row it solves once, which
builds and caches the form's modal basis, then ``ITERATION_REPEATS``
times more on that form, and records the minimum microseconds per
iteration of those solves (``us_per_iteration_cached_min``).

Where a descent stops moves with round-off, so one process per tree
also runs every row from ``ROUNDOFF_STARTS`` starts whose nodal values
are scaled by 1 + 1e-13 z (z standard normal, seeds 1, 2, ...) and
records the spread (min, median, max) of the iterations and halvings
over those starts and the preset's.  A change of counts between trees
that stays inside both trees' spreads is round-off, not a gain or loss.

Before the descent it times ``import nonlocalmp`` in fresh processes,
``IMPORT_REPEATS`` per tree with the trees taking turns, and records
the median seconds of the import itself, the median peak RSS after it
and the number of modules it loads.

It also times the form's two dense factorizations per call, best of
``LINALG_REPEATS``, on the case-1 forms of 80, 320 and 640 elements
(79, 319 and 639 unknowns): ``modal_basis`` (the generalized
eigendecomposition) and ``solve_spd`` with one right-hand side
(Cholesky factor and solve), each on a fresh copy of the form so that
no cached factor is reused.  In the same way it times assembly:
``assemble_dirichlet`` on the case-1 meshes of 80, 320 and 640 elements
and ``assemble_neumann`` on the case-5 mesh of h = 3/320 (641 nodes),
and ``operator_at_omega_quad`` on each of those forms.  The result is
written as JSON to OUT.

Each measurement is one function of this file, run in the tree's
process by ``python -c`` (``CHILD``); ``compare_trees.py`` runs its
digests the same way, on the same preset rows.  To run one by hand:

    PYTHONPATH=src:tools python3 -c \
        'import json, bench_descent as b; print(json.dumps(b.measure_linalg()))'
"""

import argparse
import functools
import importlib.util
import json
import math
import os
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
IMPORT_REPEATS = 9
LINALG_REPEATS = 7
ITERATION_REPEATS = 7
ROUNDOFF_STARTS = 4
# run by ``python -c`` so that nothing but the interpreter precedes the import
IMPORT_PROBE = """
import json, resource, sys, time
before = len(sys.modules)
t0 = time.perf_counter()
import nonlocalmp
print(json.dumps({"import_s": time.perf_counter() - t0,
                  "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                  / 1024.0,
                  "modules": len(sys.modules) - before}))
"""
# run by ``python -c`` in a tree's process: a tool's function, as JSON
CHILD = ("import json, sys; sys.path.insert(0, {tools!r}); import {tool}; "
         "print(json.dumps({tool}.{function}()))")
# the SolveResult fields of the Newton counts of a descent
NEWTON_COUNTS = ("newton_attempts", "newton_steps", "newton_damped",
                 "newton_negative_curvature", "curvature_steps",
                 "cg_products")
# the record keys that must repeat exactly between runs of one tree
COUNT_KEYS = ("row", "iterations", "halvings", "stop_reason") + NEWTON_COUNTS
# (label, case, n_elements or h) of the 15 rows of the benchmark studies
PRESET_ROWS = ([(f"{case}/{n}", case, n)
                for case in ("case1", "case2", "case3", "case4")
                for n in (20, 40, 80)]
               + [(f"case5/h={h:g}", "case5", h) for h in (0.3, 0.15, 0.075)])


@functools.cache
def benchmark_run():
    """benchmark/run.py as a module (its main runs only as a script)."""
    spec = importlib.util.spec_from_file_location(
        "benchmark_run", TOOLS.parent / "benchmark" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def rows():
    """(label, case, n_elements or h): the preset rows and eight fine
    ones."""
    return (PRESET_ROWS + [(f"case1/{n}", "case1", n) for n in (160, 320, 640)]
            + [(f"case4/{n}", "case4", n) for n in (160, 320, 640)]
            + [(f"case2/{n}", "case2", n) for n in (320, 640)])


def row_spec(case, size):
    """(spec, h) of a preset row: ``size`` is the element count on the
    Dirichlet presets and the spacing h otherwise."""
    from nonlocalmp import cases, config

    spec = config.parse_config_text(cases.case_config_text(case))
    return spec, size if spec.constraint == "neumann" else 2 * math.pi / size


def _row_setup(case, size):
    """(spec, mesh, assemble) of a preset row."""
    import nonlocalmp as nm

    spec, h = row_spec(case, size)
    assemble = nm.assemble_dirichlet if spec.constraint == "dirichlet" \
        else nm.assemble_neumann
    return spec, spec.build_mesh(h), assemble


def _preset(case, size):
    """(form, nonlinearity, start, solver config) of a preset row."""
    spec, mesh, assemble = _row_setup(case, size)
    form = assemble(mesh, spec.make_kernel(), spec.quad_order)
    return (form, spec.make_nonlinearity(), spec.initial_guess_fe(mesh),
            spec.solver_config())


def _descend(form, nl, start, cfg):
    import nonlocalmp as nm

    result = nm.mountain_pass.solve(form, nl, start, cfg)
    return result, sum(r.halvings_used for r in result.records)


def measure():
    """Run every row on the importable package; one record per row."""
    from nonlocalmp.errors import ExtensionMarginWarning

    warnings.simplefilter("ignore", ExtensionMarginWarning)
    records = []
    for label, case, size in rows():
        form, nl, start, cfg = _preset(case, size)
        result, halvings = _descend(form, nl, start, cfg)
        records.append({"row": label, "unknowns": int(form.n_unknowns),
                        "iterations": result.iterations,
                        "halvings": halvings,
                        "stop_reason": result.stop_reason,
                        **{key: getattr(result, key)
                           for key in NEWTON_COUNTS},
                        "solve_s": result.wall_time})
    return records


def measure_iteration():
    """Per row, the minimum microseconds per iteration over
    ``ITERATION_REPEATS`` solves on a form whose modal basis an earlier
    solve built and cached."""
    from nonlocalmp.errors import ExtensionMarginWarning

    warnings.simplefilter("ignore", ExtensionMarginWarning)
    records = []
    for label, case, size in rows():
        form, nl, start, cfg = _preset(case, size)
        result = _descend(form, nl, start, cfg)[0]
        seconds = [_descend(form, nl, start, cfg)[0].wall_time
                   for _ in range(ITERATION_REPEATS)]
        records.append({"row": label, "iterations": result.iterations,
                        "us_per_iteration_cached_min":
                            1e6 * min(seconds) / max(result.iterations, 1)})
    return records


def measure_spread():
    """Per row, (min, median, max) iterations and halvings over the preset
    start and ``ROUNDOFF_STARTS`` starts perturbed at round-off level."""
    import numpy as np

    import nonlocalmp as nm
    from nonlocalmp.errors import ExtensionMarginWarning

    warnings.simplefilter("ignore", ExtensionMarginWarning)
    records = []
    for label, case, size in rows():
        form, nl, start, cfg = _preset(case, size)
        counts = []
        for seed in range(ROUNDOFF_STARTS + 1):
            values = start.values
            if seed:
                z = np.random.default_rng(seed).standard_normal(values.size)
                values = values * (1.0 + 1e-13 * z)
            result, halvings = _descend(form, nl,
                                        nm.FeFunction(form.mesh, values), cfg)
            counts.append((result.iterations, halvings))
        its, halv = zip(*counts)
        records.append({"row": label,
                        "iterations": [min(its), statistics.median(its),
                                       max(its)],
                        "halvings": [min(halv), statistics.median(halv),
                                     max(halv)],
                        "iterations_per_start": list(its)})
    return records


def measure_linalg():
    """Best-of-``LINALG_REPEATS`` milliseconds of the form's modal basis
    and Cholesky solve, per size, on the importable package."""
    import copy

    import numpy as np

    import nonlocalmp as nm

    rel = nm.mountain_pass.SolverConfig.grounding_rel
    records = []
    for n in (80, 320, 640):
        mesh = nm.build_mesh(-math.pi, math.pi, 2 * math.pi / n)
        form = nm.assemble_dirichlet(mesh, nm.Exponential())
        rhs = np.ones(form.n_unknowns)
        record = {"unknowns": int(form.n_unknowns)}
        # each call on a fresh copy of the form: no cached factor is reused
        record["basis_ms"] = _best_ms(
            lambda: copy.copy(form).modal_basis(rel))
        record["spd_solve_ms"] = _best_ms(
            lambda: copy.copy(form).solve_spd(rhs, rel))
        records.append(record)
    return records


def _best_ms(call):
    times = []
    for _ in range(LINALG_REPEATS):
        t0 = time.perf_counter()
        call()
        times.append(1e3 * (time.perf_counter() - t0))
    return min(times)


def measure_assembly():
    """Best-of-``LINALG_REPEATS`` milliseconds of assembling a form and of
    ``operator_at_omega_quad`` on it, per mesh, on the importable package."""
    import numpy as np

    from nonlocalmp.errors import ExtensionMarginWarning

    warnings.simplefilter("ignore", ExtensionMarginWarning)
    records = []
    for label, case, size in ([(f"case1/{n}", "case1", n)
                               for n in (80, 320, 640)]
                              + [("case5/h=3/320", "case5", 3 / 320)]):
        spec, mesh, assemble = _row_setup(case, size)
        kernel = spec.make_kernel()
        form = assemble(mesh, kernel, spec.quad_order)
        u = form.full_values(np.random.default_rng(0).standard_normal(
            form.n_unknowns))
        records.append({
            "row": label, "nodes": int(mesh.n_nodes),
            "assemble_ms": _best_ms(
                lambda: assemble(mesh, kernel, spec.quad_order)),
            "operator_ms": _best_ms(lambda: form.operator_at_omega_quad(u))})
    return records


def parse_trees(specs):
    """[(label, src)] of LABEL=SRC arguments, None if one has another form."""
    trees = [spec.split("=", 1) for spec in specs]
    return None if any(len(t) != 2 or not all(t) for t in trees) else trees


def child(function, tool="bench_descent"):
    """``python -c`` code printing ``tool.function()`` as JSON."""
    return CHILD.format(tools=str(TOOLS), tool=tool, function=function)


def run_tree(src, code):
    """The JSON printed by ``python -c code`` on the package under ``src``,
    in a fresh process with BLAS/OpenMP threads pinned to 1."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    env.update(dict.fromkeys(benchmark_run().THREAD_VARS, "1"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def summarize_imports(runs):
    """Median import seconds and RSS; the module count must repeat."""
    if len({r["modules"] for r in runs}) != 1:
        raise RuntimeError("import loads a different number of modules "
                           "between repeats")
    return {"import_s": statistics.median(r["import_s"] for r in runs),
            "rss_mb": statistics.median(r["rss_mb"] for r in runs),
            "modules": runs[0]["modules"],
            "import_s_repeats": [r["import_s"] for r in runs],
            "rss_mb_repeats": [r["rss_mb"] for r in runs]}


def summarize(runs):
    """Median seconds over repeats; counts must agree between repeats."""
    rows_out = []
    for per_repeat in zip(*runs):
        first = per_repeat[0]
        for rec in per_repeat[1:]:
            if any(rec[k] != first[k] for k in COUNT_KEYS):
                raise RuntimeError(f"counts differ between repeats on "
                                   f"{first['row']}")
        repeats = [r["solve_s"] for r in per_repeat]
        solve_s = statistics.median(repeats)
        per_it = 1e6 / max(first["iterations"], 1)
        rows_out.append(dict(first, solve_s=solve_s,
                             us_per_iteration=per_it * solve_s,
                             us_per_iteration_min=per_it * min(repeats),
                             solve_s_repeats=repeats))
    return rows_out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("out")
    p.add_argument("trees", nargs="+", metavar="LABEL=SRC")
    p.add_argument("--repeats", type=int, default=3)
    args = p.parse_args(argv)
    trees = parse_trees(args.trees)
    if not trees:
        p.error("trees are given as LABEL=SRC")
    os.environ.update(dict.fromkeys(benchmark_run().THREAD_VARS, "1"))
    imports = {label: [] for label, _ in trees}
    for _ in range(IMPORT_REPEATS):
        for label, src in trees:
            imports[label].append(run_tree(src, IMPORT_PROBE))
    linalg, assembly, spreads, per_iteration = (
        {label: run_tree(src, child(function)) for label, src in trees}
        for function in ("measure_linalg", "measure_assembly",
                         "measure_spread", "measure_iteration"))
    runs = {label: [] for label, _ in trees}
    for _ in range(args.repeats):
        for label, src in trees:
            runs[label].append(run_tree(src, child("measure")))
    record = {
        "what": "import nonlocalmp, assembly and factorization times and "
                "descent of preset rows, per source tree",
        "repeats": args.repeats,
        "import_repeats": IMPORT_REPEATS,
        "environment": benchmark_run().environment(),
        "imports": {label: summarize_imports(r)
                    for label, r in imports.items()},
        "linalg": linalg,
        "assembly": assembly,
        "spreads": spreads,
        "per_iteration": per_iteration,
        "trees": {label: summarize(r) for label, r in runs.items()},
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    for label, rows_out in record["trees"].items():
        imp = record["imports"][label]
        print(f"{label}: import {imp['import_s']:.3f} s, "
              f"{imp['rss_mb']:.1f} MiB, {imp['modules']} modules")
        for r in record["linalg"][label]:
            print(f"  {r['unknowns']:>4} unknowns: basis "
                  f"{r['basis_ms']:.1f} ms, SPD solve "
                  f"{r['spd_solve_ms']:.2f} ms")
        for r in record["assembly"][label]:
            print(f"  {r['row']:<14} assemble {r['assemble_ms']:.1f} ms, "
                  f"-Lu at the Gauss points {r['operator_ms']:.2f} ms")
        for r in record["spreads"][label]:
            print(f"  {r['row']:<32} iterations (min, median, max) "
                  f"{r['iterations']}, halvings {r['halvings']}")
        cached = {r["row"]: r["us_per_iteration_cached_min"]
                  for r in record["per_iteration"][label]}
        for r in rows_out:
            print(f"  {r['row']:<32} {r['iterations']:>6} it "
                  f"{r['halvings']:>6} halvings {r['cg_products']!s:>5} "
                  f"products {r['solve_s']:8.3f} s "
                  f"{r['us_per_iteration']:7.0f} us/it "
                  f"(min {r['us_per_iteration_min']:.0f}, cached basis "
                  f"{cached[r['row']]:.0f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
