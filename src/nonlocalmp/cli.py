"""Command-line entry point.

Runs a single solve or a convergence study from a flat key = value
configuration file or a bundled case preset.  The configuration's
``output.*`` keys name every file a run writes, and the header echoes
them.  Exit codes: 0 converged, 2 trivial-solution capture, 3 a row's
fault (assembly or descent) or unconverged stop, 4 configuration or
usage error, which includes an ``output.*`` path that cannot be written
or a mesh too fine to allocate.  A study runs its rows one after
another in this process; a faulted row does not stop it.
"""

import argparse
import sys

from . import assembly, cases, fem, verify
from .config import parse_config_file, parse_config_text
from .errors import ConfigError

__all__ = ["main"]

EXIT_OK = 0
EXIT_TRIVIAL = 2
EXIT_SOLVER = 3
EXIT_CONFIG = 4


def _build_parser():
    p = argparse.ArgumentParser(
        prog="nonlocalmp",
        description="Mountain-pass descent solver for nonlocal equations "
                    "-Lu = f(x,u) with Dirichlet or Neumann volume "
                    "constraints, plus a residual/error verification "
                    "harness.")
    p.add_argument("--config", metavar="PATH", help="run configuration file")
    p.add_argument("--case", metavar="NAME",
                   help="bundled case preset (see --list-cases)")
    p.add_argument("--list-cases", action="store_true",
                   help="print the bundled case presets and exit")
    return p


def _print_header(spec, out=None):
    out = out if out is not None else sys.stdout
    for key, value in spec.echo_items():
        print(f"# {key} = {value}", file=out)
    kernel = spec.make_kernel()
    d = spec.domain[1] - spec.domain[0]
    # d / d rather than d**2, which overflows for d above about 1e154
    beta_est = 0.5 * kernel.second_moment / d / d
    print(f"# kernel mass = {kernel.total_mass:.6g}, second moment = "
          f"{kernel.second_moment:.6g}", file=out)
    print(f"# coercivity heuristic ~ {beta_est:.3g} "
          f"(second moment / 2 d^2; informational only)", file=out)


def _log_records(result, path):
    lines = ["iteration,energy,grad_norm_h1,t_star,halvings"]
    for r in result.records:
        lines.append(f"{r.iteration},{r.energy:.12g},{r.grad_norm_h1:.8g},"
                     f"{r.t_star:.10g},{r.halvings_used}")
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _exit_code(reports):
    if any(r.failed for r in reports):
        return EXIT_SOLVER
    if any(r.trivial for r in reports):
        return EXIT_TRIVIAL
    return EXIT_OK


def _run_single(spec):
    run = verify.run_single(spec, spec.h)
    r = run.report
    if run.result is not None:
        _log_records(run.result, spec.outputs.get("log"))
        if "solution" in spec.outputs:
            fem.write_function_csv(spec.outputs["solution"],
                                   run.result.solution)
    if "matrix" in spec.outputs and run.form is not None:
        assembly.dump_matrix(spec.outputs["matrix"], run.form)
    print(",".join(verify.REPORT_COLUMNS))
    print(verify.report_line(r))
    if r.failed:
        print(f"solver failure: {r.error}", file=sys.stderr)
    elif r.trivial:
        print("note: converged to the trivial (near-zero) solution",
              file=sys.stderr)
    return _exit_code([r])


def _run_study(spec):
    study = verify.convergence_study(spec)
    print(",".join(verify.REPORT_COLUMNS))
    for r in study.reports:
        print(verify.report_line(r))
    for col, order in study.orders.items():
        shown = "n/a" if order is None else f"{order:.3f}"
        print(f"# fitted order {col}: {shown}")
    report_path = spec.outputs.get("report")
    if report_path:
        verify.write_report_csv(report_path, study.reports)
    plot_path = spec.outputs.get("plot")
    if plot_path:
        verify.write_plot_data(plot_path, study.reports)
    for r in study.reports:
        if r.failed:
            print(f"row h={r.h:.6g} failed: {r.error}", file=sys.stderr)
        elif r.trivial:
            print(f"row h={r.h:.6g} captured the trivial solution",
                  file=sys.stderr)
    return _exit_code(study.reports)


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.list_cases and bool(args.config) == bool(args.case):
            parser.error("exactly one of --config or --case is required "
                         "(or --list-cases)")
    except SystemExit as exc:   # argparse exits 2, the trivial-capture code
        if exc.code == 0:       # --help
            raise
        return EXIT_CONFIG

    if args.list_cases:
        print(cases.list_cases_text())
        return EXIT_OK

    try:
        if args.case:
            spec = parse_config_text(cases.case_config_text(args.case))
        else:
            spec = parse_config_file(args.config)
        _print_header(spec)
        if spec.h_list:
            return _run_study(spec)
        return _run_single(spec)
    except ConfigError as exc:   # also raised mid-run, e.g. by a start CSV
        where = f" (line {exc.line})" if exc.line else ""
        print(f"config error{where}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:   # e.g. the nodes of a mesh too fine
        h = min(spec.h_list or (spec.h,))
        print(f"config error: the mesh of h = {h!r} is too fine to "
              f"allocate: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:       # an output path that cannot be written
        print(f"usage error: cannot write {exc.filename}: {exc.strerror}",
              file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
