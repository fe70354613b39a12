"""Verification pipeline: strong-form residuals, reference errors and
convergence studies over mesh families.

A converged iterate u* is certified in two independent ways.  First, the
strong residual r(x) = (-L u*)(x) - f(u*(x)) is measured in L1 and L2
over the physical domain.  Second, the linear problem -L ubar = f(u*)
is solved with the same constraint handling and the L1/L2 distances
between u* and ubar are reported.  Running both over a family of meshes
and fitting log-log slopes gives the observed convergence orders.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import assembly, fem, mountain_pass
from .errors import ConfigError, NonlocalMPError

__all__ = ["CaseReport", "StudyResult", "residual_norms", "reference_errors",
           "l1_norm_p1", "l2_ratio", "run_single",
           "convergence_study", "fit_orders", "report_line",
           "write_report_csv", "write_plot_data", "REPORT_COLUMNS"]

REPORT_COLUMNS = ("h", "n_dof", "R_L1", "R_L2", "E_L1", "E_L2",
                  "iterations", "wall_time_s")

TRIVIAL_CAPTURE_RATIO = 1e-2


@dataclass
class CaseReport:
    """One row of a convergence table; ``converged``, ``failed`` and
    ``trivial`` follow from ``stop_reason``, ``error`` and ``l2_ratio``."""

    h: float
    n_dof: int
    R_L1: float
    R_L2: float
    E_L1: float
    E_L2: float
    iterations: int
    wall_time_s: float
    error: str = None
    # SolveResult.stop_reason (None when no descent result exists)
    stop_reason: str = None
    # ||u*|| / ||w1||, the ratio ``trivial`` tests (nan when no descent
    # result exists)
    l2_ratio: float = np.nan

    @property
    def converged(self):
        return self.stop_reason == "converged"

    @property
    def failed(self):
        return self.error is not None

    @property
    def trivial(self):
        return self.l2_ratio < TRIVIAL_CAPTURE_RATIO


@dataclass
class StudyResult:
    reports: list
    orders: dict


@dataclass
class SingleRun:
    """Full artifacts of one (spec, h) pipeline run."""

    report: CaseReport
    result: object          # SolveResult or None on a fault
    form: object            # NonlocalForm or None when assembly faulted
    M: np.ndarray           # the dense L2(Omega) mass matrix, all nodes


def residual_norms(form, nl, u):
    """(L1, L2) norms of (-L u)(x) - f(u(x)) over the physical domain.

    The residual is sampled at the assembly Gauss points and integrated
    by the same rule.
    """
    u_full = form.as_full(u)
    r = form.operator_at_omega_quad(u_full) \
        - nl.f(form.values_at_omega_quad(u_full))
    w = form.omega_quad_weights()
    return float(w @ np.abs(r)), float(np.sqrt(max(w @ r**2, 0.0)))


def l1_norm_p1(mesh, values):
    """Exact integral of |v| over the physical domain for P1 nodal values."""
    lo, hi = mesh.interior_range
    va = values[lo:hi]
    vb = values[lo + 1:hi + 1]
    h = mesh.h
    same = va * vb >= 0.0
    trapez = 0.5 * h * (np.abs(va) + np.abs(vb))
    denom = np.abs(va) + np.abs(vb)
    denom = np.where(denom == 0.0, 1.0, denom)
    crossing = 0.5 * h * (va**2 + vb**2) / denom
    return float(np.sum(np.where(same, trapez, crossing)))


def reference_errors(form, M, nl, u,
                     grounding_rel=mountain_pass.SolverConfig.grounding_rel):
    """Solve -L ubar = f(u) with the form's constraints; return the errors.

    Returns (E_L1, E_L2, ubar) where the norms measure u - ubar over the
    physical domain.  The linear solve factors the grounded system once
    by Cholesky (``solve_spd``); it builds no modal basis.
    """
    u_full = form.as_full(u)
    load = form.load_vector(nl.f(form.values_at_omega_quad(u_full)))
    ubar_unknown = form.solve_spd(load, grounding_rel)
    ubar = form.fe(ubar_unknown)
    diff = u_full - ubar.values
    e_l1 = l1_norm_p1(form.mesh, diff)
    e_l2 = float(np.sqrt(max(diff @ M @ diff, 0.0)))
    return e_l1, e_l2, ubar


def l2_ratio(result, M):
    """L2(Omega) norm of the iterate over that of its rescaled initial
    guess, ||u*|| / ||w1||."""
    v = result.solution.values
    return float(np.sqrt(max(v @ M @ v, 0.0))) / result.initial_l2


def run_single(spec, h):
    """Assemble, solve and verify the mesh size h of a run specification.

    A fault of assembly, of the descent (an InvariantViolation included)
    or of verification (``verify: ...``), any NonlocalMPError but a
    ConfigError (which is raised), becomes the row's ``error``, so a study
    goes on to its next row; the norms the fault left unmeasured are NaN.
    """
    t0 = time.perf_counter()
    mesh = spec.build_mesh(h)
    nl = spec.make_nonlinearity()
    # a start that does not fit the mesh, or is zero at every unknown node,
    # is a ConfigError before assembly
    u1 = spec.initial_guess_fe(mesh)
    if not np.any(u1.values[fem.unknown_nodes(mesh, spec.constraint)]):
        raise ConfigError(f"initial_guess {spec.initial_guess!r} is zero at "
                          "every unknown node", key="initial_guess")

    form = result = error = None
    try:
        assemble = (assembly.assemble_dirichlet if spec.constraint
                    == "dirichlet" else assembly.assemble_neumann)
        form = assemble(mesh, spec.make_kernel(), spec.quad_order)
        result = mountain_pass.solve(form, nl, u1, spec.solver_config())
    except ConfigError:
        raise
    except NonlocalMPError as exc:
        error = f"{type(exc).__name__}: {exc}"
    else:
        # named like a fault: readers of the report take the stop from the
        # name that leads the text
        if result.stop_reason == "stall":
            error = (f"StallError: no energy decrease after "
                     f"{mountain_pass.MAX_HALVINGS} halvings at iteration "
                     f"{result.iterations + 1}")
        elif not result.converged:
            error = (f"MaxIterations: no convergence within "
                     f"{spec.max_iterations} iterations")

    n = mesh.n_nodes
    M = fem.add_tridiagonal(np.zeros((n, n)), 1.0,
                            fem.omega_norm_diagonals(mesh)[0])
    R = E = (np.nan, np.nan)
    stop_reason, iterations, ratio = None, 0, np.nan
    if result is not None:
        stop_reason, iterations = result.stop_reason, result.iterations
        ratio = l2_ratio(result, M)
        try:
            R = residual_norms(form, nl, result.solution)
            E = reference_errors(form, M, nl, result.solution,
                                 spec.grounding_rel)[:2]
        except NonlocalMPError as exc:
            error = f"{error} verify: {exc}" if error else f"verify: {exc}"
    report = CaseReport(h=mesh.h, n_dof=mesh.n_elements, R_L1=R[0],
                        R_L2=R[1], E_L1=E[0], E_L2=E[1],
                        iterations=iterations,
                        wall_time_s=time.perf_counter() - t0, error=error,
                        stop_reason=stop_reason, l2_ratio=ratio)
    return SingleRun(report, result, form, M)


def convergence_study(spec):
    """Run the full pipeline for every mesh size of ``spec.h_list`` and fit
    convergence orders.

    Rows that fail propagate their error message in the report and are
    excluded from the order fits, as are trivial-capture rows.
    """
    reports = [run_single(spec, h).report for h in spec.h_list]
    return StudyResult(reports=reports, orders=fit_orders(reports))


def fit_orders(reports):
    """Least-squares log-log slopes of each norm column against h.

    Trivial-capture and failed rows are excluded; a fit needs usable rows
    at 3 or more distinct h, otherwise the order is None.
    """
    orders = {}
    for col in ("R_L1", "R_L2", "E_L1", "E_L2"):
        pts = [(r.h, getattr(r, col)) for r in reports
               if not r.failed and not r.trivial
               and np.isfinite(getattr(r, col)) and getattr(r, col) > 0.0]
        if len({p[0] for p in pts}) < 3:
            orders[col] = None
            continue
        logh = np.log([p[0] for p in pts])
        logv = np.log([p[1] for p in pts])
        slope = np.polyfit(logh, logv, 1)[0]
        orders[col] = float(slope)
    return orders


def report_line(r):
    """One CaseReport as a CSV line of the REPORT_COLUMNS."""
    return (f"{r.h:.10g},{r.n_dof},{r.R_L1:.8g},{r.R_L2:.8g},"
            f"{r.E_L1:.8g},{r.E_L2:.8g},{r.iterations},{r.wall_time_s:.3g}")


def write_report_csv(path, reports):
    """CSV with exactly the table columns of the convergence studies."""
    with open(path, "w") as fh:
        fh.write(",".join(REPORT_COLUMNS) + "\n")
        for r in reports:
            fh.write(report_line(r) + "\n")


def write_plot_data(path, reports):
    """Gnuplot-ready (log10 h, log10 value) pairs, one block per norm."""
    with open(path, "w") as fh:
        for col in ("R_L1", "R_L2", "E_L1", "E_L2"):
            fh.write(f"# {col}: log10(h) log10(value)\n")
            for r in reports:
                v = getattr(r, col)
                if np.isfinite(v) and v > 0.0:
                    fh.write(f"{np.log10(r.h):.8g} {np.log10(v):.8g}\n")
            fh.write("\n")
