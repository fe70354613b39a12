"""The benchmark's workloads: seeded inputs, one timed pass and its checks.

Every workload drives the package the way a user's study does, through
``verify.run_single`` and the package's writers.  Inputs are generated
from the seed before timing starts: seed 0 keeps the bundled presets'
starting functions, and a seed s > 0 adds a low-mode perturbation of
about 1% amplitude drawn from ``numpy.random.default_rng(s)``.  Either
way the start of every row is written as a nodal CSV that the row's
configuration names, so the solver reads only generated inputs.

A pass returns one ``Outcome`` per row.  A row fails on a solver error,
on a trivial capture (none is expected in these rows) or on an output
check it does not pass, including a check of the files the pass wrote;
every failure is listed in ``Outcome.problems`` and no check is skipped.
"""

import math
import os
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from nonlocalmp import assembly, cases, config, fem, verify

# R_L1 of Table 1 by element count, as in the acceptance suite; a case-1
# row must lie within a factor BAND of it.
TABLE1_R_L1 = {20: 0.04657529, 40: 0.03240179, 80: 0.01940995,
               160: 0.01045204, 320: 0.00550846}
BAND = 3.0
# exterior constraint residual allowed per unit of max|u| (acceptance suite)
CONSTRAINT_TOL = 1e-8
PERTURBATION = 0.01
MODES = 4


class Stopwatch:
    """Adds up the seconds spent inside its ``with`` blocks."""

    def __init__(self):
        self.total = 0.0

    def __enter__(self):
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        self.total += perf_counter() - self._t0


@dataclass
class Row:
    label: str
    case: str
    h: float
    n_elements: int
    spec: object            # RunSpec whose initial_guess is the row's CSV
    start_csv: str
    study: str              # rows of one study share their report files


@dataclass
class Plan:
    """Generated inputs of one workload and seed."""

    rows: list
    workdir: str
    problems: list = field(default_factory=list)


@dataclass
class Outcome:
    label: str
    iterations: int = 0
    halvings: int = 0
    ray_evals: int = 0
    stop: str = "no_solve"
    final_grad_norm: float = math.nan
    trivial_ratio: float = math.nan
    trivial: bool = False
    R_L1: float = math.nan
    R_L2: float = math.nan
    E_L1: float = math.nan
    E_L2: float = math.nan
    error: str = None
    problems: list = field(default_factory=list)

    @property
    def failed(self):
        return bool(self.problems)

    def counts(self):
        return (self.label, self.iterations, self.halvings, self.stop)


# -- seeded inputs ------------------------------------------------------------

def preset(case):
    return config.parse_config_text(cases.case_config_text(case))


def seeded_start(spec, mesh, rng):
    """The preset's starting values, perturbed on the domain when rng is set.

    Dirichlet perturbations are sine modes, so the start stays zero at the
    boundary nodes; Neumann ones are cosine modes including the constant.
    """
    values = spec.initial_guess_fe(mesh).values.copy()
    if rng is None:
        return values
    lo, hi = mesh.interior_range
    s = (mesh.nodes[lo:hi + 1] - mesh.nodes[lo]) \
        / (mesh.nodes[hi] - mesh.nodes[lo])
    k = np.arange(MODES)
    if spec.constraint == "dirichlet":
        basis = np.sin(np.pi * np.outer(s, k + 1))
    else:
        basis = np.cos(np.pi * np.outer(s, k))
    p = basis @ rng.standard_normal(MODES)
    values[lo:hi + 1] += (PERTURBATION * np.max(np.abs(values))
                          / np.max(np.abs(p))) * p
    if spec.constraint == "dirichlet":
        values[:lo + 1] = 0.0
        values[hi:] = 0.0
    return values


def write_start(path, nodes, values):
    with open(path, "w") as fh:
        fh.write("x,u\n")
        for x, v in zip(nodes, values):
            fh.write(f"{x:.17g},{v:.17g}\n")


def make_rows(spec, case, h, rng, workdir, mirror=False):
    """Write the start CSV of a row, and of its mirror when asked, and
    parse each row's own configuration.  The mirror starts from the negated
    values and is labelled ``<case>/<elements>/neg``."""
    mesh = spec.build_mesh(h)
    values = seeded_start(spec, mesh, rng)
    label = f"{case}/{mesh.n_elements}"
    problems = []
    if spec.constraint == "dirichlet" and (values[0] != 0.0
                                           or values[-1] != 0.0):
        problems.append(f"{label}: start not zero at the boundary")
    if rng is not None and np.array_equal(
            values, spec.initial_guess_fe(mesh).values):
        problems.append(f"{label}: seeded start equals the preset")
    items = [(k, v) for k, v in spec.echo_items()
             if k not in ("h", "h_list") and not k.startswith("output.")]
    rows = []
    for tag, sign in [("", 1.0), ("/neg", -1.0)] if mirror else [("", 1.0)]:
        path = os.path.join(workdir,
                            (label + tag).replace("/", "-") + "-start.csv")
        write_start(path, mesh.nodes, sign * values)
        text = "".join(f"{k} = {v}\n" for k, v in items
                       if k != "initial_guess")
        text += f"initial_guess = {os.path.relpath(path)}\nh = {h!r}\n"
        rows.append(Row(label + tag, case, h, mesh.n_elements,
                        config.parse_config_text(text), path, case + tag))
    return rows, problems


# -- checks -------------------------------------------------------------------

def _check_values(out, form, u, case, n_elements):
    vals = (out.R_L1, out.R_L2, out.E_L1, out.E_L2)
    if not all(np.isfinite(vals)):
        out.problems.append(f"{out.label}: R or E not finite {vals}")
    ref = TABLE1_R_L1.get(n_elements) if case == "case1" else None
    if ref is not None and not ref / BAND <= out.R_L1 <= ref * BAND:
        out.problems.append(f"{out.label}: R_L1 {out.R_L1:.4g} outside "
                            f"x{BAND:g} of Table 1 ({ref})")
    if form.constraint == "neumann":
        values = form.as_full(u)
        raw, _ = form.exterior_constraint_residual(values)
        if not raw <= CONSTRAINT_TOL * float(np.max(np.abs(values))):
            out.problems.append(f"{out.label}: exterior constraint "
                                f"residual {raw:.3g}")


def solve_outcome(row, run):
    """Counts and checks of one ``verify.run_single`` row."""
    rep, res = run.report, run.result
    out = Outcome(row.label, trivial=rep.trivial, error=rep.error,
                  R_L1=rep.R_L1, R_L2=rep.R_L2, E_L1=rep.E_L1, E_L2=rep.E_L2)
    if rep.error is not None:
        out.problems.append(f"{row.label}: solver error: {rep.error}")
    if rep.trivial:
        out.problems.append(f"{row.label}: trivial capture")
    if res is None:
        out.stop = "error"
        return out
    out.iterations = len(res.records)
    out.halvings = sum(r.halvings_used for r in res.records)
    out.ray_evals = out.iterations + out.halvings + 1
    out.final_grad_norm = float(res.final_grad_norm)
    if res.converged:
        out.stop = "converged"
    else:
        out.stop = {"MaxIterations": "max_iterations",
                    "StallError": "stall"}.get(
            (rep.error or "").split(":")[0], "error")
    v = res.solution.values
    out.trivial_ratio = float(np.sqrt(max(v @ run.M @ v, 0.0))) \
        / res.initial_l2
    energies = [res.initial_energy] + [r.energy for r in res.records]
    if any(b >= a for a, b in zip(energies, energies[1:])):
        out.problems.append(f"{row.label}: energies not strictly decreasing")
    if res.converged and not res.final_grad_norm <= row.spec.epsilon:
        out.problems.append(f"{row.label}: converged with |b|_H1 "
                            f"{res.final_grad_norm:.3g} > epsilon")
    _check_values(out, run.form, res.solution, row.case, row.n_elements)
    return out


def check_report(csv_path, plot_path, reports):
    """The report CSV and plot data hold one line per study row."""
    problems = []
    table = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    want = np.array([[r.h, r.n_dof, r.R_L1, r.R_L2, r.E_L1, r.E_L2,
                      r.iterations] for r in reports])
    if table.shape != (len(reports), len(verify.REPORT_COLUMNS)) \
            or not np.allclose(table[:, :-1], want, rtol=1e-7, atol=0.0,
                               equal_nan=True):
        problems.append(f"{os.path.basename(csv_path)}: report rows "
                        "differ from the study")
    with open(plot_path) as fh:
        blocks = fh.read().split("# ")[1:]
    for col, block in zip(("R_L1", "R_L2", "E_L1", "E_L2"), blocks):
        got = np.array([line.split() for line in block.splitlines()[1:]
                        if line], dtype=float).reshape(-1, 2)
        want = np.array([[np.log10(r.h), np.log10(getattr(r, col))]
                         for r in reports
                         if np.isfinite(getattr(r, col))
                         and getattr(r, col) > 0.0]).reshape(-1, 2)
        if got.shape != want.shape or not np.allclose(got, want, rtol=1e-7,
                                                      atol=1e-7):
            problems.append(f"{os.path.basename(plot_path)}: {col} block "
                            "differs from the study")
    if len(blocks) != 4:
        problems.append(f"{os.path.basename(plot_path)}: {len(blocks)} "
                        "blocks, not 4")
    return problems


def check_written(solution_csv, dump_path, u, form):
    """The solution CSV reads back as ``u``; the dump holds ``form.B``."""
    problems = []
    back = fem.read_function_csv(solution_csv, u.mesh)
    if not np.array_equal(back.values, u.values):
        problems.append(f"{os.path.basename(solution_csv)}: values differ "
                        "from the solution")
    dump = np.loadtxt(dump_path, ndmin=2)
    n, m = form.B.shape
    i, j = np.divmod(np.arange(n * m), m)
    if dump.shape != (n * m, 3) or not (np.array_equal(dump[:, 0], i)
                                        and np.array_equal(dump[:, 1], j)
                                        and np.array_equal(dump[:, 2],
                                                           form.B.ravel())):
        problems.append(f"{os.path.basename(dump_path)}: entries differ "
                        "from the form's B")
    return problems


def _same_run(a, b):
    ra, rb = a.report, b.report
    fields = ("iterations", "R_L1", "R_L2", "E_L1", "E_L2")
    return (all(getattr(ra, f) == getattr(rb, f) for f in fields)
            and a.result is not None and b.result is not None
            and np.array_equal(a.result.solution.values,
                               b.result.solution.values))


def preset_check(row):
    """Seed 0: the generated row must reproduce the bundled preset's row."""
    spec = preset(row.case)
    ours = verify.run_single(row.spec, row.h)
    bundled = verify.run_single(spec, row.h)
    if not _same_run(ours, bundled):
        return [f"{row.label}: seed-0 row differs from the bundled preset"]
    return []


# -- workloads ----------------------------------------------------------------

class Study:
    """Convergence studies: every row through ``verify.run_single``, then
    ``verify.fit_orders`` and the report CSV and plot data per case."""

    def __init__(self, rows, mirror=False):
        self.row_keys = rows            # (case, h)
        self.mirror = mirror

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed) if seed else None
        specs, rows, problems = {}, [], []
        for case, h in self.row_keys:
            if case not in specs:
                specs[case] = preset(case)
            new, bad = make_rows(specs[case], case, h, rng, workdir,
                                 self.mirror)
            rows += new
            problems += bad
        return Plan(rows, workdir, problems)

    def run_pass(self, plan, sw, mark_row):
        outcomes, reports, members = [], {}, {}
        for i, row in enumerate(plan.rows):
            mark_row(i)
            with sw:
                run = verify.run_single(row.spec, row.h)
            outcomes.append(solve_outcome(row, run))
            reports.setdefault(row.study, []).append(run.report)
            members.setdefault(row.study, []).append(outcomes[-1])
        mark_row(-1)
        with sw:
            for study, reps in reports.items():
                verify.fit_orders(reps)
                base = os.path.join(plan.workdir, study.replace("/", "-"))
                verify.write_report_csv(base + "-report.csv", reps)
                verify.write_plot_data(base + "-report.plot", reps)
        for study, reps in reports.items():
            base = os.path.join(plan.workdir, study.replace("/", "-"))
            bad = check_report(base + "-report.csv", base + "-report.plot",
                               reps)
            for out in members[study]:
                out.problems += bad
        return outcomes


class FineCertify:
    """Nested certification on fine meshes with almost no descent.

    Solves case 1 at 80 elements, interpolates u* onto 640 elements and
    certifies it with the Dirichlet form assembled there; then certifies
    the constrained case-5 start on the 641-node extended Neumann mesh.
    (At 1280 elements and 1281 nodes a pass took 10 s, too few passes in
    a run for a steady median.)
    Each certification computes R and E and writes the solution CSV and
    the matrix dump.
    """

    COARSE_ELEMENTS = 80
    FINE_ELEMENTS = 640
    NEUMANN_H = 3.0 / 320

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed) if seed else None
        spec1, spec5 = preset("case1"), preset("case5")
        (coarse,), bad1 = make_rows(spec1, "case1",
                                    2 * math.pi / self.COARSE_ELEMENTS, rng,
                                    workdir)
        (neumann,), bad5 = make_rows(spec5, "case5", self.NEUMANN_H, rng,
                                     workdir)
        return Plan([coarse, neumann], workdir, bad1 + bad5)

    def _certify(self, plan, sw, label, spec, build):
        """Assemble, compute R and E, write outputs; checks run untimed and
        read the written files back."""
        base = os.path.join(plan.workdir, label.replace("/", "-"))
        with sw:
            form, u = build()
            M, _ = fem.omega_norm_matrices(form.mesh)
            nl = spec.make_nonlinearity()
            r1, r2 = verify.residual_norms(form, nl, u)
            e1, e2, _ = verify.reference_errors(form, M, nl, u,
                                                spec.grounding_rel)
            fem.write_function_csv(base + "-solution.csv", u)
            assembly.dump_matrix(base + "-matrix.txt", form)
        out = Outcome(label, R_L1=r1, R_L2=r2, E_L1=e1, E_L2=e2)
        _check_values(out, form, u, None, form.mesh.n_elements)
        out.problems += check_written(base + "-solution.csv",
                                      base + "-matrix.txt", u, form)
        os.remove(base + "-matrix.txt")
        return out

    def run_pass(self, plan, sw, mark_row):
        coarse, neumann = plan.rows
        spec1, spec5 = coarse.spec, neumann.spec
        mark_row(0)
        with sw:
            run = verify.run_single(spec1, coarse.h)
        first = solve_outcome(coarse, run)
        if run.result is None:
            return [first]

        def dirichlet_fine():
            mesh = spec1.build_mesh(2 * math.pi / self.FINE_ELEMENTS)
            u = fem.interpolate(mesh, run.result.solution,
                                constraint="dirichlet")
            form = assembly.assemble_dirichlet(mesh, spec1.make_kernel(),
                                               spec1.quad_order)
            return form, u

        def neumann_fine():
            mesh = spec5.build_mesh(neumann.h)
            start = fem.read_function_csv(neumann.start_csv, mesh)
            form = assembly.assemble_neumann(mesh, spec5.make_kernel(),
                                             spec5.quad_order)
            return form, form.fe(form.reduce(start))

        mark_row(1)
        second = self._certify(plan, sw, f"case1/{self.FINE_ELEMENTS}",
                               spec1, dirichlet_fine)
        mark_row(2)
        third = self._certify(plan, sw, neumann.label, spec5, neumann_fine)
        mark_row(-1)
        return [first, second, third]


DIRICHLET_ELEMENTS = (20, 40, 80)

WORKLOADS = {
    # Cases 1-4 start from sin x on a symmetric domain and have an even F,
    # so the seed's perturbation decides the sign of u*; the descent costs
    # up to 1.8x more per ray evaluation on the negative one (numpy's power
    # is slower on negative bases).  Running every row also from the
    # negated start puts both signs in each pass, whatever the seed.
    "dirichlet_study": Study(
        [(case, 2 * math.pi / n) for case in ("case1", "case2", "case3",
                                               "case4")
         for n in DIRICHLET_ELEMENTS], mirror=True),
    "neumann_study": Study([("case5", h) for h in (0.3, 0.15, 0.075)]),
    "fine_certify": FineCertify(),
}
