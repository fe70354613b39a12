import io
import math
import re
import warnings

import numpy as np
import pytest

import nonlocalmp as nm
from nonlocalmp import assembly, cli, fem, verify
from nonlocalmp import mountain_pass as mp
from nonlocalmp.cases import CASE_NAMES, case_config_text
from nonlocalmp.config import RunSpec, parse_config_text
from nonlocalmp.errors import (ConfigError, ExtensionMarginWarning,
                               SingularSystem)
from nonlocalmp.mountain_pass import SolverConfig

from conftest import h_for

FAST_CFG = f"""
# coarse, fast single run
domain.left = {-math.pi!r}
domain.right = {math.pi!r}
constraint = dirichlet
kernel = exponential
kernel.scale = 1.0
nonlinearity = cubic
initial_guess = sine
epsilon = 1e-3
delta = 1.0
h = {h_for(20)!r}
"""
STUDY_H_LIST = f"h_list = {h_for(10)!r} {h_for(14)!r} {h_for(20)!r}"


def test_list_cases(capsys):
    assert cli.main(["--list-cases"]) == 0
    out = capsys.readouterr().out
    assert "case1" in out and "Table 1" in out
    assert "case5" in out and "Neumann" in out
    assert "extended domain" in out and "(-1.5,4.5)" in out
    assert sum(out.count(name) for name in CASE_NAMES) == len(CASE_NAMES)


def test_requires_exactly_one_source(capsys):
    assert cli.main([]) == 4
    assert cli.main(["--config", "x.cfg", "--case", "case1"]) == 4


def test_missing_config_file():
    assert cli.main(["--config", "/nonexistent/path.cfg"]) == 4


def test_malformed_kernel_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("kernel = sombrero\nh = 0.3\n")
    assert cli.main(["--config", str(cfg)]) == 4
    assert "kernel" in capsys.readouterr().err


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("h = 0.3\nfrobnicate = 1\n")
    assert cli.main(["--config", str(cfg)]) == 4
    err = capsys.readouterr().err
    assert "frobnicate" in err and "line 2" in err


# malformed configurations: (FAST_CFG line, its replacement, the one
# line printed)
MALFORMED = {
    "nonlinearity=foo": ("nonlinearity = cubic", "nonlinearity = foo",
                         "config error: unknown nonlinearity 'foo'"),
    "no_mesh_size": (f"h = {h_for(20)!r}", "",
                     "config error: one of h or h_list is required"),
    "h_and_h_list": (f"h = {h_for(20)!r}", f"h = {h_for(20)!r}\n"
                     f"{STUDY_H_LIST}",
                     "config error: h and h_list are mutually exclusive"),
    "empty_domain": (f"domain.right = {math.pi!r}",
                     f"domain.right = {-math.pi!r}",
                     "config error: domain.right must exceed domain.left"),
    "step(x,2)": ("initial_guess = sine", "initial_guess = step(x,2)",
                  "config error: malformed step bounds in 'step(x,2)'"),
    "empty_value": ("kernel.scale = 1.0", "kernel.a =",
                    "config error (line 7): empty value for 'kernel.a' on "
                    "line 7"),
    # the halving budget is a constant of the solver, not a setting
    "solver.max_halvings": ("delta = 1.0", "solver.max_halvings = 60",
                            "config error (line 11): unknown key "
                            "'solver.max_halvings' on line 11"),
}


@pytest.mark.parametrize("old,new,line", MALFORMED.values(),
                         ids=list(MALFORMED))
def test_malformed_config_exits_4(tmp_path, capsys, old, new, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(FAST_CFG.replace(f"\n{old}\n", f"\n{new}\n"))
    assert cli.main(["--config", str(cfg)]) == 4
    assert capsys.readouterr().err == line + "\n"


def test_kernel_param_mismatch_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("kernel = exponential\nkernel.p = 4.0\nh = 0.3\n")
    assert cli.main(["--config", str(cfg)]) == 4


def test_single_run_outputs(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    out_csv = tmp_path / "solution.csv"
    log_csv = tmp_path / "log.csv"
    mat = tmp_path / "B.txt"
    cfg.write_text(FAST_CFG + f"output.solution = {out_csv}\n"
                   f"output.log = {log_csv}\noutput.matrix = {mat}\n")
    assert cli.main(["--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "h,n_dof,R_L1,R_L2,E_L1,E_L2,iterations,wall_time_s" in out
    assert "iteration,energy" not in out
    # the header names every file the run writes
    for key, path in (("log", log_csv), ("matrix", mat),
                      ("solution", out_csv)):
        assert f"# output.{key} = {path}\n" in out

    mesh = nm.build_mesh(-math.pi, math.pi, h_for(20))
    u = fem.read_function_csv(out_csv, mesh)
    assert np.max(np.abs(u.values)) > 0.1

    log_lines = log_csv.read_text().splitlines()
    assert log_lines[0] == "iteration,energy,grad_norm_h1,t_star,halvings"
    energies = [float(l.split(",")[1]) for l in log_lines[1:]]
    assert all(b < a for a, b in zip(energies, energies[1:]))

    assert len(mat.read_text().splitlines()) == 19 * 19


def test_log_streams_to_stdout(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(FAST_CFG)
    assert cli.main(["--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "iteration,energy,grad_norm_h1,t_star,halvings" in out


# every key of the format but the other kernels' parameters: a study and
# a single run, which differ in the mesh key and the outputs they accept
ALL_KEYS_STUDY = """
domain.left = -1.0
domain.right = 2.5
constraint = neumann
neumann.extension = 1.25
kernel = mexican_hat
kernel.a = 0.5
kernel.b = 1.5
kernel.A = 1.0
kernel.B = 2.0
nonlinearity = allen_cahn
h_list = 0.5 0.25 0.125
epsilon = 0.002
delta = 0.5
initial_guess = step(0,1)
quad_order = 5
solver.max_iterations = 500
solver.grounding_rel = 0.001
solver.direction_reg = 0.5
output.report = rep.csv
output.plot = rep.plot
"""
ALL_KEYS_SINGLE = ALL_KEYS_STUDY.replace(
    "h_list = 0.5 0.25 0.125", "h = 0.5").replace(
    "output.report = rep.csv\noutput.plot = rep.plot",
    "output.solution = u.csv\noutput.log = log.csv\noutput.matrix = B.txt")


def _echoed(out):
    return "\n".join(line[2:] for line in out.splitlines()
                     if line.startswith("# ") and " = " in line
                     and not line.startswith("# kernel mass")
                     and not line.startswith("# coercivity"))


def test_header_echo_roundtrip(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(FAST_CFG)
    assert cli.main(["--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    spec_orig = parse_config_text(FAST_CFG)
    spec_echo = parse_config_text(_echoed(out))
    assert spec_echo == spec_orig

    texts = [case_config_text(name) for name in CASE_NAMES]
    for text in texts + [ALL_KEYS_STUDY, ALL_KEYS_SINGLE]:
        spec_orig = parse_config_text(text)
        header = io.StringIO()
        cli._print_header(spec_orig, header)
        spec_echo = parse_config_text(_echoed(header.getvalue()))
        assert spec_echo == spec_orig


# the kernel lines of each preset's header, as the quadrature-based
# header printed them before the closed-form moments replaced it
KERNEL_HEADER_LINES = {
    "case1": "# kernel mass = 1, second moment = 2\n"
             "# coercivity heuristic ~ 0.0253 "
             "(second moment / 2 d^2; informational only)\n",
    "case2": "# kernel mass = 0.56419, second moment = 1.97466\n"
             "# coercivity heuristic ~ 0.025 "
             "(second moment / 2 d^2; informational only)\n",
    "case3": "# kernel mass = 1, second moment = 0.5\n"
             "# coercivity heuristic ~ 0.00633 "
             "(second moment / 2 d^2; informational only)\n",
    "case4": "# kernel mass = 1, second moment = 0.5\n"
             "# coercivity heuristic ~ 0.00633 "
             "(second moment / 2 d^2; informational only)\n",
    "case5": "# kernel mass = 1, second moment = 2\n"
             "# coercivity heuristic ~ 0.111 "
             "(second moment / 2 d^2; informational only)\n",
}


@pytest.mark.parametrize("name", CASE_NAMES)
def test_header_kernel_lines_pinned(name):
    header = io.StringIO()
    cli._print_header(parse_config_text(case_config_text(name)), header)
    lines = [line for line in header.getvalue().splitlines(keepends=True)
             if line.startswith(("# kernel mass", "# coercivity"))]
    assert "".join(lines) == KERNEL_HEADER_LINES[name]


@pytest.mark.parametrize("name", CASE_NAMES)
def test_bundled_cases_parse(name):
    spec = parse_config_text(case_config_text(name))
    assert spec.h_list and len(spec.h_list) >= 3
    if name == "case5":
        assert spec.constraint == "neumann"
        assert spec.extension == pytest.approx(1.5)
        assert spec.initial_guess == "step(1,2)"
    else:
        assert spec.constraint == "dirichlet"
    assert spec.epsilon == pytest.approx(1e-3)
    assert spec.delta == pytest.approx(1.0)


def test_study_run_writes_report(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(FAST_CFG.replace(f"h = {h_for(20)!r}",
                                    f"{STUDY_H_LIST}\n"
                                    f"output.report = {tmp_path / 'rep.csv'}\n"
                                    f"output.plot = {tmp_path / 'rep.plot'}"))
    code = cli.main(["--config", str(cfg)])
    assert code == 0
    rep = (tmp_path / "rep.csv").read_text().splitlines()
    assert rep[0] == "h,n_dof,R_L1,R_L2,E_L1,E_L2,iterations,wall_time_s"
    assert len(rep) == 4
    out = capsys.readouterr().out
    assert "# fitted order R_L1" in out
    assert (tmp_path / "rep.plot").read_text().count("# ") >= 4


def test_exit_code_mapping():
    from nonlocalmp.verify import CaseReport
    ok = CaseReport(h=0.1, n_dof=1, R_L1=0, R_L2=0, E_L1=0, E_L2=0,
                    iterations=1, wall_time_s=0, stop_reason="converged")
    triv = CaseReport(h=0.1, n_dof=1, R_L1=0, R_L2=0, E_L1=0, E_L2=0,
                      iterations=1, wall_time_s=0, stop_reason="converged",
                      l2_ratio=1e-4)
    bad = CaseReport(h=0.1, n_dof=1, R_L1=0, R_L2=0, E_L1=0, E_L2=0,
                     iterations=1, wall_time_s=0, stop_reason="stall",
                     error="StallError: no energy decrease")
    assert cli._exit_code([ok]) == 0
    assert cli._exit_code([ok, triv]) == 2
    assert cli._exit_code([ok, triv, bad]) == 3


@pytest.mark.parametrize("setting,line", [
    ("solver.max_iterations = 5",
     "solver failure: MaxIterations: no convergence within 5 iterations"),
])
def test_solver_failure_output_pinned(tmp_path, capsys, setting, line):
    # the stop's name leads the error text: benchmark/workloads.py reads
    # its stop label from that prefix
    cfg = tmp_path / "run.cfg"
    cfg.write_text(FAST_CFG + setting + "\n")
    assert cli.main(["--config", str(cfg)]) == 3
    assert capsys.readouterr().err == line + "\n"


def test_stall_output_pinned(tmp_path, capsys, monkeypatch):
    # the halving budget is read when the row runs: with none, the descent
    # stalls at its fourth iteration
    monkeypatch.setattr(mp, "MAX_HALVINGS", 0)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(FAST_CFG)
    assert cli.main(["--config", str(cfg)]) == 3
    assert capsys.readouterr().err == (
        "solver failure: StallError: no energy decrease after 0 halvings "
        "at iteration 4\n")


def test_invariant_violation_is_the_rows_failure(tmp_path, capsys,
                                                 monkeypatch):
    # a step rule whose t* overshoots the ray maximum by 1e-3: the check
    # that every descent makes catches the first accepted step
    step_polynomial = mp.step_polynomial

    def overshooting(*args):
        rays = step_polynomial(*args)

        def shifted(B_step, pw):
            t_steps, e_steps, c_steps = rays(B_step, pw)
            return t_steps * (1.0 + 1e-3), e_steps, c_steps
        return shifted

    monkeypatch.setattr(mp, "step_polynomial", overshooting)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(FAST_CFG)
    assert cli.main(["--config", str(cfg)]) == 3
    assert capsys.readouterr().err == (
        "solver failure: InvariantViolation: iterate left its ray maximum "
        "at iteration 1\n")


def test_verify_fault_is_the_rows_failure(tmp_path, capsys, monkeypatch):
    # the descent converges but the reference resolve fails: R is
    # measured, E is not, and the error is the verify fault alone
    fault = "system not positive definite (grounding shift 0)"

    def singular(self, rhs, grounding_rel):
        raise SingularSystem(fault)

    monkeypatch.setattr(assembly.NonlocalForm, "solve_spd", singular)
    run = verify.run_single(RunSpec(h=h_for(20)), h_for(20))
    r = run.report
    assert run.result.converged and r.failed
    assert r.error == f"verify: {fault}"
    assert np.isfinite([r.R_L1, r.R_L2]).all()
    assert np.isnan([r.E_L1, r.E_L2]).all()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(FAST_CFG)
    assert cli.main(["--config", str(cfg)]) == 3
    assert capsys.readouterr().err == f"solver failure: verify: {fault}\n"


def test_trivial_capture_notes_exit_2(tmp_path, capsys, monkeypatch):
    # a capture ratio above every row's ||u*|| / ||w1|| makes every
    # converged row a trivial capture
    monkeypatch.setattr(verify, "TRIVIAL_CAPTURE_RATIO", math.inf)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(FAST_CFG)
    assert cli.main(["--config", str(cfg)]) == 2
    assert capsys.readouterr().err == \
        "note: converged to the trivial (near-zero) solution\n"
    cfg.write_text(FAST_CFG.replace(f"h = {h_for(20)!r}", STUDY_H_LIST))
    assert cli.main(["--config", str(cfg)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"row h={h_for(n):.6g} captured the trivial solution"
        for n in (10, 14, 20)]


# an inverted Mexican hat under Neumann conditions: from h = 0.3 on, the
# exterior block of the sign-changing kernel is not positive definite
SIGN_CHANGING_NEUMANN = """
domain.left = 0.0
domain.right = 3.0
constraint = neumann
kernel = mexican_hat
kernel.a = 1
kernel.b = 2
kernel.A = 5
kernel.B = 6
nonlinearity = allen_cahn
initial_guess = step(1,2)
"""
EXTERIOR_FAULT = ("SingularExteriorBlock: exterior block not positive "
                  "definite; increase the extension or check the kernel "
                  "sign")


def _rows(out):
    return [line.split(",") for line in out.splitlines()
            if line[:1].isdigit()]


def test_assembly_fault_is_the_rows_failure(tmp_path, capsys):
    # a study goes on past its faulted rows, and a single run prints its
    # row before the fault
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SIGN_CHANGING_NEUMANN + "h_list = 0.6 0.3 0.15\n")
    with pytest.warns(ExtensionMarginWarning):
        assert cli.main(["--config", str(cfg)]) == 3
    out, err = capsys.readouterr()
    rows = _rows(out)
    assert [r[0] for r in rows] == ["0.6", "0.3", "0.15"]
    assert rows[0][6] == "36" and "nan" not in rows[0]
    for r in rows[1:]:
        assert r[2:7] == ["nan"] * 4 + ["0"]
    assert err.splitlines() == [f"row h={h} failed: {EXTERIOR_FAULT}"
                                for h in ("0.3", "0.15")]

    cfg.write_text(SIGN_CHANGING_NEUMANN + "h = 0.3\n"
                   f"output.matrix = {tmp_path / 'B.txt'}\n")
    with pytest.warns(ExtensionMarginWarning):
        assert cli.main(["--config", str(cfg)]) == 3
    out, err = capsys.readouterr()
    assert [r[:7] for r in _rows(out)] == [
        ["0.3", "20"] + ["nan"] * 4 + ["0"]]
    assert err == f"solver failure: {EXTERIOR_FAULT}\n"
    assert not (tmp_path / "B.txt").exists()    # no form to write


def test_last_budgeted_step_that_converges_exits_0(tmp_path, capsys):
    # a budget equal to the default run's iteration count is enough
    cfg = tmp_path / "run.cfg"
    cfg.write_text(FAST_CFG)
    assert cli.main(["--config", str(cfg)]) == 0
    row = capsys.readouterr().out.splitlines()[-1].split(",")
    cfg.write_text(FAST_CFG + f"solver.max_iterations = {row[6]}\n")
    assert cli.main(["--config", str(cfg)]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[-1].split(",")[:7] == row[:7] and err == ""


def test_config_error_reporting():
    with pytest.raises(ConfigError) as info:
        parse_config_text("h = 0.1\nh = 0.2\n")
    assert info.value.line == 2
    with pytest.raises(ConfigError):
        parse_config_text("constraint = mixed\nh = 0.1\n")
    with pytest.raises(ConfigError):
        parse_config_text("h = 0.1\ninitial_guess = parabola\n")
    with pytest.raises(ConfigError):
        parse_config_text("no equals sign here\n")


def test_unknown_case_name(capsys):
    assert cli.main(["--case", "case9"]) == 4
    assert "case9" in capsys.readouterr().err


def test_csv_initial_guess(tmp_path):
    import math
    from nonlocalmp.config import RunSpec

    mesh = nm.build_mesh(-math.pi, math.pi, h_for(20))
    u0 = nm.interpolate(mesh, math.sin, constraint="dirichlet")
    path = tmp_path / "start.csv"
    fem.write_function_csv(path, u0)
    spec = RunSpec(h=h_for(20), initial_guess=str(path))
    u1 = spec.initial_guess_fe(mesh)
    np.testing.assert_allclose(u1.values, u0.values, atol=1e-15)


OUT_OF_RANGE = {
    "epsilon": "-1",
    "quad_order": "1",
    "h_list": f"{h_for(10)!r} {h_for(20)!r}",
    "initial_guess": "missing-start.csv",
    "solver.direction_reg": "-0.5",
    "solver.max_iterations": "0",
    "output.report": "rep.csv",        # a single run writes no report
    "output.plot": "rep.plot",
    "neumann.extension": "2.0",        # a Dirichlet run has no extension
}
NON_FINITE = [("kernel.scale", "nan"), ("domain.right", "inf"),
              ("solver.direction_reg", "inf"), ("delta", "inf"),
              ("epsilon", "inf"), ("kernel.scale", "inf")]
# an integer too large for a float, a delta whose last halved step
# delta * 2**-MAX_HALVINGS underflows to 0, and a kernel whose second
# moment 2 scale**2 overflows
TOO_LARGE = {"max_iterations=10**400": ("solver.max_iterations",
                                        "1" + "0" * 400),
             "delta=1e-310": ("delta", "1e-310"),
             "kernel.scale=1e300": ("kernel.scale", "1e300")}


@pytest.mark.parametrize(
    "key,value", list(OUT_OF_RANGE.items()) + NON_FINITE
    + list(TOO_LARGE.values()),
    ids=list(OUT_OF_RANGE) + [f"{k}={v}" for k, v in NON_FINITE]
    + list(TOO_LARGE))
def test_out_of_range_setting_exits_4(tmp_path, capsys, key, value):
    if key == "initial_guess" or key.startswith("output."):
        value = str(tmp_path / value)
    drop = {key, "h"} if key == "h_list" else {key}
    text = "".join(line + "\n" for line in FAST_CFG.splitlines()
                   if line.split("=")[0].strip() not in drop)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text + f"{key} = {value}\n")
    assert cli.main(["--config", str(cfg)]) == 4
    assert key.split(".")[-1] in capsys.readouterr().err


def test_defaults_have_one_home():
    spec = parse_config_text("kernel = exponential\nh = 0.3\n")
    assert spec == RunSpec(kernel_name="exponential", h=0.3)
    assert spec.solver_config() == SolverConfig()
    assert spec.quad_order == assembly.QUAD_ORDER


BAD_MESH_OR_START = [
    ("h", "0"),
    ("h", "-0.3"),
    ("h", "5"),
    ("h_list", "0.3 0 0.1"),
    # element counts numpy cannot index: 6e300, and inf
    ("h", "1e-300"),
    ("h", "5e-324"),
    ("neumann.extension", "-1"),
    ("initial_guess", "two-rows.csv"),
    ("initial_guess", "header-only.csv"),
    ("initial_guess", "one-column.csv"),
    ("initial_guess", "nan-value.csv"),
    ("initial_guess", "step(2,1)"),     # an empty interval, all-zero start
    # starts that are zero at every unknown node
    ("initial_guess", "step(3.5,4)"),   # beyond the domain
    ("initial_guess", "zeros.csv"),
    # one mesh's start for every row of a study
    ("initial_guess", "study.csv"),
    # single-run outputs on a study, which would ignore them
    ("output.solution", "u.csv"),
    ("output.log", "log.csv"),
    ("output.matrix", "B.txt"),
    # the flags that named them once are unknown: a usage error
    ("--out", "u.csv"),
    ("--log", "log.csv"),
    ("--dump-matrix", "B.txt"),
]
# start CSVs whose shape is wrong or that no study can take: (text, what
# the message says)
BAD_START_CSV = {
    "two-rows.csv": ("x,u\n0.0,0.0\n1.0,0.0\n", "CSV has 2 rows"),
    "header-only.csv": ("x,u\n", "CSV has 0 rows"),
    "one-column.csv": ("x\n0.0\n1.0\n", "CSV has 2 rows"),
    "study.csv": (None, "config error: an initial_guess .csv fits one mesh, "
                        "not every row of h_list\n"),
}


@pytest.mark.parametrize("key,value", BAD_MESH_OR_START,
                         ids=[f"{k}={v}" for k, v in BAD_MESH_OR_START])
def test_bad_mesh_or_start_exits_4(tmp_path, capsys, key, value):
    text, flags = FAST_CFG, []
    if key.startswith(("output.", "--")):
        text = text.replace(f"h = {h_for(20)!r}", STUDY_H_LIST)
        path = str(tmp_path / value)
        if key.startswith("--"):
            flags = [key, path]
        else:
            text += f"{key} = {path}\n"
    elif key == "h_list":
        text = text.replace(f"h = {h_for(20)!r}", f"h_list = {value}")
    elif key == "h":
        text = text.replace(f"h = {h_for(20)!r}", f"h = {value}")
    elif key == "neumann.extension":
        text = text.replace("constraint = dirichlet", "constraint = neumann")
        text += f"neumann.extension = {value}\n"
    elif value.startswith("step("):
        text = text.replace("initial_guess = sine", f"initial_guess = {value}")
    else:
        start = tmp_path / value
        if value in ("nan-value.csv", "zeros.csv", "study.csv"):
            # the run's own node coordinates, every value zero or one value
            # not a number; or the sine start of a single run, given to a
            # study whose last row has that mesh
            u = nm.interpolate(nm.build_mesh(-math.pi, math.pi, h_for(20)),
                               math.sin, constraint="dirichlet")
            if value == "zeros.csv":
                u.values[:] = 0.0
            elif value == "nan-value.csv":
                u.values[5] = np.nan
            else:
                text = text.replace(f"h = {h_for(20)!r}", STUDY_H_LIST)
            fem.write_function_csv(start, u)
        else:
            start.write_text(BAD_START_CSV[value][0])
        text = text.replace("initial_guess = sine", f"initial_guess = {start}")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["--config", str(cfg)] + flags) == 4
    assert not caught
    err = capsys.readouterr().err
    assert key in err
    assert BAD_START_CSV.get(value, ("", ""))[1] in err
    assert ("usage:" in err) == bool(flags)


def test_mesh_too_fine_to_allocate_exits_4(tmp_path, capsys):
    # h passes the index bound, but the nodes alone would take 6.94 EiB:
    # numpy refuses that request at once and allocates nothing
    cfg = tmp_path / "fine.cfg"
    cfg.write_text("domain.left = 0\ndomain.right = 3\nh = 3e-18\n")
    assert cli.main(["--config", str(cfg)]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error: the mesh of h = 3e-18 ")


def test_huge_domain_header_does_not_overflow(tmp_path, capsys):
    # the square of a span above about 1.3e154 overflows a float; the
    # header prints, then the descent stalls at its first iteration
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("domain.left = 0\ndomain.right = 1e200\nh = 1e199\n")
    assert cli.main(["--config", str(cfg)]) == 3
    out = capsys.readouterr()
    assert "# coercivity heuristic ~ 0 " in out.out
    assert "StallError" in out.err


@pytest.mark.parametrize("constraint", ["dirichlet", "neumann"])
@pytest.mark.parametrize("h", [1e-300, 5e-324])
def test_unsizable_mesh_is_a_config_error(constraint, h):
    # rejected before a mesh is built, in a single run and in a study:
    # numpy indexes fewer than 2**63 - 1 elements over the 2 pi domain
    # (and its two extensions of 1.5 on a Neumann run)
    low = "6.81e-19" if constraint == "dirichlet" else "1.01e-18"
    with pytest.raises(ConfigError, match=rf"h needs mesh sizes in "
                                          rf"\({low}, 3.14159\]") as info:
        RunSpec(constraint=constraint, h=h)
    assert info.value.key == "h"
    with pytest.raises(ConfigError, match=low) as info:
        RunSpec(constraint=constraint, h_list=(0.3, 0.15, h))
    assert info.value.key == "h_list"


def test_tiny_neumann_extension_runs(tmp_path, capsys):
    # an extension far below one element still gets one exterior element
    # on each side, so the eliminated margin is never empty
    text = case_config_text("case5").replace(
        "neumann.extension = 1.5", "neumann.extension = 1e-14").replace(
        "h_list = 0.15 0.075 0.0375", "h = 0.5")
    cfg = tmp_path / "case5.cfg"
    cfg.write_text(text)
    with pytest.warns(ExtensionMarginWarning, match="margin 0.5 "):
        assert cli.main(["--config", str(cfg)]) == 0
    assert "\n0.5,8," in capsys.readouterr().out     # 8 unknowns


@pytest.mark.parametrize("start,flags", [
    ("step(10,11)", []),                # beyond the extended mesh
    ("step(-1,-0.5)", []),              # only exterior-margin nodes
])
def test_neumann_start_zero_on_unknowns_exits_4(tmp_path, capsys, start,
                                                flags):
    # the form eliminates the exterior nodes, so a start that is nonzero
    # only there is an all-zero start too
    text = case_config_text("case5").replace("step(1,2)", start)
    if not flags:
        text = text.replace("h_list = 0.15 0.075 0.0375", "h = 0.3")
    cfg = tmp_path / "case5.cfg"
    cfg.write_text(text)
    assert cli.main(["--config", str(cfg)] + flags) == 4
    assert "initial_guess" in capsys.readouterr().err


def test_ungrounded_neumann_case_exits_4(tmp_path, capsys):
    # an ungrounded Neumann system is singular up to round-off (the
    # case-5 descent stalls on it), so grounding_rel = 0 is rejected
    # before anything is assembled
    cfg = tmp_path / "case5.cfg"
    cfg.write_text(case_config_text("case5") + "solver.grounding_rel = 0\n")
    assert cli.main(["--config", str(cfg)]) == 4
    assert "grounding_rel must be positive, got 0.0" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="grounding_rel") as info:
        SolverConfig(grounding_rel=0.0)
    assert info.value.key == "grounding_rel"


NON_FINITE_IN_CODE = [
    ("epsilon", dict(epsilon=math.inf)),
    ("delta", dict(delta=-math.inf)),
    ("solver.grounding_rel", dict(grounding_rel=math.inf)),
    ("solver.direction_reg", dict(direction_reg=math.nan)),
    ("solver.max_iterations", dict(max_iterations=math.inf)),
    ("domain.left", dict(domain=(math.nan, 1.0))),
    ("domain.right", dict(domain=(0.0, math.inf))),
    ("neumann.extension", dict(extension=math.inf)),
    ("h_list", dict(h=None, h_list=(0.3, 0.2, math.nan))),
]


@pytest.mark.parametrize("key,kwargs", NON_FINITE_IN_CODE,
                         ids=[k for k, _ in NON_FINITE_IN_CODE])
def test_non_finite_settings_in_code_rejected(key, kwargs):
    kwargs = {"h": 0.3, **kwargs}
    with pytest.raises(ConfigError,
                       match=f"{key} must be a finite number") as info:
        RunSpec(**kwargs)
    assert info.value.key == key
    for name, value in kwargs.items():
        if name in SolverConfig.__dataclass_fields__:
            with pytest.raises(ConfigError, match=f"{name} must be a "
                               "finite number") as info:
                SolverConfig(**{name: value})
            assert info.value.key == name


def test_too_large_solver_settings_in_code_rejected(monkeypatch):
    # only the settings are built: 10**400 is no float, and a delta whose
    # last halved step delta * 2**-MAX_HALVINGS is 0.0 can never lower the
    # energy.  The budget is read when the settings are checked: from 1075
    # halvings of delta = 1 the last step is 0.0
    with pytest.raises(ConfigError, match="max_iterations must be a finite "
                       "number") as info:
        SolverConfig(max_iterations=10**400)
    assert info.value.key == "max_iterations"
    SolverConfig(delta=2.0 ** -1014)
    cases = [(60, 2.0 ** -1015), (60, 5e-324), (1075, 1.0), (10**8, 1.0),
             (75, 2.0 ** -1000)]
    for budget, delta in cases:
        monkeypatch.setattr(mp, "MAX_HALVINGS", budget)
        with pytest.raises(ConfigError, match=r"delta must leave a nonzero "
                           rf"last step delta \* 2\*\*-{budget}, got") as info:
            SolverConfig(delta=delta)
        assert info.value.key == "delta"
    monkeypatch.setattr(mp, "MAX_HALVINGS", 1074)
    SolverConfig()


@pytest.mark.parametrize("output", ["output.solution", "output.log",
                                    "output.matrix", "output.report",
                                    "output.plot"])
def test_unwritable_output_exits_4(tmp_path, capsys, output):
    path = tmp_path / "missing" / "file.txt"
    cfg = tmp_path / "run.cfg"
    if output in ("output.report", "output.plot"):
        cfg.write_text(FAST_CFG.replace(f"h = {h_for(20)!r}",
                                        f"{STUDY_H_LIST}\n{output} = {path}"))
    else:
        cfg.write_text(FAST_CFG + f"{output} = {path}\n")
    assert cli.main(["--config", str(cfg)]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and str(path) in err[0]


# unknown flags, bare or followed by a word, a number or a negative number
USAGE_ERRORS = [["--frobnicate"], ["--jobs", "abc"], ["--jobs", "0"],
                ["--jobs", "-5"]]


@pytest.mark.parametrize("flags", USAGE_ERRORS, ids=" ".join)
def test_usage_error_exits_4(tmp_path, capsys, flags):
    # argparse alone exits 2, the trivial-capture code
    cfg = tmp_path / "study.cfg"
    cfg.write_text(FAST_CFG.replace(f"h = {h_for(20)!r}", STUDY_H_LIST))
    assert cli.main(["--config", str(cfg)] + flags) == 4
    err = capsys.readouterr().err
    assert "usage:" in err and flags[0] in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["--help"])
    assert info.value.code == 0
    # the option lines of the help text, by their first spelling
    assert re.findall(r"^  (-[\w-]+)", capsys.readouterr().out,
                      re.MULTILINE) == ["-h", "--config", "--case",
                                        "--list-cases"]
