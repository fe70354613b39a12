import dataclasses
import math

import numpy as np
import pytest

import nonlocalmp as nm
from nonlocalmp import energy as en
from nonlocalmp import verify
from nonlocalmp.config import RunSpec
from nonlocalmp.errors import ConfigError

from conftest import TABLE1, dense, h_for


@pytest.fixture(scope="module")
def case1_run():
    spec = RunSpec(domain=(-math.pi, math.pi), constraint="dirichlet",
                   kernel_name="exponential", nonlinearity_name="cubic",
                   h=h_for(20))
    return verify.run_single(spec, spec.h)


def test_one_gram_build_per_row(monkeypatch):
    # the form builds its Gram pairs once and the row its dense mass
    # matrix once, from the pairs of the same mesh, with no dense
    # stiffness matrix
    calls = {}
    for name in ("omega_norm_diagonals", "omega_norm_matrices"):
        build = getattr(nm.fem, name)

        def counted(mesh, name=name, build=build):
            calls.setdefault(name, []).append(mesh)
            return build(mesh)

        monkeypatch.setattr(nm.fem, name, counted)
    spec = RunSpec(h=h_for(20))
    run = verify.run_single(spec, spec.h)
    assert "omega_norm_matrices" not in calls
    assert len(calls["omega_norm_diagonals"]) == 2
    assert np.array_equal(run.M, nm.omega_norm_matrices(run.form.mesh)[0])
    u = run.form.unknowns
    assert np.array_equal(run.M[u, u], dense(run.form.M_uu))


def test_assembly_fault_is_the_rows_error():
    # the inverted Mexican hat's exterior block at h = 0.3 is not positive
    # definite: the row carries the fault, with no form and no result
    spec = RunSpec(domain=(0.0, 3.0), constraint="neumann",
                   kernel_name="mexican_hat",
                   kernel_params=dict(a=1.0, b=2.0, A=5.0, B=6.0),
                   nonlinearity_name="allen_cahn",
                   initial_guess="step(1,2)", h=0.3)
    with pytest.warns(nm.errors.ExtensionMarginWarning):
        run = verify.run_single(spec, spec.h)
    r = run.report
    assert run.form is None and run.result is None
    assert r.failed and r.error.startswith("SingularExteriorBlock: ")
    assert np.isnan([r.R_L1, r.R_L2, r.E_L1, r.E_L2]).all()
    assert r.iterations == 0 and r.stop_reason is None
    assert run.M.shape == (spec.build_mesh(0.3).n_nodes,) * 2


def test_residual_of_zero(case1_coarse):
    mesh, form, M, S, u1 = case1_coarse
    for nl in (en.NONLINEARITIES["cubic"], en.NONLINEARITIES["allen_cahn"]):
        r1, r2 = verify.residual_norms(form, nl, nm.FeFunction(mesh))
        assert r1 == 0.0 and r2 == 0.0


def test_case1_coarse_row(case1_run):
    r = case1_run.report
    assert r.converged and not r.failed
    assert r.n_dof == 20
    assert TABLE1["R_L1"][0] / 3 <= r.R_L1 <= TABLE1["R_L1"][0] * 3
    assert TABLE1["R_L2"][0] / 3 <= r.R_L2 <= TABLE1["R_L2"][0] * 3
    assert r.iterations <= 3 * TABLE1["it"][0]


def test_report_carries_stop_reason_and_l2_ratio(case1_run):
    r = case1_run.report
    res = case1_run.result
    assert r.stop_reason == res.stop_reason == "converged"
    v = res.solution.values
    assert r.l2_ratio == math.sqrt(v @ case1_run.M @ v) / res.initial_l2
    assert r.l2_ratio >= verify.TRIVIAL_CAPTURE_RATIO and not r.trivial


def test_reference_solve_self_consistency(case1_run):
    # for a Dirichlet solve u* - ubar equals the final descent solve b,
    # so the errors sit at the stopping tolerance: a converged solution is
    # a fixed point of the linear resolve map up to epsilon
    run = case1_run
    nl = en.NONLINEARITIES["cubic"]
    e1, e2, ubar = verify.reference_errors(run.form, run.M, nl,
                                           run.result.solution)
    eps = 1e-3
    assert e2 <= eps
    assert e1 <= math.sqrt(2.0 * math.pi) * e2 * (1 + 1e-12)
    # exact nodal identity: u* - ubar solves the same system as b
    g = en.gradient(run.form, nl, run.result.solution)
    b = run.form.solve_spd(g, 0.0)
    diff = run.form.reduce(run.result.solution) - run.form.reduce(ubar)
    np.testing.assert_allclose(diff, b, atol=1e-12)


def test_reference_solve_certificate(case1_run):
    run = case1_run
    nl = en.NONLINEARITIES["cubic"]
    form = run.form
    u = run.result.solution
    load = form.load_vector(nl.f(form.values_at_omega_quad(u.values)))
    ub = form.solve_spd(load, 1e-4)
    res = form.B @ ub - load
    assert np.linalg.norm(res) <= 1e-10 * max(np.linalg.norm(load), 1e-30)


def test_l1_norm_exact_piecewise():
    mesh = nm.build_mesh(0.0, 1.0, 0.25)
    # v(x) = x - 0.5 crosses zero inside an element midpoint; exact integral 1/4
    vals = mesh.nodes - 0.5
    assert verify.l1_norm_p1(mesh, vals) == pytest.approx(0.25)
    # one-signed data reduces to the trapezoid rule
    vals2 = np.abs(mesh.nodes) + 1.0
    assert verify.l1_norm_p1(mesh, vals2) == pytest.approx(1.5)


def test_trivial_capture_detector(case1_run):
    run = case1_run
    res = run.result
    assert not run.report.trivial
    shrunk = type(res)(solution=nm.FeFunction(run.form.mesh,
                                              1e-4 * res.solution.values),
                       stop_reason="converged", records=res.records,
                       wall_time=res.wall_time, final_grad_norm=0.0,
                       initial_energy=res.initial_energy,
                       initial_l2=res.initial_l2)
    assert dataclasses.replace(
        run.report, l2_ratio=verify.l2_ratio(shrunk, run.M)).trivial


def test_report_flags_follow_from_its_fields(case1_run):
    # a report with no descent result claims nothing
    bare = verify.CaseReport(h=0.1, n_dof=1, R_L1=np.nan, R_L2=np.nan,
                             E_L1=np.nan, E_L2=np.nan, iterations=0,
                             wall_time_s=0.0)
    assert not (bare.converged or bare.failed or bare.trivial)
    rep = case1_run.report
    assert rep.converged and rep.stop_reason == "converged"
    assert not rep.failed and not rep.trivial
    assert rep.l2_ratio == verify.l2_ratio(case1_run.result, case1_run.M)


def test_fit_orders_excludes_degenerate_rows():
    reports = [
        verify.CaseReport(h=h, n_dof=0, R_L1=0.1 * h, R_L2=0.1 * math.sqrt(h),
                          E_L1=np.nan, E_L2=np.nan, iterations=1,
                          wall_time_s=0.0)
        for h in (0.4, 0.2, 0.1, 0.05)
    ]
    reports.append(verify.CaseReport(h=0.025, n_dof=0, R_L1=1e-9, R_L2=1e-9,
                                     E_L1=np.nan, E_L2=np.nan, iterations=1,
                                     wall_time_s=0.0, l2_ratio=1e-4))
    orders = verify.fit_orders(reports)
    assert orders["R_L1"] == pytest.approx(1.0, abs=1e-10)
    assert orders["R_L2"] == pytest.approx(0.5, abs=1e-10)
    assert orders["E_L1"] is None


@pytest.mark.parametrize("h_list", [
    (h_for(20), h_for(20), h_for(20)),
    # 0.31 rounds to the 20-element mesh too
    (h_for(20), 0.31, h_for(40))])
def test_fit_orders_needs_three_distinct_mesh_sizes(h_list):
    spec = RunSpec(domain=(-math.pi, math.pi), h_list=h_list)
    study = verify.convergence_study(spec)
    assert all(r.converged and not r.trivial for r in study.reports)
    assert study.orders == dict.fromkeys(("R_L1", "R_L2", "E_L1", "E_L2"))


def test_convergence_study_requires_three_rows():
    with pytest.raises(ConfigError) as info:
        RunSpec(h_list=(0.3, 0.15))
    assert info.value.key == "h_list"


def test_report_csv_and_plot_data(tmp_path):
    reports = [
        verify.CaseReport(h=0.2, n_dof=10, R_L1=0.1, R_L2=0.2, E_L1=0.3,
                          E_L2=0.4, iterations=5, wall_time_s=0.01),
        verify.CaseReport(h=0.1, n_dof=20, R_L1=0.05, R_L2=0.14, E_L1=0.15,
                          E_L2=0.2, iterations=6, wall_time_s=0.02),
    ]
    csv_path = tmp_path / "report.csv"
    verify.write_report_csv(csv_path, reports)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "h,n_dof,R_L1,R_L2,E_L1,E_L2,iterations,wall_time_s"
    assert lines[1].startswith("0.2,10,0.1,")

    plot_path = tmp_path / "report.plot"
    verify.write_plot_data(plot_path, reports)
    text = plot_path.read_text()
    assert "# R_L1" in text and "# E_L2" in text
    first = text.splitlines()[1].split()
    assert float(first[0]) == pytest.approx(math.log10(0.2))
    assert float(first[1]) == pytest.approx(math.log10(0.1))


def test_failed_row_is_marked():
    spec = RunSpec(domain=(-math.pi, math.pi), h=h_for(20),
                   max_iterations=1)
    run = verify.run_single(spec, spec.h)
    assert run.report.failed
    assert "MaxIterations" in run.report.error
    # partial state still reported
    assert run.report.iterations == 1
    assert run.report.stop_reason == "max_iterations"
    assert run.report.l2_ratio == verify.l2_ratio(run.result, run.M)
    assert 0.0 < run.report.l2_ratio < math.inf and not run.report.trivial


def test_case1_monotone_refinement():
    # R falls as the mesh is refined; E does not measure the mesh: for a
    # Dirichlet row u* - ubar is the Riesz representative b of I'(u*), so
    # each row's E_L2 = |b|_L2 is bounded by its |b|_H1
    spec = RunSpec(domain=(-math.pi, math.pi), kernel_name="exponential",
                   nonlinearity_name="cubic",
                   h_list=(h_for(20), h_for(40), h_for(80)))
    runs = [verify.run_single(spec, h) for h in spec.h_list]
    r1 = [run.report.R_L1 for run in runs]
    assert all(b < a for a, b in zip(r1, r1[1:]))
    for run in runs:
        assert run.report.E_L2 <= run.result.final_grad_norm
