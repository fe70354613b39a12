import dataclasses
import math
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
from scipy import linalg

import nonlocalmp as nm
from nonlocalmp import assembly
from nonlocalmp import energy as en
from nonlocalmp import mountain_pass as mp
from nonlocalmp.errors import InvariantViolation, SingularSystem

from conftest import CUBIC_PLUS_QUINTIC, dense, h_for, modal_direction_at
from oracles import halving_solve


@pytest.fixture(scope="module")
def case1_solved(request):
    mesh = nm.build_mesh(-math.pi, math.pi, h_for(20))
    form = nm.assemble_dirichlet(mesh, nm.Exponential())
    M, S = nm.omega_norm_matrices(mesh)
    u1 = nm.interpolate(mesh, math.sin, constraint="dirichlet")
    result = mp.solve(form, en.NONLINEARITIES["cubic"], u1)
    return mesh, form, M, S, u1, result


def test_converges_with_certificate(case1_solved):
    mesh, form, M, S, u1, result = case1_solved
    assert result.converged and result.stop_reason == "converged"
    assert result.final_grad_norm <= 1e-3
    assert 5 <= result.iterations <= 42


@pytest.fixture(scope="module")
def case5_h03():
    mesh = nm.build_extended_mesh((0.0, 3.0), 0.3, 1.5)
    form = nm.assemble_neumann(mesh, nm.Exponential())
    return form, nm.step_function(mesh, 1, 2)


def preset_row(case, h, **keys):
    """(form, nonlinearity, start, solver config) of a bundled preset at
    mesh size h, with the given config keys replaced."""
    text = nm.cases.case_config_text(case)
    keys = {"h_list": None, **keys, "h": repr(h)}
    lines = [line for line in text.splitlines()
             if line.split("=")[0].strip() not in keys]
    lines += [f"{key} = {value}" for key, value in keys.items()
              if value is not None]
    spec = nm.config.parse_config_text("\n".join(lines) + "\n")
    mesh = spec.build_mesh(h)
    assemble = nm.assemble_dirichlet if spec.constraint == "dirichlet" \
        else nm.assemble_neumann
    form = assemble(mesh, spec.make_kernel(), spec.quad_order)
    return (form, spec.make_nonlinearity(), spec.initial_guess_fe(mesh),
            spec.solver_config())


def case2_preset(n_elements):
    # the Mexican-hat preset ends in a one-node spike
    form, _, u1, _ = preset_row("case2", h_for(n_elements))
    return form, u1


@pytest.fixture(scope="module")
def case2_20():
    return case2_preset(20)


@pytest.fixture(scope="module")
def case2_40():
    return case2_preset(40)


def form_and_start(request, fixture):
    value = request.getfixturevalue(fixture)
    return (value[1], value[-1]) if fixture == "case1_coarse" else value


@pytest.mark.parametrize("fixture, nl", [
    ("case1_coarse", en.NONLINEARITIES["cubic"]),
    ("case5_h03", en.NONLINEARITIES["allen_cahn"]),
    ("case2_20", en.NONLINEARITIES["cubic"]),
    ("case1_coarse", en.NONLINEARITIES["allen_cahn"]),
    ("case1_coarse", CUBIC_PLUS_QUINTIC),
], ids=lambda x: x if isinstance(x, str) else x.name)
def test_descent_matches_halving_loop(fixture, nl, request):
    # the descent that takes every ray from the step polynomial stops
    # where the loop with a direct ray per halving does, at the same
    # critical point within the stopping tolerance, and its recorded
    # energy is that of its solution
    form, u1 = form_and_start(request, fixture)
    cfg = mp.SolverConfig()
    result = mp.solve(form, nl, u1, cfg)
    _, values, stop_reason = halving_solve(form, nl, u1, cfg)
    assert result.stop_reason == stop_reason
    diff = result.solution.values - values
    M = nm.omega_norm_matrices(form.mesh)[0]
    assert math.sqrt(diff @ M @ diff) \
        <= cfg.epsilon * math.sqrt(values @ M @ values)
    assert result.records[-1].energy == pytest.approx(
        en.energy(form, nl, result.solution), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("fixture, nl, companion", [
    ("case5_h03", en.NONLINEARITIES["allen_cahn"], False),
    ("case1_coarse", CUBIC_PLUS_QUINTIC, True),
], ids=["allen_cahn", "cubic_plus_quintic"])
def test_eigenvalue_roots_only_above_degree_two(fixture, nl, companion,
                                                request, monkeypatch):
    # a quadratic g'(t)/t (Allen-Cahn) is solved by formula for the initial
    # ray and in the step polynomial; degree 4 (t^4/4 + t^6/6) needs
    # eigenvalues
    form, u1 = form_and_start(request, fixture)
    calls = []
    for owner, name in ((np.linalg, "eigvals"),
                        (np.polynomial.polynomial, "polyroots")):
        def counted(*args, _wrapped=getattr(owner, name), **kwargs):
            calls.append(_wrapped)
            return _wrapped(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    result = mp.solve(form, nl, u1)
    assert result.converged and result.iterations > 1
    assert (len(calls) > 0) == companion


def test_screened_descent_stalls_with_halving_loop(case2_40, monkeypatch):
    # with at most 2 halvings the case-2 descent at 40 elements stalls, at
    # iteration 25 after Newton attempts that met negative curvature (from
    # 3 halvings on it converges; at 20 elements it converges with 2
    # halvings too, taking a damped Newton rung).  The halving loop agrees
    # at the same iterate: from the stall iterate it finds no step below
    # e(w) either, and from the iterate one step earlier it takes one.
    # (Two whole runs from u1 are not compared: their energies part by
    # round-off long before the stall.)
    form, u1 = case2_40
    nl = en.NONLINEARITIES["cubic"]
    monkeypatch.setattr(mp, "MAX_HALVINGS", 2)
    cfg = mp.SolverConfig()
    result = mp.solve(form, nl, u1, cfg)
    assert result.stop_reason == "stall" and result.iterations > 1
    assert result.newton_attempts > 0
    one_step = dataclasses.replace(cfg, max_iterations=1)
    with pytest.raises(RuntimeError, match="stalled at iteration 1$"):
        halving_solve(form, nl, result.solution, one_step)
    before = mp.solve(form, nl, u1, dataclasses.replace(
        cfg, max_iterations=result.iterations - 1))
    assert before.stop_reason == "max_iterations"
    with pytest.raises(RuntimeError, match="iteration budget exhausted"):
        halving_solve(form, nl, before.solution, one_step)


def test_one_ray_evaluation_per_iteration(monkeypatch):
    # the initial ray and one step-polynomial call per iteration are the
    # descent's only ray evaluations, but for one more call per Newton
    # attempt that screens its ladder and takes no full step (its damped
    # rung, if any, competes with the descent step): the attempts less the
    # full Newton steps and the attempts given up on negative curvature
    # (which screen no step: on these two rows no direction of negative
    # curvature passes the gates of a step along it)
    calls = []
    ray_max = en.ray_max

    def counted(nl, Buu, c):
        calls.append(len(c))
        return ray_max(nl, Buu, c)

    given_up = []
    newton_direction = mp.newton_direction

    def newton_counted(*args):
        d_hat, p_hat, products = newton_direction(*args)
        given_up.append(d_hat is None)
        return d_hat, p_hat, products

    monkeypatch.setattr(en, "ray_max", counted)
    monkeypatch.setattr(mp, "newton_direction", newton_counted)
    mesh = nm.build_mesh(-math.pi, math.pi, h_for(20))
    case4 = nm.config.parse_config_text(nm.cases.case_config_text("case4"))
    rejected = 0
    for form, nl, u1 in (
            (nm.assemble_dirichlet(mesh, nm.Exponential()),
             en.NONLINEARITIES["cubic"],
             nm.interpolate(mesh, math.sin, constraint="dirichlet")),
            (nm.assemble_dirichlet(mesh, case4.make_kernel()),
             case4.make_nonlinearity(), case4.initial_guess_fe(mesh))):
        calls.clear()
        given_up.clear()
        cfg = mp.SolverConfig()
        result = mp.solve(form, nl, u1, cfg)
        assert result.converged
        assert len(given_up) == result.newton_attempts
        assert result.curvature_steps == 0
        screens = result.newton_attempts - result.newton_steps \
            - sum(given_up)
        assert calls == [1] + [mp.MAX_HALVINGS + 1] * (result.iterations
                                                        + screens)
        rejected += screens
    assert rejected > 0


def test_lowest_halving_below_energy_is_taken(case1_coarse, monkeypatch):
    # of the halvings whose ray maximum is below e(w), each iteration takes
    # the one with the lowest ray maximum, and records its energy.  Newton
    # attempts are off: an iteration that screens a Newton ladder as well
    # as the descent step calls the step rule twice
    mesh, form, M, S, u1 = case1_coarse
    monkeypatch.setattr(mp, "NEWTON_EVERY", mp.SolverConfig.max_iterations + 1)
    energies = []
    step_polynomial = mp.step_polynomial

    def recorded(*args):
        rays = step_polynomial(*args)

        def recorded_rays(*rays_args):
            out = rays(*rays_args)
            energies.append(out[1])
            return out
        return recorded_rays

    monkeypatch.setattr(mp, "step_polynomial", recorded)
    result = mp.solve(form, en.NONLINEARITIES["cubic"], u1)
    assert result.converged and len(energies) == result.iterations
    e_before = [result.initial_energy] + [r.energy for r in result.records]
    for rec, e_steps, e_w in zip(result.records, energies, e_before):
        lower = np.flatnonzero(e_steps < e_w)
        assert rec.halvings_used == lower[np.argmin(e_steps[lower])]
        assert rec.energy == e_steps[lower].min()


def test_strict_energy_descent(case1_solved):
    mesh, form, M, S, u1, result = case1_solved
    energies = [r.energy for r in result.records]
    assert all(b < a for a, b in zip(energies, energies[1:]))
    assert energies[0] < result.initial_energy


def test_records_structure(case1_solved):
    mesh, form, M, S, u1, result = case1_solved
    for i, rec in enumerate(result.records, start=1):
        assert rec.iteration == i
        assert rec.t_star > 0.0
        assert rec.halvings_used >= 0
        assert rec.grad_norm_h1 > 0.0


def test_ray_stationarity_of_solution(case1_solved):
    mesh, form, M, S, u1, result = case1_solved
    nl = en.NONLINEARITIES["cubic"]
    uu = form.reduce(result.solution)
    Buu = float(uu @ form.B @ uu)
    P = en.moments(form, result.solution.values, nl.moment_powers)
    c = en.ray_coefficients(nl, Buu, P)
    scale = max(abs(Buu), abs(4 * 0.25 * P[4]))
    assert abs(en.ray_slope(c, 1.0)) <= 1e-6 * scale


def test_descent_direction_properties(case1_solved):
    mesh, form, M, S, u1, result = case1_solved
    nl = en.NONLINEARITIES["cubic"]
    rng = np.random.default_rng(3)
    H = (M + S)[np.ix_(form.unknown_idx, form.unknown_idx)]
    for _ in range(5):
        w = rng.standard_normal(form.n_unknowns)
        b, v1, b_h1, g = modal_direction_at(form, nl, w)
        assert g @ v1 < 0.0
        assert float(np.sqrt(v1 @ H @ v1)) == pytest.approx(1.0, rel=1e-12)
        assert b_h1 > 0.0


def test_dual_norm_sandwich(case1_solved):
    # extreme generalized eigenvalues of (B, M+S) bound the dual norm of
    # the gradient in terms of |b|_H1
    mesh, form, M, S, u1, result = case1_solved
    nl = en.NONLINEARITIES["cubic"]
    ix = np.ix_(form.unknown_idx, form.unknown_idx)
    H = (M + S)[ix]
    evals = linalg.eigh(form.B, H, eigvals_only=True)
    beta_hat, c_hat = evals[0], evals[-1]
    assert beta_hat > 0.0
    rng = np.random.default_rng(9)
    for _ in range(5):
        w = rng.standard_normal(form.n_unknowns)
        b, v1, b_h1, g = modal_direction_at(form, nl, w)
        dual = float(np.sqrt(g @ np.linalg.solve(H, g)))
        assert beta_hat * b_h1 <= dual * (1 + 1e-10)
        assert dual <= c_hat * b_h1 * (1 + 1e-10)


def count_calls(monkeypatch, owner, name):
    """Record the first argument of every call of owner.name."""
    calls = []
    wrapped = getattr(owner, name)
    monkeypatch.setattr(owner, name,
                        lambda a, *args, **kw: calls.append(a)
                        or wrapped(a, *args, **kw))
    return calls


def test_direction_factorizations_cached(case1_coarse, monkeypatch):
    # the direction's one factorization, the modal basis, is built once
    # per form however many directions and solves are taken; the only
    # factor made is the bidiagonal one of H inside it, no dense Cholesky
    mesh, _, M, S, u1 = case1_coarse
    form = nm.assemble_dirichlet(mesh, nm.Exponential())
    eighs = count_calls(monkeypatch, assembly, "_eigh_pencil")
    factors = count_calls(monkeypatch, assembly, "_cholesky")
    h_factors = count_calls(monkeypatch, assembly, "_bidiagonal_cholesky")
    nl = en.NONLINEARITIES["cubic"]
    rng = np.random.default_rng(4)
    for _ in range(3):
        modal_direction_at(form, nl, rng.standard_normal(form.n_unknowns))
    mp.solve(form, nl, u1)
    assert len(eighs) == 1
    assert factors == []
    assert len(h_factors) == 1 and h_factors[0] is form.H


def test_grounded_factor_only_for_reference_resolve(monkeypatch):
    # the descent on a Neumann form builds the grounded modal basis, whose
    # only factor is the bidiagonal one of H; each reference resolve
    # factors B + sigma M_uu afresh by dense Cholesky, and its solve equals
    # one on a factor built here
    mesh = nm.build_extended_mesh((0.0, 3.0), 0.3, 1.5)
    form = nm.assemble_neumann(mesh, nm.Exponential())
    nl = en.NONLINEARITIES["allen_cahn"]
    cfg = mp.SolverConfig()
    eighs = count_calls(monkeypatch, assembly, "_eigh_pencil")
    factors = count_calls(monkeypatch, assembly, "_cholesky")
    h_factors = count_calls(monkeypatch, assembly, "_bidiagonal_cholesky")
    rng = np.random.default_rng(6)
    for _ in range(3):
        w = rng.standard_normal(form.n_unknowns)
        modal_direction_at(form, nl, w, cfg)
    assert len(eighs) == 1 and factors == []
    assert len(h_factors) == 1 and h_factors[0] is form.H
    sigma = form.grounding_shift(cfg.grounding_rel)
    assert sigma == cfg.grounding_rel * np.trace(form.B) \
        / form.M_uu[0].sum()
    mat = form.B + sigma * dense(form.M_uu)
    assert np.array_equal(eighs[0], mat)
    M = nm.omega_norm_matrices(mesh)[0]
    _, _, ubar = nm.reference_errors(form, M, nl, form.fe(w),
                                     cfg.grounding_rel)
    nm.reference_errors(form, M, nl, form.fe(-w), cfg.grounding_rel)
    assert len(factors) == 2 and len(h_factors) == 1
    assert all(np.array_equal(f, mat) for f in factors)
    load = form.load_vector(nl.f(form.values_at_omega_quad(
        form.full_values(w))))
    L = assembly._cholesky(mat, AssertionError("not positive definite"))
    assert np.array_equal(form.reduce(ubar), assembly._cho_solve(L, load))


def cholesky_direction(form, g, grounding_rel, tau):
    """(b, v1, |b|_H1) by Cholesky solves of the grounded and the
    regularized systems."""
    H = dense(form.H)
    sigma = form.grounding_shift(grounding_rel)
    B = form.B + sigma * dense(form.M_uu)
    b = linalg.cho_solve(linalg.cho_factor(B), g)
    d = linalg.cho_solve(linalg.cho_factor(B + tau * H), g)
    return b, -d / math.sqrt(d @ H @ d), math.sqrt(b @ H @ b)


@pytest.mark.parametrize("tau", [0.0, 0.25])
@pytest.mark.parametrize("setup", ["case1_coarse", "neumann_coarse"])
def test_modal_direction_matches_cholesky(setup, tau, request):
    # b, v1 and |b|_H1 from the modal basis against Cholesky solves on
    # B + sigma M_u and B + tau H + sigma M_u
    mesh, form, M, S, u1 = request.getfixturevalue(setup)
    nl = en.NONLINEARITIES["allen_cahn" if setup == "neumann_coarse"
                           else "cubic"]
    cfg = mp.SolverConfig(direction_reg=tau)
    rng = np.random.default_rng(12)
    for _ in range(3):
        w = rng.standard_normal(form.n_unknowns)
        b, v1, b_h1, g = modal_direction_at(form, nl, w, cfg)
        ref_b, ref_v1, ref_h1 = cholesky_direction(form, g,
                                                   cfg.grounding_rel, tau)
        assert np.linalg.norm(b - ref_b) <= 1e-12 * np.linalg.norm(ref_b)
        assert np.linalg.norm(v1 - ref_v1) <= 1e-12 * np.linalg.norm(ref_v1)
        assert b_h1 == pytest.approx(ref_h1, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("setup", ["case1_coarse", "neumann_coarse"])
def test_modal_coordinates_carry_the_form(setup, request):
    # with a = V^T H w: w = V a, sum lam a^2 = w (B + sigma M_u) w, and the
    # pairing of the descent (less sigma int w^2) is w B w
    mesh, form, M, S, u1 = request.getfixturevalue(setup)
    basis = sigma, lam, V = form.modal_basis(mp.SolverConfig.grounding_rel)
    M_u = dense(form.M_uu)
    weights = form.omega_quad_weights()
    rng = np.random.default_rng(13)
    for _ in range(3):
        w = rng.standard_normal(form.n_unknowns)
        a = V.T @ nm.fem.tridiagonal_product(form.H, w)
        np.testing.assert_allclose(V @ a, w, rtol=0.0, atol=1e-12)
        wBw = float(w @ form.B @ w)
        assert float(lam @ (a * a)) == pytest.approx(
            wBw + sigma * float(w @ M_u @ w), rel=1e-12)
        x = form.values_at_omega_quad(form.full_values(w))
        assert mp.pairing(basis, weights, lam * a, x, a, x) == pytest.approx(
            wBw, rel=1e-12)


def newton_setup(form, nl, u):
    """(basis, a, power table, modal gradient) at the iterate u, a
    FeFunction, with modal coordinates a = V^T H w."""
    basis = _, lam, V = form.modal_basis(mp.SolverConfig.grounding_rel)
    a = V.T @ nm.fem.tridiagonal_product(form.H, form.reduce(u))
    x = form.values_at_omega_quad(form.full_values(V @ a))
    pw = en.power_table(x, max(nl.F_coeffs))
    return basis, a, pw, mp.modal_gradient(form, nl, basis, lam * a, pw)


@pytest.mark.parametrize("setup", ["case1_coarse", "neumann_coarse"])
def test_modal_hessian_matches_gradient_difference(setup, request):
    # H^ p against the central difference of the modal gradient along p
    mesh, form, M, S, u1 = request.getfixturevalue(setup)
    nl = en.NONLINEARITIES["allen_cahn" if setup == "neumann_coarse"
                           else "cubic"]
    basis, a, pw, _ = newton_setup(form, nl, u1)
    _, lam, V = basis
    hessian = mp.modal_hessian(form, nl, basis, pw)

    def gradient(b):
        x = form.values_at_omega_quad(form.full_values(V @ b))
        return mp.modal_gradient(form, nl, basis, lam * b,
                                 en.power_table(x, max(nl.F_coeffs)))

    rng = np.random.default_rng(15)
    for _ in range(3):
        p = rng.standard_normal(a.size)
        eps = 1e-5 * np.linalg.norm(a) / np.linalg.norm(p)
        diff = (gradient(a + eps * p) - gradient(a - eps * p)) / (2 * eps)
        Hp = hessian(p)
        assert np.linalg.norm(Hp - diff) <= 1e-6 * np.linalg.norm(Hp)


@pytest.mark.parametrize("setup", ["case1_coarse", "neumann_coarse"])
def test_newton_direction_on_tangent_space(setup, request):
    # at a converged iterate the Newton step lies on the tangent space
    # (lam a) . d^ = 0 to round-off, meets the CG tolerance within the
    # product budget and is a descent direction
    mesh, form, M, S, u1 = request.getfixturevalue(setup)
    nl = en.NONLINEARITIES["allen_cahn" if setup == "neumann_coarse"
                           else "cubic"]
    u = mp.solve(form, nl, u1).solution
    basis, a, pw, g_hat = newton_setup(form, nl, u)
    lam = basis[1]
    d_hat, p_hat, products = mp.newton_direction(
        mp.modal_hessian(form, nl, basis, pw), lam, a, g_hat)
    assert d_hat is not None and p_hat is None
    assert products < mp.NEWTON_MAX_PRODUCTS
    assert abs((lam * a) @ d_hat) \
        <= 1e-13 * np.linalg.norm(lam * a) * np.linalg.norm(d_hat)
    assert g_hat @ d_hat < 0.0


def test_newton_guard_keeps_the_lower_critical_point():
    # a Neumann start of case 5 at h = 0.3 (20 elements with the
    # extension): the preset step plus a 1% perturbation by four cosine
    # modes drawn from numpy.random.default_rng(2).  An unguarded Newton
    # step from it jumps to a higher critical point (energy 0.2066, strong
    # residual R_L1 0.536); only full Newton steps that are the lowest of
    # their ladder keep the descent's point
    spec = nm.config.parse_config_text(nm.cases.case_config_text("case5"))
    mesh = spec.build_mesh(0.3)
    values = spec.initial_guess_fe(mesh).values.copy()
    lo, hi = mesh.interior_range
    s = (mesh.nodes[lo:hi + 1] - mesh.nodes[lo]) \
        / (mesh.nodes[hi] - mesh.nodes[lo])
    p = np.cos(np.pi * np.outer(s, np.arange(4))) \
        @ np.random.default_rng(2).standard_normal(4)
    values[lo:hi + 1] += 0.01 * np.max(np.abs(values)) \
        / np.max(np.abs(p)) * p
    form = nm.assemble_neumann(mesh, spec.make_kernel(), spec.quad_order)
    result = mp.solve(form, spec.make_nonlinearity(),
                      nm.FeFunction(mesh, values), spec.solver_config())
    assert mesh.n_elements == 20 and result.converged
    assert result.newton_attempts > 0
    assert result.records[-1].energy == pytest.approx(0.0133416797,
                                                      rel=1e-6)


@pytest.mark.parametrize("kind", ["ascent", "critical_ray"])
def test_newton_guard_drops_non_descent_ladders(case1_coarse, monkeypatch,
                                                kind):
    # every Newton attempt returns a direction with g^ . d^ > 0 that the
    # guard must drop, an ascent ladder for having no rung below e(w) and
    # the critical-ray ladder for its lowest rung being a halved one: the
    # run takes none of them and follows the descent of a run whose
    # attempts all meet negative curvature, along a direction as wide as
    # the iterate that no step is taken along
    mesh, form, M, S, u1 = case1_coarse
    nl = en.NONLINEARITIES["cubic"]
    cfg = mp.SolverConfig()
    monkeypatch.setattr(mp, "newton_direction",
                        lambda hessian, lam, a, g_hat: (None, a, 1))
    plain = mp.solve(form, nl, u1, cfg)
    _, lam, V = form.modal_basis(cfg.grounding_rel)
    q = V.T @ nm.fem.tridiagonal_product(form.H,
                                         form.reduce(plain.solution))
    given = []

    def newton_direction(hessian, lam, a, g_hat):
        if kind == "ascent":
            # short enough that the full step's ray maximum is above e(w)
            d_hat = 1e-3 * np.linalg.norm(a) / np.linalg.norm(g_hat) * g_hat
        else:
            # the halved step w + d / 2 lies on the ray of the descent's
            # own critical point, the lowest ray maximum of the ladder;
            # g^ . a is round-off, so the sign of q makes g^ . d^ > 0
            d_hat = -2.0 * a + math.copysign(
                np.linalg.norm(a) / np.linalg.norm(q), g_hat @ q) * q
        given.append(float(g_hat @ d_hat))
        return d_hat, None, 1
    monkeypatch.setattr(mp, "newton_direction", newton_direction)
    result = mp.solve(form, nl, u1, cfg)
    assert plain.converged and result.converged
    assert result.newton_attempts == plain.newton_attempts == len(given) > 0
    assert min(given) > 0.0 and result.newton_negative_curvature == 0
    assert result.newton_steps == result.newton_damped == 0
    assert plain.newton_negative_curvature == plain.newton_attempts
    assert plain.curvature_steps == result.curvature_steps == 0
    assert result.records == plain.records


STUDY_ROWS = ([(case, h_for(n)) for case in ("case1", "case2", "case3",
                                             "case4") for n in (20, 40, 80)]
              + [("case5", h) for h in (0.3, 0.15, 0.075)])


@pytest.mark.parametrize("case, h", STUDY_ROWS,
                         ids=[f"{c}-{h:.3g}" for c, h in STUDY_ROWS])
def test_study_rows_keep_invariants(case, h):
    # every step of every study row, Newton or descent, lowers the energy
    # along a descent direction and lands on its ray maximum.  Every row
    # takes Newton steps but case 5 at h = 0.3, where each attempt meets
    # negative curvature (Morse index 2)
    spec = nm.config.parse_config_text(nm.cases.case_config_text(case))
    run = nm.verify.run_single(spec, h)
    assert run.report.converged
    assert (run.result.newton_steps > 0) == ((case, h) != ("case5", 0.3))


def cosine_perturbed(mesh, start):
    """``start`` plus 1% of its largest value times four cosine modes over
    Omega drawn from numpy.random.default_rng(2): the start of
    ``test_newton_guard_keeps_the_lower_critical_point``."""
    values = start.values.copy()
    lo, hi = mesh.interior_range
    s = (mesh.nodes[lo:hi + 1] - mesh.nodes[lo]) \
        / (mesh.nodes[hi] - mesh.nodes[lo])
    p = np.cos(np.pi * np.outer(s, np.arange(4))) \
        @ np.random.default_rng(2).standard_normal(4)
    values[lo:hi + 1] += 0.01 * np.max(np.abs(values)) \
        / np.max(np.abs(p)) * p
    return nm.FeFunction(mesh, values)


ADD_UP_ROWS = ([(case, h, False) for case, h in STUDY_ROWS]
               + [("case5", 0.3, True)])


@pytest.mark.parametrize("case, h, perturbed", ADD_UP_ROWS,
                         ids=[f"{c}-{h:.3g}" + "-perturbed" * p
                              for c, h, p in ADD_UP_ROWS])
def test_newton_attempts_add_up(case, h, perturbed, monkeypatch):
    # every Newton attempt ends one way: a full step, a damped rung that
    # beat the descent step, a step along the direction of negative
    # curvature it met, negative curvature with the descent step taken, or
    # a loss to the descent step.  Each attempt is told apart here from
    # outside ``solve``, by the calls its iteration made and the direction
    # its step took.  The study rows lose no attempt to the descent step
    # from their preset starts; the perturbed case-5 start of the guard
    # test loses two.  A direction of negative curvature lies on the
    # tangent space, and a step along it is that direction, signed to
    # descend and of unit H1 norm
    events = []
    newton_direction = mp.newton_direction
    modal_direction = mp.modal_direction
    check_invariants = mp.check_invariants

    def newton_traced(hessian, lam, a, g_hat):
        d_hat, p_hat, products = newton_direction(hessian, lam, a, g_hat)
        assert (d_hat is None) != (p_hat is None)
        if p_hat is not None:
            assert float(p_hat @ hessian(p_hat)) <= 0.0
            assert abs((lam * a) @ p_hat) \
                <= 1e-12 * np.linalg.norm(lam * a) * np.linalg.norm(p_hat)
        events.append(("newton", d_hat, p_hat))
        return d_hat, p_hat, products

    def descent_traced(*args):
        v_hat = modal_direction(*args)
        events.append(("descent", v_hat))
        return v_hat

    def step_traced(iteration, g, v1, *args):
        events.append(("step", v1, g))
        return check_invariants(iteration, g, v1, *args)

    monkeypatch.setattr(mp, "newton_direction", newton_traced)
    monkeypatch.setattr(mp, "modal_direction", descent_traced)
    monkeypatch.setattr(mp, "check_invariants", step_traced)
    form, nl, start, cfg = preset_row(case, h)
    if perturbed:
        start = cosine_perturbed(form.mesh, start)
    result = mp.solve(form, nl, start, cfg)
    assert result.converged

    ends = dict.fromkeys(("full", "damped", "along_p", "negative", "lost"),
                         0)
    iteration = {}
    for kind, *vecs in events:
        if kind != "step":
            iteration[kind] = vecs
            continue
        vec, g = vecs
        if "newton" in iteration:
            d_hat, p_hat = iteration["newton"]
            descent = vec is iteration.get("descent", [None])[0]
            if d_hat is None and descent:
                ends["negative"] += 1
            elif d_hat is None:
                ends["along_p"] += 1
                assert abs(vec @ p_hat) == pytest.approx(
                    np.linalg.norm(p_hat), rel=1e-12)
                assert np.linalg.norm(vec) == pytest.approx(1.0, rel=1e-12)
                assert g @ vec < 0.0
            elif "descent" not in iteration:
                ends["full"] += 1
            else:
                ends["lost" if descent else "damped"] += 1
        iteration = {}
    assert not iteration        # a converged run stops before any attempt
    assert (ends["full"], ends["damped"], ends["along_p"],
            ends["negative"] + ends["along_p"]) == (
        result.newton_steps, result.newton_damped, result.curvature_steps,
        result.newton_negative_curvature)
    assert result.newton_attempts == sum(ends.values())
    if (case, h) == ("case4", h_for(80)):
        assert result.newton_damped >= 1 and result.curvature_steps >= 1
    if perturbed:
        assert ends["lost"] > 0


def end_point(form, result):
    """(energy, width) where a converged descent ended: the width counts
    the unknown nodes where |u*| exceeds half its maximum."""
    assert result.converged
    u = np.abs(form.reduce(result.solution))
    return (result.records[-1].energy,
            int(np.count_nonzero(u > 0.5 * u.max())))


# case 1's smooth solution (energy, width) at 40, 80 and 160 elements, and
# the energy of the one-node spike a step along negative curvature reaches
# when it is taken while the descent still makes headway
SMOOTH_CASE1 = {40: (0.02070849754, 27, 0.02474997347),
                80: (0.02045926639, 55, 0.01567316309),
                160: (0.02033134999, 111, 0.008827563629)}


@pytest.mark.parametrize("n", sorted(SMOOTH_CASE1))
def test_creeping_gate_keeps_the_smooth_solution(n, monkeypatch):
    # case 1 descends quickly to its smooth solution, so no step along
    # negative curvature passes the creeping gate.  Without that gate the
    # row steps along a localized direction of negative curvature and ends
    # on a one-node spike below the smooth solution; a creeping fraction of
    # 0.5 already moves the 40-element row
    energy, width, spike = SMOOTH_CASE1[n]
    form, nl, u1, cfg = preset_row("case1", h_for(n))
    for fraction, point in ((mp.CREEP_FRACTION, (energy, width)),
                            (math.inf, (spike, 1))):
        monkeypatch.setattr(mp, "CREEP_FRACTION", fraction)
        result = mp.solve(form, nl, u1, cfg)
        assert (result.curvature_steps > 0) == (fraction == math.inf)
        e, w = end_point(form, result)
        assert e == pytest.approx(point[0], rel=1e-6) and w == point[1]


@pytest.mark.parametrize("epsilon, point", [(1e-3, (0.0051522046, 2)),
                                            (1e-4, (0.0027787901, 1))])
def test_gradient_gate_keeps_the_width_two_point(epsilon, point,
                                                 monkeypatch):
    # the Neumann row of case 5 with the inverted Mexican hat kernel at
    # h = 0.075 stops at a width-2 critical point at epsilon = 1e-3, while
    # at 1e-4 the descent alone goes on to a one-node spike of lower
    # energy.  A step along negative curvature taken near the stop
    # (|b|_H1 <= 0.1) sends the 1e-3 row to that spike too; a creeping
    # fraction of 0.4 does as well.  The gate does not scale with epsilon,
    # so at 1e-4 no step along negative curvature is taken either (a gate
    # of 100 epsilon would take two)
    form, nl, u1, cfg = preset_row("case5", 0.075, kernel="mexican_hat",
                                   epsilon=epsilon, **{"kernel.scale": None})
    for far, end in ((mp.CURVATURE_FAR, point), (0.0, (0.0027787901, 1))):
        monkeypatch.setattr(mp, "CURVATURE_FAR", far)
        result = mp.solve(form, nl, u1, cfg)
        assert (result.curvature_steps > 0) == (far == 0.0)
        e, w = end_point(form, result)
        assert e == pytest.approx(end[0], rel=1e-6) and w == end[1]


@pytest.mark.parametrize("h, spike", [(0.15, 0.008975820684),
                                      (0.075, 0.005295397296)])
def test_localization_gate_keeps_case5_off_the_constant(h, spike,
                                                        monkeypatch):
    # with the gradient gate off, case 5 at h <= 0.15 still ends on its
    # one-node spike, because only a localized direction of negative
    # curvature is stepped along.  Without that gate too it steps along a
    # wide one onto the constant u = 1/4 (energy 0.0175781, the critical
    # point of the h = 0.3 row, nonzero on every unknown)
    form, nl, u1, cfg = preset_row("case5", h)
    monkeypatch.setattr(mp, "CURVATURE_FAR", 0.0)
    for width, point in ((mp.CURVATURE_WIDTH, (spike, 1)),
                         (form.n_unknowns, (0.0175781312, form.n_unknowns))):
        monkeypatch.setattr(mp, "CURVATURE_WIDTH", width)
        e, w = end_point(form, mp.solve(form, nl, u1, cfg))
        assert e == pytest.approx(point[0], rel=1e-6) and w == point[1]


def test_spike_row_builds_its_spike_along_negative_curvature():
    # case 2 at 160 elements ends on a one-node spike; stepping along the
    # directions of negative curvature its Newton attempts meet, it gets
    # there in at most 120 iterations (251 by descent and Newton steps
    # alone), at the same critical point
    form, nl, u1, cfg = preset_row("case2", h_for(160))
    result = mp.solve(form, nl, u1, cfg)
    assert result.iterations <= 120 and result.curvature_steps > 0
    e, w = end_point(form, result)
    assert e == pytest.approx(0.003079834648, rel=1e-6) and w == 1


@pytest.mark.parametrize("case, h", [("case1", h_for(40)),
                                     ("case2", h_for(80)), ("case5", 0.15)])
def test_descent_step_takes_ties(case, h, monkeypatch):
    # every Newton attempt returns delta times the descent direction, so
    # its ladder is the descent step's own: a ladder whose lowest rung is
    # the full step is a full Newton step, and any other ties the descent
    # step, which takes the tie.  The run takes no damped rung and its
    # iterates are those of the descent without Newton attempts
    form, nl, u1, cfg = preset_row(case, h)
    monkeypatch.setattr(mp, "NEWTON_EVERY", 10 ** 9)
    plain = mp.solve(form, nl, u1, cfg)
    monkeypatch.undo()

    def newton_direction(hessian, lam, a, g_hat):
        return (cfg.delta * mp.modal_direction(g_hat, lam, cfg.direction_reg),
                None, 1)
    monkeypatch.setattr(mp, "newton_direction", newton_direction)
    result = mp.solve(form, nl, u1, cfg)
    assert plain.converged and plain.newton_attempts == 0
    assert result.newton_damped == 0 and result.curvature_steps == 0
    # the attempts that took no full step each met a tie
    assert result.newton_attempts > result.newton_steps
    assert result.records == plain.records


def test_curvature_step_signed_to_descend(monkeypatch):
    # a direction of negative curvature is stepped along with the sign that
    # descends, so negating every one the Newton attempts return changes
    # no iterate (negation is exact in floating point)
    form, nl, u1, cfg = preset_row("case4", h_for(80))
    plain = mp.solve(form, nl, u1, cfg)
    newton_direction = mp.newton_direction

    def negated(*args):
        d_hat, p_hat, products = newton_direction(*args)
        return d_hat, None if p_hat is None else -p_hat, products
    monkeypatch.setattr(mp, "newton_direction", negated)
    result = mp.solve(form, nl, u1, cfg)
    assert plain.curvature_steps > 0 and result.records == plain.records


def test_final_grad_norm_survives_long_descent(monkeypatch):
    # the case-4 preset at 320 elements converges, and with no step along
    # negative curvature (no direction is narrow enough) it converges
    # after over 1,000 iterations, with the iterate carried in three
    # linearly updated forms; |b|_H1 recomputed from the returned nodal
    # values by Cholesky matches the reported one, which the stopping test
    # trusts.  The run may end on a Newton step far below epsilon (5.4e-6
    # against 1e-3 in one run), where the relative bound holds only
    # because the stop is confirmed on the nodal gradient
    form, nl, u1, cfg = preset_row("case4", h_for(320))
    for width in (mp.CURVATURE_WIDTH, 0):
        monkeypatch.setattr(mp, "CURVATURE_WIDTH", width)
        result = mp.solve(form, nl, u1, cfg)
        assert result.converged
        assert (result.curvature_steps > 0) == (width > 0)
        assert width or result.iterations > 1000
        g = en.gradient(form, nl, result.solution)
        b_h1 = cholesky_direction(form, g, cfg.grounding_rel, 0.0)[2]
        assert result.final_grad_norm == pytest.approx(b_h1, rel=1e-8,
                                                       abs=0.0)


def test_converged_stop_confirmed_on_nodal_gradient(case1_coarse,
                                                    monkeypatch):
    # a modal norm below epsilon stops the descent only when the norm from
    # the nodal gradient is below it too: with the first confirmation
    # failing, the descent goes on and confirms again at a later iterate
    mesh, form, M, S, u1 = case1_coarse
    cfg = mp.SolverConfig()
    plain = mp.solve(form, en.NONLINEARITIES["cubic"], u1, cfg)
    calls = []

    def gradient(form, nl, w):
        calls.append(len(calls))
        g = en.gradient(form, nl, w)
        return g * 1e9 if len(calls) == 1 else g
    monkeypatch.setattr(mp, "gradient", gradient)
    result = mp.solve(form, en.NONLINEARITIES["cubic"], u1, cfg)
    assert plain.converged and result.converged
    assert len(calls) == 2 and result.iterations > plain.iterations
    assert result.records[:plain.iterations] == plain.records
    assert result.final_grad_norm <= cfg.epsilon


def test_final_grad_norm_on_budget_stop():
    # the budget runs out after an accepted step: the reported |b|_H1 is
    # that of the returned iterate, recomputed here by Cholesky
    spec = nm.config.parse_config_text(nm.cases.case_config_text("case4"))
    mesh = spec.build_mesh(h_for(80))
    form = nm.assemble_dirichlet(mesh, spec.make_kernel(), spec.quad_order)
    nl = spec.make_nonlinearity()
    cfg = spec.solver_config()
    cfg.max_iterations = 50
    result = mp.solve(form, nl, spec.initial_guess_fe(mesh), cfg)
    assert result.stop_reason == "max_iterations"
    assert result.iterations == 50
    g = en.gradient(form, nl, result.solution)
    b_h1 = cholesky_direction(form, g, cfg.grounding_rel, 0.0)[2]
    assert result.final_grad_norm == pytest.approx(b_h1, rel=1e-8, abs=0.0)
    assert result.final_grad_norm != result.records[-1].grad_norm_h1


def test_indefinite_form_raises_singular_system(case1_coarse):
    # a form whose grounded B is not positive definite has no modal basis
    mesh, _, M, S, u1 = case1_coarse
    form = nm.assemble_dirichlet(mesh, nm.Exponential())
    form.B = -form.B
    nl = en.NONLINEARITIES["cubic"]
    with pytest.raises(SingularSystem, match="not positive definite"):
        form.modal_basis(mp.SolverConfig.grounding_rel)
    with pytest.raises(SingularSystem):
        modal_direction_at(form, nl, np.ones(form.n_unknowns))
    with pytest.raises(SingularSystem):
        mp.solve(form, nl, u1)


@pytest.mark.parametrize("setup", ["case1_coarse", "neumann_coarse"])
def test_assembly_and_reference_resolve_build_no_basis(setup, request,
                                                         monkeypatch):
    # only the descent pays for the eigendecomposition
    mesh, _, M, S, u1 = request.getfixturevalue(setup)
    pencils = count_calls(monkeypatch, assembly, "_eigh_pencil")
    eighs = count_calls(monkeypatch, np.linalg, "eigh")
    if setup == "case1_coarse":
        form = nm.assemble_dirichlet(mesh, nm.Exponential())
        nl = en.NONLINEARITIES["cubic"]
    else:
        form = nm.assemble_neumann(mesh, nm.Exponential())
        nl = en.NONLINEARITIES["allen_cahn"]
    nm.reference_errors(form, M, nl, u1)
    assert pencils == [] and eighs == []


def test_determinism(case1_solved):
    mesh, form, M, S, u1, result = case1_solved
    cfg = mp.SolverConfig()
    r1 = mp.solve(form, en.NONLINEARITIES["cubic"], u1, cfg)
    r2 = mp.solve(form, en.NONLINEARITIES["cubic"], u1, cfg)
    assert [ (r.energy, r.grad_norm_h1, r.t_star, r.halvings_used)
             for r in r1.records ] == \
           [ (r.energy, r.grad_norm_h1, r.t_star, r.halvings_used)
             for r in r2.records ]
    np.testing.assert_array_equal(r1.solution.values, r2.solution.values)


def test_max_iterations_carries_partial_result(case1_solved):
    mesh, form, M, S, u1, result = case1_solved
    cfg = mp.SolverConfig(max_iterations=2)
    partial = mp.solve(form, en.NONLINEARITIES["cubic"], u1, cfg)
    assert not partial.converged
    assert partial.stop_reason == "max_iterations"
    assert partial.iterations == 2
    assert partial.records == result.records[:2]


def test_stall_error_carries_partial_result(case1_solved, monkeypatch):
    mesh, form, M, S, u1, result = case1_solved
    monkeypatch.setattr(mp, "MAX_HALVINGS", 0)
    partial = mp.solve(form, en.NONLINEARITIES["cubic"], u1)
    assert not partial.converged
    assert partial.stop_reason == "stall"


def test_budget_met_by_last_step_converges(case1_solved):
    # the iterate of the last budgeted step is tested against epsilon
    # before the budget is: a budget equal to the iteration count of the
    # unbudgeted run converges with its records
    mesh, form, M, S, u1, result = case1_solved
    cfg = mp.SolverConfig(max_iterations=result.iterations)
    edge = mp.solve(form, en.NONLINEARITIES["cubic"], u1, cfg)
    assert edge.converged and edge.stop_reason == "converged"
    assert edge.records == result.records
    assert edge.final_grad_norm == result.final_grad_norm
    np.testing.assert_array_equal(edge.solution.values,
                                  result.solution.values)


def test_zero_gradient_stops_converged(case1_solved, monkeypatch):
    # a start whose gradient vanishes is a critical point: |b|_H1 = 0
    # passes the tolerance test before any direction is formed.  Both the
    # modal gradient and the nodal one that confirms the stop vanish
    mesh, form, M, S, u1, result = case1_solved
    monkeypatch.setattr(mp, "modal_gradient",
                        lambda form, nl, basis, a, x: np.zeros_like(a))
    monkeypatch.setattr(mp, "gradient",
                        lambda form, nl, w: np.zeros_like(w))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = mp.solve(form, en.NONLINEARITIES["cubic"], u1)
    assert result.converged and result.stop_reason == "converged"
    assert result.iterations == 0 and result.final_grad_norm == 0.0


def test_unregularized_direction_available(case1_solved):
    # direction_reg = 0 recovers v1 = -b/|b|_H1
    mesh, form, M, S, u1, result = case1_solved
    nl = en.NONLINEARITIES["cubic"]
    rng = np.random.default_rng(1)
    w = rng.standard_normal(form.n_unknowns)
    b, v1, b_h1, g = modal_direction_at(form, nl, w,
                                        mp.SolverConfig(direction_reg=0.0))
    np.testing.assert_allclose(v1, -b / b_h1, atol=1e-14)


def test_neumann_solve_converges(neumann_coarse):
    mesh, form, M, S, u1 = neumann_coarse
    cfg = mp.SolverConfig(max_iterations=60000)
    result = mp.solve(form, en.NONLINEARITIES["allen_cahn"], u1, cfg)
    assert result.converged
    assert result.final_grad_norm <= 1e-3
    # the pulse keeps a nontrivial amplitude
    assert np.max(np.abs(result.solution.values)) > 0.3
    # exterior constraint satisfied by construction of the solution
    raw, rel = form.exterior_constraint_residual(result.solution.values)
    assert rel <= 1e-10


# the ray g(t) = t^2/2 - t^4/4 has its maximum at t = 1
RAY = np.array([0.0, 0.0, 0.5, 0.0, -0.25])
VIOLATIONS = {
    "descent certificate": (np.ones(2), np.ones(2), 1.0, 0.5, RAY, 1.0),
    "energy did not decrease": (np.ones(2), -np.ones(2), 1.0, 1.0, RAY, 1.0),
    "ray maximum": (np.ones(2), -np.ones(2), 1.0, 0.5, RAY, 0.5),
}


def test_default_descent_checks_every_step(case1_coarse, monkeypatch):
    # no setting turns the checks on: a default run checks each accepted
    # step, Newton or descent, once
    calls = []
    check_invariants = mp.check_invariants

    def counted(iteration, *args):
        calls.append(iteration)
        return check_invariants(iteration, *args)

    monkeypatch.setattr(mp, "check_invariants", counted)
    mesh, form, M, S, u1 = case1_coarse
    result = mp.solve(form, en.NONLINEARITIES["cubic"], u1, mp.SolverConfig())
    assert result.converged and result.newton_steps > 0
    assert calls == [rec.iteration for rec in result.records]


def test_check_invariants_raises_with_iteration():
    mp.check_invariants(7, np.ones(2), -np.ones(2), 1.0, 0.5, RAY, 1.0)
    for what, args in VIOLATIONS.items():
        with pytest.raises(InvariantViolation, match=what) as info:
            mp.check_invariants(7, *args)
        assert info.value.iteration == 7


@pytest.mark.parametrize("t, holds", [(1.0 + 3e-7, True), (0.5, False)])
def test_check_invariants_ray_stationarity_is_scale_free(t, holds):
    # the ray of lam u has coefficients c[k] lam^k and maximum t / lam:
    # the verdict must not depend on lam
    powers = np.arange(RAY.size)
    for lam in (1e-3, 1.0, 1e3):
        args = (np.ones(2), -np.ones(2), 1.0, 0.5, RAY * lam ** powers,
                t / lam)
        if holds:
            mp.check_invariants(7, *args)
        else:
            with pytest.raises(InvariantViolation, match="ray maximum"):
                mp.check_invariants(7, *args)


def test_check_invariants_survive_optimize_flag():
    # assert statements vanish under python -O; the checks must not
    code = textwrap.dedent("""
        import numpy as np
        from nonlocalmp import mountain_pass as mp
        from nonlocalmp.errors import InvariantViolation
        assert False, "asserts are live"
        ray = np.array([0.0, 0.0, 0.5, 0.0, -0.25])
        try:
            mp.check_invariants(3, np.ones(2), -np.ones(2), 1.0, 1.0, ray, 1.0)
        except InvariantViolation as exc:
            print("raised at", exc.iteration)
        """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(nm.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "raised at 3"
