import math

import numpy as np
import pytest

import nonlocalmp as nm
from nonlocalmp import energy as en
from nonlocalmp import mountain_pass as mp
from nonlocalmp.errors import ZeroDirection
from oracles import (central_difference, companion_ray_max,
                     grid_ray_argmax, per_call_step_polynomial,
                     roots_horner_ray_max)

from conftest import CUBIC_PLUS_QUINTIC, h_for, modal_direction_at

ALL_NL = [en.NONLINEARITIES[name] for name in
          ("cubic", "quintic", "cubic_minus_linear", "allen_cahn")]
SCREEN_NL = ALL_NL + [CUBIC_PLUS_QUINTIC]
# every step the descent tries with the default delta and halving budget
STEPS = 2.0 ** -np.arange(61)


def step_args(form, w, v):
    """(B_step, x) of the steps w + s v: the pairings taken by products
    with the assembled B, and the Gauss values of w and v as two rows."""
    x = np.vstack([form.values_at_omega_quad(form.full_values(u))
                   for u in (w, v)])
    B_step = (float(w @ form.B @ w), float(w @ form.B @ v),
              float(v @ form.B @ v))
    return B_step, x


def screen(nl, B_step, x, weights, steps):
    """(t*, g(t*), c) of the steps w + s v by ``step_polynomial``, from
    the pairings ``B_step`` and the Gauss values x of w and v."""
    rule = en.step_polynomial(nl, steps, weights)
    return rule(B_step, en.power_table(x, max(nl.moment_powers)))


def step_screen(form, nl, w, v):
    """``step_polynomial`` of the steps w + s v as a function of the
    steps, with the pairings taken by products with the assembled B."""
    B_step, x = step_args(form, w, v)
    return lambda steps: screen(nl, B_step, x, form.omega_quad_weights(),
                                steps)


def ray_max_one(nl, Buu, P):
    """(t*, g(t*)) of ``ray_max`` for the one ray with B[u, u] = Buu and
    the moments P (a dict power -> int u^k dx)."""
    c = en.ray_coefficients(nl, Buu, P)
    ts, g = en.ray_max(nl, np.array([Buu]), c[None])
    return ts[0], g[0]


def test_pointwise_values():
    cubic, quintic, cml, ac = ALL_NL
    assert cubic.f(2.0) == 8.0 and cubic.F(2.0) == 4.0
    assert quintic.f(2.0) == 32.0 and quintic.F(2.0) == pytest.approx(64.0 / 6.0)
    assert cml.f(1.0) == 0.0 and cml.F(1.0) == pytest.approx(-0.25)
    assert ac.f(1.0) == 0.0 and ac.F(1.0) == pytest.approx(-0.25)


@pytest.mark.parametrize("nl", ALL_NL, ids=lambda nl: nl.name)
def test_antiderivative_consistency(nl):
    assert nl.F(0.0) == 0.0
    ts = np.linspace(-2.0, 2.0, 41)
    eps = 1e-6
    fd = (nl.F(ts + eps) - nl.F(ts - eps)) / (2.0 * eps)
    np.testing.assert_allclose(fd, nl.f(ts), atol=1e-7, rtol=1e-7)
    # f' from the power table, as the Newton attempt takes it
    fd = (nl.f(ts + eps) - nl.f(ts - eps)) / (2.0 * eps)
    fprime = nl.fprime_from_powers(en.power_table(ts, max(nl.F_coeffs)))
    np.testing.assert_allclose(fd, fprime, atol=1e-7, rtol=1e-7)


def _power_sum_reference(terms, t):
    """sum c t^k with numpy's general power, and sum |c t^k| as the scale."""
    vals = [c * t**k for c, k in terms]
    return sum(vals), sum(np.abs(v) for v in vals)


@pytest.mark.parametrize("nl", SCREEN_NL, ids=lambda nl: nl.name)
def test_powers_match_general_power(nl, case1_coarse):
    # f, F and the moments take their powers from one table built by
    # repeated multiplication; they agree with u**k to round-off
    rng = np.random.default_rng(12)
    t = 1.5 * rng.standard_normal(200)
    t[::7] = 0.0
    for got, terms in (
            (nl.f(t), [(k * a, k - 1) for k, a in nl.F_coeffs.items()]),
            (nl.F(t), [(a, k) for k, a in nl.F_coeffs.items()])):
        ref, scale = _power_sum_reference(terms, t)
        assert np.all(np.abs(got - ref) <= 1e-14 * scale)

    form = case1_coarse[1]
    w = form.omega_quad_weights()
    for _ in range(5):
        u = form.full_values(rng.standard_normal(form.n_unknowns))
        uq = form.values_at_omega_quad(u)
        for k, got in en.moments(form, u, nl.moment_powers).items():
            assert abs(got - w @ uq**k) <= 1e-14 * (w @ np.abs(uq)**k)


@pytest.mark.parametrize("nl", SCREEN_NL, ids=lambda nl: nl.name)
def test_scalar_values_are_floats(nl):
    for t in (-1.5, 0.0, 2, np.float64(0.5)):
        assert type(nl.f(t)) is float and type(nl.F(t)) is float


def test_hypothesis_metadata():
    cubic, quintic, cml, ac = ALL_NL
    assert cubic.hypothesis_meta["a2"] == 1.0
    assert cubic.hypothesis_meta["alpha"] == 3
    assert cubic.hypothesis_meta["mu_range"] == (2.0, 4.0)
    assert cubic.hypothesis_meta["theta"] == 1.0
    assert cubic.hypothesis_meta["A3"] and cubic.hypothesis_meta["A4"]
    assert (quintic.hypothesis_meta["a1"], quintic.hypothesis_meta["a2"],
            quintic.hypothesis_meta["alpha"]) == (1.0, 1.0, 5)
    assert quintic.hypothesis_meta["mu_range"] == (2.0, 6.0)
    assert (cml.hypothesis_meta["a1"], cml.hypothesis_meta["a2"]) == (1.0, 2.0)
    assert not cml.hypothesis_meta["A3"]
    assert not ac.hypothesis_meta["A3"] and not ac.hypothesis_meta["A4"]
    assert ac.hypothesis_meta["A2"] and ac.hypothesis_meta["A5"]


def test_energy_of_zero(case1_coarse):
    mesh, form, M, S, u1 = case1_coarse
    for nl in ALL_NL:
        assert en.energy(form, nl, nm.FeFunction(mesh)) == 0.0


def test_energy_ray_homogeneity(case1_coarse):
    # cubic: I[t u] = t^2/2 B[u,u] - t^4 int u^4/4 exactly
    mesh, form, M, S, u1 = case1_coarse
    nl = en.NONLINEARITIES["cubic"]
    uu = form.reduce(u1)
    Buu = float(uu @ form.B @ uu)
    P4 = en.moments(form, u1.values, (4,))[4]
    for t in (0.3, 1.0, 1.7):
        direct = en.energy(form, nl, nm.FeFunction(mesh, t * u1.values))
        assert direct == pytest.approx(0.5 * t**2 * Buu - 0.25 * t**4 * P4,
                                       rel=1e-12)


def test_energy_regression_baseline():
    # frozen value of the ray-maximal energy for the sine start at 80 elements
    mesh = nm.build_mesh(-math.pi, math.pi, h_for(80))
    form = nm.assemble_dirichlet(mesh, nm.Exponential())
    u1 = nm.interpolate(mesh, math.sin, constraint="dirichlet")
    nl = en.NONLINEARITIES["cubic"]
    ts = en.t_star(form, nl, u1)
    e_star = en.energy(form, nl, nm.FeFunction(mesh, ts * u1.values))
    assert e_star > 0.0
    assert ts == pytest.approx(0.7492251388719963, rel=1e-10)
    assert e_star == pytest.approx(0.18522841824326253, rel=1e-10)
    # interior maximum confirmed on a dense grid
    uu = form.reduce(u1)
    Buu = float(uu @ form.B @ uu)
    P4 = en.moments(form, u1.values, (4,))[4]
    tg = grid_ray_argmax(lambda t: 0.5 * Buu * t**2 - 0.25 * P4 * t**4,
                         t_max=10.0, step=1e-4)
    assert abs(ts - tg) <= 1e-4


def test_gradient_zero_at_origin(case1_coarse):
    mesh, form, M, S, u1 = case1_coarse
    for nl in ALL_NL:
        g = en.gradient(form, nl, nm.FeFunction(mesh))
        assert np.all(g == 0.0)


@pytest.mark.parametrize("nl", ALL_NL, ids=lambda nl: nl.name)
def test_gradient_against_central_differences(nl, case1_coarse):
    mesh, form, M, S, u1 = case1_coarse
    rng = np.random.default_rng(11)
    for _ in range(20):
        w = 0.8 * rng.standard_normal(form.n_unknowns)
        # correlate v with w so the third derivative along v stays away
        # from zero and the quadratic error term dominates the rounding
        # floor at both step sizes
        v = w + 0.5 * rng.standard_normal(form.n_unknowns)
        g = en.gradient(form, nl, w)
        errs = {}
        for eps in (1e-4, 1e-5):
            fd = central_difference(lambda z: en.energy(form, nl, z), w, v, eps)
            errs[eps] = abs(fd - float(g @ v))
        if errs[1e-5] < 1e-12:   # difference at rounding level already
            continue
        order = math.log10(errs[1e-4] / errs[1e-5])
        assert order >= 1.9


def test_t_star_closed_formulas():
    # direct arithmetic on injected moments
    cubic, quintic, cml, ac = ALL_NL
    assert ray_max_one(cubic, 2.0, {4: 8.0})[0] == pytest.approx(0.5)
    assert ray_max_one(quintic, 1.0, {6: 16.0})[0] == pytest.approx(0.5)
    assert ray_max_one(cml, 1.0, {2: 1.0, 4: 8.0})[0] \
        == pytest.approx(0.5)
    assert ac._ray_rule is None


@pytest.mark.parametrize("F", [{}, {2: 1.0}, {1: 1.0, 4: 1.0}],
                         ids=["empty", "quadratic", "linear_term"])
def test_nonlinearity_needs_powers_above_linear(F):
    # F vanishes to second order at zero and has a power above 2, so every
    # ray polynomial has a t^2 term and a higher one
    with pytest.raises(ValueError, match="powers of F"):
        en.Nonlinearity("bad", F)


@pytest.mark.parametrize("nl", ALL_NL, ids=lambda nl: nl.name)
def test_t_star_matches_grid_argmax(nl, case1_coarse):
    mesh, form, M, S, u1 = case1_coarse
    rng = np.random.default_rng(5)
    for _ in range(10):
        u = form.fe(rng.standard_normal(form.n_unknowns))
        ts = en.t_star(form, nl, u)
        uu = form.reduce(u)
        Buu = float(uu @ form.B @ uu)
        P = en.moments(form, u.values, nl.moment_powers)
        c = en.ray_coefficients(nl, Buu, P)
        tg = grid_ray_argmax(lambda t: en.ray_energy(c, t), t_max=10.0,
                             step=1e-3)
        assert abs(ts - tg) <= 1e-3


def test_t_star_allen_cahn_step(neumann_coarse):
    mesh, form, M, S, u1 = neumann_coarse
    nl = en.NONLINEARITIES["allen_cahn"]
    ts = en.t_star(form, nl, u1)
    uu = form.reduce(u1)
    Buu = float(uu @ form.B @ uu)
    P = en.moments(form, u1.values, nl.moment_powers)
    c = en.ray_coefficients(nl, Buu, P)
    tg = grid_ray_argmax(lambda t: en.ray_energy(c, t), t_max=10.0, step=1e-4)
    assert abs(ts - tg) <= 1e-3


@pytest.mark.parametrize("nl", ALL_NL, ids=lambda nl: nl.name)
def test_ray_maximizer_dominates_ray(nl, case1_coarse):
    mesh, form, M, S, u1 = case1_coarse
    rng = np.random.default_rng(23)
    for _ in range(5):
        u = form.fe(rng.standard_normal(form.n_unknowns))
        uu = form.reduce(u)
        Buu = float(uu @ form.B @ uu)
        P = en.moments(form, u.values, nl.moment_powers)
        c = en.ray_coefficients(nl, Buu, P)
        ts = en.t_star(form, nl, u)
        e_star = en.ray_energy(c, ts)
        grid = np.linspace(1e-6, 2.0 * ts, 2001)
        assert np.all(en.ray_energy(c, grid) <= e_star + 1e-10)
        # first-order condition at the maximizer
        slope = en.ray_slope(c, ts)
        scale = max(abs(Buu), 1.0)
        assert abs(slope) <= 1e-8 * scale


def test_t_star_scale_covariance(case1_coarse):
    mesh, form, M, S, u1 = case1_coarse
    nl = en.NONLINEARITIES["cubic"]
    base = en.t_star(form, nl, u1)
    for cscale in (0.5, 2.0, 7.0):
        scaled = en.t_star(form, nl, nm.FeFunction(mesh, cscale * u1.values))
        assert scaled == pytest.approx(base / cscale, rel=1e-12)


def test_t_star_zero_direction(case1_coarse):
    mesh, form, M, S, u1 = case1_coarse
    with pytest.raises(ZeroDirection):
        en.t_star(form, en.NONLINEARITIES["cubic"], nm.FeFunction(mesh))


@pytest.mark.parametrize("setup", ["case1_coarse", "neumann_coarse"])
@pytest.mark.parametrize("nl", SCREEN_NL, ids=lambda nl: nl.name)
def test_step_polynomial_matches_ray_data(nl, setup, request):
    # the step polynomial's ray energies of w + s v against those of
    # ray_data on the moments of w + s v, from an iterate w on its ray
    # maximum along its descent direction v
    mesh, form, M, S, u1 = request.getfixturevalue(setup)
    u = form.reduce(u1)
    w = en.t_star(form, nl, u) * u
    v = modal_direction_at(form, nl, w)[1]
    _, screened, _ = step_screen(form, nl, w, v)(STEPS)
    assert screened.shape == STEPS.shape
    for s, got in zip(STEPS, screened):
        try:
            ts, c = en.ray_data(form, nl, w + s * v)
        except ZeroDirection:
            assert np.isnan(got)
            continue
        assert got == pytest.approx(en.ray_energy(c, ts), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("setup", ["case1_coarse", "neumann_coarse"])
@pytest.mark.parametrize("nl", SCREEN_NL, ids=lambda nl: nl.name)
def test_step_polynomial_built_once_matches_per_call_rule(nl, setup,
                                                          request):
    # the rule built once per descent gives the bits of the rule that built
    # its Vandermonde matrix, binomial weights and power tables per call
    mesh, form, M, S, u1 = request.getfixturevalue(setup)
    u = form.reduce(u1)
    w = en.t_star(form, nl, u) * u
    v = modal_direction_at(form, nl, w)[1]
    B_step, x = step_args(form, w, v)
    weights = form.omega_quad_weights()
    got = screen(nl, B_step, x, weights, STEPS)
    ref = per_call_step_polynomial(nl, B_step, x, weights)(STEPS)
    assert not np.isnan(got[1]).all()
    for g, r in zip(got, ref):
        assert np.array_equal(g, r, equal_nan=True)


@pytest.mark.parametrize("setup", ["case1_coarse", "neumann_coarse"])
@pytest.mark.parametrize("nl", SCREEN_NL, ids=lambda nl: nl.name)
def test_step_polynomial_zero_direction(nl, setup, request):
    # the screen keeps ray_data's rule: no bilinear-form energy, no ray
    mesh, form, M, S, u1 = request.getfixturevalue(setup)
    zero = np.zeros(form.n_unknowns)
    with pytest.raises(ZeroDirection):
        en.ray_data(form, nl, zero)
    ts, g, _ = step_screen(form, nl, zero, zero)(STEPS)
    assert np.isnan(ts).all() and np.isnan(g).all()


@pytest.mark.parametrize("nl", [
    en.Nonlinearity("defocusing_cubic", {4: -0.25}),
    en.Nonlinearity("defocusing_cubic_quintic", {4: -0.25, 6: -1.0 / 6.0}),
], ids=lambda nl: nl.name)
def test_step_polynomial_no_ray_maximum(nl, case1_coarse):
    # I[t u] grows without bound along every ray: the closed-form rule and
    # the root rule both give NaN where ray_data raises
    mesh, form, M, S, u1 = case1_coarse
    u = form.reduce(u1)
    with pytest.raises(ZeroDirection):
        en.ray_data(form, nl, u)
    ts, g, _ = step_screen(form, nl, u, u)(STEPS)
    assert np.isnan(ts).all() and np.isnan(g).all()


def _assert_matches_companion_rule(nl, Buu, P, screened):
    """t* and g(t*) of ``ray_max`` on the direct moments, g(t*) at that t*
    and the screened g(t*) against the companion-matrix rule; both paths
    find no maximum where it does."""
    c = en.ray_coefficients(nl, Buu, P)
    ref = companion_ray_max(c)
    ts, g = ray_max_one(nl, Buu, P)
    if ref is None:
        assert np.isnan(ts) and np.isnan(g) and np.isnan(screened)
        return
    assert ts == pytest.approx(ref[0], rel=1e-12, abs=0.0)
    assert g == pytest.approx(ref[1], rel=1e-12, abs=0.0)
    assert en.ray_energy(c, ts) == pytest.approx(ref[1], rel=1e-12, abs=0.0)
    assert screened == pytest.approx(ref[1], rel=1e-12, abs=0.0)


def test_quadratic_rule_matches_companion_rule(neumann_coarse):
    # Allen-Cahn: g'(t)/t is a quadratic, solved by formula in both paths
    mesh, form, M, S, u1 = neumann_coarse
    nl = en.NONLINEARITIES["allen_cahn"]
    rng = np.random.default_rng(31)
    steps = np.array([0.0, 0.25, 1.0])
    found = 0
    for _ in range(20):
        w, v = rng.standard_normal((2, form.n_unknowns))
        _, screened, _ = step_screen(form, nl, w, v)(steps)
        for s, got in zip(steps, screened):
            u = w + s * v
            Buu = float(u @ form.B @ u)
            P = en.moments(form, form.full_values(u), nl.moment_powers)
            _assert_matches_companion_rule(nl, Buu, P, got)
            found += not np.isnan(got)
    assert found >= 30


def point_screen(nl, b):
    """The screened ray of u = 1 at step 0, for one unknown and one
    unit-weight Gauss point holding its value: B[u, u] = b and every
    moment equals 1."""
    return screen(nl, (b, 0.0, 0.0), np.array([[1.0], [0.0]]), np.ones(1),
                  np.zeros(1))[1][0]


@pytest.mark.parametrize("F, b, has_max", [
    # g'(t)/t = b - 3t + 0.4 t^2: two positive roots, the smaller a maximum
    ({3: 1.0, 4: -0.1}, 2.0, True),
    # negative discriminant: the ray has no critical point
    ({3: 1.0, 4: -0.1}, 6.0, False),
    # discriminant 9e-6 against q1^2 = 9: nearly a double root
    ({3: 1.0, 4: -0.1}, 5.625 * (1.0 - 1e-6), True),
    # g'(t)/t = (t - 1e-3)^2 - 2e-21: a complex pair 4e-11 off the real
    # axis, which counts as the double root 1e-3
    ({3: 2e-3 / 3.0, 4: -0.25}, 1e-6 * (1.0 + 2e-15), True),
    # no cubic term (q1 = 0): roots +-sqrt(b + 1)
    ({2: -0.5, 3: 0.0, 4: 0.25}, 3.0, True),
], ids=["two_positive_roots", "negative_discriminant", "near_double_root",
        "complex_double_root", "q1_zero"])
def test_quadratic_rule_hand_built(F, b, has_max):
    nl = en.Nonlinearity("hand_built", F)
    assert nl._ray_rule is None
    P = {k: 1.0 for k in nl.moment_powers}
    screened = point_screen(nl, b)
    assert (companion_ray_max(en.ray_coefficients(nl, b, P)) is not None) \
        == has_max
    _assert_matches_companion_rule(nl, b, P, screened)


def test_quadratic_rule_is_cancellation_free():
    # g'(t)/t = b - 3t + 0.4 t^2 with b = 1e-9: the maximum sits at the
    # small root 2b / (3 + sqrt(9 - 1.6 b)), which the textbook formula
    # (3 - sqrt(9 - 1.6 b)) / 0.8 gets to about 1e-7 only
    nl = en.Nonlinearity("hand_built", {3: 1.0, 4: -0.1})
    b = 1e-9
    root = 2.0 * b / (3.0 + math.sqrt(9.0 - 1.6 * b))
    c = en.ray_coefficients(nl, b, {3: 1.0, 4: 1.0})
    ts = ray_max_one(nl, b, {3: 1.0, 4: 1.0})[0]
    assert ts == pytest.approx(root, rel=1e-14, abs=0.0)
    screened = point_screen(nl, b)
    assert screened == pytest.approx(en.ray_energy(c, root), rel=1e-12,
                                     abs=0.0)


def test_quartic_closed_form_matches_roots_and_horner():
    # F with top power 4 and a t^3 term: g(t*) = t*^2 (c2/2 + c3 t*/4)
    # against Horner's rule at both roots and their argmax, on random rows
    # and on edge rows, each given as (q0, q1, q2) of g'(t)/t and B[u, u]
    rng = np.random.default_rng(28)
    n = 2000
    c = np.zeros((n, 5))
    c[:, 2:] = rng.standard_normal((n, 3)) * 10.0 ** rng.uniform(
        -3, 3, (n, 3))
    Buu = rng.choice([-1.0, 1.0], n, p=[0.1, 0.9]) * rng.uniform(0.1, 2.0, n)
    edges = [
        # a complex pair 4e-11 off the axis, inside the 1e-20 tolerance:
        # the double root 1e-3
        ((1e-6 * (1.0 + 2e-15), -2e-3, 1.0), 1.0),
        # a negative discriminant outside it: no critical point
        ((1e-6 * (1.0 + 1e-9), -2e-3, 1.0), 1.0),
        # two negative roots, -1 and -2
        ((2.0, 3.0, 1.0), 1.0),
        # a ray with a maximum, but B[u, u] <= 0
        ((2.0, -3.0, -1.0), -1.0),
        ((2.0, -3.0, -1.0), 0.0),
        # q2 = 0: the linear root 2 only
        ((2.0, -1.0, 0.0), 1.0),
        # q2 = 0 and no positive root
        ((2.0, 1.0, 0.0), 1.0),
    ]
    q_edge = np.array([q for q, _ in edges])
    c = np.vstack([c, np.column_stack([np.zeros((len(edges), 2)),
                                       q_edge / [2.0, 3.0, 4.0]])])
    Buu = np.concatenate([Buu, [b for _, b in edges]])
    nl = en.NONLINEARITIES["allen_cahn"]
    assert nl._ray_rule is None and max(nl.moment_powers) == 4
    ts, g = en.ray_max(nl, Buu, c)
    ts_ref, g_ref = roots_horner_ray_max(Buu, c)
    assert np.array_equal(np.isnan(ts), np.isnan(ts_ref))
    assert np.array_equal(np.isnan(g), np.isnan(ts))
    assert np.array_equal(np.isnan(g_ref), np.isnan(ts_ref))
    found = ~np.isnan(ts)
    assert 500 <= found[:n].sum() < n
    assert found[n:].tolist() == [True, False, False, False, False, True,
                                  False]
    np.testing.assert_allclose(ts[found], ts_ref[found], rtol=1e-12, atol=0)
    np.testing.assert_allclose(g[found], g_ref[found], rtol=1e-12, atol=0)
    assert ts[n] == pytest.approx(1e-3, rel=1e-12)
    assert ts[n + 5] == 2.0


def test_nonlinearity_from_name():
    assert en.nonlinearity_from_name("allen_cahn") \
        is en.NONLINEARITIES["allen_cahn"]
    with pytest.raises(ValueError):
        en.nonlinearity_from_name("septic")


def test_nonlinearity_given_as_data(case1_coarse):
    # F = t^4/4 + t^6/6 has two powers above 2, so t* has no closed form
    # and comes from the roots of the ray polynomial's derivative
    mesh, form, M, S, u1 = case1_coarse
    nl = CUBIC_PLUS_QUINTIC
    ts = np.linspace(-2.0, 2.0, 41)
    np.testing.assert_allclose(nl.f(ts), ts**3 + ts**5, rtol=1e-14)
    np.testing.assert_allclose(nl.F(ts), ts**4 / 4 + ts**6 / 6, rtol=1e-14)
    assert nl.moment_powers == (4, 6)
    assert nl._ray_rule is None

    rng = np.random.default_rng(5)
    for _ in range(10):
        u = form.fe(rng.standard_normal(form.n_unknowns))
        ts = en.t_star(form, nl, u)
        uu = form.reduce(u)
        Buu = float(uu @ form.B @ uu)
        c = en.ray_coefficients(nl, Buu,
                                en.moments(form, u.values, nl.moment_powers))
        tg = grid_ray_argmax(lambda t: en.ray_energy(c, t), t_max=10.0,
                             step=1e-3)
        assert abs(ts - tg) <= 1e-3

    result = mp.solve(form, nl, u1)
    assert result.converged and result.final_grad_norm <= 1e-3
