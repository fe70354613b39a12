"""Gradient descent on the mountain-pass energy landscape, with a Newton
finish.

The descent works in the modal basis of the form (``NonlocalForm.
modal_basis``): one generalized eigendecomposition of the pencil
(B + sigma M, H) per form gives V with V^T H V = I and
V^T (B + sigma M) V = diag(lam), where H is the H1(Omega) Gram matrix
and sigma M a small mass shift grounding the Neumann constant null mode
(zero for Dirichlet).  The iterate w is carried three ways, each
updated linearly: its nodal values, its modal coordinates a (w = V a)
and its values at the domain Gauss points.  One outer iteration,
starting from an iterate w sitting on its own ray maximum:

  1. take the modal gradient g^ = V^T I'[w] = lam a - V^T load
     (``modal_gradient``), where the load holds
     int (f(w) + sigma w) phi_i dx (sigma int w phi_i is (M w)_i, the
     Gauss rule being exact for P1 products) and f(w) comes from the
     power table of the Gauss values x_w, filled once per iteration.
     The Riesz representative b of the gradient, (B + sigma M) b = I'[w],
     is V (g^ / lam), so its H1 norm over the physical domain is
     |g^ / lam|; stop when it is at most the tolerance (a vanishing
     gradient included) and so is the norm, then reported, from the
     gradient B w - load recomputed from the nodal values; or when the
     iteration budget is spent;
  2. when the iteration number is a multiple of NEWTON_EVERY, or the
     previous iteration took any step but the descent step, attempt a
     Newton step (the Newton finish, below); the attempt gives one
     candidate step, a Newton ladder or a step along negative curvature;
  3. unless that candidate is a full Newton step below e(w), form the
     normalized descent direction v1 = V v^ from the nonzero g^
     (``modal_direction``) and screen the halved steps delta 2^-k,
     k = 0 .. MAX_HALVINGS, along it for the candidate descent step,
     whose re-maximized trial t*(w~) w~ has strictly lower energy.
     Along w + s v1 the pairings
     B[w,w], B[w,v1], B[v1,v1] and B of every trial are sums over the
     modes, sum lam a b less the grounding sigma int u v (lam a is the
     gradient's), and the moments of a trial come from the Gauss values
     x_w + s x_v.  The step rule (``energy.step_polynomial``), built
     once per descent with the Vandermonde matrix of the steps, takes
     the pairings and the power
     tables of x_w (the one f(w) came from) and x_v and gives t* and the
     ray maximum of every halved step in one batched call; of the steps
     whose ray maximum is below e(w), the one with the lowest ray
     maximum is taken, ties going to the longer step (a NaN, no ray
     maximum, never is).  Along a near-quadratic ray the energy falls on
     (0, 2 s_opt), so the first halving below e(w) may lie anywhere in
     [s_opt, 2 s_opt) and lower the energy by almost nothing, while the
     lowest lies within a factor sqrt(2) of s_opt.  That call is the
     iteration's only ray evaluation but for the screen of the Newton
     attempt's candidate;
  4. choose the step from the candidates, each a screened step tagged
     with its kind (descent, newton, damped or curvature), by one rule:
     drop every candidate whose ray maximum is not below e(w) (a NaN
     never is); a full Newton step left pre-empts; otherwise the lowest
     ray maximum wins, ties going to the descent step.  With no candidate
     left the descent stalls;
  5. replace w by the re-maximized trial t* (w + s v1) and repeat.

An iteration thus makes dense n x n products V^T load and one V v^ per
direction it screens (a full Newton step pre-empts the descent
direction, which is then not formed), and a Newton attempt two more per
Hessian-vector product.
Building the basis is the descent's one O(n^3) cost: numpy's ``eigh``
of the pencil reduced by the bidiagonal Cholesky factor of H, which an
O(n) recurrence gives from H's two diagonals (see
``NonlocalForm.modal_basis``).  The descent factors no other matrix, and
its other products with H and M (the start's modal coordinates and L2
norm) are tridiagonal, O(n).

The Newton finish.  The descent's iteration count grows about 4x per
mesh halving (its metric B + tau H has a condition number of order
h^-2); Newton's does not, since preconditioned by diag(lam) the Hessian
is the identity less a bounded term.  An attempt at w = V a, on its ray
maximum, minimizes the quadratic model 1/2 d^T H^ d + g^ . d on the
tangent space (lam a) . d = 0, the modal form of (B + sigma M)[w, d] =
0, by projected PCG (``newton_direction``) on products of the modal
Hessian (``modal_hessian``, f'(w) from the iteration's power table).
CG stops at a relative preconditioned residual NEWTON_RTOL = 1e-4:
solved only to 1e-2, a step lands inside the epsilon-ball early, at a
worse point.  Negative curvature (p . H^ p <= 0) ends the attempt, which
then returns that CG direction p instead of a step.  The guard screens
the step d = V d^ like a descent direction, over the ladder of steps
1, 1/2, ... (v = d / delta), and keeps the rung with the lowest ray
maximum below e(w).  The ladder is a newton candidate of step 4 when
that rung is the full step, and a damped one otherwise; a damped ladder
is a candidate only when d^ is a descent direction (g^ . d^ < 0).
Unguarded, an attempt far from the solution can jump to a higher
critical point: from a perturbed case-5 start at h = 0.3 the run ended
at energy 0.2066 instead of 0.01334.  A damped rung is not that jump.
It is a step of the descent's own kind, strictly lower in energy, that
is taken only where it beats the descent step.  In that example the two
Newton ladders that have a rung below e(w) head for the higher point:
their lowest ray maxima are 0.2134 and 0.2066.  The descent steps beside
them reach 0.2082 and 0.1395, so both ladders lose and the run ends at
0.01334 as before.  A Newton step taken lowers the energy along a
descent direction (g^ . d^ = -d^T H^ d^ < 0 for the full step, asked of
a damped one) and ends on its ray maximum, so ``check_invariants``, which
``solve`` calls on every accepted step, holds for every kind of step.

Steps along negative curvature.  On rows that end in a one-node spike
most attempts meet negative curvature while the spike forms, and the
descent creeps there (case 4 at 320 elements: 1,462 iterations, 145 of
its attempts ending on p . H^ p <= 0).  The direction p lies on the
tangent space and points into the spike; Moré & Sorensen (Math.
Programming 16 (1979) 1-20) step along such directions.  ``solve``
signs it so that g^ . p < 0 (no step when g^ . p = 0), scales it to
unit H1 norm and screens it like the descent direction, for a curvature
candidate of step 4.  Taken everywhere, it moves rows to
other critical points, so three gates, all of which must hold, decide
whether p is a candidate:
  - localization: |V p| exceeds half its largest value on at most
    CURVATURE_WIDTH unknown nodes.  With the gradient gate off too,
    case 5 at h <= 0.15 ends at the constant u = 1/4 (energy 0.017578)
    instead of its one-node spike;
  - creeping: the last NEWTON_EVERY accepted steps lowered e(w) by less
    than CREEP_FRACTION e(w).  Without it case 1 at 40, 80 and 160
    elements leaves its smooth solution (0.0207085 and width 27 at 40)
    for a one-node spike (0.0247500).  A fraction of 0.5 moves the
    40-element row and 0.4 the row of the next gate;
  - far from the stop: |b|_H1 > CURVATURE_FAR.  Without it the
    Neumann row on (0, 3) with the inverted Mexican hat kernel (a = 1,
    b = 2, A = 1, B = 2), Allen-Cahn f, a step(1,2) start and h = 0.075
    leaves its width-2 point (0.0051522046) for a one-node spike
    (0.0027787901), and a gate of 0.01 moves it too.  The bound is
    absolute, not a multiple of epsilon, so a tighter tolerance does not
    open the gate nearer the stop.
A creeping fraction of 0.2-0.3 and a gradient gate of 0.02-0.3 keep
every row of the presets, of the benchmark studies at seeds 1-7
and of the 20 kernel and nonlinearity pairings on five meshes at its
point.  With the gates, case 4 at 320 elements takes 233 iterations and
case 2 at 320 takes 162, at the critical point of the descent without
the step (energy within 1e-6 relative, the same width); case 1 and case
3 never take the step.  A step along p descends (g^ . p < 0) and ends
on its ray maximum, so ``check_invariants`` holds for it too.

The direction v1 comes from the H1-regularized system

    (B + tau (M + S) + sigma M) d = I'[w],      v1 = -d / |d|_H1 ,

not from b itself; in the modal basis d = V (g^ / (lam + tau)), so
v^ = -d^ / |d^| needs no factorization of its own.  The bilinear form
of an integrable kernel is a zeroth-order operator, so the raw metric B
does not penalize grid-scale spikes: the pairing of a single nodal hat
scales like the mesh size and the ray-maximal energy of ever-narrower
bumps tends to zero, so the discrete problem has one- and two-node
critical points.  The stiffness term damps grid-scale components of the
direction; every guarantee of the plain scheme (strict descent,
I'[w]v1 < 0, ray stationarity) holds for any tau >= 0.  It does not
keep the limit smooth in general: with tau = 0.25 case 1 of the bundled
presets stays smooth where tau = 0 ends in a two-node spike, but cases
2 and 4 end in one-node spikes at tau = 0.25, 4 and 64 alike.
``direction_reg = 0`` gives the unregularized direction
v1 = -b/|b|_H1.
"""

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .energy import (gradient, power_table, ray_data, ray_energy,
                     step_polynomial)
from .errors import ConfigError, InvariantViolation, check_finite
from .fem import tridiagonal_product

__all__ = ["SolverConfig", "IterationRecord", "SolveResult",
           "check_invariants", "solve"]

# An iteration tries a Newton step when its number is a multiple of
# NEWTON_EVERY or when the previous iteration took one.  The projected CG
# of an attempt stops at a preconditioned residual NEWTON_RTOL times its
# start, or after NEWTON_MAX_PRODUCTS Hessian-vector products.
NEWTON_EVERY = 10
NEWTON_RTOL = 1e-4
NEWTON_MAX_PRODUCTS = 50
# the gates of a step along negative curvature (module docstring)
CURVATURE_WIDTH = 3
CREEP_FRACTION = 0.25
CURVATURE_FAR = 0.1
# The halving budget: an iteration tries the steps delta 2^-k,
# k = 0 .. MAX_HALVINGS; ``solve`` and ``SolverConfig`` read it when called.
MAX_HALVINGS = 60


@dataclass
class SolverConfig:
    """Settings of one descent; these defaults are the package's.  No
    setting turns off ``check_invariants`` on the accepted steps."""

    epsilon: float = 1e-3
    delta: float = 1.0
    max_iterations: int = 10000
    # relative mass shift grounding the Neumann constant mode; small enough
    # to sit below discretization error, large enough that the stopping
    # norm remains attainable in double precision
    grounding_rel: float = 1e-4
    # relative weight of the (M+S)-regularization in the direction solve
    direction_reg: float = 0.25

    def __post_init__(self):
        rules = (
            ("epsilon", self.epsilon > 0, "positive"),
            ("delta", self.delta > 0, "positive"),
            ("max_iterations", self.max_iterations >= 1, "at least 1"),
            ("grounding_rel", self.grounding_rel > 0, "positive"),
            ("direction_reg", self.direction_reg >= 0, "non-negative"))
        check_finite((name, getattr(self, name)) for name, _, _ in rules)
        for name, ok, rule in rules:
            if not ok:
                raise ConfigError(f"{name} must be {rule}, got "
                                  f"{getattr(self, name)!r}", key=name)
        # the last step of the halving, as ``solve`` forms it: a step that
        # underflows to 0 can never lower the energy
        if self.delta * 0.5 ** MAX_HALVINGS == 0.0:
            raise ConfigError(f"delta must leave a nonzero last step "
                              f"delta * 2**-{MAX_HALVINGS}, got "
                              f"{self.delta!r}", key="delta")


@dataclass
class IterationRecord:
    iteration: int
    energy: float
    grad_norm_h1: float
    t_star: float
    halvings_used: int


@dataclass
class SolveResult:
    """Where a descent stopped and why: ``stop_reason`` is one of the stops
    of ``solve``, or None when the result was not made by it, and
    ``converged`` follows from it."""

    solution: object             # FeFunction
    records: list
    wall_time: float
    final_grad_norm: float
    initial_energy: float
    initial_l2: float
    stop_reason: str = None
    # Newton attempts made, full Newton steps and damped ones (a halved
    # rung of the Newton ladder) taken, attempts ended by negative
    # curvature, steps taken along the direction of negative curvature
    # such an attempt met, and Hessian-vector products
    newton_attempts: int = 0
    newton_steps: int = 0
    newton_damped: int = 0
    newton_negative_curvature: int = 0
    curvature_steps: int = 0
    cg_products: int = 0

    @property
    def converged(self):
        return self.stop_reason == "converged"

    @property
    def iterations(self):
        return len(self.records)


def modal_direction(g_hat, lam, tau):
    """v^ of the normalized descent direction v1 = V v^ from the modal
    gradient g^ = V^T g, which must not vanish.

    d = V (g^ / (lam + tau)) solves the regularized system; V is
    H-orthonormal, so |d|_H1 = |d^| and v^ = -d^ / |d^|.
    """
    d_hat = g_hat / (lam + tau)
    return d_hat / -math.sqrt(float(d_hat @ d_hat))


def modal_gradient(form, nl, basis, lam_a, pw):
    """V^T g at the iterate w = V a, where ``basis`` is the form's
    ``modal_basis``, lam_a = lam a and pw is the power table
    (``energy.power_table``) of the values x of w at the domain Gauss
    points, up to the top power of f at least (pw[1] = x).

    V^T B w = lam a - sigma V^T M w, and (M w)_i = int w phi_i dx joins
    the load: the Gauss rule is exact for products of P1 functions.
    """
    sigma, _, V = basis
    f = nl.f_from_powers(pw)
    if sigma:
        f = f + sigma * pw[1]
    return lam_a - V.T @ form.load_vector(f)


def pairing(basis, weights, lam_a, x, b, y):
    """B[u, v] of u = V a and v = V b, given lam_a = lam a, whose domain
    Gauss values are x and y: lam_a . b less the grounding
    sigma int u v dx."""
    sigma = basis[0]
    val = float(lam_a @ b)
    if sigma:
        val -= sigma * float(weights @ (x * y))
    return val


def check_invariants(iteration, g, v1, e_before, e_after, c, ts):
    """Raise InvariantViolation unless the accepted step of ``iteration``
    kept the scheme's guarantees: v1 is a descent direction for the
    gradient g, the energy fell from e_before to e_after, and the new
    iterate sits on the maximum ts of its ray polynomial c."""
    if not g @ v1 < 0.0:
        raise InvariantViolation("descent certificate violated", iteration)
    if not e_after < e_before:
        raise InvariantViolation("energy did not decrease", iteration)
    # t g'(t) = sum_k k c[k] t^k against the sum of its term magnitudes;
    # both are unchanged when u is rescaled (c[k] -> c[k] s^k, t -> t / s)
    terms = [k * ck * ts ** k for k, ck in enumerate(c.tolist())]
    if not abs(sum(terms)) <= 1e-6 * max(sum(map(abs, terms)), 1e-300):
        raise InvariantViolation("iterate left its ray maximum", iteration)


def modal_hessian(form, nl, basis, pw):
    """The product p -> H^ p of the modal Hessian V^T I''[w] V at the
    iterate w, where ``basis`` is the form's ``modal_basis`` and pw the
    power table of the values x_w of w at the domain Gauss points, up to
    the top power of f' at least.

    H^ p = lam p - V^T load((f'(x_w) + sigma) x_p), x_p the Gauss values
    of V p: V^T (B + sigma M) V = diag(lam), and the Gauss rule is exact
    for the grounding sigma int (V p) phi_i dx.  A product makes two
    n x n products, as an iteration of the descent does.
    """
    sigma, lam, V = basis
    q = nl.fprime_from_powers(pw)
    if sigma:
        q = q + sigma

    def product(p):
        x_p = form.values_at_omega_quad(V @ p)
        return lam * p - V.T @ form.load_vector(q * x_p)
    return product


def newton_direction(hessian, lam, a, g_hat):
    """(d^, p, products): the Newton step d^ in modal coordinates at the
    iterate w = V a, on the tangent space (lam a) . d^ = 0, and the number
    of Hessian-vector products made.  When the attempt meets negative
    curvature d^ is None and p the CG direction on which p . H^ p <= 0,
    a direction of the tangent space; otherwise p is None.

    ``hessian`` is the product of ``modal_hessian`` and g^ the modal
    gradient.  Projected PCG (Gould, Hribar & Nocedal, SIAM J. Sci.
    Comput. 23 (2001) 1376-1395) solves H^ d^ = -g^ on the tangent space
    from d^ = 0, preconditioned by diag(lam); since diag(lam)^-1 (lam a)
    = a, the projection z = r / lam - a (a . r) / (a . lam a) costs O(n).
    It stops once r . z <= NEWTON_RTOL^2 r0 . z0 or after
    NEWTON_MAX_PRODUCTS products, and gives up when p . H^ p <= 0.
    """
    a_lam_a = float(a @ (lam * a))

    def project(r):
        return r / lam - a * (float(a @ r) / a_lam_a)

    d_hat = np.zeros_like(g_hat)
    r = g_hat
    z = project(r)
    rz = float(r @ z)
    stop = NEWTON_RTOL ** 2 * rz
    p = -z
    for products in range(1, NEWTON_MAX_PRODUCTS + 1):
        Hp = hessian(p)
        pHp = float(p @ Hp)
        if not pHp > 0.0:
            return None, p, products
        alpha = rz / pHp
        d_hat = d_hat + alpha * p
        r = r + alpha * Hp
        z = project(r)
        rz, rz_old = float(r @ z), rz
        if rz <= stop:
            break
        p = (rz / rz_old) * p - z
    return d_hat, None, products


def solve(form, nl, u1, cfg=None):
    """Run the descent, with its Newton finish, from the initial guess u1
    until |b|_H1 <= epsilon.

    The H1 stopping norm is taken over the physical domain (see
    ``NonlocalForm.H``).  Every stop returns the SolveResult and
    names itself in ``stop_reason``: converged (a vanishing gradient
    too), max_iterations (``cfg.max_iterations`` steps reached an
    iterate still above epsilon) or stall (no step of the halving budget
    lowered the energy).  Only faults raise: ZeroDirection when u1 has
    no ray maximum, SingularSystem, InvariantViolation.
    """
    cfg = cfg or SolverConfig()
    t0 = time.perf_counter()
    basis = form.modal_basis(cfg.grounding_rel)
    _, lam, V = basis
    weights = form.omega_quad_weights()

    u1_unknown = form.reduce(u1)
    ts, c = ray_data(form, nl, u1_unknown)
    # the iterate as nodal values w, modal coordinates a (w = V a, so
    # a = V^T H w) and values x_w at the domain Gauss points
    w = ts * u1_unknown
    a = V.T @ tridiagonal_product(form.H, w)
    x_w = form.values_at_omega_quad(w)
    e_w = float(ray_energy(c, ts))
    e0 = e_w
    # M is zero outside Omega, whose nodes other than the unknowns hold 0
    l2_0 = math.sqrt(max(float(w @ tridiagonal_product(form.M_uu, w)),
                         0.0))

    records = []
    attempts = negative_curvature = cg_products = 0
    # the accepted steps of each kind
    tally = dict.fromkeys(("descent", "newton", "damped", "curvature"), 0)
    # every step the halving may try: the floats of repeated halving
    steps = cfg.delta * 0.5 ** np.arange(MAX_HALVINGS + 1)
    rays = step_polynomial(nl, steps, weights)
    # the power tables of x_w (column 0) and x_v (column 1), refilled in
    # place every iteration; f(w), f'(w) and the mixed moments share them
    top = max(nl.moment_powers)
    pw = np.empty((top + 1, 2, weights.size))

    def result(stop_reason):
        return SolveResult(solution=form.fe(w), records=records,
                           wall_time=time.perf_counter() - t0,
                           final_grad_norm=grad_norm, initial_energy=e0,
                           initial_l2=l2_0, stop_reason=stop_reason,
                           newton_attempts=attempts,
                           newton_steps=tally["newton"],
                           newton_damped=tally["damped"],
                           newton_negative_curvature=negative_curvature,
                           curvature_steps=tally["curvature"],
                           cg_products=cg_products)

    def screen(kind, v_hat, Bww, v=None):
        """The candidate step of ``kind`` along v = V v^ from w: of the
        halved steps, the one with the lowest ray maximum below e(w), ties
        going to the longer step and NaN (no ray maximum) never winning,
        as (kind, halvings, its ray maximum, t*, its ray polynomial, v^,
        v, x_v).  With no ray maximum below e(w) it is the full step's.
        A Newton ladder whose lowest rung is a halved one is ``damped``."""
        if v is None:
            v = V @ v_hat
        x_v = form.values_at_omega_quad(v)
        power_table(x_v, top, out=pw[:, 1])
        B_step = (Bww, pairing(basis, weights, lam_a, x_w, v_hat, x_v),
                  pairing(basis, weights, lam * v_hat, x_v, v_hat, x_v))
        t_steps, e_steps, c_steps = rays(B_step, pw)
        k = int(np.where(e_steps < e_w, e_steps, np.inf).argmin())
        if kind == "newton" and k:
            kind = "damped"
        return (kind, k, float(e_steps[k]), float(t_steps[k]), c_steps[k],
                v_hat, v, x_v)

    def curvature_step(p_hat, Bww):
        """The candidate step along the direction p^ of negative curvature,
        signed to descend and of unit H1 norm, or None where a gate
        shuts."""
        if not grad_norm > CURVATURE_FAR:
            return None
        # e(w) NEWTON_EVERY accepted steps ago
        if len(records) < NEWTON_EVERY:
            return None
        e_then = records[-NEWTON_EVERY - 1].energy \
            if len(records) > NEWTON_EVERY else e0
        if not e_then - e_w < CREEP_FRACTION * e_w:
            return None
        slope = float(g_hat @ p_hat)
        if not slope:
            return None
        v_hat = math.copysign(1.0 / math.sqrt(float(p_hat @ p_hat)),
                              -slope) * p_hat
        v = V @ v_hat
        size = np.abs(v)
        if np.count_nonzero(size > 0.5 * size.max()) > CURVATURE_WIDTH:
            return None
        return screen("curvature", v_hat, Bww, v)

    def below(*candidates):
        """The candidates whose ray maximum is below e(w); NaN never is."""
        return [c for c in candidates if c is not None and c[2] < e_w]

    kind = "descent"
    for it in itertools.count(1):
        power_table(x_w, top, out=pw[:, 0])
        lam_a = lam * a
        g_hat = modal_gradient(form, nl, basis, lam_a, pw[:, 0])
        b_hat = g_hat / lam
        grad_norm = math.sqrt(float(b_hat @ b_hat))
        if grad_norm <= cfg.epsilon:
            # confirmed on the gradient recomputed from the nodal values:
            # the round-off of the modal one (3e-13 on case 4 at 320
            # elements) is a visible share of the norm a Newton step
            # leaves far below epsilon
            b_nodal = V.T @ gradient(form, nl, w) / lam
            nodal_norm = math.sqrt(float(b_nodal @ b_nodal))
            if nodal_norm <= cfg.epsilon:
                grad_norm = nodal_norm
                return result("converged")
        if it > cfg.max_iterations:
            return result("max_iterations")

        # the choice of step, step 4 of the module docstring; the descent
        # step is listed first so that min gives it the ties
        Bww = pairing(basis, weights, lam_a, x_w, a, x_w)
        attempted = None
        if kind != "descent" or it % NEWTON_EVERY == 0:
            attempts += 1
            d_hat, p_hat, products = newton_direction(
                modal_hessian(form, nl, basis, pw[:, 0]), lam, a, g_hat)
            cg_products += products
            if d_hat is None:
                negative_curvature += 1
                attempted = curvature_step(p_hat, Bww)
            else:
                ladder = screen("newton", d_hat / cfg.delta, Bww)
                # a damped rung only along a descent direction
                if ladder[0] == "newton" or float(g_hat @ d_hat) < 0.0:
                    attempted = ladder
        candidates = below(attempted)
        if not any(c[0] == "newton" for c in candidates):
            candidates = below(screen("descent", modal_direction(
                g_hat, lam, cfg.direction_reg), Bww)) + candidates
        if not candidates:
            return result("stall")
        kind, halvings, e_trial, ts, c_step, v_hat, v, x_v = min(
            candidates, key=lambda c: c[2])
        tally[kind] += 1

        s = steps[halvings]
        w, a, x_w = ts * (w + s * v), ts * (a + s * v_hat), \
            ts * (x_w + s * x_v)
        # g . v1 = g^ . v^
        check_invariants(it, g_hat, v_hat, e_w, e_trial, c_step, ts)
        e_w = e_trial
        records.append(IterationRecord(iteration=it, energy=e_w,
                                       grad_norm_h1=grad_norm, t_star=ts,
                                       halvings_used=halvings))
