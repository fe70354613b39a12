"""Nonlinearities, the energy functional and its ray maximizer.

The energy of a constrained P1 function u is

    I[u] = 1/2 B[u, u] - int F(u(x)) dx over the physical domain,

with F the antiderivative of the nonlinearity f from 0.  Along a ray
t -> I[t u] the functional is a polynomial in t whose coefficients come
from B[u, u] and the moments int u^k dx.  A nonlinearity is nothing but
the coefficients of F.  One rule, ``ray_max``, takes the maximizer t*
and the ray maximum g(t*) of any number of rays at once, one row of
ray coefficients each.  When F = a_k t^k (+ a_2 t^2) t* has a closed
form; otherwise t* is the best positive critical point of the ray
polynomial, a root of g'(t)/t.  When g'(t)/t has degree 2 (F's top power
is 4 and it has a t^3 term, as the built-in Allen-Cahn source does) its
roots come from the quadratic formula and g(t*) from the closed form
t*^2 (c[2] / 2 + c[3] t* / 4) that holds at a critical point; above
that the roots are the eigenvalues of its companion matrices.

Along a step u = w + s v the same data are polynomials in s as well:
B[u, u] from B[w, w], B[w, v] and B[v, v], and every moment from the
mixed moments int w^a v^b dx.  ``step_polynomial`` is that rule, built
once per descent from the nonlinearity, the steps and the Gauss weights:
it holds the Vandermonde matrix of the steps and the binomial weights of
F's terms, so that each call, given the three pairings and the power
tables of w and v, makes one mixed-moment product and one product with
the Vandermonde matrix and then gives the ray maxima of every step at
once.

Every integer power (in f, F, the moments and the mixed moments) comes
from one power table, u^0 ... u^top by repeated multiplication
(``power_table``).  It agrees with numpy's general ``u**k`` to round-off,
not bitwise, and costs a fraction of it on negative values.  The descent
fills one table of w per iteration and takes f(w)
(``Nonlinearity.f_from_powers``), the mixed moments and, for a Newton
attempt, f'(w) (``Nonlinearity.fprime_from_powers``) from it.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ZeroDirection

__all__ = [
    "Nonlinearity",
    "NONLINEARITIES",
    "nonlinearity_from_name",
    "power_table",
    "moments",
    "gauss_moments",
    "ray_coefficients",
    "ray_energy",
    "ray_slope",
    "ray_max",
    "ray_data",
    "step_polynomial",
    "t_star",
    "energy",
    "gradient",
]


def power_table(x, top, out=None):
    """The power table x^0, x^1, ..., x^top of x, stacked along a new
    first axis, by repeated multiplication (numpy's general ``x**k``
    costs 10-20 times as much on negative values); written into ``out``
    when given."""
    x = np.asarray(x, dtype=float)
    if out is None:
        out = np.empty((top + 1,) + x.shape)
    out[0] = 1.0
    for k in range(1, top + 1):
        np.multiply(out[k - 1], x, out=out[k, ...])
    return out


def _power_sum(terms, pw):
    """sum c x^k over the (c, k) terms, added in order from a zero array,
    from the power table pw of x."""
    out = np.zeros(pw.shape[1:])
    for c, k in terms:
        out = out + c * pw[k]
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class Nonlinearity:
    """A polynomial nonlinearity, given as data.

    ``F_coeffs`` maps powers k to coefficients a_k of F(t) = sum a_k t^k;
    f = F', the moment powers and the ray-maximizer rule are derived from
    them.  Every power is at least 2 and one is above 2, so F vanishes to
    second order at zero and every ray polynomial has a t^2 term and a
    higher one.  ``hypothesis_meta`` documents which growth/shape
    hypotheses (A2 growth bound with (a1, a2, alpha); A3 zero slope at the
    origin; A4 scaling with (mu, theta); A5 superlinear growth) hold.
    """

    name: str
    F_coeffs: dict
    hypothesis_meta: dict = field(default_factory=dict)

    def __post_init__(self):
        powers = self.moment_powers
        if not powers or powers[0] < 2 or powers[-1] < 3:
            raise ValueError(f"nonlinearity {self.name!r}: the powers of F "
                             f"must be at least 2, one above 2; got {powers}")

    def f(self, t):
        return self.f_from_powers(power_table(t, max(self.F_coeffs) - 1))

    def f_from_powers(self, pw):
        """f(x) from the power table pw of x (``power_table``), which reaches
        at least the top power of f; the same bits as ``f``."""
        return _power_sum([(k * a, k - 1) for k, a in self.F_coeffs.items()],
                          pw)

    def fprime_from_powers(self, pw):
        """f'(x) = sum k (k-1) a_k x^(k-2) from the power table pw of x,
        which reaches at least the top power of f'."""
        return _power_sum([(k * (k - 1) * a, k - 2)
                           for k, a in self.F_coeffs.items()], pw)

    def F(self, t):
        return _power_sum([(a, k) for k, a in self.F_coeffs.items()],
                          power_table(t, max(self.F_coeffs)))

    @property
    def moment_powers(self):
        return tuple(sorted(self.F_coeffs))

    @cached_property
    def _ray_rule(self):
        """k when F = a_k t^k (+ a_2 t^2) with k > 2, else None."""
        high = set(self.F_coeffs) - {2}
        return high.pop() if len(high) == 1 else None


# the built-in nonlinearities by config name
NONLINEARITIES = {nl.name: nl for nl in (
    # f(t) = t^3
    Nonlinearity("cubic", {4: 0.25}, {
        "a1": 1.0, "a2": 1.0, "alpha": 3, "mu_range": (2.0, 4.0),
        "theta": 1.0, "A2": True, "A3": True, "A4": True, "A5": True}),
    # f(t) = t^5
    Nonlinearity("quintic", {6: 1.0 / 6.0}, {
        "a1": 1.0, "a2": 1.0, "alpha": 5, "mu_range": (2.0, 6.0),
        "theta": 1.0, "A2": True, "A3": True, "A4": True, "A5": True}),
    # f(t) = t^3 - t; the zero-slope hypothesis fails
    Nonlinearity("cubic_minus_linear", {4: 0.25, 2: -0.5}, {
        "a1": 1.0, "a2": 2.0, "alpha": 3, "mu_range": (2.0, 4.0),
        "theta": 1.0, "A2": True, "A3": False, "A4": True, "A5": True}),
    # f(t) = (-t - 3 t^2 + 4 t^3)/2, the bistable Allen-Cahn source term;
    # neither the zero-slope nor the scaling hypothesis holds; t* is a
    # root of the quadratic g'(t)/t, taken by formula
    Nonlinearity("allen_cahn", {2: -0.25, 3: -0.5, 4: 0.5}, {
        "a1": 2.0, "a2": 4.0, "alpha": 3, "mu_range": None,
        "theta": None, "A2": True, "A3": False, "A4": False, "A5": True}),
)}


def nonlinearity_from_name(name):
    try:
        return NONLINEARITIES[name]
    except KeyError:
        raise ValueError(f"unknown nonlinearity {name!r}; expected one of "
                         f"{sorted(NONLINEARITIES)}") from None


# -- ray restriction ----------------------------------------------------------

def moments(form, u, powers):
    """int u^k dx over the physical domain for every requested power, of a
    full nodal vector or of unknown-node values (see
    ``NonlocalForm.values_at_omega_quad``)."""
    return gauss_moments(form.values_at_omega_quad(u),
                         form.omega_quad_weights(), powers)


def gauss_moments(x, weights, powers):
    """int u^k dx for every requested power, from the values x of u at the
    domain Gauss points and their weights."""
    pw = power_table(x, max(powers, default=0))
    return {k: float(weights @ pw[k]) for k in powers}


def ray_coefficients(nl, Buu, P):
    """Coefficients c[k] of g(t) = I[t u] = sum_k c[k] t^k."""
    c = np.zeros(max(nl.F_coeffs) + 1)
    c[2] = 0.5 * Buu
    for k, a in nl.F_coeffs.items():
        c[k] -= a * P[k]
    return c


def ray_energy(c, t):
    return np.polynomial.polynomial.polyval(t, c)


def ray_slope(c, t):
    dc = np.polynomial.polynomial.polyder(c)
    return np.polynomial.polynomial.polyval(t, dc)


def ray_max(nl, Buu, c):
    """(t*, g(t*)) for the rays g(t) = sum_k c[i, k] t^k, one per row i of
    c, of functions u_i with B[u_i, u_i] = Buu[i]; both are NaN where a ray
    has no positive maximum (B[u, u] <= 0, or no positive critical point
    with g > 0).

    When F = a_k t^k (+ a_2 t^2) the slope vanishes at t*^(k-2) =
    -2 c[2] / (k c[k]), and there g(t*) = (1 - 2/k) c[2] t*^2.  Otherwise
    t* is the positive real root of g'(t)/t = sum_j (j+2) c[j+2] t^j with
    the largest g.  When F's top power is 4 (and it has a t^3 term) that
    quotient is the quadratic 2 c[2] + 3 c[3] t + 4 c[4] t^2, whose two
    roots come from the cancellation-free quadratic formula, and at a
    critical point 4 c[4] t^2 = -2 c[2] - 3 c[3] t gives the closed form
    g(t) = t^2 (c[2] / 2 + c[3] t / 4).  Above that the roots are the
    eigenvalues of the companion matrices (``_real_roots``) and g is
    evaluated at each by Horner's rule.
    """
    k = nl._ray_rule
    with np.errstate(all="ignore"):
        if k is not None:
            c2, ck = c[:, 2], c[:, k]
            r = -2.0 * c2 / (k * ck)
            ts = np.sqrt(r) if k == 4 else r ** (1.0 / (k - 2))
            g = np.where((c2 > 0.0) & (ck < 0.0),
                         (1.0 - 2.0 / k) * c2 * r ** (2.0 / (k - 2)), np.nan)
        elif c.shape[1] == 5:
            # the roots of q0 + q1 t + q2 t^2 = g'(t)/t, one row each, by
            # the cancellation-free formula: with s = -(q1 + sign(q1)
            # sqrt(disc)) / 2 they are s / q2 and q0 / s.  A complex pair
            # lies sqrt(-disc) / (2 |q2|) off the axis; within the
            # tolerance it counts as the double root -q1 / (2 q2)
            c2, c3 = c[:, 2], c[:, 3]
            q0, q1, q2 = 2.0 * c2, 3.0 * c3, 4.0 * c[:, 4]
            disc = q1 * q1 - 4.0 * q0 * q2
            s = -0.5 * (q1 + np.copysign(np.sqrt(np.maximum(disc, 0.0)), q1))
            r = np.empty((2, len(c)))
            np.divide(s, q2, out=r[0])
            np.divide(q0, s, out=r[1])
            np.copyto(r[1], r[0], where=disc < 0.0)
            # g at the real, finite, positive roots
            root = (r > 0.0) & (r < np.inf) & (-disc <= 4e-20 * q2 * q2)
            g = np.where(root, r * r * (0.5 * c2 + 0.25 * c3 * r), -np.inf)
            # the larger g, ties going to the first root
            second = g[1] > g[0]
            ts, g = np.where(second, r[1], r[0]), np.where(second, g[1], g[0])
        else:
            roots = _real_roots(c[:, 2:] * np.arange(2, c.shape[1]))
            g = np.zeros_like(roots)
            for cj in c.T[::-1]:
                g = g * roots + cj[:, None]
            g = np.where(roots > 0.0, g, -np.inf)
            best = np.arange(len(g)), g.argmax(axis=1)
            ts, g = roots[best], g[best]
        ok = (Buu > 0.0) & (g > 0.0)
    return np.where(ok, ts, np.nan), np.where(ok, g, np.nan)


def _real_roots(q):
    """Real roots of sum_j q[i, j] t^j for every row i of q, which has at
    least 4 columns (degree 3 and up; ``ray_max`` takes degree 2 by
    formula); NaN stands in place of a root further than 1e-10 off the
    real axis or not finite.  The roots are the eigenvalues of the
    companion matrices.
    """
    d = q.shape[1] - 1
    with np.errstate(all="ignore"):
        comp = np.zeros((len(q), d, d))
        comp[:, np.arange(1, d), np.arange(d - 1)] = 1.0
        comp[:, :, -1] = -q[:, :-1] / q[:, -1:]
    ok = np.isfinite(comp).all(axis=(1, 2))[:, None]
    roots = np.linalg.eigvals(np.where(ok[..., None], comp, 0.0)
                              [:, ::-1, ::-1])
    return np.where(ok & (np.abs(roots.imag) <= 1e-10), roots.real, np.nan)


def ray_data(form, nl, u_unknown):
    """(t*, c): the maximizer t* of t -> I[t u] over t > 0 by ``ray_max``
    and the coefficients c of that ray polynomial (see
    ``ray_coefficients``).

    ``u_unknown`` holds the unknown-node values of u; the constraint
    fixes the rest.  Raises ZeroDirection when the ray has no positive
    maximum.
    """
    Buu = float(u_unknown @ form.B @ u_unknown)
    c = ray_coefficients(nl, Buu, moments(form, u_unknown, nl.moment_powers))
    ts = float(ray_max(nl, np.array([Buu]), c[None])[0][0])
    if math.isnan(ts):
        raise ZeroDirection("ray energy has no positive maximum")
    return ts, c


def step_polynomial(nl, steps, weights):
    """The rule giving the ray maxima of the steps u = w + s v, s in
    ``steps``, built once per descent for domain Gauss weights
    ``weights``.

    The rule maps ``B_step`` and ``pw`` to (t*, g(t*), c): ``ray_max`` of
    the ray coefficients c of w + s v, one row per step, taken for every
    step at once.  ``B_step`` holds B[w, w], B[w, v] and B[v, v], and pw
    is the power table (``power_table``, up to the top power of F) of the
    values of w (pw[:, 0]) and v (pw[:, 1]) at the domain Gauss points.
    B[u, u] = B[w,w] + 2s B[w,v] + s^2 B[v,v] and int u^k dx =
    sum_j C(k,j) s^j int w^(k-j) v^j dx; a call makes one (k+1) x (k+1)
    product of the two tables for the mixed moments and one product with
    the Vandermonde matrix of the steps, which is built here, as are the
    weights a_k C(k,j) of F's terms.
    """
    n = max(nl.moment_powers) + 1
    vander = np.vander(steps, n, increasing=True)
    # the term -a_k C(k,j) int w^(k-j) v^j dx of the coefficient of s^j
    # (row j) of c[k] (column 1 + k)
    rows, mixed_rows, cols, binom = (np.array(t) for t in zip(*[
        (j, k - j, 1 + k, a * math.comb(k, j))
        for k, a in nl.F_coeffs.items() for j in range(k + 1)]))

    def rays(B_step, pw):
        mixed = (pw[:, 0] * weights) @ pw[:, 1].T
        # coefficients of s^j (row j) of B[u, u] (column 0) and of the ray
        # coefficients c[0], c[1], ... of ``ray_coefficients`` (columns 1, ...)
        coeffs = np.zeros((n, 1 + n))
        Bww, Bwv, Bvv = B_step
        coeffs[:3, 0] = (Bww, 2.0 * Bwv, Bvv)
        coeffs[:3, 3] = 0.5 * coeffs[:3, 0]
        coeffs[rows, cols] -= binom * mixed[mixed_rows, rows]
        m = vander @ coeffs
        c = m[:, 1:]
        return (*ray_max(nl, m[:, 0], c), c)

    return rays


def t_star(form, nl, u):
    """Maximizer of t -> I[t u] over t > 0 for a FeFunction, full nodal
    vector or unknown-node vector u."""
    return ray_data(form, nl, form.reduce(u))[0]


# -- energy and gradient -------------------------------------------------------

def energy(form, nl, u):
    """I[u] = 1/2 B[u,u] - int F(u) dx over the physical domain."""
    u_full = form.as_full(u)
    u_unknown = form.reduce(u_full)
    quad_F = float(form.omega_quad_weights()
                   @ nl.F(form.values_at_omega_quad(u_full)))
    return 0.5 * float(u_unknown @ form.B @ u_unknown) - quad_F


def gradient(form, nl, w):
    """Unknown-node gradient g with g_i = (B w)_i - int f(w) phi_i dx.

    The directional derivative of the energy at w along any constrained
    P1 function v is then g . v (v restricted to unknown nodes).
    """
    w_full = form.as_full(w)
    w_unknown = form.reduce(w_full)
    load = form.load_vector(nl.f(form.values_at_omega_quad(w_full)))
    return form.B @ w_unknown - load
