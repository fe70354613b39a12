"""Nonlinearities, the energy functional and its ray maximizer.

The energy of a constrained P1 function u is

    I[u] = 1/2 B[u, u] - int F(u(x)) dx over the physical domain,

with F the antiderivative of the nonlinearity f from 0.  Along a ray
t -> I[t u] the functional is a polynomial in t whose coefficients come
from B[u, u] and the moments int u^k dx.  A nonlinearity is nothing but
the coefficients of F.  When F = a_k t^k (+ a_2 t^2) the maximizer t*
has a closed form; otherwise t* is the best positive critical point of
the ray polynomial, a root of g'(t)/t.  While g'(t)/t has degree 2 at
most (the built-in Allen-Cahn source, for one) its roots come from the
quadratic formula; above that from the eigenvalues of its companion
matrix.

Along a step u = w + s v the same data are polynomials in s as well:
B[u, u] from B[w, w], B[w, v] and B[v, v], and every moment from the
mixed moments int w^a v^b dx.  ``step_polynomial`` takes the three
pairings and the Gauss-point values of w and v, computes the mixed
moments once and then screens any array of steps in a few vectorized
operations.

Every integer power (in f, F, the moments and the mixed moments) comes
from one power table, u^0 ... u^top by repeated multiplication
(``_powers``).  It agrees with numpy's general ``u**k`` to round-off, not
bitwise, and costs a fraction of it on negative values.
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
    "moments",
    "gauss_moments",
    "ray_coefficients",
    "ray_energy",
    "ray_slope",
    "ray_from_moments",
    "ray_data",
    "step_polynomial",
    "t_star",
    "energy",
    "gradient",
]


def _powers(x, top):
    """[x^0, x^1, ..., x^top] by repeated multiplication (numpy's general
    ``x**k`` costs 10-20 times as much on negative values)."""
    x = np.asarray(x, dtype=float)
    pw = [np.ones(x.shape), x]
    for _ in range(top - 1):
        pw.append(pw[-1] * x)
    return pw[:top + 1]


def _power_sum(terms, t):
    """sum c t^k over the (c, k) terms, added in order from a zero array."""
    pw = _powers(t, max([k for _, k in terms], default=0))
    out = np.zeros(pw[0].shape)
    for c, k in terms:
        out = out + c * pw[k]
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class Nonlinearity:
    """A polynomial nonlinearity, given as data.

    ``F_coeffs`` maps powers k to coefficients a_k of F(t) = sum a_k t^k;
    f = F', the moment powers and the ray-maximizer rule are derived from
    them.  ``hypothesis_meta`` documents which growth/shape hypotheses
    (A2 growth bound with (a1, a2, alpha); A3 zero slope at the origin;
    A4 scaling with (mu, theta); A5 superlinear growth) hold.
    """

    name: str
    F_coeffs: dict
    hypothesis_meta: dict = field(default_factory=dict)

    def f(self, t):
        terms = [(k * a, k - 1) for k, a in self.F_coeffs.items()]
        return _power_sum(terms, t)

    def F(self, t):
        return _power_sum([(a, k) for k, a in self.F_coeffs.items()], t)

    @property
    def moment_powers(self):
        return tuple(sorted(self.F_coeffs))

    @cached_property
    def _ray_rule(self):
        """(k, 2 a_2, k a_k) when F = a_k t^k (+ a_2 t^2) with k > 2."""
        high = set(self.F_coeffs) - {2}
        if len(high) != 1 or min(high) <= 2:
            return None
        k = high.pop()
        return k, 2.0 * self.F_coeffs.get(2, 0.0), k * self.F_coeffs[k]

    def t_star_closed(self, Buu, P):
        """Closed-form ray maximizer, or None when no closed form exists.

        For F = a_k t^k (+ a_2 t^2) the ray slope vanishes at
        t^(k-2) = (B[u,u] - 2 a_2 P_2) / (k a_k P_k).
        """
        if self._ray_rule is None:
            return None
        k, two_a2, k_ak = self._ray_rule
        num = Buu - two_a2 * P.get(2, 0.0)
        den = k_ak * P[k]
        if num <= 0 or den <= 0:
            raise ZeroDirection("ray energy has no positive maximum")
        if k == 4:
            return math.sqrt(num / den)
        return (num / den) ** (1 / (k - 2))


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

def moments(form, u_full, powers):
    """int u^k dx over the physical domain for every requested power."""
    return gauss_moments(form.values_at_omega_quad(u_full),
                         form.omega_quad_weights(), powers)


def gauss_moments(x, weights, powers):
    """int u^k dx for every requested power, from the values x of u at the
    domain Gauss points and their weights."""
    pw = _powers(x, max(powers, default=0))
    return {k: float(weights @ pw[k]) for k in powers}


def ray_coefficients(nl, Buu, P):
    """Coefficients c[k] of g(t) = I[t u] = sum_k c[k] t^k."""
    top = max([2, *nl.F_coeffs])
    c = np.zeros(top + 1)
    c[2] = 0.5 * Buu
    for k, a in nl.F_coeffs.items():
        c[k] -= a * P[k]
    return c


def ray_energy(c, t):
    return np.polynomial.polynomial.polyval(t, c)


def ray_slope(c, t):
    dc = np.polynomial.polynomial.polyder(c)
    return np.polynomial.polynomial.polyval(t, dc)


def ray_from_moments(nl, Buu, P):
    """(t*, c) of the ray t -> I[t u] from B[u, u] and the moments P of u
    (a dict power -> int u^k dx); see ``ray_data``."""
    if Buu <= 0.0:
        raise ZeroDirection("direction carries no bilinear-form energy")
    c = ray_coefficients(nl, Buu, P)
    closed = nl.t_star_closed(Buu, P)
    if closed is not None:
        return closed, c
    # critical points of g: roots of the polynomial g'(t)/t
    coeffs = c.tolist()[::-1]
    best_t, best_g = None, 0.0
    for t in _real_roots(c[2:] * np.arange(2, c.size)):
        if not t > 0.0:
            continue
        # g(t) by Horner's rule, the operations of ``ray_energy``
        g = 0.0
        for cj in coeffs:
            g = g * t + cj
        # prefer the global maximum; break ties toward larger t
        if best_t is None or g > best_g + 1e-15 * abs(best_g) \
                or (abs(g - best_g) <= 1e-15 * abs(best_g) and t > best_t):
            best_t, best_g = t, g
    if best_t is None or best_g <= 0.0:
        raise ZeroDirection("ray energy has no positive critical point")
    return best_t, c


def _real_roots(q):
    """Real roots of sum_j q[j] t^j for one coefficient vector q (a list
    of floats) or for every row of a 2-D q (an array, one row each); NaN
    stands in place of a root further than 1e-10 off the real axis or
    not finite.

    Up to degree 2 the roots come from the cancellation-free quadratic
    formula: with s = -(q1 + sign(q1) sqrt(disc)) / 2 they are s / q2 and
    q0 / s.  A complex pair lies sqrt(-disc) / (2 |q2|) off the axis;
    within the tolerance it counts as the double root -q1 / (2 q2).  One
    vector takes the formula on Python floats, rows take it on arrays.
    Above degree 2 the roots are the eigenvalues of the companion
    matrices.
    """
    if q.shape[-1] > 3:
        d = q.shape[-1] - 1
        with np.errstate(all="ignore"):
            comp = np.zeros(q.shape[:-1] + (d, d))
            comp[..., np.arange(1, d), np.arange(d - 1)] = 1.0
            comp[..., :, -1] = -q[..., :-1] / q[..., -1:]
        ok = np.isfinite(comp).all(axis=(-2, -1))[..., None]
        roots = np.linalg.eigvals(np.where(ok[..., None], comp, 0.0)
                                  [..., ::-1, ::-1])
        roots = np.where(ok & (np.abs(roots.imag) <= 1e-10), roots.real,
                         np.nan)
        return roots if q.ndim > 1 else roots.tolist()
    if q.ndim == 1:
        q0, q1, q2 = q.tolist() + [0.0] * (3 - q.size)
        disc = q1 * q1 - 4.0 * q0 * q2
        if not -disc <= 4e-20 * q2 * q2:
            return [math.nan, math.nan]
        s = -0.5 * (q1 + math.copysign(math.sqrt(max(disc, 0.0)), q1))
        r1 = s / q2 if q2 else math.nan
        r2 = r1 if disc < 0.0 else (q0 / s if s else math.nan)
        return [r if math.isfinite(r) else math.nan for r in (r1, r2)]
    if q.shape[1] < 3:
        q = np.hstack([q, np.zeros((len(q), 3 - q.shape[1]))])
    q0, q1, q2 = q.T
    with np.errstate(all="ignore"):
        disc = q1 * q1 - 4.0 * q0 * q2
        s = -0.5 * (q1 + np.copysign(np.sqrt(np.maximum(disc, 0.0)), q1))
        r1 = s / q2
        roots = np.column_stack([r1, np.where(disc < 0.0, r1, q0 / s)])
        real = (-disc <= 4e-20 * q2 * q2)[:, None]
    return np.where(real & np.isfinite(roots), roots, np.nan)


def ray_data(form, nl, u_unknown):
    """(t*, c): the maximizer t* of t -> I[t u] over t > 0 and the
    coefficients c of that ray polynomial (see ``ray_coefficients``).

    ``u_unknown`` holds the unknown-node values of u; the constraint
    fixes the rest.  Raises ZeroDirection when the ray has no positive
    maximum.
    """
    u_full = form.full_values(u_unknown)
    Buu = float(u_unknown @ form.B @ u_unknown)
    P = moments(form, u_full, nl.moment_powers)
    return ray_from_moments(nl, Buu, P)


def step_polynomial(nl, B_step, x, weights):
    """Screened ray energies of the steps u = w + s v, for an array of s.

    ``B_step`` holds B[w, w], B[w, v] and B[v, v], and the two rows of x
    the values of w and v at the domain Gauss points, whose weights are
    ``weights``.  B[u, u] = B[w,w] + 2s B[w,v] + s^2 B[v,v] and int u^k dx
    = sum_j C(k,j) s^j int w^(k-j) v^j dx; the mixed moments come from one
    (k+1) x (k+1) product of the power vectors of w and v.  The returned
    function maps steps to max_t I[t u] by the rule of
    ``ray_from_moments``: the closed form when there is one, else the
    largest ray value at the positive real roots of g'(t)/t, taken for
    every step at once: by the quadratic formula on arrays up to degree 2,
    by one batched eigenvalue call on the stacked companion matrices above
    it.  An entry is NaN where the ray has no positive maximum.  Its
    round-off differs from that of ``ray_from_moments`` on the moments of
    w + s v.
    """
    n = max(3, max(nl.moment_powers) + 1)
    # pw[a] = (w^a, v^a) at the Gauss points
    pw = np.array(_powers(x, n - 1))
    mixed = ((pw[:, 0] * weights) @ pw[:, 1].T).tolist()
    # coefficients of s^j (row j) of B[u, u] (column 0) and of the ray
    # coefficients c[0], c[1], ... of ``ray_coefficients`` (columns 1, ...)
    coeffs = np.zeros((n, 1 + n))
    Bww, Bwv, Bvv = B_step
    coeffs[:3, 0] = (Bww, 2.0 * Bwv, Bvv)
    coeffs[:3, 3] = 0.5 * coeffs[:3, 0]
    for k, a in nl.F_coeffs.items():
        coeffs[:k + 1, 1 + k] -= [a * math.comb(k, j) * mixed[k - j][j]
                                  for j in range(k + 1)]

    def screen(steps):
        m = np.vander(steps, n, increasing=True) @ coeffs
        Buu, c = m[:, 0], m[:, 1:]
        with np.errstate(all="ignore"):
            if nl._ray_rule is not None:
                # t*^(k-2) = -2 c[2] / (k c[k]), g(t*) = (1 - 2/k) c[2] t*^2
                k = nl._ray_rule[0]
                c2, ck = c[:, 2], c[:, k]
                best = np.where((c2 > 0.0) & (ck < 0.0), (1.0 - 2.0 / k) * c2
                                * (-2.0 * c2 / (k * ck)) ** (2.0 / (k - 2)),
                                np.nan)
            else:
                # roots of g'(t)/t = sum_j (j+2) c[j+2] t^j
                ts = _real_roots(c[:, 2:] * np.arange(2, n))
                g = np.zeros_like(ts)
                for cj in c.T[::-1]:
                    g = g * ts + cj[:, None]
                best = np.where(ts > 0.0, g, -np.inf).max(
                    axis=1, initial=-np.inf)
        return np.where((Buu > 0.0) & (best > 0.0), best, np.nan)

    return screen


def t_star(form, nl, u):
    """Maximizer of t -> I[t u] over t > 0 for a FeFunction, full nodal
    vector or unknown-node vector u."""
    return ray_data(form, nl, form.as_full(u)[form.unknown_idx])[0]


# -- energy and gradient -------------------------------------------------------

def energy(form, nl, u):
    """I[u] = 1/2 B[u,u] - int F(u) dx over the physical domain."""
    u_full = form.as_full(u)
    u_unknown = u_full[form.unknown_idx]
    quad_F = float(form.omega_quad_weights()
                   @ nl.F(form.values_at_omega_quad(u_full)))
    return 0.5 * float(u_unknown @ form.B @ u_unknown) - quad_F


def gradient(form, nl, w):
    """Unknown-node gradient g with g_i = (B w)_i - int f(w) phi_i dx.

    The directional derivative of the energy at w along any constrained
    P1 function v is then g . v (v restricted to unknown nodes).
    """
    w_full = form.as_full(w)
    w_unknown = w_full[form.unknown_idx]
    load = form.load_vector(nl.f(form.values_at_omega_quad(w_full)))
    return form.B @ w_unknown - load
