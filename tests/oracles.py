"""Independent reference computations used by the test suite.

Everything here avoids the package's assembly path on purpose: integrals
are brute-force Riemann sums or closed forms, so agreement with the
assembled operators is meaningful.
"""

import math

import numpy as np
from scipy import integrate
from scipy.special import erfc


def one_sided_tail(kernel, s):
    """int_s^inf gamma(r) dr via closed forms, for the oracle only."""
    import nonlocalmp as nm

    s = np.asarray(s, dtype=float)
    if isinstance(kernel, nm.Exponential):
        return 0.5 * np.exp(-s / kernel.scale)
    if isinstance(kernel, nm.Gaussian):
        return 0.5 * erfc(s / kernel.scale)
    raise NotImplementedError(type(kernel).__name__)


# the field holding each family's characteristic length: where the
# quadrature's first subinterval ends
WIDTH_FIELD = {"Exponential": "scale", "Gaussian": "scale",
               "InvertedMexicanHat": "b", "Logistic": "a", "PowerLaw": "a"}


def piecewise_quad(f, r_cut, width, eps):
    """Adaptive quadrature on [0, r_cut] split into geometric subintervals.

    Heavy-tailed kernels need truncation radii many orders of magnitude
    beyond their width; a single adaptive pass misses the near-origin
    bump there.
    """
    edges = [0.0, min(width, r_cut)]
    while edges[-1] < r_cut:
        edges.append(min(edges[-1] * 10.0, r_cut))
    total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        val, _ = integrate.quad(f, lo, hi, epsabs=eps, epsrel=eps, limit=200)
        total += val
    return total


def quadrature_moments(kernel, quad_tol=1e-10):
    """(total mass, second moment) of a kernel by adaptive quadrature.

    Both integrals run over the truncated support [0, R_cut], where R_cut
    comes from the kernel's tail bound and keeps the omitted mass and
    second-moment tail below ``quad_tol``.
    """
    r_cut = kernel.truncation_radius(quad_tol)
    width = getattr(kernel, WIDTH_FIELD[type(kernel).__name__])
    eps = min(quad_tol / 10.0, 1e-12)
    mass = piecewise_quad(lambda r: float(kernel.gamma(r)), r_cut, width, eps)
    mom = piecewise_quad(lambda r: r * r * float(kernel.gamma(r)),
                         r_cut, width, eps)
    return 2.0 * mass, 2.0 * mom


def brute_force_quadratic_form(u_fe, kernel, n=4000, chunk=500):
    """1/2 iint (u(y)-u(x))^2 gamma(|x-y|) dy dx over the whole line.

    u is the P1 function extended by zero outside its mesh; the double
    integral splits into a midpoint Riemann sum over the mesh interval
    squared plus the closed-form exterior-mass term.
    """
    mesh = u_fe.mesh
    a, b = mesh.x_left, mesh.x_right
    dx = (b - a) / n
    x = a + (np.arange(n) + 0.5) * dx
    u = u_fe(x)
    s_inner = 0.0
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        g = kernel.gamma(np.abs(x[start:stop, None] - x[None, :]))
        du = u[start:stop, None] - u[None, :]
        s_inner += float((du * du * g).sum())
    s_inner *= 0.5 * dx * dx
    tail = one_sided_tail(kernel, x - a) + one_sided_tail(kernel, b - x)
    s_exterior = float((u * u * tail).sum()) * dx
    return s_inner + s_exterior


def grid_ray_argmax(energy_of_t, t_max=10.0, step=1e-3):
    """argmax of a scalar energy profile over the t-grid (0, t_max]."""
    ts = np.arange(step, t_max + step, step)
    vals = np.array([energy_of_t(t) for t in ts])
    return float(ts[np.argmax(vals)])


def roots_horner_ray_max(Buu, c):
    """(t*, g(t*)) of the quartic rays g(t) = sum_k c[i, k] t^k (rows of c
    with 5 columns) by the generic rule: the real roots of the quadratic
    g'(t)/t by the cancellation-free formula (a complex pair within
    4e-20 q2^2 of a zero discriminant counts as a double root), stacked
    as columns, g at each by Horner's rule over every coefficient, and
    the positive root of largest g (``argmax``, ties to the first); NaN
    where B[u, u] <= 0 or no positive root has g > 0."""
    with np.errstate(all="ignore"):
        q0, q1, q2 = (c[:, 2:] * np.arange(2, c.shape[1])).T
        disc = q1 * q1 - 4.0 * q0 * q2
        s = -0.5 * (q1 + np.copysign(np.sqrt(np.maximum(disc, 0.0)), q1))
        r1 = s / q2
        roots = np.column_stack([r1, np.where(disc < 0.0, r1, q0 / s)])
        real = (-disc <= 4e-20 * q2 * q2)[:, None]
        roots = np.where(real & np.isfinite(roots), roots, np.nan)
        g = np.zeros_like(roots)
        for cj in c.T[::-1]:
            g = g * roots + cj[:, None]
        g = np.where(roots > 0.0, g, -np.inf)
        best = np.arange(len(g)), g.argmax(axis=1)
        ts, g = roots[best], g[best]
        ok = (Buu > 0.0) & (g > 0.0)
    return np.where(ok, ts, np.nan), np.where(ok, g, np.nan)


def companion_ray_max(c):
    """(t*, g(t*)) of the ray polynomial g(t) = sum_k c[k] t^k, or None
    when no positive real critical point has g > 0.

    The roots of g'(t)/t come from numpy's ``polyroots`` (the eigenvalues
    of its companion matrix); a root counts as real within 1e-10 of the
    axis, and the largest g wins, ties within 1e-15 going to larger t.
    """
    P = np.polynomial.polynomial
    best_t, best_g = None, 0.0
    for r in P.polyroots(P.polyder(c)[1:]):
        if abs(r.imag) > 1e-10 or r.real <= 0:
            continue
        g = float(P.polyval(r.real, c))
        if best_t is None or g > best_g + 1e-15 * abs(best_g) \
                or (abs(g - best_g) <= 1e-15 * abs(best_g) and r.real > best_t):
            best_t, best_g = float(r.real), g
    if best_t is None or best_g <= 0.0:
        return None
    return best_t, best_g


def central_difference(f, w, v, eps):
    """Central finite difference of a functional along direction v."""
    return (f(w + eps * v) - f(w - eps * v)) / (2.0 * eps)


def dense_basis(mesh, order):
    """(P, W): P1 hat values at every Gauss point as a dense (points x
    nodes) matrix, and the flattened Gauss weights."""
    from nonlocalmp import fem

    X, W, ref_pts, _ = fem.element_quadrature(mesh, order)
    n_e, q = X.shape
    rows = np.arange(n_e * q)
    elems = rows // q
    P = np.zeros((n_e * q, mesh.n_nodes))
    P[rows, elems] = np.tile(1.0 - ref_pts, n_e)
    P[rows, elems + 1] = np.tile(ref_pts, n_e)
    return P, W.ravel()


def dense_convolution(mesh, kernel, order):
    """(C, P, W): C[k, j] = int gamma(|x_k - y|) phi_j(y) dy at every
    Gauss point x_k, by the Gauss rule on every element except the one
    holding x_k, whose rule is split at x_k; P and W from dense_basis."""
    from nonlocalmp import fem

    P, W = dense_basis(mesh, order)
    X, _, ref_pts, ref_wts = fem.element_quadrature(mesh, order)
    q = X.shape[1]
    C = np.empty_like(P)
    for k, x in enumerate(X.ravel()):
        e = k // q
        own = slice(e * q, (e + 1) * q)
        gw = kernel.gamma(np.abs(x - X.ravel())) * W
        gw[own] = 0.0
        C[k] = gw @ P
        xl, xr = mesh.nodes[e], mesh.nodes[e + 1]
        for a, b in ((xl, x), (x, xr)):
            pts = a + (b - a) * ref_pts
            g = kernel.gamma(np.abs(x - pts)) * (b - a) * ref_wts
            phi1 = (pts - xl) / mesh.h
            C[k, e] += g @ (1.0 - phi1)
            C[k, e + 1] += g @ phi1
    return C, P, W


def gathered_omega_quad(form, u_full, f):
    """(values_at_omega_quad(u_full), omega_quad_weights(), load_vector(f))
    of a form, each through index arrays: every Omega Gauss point gathers
    its element's two nodal values and its weight, and every unknown node
    gathers the hat sums of the Omega elements on each side of it."""
    from nonlocalmp import fem

    mesh, q = form.mesh, form.quad_order
    _, W, ref_pts, _ = fem.element_quadrature(mesh, q)
    lo, hi = mesh.interior_range
    elem = np.repeat(np.arange(lo, hi), q)        # element of each point
    k = np.tile(np.arange(q), hi - lo)            # its Gauss index
    values = u_full[elem] * (1.0 - ref_pts[k]) + u_full[elem + 1] * ref_pts[k]
    # Dirichlet unknowns leave out Omega's two end nodes
    unknown = np.arange(lo, hi + 1) if form.constraint == "neumann" \
        else np.arange(lo + 1, hi)
    # S[e, a]: f against hat a of the e-th Omega element
    S = f.reshape(-1, q) @ (W[0] * np.vstack([1.0 - ref_pts, ref_pts])).T
    j, n = unknown - lo, hi - lo                  # Omega-local node numbers
    load = np.where(j < n, S[np.minimum(j, n - 1), 0], 0.0) \
        + np.where(j > 0, S[np.maximum(j - 1, 0), 1], 0.0)
    return values, W[elem, k], load


def element_loop_norm_matrices(mesh):
    """Omega mass and stiffness matrices added element by element, the
    2x2 local matrices scaled as written."""
    n = mesh.n_nodes
    M = np.zeros((n, n))
    S = np.zeros((n, n))
    lo, hi = mesh.interior_range
    for e in range(lo, hi):
        sl = slice(e, e + 2)
        M[sl, sl] += (mesh.h / 6.0) * np.array([[2.0, 1.0], [1.0, 2.0]])
        S[sl, sl] += (1.0 / mesh.h) * np.array([[1.0, -1.0], [-1.0, 1.0]])
    return M, S


def per_entry_dump(path, B):
    """The matrix dump written one entry at a time (row col value)."""
    with open(path, "w") as fh:
        for i in range(B.shape[0]):
            for j in range(B.shape[1]):
                fh.write(f"{i} {j} {B[i, j]:.17g}\n")


def _powers(x, top):
    """[x^0, x^1, ..., x^top] by repeated multiplication."""
    x = np.asarray(x, dtype=float)
    pw = [np.ones(x.shape), x]
    for _ in range(top - 1):
        pw.append(pw[-1] * x)
    return pw[:top + 1]


def per_call_step_polynomial(nl, B_step, x, weights):
    """Ray maxima of the steps u = w + s v, for an array of s, with
    everything built per call: the step rule before it was built once per
    descent.

    ``B_step`` holds B[w, w], B[w, v] and B[v, v], and the two rows of x
    the values of w and v at the domain Gauss points, whose weights are
    ``weights``.  B[u, u] = B[w,w] + 2s B[w,v] + s^2 B[v,v] and int u^k dx
    = sum_j C(k,j) s^j int w^(k-j) v^j dx; the mixed moments come from one
    (k+1) x (k+1) product of the power vectors of w and v.  The returned
    function maps an array of steps to (t*, g(t*), c): ``ray_max`` of the
    ray coefficients c of w + s v, one row per step, taken for every step
    at once.
    """
    from nonlocalmp import energy as en

    n = max(nl.moment_powers) + 1
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

    def rays(steps):
        m = np.vander(steps, n, increasing=True) @ coeffs
        c = m[:, 1:]
        return (*en.ray_max(nl, m[:, 0], c), c)

    return rays


def halving_solve(form, nl, u1, cfg):
    """The descent with a direct ray evaluation at every step halving.

    It runs the modal arithmetic of ``mountain_pass.solve`` (gradient,
    direction and pairings in the form's modal basis) in a plain loop
    over the steps delta 2^-k, k = 0 .. MAX_HALVINGS.  Each trial's ray
    comes from its own pairing and Gauss-point moments, not from a step
    polynomial, and its energy is the ray polynomial evaluated at t*.
    Of the trials below e(w) the lowest is taken, ties going to the
    longer step.  Returns the iteration records, the final full nodal
    values and the stop reason (converged); raises RuntimeError when no
    trial is below e(w) or at the iteration budget.
    """
    from nonlocalmp import energy as en
    from nonlocalmp import fem
    from nonlocalmp import mountain_pass as mp

    basis = form.modal_basis(cfg.grounding_rel)
    _, lam, V = basis
    weights = form.omega_quad_weights()
    u1_unknown = form.reduce(u1)
    ts, c = en.ray_data(form, nl, u1_unknown)
    w = ts * u1_unknown
    a = V.T @ fem.tridiagonal_product(form.H, w)
    x_w = form.values_at_omega_quad(form.full_values(w))
    e_w = float(en.ray_energy(c, ts))
    records = []
    for it in range(1, cfg.max_iterations + 1):
        g_hat = mp.modal_gradient(form, nl, basis, lam * a, en.power_table(
            x_w, max(nl.F_coeffs)))
        grad_norm = math.sqrt(float((g_hat / lam) @ (g_hat / lam)))
        if grad_norm <= cfg.epsilon:
            return records, form.full_values(w), "converged"
        v_hat = mp.modal_direction(g_hat, lam, cfg.direction_reg)
        v = V @ v_hat
        x_v = form.values_at_omega_quad(form.full_values(v))
        best = None
        for halvings in range(mp.MAX_HALVINGS + 1):
            step = cfg.delta * 0.5 ** halvings
            a_u, x_u = a + step * v_hat, x_w + step * x_v
            Buu = mp.pairing(basis, weights, lam * a_u, x_u, a_u, x_u)
            c = en.ray_coefficients(nl, Buu, en.gauss_moments(
                x_u, weights, nl.moment_powers))
            ts = float(en.ray_max(nl, np.array([Buu]), c[None])[0][0])
            if math.isnan(ts):
                continue
            e_trial = float(en.ray_energy(c, ts))
            if e_trial < (e_w if best is None else best[0]):
                best = e_trial, halvings, step, ts, a_u, x_u
        if best is None:
            raise RuntimeError(f"stalled at iteration {it}")
        e_w, halvings, step, ts, a_u, x_u = best
        w, a, x_w = ts * (w + step * v), ts * a_u, ts * x_u
        records.append(mp.IterationRecord(iteration=it, energy=e_w,
                                          grad_norm_h1=grad_norm, t_star=ts,
                                          halvings_used=halvings))
    raise RuntimeError("iteration budget exhausted")
