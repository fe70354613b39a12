"""Galerkin assembly of the nonlocal bilinear form and constraint handling.

The bilinear pairing of two P1 functions u, v under a radial kernel is

    B[u, v] = 1/2 iint (u(y) - u(x)) gamma(|x-y|) (v(y) - v(x)) dy dx ,

which expands into a mass-weighted diagonal part minus the convolution
matrix K_ij = iint phi_i(x) gamma(|x-y|) phi_j(y) dy dx.

Dirichlet runs extend functions by zero outside the domain, so the mass
weight is the full kernel mass Gamma and B = Gamma*M - K on interior
nodes.  Neumann runs work on an extended computational interval D and
truncate the pairing to D x D, so the mass weight is the local kernel
mass g(x) = int_D gamma(|x-y|) dy; this makes the assembled operator
annihilate constants exactly, mirroring the continuous volume constraint.
Exterior unknowns are then eliminated by a Schur complement of the rows
that impose the constraint (operator = 0 at exterior nodes).

All double integrals use tensor Gauss-Legendre rules of a configurable
order per element pair.  Inner integrals over the element containing the
outer evaluation point are split at that point, which restores full
accuracy for kernels with a kink at the origin (exponential, power law).
"""

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import linalg

from . import fem
from .errors import (ConfigError, ExtensionMarginWarning, OutsideDomain,
                     SingularExteriorBlock, SingularSystem)

__all__ = ["QUAD_ORDER", "NonlocalForm", "assemble_dirichlet",
           "assemble_neumann", "check_quad_order", "dump_matrix"]

QUAD_ORDER = 4          # Gauss points per element, the default rule
_CHUNK_FLOATS = 4_000_000


@dataclass
class _Quadrature:
    """Cached Gauss data for one (mesh, order) pair."""

    X: np.ndarray            # (n_e, q) points
    W: np.ndarray            # (n_e, q) weights
    ref_pts: np.ndarray      # (q,) on [0, 1]
    ref_wts: np.ndarray
    Xf: np.ndarray           # flattened points, (N,)
    Wf: np.ndarray
    P: np.ndarray            # (N, n_nodes) basis values at the points
    pb: np.ndarray           # (2, q) local basis at the reference points


def _make_quadrature(mesh, order):
    X, W, ref_pts, ref_wts = fem.element_quadrature(mesh, order)
    n_e, q = X.shape
    N = n_e * q
    P = np.zeros((N, mesh.n_nodes))
    rows = np.arange(N)
    elems = rows // q
    pb = np.vstack([1.0 - ref_pts, ref_pts])
    P[rows, elems] = np.tile(pb[0], n_e)
    P[rows, elems + 1] = np.tile(pb[1], n_e)
    return _Quadrature(X, W, ref_pts, ref_wts, X.ravel(), W.ravel(), P, pb)


def _split_rule(mesh, quad):
    """Sub-interval Gauss rules for the self-element inner integrals.

    For each element e and each outer point x in it, the inner integral
    over e is evaluated on [x_l, x] and [x, x_r] separately.  Returns the
    split points, weights and local basis values with shapes
    (n_e, q, 2q), plus gamma-independent geometry only.
    """
    X = quad.X
    n_e, q = X.shape
    xl = mesh.nodes[:-1][:, None, None]
    xr = mesh.nodes[1:][:, None, None]
    x = X[:, :, None]
    ref = quad.ref_pts[None, None, :]
    wts_ref = quad.ref_wts[None, None, :]
    left_pts = xl + (x - xl) * ref
    left_wts = (x - xl) * wts_ref
    right_pts = x + (xr - x) * ref
    right_wts = (xr - x) * wts_ref
    pts = np.concatenate([left_pts, right_pts], axis=2)
    wts = np.concatenate([left_wts, right_wts], axis=2)
    phi1 = (pts - xl) / mesh.h
    phi0 = 1.0 - phi1
    return pts, wts, phi0, phi1


class NonlocalForm:
    """Assembled nonlocal form with constraint bookkeeping.

    Attributes of interest: ``B`` (matrix over unknown nodes), ``K`` (the
    raw convolution matrix over all nodes), ``kernel_mass`` (Gamma),
    ``constraint`` ('dirichlet' or 'neumann'), ``unknown_idx`` and, for
    Neumann runs, ``exterior_map`` which reconstructs exterior nodal
    values from the interior ones.
    """

    def __init__(self, mesh, kernel, constraint, quad_order):
        check_quad_order(quad_order)
        self.mesh = mesh
        self.kernel = kernel
        self.constraint = constraint
        self.quad_order = quad_order
        self.kernel_mass = kernel.total_mass
        self._quad = _make_quadrature(mesh, quad_order)
        self._fact_cache = {}
        self._assemble_common()

    # -- assembly -----------------------------------------------------------

    def _assemble_common(self):
        quad = self._quad
        Xf, Wf, P = quad.Xf, quad.Wf, quad.P
        N = Xf.size
        gamma = self.kernel.gamma

        WP = Wf[:, None] * P
        K = np.zeros((self.mesh.n_nodes, self.mesh.n_nodes))
        g_plain = np.zeros(N)
        chunk = max(1, _CHUNK_FLOATS // N)
        for start in range(0, N, chunk):
            stop = min(start + chunk, N)
            G = gamma(np.abs(Xf[start:stop, None] - Xf[None, :]))
            K += WP[start:stop].T @ (G @ WP)
            g_plain[start:stop] = G @ Wf

        # self-element corrections: split the inner rule at the outer point
        pts, wts, phi0, phi1 = _split_rule(self.mesh, quad)
        gam_split = gamma(np.abs(quad.X[:, :, None] - pts))
        gam_plain = gamma(np.abs(quad.X[:, :, None] - quad.X[:, None, :]))
        # Delta I[e, k, j]: corrected minus plain inner integral of
        # gamma(|x_ek - y|) phi_j(y) over element e
        dI = np.empty(quad.X.shape + (2,))
        pbw = quad.ref_wts * self.mesh.h           # plain inner weights
        dI[:, :, 0] = (gam_split * wts * phi0).sum(axis=2) \
            - (gam_plain * pbw * quad.pb[0]).sum(axis=2)
        dI[:, :, 1] = (gam_split * wts * phi1).sum(axis=2) \
            - (gam_plain * pbw * quad.pb[1]).sum(axis=2)
        self._dI = dI

        n_e, q = quad.X.shape
        elems = np.arange(n_e)
        for a in range(2):
            for b in range(2):
                vals = (quad.W * quad.pb[a] * dI[:, :, b]).sum(axis=1)
                np.add.at(K, (elems + a, elems + b), vals)
        self.K = 0.5 * (K + K.T)

        dg = dI.sum(axis=2).ravel()
        self._g_at_quad = g_plain + dg      # int_D gamma(|x_q - y|) dy

        lo, hi = self.mesh.interior_range
        if self.constraint == "dirichlet":
            if (lo, hi) != (0, self.mesh.n_nodes - 1):
                raise ValueError("Dirichlet assembly expects the mesh to "
                                 "cover exactly the physical domain")
            self.unknown_idx = np.arange(1, self.mesh.n_nodes - 1)
            M_full = fem.mass_matrix(self.mesh)
            B_full = self.kernel_mass * M_full - self.K
            B = B_full[np.ix_(self.unknown_idx, self.unknown_idx)]
            self.B = 0.5 * (B + B.T)
            self.B_tilde = None
            self.exterior_map = None
            self.exterior_idx = np.array([0, self.mesh.n_nodes - 1])
        else:
            self._assemble_neumann_reduction()

        M_om, S_om = fem.omega_norm_matrices(self.mesh)
        self._M_unknown = M_om[np.ix_(self.unknown_idx, self.unknown_idx)]
        ql, qh = lo * q, hi * q
        self._omega_rows = slice(ql, qh)
        self._P_omega = self._quad.P[ql:qh]
        self._W_omega = self._quad.Wf[ql:qh]

    def _assemble_neumann_reduction(self):
        mesh = self.mesh
        quad = self._quad
        n_e, q = quad.X.shape
        elems = np.arange(n_e)
        g = self._g_at_quad.reshape(n_e, q)

        Wmat = np.zeros((mesh.n_nodes, mesh.n_nodes))
        for a in range(2):
            for b in range(2):
                vals = (quad.W * quad.pb[a] * quad.pb[b] * g).sum(axis=1)
                np.add.at(Wmat, (elems + a, elems + b), vals)
        B_tilde = Wmat - self.K
        self.B_tilde = 0.5 * (B_tilde + B_tilde.T)

        lo, hi = mesh.interior_range
        idx_in = mesh.omega_nodes
        idx_ext = np.setdiff1d(np.arange(mesh.n_nodes), idx_in)
        if idx_ext.size == 0:
            raise ValueError("Neumann assembly expects an extended mesh")
        margin = min(mesh.omega[0] - mesh.x_left, mesh.x_right - mesh.omega[1])
        r_cut = self.kernel.truncation_radius(1e-6)
        if margin < r_cut:
            warnings.warn(
                f"extension margin {margin:.3g} is below the kernel "
                f"truncation radius {r_cut:.3g}; exterior coupling is "
                f"truncated accordingly", ExtensionMarginWarning, stacklevel=3)

        B_EE = self.B_tilde[np.ix_(idx_ext, idx_ext)]
        B_EI = self.B_tilde[np.ix_(idx_ext, idx_in)]
        try:
            fact = linalg.cho_factor(B_EE)
            ext_map = -linalg.cho_solve(fact, B_EI)
        except linalg.LinAlgError as exc:
            raise SingularExteriorBlock(
                "exterior block not positive definite; increase the "
                "extension or check the kernel sign") from exc
        if not np.all(np.isfinite(ext_map)):
            raise SingularExteriorBlock("exterior elimination produced "
                                        "non-finite values")
        B_II = self.B_tilde[np.ix_(idx_in, idx_in)]
        B_IE = self.B_tilde[np.ix_(idx_in, idx_ext)]
        B = B_II + B_IE @ ext_map
        self.B = 0.5 * (B + B.T)
        self.exterior_map = ext_map
        self.unknown_idx = idx_in
        self.exterior_idx = idx_ext

    # -- nodal-vector plumbing ----------------------------------------------

    @property
    def n_unknowns(self):
        return self.unknown_idx.size

    def reduce(self, u):
        """Unknown-node values of a FeFunction or full nodal vector."""
        vals = u.values if isinstance(u, fem.FeFunction) else np.asarray(u)
        return vals[self.unknown_idx].copy()

    def full_values(self, u_unknown):
        """Full nodal vector respecting the form's constraint."""
        full = np.zeros(self.mesh.n_nodes)
        full[self.unknown_idx] = u_unknown
        if self.constraint == "neumann":
            full[self.exterior_idx] = self.exterior_map @ u_unknown
        return full

    def fe(self, u_unknown):
        return fem.FeFunction(self.mesh, self.full_values(u_unknown))

    def as_full(self, u):
        """Full nodal values of a FeFunction, full vector or unknown vector.

        Values are taken as given; respecting the constraint is the
        caller's responsibility (an unknown-length vector is completed
        through the constraint, which always satisfies it).
        """
        if isinstance(u, fem.FeFunction):
            return np.asarray(u.values, dtype=float)
        u = np.asarray(u, dtype=float)
        if u.shape == (self.mesh.n_nodes,):
            return u
        if u.shape == (self.n_unknowns,):
            return self.full_values(u)
        raise ValueError("vector length matches neither the node count nor "
                         "the unknown count")

    # -- quadrature-level accessors ------------------------------------------

    def omega_quad_points(self):
        return self._quad.Xf[self._omega_rows]

    def omega_quad_weights(self):
        return self._W_omega

    def values_at_omega_quad(self, u_full):
        """P1 values of a full nodal vector at the domain Gauss points."""
        return self._P_omega @ u_full

    def load_vector(self, f_at_quad):
        """Unknown-node load vector int f(x) phi_i(x) dx over the domain."""
        return (self._P_omega * self._W_omega[:, None]).T[self.unknown_idx] @ f_at_quad

    # -- linear solves --------------------------------------------------------

    def grounding_shift(self, grounding_rel):
        """Mass-matrix shift used to remove the Neumann constant null mode."""
        if self.constraint != "neumann" or grounding_rel == 0.0:
            return 0.0
        return grounding_rel * np.trace(self.B) / np.trace(self._M_unknown)

    @cached_property
    def h1_gram(self):
        """H1(Omega) Gram matrix M + S over the unknown nodes."""
        M_om, S_om = fem.omega_norm_matrices(self.mesh)
        return (M_om + S_om)[np.ix_(self.unknown_idx, self.unknown_idx)]

    def solve_spd(self, rhs, grounding_rel=0.0, reg=0.0):
        """Solve (B + reg H + sigma M) x = rhs by Cholesky.

        H is ``h1_gram`` and sigma M the mass shift grounding the Neumann
        null mode; each factorization is cached on the form.
        """
        sigma = self.grounding_shift(grounding_rel)
        key = (float(sigma), float(reg))
        fact = self._fact_cache.get(key)
        if fact is None:
            mat = self.B
            if reg:
                mat = mat + reg * self.h1_gram
            if sigma:
                mat = mat + sigma * self._M_unknown
            try:
                fact = linalg.cho_factor(mat)
            except linalg.LinAlgError as exc:
                raise SingularSystem(
                    "system not positive definite (grounding shift "
                    f"{sigma:.3g}, regularization {reg:.3g})") from exc
            self._fact_cache[key] = fact
        return linalg.cho_solve(fact, rhs)

    # -- point-wise operator ---------------------------------------------------

    def _local_mass(self, x):
        """int_D gamma(|x-y|) dy by the same per-element rule used in assembly."""
        conv, _ = self._conv_point(x, np.ones(self.mesh.n_nodes))
        return conv

    def _conv_point(self, x, u_full):
        """(int gamma(|x-y|) u(y) dy over the mesh, element index of x)."""
        mesh = self.mesh
        quad = self._quad
        u_q = (quad.P @ u_full).reshape(quad.X.shape)
        gam = self.kernel.gamma(np.abs(x - quad.X))
        conv = float((gam * quad.W * u_q).sum())
        ec = min(int(np.searchsorted(mesh.nodes, x, side="right")) - 1,
                 mesh.n_elements - 1)
        ec = max(ec, 0)
        # replace the self-element contribution by the rule split at x
        xl, xr = mesh.nodes[ec], mesh.nodes[ec + 1]
        conv -= float((gam[ec] * quad.W[ec] * u_q[ec]).sum())
        for lo_pt, hi_pt in ((xl, x), (x, xr)):
            span = hi_pt - lo_pt
            if span <= 0:
                continue
            pts = lo_pt + span * quad.ref_pts
            wts = span * quad.ref_wts
            phi1 = (pts - xl) / mesh.h
            uv = u_full[ec] * (1.0 - phi1) + u_full[ec + 1] * phi1
            conv += float((self.kernel.gamma(np.abs(x - pts)) * wts * uv).sum())
        return conv, ec

    def apply_operator(self, u, x):
        """Pointwise (-L u)(x) = m(x) u(x) - int gamma(|x-y|) u(y) dy.

        For Dirichlet forms m(x) is the total kernel mass (u is extended
        by zero); for Neumann forms m(x) is the mass of the kernel over
        the computational interval, consistent with the assembled form.
        """
        o_left, o_right = self.mesh.omega
        if not (o_left <= x <= o_right):
            raise OutsideDomain(f"x = {x} lies outside the physical domain")
        u_full = self.as_full(u)
        conv, _ = self._conv_point(x, u_full)
        if self.constraint == "dirichlet":
            m = self.kernel_mass
        else:
            m = self._local_mass(x)
        ux = float(np.interp(x, self.mesh.nodes, u_full))
        return m * ux - conv

    def operator_at_omega_quad(self, u_full):
        """(-L u) at every domain Gauss point, vectorized.

        Uses exactly the assembly quadrature (including the self-element
        splits), so a Neumann constant gives zero to round-off.
        """
        quad = self._quad
        Xf, Wf = quad.Xf, quad.Wf
        u_q = quad.P @ u_full
        rows = self._omega_rows
        Xo = Xf[rows]
        n_o = Xo.size
        conv = np.zeros(n_o)
        chunk = max(1, _CHUNK_FLOATS // Xf.size)
        wu = Wf * u_q
        for start in range(0, n_o, chunk):
            stop = min(start + chunk, n_o)
            G = self.kernel.gamma(np.abs(Xo[start:stop, None] - Xf[None, :]))
            conv[start:stop] = G @ wu
        # self-element corrections, u linear on each element
        n_e, q = quad.X.shape
        lo, hi = self.mesh.interior_range
        dI = self._dI[lo:hi]
        corr = dI[:, :, 0] * u_full[lo:hi, None] + dI[:, :, 1] * u_full[lo + 1:hi + 1, None]
        conv += corr.ravel()
        if self.constraint == "dirichlet":
            m = self.kernel_mass
        else:
            m = self._g_at_quad[rows]
        return m * u_q[rows] - conv

    # -- diagnostics ------------------------------------------------------------

    def exterior_constraint_residual(self, u):
        """Max weak-form residual of the volume constraint at exterior nodes.

        Returns ``(raw, normalized)`` where ``raw = max |(B~ u)_e|`` over
        exterior nodes and ``normalized`` divides by max|B~| * max|u|.
        """
        if self.constraint != "neumann":
            raise ValueError("constraint residual is a Neumann diagnostic")
        u_full = self.as_full(u)
        res = self.B_tilde @ u_full
        raw = float(np.max(np.abs(res[self.exterior_idx])))
        scale = float(np.max(np.abs(self.B_tilde)) * max(np.max(np.abs(u_full)), 1e-300))
        return raw, raw / scale


def check_quad_order(quad_order):
    """Raise ConfigError unless quad_order is a usable Gauss rule size."""
    if quad_order < 2:
        raise ConfigError(f"quad_order must be at least 2, got {quad_order}",
                          key="quad_order")


def assemble_dirichlet(mesh, kernel, quad_order=QUAD_ORDER):
    """Nonlocal form with homogeneous Dirichlet volume constraint."""
    return NonlocalForm(mesh, kernel, "dirichlet", quad_order)


def assemble_neumann(mesh, kernel, quad_order=QUAD_ORDER):
    """Nonlocal form with homogeneous Neumann volume constraint.

    The mesh must extend beyond its physical domain (see
    :func:`fem.build_extended_mesh`); exterior unknowns are eliminated
    exactly by a Schur complement.
    """
    return NonlocalForm(mesh, kernel, "neumann", quad_order)


def dump_matrix(path, form):
    """Write the reduced matrix B in coordinate text format (row col value)."""
    with open(path, "w") as fh:
        B = form.B
        for i in range(B.shape[0]):
            for j in range(B.shape[1]):
                fh.write(f"{i} {j} {B[i, j]:.17g}\n")
