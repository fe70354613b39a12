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

The dense linear algebra is numpy's: the generalized eigendecomposition
of the pencil (B + sigma M, H) behind the descent's modal basis, the
Cholesky factor of B + sigma M behind the reference resolve (both cached
on the form) and one Cholesky solve of the Neumann exterior elimination.
A non-finite matrix or right-hand side raises ValueError, and a
factorization that fails raises SingularSystem or SingularExteriorBlock.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import fem
from .errors import (ConfigError, ExtensionMarginWarning, OutsideDomain,
                     SingularExteriorBlock, SingularSystem)

__all__ = ["QUAD_ORDER", "NonlocalForm", "assemble_dirichlet",
           "assemble_neumann", "check_quad_order", "dump_matrix"]

QUAD_ORDER = 4          # Gauss points per element, the default rule
_CHUNK_FLOATS = 2_000_000
_TRI_BLOCK = 32         # rows per block of the triangular solves


@dataclass
class _Quadrature:
    """Cached Gauss data for one (mesh, order) pair."""

    X: np.ndarray            # (n_e, q) points
    W: np.ndarray            # (n_e, q) weights
    ref_pts: np.ndarray      # (q,) on [0, 1]
    ref_wts: np.ndarray
    Xf: np.ndarray           # flattened points, (N,)
    Wf: np.ndarray
    pb: np.ndarray           # (2, q) local basis at the reference points
    wpb: np.ndarray          # (2, q) pb times one element's Gauss weights

    def hats(self, rows=slice(None)):
        """(i, i + 1, phi_i, phi_i+1) at the flattened points ``rows``:
        i is the left node of the point's element and phi_i, phi_i+1 are
        the element's two hat values at the point."""
        n_e, q = self.X.shape
        i = np.repeat(np.arange(n_e), q)[rows]
        phi = np.tile(self.pb, n_e)[:, rows]
        return i, i + 1, phi[0], phi[1]


def _make_quadrature(mesh, order):
    X, W, ref_pts, ref_wts = fem.element_quadrature(mesh, order)
    pb = np.vstack([1.0 - ref_pts, ref_pts])
    return _Quadrature(X, W, ref_pts, ref_wts, X.ravel(), W.ravel(), pb,
                       W[0] * pb)


def _p1_values(u, hats):
    """Values of the P1 function with nodal values u at the points of
    ``hats`` (see ``_Quadrature.hats``)."""
    i0, i1, phi0, phi1 = hats
    return u[i0] * phi0 + u[i1] * phi1


def _hat_sums(A, wpb):
    """Hat-weighted sums over the trailing axis of A.

    That axis runs over the Gauss points of consecutive elements, q per
    element; each element adds its two sums with the weights ``wpb``
    (2, q) onto its two nodes, so (..., n_e q) becomes (..., n_e + 1).
    """
    S = A.reshape(A.shape[:-1] + (-1, wpb.shape[1])) @ wpb.T
    out = np.zeros(S.shape[:-2] + (S.shape[-2] + 1,))
    out[..., :-1] = S[..., 0]
    out[..., 1:] += S[..., 1]
    return out


class NonlocalForm:
    """Assembled nonlocal form with constraint bookkeeping.

    Attributes of interest: ``B`` (matrix over unknown nodes), ``K`` (the
    raw convolution matrix over all nodes), ``kernel_mass`` (Gamma),
    ``constraint`` ('dirichlet' or 'neumann'), ``unknown_idx``, ``M``
    (the L2(Omega) mass matrix over all nodes, zero outside Omega),
    ``h1_gram`` (H1(Omega) over unknown nodes) and, for Neumann runs,
    ``exterior_map`` which reconstructs exterior nodal values from the
    interior ones.
    """

    def __init__(self, mesh, kernel, constraint, quad_order):
        check_quad_order(quad_order)
        self.mesh = mesh
        self.kernel = kernel
        self.constraint = constraint
        self.quad_order = quad_order
        self.kernel_mass = kernel.total_mass
        self._quad = _make_quadrature(mesh, quad_order)
        # (sigma, ...) of the last grounded factor and modal basis built
        self._factor = None
        self._basis = None
        self._assemble_common()

    # -- assembly -----------------------------------------------------------

    def _split_delta(self, x, elem):
        """Split minus plain rule for int gamma(|x - y|) phi_j(y) dy over
        the element ``elem`` = [x_l, x_r] holding each point x, for its two
        hats j.  The split rule is the Gauss rule on each of [x_l, x] and
        [x, x_r].

        Returns shape x.shape + (2,).
        """
        quad, gamma = self._quad, self.kernel.gamma
        xl = self.mesh.nodes[elem][..., None]
        xr = self.mesh.nodes[elem + 1][..., None]
        x = x[..., None]
        ref, wts_ref = quad.ref_pts, quad.ref_wts
        pts = np.concatenate([xl + (x - xl) * ref, x + (xr - x) * ref], -1)
        wts = np.concatenate([(x - xl) * wts_ref, (xr - x) * wts_ref], -1)
        phi1 = (pts - xl) / self.mesh.h
        phi0 = 1.0 - phi1
        gam_split = gamma(np.abs(x - pts)) * wts
        gam_plain = gamma(np.abs(x - quad.X[elem])) * quad.W[elem]
        return np.stack([(gam_split * phi0).sum(axis=-1)
                         - (gam_plain * quad.pb[0]).sum(axis=-1),
                         (gam_split * phi1).sum(axis=-1)
                         - (gam_plain * quad.pb[1]).sum(axis=-1)], axis=-1)

    def _assemble_common(self):
        quad = self._quad
        Xf, Wf = quad.Xf, quad.Wf
        n_e, q = quad.X.shape
        N = Xf.size
        # dI[k]: split minus plain inner integral over the element of point k
        dI = self._split_delta(quad.X, np.arange(n_e)[:, None]).reshape(N, 2)

        # C[r, j] = int gamma(|x_r - y|) phi_j(y) dy for a block of whole
        # elements' points x_r; K gathers its rows against the hats
        K = np.zeros((self.mesh.n_nodes, self.mesh.n_nodes))
        g = dI.sum(axis=1)
        block = max(1, _CHUNK_FLOATS // (q * N))
        for e0 in range(0, n_e, block):
            e1 = min(e0 + block, n_e)
            rows = slice(e0 * q, e1 * q)
            G = self.kernel.gamma(np.abs(Xf[rows, None] - Xf[None, :]))
            g[rows] += G @ Wf
            C = _hat_sums(G, quad.wpb)
            r = np.arange(C.shape[0])
            i0, i1 = quad.hats(rows)[:2]
            C[r, i0] += dI[rows, 0]
            C[r, i1] += dI[rows, 1]
            K[e0:e1 + 1] += _hat_sums(C.T, quad.wpb).T
        self.K = 0.5 * (K + K.T)

        lo, hi = self.mesh.interior_range
        self.M, S = fem.omega_norm_matrices(self.mesh)
        if self.constraint == "dirichlet":
            if (lo, hi) != (0, self.mesh.n_nodes - 1):
                raise ValueError("Dirichlet assembly expects the mesh to "
                                 "cover exactly the physical domain")
            self.unknown_idx = np.arange(1, self.mesh.n_nodes - 1)
            # Omega is the whole mesh here, so M is the full mass matrix
            B_full = self.kernel_mass * self.M - self.K
            B = B_full[np.ix_(self.unknown_idx, self.unknown_idx)]
            self.B = 0.5 * (B + B.T)
            self.B_tilde = None
            self.exterior_map = None
            self.exterior_idx = np.array([0, self.mesh.n_nodes - 1])
        else:
            self._assemble_neumann_reduction(g)

        unknown = np.ix_(self.unknown_idx, self.unknown_idx)
        self.h1_gram = (self.M + S)[unknown]    # H1(Omega) Gram matrix M + S
        self._omega_rows = slice(lo * q, hi * q)
        self._omega_hats = quad.hats(self._omega_rows)

    def _assemble_neumann_reduction(self, g):
        """B~ and its Schur reduction; g = int_D gamma(|x - y|) dy at x_q."""
        mesh = self.mesh
        quad = self._quad
        n_e, q = quad.X.shape
        elems = np.arange(n_e)
        g = g.reshape(n_e, q)

        Wmat = np.zeros((mesh.n_nodes, mesh.n_nodes))
        for a in range(2):
            for b in range(2):
                vals = (quad.W * quad.pb[a] * quad.pb[b] * g).sum(axis=1)
                np.add.at(Wmat, (elems + a, elems + b), vals)
        B_tilde = Wmat - self.K
        self.B_tilde = 0.5 * (B_tilde + B_tilde.T)

        idx_in = np.arange(mesh.interior_range[0], mesh.interior_range[1] + 1)
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
        L = _cholesky(B_EE, SingularExteriorBlock(
            "exterior block not positive definite; increase the "
            "extension or check the kernel sign"))
        ext_map = -_cho_solve(L, B_EI)
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
        return self._quad.Wf[self._omega_rows]

    def values_at_omega_quad(self, u_full):
        """P1 values of a full nodal vector at the domain Gauss points."""
        return _p1_values(u_full, self._omega_hats)

    def load_vector(self, f_at_quad):
        """Unknown-node load vector int f(x) phi_i(x) dx over the domain."""
        lo = self.mesh.interior_range[0]
        return _hat_sums(f_at_quad, self._quad.wpb)[self.unknown_idx - lo]

    # -- linear solves --------------------------------------------------------

    def grounding_shift(self, grounding_rel):
        """Mass-matrix shift used to remove the Neumann constant null mode.

        A Neumann form needs ``grounding_rel`` > 0: its B annihilates
        constants, so the ungrounded system is singular up to round-off.
        """
        if self.constraint != "neumann" or grounding_rel == 0.0:
            return 0.0
        m_diag = self.M.diagonal()[self.unknown_idx]
        return grounding_rel * np.trace(self.B) / m_diag.sum()

    def _grounded(self, sigma):
        """B + sigma M_u, with M_u the mass matrix over unknown nodes."""
        if not sigma:
            return self.B
        return self.B + sigma * self.M[np.ix_(self.unknown_idx,
                                              self.unknown_idx)]

    def modal_basis(self, grounding_rel):
        """(sigma, lam, V) of the pencil (B + sigma M_u, H), H = ``h1_gram``.

        V^T H V = I and V^T (B + sigma M_u) V = diag(lam), lam ascending, so
        (B + sigma M_u + tau H)^-1 = V diag(1 / (lam + tau)) V^T for every
        tau >= 0.  Built on first use (one ``_eigh_pencil``) and cached for
        the last grounding asked for (sigma = 0 for Dirichlet forms).  A
        non-finite matrix raises ValueError; raises SingularSystem unless
        the grounded form is positive definite (lam > 0).
        """
        sigma = self.grounding_shift(grounding_rel)
        if self._basis is None or self._basis[0] != sigma:
            lam, V = _eigh_pencil(self._grounded(sigma), self.h1_gram,
                                  SingularSystem(
                                      "generalized eigenproblem failed "
                                      f"(grounding shift {sigma:.3g})"))
            if not lam[0] > 0.0:
                raise SingularSystem(
                    "system not positive definite (grounding shift "
                    f"{sigma:.3g}, smallest eigenvalue {lam[0]:.3g})")
            self._basis = (sigma, lam, V)
        return self._basis

    def solve_spd(self, rhs, grounding_rel):
        """Solve (B + sigma M) x = rhs by Cholesky.

        sigma M is the mass shift grounding the Neumann null mode.  The
        lower Cholesky factor of the last grounding asked for is cached on
        the form and solved by ``_cho_solve``.  ``rhs`` is a vector or a
        matrix of right-hand-side columns; a non-finite entry raises
        ValueError.
        """
        sigma = self.grounding_shift(grounding_rel)
        if self._factor is None or self._factor[0] != sigma:
            self._factor = (sigma, _cholesky(
                self._grounded(sigma), SingularSystem(
                    "system not positive definite (grounding shift "
                    f"{sigma:.3g})")))
        return _cho_solve(self._factor[1], rhs)

    # -- the operator -L u --------------------------------------------------

    def _minus_L(self, u_full, x, hats):
        """(-L u)(x) = m(x) u(x) - int gamma(|x-y|) u(y) dy at points x.

        ``hats`` are the (i, i + 1, phi_i, phi_i+1) of each point's element
        (see ``_Quadrature.hats``).  The convolution uses the assembly rule:
        Gauss points everywhere plus the split correction of the element
        holding x.  m(x) is Gamma for Dirichlet forms (u is extended by
        zero) and for Neumann forms the convolution of 1 over the
        computational interval, taken in the same pass, so that the
        operator annihilates constants as the assembled form does.
        """
        quad = self._quad
        cols = [quad.Wf * _p1_values(u_full, quad.hats())]
        if self.constraint == "neumann":
            cols.append(quad.Wf)
        conv = np.empty((len(cols), x.size))
        chunk = max(1, _CHUNK_FLOATS // quad.Xf.size)
        for start in range(0, x.size, chunk):
            stop = min(start + chunk, x.size)
            G = self.kernel.gamma(np.abs(x[start:stop, None] - quad.Xf))
            # a matvec per column, as for the assembled g: the same bits
            for c, col in zip(conv, cols):
                c[start:stop] = G @ col
        dI = self._split_delta(x, hats[0])
        conv_u = conv[0] + _p1_values(u_full, hats[:2] + (dI[:, 0], dI[:, 1]))
        if self.constraint == "dirichlet":
            m = self.kernel_mass
        else:
            m = conv[1] + dI.sum(axis=1)
        return m * _p1_values(u_full, hats) - conv_u

    def apply_operator(self, u, x):
        """Pointwise (-L u)(x) at one point x of the physical domain, by
        the rule of ``operator_at_omega_quad``."""
        mesh = self.mesh
        o_left, o_right = mesh.omega
        if not (o_left <= x <= o_right):
            raise OutsideDomain(f"x = {x} lies outside the physical domain")
        e = np.clip(np.searchsorted(mesh.nodes, [x], side="right") - 1,
                    0, mesh.n_elements - 1)
        phi1 = (x - mesh.nodes[e]) / mesh.h
        hats = (e, e + 1, 1.0 - phi1, phi1)
        return float(self._minus_L(self.as_full(u), np.array([x]), hats)[0])

    def operator_at_omega_quad(self, u_full):
        """(-L u) at every domain Gauss point, vectorized.

        Uses exactly the assembly quadrature (including the self-element
        splits), so a Neumann constant gives zero to round-off.
        """
        return self._minus_L(u_full, self.omega_quad_points(),
                             self._omega_hats)

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


def _check_finite(a):
    """a as a float array; raises ValueError on a non-finite entry."""
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("array must not contain infs or NaNs")
    return a


def _cholesky(A, failed):
    """Lower Cholesky factor L of the symmetric matrix A, A = L L^T.

    A non-finite entry raises ValueError; a matrix that is not positive
    definite raises the exception ``failed``.
    """
    try:
        return np.linalg.cholesky(_check_finite(A))
    except np.linalg.LinAlgError as exc:
        raise failed from exc


def _solve_triangular(L, B, transpose=False):
    """X with L X = B, or L^T X = B with ``transpose``, for lower-triangular L.

    Block forward substitution, ``_TRI_BLOCK`` rows at a time: a block
    subtracts the product of its rows of L with the rows of X already
    solved, reading those rows of L only from their first nonzero column,
    and then multiplies by the inverse of its diagonal block.  So a banded
    factor costs O(_TRI_BLOCK n) products per column of B.  L^T X = B is
    solved as the lower-triangular system J L^T J (J X) = J B, J reversing
    the order of the unknowns.  X is C-contiguous.
    """
    if transpose:
        rev = _solve_triangular(np.ascontiguousarray(L.T[::-1, ::-1]),
                                np.asarray(B)[::-1])
        return np.ascontiguousarray(rev[::-1])
    X = np.array(B, dtype=float)
    first = np.argmax(L != 0.0, axis=1)
    for k in range(0, L.shape[0], _TRI_BLOCK):
        rows = slice(k, k + _TRI_BLOCK)
        lo = first[rows].min()
        if lo < k:
            X[rows] -= L[rows, lo:k] @ X[lo:k]
        X[rows] = np.linalg.inv(L[rows, rows]) @ X[rows]
    return X


def _eigh_pencil(A, H, failed):
    """(lam, V) of the symmetric-definite pencil (A, H), lam ascending.

    V^T H V = I and V^T A V = diag(lam), by the reduction to a standard
    eigenproblem (Golub & Van Loan, *Matrix Computations*, sec. 8.7):
    H = L L^T, the eigenpairs (lam, Y) of L^-1 A L^-T, and V = L^-T Y.
    For the tridiagonal H1 Gram matrix L is bidiagonal, so the three
    triangular solves cost O(n^2) next to the O(n^3) ``eigh``.  A
    non-finite entry raises ValueError; an H that is not positive
    definite, or an eigensolver that fails, raises ``failed``.
    """
    A = _check_finite(A)
    L = _cholesky(H, failed)
    try:
        lam, Y = np.linalg.eigh(
            _solve_triangular(L, _solve_triangular(L, A).T))
    except np.linalg.LinAlgError as exc:
        raise failed from exc
    return lam, _solve_triangular(L, Y, transpose=True)


def _cho_solve(L, rhs):
    """x with L L^T x = rhs; a non-finite entry of rhs raises ValueError."""
    return _solve_triangular(L, _solve_triangular(L, _check_finite(rhs)),
                             transpose=True)


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
    """Write the reduced matrix B in coordinate text format (row col value).

    Each distinct value is formatted once: one ``np.unique`` of the bit
    patterns indexes the texts, so -0.0 and 0.0 keep their own text.
    Rows are converted to text one at a time.
    """
    B = form.B
    bits, idx = np.unique(B.view(np.int64), return_inverse=True)
    text = [f"{v:.17g}\n" for v in bits.view(float).tolist()]
    cols = [f" {j} " for j in range(B.shape[1])]
    with open(path, "w") as fh:
        for i, keys in enumerate(idx.reshape(B.shape)):
            row = str(i)
            fh.write("".join([row + c + text[k]
                              for c, k in zip(cols, keys.tolist())]))
