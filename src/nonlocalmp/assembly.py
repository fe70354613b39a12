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

Every mesh is uniform and every kernel radial, so the integral of
gamma(|x - y|) phi(y) dy over one element, for a hat phi of that
element, depends only on the local coordinate rho of x in its element
and on how many elements apart the two lie.  One offset table holds
these integrals for every offset d: the Gauss rule of a configurable
order over the element d places away, split at x when d = 0, which
restores full accuracy for kernels with a kink at the origin
(exponential, power law).  The table is taken at the Gauss points
rho_k and kept on the form.  It gives K as four Toeplitz matrices of its
hat-weighted sums; the local kernel mass g and the convolution inside
-L u are ``np.convolve`` of its columns with nodal values.  So a form
evaluates gamma at (2 n_e - 1) q^2 distances, not at every pair of its
n_e q Gauss points, and -L u evaluates none.

The dense linear algebra is numpy's: the generalized eigendecomposition
of the pencil (B + sigma M, H) behind the modal basis the form caches, a
Cholesky factor of B + sigma M per reference resolve and one Cholesky
solve of the Neumann exterior elimination.  The Omega mass M and the
H1 Gram matrix H = M + S are tridiagonal and never dense: a form holds
them as (diagonal, off-diagonal) pairs over its unknowns and factors H
by an O(n) bidiagonal recurrence.  Assembly sums -K and adds a mass pair
onto it in place: Gamma M onto the Dirichlet unknowns' block, the
g-weighted P1 mass onto all of a Neumann -K, which becomes B~.  A
non-finite matrix or right-hand side raises ValueError, and a
factorization that fails raises SingularSystem or SingularExteriorBlock.
"""

import math
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import fem
from .errors import (ConfigError, ExtensionMarginWarning,
                     SingularExteriorBlock, SingularSystem)

__all__ = ["QUAD_ORDER", "NonlocalForm", "assemble_dirichlet",
           "assemble_neumann", "check_constraint", "check_quad_order",
           "dump_matrix"]

QUAD_ORDER = 4          # Gauss points per element, the default rule
_TRI_BLOCK = 32         # rows per block of the triangular solves


@dataclass
class _Quadrature:
    """The Gauss rule of one element, for a (mesh, order) pair."""

    ref_pts: np.ndarray      # (q,) on [0, 1]
    ref_wts: np.ndarray
    pb: np.ndarray           # (2, q) local basis at the reference points
    wpb: np.ndarray          # (2, q) pb times one element's Gauss weights


def _make_quadrature(mesh, order):
    ref_pts, ref_wts = fem.reference_quadrature(order)
    pb = np.vstack([1.0 - ref_pts, ref_pts])
    return _Quadrature(ref_pts, ref_wts, pb, (mesh.h * ref_wts) * pb)


class NonlocalForm:
    """Assembled nonlocal form with constraint bookkeeping.

    Attributes of interest: ``B`` (matrix over unknown nodes),
    ``kernel_mass`` (Gamma), ``constraint`` ('dirichlet' or 'neumann'),
    ``unknowns`` (the slice of unknown nodes: Omega's nodes for Neumann
    forms, Omega's less its two end nodes for Dirichlet forms, so one
    range either way), ``M_uu`` (the L2(Omega) mass matrix over unknown
    nodes) and ``H`` (the H1(Omega) Gram matrix M + S over unknown nodes),
    both tridiagonal and held as (diagonal, off-diagonal) pairs, and,
    for Neumann runs, ``B_tilde`` (the form over all nodes),
    ``exterior_idx`` (the other nodes) and ``exterior_map`` which
    reconstructs exterior nodal values from the interior ones; all three
    are None on Dirichlet forms.  ``unknown_idx`` and ``n_unknowns`` are
    read-only values derived from ``unknowns``.  The offset table and the
    Omega mass weight of the assembly stay on the form for
    ``operator_at_omega_quad``.  ``_quad`` holds the Gauss rule of one
    element only: every element of the uniform mesh shares it.
    """

    def __init__(self, mesh, kernel, constraint, quad_order):
        check_constraint(constraint)
        check_quad_order(quad_order)
        self.mesh = mesh
        self.kernel = kernel
        self.constraint = constraint
        self.quad_order = quad_order
        self.kernel_mass = kernel.total_mass
        self._quad = _make_quadrature(mesh, quad_order)
        # (sigma, lam, V) of the last modal basis built
        self._basis = None
        self._assemble_common()

    # -- assembly -----------------------------------------------------------

    def _offset_table(self):
        """T[n_e - 1 + d, k, b] = int gamma(|x - y|) phi_b(y) dy over the
        element d places away from the one holding the Gauss point
        x = x_e + h rho_k, with phi_0, phi_1 that element's two hats, for
        d = 1 - n_e .. n_e - 1.

        The rule is the Gauss rule on the element, and on each of its two
        sides of x when d = 0.  Shape (2 n_e - 1, q, 2).
        """
        quad, h, n_e = self._quad, self.mesh.h, self.mesh.n_elements
        r, w = quad.ref_pts, quad.ref_wts
        # coordinates relative to the left node of x's element
        x = h * r[:, None]
        y = h * np.arange(1 - n_e, n_e)[:, None, None] + h * r
        T = self.kernel.gamma(np.abs(y - x)) * (h * w) @ quad.pb.T
        # x's own element: the Gauss rule on each side of x
        ys = np.concatenate([x * r, x + (h - x) * r], axis=1)
        gw = self.kernel.gamma(np.abs(x - ys)) * np.concatenate(
            [x * w, (h - x) * w], axis=1)
        T[n_e - 1] = np.stack([(gw * (1.0 - ys / h)).sum(axis=1),
                               (gw * ys / h).sum(axis=1)], axis=1)
        return T

    def _convolve(self, u_full):
        """int gamma(|x - y|) u(y) dy at the Gauss points x = x_e + h rho_k
        for every element e (rows) and every k (columns), u the P1 function
        with nodal values ``u_full``."""
        T, n_e = self._table, self.mesh.n_elements
        return np.stack([sum(np.convolve(T[::-1, k, b], u_full[b:b + n_e],
                                         "valid") for b in (0, 1))
                         for k in range(T.shape[1])], axis=1)

    def _assemble_common(self):
        quad, n_e = self._quad, self.mesh.n_elements
        self._table = T = self._offset_table()
        # A[n_e - 1 + d, a, b]: the (a, b) hat entry of the element pair
        # (e, e + d), the same for every e; row e of its Toeplitz matrix
        # holds the offsets -e .. n_e - 1 - e
        A = quad.wpb @ T
        # K holds -K: both constraints add a mass pair onto it in place
        K = np.zeros((self.mesh.n_nodes, self.mesh.n_nodes))
        for a in range(2):
            for b in range(2):
                K[a:a + n_e, b:b + n_e] -= np.lib.stride_tricks \
                    .sliding_window_view(A[:, a, b], n_e)[::-1]
        K = 0.5 * (K + K.T)

        lo, hi = self.mesh.interior_range
        dirichlet = self.constraint == "dirichlet"
        if dirichlet and (lo, hi) != (0, self.mesh.n_nodes - 1):
            raise ValueError("Dirichlet assembly expects the mesh to cover "
                             "exactly the physical domain")
        # Omega's nodes, less its two end nodes on a Dirichlet form
        self.unknowns = u = slice(1, hi) if dirichlet else slice(lo, hi + 1)
        off = slice(u.start, u.stop - 1)
        (m0, m1), (s0, s1) = fem.omega_norm_diagonals(self.mesh)
        self.M_uu = (m0[u], m1[off])
        self.H = (m0[u] + s0[u], m1[off] + s1[off])    # M + S
        if dirichlet:
            # Omega is the whole mesh here, so M_uu is the full mass matrix
            # over the unknowns; K is symmetric, so this B is, exactly
            self.B = fem.add_tridiagonal(K[u, u].copy(), self.kernel_mass,
                                         self.M_uu)
            self.B_tilde = self.exterior_map = self.exterior_idx = None
            self._mass = self.kernel_mass
        else:
            g = self._convolve(np.ones(self.mesh.n_nodes))
            self._assemble_neumann_reduction(g, K)
            self._mass = g[lo:hi]

    def _assemble_neumann_reduction(self, g, K):
        """B~ and its Schur reduction; g[e, k] = int_D gamma(|x - y|) dy at
        the k-th Gauss point x of element e, K the negated convolution
        matrix, which becomes B~."""
        mesh, quad = self.mesh, self._quad
        # the P1 mass weighted by g, symmetric tridiagonal, onto -K
        m = [[(quad.wpb[a] * quad.pb[b] * g).sum(axis=1) for b in range(2)]
             for a in range(2)]
        diag = np.zeros(mesh.n_nodes)
        diag[:-1] = m[0][0]
        diag[1:] += m[1][1]
        self.B_tilde = fem.add_tridiagonal(
            K, 1.0, (diag, 0.5 * (m[0][1] + m[1][0])))

        u = self.unknowns
        idx_ext = np.r_[0:u.start, u.stop:mesh.n_nodes]
        if idx_ext.size == 0:
            raise ValueError("Neumann assembly expects an extended mesh")
        margin = min(mesh.omega[0] - mesh.x_left, mesh.x_right - mesh.omega[1])
        r_cut = self.kernel.truncation_radius(1e-6)
        if margin < r_cut:
            warnings.warn(
                f"extension margin {margin:.3g} is below the kernel "
                f"truncation radius {r_cut:.3g}; exterior coupling is "
                f"truncated accordingly", ExtensionMarginWarning,
                stacklevel=_stacklevel_outside_package())

        # B~ is exactly symmetric: one row gather gives B_EE and B_EI, and
        # B_IE is B_EI transposed into a contiguous block, as gathered
        rows = self.B_tilde[idx_ext]
        L = _cholesky(rows[:, idx_ext], SingularExteriorBlock(
            "exterior block not positive definite; increase the "
            "extension or check the kernel sign"))
        B_EI = rows[:, u]
        ext_map = -_cho_solve(L, B_EI)
        if not np.all(np.isfinite(ext_map)):
            raise SingularExteriorBlock("exterior elimination produced "
                                        "non-finite values")
        B = self.B_tilde[u, u] + np.ascontiguousarray(B_EI.T) @ ext_map
        self.B = 0.5 * (B + B.T)
        self.exterior_map = ext_map
        self.exterior_idx = idx_ext

    # -- nodal-vector plumbing ----------------------------------------------

    @property
    def unknown_idx(self):
        return np.arange(self.unknowns.start, self.unknowns.stop)

    @property
    def n_unknowns(self):
        return self.unknowns.stop - self.unknowns.start

    def reduce(self, u):
        """Unknown-node values of a FeFunction, full or unknown vector."""
        return self.as_full(u)[self.unknowns].copy()

    def full_values(self, u_unknown):
        """Full nodal vector respecting the form's constraint."""
        full = np.zeros(self.mesh.n_nodes)
        full[self.unknowns] = u_unknown
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

    def omega_quad_weights(self):
        lo, hi = self.mesh.interior_range
        return np.tile(self.mesh.h * self._quad.ref_wts, hi - lo)

    def values_at_omega_quad(self, u):
        """P1 values at the domain Gauss points of a full nodal vector or
        of unknown-node values, as ``as_full`` takes them.

        The values read are Omega's nodes only.  A Neumann form's unknowns
        are exactly those, so unknown-node values are read as they are and
        no exterior value is formed; a Dirichlet form's are completed by
        its two zero end values.  Either way the bits are those of the
        full vector's call.
        """
        lo, hi = self.mesh.interior_range
        # the unknowns as a range of Omega's nodes 0 .. hi - lo
        start, stop = self.unknowns.start - lo, self.unknowns.stop - lo
        if np.shape(u) != (stop - start,):
            u = self.as_full(u)[lo:hi + 1]
        elif (start, stop) != (0, hi + 1 - lo):
            omega = np.zeros(hi + 1 - lo)
            omega[start:stop] = u
            u = omega
        phi0, phi1 = self._quad.pb
        # (q, elements): numpy's inner loops run along the elements
        return (phi0[:, None] * u[:-1] + phi1[:, None] * u[1:]).T.ravel()

    def load_vector(self, f_at_quad):
        """Unknown-node load vector int f(x) phi_i(x) dx over the domain."""
        # S[e, a]: f against hat a of the e-th Omega element, added onto
        # Omega's nodes lo .. hi, of which the unknowns are a range
        S = f_at_quad.reshape(-1, self.quad_order) @ self._quad.wpb.T
        out = np.zeros(S.shape[0] + 1)
        out[:-1] = S[:, 0]
        out[1:] += S[:, 1]
        lo = self.mesh.interior_range[0]
        return out[self.unknowns.start - lo:self.unknowns.stop - lo]

    # -- linear solves --------------------------------------------------------

    def grounding_shift(self, grounding_rel):
        """Mass-matrix shift used to remove the Neumann constant null mode.

        A Neumann form needs ``grounding_rel`` > 0: its B annihilates
        constants, so the ungrounded system is singular up to round-off.
        """
        if self.constraint != "neumann" or grounding_rel == 0.0:
            return 0.0
        return grounding_rel * np.trace(self.B) / self.M_uu[0].sum()

    def _grounded(self, sigma):
        """B + sigma M_uu, a new matrix unless sigma = 0."""
        if not sigma:
            return self.B
        return fem.add_tridiagonal(self.B.copy(), sigma, self.M_uu)

    def modal_basis(self, grounding_rel):
        """(sigma, lam, V) of the pencil (B + sigma M_uu, H).

        V^T H V = I and V^T (B + sigma M_uu) V = diag(lam), lam ascending, so
        (B + sigma M_uu + tau H)^-1 = V diag(1 / (lam + tau)) V^T for every
        tau >= 0.  Built on first use (one ``_eigh_pencil``) and cached for
        the last grounding asked for (sigma = 0 for Dirichlet forms).  A
        non-finite matrix raises ValueError; raises SingularSystem unless
        the grounded form is positive definite (lam > 0).
        """
        sigma = self.grounding_shift(grounding_rel)
        if self._basis is None or self._basis[0] != sigma:
            lam, V = _eigh_pencil(self._grounded(sigma), self.H,
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
        """Solve (B + sigma M_uu) x = rhs by Cholesky.

        sigma M_uu is the mass shift grounding the Neumann null mode.  Each
        call factors B + sigma M_uu afresh (the factor checks that it is
        positive definite) and keeps no factor.  ``rhs`` is a vector or a
        matrix of right-hand-side columns; a non-finite entry raises
        ValueError.
        """
        sigma = self.grounding_shift(grounding_rel)
        L = _cholesky(self._grounded(sigma), SingularSystem(
            "system not positive definite (grounding shift "
            f"{sigma:.3g})"))
        return _cho_solve(L, rhs)

    # -- the operator -L u --------------------------------------------------

    def operator_at_omega_quad(self, u_full):
        """(-L u)(x) = m(x) u(x) - int gamma(|x-y|) u(y) dy at every domain
        Gauss point x, for the full nodal vector ``u_full``.

        The convolution reads the assembly's offset table, so no kernel is
        evaluated.  m(x) is Gamma for Dirichlet forms (u is extended by
        zero) and for Neumann forms the local kernel mass g of the
        assembly, so that a Neumann constant gives zero to round-off.
        """
        lo, hi = self.mesh.interior_range
        u_x = self.values_at_omega_quad(u_full).reshape(hi - lo, -1)
        return (self._mass * u_x - self._convolve(u_full)[lo:hi]).ravel()

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


def _stacklevel_outside_package():
    """The ``stacklevel`` that makes a ``warnings.warn`` in the caller of
    this function name the first frame outside the package, however many
    package frames lie between (``skip_file_prefixes`` needs Python
    3.12)."""
    package = os.path.dirname(__file__) + os.sep
    frame, level = sys._getframe(1), 1
    while frame.f_back is not None \
            and frame.f_code.co_filename.startswith(package):
        frame, level = frame.f_back, level + 1
    return level


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
    """X with L X = B, or L^T X = B with ``transpose``, for dense
    lower-triangular L.

    Block forward substitution, ``_TRI_BLOCK`` rows at a time: a block
    subtracts the product of its rows of L with the rows of X already
    solved and then multiplies by the inverse of its diagonal block.
    L^T X = B is solved as the lower-triangular system J L^T J (J X) = J B,
    J reversing the order of the unknowns.  X is C-contiguous.
    """
    if transpose:
        rev = _solve_triangular(np.ascontiguousarray(L.T[::-1, ::-1]),
                                np.asarray(B)[::-1])
        return np.ascontiguousarray(rev[::-1])
    X = np.array(B, dtype=float)
    for k in range(0, L.shape[0], _TRI_BLOCK):
        rows = slice(k, k + _TRI_BLOCK)
        if k:
            X[rows] -= L[rows, :k] @ X[:k]
        X[rows] = np.linalg.inv(L[rows, rows]) @ X[rows]
    return X


def _bidiagonal_cholesky(T, failed):
    """(c, s): the diagonal and subdiagonal of the lower bidiagonal
    Cholesky factor L of the symmetric tridiagonal T = L L^T, given as
    its (diagonal, off-diagonal) pair (d, e).

    The recurrence c_0^2 = d_0, s_i = e_i / c_i, c_{i+1}^2 =
    d_{i+1} - s_i^2 costs O(n).  A T that is not positive definite (a
    pivot that is not positive, NaN included) raises ``failed``.
    """
    d, e = (a.tolist() for a in T)
    c, s = [0.0] * len(d), [0.0] * len(e)
    pivot = d[0]
    for i, e_i in enumerate(e):
        if not pivot > 0.0:
            raise failed
        c[i] = math.sqrt(pivot)
        s[i] = e_i / c[i]
        pivot = d[i + 1] - s[i] * s[i]
    if not pivot > 0.0:
        raise failed
    c[-1] = math.sqrt(pivot)
    return c, s


def _bidiagonal_solve(factor, B, transpose=False):
    """X with L X = B, or L^T X = B with ``transpose``, for the factor
    (c, s) of ``_bidiagonal_cholesky``.

    A two-term recurrence over the rows of X, in place: row i less s_{i-1}
    times row i - 1, divided by c_i, so O(n) per column of B.  L^T X = B
    is solved as J L^T J (J X) = J B, the lower bidiagonal system of the
    reversed rows.  X is C-contiguous.
    """
    c, s = factor
    B = np.asarray(B)
    if transpose:
        c, s, B = c[::-1], s[::-1], B[::-1]
    X = np.array(B, dtype=float, order="C")
    rows = iter(X.reshape(len(c), -1))      # views of the rows of X
    prev = next(rows)
    prev /= c[0]
    for row, s_i, c_i in zip(rows, s, c[1:]):
        row -= s_i * prev
        row /= c_i
        prev = row
    return np.ascontiguousarray(X[::-1]) if transpose else X


def _eigh_pencil(A, H, failed):
    """(lam, V) of the symmetric-definite pencil (A, H), lam ascending,
    for a dense A and the tridiagonal H given as its (diagonal,
    off-diagonal) pair.

    V^T H V = I and V^T A V = diag(lam), by the reduction to a standard
    eigenproblem (Golub & Van Loan, *Matrix Computations*, sec. 8.7):
    H = L L^T, the eigenpairs (lam, Y) of L^-1 A L^-T, and V = L^-T Y.  L
    is bidiagonal (``_bidiagonal_cholesky``, O(n)), so the three solves
    cost O(n^2) next to the O(n^3) ``eigh``.  A non-finite entry of A
    raises ValueError; an H that is not positive definite, or an
    eigensolver that fails, raises ``failed``.
    """
    A = _check_finite(A)
    L = _bidiagonal_cholesky(H, failed)
    try:
        lam, Y = np.linalg.eigh(
            _bidiagonal_solve(L, _bidiagonal_solve(L, A).T))
    except np.linalg.LinAlgError as exc:
        raise failed from exc
    return lam, _bidiagonal_solve(L, Y, transpose=True)


def _cho_solve(L, rhs):
    """x with L L^T x = rhs; a non-finite entry of rhs raises ValueError."""
    return _solve_triangular(L, _solve_triangular(L, _check_finite(rhs)),
                             transpose=True)


def check_constraint(constraint):
    """Raise ConfigError unless constraint is 'dirichlet' or 'neumann'."""
    if constraint not in ("dirichlet", "neumann"):
        raise ConfigError(f"constraint must be dirichlet or neumann, "
                          f"got {constraint!r}", key="constraint")


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
    patterns indexes the texts, so -0.0 and 0.0 keep their own text, and
    one %-format of all of them makes the texts, split at the newlines.
    Rows are converted to text one at a time, into one list of pieces
    (row, " j ", value) per entry whose column pieces are set once.
    """
    B = form.B
    m = B.shape[1]
    bits, idx = np.unique(B.view(np.int64), return_inverse=True)
    values = bits.view(float).tolist()
    text = np.array(("%.17g\n" * len(values) % tuple(values))
                    .splitlines(keepends=True), dtype=object)
    pieces = [""] * (3 * m)
    pieces[1::3] = [f" {j} " for j in range(m)]
    with open(path, "w") as fh:
        for i, keys in enumerate(idx.reshape(B.shape)):
            pieces[::3] = [str(i)] * m
            pieces[2::3] = text[keys].tolist()
            fh.write("".join(pieces))
