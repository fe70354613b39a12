"""Uniform 1D P1 finite-element infrastructure.

Meshes are uniform partitions of a computational interval.  For Neumann
runs the computational interval extends beyond the physical domain Omega;
the mesh records which nodes lie inside Omega, and Omega's endpoints
always coincide with mesh nodes.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInterval

__all__ = [
    "Mesh",
    "FeFunction",
    "build_mesh",
    "build_extended_mesh",
    "omega_norm_diagonals",
    "omega_norm_matrices",
    "tridiagonal_product",
    "add_tridiagonal",
    "interpolate",
    "reference_quadrature",
    "element_quadrature",
    "step_function",
    "write_function_csv",
    "read_function_csv",
]


@dataclass(frozen=True)
class Mesh:
    """Uniform P1 mesh, possibly extending beyond the physical domain."""

    x_left: float
    x_right: float
    h: float                       # actual spacing, (x_right-x_left)/n_elements
    nodes: np.ndarray
    n_elements: int
    omega: tuple                   # physical domain, endpoints are mesh nodes
    interior_range: tuple          # first/last node index inside omega (inclusive)

    @property
    def n_nodes(self):
        return self.nodes.size


@dataclass
class FeFunction:
    """Piecewise-linear function given by one nodal value per mesh node."""

    mesh: Mesh
    values: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.values is None:
            self.values = np.zeros(self.mesh.n_nodes)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.n_nodes,):
            raise ValueError("values length must equal the node count")

    def __call__(self, x):
        """Evaluate by linear interpolation; zero outside the mesh."""
        return np.interp(np.asarray(x, dtype=float), self.mesh.nodes,
                         self.values, left=0.0, right=0.0)


def build_mesh(x_left, x_right, h):
    """Uniform mesh on [x_left, x_right] with spacing as close to h as
    possible; the whole interval is the physical domain."""
    length = x_right - x_left
    if h <= 0 or length < 2.0 * h:
        raise DegenerateInterval(
            f"interval [{x_left}, {x_right}] too short for spacing {h}")
    n_elements = int(round(length / h))
    nodes = np.linspace(x_left, x_right, n_elements + 1)
    return Mesh(x_left, x_right, length / n_elements, nodes, n_elements,
                (nodes[0], nodes[-1]), (0, n_elements))


def build_extended_mesh(omega, h, extension):
    """Mesh covering omega plus a margin of at least ``extension`` on each side.

    The spacing is fitted to omega first so that omega's endpoints are nodes
    exactly; the margin is then a whole number of elements, at least one.
    """
    o_left, o_right = omega
    if h <= 0 or (o_right - o_left) < 2.0 * h:
        raise DegenerateInterval(
            f"domain [{o_left}, {o_right}] too short for spacing {h}")
    if extension <= 0:
        raise ValueError("extension must be positive")
    n_int = int(round((o_right - o_left) / h))
    h_actual = (o_right - o_left) / n_int
    n_ext = max(int(np.ceil(extension / h_actual - 1e-12)), 1)
    n_elements = n_int + 2 * n_ext
    x_left = o_left - n_ext * h_actual
    x_right = o_right + n_ext * h_actual
    nodes = x_left + h_actual * np.arange(n_elements + 1)
    return Mesh(x_left, x_right, h_actual, nodes, n_elements,
                (nodes[n_ext], nodes[n_ext + n_int]), (n_ext, n_ext + n_int))


def omega_norm_diagonals(mesh):
    """Mass and stiffness matrices over omega's elements only, as
    (diagonal, off-diagonal) pairs over all mesh nodes.

    Both matrices are tridiagonal; entry i of an off-diagonal couples
    nodes i and i + 1.  Entries of nodes outside omega are zero.
    """
    n = mesh.n_nodes
    lo, hi = mesh.interior_range
    e = np.arange(lo, hi)
    m_off = mesh.h / 6.0
    s_diag = 1.0 / mesh.h
    pairs = []
    for diag, off in ((2.0 * m_off, m_off), (s_diag, -s_diag)):
        d = np.zeros(n)
        d[e] += diag            # each element adds to both its nodes
        d[e + 1] += diag
        o = np.zeros(n - 1)
        o[e] = off
        pairs.append((d, o))
    return tuple(pairs)


def omega_norm_matrices(mesh):
    """Mass and stiffness matrices assembled over omega's elements only.

    Returned matrices are full-size (all mesh nodes), the dense form of
    :func:`omega_norm_diagonals`; rows and columns of nodes outside omega
    are zero.  Used for the L2(Omega) / H1(Omega) norms.
    """
    n = mesh.n_nodes
    return tuple(add_tridiagonal(np.zeros((n, n)), 1.0, T)
                 for T in omega_norm_diagonals(mesh))


def tridiagonal_product(T, x):
    """T x for the symmetric tridiagonal matrix T given as its
    (diagonal, off-diagonal) pair."""
    d, e = T
    y = d * x
    y[:-1] += e * x[1:]
    y[1:] += e * x[:-1]
    return y


def add_tridiagonal(A, scale, T):
    """A + scale T in place, for a dense square A and the symmetric
    tridiagonal T given as its (diagonal, off-diagonal) pair; returns A."""
    d, e = T
    i = np.arange(d.size)
    A[i, i] += scale * d
    A[i[:-1], i[1:]] += scale * e
    A[i[1:], i[:-1]] += scale * e
    return A


def interpolate(mesh, f, constraint=None):
    """Nodal interpolation of a scalar callable.

    With ``constraint='dirichlet'`` values at and outside the boundary of
    omega are forced to zero.
    """
    values = np.asarray([float(f(x)) for x in mesh.nodes])
    if not np.all(np.isfinite(values)):
        raise ValueError("function is not finite at every node")
    if constraint == "dirichlet":
        lo, hi = mesh.interior_range
        values[: lo + 1] = 0.0
        values[hi:] = 0.0
    return FeFunction(mesh, values)


def step_function(mesh, a, b):
    """Indicator of [a, b): 1 at nodes with a <= x < b, else 0."""
    values = np.where((mesh.nodes >= a) & (mesh.nodes < b), 1.0, 0.0)
    return FeFunction(mesh, values)


def reference_quadrature(order):
    """Gauss-Legendre points and weights of an ``order``-point rule on
    [0, 1]."""
    pts, wts = np.polynomial.legendre.leggauss(order)
    return 0.5 * (pts + 1.0), 0.5 * wts


def element_quadrature(mesh, order):
    """Gauss-Legendre points and weights on every element.

    Returns ``(X, W, ref_pts, ref_wts)`` where X and W have shape
    (n_elements, order) and the reference rule lives on [0, 1].
    """
    ref_pts, ref_wts = reference_quadrature(order)
    left = mesh.nodes[:-1][:, None]
    X = left + mesh.h * ref_pts[None, :]
    W = mesh.h * np.broadcast_to(ref_wts, X.shape).copy()
    return X, W, ref_pts, ref_wts


def write_function_csv(path, u):
    """Two-column CSV (node coordinate, value) with a one-line header."""
    with open(path, "w") as fh:
        fh.write("x,u\n")
        for x, v in zip(u.mesh.nodes, u.values):
            fh.write(f"{x:.17g},{v:.17g}\n")


def read_function_csv(path, mesh):
    """Read nodal values written by :func:`write_function_csv` onto ``mesh``.

    Raises ValueError unless the CSV has one row per node, with the two
    columns x,u, at the node's coordinate, and every value is finite.
    """
    with warnings.catch_warnings():
        # numpy warns of a file with no data rows; the row count says so
        warnings.simplefilter("ignore", UserWarning)
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[0] != mesh.n_nodes:
        raise ValueError(
            f"CSV has {data.shape[0]} rows but the mesh has {mesh.n_nodes} nodes")
    if data.shape[1] != 2:
        raise ValueError(f"CSV needs the two columns x,u, got {data.shape[1]}")
    if not np.allclose(data[:, 0], mesh.nodes, atol=1e-9 * max(mesh.h, 1.0)):
        raise ValueError("CSV node coordinates do not match the mesh")
    if not np.all(np.isfinite(data[:, 1])):
        raise ValueError("CSV values must be finite")
    return FeFunction(mesh, data[:, 1])
