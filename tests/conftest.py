import math
import warnings

import numpy as np
import pytest

import nonlocalmp as nm
from nonlocalmp.errors import ExtensionMarginWarning

# reference convergence-table values (case 1 setup, coarsest mesh)
TABLE1 = {
    "h": [0.314, 0.157, 0.078, 0.039, 0.019],
    "n_dof": [20, 40, 80, 160, 320],
    "R_L1": [0.04657529, 0.03240179, 0.01940995, 0.01045204, 0.00550846],
    "R_L2": [0.04744037, 0.04681579, 0.03936870, 0.03033283, 0.02237211],
    "E_L1": [0.45900719, 0.27046985, 0.14647999, 0.07772337, 0.04053661],
    "E_L2": [0.26293927, 0.17679683, 0.11585964, 0.07708336, 0.05238792],
    "it": [14, 15, 19, 24, 32],
}

TABLE5 = {
    "h": [0.15, 0.075, 0.0375],
    "n_dof": [40, 80, 160],
    "R_L1": [0.29477230, 0.15175489, 0.03090516],
    "E_L1": [0.25616048, 0.12040370, 0.07688191],
}


# F = t^4/4 + t^6/6: two powers above 2, so t* has no closed form and
# g'(t)/t has degree 4
CUBIC_PLUS_QUINTIC = nm.Nonlinearity("cubic_plus_quintic",
                                     {4: 0.25, 6: 1.0 / 6.0})


def h_for(n):
    """Mesh size giving exactly n elements on (-pi, pi)."""
    return 2.0 * math.pi / n


@pytest.fixture(autouse=True)
def _quiet_extension_margin():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtensionMarginWarning)
        yield


@pytest.fixture(scope="session")
def case1_coarse():
    """Assembled case-1 setup at the coarsest table mesh (20 elements)."""
    mesh = nm.build_mesh(-math.pi, math.pi, h_for(20))
    form = nm.assemble_dirichlet(mesh, nm.Exponential(), 4)
    M, S = nm.omega_norm_matrices(mesh)
    u1 = nm.interpolate(mesh, math.sin, constraint="dirichlet")
    return mesh, form, M, S, u1


@pytest.fixture(scope="session")
def neumann_coarse():
    """Assembled case-5 setup at the coarsest table mesh (40 elements)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtensionMarginWarning)
        mesh = nm.build_extended_mesh((0.0, 3.0), 0.15, 1.5)
        form = nm.assemble_neumann(mesh, nm.Exponential(), 4)
    M, S = nm.omega_norm_matrices(mesh)
    u1 = nm.step_function(mesh, 1.0, 2.0)
    return mesh, form, M, S, u1


def dense(T):
    """The dense matrix of a symmetric tridiagonal matrix given as its
    (diagonal, off-diagonal) pair, like ``NonlocalForm.M_uu`` and ``H``."""
    d, e = T
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


def random_interior(form, rng, scale=1.0):
    """Random unknown-node vector as a constrained FeFunction."""
    vec = scale * rng.standard_normal(form.n_unknowns)
    return form.fe(vec)


def modal_direction_at(form, nl, w, cfg=None):
    """(b, v1, |b|_H1, g) at the iterate w (unknown-node values) from the
    descent's own ``modal_gradient`` and ``modal_direction``.

    g is the nodal gradient ``energy.gradient``; the modal gradient must
    equal V^T g within 1e-12 relative.  b = V (g^ / lam) is the Riesz
    representative of g, and v1 = V v^ the normalized descent direction.
    """
    mp = nm.mountain_pass
    cfg = cfg or mp.SolverConfig()
    basis = _, lam, V = form.modal_basis(cfg.grounding_rel)
    a = V.T @ nm.fem.tridiagonal_product(form.H, w)
    x = form.values_at_omega_quad(form.full_values(w))
    g_hat = mp.modal_gradient(form, nl, basis, lam * a,
                              nm.energy.power_table(x, max(nl.F_coeffs)))
    g = nm.energy.gradient(form, nl, w)
    ref = V.T @ g
    assert np.linalg.norm(g_hat - ref) <= 1e-12 * np.linalg.norm(ref)
    b_hat = g_hat / lam
    return (V @ b_hat, V @ mp.modal_direction(g_hat, lam, cfg.direction_reg),
            math.sqrt(b_hat @ b_hat), g)
