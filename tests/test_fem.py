import math

import numpy as np
import pytest

import nonlocalmp as nm
from nonlocalmp import fem
from nonlocalmp.errors import DegenerateInterval
from oracles import element_loop_norm_matrices


def test_build_mesh_case1_sizes():
    mesh = nm.build_mesh(-math.pi, math.pi, 0.314)
    assert mesh.n_elements == 20
    assert mesh.n_nodes == 21
    assert mesh.h == pytest.approx(2.0 * math.pi / 20)


def test_build_mesh_tiny():
    mesh = nm.build_mesh(0.0, 1.0, 0.5)
    np.testing.assert_allclose(mesh.nodes, [0.0, 0.5, 1.0])


def test_extended_mesh_neumann_case():
    mesh = nm.build_extended_mesh((0.0, 3.0), 0.15, 1.5)
    assert mesh.n_elements == 40
    assert mesh.x_left == pytest.approx(-1.5)
    assert mesh.x_right == pytest.approx(4.5)
    lo, hi = mesh.interior_range
    assert mesh.nodes[lo] == pytest.approx(0.0)
    assert mesh.nodes[hi] == pytest.approx(3.0)


@pytest.mark.parametrize("extension", [1e-14, 0.5])
def test_extended_mesh_keeps_one_exterior_element(extension):
    # a margin below one element, down to round-off, still gets a whole
    # element on each side: the margin is at least the extension asked for
    mesh = nm.build_extended_mesh((0.0, 3.0), 0.5, extension)
    assert mesh.n_elements == 8
    assert mesh.interior_range == (1, 7)
    assert mesh.x_left == -0.5 and mesh.x_right == 3.5
    assert mesh.omega == (0.0, 3.0)


def test_degenerate_interval():
    with pytest.raises(DegenerateInterval):
        nm.build_mesh(0.0, 1.0, 0.9)


def test_mass_matrix_rows():
    mesh = nm.build_mesh(0.0, 3.0, 0.5)
    M, _ = nm.omega_norm_matrices(mesh)
    h = mesh.h
    i = 3
    np.testing.assert_allclose(M[i, i - 1:i + 2], [h / 6, 2 * h / 3, h / 6])
    assert M[0, 0] == pytest.approx(h / 3)
    # row sums integrate the partition of unity
    assert M.sum() == pytest.approx(3.0)
    ones = np.ones(mesh.n_nodes)
    assert ones @ M @ ones == pytest.approx(3.0)


def test_stiffness_matrix_identities():
    mesh = nm.build_mesh(0.0, 1.0, 0.1)
    _, S = nm.omega_norm_matrices(mesh)
    u = mesh.nodes.copy()                      # u(x) = x
    assert u @ S @ u == pytest.approx(1.0)
    c = np.full(mesh.n_nodes, 2.5)
    assert c @ S @ c == pytest.approx(0.0, abs=1e-12)
    hat = np.zeros(mesh.n_nodes)
    hat[4] = 1.0
    assert hat @ S @ hat == pytest.approx(2.0 / mesh.h)


def test_matrices_positive_semidefinite():
    mesh = nm.build_mesh(-1.0, 2.0, 0.25)
    M, S = nm.omega_norm_matrices(mesh)
    assert np.min(np.linalg.eigvalsh(M)) > 0.0
    assert np.min(np.linalg.eigvalsh(S)) > -1e-12


@pytest.mark.parametrize("mesh", [
    nm.build_mesh(-math.pi, math.pi, 2 * math.pi / 640),
    nm.build_mesh(0.0, 3.0, 0.15),
    nm.build_extended_mesh((0.0, 3.0), 0.075, 1.5),
], ids=["dirichlet640", "dirichlet_h0.15", "neumann_h0.075"])
def test_omega_norm_matrices_equal_element_loop(mesh):
    M, S = nm.omega_norm_matrices(mesh)
    M_ref, S_ref = element_loop_norm_matrices(mesh)
    assert np.array_equal(M, M_ref) and np.array_equal(S, S_ref)


def test_tridiagonal_helpers_match_dense_matrices():
    # the product with a (diagonal, off-diagonal) pair and its scaled sum
    # onto a dense matrix, against the dense matrices of the same pairs
    mesh = nm.build_extended_mesh((0.0, 3.0), 0.25, 1.5)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(mesh.n_nodes)
    A = rng.standard_normal((mesh.n_nodes, mesh.n_nodes))
    for T, mat in zip(fem.omega_norm_diagonals(mesh),
                      nm.omega_norm_matrices(mesh)):
        ref = mat @ x
        np.testing.assert_allclose(fem.tridiagonal_product(T, x), ref,
                                   rtol=0.0,
                                   atol=1e-14 * np.abs(mat).max()
                                   * np.abs(x).max())
        assert np.array_equal(fem.add_tridiagonal(A.copy(), 0.5, T),
                              A + 0.5 * mat)


def test_interpolate_dirichlet_endpoints():
    mesh = nm.build_mesh(-math.pi, math.pi, 2 * math.pi / 20)
    u = nm.interpolate(mesh, math.sin, constraint="dirichlet")
    assert u.values[0] == 0.0 and u.values[-1] == 0.0
    assert u.values[5] == pytest.approx(math.sin(mesh.nodes[5]))


def test_step_function_half_open():
    mesh = nm.build_extended_mesh((0.0, 3.0), 0.25, 1.5)
    u = nm.step_function(mesh, 1.0, 2.0)
    inside = (mesh.nodes >= 1.0) & (mesh.nodes < 2.0)
    np.testing.assert_allclose(u.values[inside], 1.0)
    np.testing.assert_allclose(u.values[~inside], 0.0)


def test_interpolate_constant():
    mesh = nm.build_mesh(0.0, 2.0, 0.2)
    u = nm.interpolate(mesh, lambda x: 1.0)
    np.testing.assert_allclose(u.values, 1.0)


def test_norms_linear_exact():
    # int_0^1 x^2 = 1/3 and int_0^1 1 = 1; P1 is exact for linear data
    mesh = nm.build_mesh(0.0, 1.0, 0.05)
    M, S = nm.omega_norm_matrices(mesh)
    u = mesh.nodes
    assert u @ M @ u == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert u @ S @ u == pytest.approx(1.0, rel=1e-12)


def test_omega_norms_ignore_exterior():
    mesh = nm.build_extended_mesh((0.0, 3.0), 0.25, 1.0)
    M, S = nm.omega_norm_matrices(mesh)
    u = np.zeros(mesh.n_nodes)
    u[: mesh.interior_range[0]] = 7.0          # exterior-only data
    assert u @ M @ u == 0.0 and u @ S @ u == 0.0


def test_interpolant_l2_converges_second_order():
    # u^T M u -> int sin^2 = pi at rate h^2
    target = math.pi
    errs = []
    for n in (40, 80, 160):
        mesh = nm.build_mesh(-math.pi, math.pi, 2 * math.pi / n)
        M, _ = nm.omega_norm_matrices(mesh)
        u = nm.interpolate(mesh, math.sin)
        errs.append(abs(u.values @ M @ u.values - target))
    r1 = errs[0] / errs[1]
    r2 = errs[1] / errs[2]
    assert 3.0 < r1 < 5.0
    assert 3.0 < r2 < 5.0


def test_function_csv_roundtrip(tmp_path):
    mesh = nm.build_mesh(0.0, 1.0, 0.125)
    u = nm.interpolate(mesh, lambda x: x * (1 - x))
    path = tmp_path / "u.csv"
    fem.write_function_csv(path, u)
    header = path.read_text().splitlines()[0]
    assert header == "x,u"
    v = fem.read_function_csv(path, mesh)
    np.testing.assert_allclose(v.values, u.values, atol=1e-15)


def test_function_csv_needs_two_columns(tmp_path):
    mesh = nm.build_mesh(0.0, 1.0, 0.125)
    path = tmp_path / "x.csv"
    path.write_text("x\n" + "".join(f"{x!r}\n" for x in mesh.nodes.tolist()))
    with pytest.raises(ValueError, match="two columns x,u, got 1"):
        fem.read_function_csv(path, mesh)
