import inspect
import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import linalg

import nonlocalmp as nm
from nonlocalmp import assembly, fem
from nonlocalmp import energy as en
from nonlocalmp.errors import (ConfigError, ExtensionMarginWarning,
                               SingularExteriorBlock, SingularSystem)
from nonlocalmp.mountain_pass import SolverConfig
from oracles import (brute_force_quadratic_form, dense_convolution,
                     gathered_omega_quad, per_entry_dump)

from conftest import dense, h_for


def test_symmetry_all_kernels():
    # exact: the Dirichlet B is not symmetrized after K, so this pins it
    mesh = nm.build_mesh(-math.pi, math.pi, h_for(40))
    for kernel in nm.builtin_kernels().values():
        form = nm.assemble_dirichlet(mesh, kernel)
        assert np.array_equal(form.B, form.B.T)


def _rel_err(a, b):
    return np.max(np.abs(np.asarray(a) - b)) / np.max(np.abs(b))


def dense_k(mesh, kernel, order):
    """The convolution matrix K of the dense oracle, (P W)^T C symmetrized."""
    C, P, W = dense_convolution(mesh, kernel, order)
    K = (P * W[:, None]).T @ C
    return 0.5 * (K + K.T)


def test_dirichlet_identity_mass_minus_convolution(case1_coarse):
    mesh, form, M, S, u1 = case1_coarse
    inner = np.ix_(form.unknown_idx, form.unknown_idx)
    K_ref = dense_k(mesh, form.kernel, form.quad_order)
    assert _rel_err(form.B, (form.kernel_mass * M - K_ref)[inner]) <= 1e-13


def test_single_hat_diagonal_positive():
    mesh = nm.build_mesh(-math.pi, math.pi, h_for(20))
    for kernel in nm.builtin_kernels().values():
        form = nm.assemble_dirichlet(mesh, kernel)
        hat = np.zeros(form.n_unknowns)
        hat[form.n_unknowns // 2] = 1.0
        value = hat @ form.B @ hat
        assert value > 0.0
        i = form.unknown_idx[form.n_unknowns // 2]
        K_ref = dense_k(mesh, kernel, form.quad_order)
        expected = form.kernel_mass * 2 * mesh.h / 3 - K_ref[i, i]
        assert value == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("n", [20, 40])
def test_dirichlet_positive_definite_all_kernels(n):
    mesh = nm.build_mesh(-math.pi, math.pi, h_for(n))
    for name, kernel in nm.builtin_kernels().items():
        form = nm.assemble_dirichlet(mesh, kernel)
        assert np.min(np.linalg.eigvalsh(form.B)) > 0.0, name


@pytest.mark.parametrize("kernel", [nm.Exponential(), nm.Gaussian()])
def test_quadratic_form_matches_brute_force(kernel):
    mesh = nm.build_mesh(-math.pi, math.pi, h_for(80))
    form = nm.assemble_dirichlet(mesh, kernel, 4)
    u = nm.interpolate(mesh, math.sin, constraint="dirichlet")
    uu = form.reduce(u)
    assembled = float(uu @ form.B @ uu)
    oracle = brute_force_quadratic_form(u, kernel, n=4000)
    assert assembled == pytest.approx(oracle, rel=1e-4)


def test_quad_order_convergence():
    mesh = nm.build_mesh(-math.pi, math.pi, h_for(20))
    kernel = nm.Exponential()
    u = nm.interpolate(mesh, math.sin, constraint="dirichlet")
    vals = {}
    for order in (2, 3, 4, 6):
        form = nm.assemble_dirichlet(mesh, kernel, order)
        uu = form.reduce(u)
        vals[order] = float(uu @ form.B @ uu)
    assert abs(vals[4] - vals[6]) < abs(vals[2] - vals[6])
    assert abs(vals[4] - vals[6]) <= 1e-8 * abs(vals[6])


def test_operator_at_omega_quad_zero(case1_coarse):
    mesh, form, M, S, u1 = case1_coarse
    assert np.all(form.operator_at_omega_quad(np.zeros(mesh.n_nodes)) == 0.0)


def test_operator_indicator_tail():
    # all-ones data on (0,3) with zero extension: the operator value at x
    # is the exterior mass of the kernel, (exp(-x) + exp(-(3-x)))/2 for
    # this one
    mesh = nm.build_mesh(0.0, 3.0, 0.075)
    form = nm.assemble_dirichlet(mesh, nm.Exponential())
    x = fem.element_quadrature(mesh, form.quad_order)[0].ravel()
    vals = form.operator_at_omega_quad(np.ones(mesh.n_nodes))
    np.testing.assert_allclose(vals, 0.5 * (np.exp(-x) + np.exp(x - 3.0)),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("setup", ["case1_coarse", "neumann_coarse"])
def test_operator_evaluates_no_kernel(setup, request, monkeypatch):
    # -L u reads the offset table and mass weight kept by assembly
    mesh, form, M, S, u1 = request.getfixturevalue(setup)
    calls = []
    gamma = type(form.kernel).gamma

    def counted(self, r):
        calls.append(np.size(r))
        return gamma(self, r)

    monkeypatch.setattr(type(form.kernel), "gamma", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtensionMarginWarning)
        fresh = assembly.NonlocalForm(mesh, form.kernel, form.constraint,
                                      form.quad_order)
    assert calls
    calls.clear()
    for f in (form, fresh):
        f.operator_at_omega_quad(u1.values)
    assert calls == []


def test_greens_identity_consistency():
    # Gauss-point operator values converge to the L2 projection of -Lu
    # onto the full P1 space (coefficients M^{-1}(Gamma M - K)u) at second
    # order, measured in the Gauss-weighted L2 norm
    kernel = nm.Exponential()
    errs = []
    for n in (40, 80):
        mesh = nm.build_mesh(-math.pi, math.pi, h_for(n))
        form = nm.assemble_dirichlet(mesh, kernel)
        u = nm.interpolate(mesh, math.sin, constraint="dirichlet")
        M_full, _ = nm.omega_norm_matrices(mesh)
        K_ref = dense_k(mesh, kernel, form.quad_order)
        weak = form.kernel_mass * (M_full @ u.values) - K_ref @ u.values
        proj = np.linalg.solve(M_full, weak)
        diff = form.operator_at_omega_quad(u.values) \
            - form.values_at_omega_quad(proj)
        errs.append(float(np.sqrt(form.omega_quad_weights() @ diff**2)))
    assert 2.5 < errs[0] / errs[1] < 6.0


def test_neumann_annihilates_constants(neumann_coarse):
    mesh, form, M, S, u1 = neumann_coarse
    ones = np.ones(mesh.n_nodes)
    assert abs(ones @ form.B_tilde @ ones) <= 1e-12
    assert np.max(np.abs(form.B_tilde @ ones)) <= 1e-8 * np.max(np.abs(form.B_tilde))
    ext = form.exterior_map @ np.ones(form.n_unknowns)
    np.testing.assert_allclose(ext, 1.0, atol=1e-12)


def test_neumann_operator_on_constant(neumann_coarse):
    mesh, form, M, S, u1 = neumann_coarse
    vals = form.operator_at_omega_quad(np.ones(mesh.n_nodes))
    assert np.max(np.abs(vals)) <= 1e-14


def test_neumann_spectrum_null_plus_positive(neumann_coarse):
    mesh, form, M, S, u1 = neumann_coarse
    ev = np.linalg.eigvalsh(form.B)
    assert abs(ev[0]) <= 1e-10 * max(abs(ev[-1]), 1.0)
    assert ev[1] > 0.0


def test_neumann_schur_constraint_residual(neumann_coarse):
    mesh, form, M, S, u1 = neumann_coarse
    rng = np.random.default_rng(7)
    u_full = form.full_values(rng.standard_normal(form.n_unknowns))
    raw, rel = form.exterior_constraint_residual(u_full)
    assert rel <= 1e-10


def test_neumann_table_dof():
    mesh = nm.build_extended_mesh((0.0, 3.0), 0.15, 1.5)
    assert mesh.n_elements == 40


def test_dump_matrix(tmp_path, case1_coarse):
    mesh, form, M, S, u1 = case1_coarse
    path = tmp_path / "B.txt"
    assembly.dump_matrix(path, form)
    rows = path.read_text().splitlines()
    assert len(rows) == form.n_unknowns ** 2
    i, j, v = rows[0].split()
    assert (int(i), int(j)) == (0, 0)
    assert float(v) == pytest.approx(form.B[0, 0])


# -0.0 and 0.0, repeated values, subnormals and an asymmetric pair
HAND_BUILT_B = np.array([
    [-0.0, 0.0, 1.0 / 3.0, 5e-324],
    [0.0, -0.0, 1.0 / 3.0, 2.5e-310],
    [-1.0 / 3.0, 1.0 / 3.0, 1e300, -5e-324],
    [5e-324, 0.1, 0.1 + 2.0**-56, -0.0],
])


@pytest.fixture
def hand_built():
    return None, SimpleNamespace(B=HAND_BUILT_B)


@pytest.mark.parametrize("setup",
                         ["case1_coarse", "neumann_coarse", "hand_built"])
def test_dump_matrix_bytes_match_per_entry_writer(setup, request, tmp_path):
    form = request.getfixturevalue(setup)[1]
    assembly.dump_matrix(tmp_path / "B.txt", form)
    per_entry_dump(tmp_path / "ref.txt", form.B)
    assert (tmp_path / "B.txt").read_bytes() \
        == (tmp_path / "ref.txt").read_bytes()


@pytest.mark.parametrize("setup", ["case1_coarse", "neumann_coarse"])
def test_solve_spd_equals_cho_solve(setup, request):
    # the solve on its own grounded factor gives the bits of the
    # package's Cholesky solve on a fresh factor of the same matrix, and
    # agrees with scipy's cho_solve, for one right-hand side and for
    # several columns
    form = request.getfixturevalue(setup)[1]
    grounding_rel = 1e-4
    sigma = form.grounding_shift(grounding_rel)
    mat = form.B
    if sigma:
        mat = mat + sigma * dense(form.M_uu)
    L = assembly._cholesky(mat, AssertionError("not positive definite"))
    oracle = linalg.cho_factor(mat)
    rng = np.random.default_rng(8)
    for rhs in (rng.standard_normal(form.n_unknowns),
                rng.standard_normal((form.n_unknowns, 3))):
        x = form.solve_spd(rhs, grounding_rel)
        assert x.shape == rhs.shape
        assert np.array_equal(x, assembly._cho_solve(L, rhs))
        ref = linalg.cho_solve(oracle, rhs)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_solve_spd_rejects_non_finite_rhs(case1_coarse, bad):
    form = case1_coarse[1]
    rhs = np.ones(form.n_unknowns)
    rhs[3] = bad
    with pytest.raises(ValueError):
        form.solve_spd(rhs, SolverConfig.grounding_rel)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_matrix_raises_value_error(case1_coarse, bad):
    # the modal basis and the Cholesky solve check the matrix they factor
    mesh = case1_coarse[0]
    for build in ("modal_basis", "solve_spd"):
        form = nm.assemble_dirichlet(mesh, nm.Exponential())
        form.B = form.B.copy()
        form.B[2, 3] = bad
        args = (np.ones(form.n_unknowns),) if build == "solve_spd" else ()
        with pytest.raises(ValueError, match="infs or NaNs"):
            getattr(form, build)(*args, SolverConfig.grounding_rel)


def test_negative_kernel_has_singular_exterior_block():
    class NegatedExponential(nm.Exponential):
        def gamma(self, r):
            return -super().gamma(r)

    mesh = nm.build_extended_mesh((0.0, 3.0), 0.3, 1.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtensionMarginWarning)
        with pytest.raises(SingularExteriorBlock, match="not positive"):
            nm.assemble_neumann(mesh, NegatedExponential())


def test_neumann_form_needs_grounding(neumann_coarse):
    # B of a Neumann form annihilates constants: ungrounded, its smallest
    # modal eigenvalue is round-off of either sign, and grounded by the
    # default shift it is that shift.  So neither the basis nor the solve
    # has a default grounding
    form = neumann_coarse[1]
    for method in (form.modal_basis, form.solve_spd):
        assert inspect.signature(method).parameters["grounding_rel"].default \
            is inspect.Parameter.empty
    lam0, _ = assembly._eigh_pencil(form.B, form.H,
                                    AssertionError("pencil failed"))
    assert abs(lam0[0]) <= 1e-12 * lam0[-1]
    sigma, lam, _ = form.modal_basis(SolverConfig.grounding_rel)
    assert lam[0] == pytest.approx(sigma, rel=1e-9)


def test_bidiagonal_factor_of_the_h1_gram(neumann_coarse):
    # L L^T = H to round-off, the two solves invert L and L^T, and a
    # tridiagonal matrix that is not positive definite raises
    form = neumann_coarse[1]
    c, s = assembly._bidiagonal_cholesky(form.H, AssertionError("failed"))
    L = np.diag(c) + np.diag(s, -1)
    H = dense(form.H)
    np.testing.assert_allclose(L @ L.T, H, rtol=0.0,
                               atol=1e-14 * np.abs(H).max())
    B = np.random.default_rng(9).standard_normal((form.n_unknowns, 3))
    for transpose, mat in ((False, L), (True, L.T)):
        for rhs in (B, B[:, 0]):
            X = assembly._bidiagonal_solve((c, s), rhs, transpose)
            assert X.shape == rhs.shape and X.flags.c_contiguous
            np.testing.assert_allclose(mat @ X, rhs, rtol=0.0,
                                       atol=1e-12 * np.abs(B).max())
    d, e = form.H
    with pytest.raises(SingularSystem):
        assembly._bidiagonal_cholesky((d, 10.0 * e), SingularSystem("H"))


def test_extension_margin_warning():
    import warnings
    from nonlocalmp.errors import ExtensionMarginWarning

    mesh = nm.build_extended_mesh((0.0, 3.0), 0.25, 1.5)
    with pytest.warns(ExtensionMarginWarning) as record:
        nm.assemble_neumann(mesh, nm.Exponential())
    # reported where assemble_neumann was called, not inside the package
    assert [w.filename for w in record] == [__file__]


def test_extension_margin_warning_from_direct_form():
    # a form built without assemble_neumann has one package frame less
    # between the caller and the warning; it still names the caller
    mesh = nm.build_extended_mesh((0.0, 3.0), 0.25, 1.5)
    with pytest.warns(ExtensionMarginWarning) as record:
        assembly.NonlocalForm(mesh, nm.Exponential(), "neumann",
                              assembly.QUAD_ORDER)
    assert [w.filename for w in record] == [__file__]


@pytest.mark.parametrize("mesh,constraint", [
    (nm.build_extended_mesh((0.0, 3.0), 0.25, 1.5), "dirichelt"),
    (nm.build_mesh(-math.pi, math.pi, h_for(20)), "Dirichlet"),
])
def test_unknown_constraint_is_a_config_error(mesh, constraint):
    with pytest.raises(ConfigError, match="constraint must be dirichlet or "
                                          "neumann") as info:
        assembly.NonlocalForm(mesh, nm.Exponential(), constraint,
                              assembly.QUAD_ORDER)
    assert info.value.key == "constraint"


@pytest.mark.parametrize("setup", ["case1_coarse", "neumann_coarse"])
def test_local_basis_matches_dense_reference(setup, request):
    mesh, form, M, S, u1 = request.getfixturevalue(setup)
    C, P, W = dense_convolution(mesh, form.kernel, form.quad_order)
    lo, hi = mesh.interior_range
    om = slice(lo * form.quad_order, hi * form.quad_order)
    rng = np.random.default_rng(3)
    u = form.full_values(rng.standard_normal(form.n_unknowns))
    f = rng.standard_normal(om.stop - om.start)

    K = (P * W[:, None]).T @ C
    K = 0.5 * (K + K.T)
    if form.constraint == "dirichlet":
        ref = (form.kernel_mass * M - K)[np.ix_(form.unknown_idx,
                                                form.unknown_idx)]
        assert _rel_err(form.B, ref) <= 1e-13
    else:
        # the P1 mass weighted by the local kernel mass g = C 1
        W_ref = (P * (W * C.sum(axis=1))[:, None]).T @ P
        ref = W_ref - K
        assert _rel_err(form.B_tilde, 0.5 * (ref + ref.T)) <= 1e-13
    assert _rel_err(form.values_at_omega_quad(u), P[om] @ u) <= 1e-13
    load = (P[om] * W[om, None]).T[form.unknown_idx] @ f
    assert _rel_err(form.load_vector(f), load) <= 1e-13
    m = form.kernel_mass if form.constraint == "dirichlet" \
        else C[om].sum(axis=1)
    op = m * (P[om] @ u) - C[om] @ u
    assert _rel_err(form.operator_at_omega_quad(u), op) <= 1e-13


@pytest.mark.parametrize("setup", ["case1_coarse", "neumann_coarse"])
def test_omega_quad_values_of_unknowns_match_full_vector(setup, request,
                                                         monkeypatch):
    # unknown-node values give the bits of their full nodal vector; a
    # Neumann form reads them as they are, forming no exterior value
    mesh, form, M, S, u1 = request.getfixturevalue(setup)
    u = np.random.default_rng(9).standard_normal(form.n_unknowns)
    full = form.values_at_omega_quad(form.full_values(u))
    if form.constraint == "neumann":
        monkeypatch.setattr(form, "exterior_map", None)
    assert np.array_equal(form.values_at_omega_quad(u), full)


@pytest.mark.parametrize("setup", ["case1_coarse", "neumann_coarse"])
def test_omega_ranges_match_gathered_indices(setup, request):
    # Omega and the unknowns are node ranges: reading them through slices
    # gives the bits of gathering them through index arrays
    mesh, form, M, S, u1 = request.getfixturevalue(setup)
    rng = np.random.default_rng(5)
    u = form.full_values(rng.standard_normal(form.n_unknowns))
    f = rng.standard_normal(form.omega_quad_weights().size)
    values, weights, load = gathered_omega_quad(form, u, f)
    assert np.array_equal(form.values_at_omega_quad(u), values)
    assert np.array_equal(form.omega_quad_weights(), weights)
    assert np.array_equal(form.load_vector(f), load)
    assert np.array_equal(form.reduce(u), u[form.unknown_idx])
    if form.constraint == "dirichlet":
        assert form.exterior_idx is None
    else:
        assert np.array_equal(np.sort(np.r_[form.unknown_idx,
                                            form.exterior_idx]),
                              np.arange(mesh.n_nodes))


@pytest.mark.parametrize("setup", ["case1_coarse", "neumann_coarse"])
def test_no_array_grows_as_points_times_nodes(setup, request):
    mesh, form, M, S, u1 = request.getfixturevalue(setup)
    limit = mesh.n_elements * form.quad_order * mesh.n_nodes
    owned = list(vars(form).values()) + list(vars(form._quad).values())
    arrays = [a for a in owned if isinstance(a, np.ndarray)]
    assert arrays and max(a.size for a in arrays) < limit


def _owned_arrays(form):
    """The arrays a form owns, counted as the benchmark's form size counts
    them (attributes of the form and of its quadrature, views excluded),
    plus the members of its tuples."""
    owned = list(vars(form).values()) + list(vars(form._quad).values())
    owned += [a for t in owned if isinstance(t, tuple) for a in t]
    return [a for a in owned if isinstance(a, np.ndarray) and a.base is None]


@pytest.mark.parametrize("constraint", ["dirichlet", "neumann"])
def test_form_keeps_only_the_node_matrices_it_reads(constraint):
    # K is a temporary of the assembly, the mass and H1 Gram matrices are
    # (diagonal, off-diagonal) pairs with the entries of the dense ones,
    # and the reference resolve keeps no factor: B, and B~ for a Neumann
    # form, are the only node-count matrices a form owns, and a resolve
    # leaves its owned bytes as they are
    if constraint == "dirichlet":
        mesh = nm.build_mesh(-math.pi, math.pi, h_for(20))
    else:
        mesh = nm.build_extended_mesh((0.0, 3.0), 0.3, 1.5)
    form = assembly.NonlocalForm(mesh, nm.Exponential(), constraint,
                                 assembly.QUAD_ORDER)
    matrices = [a for a in _owned_arrays(form) if a.ndim == 2
                and a.shape[0] == a.shape[1] >= form.n_unknowns]
    assert len(matrices) == (1 if constraint == "dirichlet" else 2)
    assert all(a is form.B or a is form.B_tilde for a in matrices)
    M, S = nm.omega_norm_matrices(mesh)
    uu = form.unknowns
    assert np.array_equal(dense(form.M_uu), M[uu, uu])
    assert np.array_equal(dense(form.H), M[uu, uu] + S[uu, uu])
    owned = sum(a.nbytes for a in _owned_arrays(form))
    u = form.fe(np.ones(form.n_unknowns))
    nm.reference_errors(form, M, en.NONLINEARITIES["cubic"], u,
                        SolverConfig.grounding_rel)
    assert sum(a.nbytes for a in _owned_arrays(form)) == owned


@pytest.mark.parametrize("constraint", ["dirichlet", "neumann"])
def test_traced_peak_stays_below_dense_node_matrices(constraint):
    # 641 nodes either way: assembly holds a few dense node matrices at a
    # time and -L u at the Gauss points less than one; a kernel block of
    # (Gauss points x nodes) or (Gauss points x Gauss points) exceeds both
    if constraint == "dirichlet":
        mesh = nm.build_mesh(-math.pi, math.pi, h_for(640))
    else:
        mesh = nm.build_extended_mesh((0.0, 3.0), 3 / 320, 1.5)
    matrix = 8 * mesh.n_nodes ** 2
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ExtensionMarginWarning)
            form = assembly.NonlocalForm(mesh, nm.Exponential(), constraint,
                                         assembly.QUAD_ORDER)
        assembly_peak = tracemalloc.get_traced_memory()[1]
        u = form.full_values(np.ones(form.n_unknowns))
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        form.operator_at_omega_quad(u)
        operator_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # M and S are never dense and B~ is built in K's own buffer, so at
    # most K and its symmetrization, or B~, its exterior rows and B, are
    # alive at a time: 2.27 and 2.59 matrices when this bound was set
    assert assembly_peak < 3 * matrix
    assert operator_peak < matrix
