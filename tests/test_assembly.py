import numpy as np
import pytest

from mmdg.assembly import (
    assemble_a_h,
    assemble_load,
    assemble_mode_source,
    assemble_oscillatory_load,
    assemble_standard,
)
from mmdg.dg_core import DGField, gauss01
from mmdg.mesh import build_uniform_mesh


# ---------------------------------------------------------------------------
# independent dense oracle: assemble the sesquilinear form entry by entry
# from the definitions, with its own basis evaluation and quadrature
# ---------------------------------------------------------------------------

def oracle_dense_matrix(mesh, k, lam, gamma0, gamma1, alpha_sq=None, q=3):
    h = mesh.h
    n = 12 * mesh.n_cells

    def basis_value(cell, dof, x):
        comp, mono = divmod(dof, 4)
        local = (np.asarray(x) - mesh.cell_lower(cell)) / h
        val = 1.0 if mono == 0 else local[mono - 1]
        out = np.zeros(3)
        out[comp] = val
        return out

    def basis_curl(cell, dof):
        comp, mono = divmod(dof, 4)
        grad = np.zeros(3)
        if mono > 0:
            grad[mono - 1] = 1.0 / h
        e = np.zeros(3)
        e[comp] = 1.0
        return np.cross(grad, e)

    gx, gw = gauss01(q)
    S = np.zeros((n, n))
    P = np.zeros((n, n))

    # volume: curl-curl - k^2 alpha^2 mass
    for cell in range(mesh.n_cells):
        a2 = 1.0 if alpha_sq is None else alpha_sq[cell]
        lo = mesh.cell_lower(cell)
        for i in range(12):
            gi = 12 * cell + i
            ci = basis_curl(cell, i)
            for j in range(12):
                gj = 12 * cell + j
                cj = basis_curl(cell, j)
                val = 0.0
                for ax, wx in zip(gx, gw):
                    for ay, wy in zip(gx, gw):
                        for az, wz in zip(gx, gw):
                            x = lo + h * np.array([ax, ay, az])
                            w = wx * wy * wz * h ** 3
                            val += w * (ci @ cj
                                        - k * k * a2 * basis_value(cell, j, x)
                                        @ basis_value(cell, i, x))
                S[gi, gj] += val

    def face_points(cell_low, axis, coord, t0, t1):
        x = np.empty(3)
        x[axis] = coord
        tang = [a for a in range(3) if a != axis]
        x[tang[0]] = cell_low[tang[0]] + h * t0
        x[tang[1]] = cell_low[tang[1]] + h * t1
        return x

    def tangential(v, axis):
        out = v.copy()
        out[axis] = 0.0
        return out

    # interior faces
    for f in range(mesh.n_interior_faces):
        own = int(mesh.iface_owner[f])
        nb = int(mesh.iface_neighbor[f])
        axis = int(mesh.iface_axis[f])
        nu = mesh.iface_normal[f]
        coord = mesh.cell_lower(own)[axis]
        members = [(own, 1.0), (nb, -1.0)]
        for (ci, si) in members:
            for (cj, sj) in members:
                for i in range(12):
                    gi = 12 * ci + i
                    curl_i = basis_curl(ci, i)
                    for j in range(12):
                        gj = 12 * cj + j
                        curl_j = basis_curl(cj, j)
                        flux = 0.0
                        j0 = 0.0
                        for t0, w0 in zip(gx, gw):
                            for t1, w1 in zip(gx, gw):
                                x = face_points(mesh.cell_lower(own), axis,
                                                coord, t0, t1)
                                w = w0 * w1 * h * h
                                jt_j = sj * tangential(basis_value(cj, j, x), axis)
                                jt_i = si * tangential(basis_value(ci, i, x), axis)
                                avg_cxn_j = 0.5 * np.cross(curl_j, nu)
                                avg_cxn_i = 0.5 * np.cross(curl_i, nu)
                                flux += -w * (avg_cxn_j @ jt_i + jt_j @ avg_cxn_i)
                                j0 += w * (gamma0 / h) * (jt_j @ jt_i)
                        S[gi, gj] += flux
                        P[gi, gj] += j0
                        jc_j = sj * np.cross(curl_j, nu)
                        jc_i = si * np.cross(curl_i, nu)
                        P[gi, gj] += gamma1 * h * h * h * (jc_j @ jc_i)

    # boundary tangential mass
    for f in range(mesh.n_boundary_faces):
        cell = int(mesh.bface_cell[f])
        axis = int(mesh.bface_axis[f])
        side = int(mesh.bface_side[f])
        coord = mesh.cell_lower(cell)[axis] + h * side
        for i in range(12):
            gi = 12 * cell + i
            for j in range(12):
                gj = 12 * cell + j
                val = 0.0
                for t0, w0 in zip(gx, gw):
                    for t1, w1 in zip(gx, gw):
                        x = face_points(mesh.cell_lower(cell), axis, coord, t0, t1)
                        w = w0 * w1 * h * h
                        val += w * (tangential(basis_value(cell, j, x), axis)
                                    @ tangential(basis_value(cell, i, x), axis))
                P[gi, gj] += k * lam * val
    return S - 1j * P


def test_matches_independent_dense_oracle_L1():
    mesh = build_uniform_mesh(1)
    A = assemble_a_h(mesh, 2.0, 1.0, 10.0, 0.1)
    oracle = oracle_dense_matrix(mesh, 2.0, 1.0, 10.0, 0.1)
    assert np.abs(A.matrix.toarray() - oracle).max() < 1e-12


def test_matches_independent_dense_oracle_L2():
    mesh = build_uniform_mesh(2)
    A = assemble_a_h(mesh, 2.0, 1.5, 10.0, 0.1)
    oracle = oracle_dense_matrix(mesh, 2.0, 1.5, 10.0, 0.1)
    assert np.abs(A.matrix.toarray() - oracle).max() < 1e-12


def test_standard_matches_oracle_with_coefficient():
    mesh = build_uniform_mesh(2)
    rng = np.random.default_rng(2)
    alpha = 1.0 + 0.3 * rng.uniform(-1, 1, mesh.n_cells)
    A = assemble_standard(mesh, 2.0, 1.0, 10.0, 0.1, alpha)
    oracle = oracle_dense_matrix(mesh, 2.0, 1.0, 10.0, 0.1, alpha_sq=alpha ** 2)
    assert np.abs(A.matrix.toarray() - oracle).max() < 1e-12


def test_single_cell_analytic_diagonal():
    # constant component-1 basis on the unit cube, gamma0 = gamma1 = 0:
    # curl term zero, mass gives -k^2, and the field is tangential on the
    # 4 unit faces with normals +-e2, +-e3 -> boundary term -i k lam * 4
    mesh = build_uniform_mesh(1)
    k, lam = 2.0, 1.0
    A = assemble_a_h(mesh, k, lam, 0.0, 0.0)
    assert A.matrix[0, 0] == pytest.approx(-k * k - 4j * k * lam, abs=1e-13)


def test_single_cell_standard_analytic_diagonal():
    mesh = build_uniform_mesh(1)
    k, lam = 2.0, 1.0
    alpha = np.array([1.1])
    A = assemble_standard(mesh, k, lam, 0.0, 0.0, alpha)
    assert A.matrix[0, 0] == pytest.approx(-k * k * 1.1 ** 2 - 4j * k * lam,
                                           abs=1e-13)


def test_deterministic_independent_of_global_rng():
    mesh = build_uniform_mesh(2)
    np.random.seed(1)
    h1 = assemble_a_h(mesh, 2.0, 1.0, 10.0, 0.1).content_hash()
    np.random.seed(999)
    h2 = assemble_a_h(mesh, 2.0, 1.0, 10.0, 0.1).content_hash()
    assert h1 == h2


def test_hermitian_split_and_psd():
    mesh = build_uniform_mesh(2)
    A = assemble_a_h(mesh, 2.0, 1.0, 10.0, 0.1)
    Ad = A.matrix.toarray()
    S = 0.5 * (Ad + Ad.conj().T)
    P = 0.5j * (Ad - Ad.conj().T)
    assert np.abs(S - A.s_part.toarray()).max() < 1e-13
    assert np.abs(P - A.p_part.toarray()).max() < 1e-13
    w = np.linalg.eigvalsh(A.p_part.toarray())
    assert w.min() >= -1e-10 * np.abs(w).max()


def test_alpha_one_equals_deterministic_assembly():
    mesh = build_uniform_mesh(2)
    A0 = assemble_a_h(mesh, 2.0, 1.0, 10.0, 0.1)
    A1 = assemble_standard(mesh, 2.0, 1.0, 10.0, 0.1, np.ones(mesh.n_cells))
    assert np.abs((A0.matrix - A1.matrix)).max() <= 1e-14


def test_alpha_two_scales_mass_only():
    mesh = build_uniform_mesh(2)
    k = 2.0
    A1 = assemble_standard(mesh, k, 1.0, 10.0, 0.1, np.ones(mesh.n_cells))
    A2 = assemble_standard(mesh, k, 1.0, 10.0, 0.1, 2.0 * np.ones(mesh.n_cells))
    # mass part = (A(alpha=1) - A(alpha=0)) in the S component; verify
    # A2 - A1 equals 3x the alpha=1 mass contribution
    A0 = assemble_standard(mesh, k, 1.0, 10.0, 0.1, np.zeros(mesh.n_cells))
    mass_part = (A1.matrix - A0.matrix).toarray()
    assert np.abs((A2.matrix - A1.matrix).toarray() - 3.0 * mass_part).max() < 1e-12


def test_sample_length_mismatch_rejected():
    mesh = build_uniform_mesh(2)
    with pytest.raises(ValueError):
        assemble_standard(mesh, 2.0, 1.0, 10.0, 0.1, np.ones(3))


def test_invalid_parameters_rejected():
    mesh = build_uniform_mesh(1)
    with pytest.raises(ValueError):
        assemble_a_h(mesh, 0.0, 1.0, 10.0, 0.1)
    with pytest.raises(ValueError):
        assemble_a_h(mesh, 2.0, -1.0, 10.0, 0.1)
    with pytest.raises(ValueError):
        assemble_a_h(mesh, 2.0, 1.0, -1.0, 0.1)


# ---------------------------------------------------------------------------
# loads
# ---------------------------------------------------------------------------

def test_constant_load_moments():
    mesh = build_uniform_mesh(1)
    b = assemble_load(mesh, lambda p: np.tile([1.0, 0.0, 0.0], (len(p), 1)))
    assert np.allclose(b[:4].real, [1.0, 0.5, 0.5, 0.5], atol=1e-13)
    assert np.allclose(b[4:], 0.0, atol=1e-14)


def test_zero_load():
    mesh = build_uniform_mesh(2)
    b = assemble_load(mesh, lambda p: np.zeros((len(p), 3)))
    assert np.all(b == 0)


def test_oscillatory_load_quadrature_refinement():
    # q_f = 4 must agree with a q_f = 8 reference to 1e-6 relative
    mesh = build_uniform_mesh(2)
    xi = np.zeros(mesh.n_cells)
    b4 = assemble_oscillatory_load(mesh, xi, 2.0, q_f=4)
    b8 = assemble_oscillatory_load(mesh, xi, 2.0, q_f=8)
    assert np.linalg.norm(b4 - b8) <= 1e-6 * np.linalg.norm(b8)


def test_oscillatory_load_matches_generic_path():
    mesh = build_uniform_mesh(2)
    rng = np.random.default_rng(7)
    xi = rng.uniform(-1, 1, mesh.n_cells)
    k = 2.0
    b = assemble_oscillatory_load(mesh, xi, k, q_f=4)

    lowers = mesh.cell_lower(np.arange(mesh.n_cells))

    def f(pts):
        # recover the owning cell of each quadrature point by position
        idx = np.clip((pts // mesh.h).astype(int), 0, mesh.L - 1)
        cells = (idx[:, 0] * mesh.L + idx[:, 1]) * mesh.L + idx[:, 2]
        kk = k * (1.0 + xi[cells])
        return np.exp(1j * kk[:, None] * pts)

    b_ref = assemble_load(mesh, f, q_f=4)
    assert np.allclose(b, b_ref, atol=1e-13)


def test_polynomial_load_refinement_oracle():
    # polynomial integrands are exact already at q=2; refinement to q=4
    # must agree to 1e-12 relative
    mesh = build_uniform_mesh(2)

    def f(pts):
        out = np.zeros((len(pts), 3), dtype=complex)
        out[:, 0] = pts[:, 0] * pts[:, 1]
        out[:, 1] = 1.0 - pts[:, 2]
        out[:, 2] = pts[:, 0] ** 2
        return out

    b2 = assemble_load(mesh, f, q_f=2)
    b4 = assemble_load(mesh, f, q_f=4)
    assert np.linalg.norm(b2 - b4) <= 1e-12 * np.linalg.norm(b4)


# ---------------------------------------------------------------------------
# recursive mode sources
# ---------------------------------------------------------------------------

def test_mode_source_zero_fields():
    mesh = build_uniform_mesh(2)
    z = DGField.zeros(mesh)
    b = assemble_mode_source(mesh, 2.0, np.ones(mesh.n_cells), z, z)
    assert np.all(b == 0)


def test_mode_source_constant_field():
    # eta = 1, E_prev = (1,0,0), E_prev2 = 0, L=1, k=2:
    # source = 2k^2 * (1,0,0) -> component-1 entries 8 * (1, 1/2, 1/2, 1/2)
    mesh = build_uniform_mesh(1)
    e_prev = DGField.constant(mesh, [1, 0, 0])
    z = DGField.zeros(mesh)
    b = assemble_mode_source(mesh, 2.0, np.ones(1), e_prev, z)
    assert np.allclose(b[:4].real, 8.0 * np.array([1, 0.5, 0.5, 0.5]), atol=1e-13)
    assert np.allclose(b[4:], 0.0, atol=1e-14)


def test_mode_source_eta_scaling():
    mesh = build_uniform_mesh(2)
    rng = np.random.default_rng(4)
    eta = rng.uniform(0.1, 1.0, mesh.n_cells)
    u = DGField(mesh, rng.normal(size=12 * mesh.n_cells).astype(complex))
    v = DGField(mesh, rng.normal(size=12 * mesh.n_cells).astype(complex))
    z = DGField.zeros(mesh)
    b_u = assemble_mode_source(mesh, 2.0, eta, u, z)
    b_v = assemble_mode_source(mesh, 2.0, eta, z, v)
    b_u2 = assemble_mode_source(mesh, 2.0, 2 * eta, u, z)
    b_v2 = assemble_mode_source(mesh, 2.0, 2 * eta, z, v)
    # doubling eta doubles the E_prev contribution ...
    assert np.allclose(b_u2, 2.0 * b_u, rtol=1e-13)
    # ... and quadruples the E_prev2 contribution
    assert np.allclose(b_v2, 4.0 * b_v, rtol=1e-13)


def test_mode_source_against_generic_quadrature():
    mesh = build_uniform_mesh(2)
    rng = np.random.default_rng(5)
    eta = rng.uniform(-1, 1, mesh.n_cells)
    u = DGField(mesh, rng.normal(size=12 * mesh.n_cells)
                + 1j * rng.normal(size=12 * mesh.n_cells))
    v = DGField(mesh, rng.normal(size=12 * mesh.n_cells).astype(complex))
    k = 2.0
    b = assemble_mode_source(mesh, k, eta, u, v)

    from mmdg.dg_core import eval_field

    def f(pts):
        idx = np.clip((pts // mesh.h).astype(int), 0, mesh.L - 1)
        cells = (idx[:, 0] * mesh.L + idx[:, 1]) * mesh.L + idx[:, 2]
        out = np.zeros((len(pts), 3), dtype=complex)
        for n, (c, x) in enumerate(zip(cells, pts)):
            out[n] = (2 * k * k * eta[c] * eval_field(u, int(c), x)
                      + k * k * eta[c] ** 2 * eval_field(v, int(c), x))
        return out

    b_ref = assemble_load(mesh, f, q_f=3)
    assert np.allclose(b, b_ref, atol=1e-11)


def test_mode_source_mesh_mismatch():
    m1 = build_uniform_mesh(1)
    m2 = build_uniform_mesh(2)
    with pytest.raises(ValueError):
        assemble_mode_source(m1, 2.0, np.ones(1), DGField.zeros(m2),
                             DGField.zeros(m2))


def test_mode_source_block_matches_single_samples():
    mesh = build_uniform_mesh(2)
    rng = np.random.default_rng(6)
    n, B = 12 * mesh.n_cells, 3
    eta = rng.uniform(-1, 1, (mesh.n_cells, B))
    u = rng.normal(size=(n, B)) + 1j * rng.normal(size=(n, B))
    v = rng.normal(size=(n, B)) + 1j * rng.normal(size=(n, B))
    b = assemble_mode_source(mesh, 2.0, eta, u, v)
    assert b.shape == (n, B)
    for s in range(B):
        ref = assemble_mode_source(mesh, 2.0, eta[:, s], DGField(mesh, u[:, s]),
                                   DGField(mesh, v[:, s]))
        assert np.allclose(b[:, s], ref, rtol=1e-14, atol=1e-14)
    with pytest.raises(ValueError):
        assemble_mode_source(mesh, 2.0, eta, u[:, :2], v)
    with pytest.raises(ValueError):
        assemble_mode_source(mesh, 2.0, eta[..., None], u, v)


def test_oscillatory_load_block_matches_single_samples():
    mesh = build_uniform_mesh(2)
    rng = np.random.default_rng(8)
    B = 3
    xi = rng.uniform(-1, 1, (mesh.n_cells, B))
    b = assemble_oscillatory_load(mesh, xi, 2.0, q_f=4)
    assert b.shape == (12 * mesh.n_cells, B)
    for s in range(B):
        ref = assemble_oscillatory_load(mesh, xi[:, s], 2.0, q_f=4)
        assert np.allclose(b[:, s], ref, rtol=1e-14, atol=1e-14)


def test_oscillatory_load_bad_shapes_rejected():
    mesh = build_uniform_mesh(2)
    with pytest.raises(ValueError):
        assemble_oscillatory_load(mesh, np.zeros(mesh.n_cells + 1), 2.0)
    with pytest.raises(ValueError):
        assemble_oscillatory_load(mesh, np.zeros((mesh.n_cells, 2, 2)), 2.0)


def test_export_coo(tmp_path):
    mesh = build_uniform_mesh(1)
    A = assemble_a_h(mesh, 2.0, 1.0, 10.0, 0.1)
    path = tmp_path / "matrix.txt"
    A.export_coo(path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("% 12 12")
    assert len(lines) == 1 + A.matrix.nnz
