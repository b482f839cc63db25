import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from mmdg.assembly import (
    _boundary_tangential_block,
    _interior_face_blocks,
    assemble_a_h,
    assemble_load,
    assemble_mode_source,
    assemble_oscillatory_load,
    assemble_standard,
)
from mmdg.dg_core import DGField, curl_vectors, gauss01, make_quadrature, ref_mass_12
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


@pytest.mark.parametrize("L, nnz", [(4, 19_008), (6, 68_256)])
def test_assembled_structure(L, nnz):
    # stored zeros would inflate the structural fill of the LU factors
    mesh = build_uniform_mesh(L)
    A = assemble_a_h(mesh, 2.0, 1.0, 10.0, 0.1)
    mat = A.matrix
    assert mat.format == "csc" and mat.has_canonical_format
    assert mat.nnz == nnz and np.count_nonzero(mat.data) == nnz
    assert ((A.s_part - 1j * A.p_part) != mat).nnz == 0
    B = assemble_standard(mesh, 2.0, 1.0, 10.0, 0.1, np.ones(mesh.n_cells))
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(B.matrix, attr), getattr(mat, attr))


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
# COO oracle: the earlier assembly path, which scattered every dense local
# block as (row, col, value) triplets into one list and let one
# duplicate-summing CSC conversion add them up
# ---------------------------------------------------------------------------

def coo_oracle(mesh, k, lam, gamma0, gamma1, alpha_sq):
    h = mesh.h
    quad = make_quadrature(2)
    mass = ref_mass_12() * mesh.cell_volume
    cv = curl_vectors(h)
    curlcurl = mesh.cell_volume * (cv @ cv.T)

    def cell_dofs(cells):
        return 12 * cells[:, None] + np.arange(12)[None, :]

    def triplets(dofs, blocks):
        nf, nd = dofs.shape
        return (np.repeat(dofs, nd, axis=1).ravel(), np.tile(dofs, (1, nd)).ravel(),
                np.broadcast_to(blocks, (nf, nd, nd)).ravel())

    vol = curlcurl[None] - (k * k) * alpha_sq[:, None, None] * mass[None]
    parts = [triplets(cell_dofs(np.arange(mesh.n_cells)), vol)]
    for axis in range(3):
        sel = mesh.iface_axis == axis
        flux, j0, j1 = _interior_face_blocks(axis, h, quad)
        pen = (gamma0 / h) * j0 + gamma1 * h * j1
        dofs = np.concatenate([cell_dofs(mesh.iface_owner[sel]),
                               cell_dofs(mesh.iface_neighbor[sel])], axis=1)
        parts.append(triplets(dofs, flux - 1j * pen))
    for axis in range(3):
        for side in (0, 1):
            sel = (mesh.bface_axis == axis) & (mesh.bface_side == side)
            blk = k * lam * _boundary_tangential_block(axis, side, h, quad)
            parts.append(triplets(cell_dofs(mesh.bface_cell[sel]), -1j * blk))
    rows, cols, data = (np.concatenate(p) for p in zip(*parts))
    n = 12 * mesh.n_cells
    A = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsc()
    A.eliminate_zeros()
    return A


@pytest.mark.parametrize("L", [3, 4])
def test_block_assembly_matches_coo_oracle(L):
    mesh = build_uniform_mesh(L)
    alpha = 1.0 + 0.3 * np.random.default_rng(L).uniform(-1, 1, mesh.n_cells)
    for A, alpha_sq in (
        (assemble_a_h(mesh, 2.0, 1.0, 10.0, 0.1), np.ones(mesh.n_cells)),
        (assemble_standard(mesh, 2.0, 1.0, 10.0, 0.1, alpha), alpha ** 2),
    ):
        ref = coo_oracle(mesh, 2.0, 1.0, 10.0, 0.1, alpha_sq)
        assert np.array_equal(A.matrix.indptr, ref.indptr)
        assert np.array_equal(A.matrix.indices, ref.indices)
        assert np.abs(A.matrix.data - ref.data).max() <= 1e-15 * np.abs(ref.data).max()


@pytest.mark.parametrize("L", [3, 6])
def test_assembled_matrix_exactly_symmetric(L):
    # A is complex symmetric (not Hermitian): every local block is, and the
    # assembly must add the (i, j) and (j, i) contributions in one order
    mesh = build_uniform_mesh(L)
    alpha = 1.0 + 0.3 * np.random.default_rng(L).uniform(-1, 1, mesh.n_cells)
    for A in (assemble_a_h(mesh, 2.0, 1.0, 10.0, 0.1),
              assemble_standard(mesh, 2.0, 1.0, 10.0, 0.1, alpha)):
        assert (A.matrix != A.matrix.T).nnz == 0


def test_assembly_peak_memory_bounded_by_matrix_size():
    # the block path keeps no triplet list: its peak stays within a small
    # multiple of the finished CSC arrays
    mesh = build_uniform_mesh(6)
    assemble_a_h(mesh, 2.0, 1.0, 10.0, 0.1)  # warm up imports and caches
    tracemalloc.start()
    try:
        A = assemble_a_h(mesh, 2.0, 1.0, 10.0, 0.1).matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * (A.data.nbytes + A.indices.nbytes + A.indptr.nbytes)


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
