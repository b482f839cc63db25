import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmdg.assembly import assemble_a_h
from mmdg.dg_core import (
    CENTRE,
    MONOMIAL_GRADS,
    REF_CENTRED_MASS,
    REF_MONOMIAL_MASS,
    DGField,
    _penalty_quadratic,
    all_curls,
    curl_vectors,
    dg_norm,
    eval_field,
    l2_norm,
    make_quadrature,
    monomial_values,
    ref_mass_12,
)
from mmdg.mesh import build_uniform_mesh
from test_mesh import brute_force_faces


def linear_field(mesh, fn):
    """Project a globally linear vector function onto the broken space by
    writing its exact local monomial coefficients."""
    coeffs = np.zeros(12 * mesh.n_cells, dtype=np.complex128)
    for cell in range(mesh.n_cells):
        lo = mesh.cell_lower(cell)
        h = mesh.h
        # fn(x) = a + B x; local x = lo + h*xhat
        a = np.asarray(fn(lo), dtype=np.complex128)
        B = np.column_stack([
            np.asarray(fn(lo + h * e)) - a for e in np.eye(3)
        ])
        for c in range(3):
            coeffs[12 * cell + 4 * c] = a[c]
            coeffs[12 * cell + 4 * c + 1 : 12 * cell + 4 * c + 4] = B[c]
    return DGField(mesh, coeffs)


def test_constant_reproduction():
    m = build_uniform_mesh(2)
    f = DGField.constant(m, [1.0, 0.0, 0.0])
    for cell in (0, 3, 7):
        assert np.allclose(eval_field(f, cell, m.cell_centers[cell]), [1, 0, 0])


def test_single_monomial_eval():
    m = build_uniform_mesh(1)
    c = np.zeros(12, dtype=complex)
    c[4 * 1 + 1] = 1.0  # component 2 (index 1), local x monomial
    f = DGField(m, c)
    assert np.allclose(eval_field(f, 0, [0.5, 0.3, 0.9]), [0, 0.5, 0])


def test_eval_against_symbolic_expansion():
    rng = np.random.default_rng(0)
    m = build_uniform_mesh(2)
    c = rng.normal(size=12 * m.n_cells) + 1j * rng.normal(size=12 * m.n_cells)
    f = DGField(m, c)
    for _ in range(10):
        cell = rng.integers(m.n_cells)
        local = rng.uniform(0, 1, 3)
        x = m.cell_lower(cell) + m.h * local
        # independent evaluation straight from the definition
        expected = np.zeros(3, dtype=complex)
        for comp in range(3):
            mono = [1.0, local[0], local[1], local[2]]
            expected[comp] = sum(
                c[12 * cell + 4 * comp + mm] * mono[mm] for mm in range(4)
            )
        assert np.allclose(eval_field(f, cell, x), expected, atol=1e-14)


def test_eval_out_of_range_cell():
    m = build_uniform_mesh(1)
    f = DGField.zeros(m)
    with pytest.raises(IndexError):
        eval_field(f, 5, [0.5, 0.5, 0.5])


def test_curl_hand_computed_cases():
    m = build_uniform_mesh(1)
    # F = (0, 0, x) -> curl = (0, -1, 0)
    f = linear_field(m, lambda x: [0.0, 0.0, x[0]])
    assert np.allclose(all_curls(f)[0], [0, -1, 0], atol=1e-14)
    # constant -> zero curl
    g = DGField.constant(m, [3.0, -1.0, 2.0])
    assert np.allclose(all_curls(g)[0], [0, 0, 0])
    # F = (y, z, x) -> curl = (-1, -1, -1)
    p = linear_field(m, lambda x: [x[1], x[2], x[0]])
    assert np.allclose(all_curls(p)[0], [-1, -1, -1], atol=1e-14)


def test_curl_chain_rule_factor():
    # F = (0, 0, x) on a fine mesh still has curl (0, -1, 0): the 1/h
    # factor must cancel the local-coordinate scaling
    m = build_uniform_mesh(4)
    f = linear_field(m, lambda x: [0.0, 0.0, x[0]])
    for cell in range(m.n_cells):
        assert np.allclose(all_curls(f)[cell], [0, -1, 0], atol=1e-13)


@pytest.mark.parametrize("L", [1, 3, 6, 7])
def test_curl_vectors_match_per_basis_loop(L):
    # reference: curl(phi e_c) = grad(phi) x e_c, one basis function at a time
    h = 1.0 / L
    ref = np.array([np.cross(MONOMIAL_GRADS[m] / h, np.eye(3)[c])
                    for c in range(3) for m in range(4)])
    assert curl_vectors(h).tobytes() == ref.tobytes()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(-3, 3), st.floats(-3, 3))
def test_curl_linearity(seed, a, b):
    m = build_uniform_mesh(2)
    rng = np.random.default_rng(seed)
    u = DGField(m, rng.normal(size=12 * m.n_cells).astype(complex))
    v = DGField(m, rng.normal(size=12 * m.n_cells).astype(complex))
    w = DGField(m, a * u.coeffs + b * v.coeffs)
    assert np.allclose(all_curls(w), a * all_curls(u) + b * all_curls(v),
                       atol=1e-12)


@pytest.mark.parametrize("L", [1, 3, 6])
def test_l2_norm_matches_the_mass_quadratic_form(L):
    # reference: sum over cells of c^H M c, one cell at a time
    mesh = build_uniform_mesh(L)
    rng = np.random.default_rng(L)
    f = DGField(mesh, rng.normal(size=12 * mesh.n_cells)
                + 1j * rng.normal(size=12 * mesh.n_cells))
    M = ref_mass_12() * mesh.cell_volume
    ref = np.sqrt(sum(np.vdot(c, M @ c).real for c in f.cellwise()))
    assert abs(l2_norm(f) - ref) <= 1e-14 * ref


def test_l2_norm_constant_and_indicator():
    m = build_uniform_mesh(2)
    f = DGField.constant(m, [1, 0, 0])
    assert l2_norm(f) == pytest.approx(1.0, abs=1e-14)
    c = np.zeros(12 * m.n_cells, dtype=complex)
    c[0] = 1.0  # (1,0,0) on cell 0 only
    g = DGField(m, c)
    assert l2_norm(g) == pytest.approx(np.sqrt(1 / 8), abs=1e-14)


def test_constant_field_seminorm_zero():
    m = build_uniform_mesh(2)
    f = DGField.constant(m, [1, 0, 0])
    # the DG norm of a constant is its L2 norm: no curl, no jumps
    assert dg_norm(f, 10.0, 0.1) ** 2 - l2_norm(f) ** 2 == pytest.approx(
        0.0, abs=1e-13)


def test_indicator_j0_against_face_by_face_oracle():
    # field = (1,0,0) on one cell, zero elsewhere; J0 with gamma0=1,
    # gamma1=0 computed against direct face integration
    m = build_uniform_mesh(2)
    cell = 0
    c = np.zeros(12 * m.n_cells, dtype=complex)
    c[12 * cell] = 1.0
    f = DGField(m, c)
    # oracle: for each interior face touching the cell, the tangential
    # jump is the constant (1,0,0) with its normal component dropped;
    # integral of |jump_T|^2 over the face is area * (0 or 1)
    expected = 0.0
    for own, nb, axis in brute_force_faces(m.L)[0]:
        if cell in (own, nb):
            jt_sq = 0.0 if axis == 0 else 1.0  # component 1 dropped on x-faces
            expected += (1.0 / m.h) * m.h ** 2 * jt_sq
    got = dg_norm(f, 1.0, 0.0) ** 2 - l2_norm(f) ** 2  # curl of constant = 0
    assert got == pytest.approx(expected, rel=1e-12)


def trace_penalty_oracle(field, gamma0, gamma1):
    """J0(v,v) and J1(v,v) integrated from pointwise traces: the tangential
    jump of the two cell traces at the face Gauss points, and the jump of
    the cellwise curls crossed with the face normal."""
    quad = make_quadrature(2)
    mesh = field.mesh
    h = mesh.h
    cw = field.cellwise()
    curls = all_curls(field)
    interior = np.array(brute_force_faces(mesh.L)[0],
                        dtype=np.int64).reshape(-1, 3)
    j0 = j1 = 0.0
    for axis in range(3):
        own, nb, _ = interior[interior[:, 2] == axis].T
        tang = [a for a in range(3) if a != axis]

        def traces(cells, side):
            # tangential trace on the local face at `side` along `axis`
            pts = np.empty((len(quad.face_points), 3))
            pts[:, axis] = side
            pts[:, tang[0]] = quad.face_points[:, 0]
            pts[:, tang[1]] = quad.face_points[:, 1]
            vals = np.einsum("ncm,qm->nqc", cw[cells].reshape(-1, 3, 4),
                             monomial_values(pts))
            vals[:, :, axis] = 0.0
            return vals

        # the owner sees the face at local coordinate 0, the neighbor at 1
        jt = traces(own, 0.0) - traces(nb, 1.0)
        j0 += (gamma0 / h) * h ** 2 * float(
            np.einsum("q,nqc,nqc->", quad.face_weights, jt.conj(), jt).real)
        nu = np.zeros(3)
        nu[axis] = -1.0
        jc = np.cross(curls[own] - curls[nb], nu)
        j1 += gamma1 * h * h ** 2 * float(np.sum((jc.conj() * jc).real))
    return j0, j1


@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_penalty_quadratic_matches_trace_oracle(L):
    m = build_uniform_mesh(L)
    rng = np.random.default_rng(L)
    f = DGField(m, rng.normal(size=12 * m.n_cells)
                + 1j * rng.normal(size=12 * m.n_cells))
    got = _penalty_quadratic(f, 10.0, 0.1)
    ref = trace_penalty_oracle(f, 10.0, 0.1)
    for g, r in zip(got, ref):
        assert abs(g - r) <= 1e-13 * abs(r)
    if L > 1:
        assert min(ref) > 0


def test_penalty_quadratic_is_the_matrix_penalty():
    # v^H (P(gamma0, gamma1) - P(0, 0)) v = J0(v,v) + J1(v,v): the norm's
    # penalty terms are the interior penalty part of A = S - iP
    m = build_uniform_mesh(3)
    rng = np.random.default_rng(7)
    v = rng.normal(size=12 * m.n_cells) + 1j * rng.normal(size=12 * m.n_cells)
    P = assemble_a_h(m, 2.0, 1.0, 10.0, 0.1).p_part
    P0 = assemble_a_h(m, 2.0, 1.0, 0.0, 0.0).p_part
    quad_form = (v.conj() @ ((P - P0) @ v)).real
    j0, j1 = _penalty_quadratic(DGField(m, v), 10.0, 0.1)
    assert quad_form == pytest.approx(j0 + j1, rel=1e-13)


def test_continuous_linear_field_penalties_vanish():
    m = build_uniform_mesh(3)
    f = linear_field(m, lambda x: [x[1] - 2 * x[2], 1 + x[0], x[2]])
    scale = dg_norm(f, 1.0, 1.0)
    # J0 = J1 = 0, so seminorm reduces to the curl energy
    curls = all_curls(f)
    curl_sq = m.cell_volume * np.sum(np.abs(curls) ** 2)
    assert dg_norm(f, 1.0, 1.0) ** 2 - l2_norm(f) ** 2 == pytest.approx(
        curl_sq, rel=1e-12, abs=1e-12 * scale)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_dg_norm_dominates_l2(seed):
    m = build_uniform_mesh(2)
    rng = np.random.default_rng(seed)
    f = DGField(m, (rng.normal(size=12 * m.n_cells)
                    + 1j * rng.normal(size=12 * m.n_cells)))
    assert dg_norm(f, 10.0, 0.1) >= l2_norm(f) - 1e-12


def test_negative_penalties_rejected():
    m = build_uniform_mesh(1)
    f = DGField.zeros(m)
    with pytest.raises(ValueError):
        dg_norm(f, -1.0, 0.0)


def test_quadrature_weights_and_exactness():
    quad = make_quadrature(2)
    assert quad.cell_weights.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.all(quad.cell_weights > 0)
    # q=2 integrates monomial products up to degree 3 per axis exactly;
    # oracle: closed-form integral of x^a y^b z^c over the unit cube
    for (a, b, c) in [(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 1),
                      (3, 3, 3), (2, 2, 2)]:
        exact = 1.0 / ((a + 1) * (b + 1) * (c + 1))
        p = quad.cell_points
        got = np.sum(quad.cell_weights * p[:, 0] ** a * p[:, 1] ** b * p[:, 2] ** c)
        assert got == pytest.approx(exact, rel=1e-13)


def test_ref_mass_matches_quadrature():
    quad = make_quadrature(2)
    mono = monomial_values(quad.cell_points)
    M4 = np.einsum("q,qa,qb->ab", quad.cell_weights, mono, mono)
    M12 = ref_mass_12()
    for comp in range(3):
        blk = M12[4 * comp:4 * comp + 4, 4 * comp:4 * comp + 4]
        assert np.allclose(blk, M4, atol=1e-14)


def test_centred_monomials_are_orthogonal():
    # C^T M C = diag(1, 1/12, 1/12, 1/12): the centred monomials 1, t_m - 1/2
    assert np.abs(CENTRE.T @ REF_MONOMIAL_MASS @ CENTRE
                  - REF_CENTRED_MASS).max() <= 1e-16
    quad = make_quadrature(2)
    centred = monomial_values(quad.cell_points) @ CENTRE
    assert np.allclose(centred[:, 1:], quad.cell_points - 0.5, rtol=0,
                       atol=1e-15)


def test_basis_linear_independence():
    # local Gram matrix must be nonsingular
    w = np.linalg.eigvalsh(ref_mass_12())
    assert w.min() > 1e-4
