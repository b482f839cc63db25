import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmdg.dg_core import (
    MONOMIAL_GRADS,
    DGField,
    all_curls,
    average,
    boundary_l2,
    curl_vectors,
    dg_norm,
    dg_seminorm,
    eval_curl,
    eval_field,
    jump,
    l2_norm,
    make_quadrature,
    monomial_values,
    ref_mass_12,
)
from mmdg.mesh import build_uniform_mesh


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
    assert np.allclose(eval_curl(f, 0), [0, -1, 0], atol=1e-14)
    # constant -> zero curl
    g = DGField.constant(m, [3.0, -1.0, 2.0])
    assert np.allclose(eval_curl(g, 0), [0, 0, 0])
    # F = (y, z, x) -> curl = (-1, -1, -1)
    p = linear_field(m, lambda x: [x[1], x[2], x[0]])
    assert np.allclose(eval_curl(p, 0), [-1, -1, -1], atol=1e-14)


def test_curl_chain_rule_factor():
    # F = (0, 0, x) on a fine mesh still has curl (0, -1, 0): the 1/h
    # factor must cancel the local-coordinate scaling
    m = build_uniform_mesh(4)
    f = linear_field(m, lambda x: [0.0, 0.0, x[0]])
    for cell in range(m.n_cells):
        assert np.allclose(eval_curl(f, cell), [0, -1, 0], atol=1e-13)


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


def test_jump_and_average_definitions():
    m = build_uniform_mesh(2)
    face = 0
    own, nb = int(m.iface_owner[face]), int(m.iface_neighbor[face])
    coeffs = np.zeros(12 * m.n_cells, dtype=complex)
    coeffs[12 * own + 0] = 2.0      # component 1 constant on owner
    coeffs[12 * nb + 0] = 0.5
    f = DGField(m, coeffs)
    # any point on the shared face
    axis = m.iface_axis[face]
    pt = m.cell_centers[own].copy()
    pt[axis] -= 0.5 * m.h
    assert np.allclose(jump(f, face, pt), [1.5, 0, 0])
    assert np.allclose(average(f, face, pt), [1.25, 0, 0])


def test_jump_zero_for_continuous_field():
    m = build_uniform_mesh(3)
    f = linear_field(m, lambda x: [1 + 2 * x[0] - x[2], x[1], x[0] + x[1]])
    rng = np.random.default_rng(1)
    for face in rng.integers(0, m.n_interior_faces, 8):
        axis = m.iface_axis[face]
        pt = m.cell_centers[m.iface_owner[face]].astype(float).copy()
        pt[axis] -= 0.5 * m.h
        t = [a for a in range(3) if a != axis]
        pt[t[0]] += rng.uniform(-0.4, 0.4) * m.h
        pt[t[1]] += rng.uniform(-0.4, 0.4) * m.h
        assert np.allclose(jump(f, int(face), pt), 0, atol=1e-12)


def test_label_swap_negates_jump():
    # swapping which cell is treated as owner negates the jump and leaves
    # the average unchanged; emulate by evaluating traces directly
    m = build_uniform_mesh(2)
    rng = np.random.default_rng(3)
    f = DGField(m, rng.normal(size=12 * m.n_cells).astype(complex))
    face = 5
    own, nb = int(m.iface_owner[face]), int(m.iface_neighbor[face])
    axis = m.iface_axis[face]
    pt = m.cell_centers[own].astype(float).copy()
    pt[axis] -= 0.5 * m.h
    j = jump(f, face, pt)
    swapped = eval_field(f, nb, pt) - eval_field(f, own, pt)
    assert np.allclose(swapped, -j)
    avg = average(f, face, pt)
    assert np.allclose(0.5 * (eval_field(f, nb, pt) + eval_field(f, own, pt)), avg)


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
    assert dg_seminorm(f, 10.0, 0.1) == pytest.approx(0.0, abs=1e-13)


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
    for face in range(m.n_interior_faces):
        if cell in (m.iface_owner[face], m.iface_neighbor[face]):
            axis = m.iface_axis[face]
            jt_sq = 0.0 if axis == 0 else 1.0  # component 1 dropped on x-faces
            expected += (1.0 / m.h) * m.face_area * jt_sq
    got = dg_seminorm(f, 1.0, 0.0) ** 2  # curl of constant = 0
    assert got == pytest.approx(expected, rel=1e-12)


def test_continuous_linear_field_penalties_vanish():
    m = build_uniform_mesh(3)
    f = linear_field(m, lambda x: [x[1] - 2 * x[2], 1 + x[0], x[2]])
    scale = dg_norm(f, 1.0, 1.0)
    # J0 = J1 = 0, so seminorm reduces to the curl energy
    curls = all_curls(f)
    curl_sq = m.cell_volume * np.sum(np.abs(curls) ** 2)
    assert dg_seminorm(f, 1.0, 1.0) ** 2 == pytest.approx(curl_sq,
                                                          rel=1e-12, abs=1e-12 * scale)


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
        dg_seminorm(f, -1.0, 0.0)


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


def test_basis_linear_independence():
    # local Gram matrix must be nonsingular
    w = np.linalg.eigvalsh(ref_mass_12())
    assert w.min() > 1e-4


def test_boundary_l2_constant():
    m = build_uniform_mesh(2)
    f = DGField.constant(m, [1, 0, 0])
    # |f| = 1 on all 6 unit faces
    assert boundary_l2(f) == pytest.approx(np.sqrt(6.0), rel=1e-12)
    # tangential trace drops the x component on the two x-normal faces
    assert boundary_l2(f, tangential_only=True) == pytest.approx(2.0, rel=1e-12)
