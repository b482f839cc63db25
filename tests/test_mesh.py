import numpy as np
import pytest

from mmdg.mesh import build_uniform_mesh


def brute_force_faces(L):
    """Independent face enumeration by pairing cells over shared planes."""
    h = 1.0 / L
    cells = {}
    for i in range(L):
        for j in range(L):
            for k in range(L):
                cells[(i, j, k)] = (i * L + j) * L + k
    interior = []
    boundary = 0
    for (i, j, k), lab in cells.items():
        for axis, d in ((0, (1, 0, 0)), (1, (0, 1, 0)), (2, (0, 0, 1))):
            for sgn in (-1, 1):
                nb = (i + sgn * d[0], j + sgn * d[1], k + sgn * d[2])
                if nb in cells:
                    if lab > cells[nb]:
                        interior.append((lab, cells[nb], axis))
                else:
                    boundary += 1
    return interior, boundary


@pytest.mark.parametrize("L,cells,ifaces,bfaces", [
    (1, 1, 0, 6),
    (2, 8, 12, 24),
    (3, 27, 54, 54),
    (10, 1000, 2700, 600),
])
def test_counts(L, cells, ifaces, bfaces):
    m = build_uniform_mesh(L)
    assert m.n_cells == cells == L ** 3
    assert len(m.iface_owner) == ifaces == 3 * L * L * (L - 1)
    assert len(m.bface_cell) == bfaces == 6 * L * L


def test_paper_mesh_size():
    m = build_uniform_mesh(10)
    assert m.h == pytest.approx(0.1)


def test_rejects_zero_cells():
    with pytest.raises(ValueError):
        build_uniform_mesh(0)


@pytest.mark.parametrize("L", [2, 3])
def test_faces_match_brute_force(L):
    m = build_uniform_mesh(L)
    expected, n_boundary = brute_force_faces(L)
    got = sorted(zip(m.iface_owner.tolist(), m.iface_neighbor.tolist(),
                     m.iface_axis.tolist()))
    assert got == sorted(expected)
    assert len(m.bface_cell) == n_boundary


def test_volume_tiles_unit_cube():
    for L in (1, 2, 5):
        m = build_uniform_mesh(L)
        assert abs(m.n_cells * m.cell_volume - 1.0) <= 1e-14


def test_owner_label_larger_and_normal_outward():
    m = build_uniform_mesh(3)
    assert np.all(m.iface_owner > m.iface_neighbor)
    # owner's face sits on its low-coordinate side along the face axis, so
    # the geometric outward normal of the owner is -e_axis
    for f in range(len(m.iface_owner)):
        axis = m.iface_axis[f]
        own_c = m.cell_centers[m.iface_owner[f]]
        nb_c = m.cell_centers[m.iface_neighbor[f]]
        assert own_c[axis] > nb_c[axis]
        # the shared face is the owner's low side and the neighbor's high
        # side, so the owner's outward normal is -e_axis
        assert own_c[axis] - 0.5 * m.h == pytest.approx(nb_c[axis] + 0.5 * m.h)


def test_boundary_normals_point_out_of_domain():
    m = build_uniform_mesh(2)
    for f in range(len(m.bface_cell)):
        c = m.cell_centers[m.bface_cell[f]]
        normal = np.zeros(3)
        normal[m.bface_axis[f]] = -1.0 if m.bface_side[f] == 0 else 1.0
        outward_point = c + 0.5 * m.h * normal
        coord = outward_point[m.bface_axis[f]]
        assert coord in (0.0, 1.0)


def test_interior_faces_shared_by_exactly_two_cells():
    m = build_uniform_mesh(3)
    seen = set()
    for f in range(len(m.iface_owner)):
        key = (min(m.iface_owner[f], m.iface_neighbor[f]),
               max(m.iface_owner[f], m.iface_neighbor[f]))
        assert key not in seen
        seen.add(key)


def test_lexicographic_labels():
    L = 4
    m = build_uniform_mesh(L)
    for i in range(L):
        for j in range(L):
            for k in range(L):
                assert np.array_equal(m.cell_centers[(i * L + j) * L + k],
                                      [(i + 0.5) / L, (j + 0.5) / L,
                                       (k + 0.5) / L])
