import dataclasses
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from mmdg.mesh import HexMesh, build_uniform_mesh


def brute_force_faces(L):
    """Independent face enumeration by pairing cells over shared planes:
    interior faces as (owner, neighbor, axis), owner the larger label, and
    boundary faces as (cell, axis, side), side 0 the low coordinate side.
    Both lists run by cell label, then axis."""
    cells = {}
    for i in range(L):
        for j in range(L):
            for k in range(L):
                cells[(i, j, k)] = (i * L + j) * L + k
    interior, boundary = [], []
    for (i, j, k), lab in cells.items():
        for axis, d in ((0, (1, 0, 0)), (1, (0, 1, 0)), (2, (0, 0, 1))):
            for side, sgn in ((0, -1), (1, 1)):
                nb = (i + sgn * d[0], j + sgn * d[1], k + sgn * d[2])
                if nb in cells:
                    if lab > cells[nb]:
                        interior.append((lab, cells[nb], axis))
                else:
                    boundary.append((lab, axis, side))
    return interior, boundary


def mesh_faces(m):
    """The mesh's faces in brute_force_faces' form, per axis in the
    mesh's own order."""
    interior = [(int(o), int(n), axis) for axis in range(3)
                for o, n in zip(*m.interior_faces(axis))]
    boundary = [(int(c), axis, side) for axis in range(3) for side in (0, 1)
                for c in m.boundary_cells(axis, side)]
    return interior, boundary


@pytest.mark.parametrize("L,cells,ifaces,bfaces", [
    (1, 1, 0, 6),
    (2, 8, 12, 24),
    (3, 27, 54, 54),
    (10, 1000, 2700, 600),
])
def test_counts(L, cells, ifaces, bfaces):
    m = build_uniform_mesh(L)
    interior, boundary = mesh_faces(m)
    assert m.n_cells == cells == L ** 3
    assert len(interior) == ifaces == 3 * L * L * (L - 1)
    assert len(boundary) == bfaces == 6 * L * L


def test_paper_mesh_size():
    m = build_uniform_mesh(10)
    assert m.h == pytest.approx(0.1)


def test_rejects_zero_cells():
    # a bool is not a cell count, and a float one would give float counts
    for L in (0, True, 2.0):
        with pytest.raises(ValueError):
            build_uniform_mesh(L)
    m = build_uniform_mesh(np.int64(4))
    assert m == HexMesh(4) and m.n_cells == 64


def test_a_mesh_is_its_cell_count():
    assert [f.name for f in dataclasses.fields(HexMesh)] == ["L"]
    m = build_uniform_mesh(3)
    assert m.cell_centers is m.cell_centers
    with pytest.raises(ValueError):
        m.cell_centers[0, 0] = 1.0


def test_concurrent_first_reads_of_cell_centers_agree():
    # worker threads share one mesh; whichever of them reads cell_centers
    # first, every reader sees the same centres
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for L in (2, 5, 8):
            expected = build_uniform_mesh(L).cell_centers
            m = build_uniform_mesh(L)
            with ThreadPoolExecutor(8) as pool:
                got = list(pool.map(lambda _: m.cell_centers, range(32),
                                    timeout=60))
            assert all(np.array_equal(c, expected) for c in got)
            assert np.array_equal(m.cell_centers, expected)
    finally:
        sys.setswitchinterval(old)


@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_faces_match_brute_force(L):
    interior, boundary = mesh_faces(build_uniform_mesh(L))
    expected_interior, expected_boundary = brute_force_faces(L)
    # a stable sort by axis (and side) keeps the brute-force label order:
    # the mesh lists each axis's faces by cell label too
    assert interior == sorted(expected_interior, key=lambda f: f[2])
    assert boundary == sorted(expected_boundary, key=lambda f: f[1:])


def test_volume_tiles_unit_cube():
    for L in (1, 2, 5):
        m = build_uniform_mesh(L)
        assert abs(m.n_cells * m.cell_volume - 1.0) <= 1e-14


def test_owner_label_larger_and_normal_outward():
    m = build_uniform_mesh(3)
    interior, _ = mesh_faces(m)
    # owner's face sits on its low-coordinate side along the face axis, so
    # the geometric outward normal of the owner is -e_axis
    for own, nb, axis in interior:
        assert own > nb
        own_c = m.cell_centers[own]
        nb_c = m.cell_centers[nb]
        assert own_c[axis] > nb_c[axis]
        # the shared face is the owner's low side and the neighbor's high
        # side, so the owner's outward normal is -e_axis
        assert own_c[axis] - 0.5 * m.h == pytest.approx(nb_c[axis] + 0.5 * m.h)


def test_boundary_normals_point_out_of_domain():
    m = build_uniform_mesh(2)
    for cell, axis, side in mesh_faces(m)[1]:
        c = m.cell_centers[cell]
        normal = np.zeros(3)
        normal[axis] = -1.0 if side == 0 else 1.0
        outward_point = c + 0.5 * m.h * normal
        coord = outward_point[axis]
        assert coord in (0.0, 1.0)


def test_interior_faces_shared_by_exactly_two_cells():
    m = build_uniform_mesh(3)
    seen = set()
    for own, nb, _ in mesh_faces(m)[0]:
        key = (min(own, nb), max(own, nb))
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
