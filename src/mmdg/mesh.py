"""Uniform hexahedral partitions of the unit cube (0,1)^3.

Cells are unit-cube scaled boxes of side h = 1/L, labeled lexicographically
in their (i, j, k) integer coordinates: label = (i*L + j)*L + k, with i
along x, j along y, k along z.  Every interior face stores the cell with
the *larger* label as its owner, and the face normal points out of the
owner.  The face lies on the owner's low-coordinate side, so that normal
is -e_axis.  This orientation fixes the sign of all DG jump terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class HexMesh:
    """Immutable uniform partition of (0,1)^3 into L^3 cubes."""

    L: int
    h: float
    cell_centers: np.ndarray      # (n_cells, 3)
    # interior faces
    iface_owner: np.ndarray       # (n_if,) owner cell = larger label
    iface_neighbor: np.ndarray    # (n_if,)
    iface_axis: np.ndarray        # (n_if,) axis perpendicular to the face
    # boundary faces
    bface_cell: np.ndarray        # (n_bf,)
    bface_axis: np.ndarray        # (n_bf,)
    bface_side: np.ndarray        # (n_bf,) 0 = low coordinate side, 1 = high

    @property
    def n_cells(self) -> int:
        return self.L ** 3

    @property
    def cell_volume(self) -> float:
        return self.h ** 3

    def cell_lower(self, cell) -> np.ndarray:
        """Lower-left-front corner of a cell (vectorized over cell indices)."""
        return self.cell_centers[cell] - 0.5 * self.h


def build_uniform_mesh(L: int) -> HexMesh:
    """Build the uniform L x L x L partition of the unit cube."""
    if L < 1:
        raise ValueError(f"cells per axis must be >= 1, got {L}")
    h = 1.0 / L

    idx = np.arange(L)
    ii, jj, kk = np.meshgrid(idx, idx, idx, indexing="ij")
    labels = (ii * L + jj) * L + kk
    centers = np.stack(
        [(ii + 0.5) * h, (jj + 0.5) * h, (kk + 0.5) * h], axis=-1
    ).reshape(-1, 3)          # row c is the center of the cell labeled c

    owners, neighbors, axes = [], [], []
    for axis, step in ((0, L * L), (1, L), (2, 1)):
        # faces between cell (.., m, ..) and (.., m+1, ..) along `axis`;
        # the +1 cell has the larger label, hence owns the face
        sl = [slice(None)] * 3
        sl[axis] = slice(0, L - 1)
        low = labels[tuple(sl)].ravel()
        owners.append(low + step)
        neighbors.append(low)
        axes.append(np.full(low.shape, axis, dtype=np.int64))
    iface_owner = np.concatenate(owners)
    iface_neighbor = np.concatenate(neighbors)
    iface_axis = np.concatenate(axes)

    bcells, baxes, bsides = [], [], []
    for axis in range(3):
        for side in (0, 1):
            sl = [slice(None)] * 3
            sl[axis] = 0 if side == 0 else L - 1
            cells = labels[tuple(sl)].ravel()
            bcells.append(cells)
            baxes.append(np.full(cells.shape, axis, dtype=np.int64))
            bsides.append(np.full(cells.shape, side, dtype=np.int64))
    bface_cell = np.concatenate(bcells)
    bface_axis = np.concatenate(baxes)
    bface_side = np.concatenate(bsides)

    for arr in (centers, iface_owner, iface_neighbor, iface_axis,
                bface_cell, bface_axis, bface_side):
        arr.setflags(write=False)

    return HexMesh(
        L=L,
        h=h,
        cell_centers=centers,
        iface_owner=iface_owner,
        iface_neighbor=iface_neighbor,
        iface_axis=iface_axis,
        bface_cell=bface_cell,
        bface_axis=bface_axis,
        bface_side=bface_side,
    )
