"""Uniform hexahedral partitions of the unit cube (0,1)^3.

A mesh is its cell count per axis L; everything else is derived where it
is read.  Cells are boxes of side h = 1/L, labeled lexicographically in
their (i, j, k) integer coordinates: label = (i*L + j)*L + k, with i along
x, j along y, k along z.  The interior faces perpendicular to one axis
pair each cell below the last layer with the next cell along that axis.
The next cell has the *larger* label and owns the face, and the face
normal points out of the owner.  The face lies on the owner's
low-coordinate side, so that normal is -e_axis.  This orientation fixes
the sign of all DG jump terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class HexMesh:
    """Immutable uniform partition of (0,1)^3 into L^3 cubes."""

    L: int

    def __post_init__(self) -> None:
        if (isinstance(self.L, bool) or not isinstance(self.L, (int, np.integer))
                or self.L < 1):
            raise ValueError(
                f"cells per axis must be an integer >= 1, got {self.L!r}")

    @property
    def h(self) -> float:
        return 1.0 / self.L

    @property
    def n_cells(self) -> int:
        return self.L ** 3

    @property
    def cell_volume(self) -> float:
        return self.h ** 3

    @cached_property
    def cell_centers(self) -> np.ndarray:
        """Read-only (n_cells, 3) array; row c is the center of cell c."""
        ijk = np.stack(np.unravel_index(np.arange(self.n_cells), (self.L,) * 3),
                       axis=-1)
        centers = (ijk + 0.5) * self.h
        centers.setflags(write=False)
        return centers

    def cell_lower(self, cell) -> np.ndarray:
        """Lower-left-front corner of a cell (vectorized over cell indices)."""
        return self.cell_centers[cell] - 0.5 * self.h

    def _labels(self) -> np.ndarray:
        return np.arange(self.n_cells).reshape((self.L,) * 3)

    def interior_faces(self, axis: int) -> tuple[np.ndarray, np.ndarray]:
        """(owner, neighbor) cells of the faces perpendicular to `axis`: the
        neighbors are the cells below the last layer along `axis`, in label
        order, and each owner is the next cell along `axis`."""
        neighbor = np.take(self._labels(), np.arange(self.L - 1), axis=axis).ravel()
        return neighbor + self.L ** (2 - axis), neighbor

    def boundary_cells(self, axis: int, side: int) -> np.ndarray:
        """Cells, in label order, with a boundary face perpendicular to
        `axis` on their low (side 0) or high (side 1) coordinate side."""
        return np.take(self._labels(), (self.L - 1) * side, axis=axis).ravel()


def build_uniform_mesh(L: int) -> HexMesh:
    """Build the uniform L x L x L partition of the unit cube."""
    return HexMesh(L)
