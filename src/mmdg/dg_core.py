"""Broken piecewise-linear vector DG space on a hexahedral mesh.

Each cell carries 12 local degrees of freedom: 3 vector components times
the 4 scalar monomials {1, x, y, z} in cell-local coordinates scaled to
[0,1]^3.  Local dof index = 4*component + monomial.  Global dof index =
12*cell + local.  Curls of basis functions are constant per cell.  The
centred monomials {1, x-1/2, y-1/2, z-1/2} (CENTRE) span the same space
and have the diagonal mass REF_CENTRED_MASS.

The interior-penalty face terms J0 (tangential jumps) and J1 (tangential
curl jumps) are defined once, as the 24x24 face blocks that build the
penalty part of the IP-DG matrix; the DG norm evaluates them with the
same blocks.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

N_LOCAL = 12

# gradients of the local monomials {1, x, y, z} in cell-local coordinates
MONOMIAL_GRADS = np.array(
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
)

# exact integrals of monomial products over the unit cube
REF_MONOMIAL_MASS = np.array(
    [
        [1.0, 1 / 2, 1 / 2, 1 / 2],
        [1 / 2, 1 / 3, 1 / 4, 1 / 4],
        [1 / 2, 1 / 4, 1 / 3, 1 / 4],
        [1 / 2, 1 / 4, 1 / 4, 1 / 3],
    ]
)

# The centring C of one component: column m > 0 is the centred monomial
# t_m - 1/2, so monomial coefficients x = C x~ for centred ones x~.  The
# centred monomials are L2-orthogonal on a cell: C^T REF_MONOMIAL_MASS C
# = REF_CENTRED_MASS.
CENTRE = np.eye(4) - np.outer([0.5, 0, 0, 0], [0, 1, 1, 1])
REF_CENTRED_MASS = np.diag([1.0, 1 / 12, 1 / 12, 1 / 12])


def monomial_values(points: np.ndarray) -> np.ndarray:
    """Values of the 4 local monomials at local points, shape (npts, 4)."""
    points = np.atleast_2d(points)
    out = np.ones((len(points), 4))
    out[:, 1:] = points
    return out


def ref_mass_12() -> np.ndarray:
    """12x12 local mass matrix on the unit reference cell (block diagonal
    per component)."""
    out = np.zeros((N_LOCAL, N_LOCAL))
    for c in range(3):
        out[4 * c : 4 * c + 4, 4 * c : 4 * c + 4] = REF_MONOMIAL_MASS
    return out


# constant curl of each local basis function on the unit cell, shape (12, 3):
# basis (c, m) is e_c * monomial_m(local), and curl(phi e_c) = grad(phi) x e_c
_REF_CURLS = np.cross(MONOMIAL_GRADS[None, :, :], np.eye(3)[:, None, :]).reshape(N_LOCAL, 3)
_REF_CURLS.setflags(write=False)


def curl_vectors(h: float) -> np.ndarray:
    """Constant curl of each local basis function on a cell of side h,
    shape (12, 3); the physical gradient carries a 1/h chain-rule factor."""
    return _REF_CURLS / h


@functools.cache
def gauss01(q: int):
    """q-point Gauss-Legendre rule on [0,1], read-only and computed once
    per q: leggauss solves an eigenproblem, about 75 us at q = 4, which
    every oscillatory load would pay again."""
    x, w = np.polynomial.legendre.leggauss(q)
    t, w = 0.5 * (x + 1.0), 0.5 * w
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


@dataclass(frozen=True)
class QuadratureRule:
    """Tensor Gauss rules for cells (q^3 points) and faces (q^2 points),
    in local [0,1] coordinates; weights sum to 1."""

    cell_points: np.ndarray   # (q^3, 3)
    cell_weights: np.ndarray  # (q^3,)
    face_points: np.ndarray   # (q^2, 2)
    face_weights: np.ndarray  # (q^2,)


def make_quadrature(q: int = 2) -> QuadratureRule:
    if q < 1:
        raise ValueError("quadrature order must be positive")
    x, w = gauss01(q)
    cp = np.stack(np.meshgrid(x, x, x, indexing="ij"), axis=-1).reshape(-1, 3)
    cw = (w[:, None, None] * w[None, :, None] * w[None, None, :]).ravel()
    fp = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1).reshape(-1, 2)
    fw = (w[:, None] * w[None, :]).ravel()
    return QuadratureRule(cell_points=cp, cell_weights=cw,
                          face_points=fp, face_weights=fw)


@dataclass
class DGField:
    """Coefficient vector of a broken piecewise-linear vector field."""

    mesh: "object"
    coeffs: np.ndarray  # complex, length 12 * n_cells

    def __post_init__(self):
        n = 12 * self.mesh.n_cells
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if self.coeffs.shape != (n,):
            raise ValueError(
                f"coefficient vector must have length {n}, got {self.coeffs.shape}"
            )

    @classmethod
    def zeros(cls, mesh) -> "DGField":
        return cls(mesh, np.zeros(12 * mesh.n_cells, dtype=np.complex128))

    @classmethod
    def constant(cls, mesh, value) -> "DGField":
        c = np.zeros(12 * mesh.n_cells, dtype=np.complex128)
        value = np.asarray(value, dtype=np.complex128)
        for comp in range(3):
            c[4 * comp :: 12] = value[comp]
        return cls(mesh, c)

    def cellwise(self) -> np.ndarray:
        """Coefficients reshaped to (n_cells, 12)."""
        return self.coeffs.reshape(self.mesh.n_cells, 12)


def eval_field(field: DGField, cell: int, point) -> np.ndarray:
    """Evaluate the field at a physical point inside `cell`."""
    mesh = field.mesh
    if not 0 <= cell < mesh.n_cells:
        raise IndexError(f"cell index {cell} out of range")
    local = (np.asarray(point, dtype=float) - mesh.cell_lower(cell)) / mesh.h
    mono = monomial_values(local)[0]  # (4,)
    c = field.cellwise()[cell].reshape(3, 4)
    return c @ mono


def all_curls(field: DGField) -> np.ndarray:
    """Curl of the field on every cell, shape (n_cells, 3)."""
    return field.cellwise() @ curl_vectors(field.mesh.h)


def _face_trace_matrix(axis: int, side: float,
                       quad: QuadratureRule) -> np.ndarray:
    """Tangential trace values of the 12 local basis functions at the
    quadrature points of the local face at coordinate `side` along `axis`,
    shape (nq, 12, 3); the normal component is projected out."""
    mono = monomial_values(np.insert(quad.face_points, axis, side, axis=1))
    T = np.zeros((len(mono), N_LOCAL, 3))
    for c in range(3):
        if c != axis:
            T[:, 4 * c : 4 * c + 4, c] = mono
    return T


def _interior_face_blocks(axis: int, h: float, quad: QuadratureRule):
    """Local 24x24 blocks for one interior face orientation.

    Dof layout: 0..11 owner, 12..23 neighbor.  The owner sees the face at
    local coordinate 0 along `axis` (it has the larger label), the
    neighbor at 1; the face normal is -e_axis.  Returns
    (flux_block, j0_block_unscaled, j1_block_unscaled) where the penalty
    blocks still need the gamma0/h and gamma1*h factors.
    """
    area = h * h
    nu = np.zeros(3)
    nu[axis] = -1.0

    T_own = _face_trace_matrix(axis, 0.0, quad)            # (nq,12,3)
    T_nb = _face_trace_matrix(axis, 1.0, quad)
    # jump = owner - neighbor
    JT = np.concatenate([T_own, -T_nb], axis=1)            # (nq,24,3)
    int_jt = area * np.einsum("q,qic->ic", quad.face_weights, JT)   # (24,3)
    M_jt = area * np.einsum("q,qic,qjc->ij", quad.face_weights, JT, JT)

    cxn = np.cross(curl_vectors(h), nu)                    # (12,3)
    avg_cxn = 0.5 * np.vstack([cxn, cxn])                  # (24,3)
    jmp_cxn = np.vstack([cxn, -cxn])

    flux = -(int_jt @ avg_cxn.T + avg_cxn @ int_jt.T)      # symmetric
    j0 = M_jt
    j1 = area * (jmp_cxn @ jmp_cxn.T)
    return flux, j0, j1


def _boundary_tangential_block(axis: int, side: int, h: float,
                               quad: QuadratureRule) -> np.ndarray:
    """12x12 tangential trace mass matrix on one boundary face type."""
    T = _face_trace_matrix(axis, float(side), quad)
    return h * h * np.einsum("q,qic,qjc->ij", quad.face_weights, T, T)


def l2_norm(field: DGField) -> float:
    """L2(D) norm via the exact local mass matrix."""
    M = ref_mass_12() * field.mesh.cell_volume
    c = field.cellwise()
    # real products: a complex one raised a run's peak RSS by ~0.4 MB
    val = sum(np.vdot(x, x @ M) for x in (c.real, c.imag))
    return float(np.sqrt(max(val, 0.0)))


def _penalty_quadratic(field: DGField, gamma0: float,
                       gamma1: float) -> tuple[float, float]:
    """J0(v,v) and J1(v,v) summed over interior faces, with the face
    blocks of the matrix assembly."""
    mesh = field.mesh
    h = mesh.h
    quad = make_quadrature(2)
    cw = field.cellwise()
    j0 = j1 = 0.0
    for axis in range(3):
        own, nb = mesh.interior_faces(axis)
        v = np.hstack([cw[own], cw[nb]])
        _, J0, J1 = _interior_face_blocks(axis, h, quad)
        j0 += (gamma0 / h) * np.vdot(v, v @ J0).real
        j1 += gamma1 * h * np.vdot(v, v @ J1).real
    return float(j0), float(j1)


def dg_norm(field: DGField, gamma0: float, gamma1: float) -> float:
    """DG norm: the seminorm s (curl energy plus the two interior penalty
    terms) combined with the L2 norm l as sqrt(s^2 + l^2)."""
    if gamma0 < 0 or gamma1 < 0:
        raise ValueError("penalty parameters must be nonnegative")
    curls = all_curls(field)
    curl_sq = field.mesh.cell_volume * float(np.sum((curls.conj() * curls).real))
    j0, j1 = _penalty_quadratic(field, gamma0, gamma1)
    s = np.sqrt(max(curl_sq + j0 + j1, 0.0))
    l = l2_norm(field)
    return float(np.sqrt(s * s + l * l))
