"""Broken piecewise-linear vector DG space on a hexahedral mesh.

Each cell carries 12 local degrees of freedom: 3 vector components times
the 4 scalar monomials {1, x, y, z} in cell-local coordinates scaled to
[0,1]^3.  Local dof index = 4*component + monomial.  Global dof index =
12*cell + local.  Curls of basis functions are constant per cell.
"""

from __future__ import annotations

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


def gauss01(q: int):
    """q-point Gauss-Legendre rule on [0,1]."""
    x, w = np.polynomial.legendre.leggauss(q)
    return 0.5 * (x + 1.0), 0.5 * w


@dataclass(frozen=True)
class QuadratureRule:
    """Tensor Gauss rules for cells (q^3 points) and faces (q^2 points),
    in local [0,1] coordinates; weights sum to 1."""

    q: int
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
    return QuadratureRule(q=q, cell_points=cp, cell_weights=cw,
                          face_points=fp, face_weights=fw)


def face_local_points(axis: int, side: float, pts2: np.ndarray) -> np.ndarray:
    """Embed 2D face quadrature points into local cell coordinates with
    the coordinate along `axis` pinned to `side`."""
    out = np.empty((len(pts2), 3))
    tang = [a for a in range(3) if a != axis]
    out[:, axis] = side
    out[:, tang[0]] = pts2[:, 0]
    out[:, tang[1]] = pts2[:, 1]
    return out


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


def eval_curl(field: DGField, cell: int) -> np.ndarray:
    """Cellwise-constant curl of the field on `cell`."""
    mesh = field.mesh
    if not 0 <= cell < mesh.n_cells:
        raise IndexError(f"cell index {cell} out of range")
    return field.cellwise()[cell] @ curl_vectors(mesh.h)


def all_curls(field: DGField) -> np.ndarray:
    """Curl of the field on every cell, shape (n_cells, 3)."""
    return field.cellwise() @ curl_vectors(field.mesh.h)


def jump(field: DGField, iface: int, point) -> np.ndarray:
    """Jump (owner trace minus neighbor trace) at a physical point on an
    interior face."""
    mesh = field.mesh
    return eval_field(field, int(mesh.iface_owner[iface]), point) - eval_field(
        field, int(mesh.iface_neighbor[iface]), point
    )


def average(field: DGField, iface: int, point) -> np.ndarray:
    """Average of the two traces at a physical point on an interior face."""
    mesh = field.mesh
    return 0.5 * (
        eval_field(field, int(mesh.iface_owner[iface]), point)
        + eval_field(field, int(mesh.iface_neighbor[iface]), point)
    )


def _face_trace_matrix(h: float, axis: int, side: float, drop_axis: bool,
                       quad: QuadratureRule) -> np.ndarray:
    """Trace values of the 12 local basis functions at face quadrature
    points, shape (nq, 12, 3); optionally with the normal component
    projected out."""
    pts = face_local_points(axis, side, quad.face_points)
    mono = monomial_values(pts)  # (nq, 4)
    nq = len(pts)
    T = np.zeros((nq, N_LOCAL, 3))
    for c in range(3):
        if drop_axis and c == axis:
            continue
        for m in range(4):
            T[:, 4 * c + m, c] = mono[:, m]
    return T


def l2_norm(field: DGField) -> float:
    """L2(D) norm via the exact local mass matrix."""
    M = ref_mass_12() * field.mesh.cell_volume
    c = field.cellwise()
    val = np.einsum("ni,ij,nj->", c.conj(), M, c).real
    return float(np.sqrt(max(val, 0.0)))


def _penalty_quadratic(field: DGField, gamma0: float, gamma1: float,
                       quad: QuadratureRule | None = None) -> tuple[float, float]:
    """J0(v,v) and J1(v,v) summed over interior faces."""
    if quad is None:
        quad = make_quadrature(2)
    mesh = field.mesh
    h = mesh.h
    area = mesh.face_area
    cw = field.cellwise()
    curls = all_curls(field)
    j0 = 0.0
    j1 = 0.0
    for axis in range(3):
        sel = mesh.iface_axis == axis
        if not np.any(sel):
            continue
        own = mesh.iface_owner[sel]
        nb = mesh.iface_neighbor[sel]
        nu = np.zeros(3)
        nu[axis] = -1.0
        # tangential jump at face quadrature points: owner trace (local
        # face at coord 0) minus neighbor trace (coord 1)
        T_own = _face_trace_matrix(h, axis, 0.0, True, quad)  # (nq,12,3)
        T_nb = _face_trace_matrix(h, axis, 1.0, True, quad)
        jt = np.einsum("ni,qic->nqc", cw[own], T_own) - np.einsum(
            "ni,qic->nqc", cw[nb], T_nb
        )
        j0 += (gamma0 / h) * area * float(
            np.einsum("q,nqc,nqc->", quad.face_weights, jt.conj(), jt).real
        )
        jc = np.cross(curls[own] - curls[nb], nu)
        j1 += gamma1 * h * area * float(np.sum((jc.conj() * jc).real))
    return j0, j1


def dg_seminorm(field: DGField, gamma0: float, gamma1: float) -> float:
    """DG seminorm: curl energy plus the two interior penalty terms."""
    if gamma0 < 0 or gamma1 < 0:
        raise ValueError("penalty parameters must be nonnegative")
    curls = all_curls(field)
    curl_sq = field.mesh.cell_volume * float(np.sum((curls.conj() * curls).real))
    j0, j1 = _penalty_quadratic(field, gamma0, gamma1)
    return float(np.sqrt(max(curl_sq + j0 + j1, 0.0)))


def dg_norm(field: DGField, gamma0: float, gamma1: float) -> float:
    s = dg_seminorm(field, gamma0, gamma1)
    l = l2_norm(field)
    return float(np.sqrt(s * s + l * l))


def boundary_l2(field: DGField, tangential_only: bool = False) -> float:
    """L2 norm of the (optionally tangential) trace over the domain boundary."""
    mesh = field.mesh
    quad = make_quadrature(2)
    cw = field.cellwise()
    total = 0.0
    for axis in range(3):
        for side in (0, 1):
            sel = (mesh.bface_axis == axis) & (mesh.bface_side == side)
            if not np.any(sel):
                continue
            cells = mesh.bface_cell[sel]
            T = _face_trace_matrix(mesh.h, axis, float(side), tangential_only, quad)
            tr = np.einsum("ni,qic->nqc", cw[cells], T)
            total += mesh.face_area * float(
                np.einsum("q,nqc,nqc->", quad.face_weights, tr.conj(), tr).real
            )
    return float(np.sqrt(max(total, 0.0)))
