"""Assembly of the IP-DG system matrices and load vectors.

The assembled matrix decomposes as A = S - i*P with S real symmetric
(curl-curl volume term, consistency fluxes, -k^2 mass) and P real
symmetric positive semidefinite (interior penalties J0, J1 and the
impedance boundary tangential mass scaled by k*lambda).  Because the mesh
is uniform, every local block depends only on the face orientation, so
assembly reduces to scattering a handful of precomputed dense blocks.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import kernels
from .dg_core import (
    N_LOCAL,
    DGField,
    _face_trace_matrix,
    curl_vectors,
    make_quadrature,
    monomial_values,
    ref_mass_12,
)
from .mesh import HexMesh


@dataclass
class SystemMatrix:
    """Sparse complex IP-DG stiffness matrix with its Hermitian split."""

    matrix: sp.csc_matrix          # A = S - i P
    s_part: sp.csr_matrix          # real symmetric
    p_part: sp.csr_matrix          # real symmetric PSD
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def content_hash(self) -> str:
        coo = self.matrix.tocoo()
        order = np.lexsort((coo.col, coo.row))
        hsh = hashlib.sha256()
        hsh.update(coo.row[order].astype(np.int64).tobytes())
        hsh.update(coo.col[order].astype(np.int64).tobytes())
        hsh.update(coo.data[order].tobytes())
        return hsh.hexdigest()

    def export_coo(self, path) -> None:
        """Dump the matrix in text triplet format (row col re im)."""
        coo = self.matrix.tocoo()
        with open(path, "w") as fh:
            fh.write(f"% {self.n} {self.n} {coo.nnz}\n")
            for r, c, v in zip(coo.row, coo.col, coo.data):
                fh.write(f"{r} {c} {v.real:.17e} {v.imag:.17e}\n")


def _interior_face_blocks(axis: int, h: float):
    """Local 24x24 blocks for one interior face orientation.

    Dof layout: 0..11 owner, 12..23 neighbor.  The owner sees the face at
    local coordinate 0 along `axis` (it has the larger label), the
    neighbor at 1; the face normal is -e_axis.  Returns
    (flux_block, j0_block_unscaled, j1_block_unscaled) where the penalty
    blocks still need the gamma0/h and gamma1*h factors.
    """
    quad = make_quadrature(2)
    area = h * h
    nu = np.zeros(3)
    nu[axis] = -1.0

    T_own = _face_trace_matrix(h, axis, 0.0, True, quad)   # (nq,12,3)
    T_nb = _face_trace_matrix(h, axis, 1.0, True, quad)
    # jump = owner - neighbor
    JT = np.concatenate([T_own, -T_nb], axis=1)            # (nq,24,3)
    int_jt = area * np.einsum("q,qic->ic", quad.face_weights, JT)   # (24,3)
    M_jt = area * np.einsum("q,qic,qjc->ij", quad.face_weights, JT, JT)

    cv = curl_vectors(h)                                   # (12,3)
    cxn = np.cross(cv, nu)
    avg_cxn = 0.5 * np.vstack([cxn, cxn])                  # (24,3)
    jmp_cxn = np.vstack([cxn, -cxn])

    flux = -(int_jt @ avg_cxn.T + avg_cxn @ int_jt.T)      # symmetric
    j0 = M_jt
    j1 = area * (jmp_cxn @ jmp_cxn.T)
    return flux, j0, j1


def _boundary_tangential_block(axis: int, side: int, h: float) -> np.ndarray:
    """12x12 tangential trace mass matrix on one boundary face type."""
    quad = make_quadrature(2)
    T = _face_trace_matrix(h, axis, float(side), True, quad)
    return h * h * np.einsum("q,qic,qjc->ij", quad.face_weights, T, T)


def _scatter(rows_out, cols_out, data_out, dofs_i, dofs_j, blocks):
    """Append COO triplets for dense blocks at the given dof index arrays.

    dofs_i/dofs_j: (nf, nd); blocks: (nd, nd) shared or (nf, nd, nd).
    """
    nf, nd = dofs_i.shape
    rows = np.repeat(dofs_i, nd, axis=1).ravel()
    cols = np.tile(dofs_j, (1, nd)).ravel()
    if blocks.ndim == 2:
        data = np.tile(blocks.ravel(), nf)
    else:
        data = blocks.reshape(nf, -1).ravel()
    rows_out.append(rows)
    cols_out.append(cols)
    data_out.append(data)


def _cell_dofs(cells: np.ndarray) -> np.ndarray:
    return 12 * cells[:, None] + np.arange(N_LOCAL)[None, :]


def _assemble(mesh: HexMesh, k: float, lam: float, gamma0: float,
              gamma1: float, alpha_sq: np.ndarray | None) -> SystemMatrix:
    if k <= 0:
        raise ValueError("wave number k must be positive")
    if lam <= 0:
        raise ValueError("impedance lambda must be positive")
    if gamma0 < 0 or gamma1 < 0:
        raise ValueError("penalty parameters must be nonnegative")

    h = mesh.h
    n = 12 * mesh.n_cells
    mass = ref_mass_12() * mesh.cell_volume
    cv = curl_vectors(h)
    curlcurl = mesh.cell_volume * (cv @ cv.T)

    s_rows, s_cols, s_data = [], [], []
    p_rows, p_cols, p_data = [], [], []

    # volume terms
    cells = np.arange(mesh.n_cells)
    cdofs = _cell_dofs(cells)
    if alpha_sq is None:
        vol_blocks = curlcurl - (k * k) * mass
    else:
        alpha_sq = np.asarray(alpha_sq, dtype=float)
        if alpha_sq.shape != (mesh.n_cells,):
            raise ValueError(
                f"coefficient sample must have one value per cell "
                f"({mesh.n_cells}), got shape {alpha_sq.shape}"
            )
        vol_blocks = curlcurl[None, :, :] - (k * k) * alpha_sq[:, None, None] * mass[None, :, :]
    _scatter(s_rows, s_cols, s_data, cdofs, cdofs, vol_blocks)

    # interior faces: consistency flux into S, penalties into P
    for axis in range(3):
        sel = mesh.iface_axis == axis
        if not np.any(sel):
            continue
        flux, j0, j1 = _interior_face_blocks(axis, h)
        pen = (gamma0 / h) * j0 + gamma1 * h * j1
        dofs = np.concatenate(
            [_cell_dofs(mesh.iface_owner[sel]), _cell_dofs(mesh.iface_neighbor[sel])],
            axis=1,
        )
        _scatter(s_rows, s_cols, s_data, dofs, dofs, flux)
        _scatter(p_rows, p_cols, p_data, dofs, dofs, pen)

    # impedance boundary tangential mass into P
    for axis in range(3):
        for side in (0, 1):
            sel = (mesh.bface_axis == axis) & (mesh.bface_side == side)
            if not np.any(sel):
                continue
            blk = k * lam * _boundary_tangential_block(axis, side, h)
            dofs = _cell_dofs(mesh.bface_cell[sel])
            _scatter(p_rows, p_cols, p_data, dofs, dofs, blk)

    S = sp.coo_matrix(
        (np.concatenate(s_data), (np.concatenate(s_rows), np.concatenate(s_cols))),
        shape=(n, n),
    ).tocsr()
    P = sp.coo_matrix(
        (np.concatenate(p_data), (np.concatenate(p_rows), np.concatenate(p_cols))),
        shape=(n, n),
    ).tocsr()
    A = (S - 1j * P).tocsc()
    meta = {"k": k, "lambda": lam, "gamma0": gamma0, "gamma1": gamma1, "L": mesh.L}
    return SystemMatrix(matrix=A, s_part=S, p_part=P, meta=meta)


def assemble_a_h(mesh: HexMesh, k: float, lam: float, gamma0: float,
                 gamma1: float) -> SystemMatrix:
    """Sample-independent IP-DG matrix (background coefficient 1)."""
    return _assemble(mesh, k, lam, gamma0, gamma1, None)


def assemble_standard(mesh: HexMesh, k: float, lam: float, gamma0: float,
                      gamma1: float, alpha_values: np.ndarray) -> SystemMatrix:
    """Per-sample IP-DG matrix with the cellwise-constant coefficient
    alpha^2 in the mass term."""
    alpha = np.asarray(alpha_values, dtype=float)
    return _assemble(mesh, k, lam, gamma0, gamma1, alpha * alpha)


def assemble_load(mesh: HexMesh, f, q_f: int = 4) -> np.ndarray:
    """Load vector for a generic source callable.

    `f` maps physical points of shape (npts, 3) to complex values of shape
    (npts, 3); entries are the q_f-point tensor Gauss approximation of
    (f, basis)_D.
    """
    quad = make_quadrature(q_f)
    lowers = mesh.cell_lower(np.arange(mesh.n_cells))       # (nc, 3)
    pts = lowers[:, None, :] + mesh.h * quad.cell_points[None, :, :]
    vals = np.asarray(f(pts.reshape(-1, 3)), dtype=np.complex128)
    vals = vals.reshape(mesh.n_cells, -1, 3)
    mono = monomial_values(quad.cell_points)                # (nq, 4)
    b = mesh.cell_volume * np.einsum("q,nqc,qm->ncm", quad.cell_weights, vals, mono)
    return b.reshape(-1)


def assemble_oscillatory_load(mesh: HexMesh, xi_values: np.ndarray, k: float,
                              q_f: int = 4) -> np.ndarray:
    """Load vector for the plane-wave-type source
    f_c(x) = exp(i k (1 + xi) x_c) with xi constant per cell."""
    xi = np.asarray(xi_values, dtype=float)
    if xi.shape != (mesh.n_cells,):
        raise ValueError("xi sample must have one value per cell")
    quad = make_quadrature(q_f)
    lowers = mesh.cell_lower(np.arange(mesh.n_cells))
    mono = monomial_values(quad.cell_points)
    b = kernels.oscillatory_load(
        lowers, mesh.h, xi, k, quad.cell_points, quad.cell_weights, mono
    )
    return b.reshape(-1)


def assemble_mode_source(mesh: HexMesh, k: float, eta_values: np.ndarray,
                         e_prev, e_prev2) -> np.ndarray:
    """Load vector of the recursive mode source
    (2 k^2 eta E_prev + k^2 eta^2 E_prev2, basis)_D, exact for the
    piecewise-polynomial integrand.

    For one sample, eta has shape (n_cells,) and the previous modes are
    DGFields; the result has shape (n_dof,).  For a block of B samples,
    eta has shape (n_cells, B) and the previous modes are coefficient
    arrays of shape (n_dof, B), one column per sample; so is the result.
    """
    eta = np.asarray(eta_values, dtype=float)
    if eta.shape[:1] != (mesh.n_cells,) or eta.ndim > 2:
        raise ValueError("eta sample must have one value per cell")
    block = eta.shape[1:]
    prev, prev2 = (_mode_coeffs(mesh, e, block) for e in (e_prev, e_prev2))
    b = kernels.mode_source(prev, prev2, eta, k, mesh.h)
    return b.reshape(12 * mesh.n_cells, *block)


def _mode_coeffs(mesh: HexMesh, e, block: tuple) -> np.ndarray:
    """Cellwise (n_cells, 12, *block) view of a previous mode given as a
    DGField or as an (n_dof, *block) coefficient array."""
    if isinstance(e, DGField):
        if e.mesh is not mesh:
            raise ValueError("mode fields must live on the assembly mesh")
        e = e.coeffs
    coeffs = np.asarray(e, dtype=np.complex128)
    if coeffs.shape != (12 * mesh.n_cells, *block):
        raise ValueError(f"mode coefficients must have shape "
                         f"{(12 * mesh.n_cells, *block)}, got {coeffs.shape}")
    return coeffs.reshape(mesh.n_cells, 12, *block)
