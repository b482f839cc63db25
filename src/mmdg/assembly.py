"""Assembly of the IP-DG system matrices and load vectors.

The assembled matrix decomposes as A = S - i*P with S real symmetric
(curl-curl volume term, consistency fluxes, -k^2 mass) and P real
symmetric positive semidefinite (interior penalties J0, J1 and the
impedance boundary tangential mass scaled by k*lambda).  Because the mesh
is uniform, every local block depends only on the face orientation, so
assembly reduces to scattering a handful of dense blocks.  The face
blocks are built in dg_core, whose DG norm evaluates the same J0 and J1.

A is assembled block by block, with no triplet list.  Each cell has one
12x12 diagonal block (curl-curl - k^2 alpha^2 mass plus the self terms of
its faces), and each interior face couples its two cells by one
off-diagonal block each way (flux - i*penalty; the boundary terms
-i*k*lambda*tangential mass are diagonal).  The blocks are laid out as a
block sparse matrix of A^T in block-column order of A, so one BSR-to-CSR
conversion yields A's CSC arrays; the stored zeros of the dense blocks
are then dropped.  Only A is stored: S and P are its real part and minus
its imaginary part.

The oscillatory load is sum-factorized.  The source component
f_c(x) = exp(i k (1+xi) x_c) depends on x_c alone, and the cell rule is a
q-point tensor Gauss rule in local coordinates t with weights w_t summing
to 1.  With kk = k (1+xi), e_c(t) = exp(i kk (lower_c + h t)) =
exp(i kk lower_c) p(t), p(t) = exp(i kk h t) the same on every axis,
S0 = sum_t w_t p(t) and S1 = sum_t w_t t p(t), the tensor rule gives for
the monomials (1, t_0, t_1, t_2) of component c

    b[4c+0]   = h^3 exp(i kk lower_c) S0
    b[4c+1+c] = h^3 exp(i kk lower_c) S1
    b[4c+1+d] = h^3 exp(i kk lower_c) S0 sum_t w_t t      (d != c),

so a cell and sample cost 3 + q complex exponentials, against q^3 per
component for the tensor rule and 3q for the axes apart.  The sums over t
run in a fixed order on elementwise products, so a block's columns are
bitwise its samples' loads.
The mode source's reference mass matrix is real, so the source is one
broadcast matmul on the float64 view of the complex coefficients; in the
centred monomials (dg_core.CENTRE) the mass is the diagonal
REF_CENTRED_MASS.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .dg_core import (
    REF_MONOMIAL_MASS,
    DGField,
    _boundary_tangential_block,
    _interior_face_blocks,
    curl_vectors,
    gauss01,
    make_quadrature,
    monomial_values,
    ref_mass_12,
)
from .mesh import HexMesh


@dataclass
class SystemMatrix:
    """Sparse complex IP-DG matrix A = S - i P in canonical CSC format
    (sorted indices, no duplicates, no stored zeros).  mirror_mesh is the
    mesh whose three mirrors A commutes with, or None when it need not."""

    matrix: sp.csc_matrix
    mirror_mesh: HexMesh | None = None

    @property
    def s_part(self) -> sp.csc_matrix:
        """S, the real symmetric part of A."""
        return self.matrix.real

    @property
    def p_part(self) -> sp.csc_matrix:
        """P, the real symmetric positive semidefinite part: A = S - i P."""
        return -self.matrix.imag

    def content_hash(self) -> str:
        """sha256 of the canonical CSC arrays: indptr and indices as int64,
        then the complex data."""
        A = self.matrix
        hsh = hashlib.sha256()
        hsh.update(A.indptr.astype(np.int64).tobytes())
        hsh.update(A.indices.astype(np.int64).tobytes())
        hsh.update(A.data.tobytes())
        return hsh.hexdigest()


def _assemble(mesh: HexMesh, k: float, lam: float, gamma0: float,
              gamma1: float, alpha_sq: np.ndarray) -> sp.csc_matrix:
    if k <= 0:
        raise ValueError("wave number k must be positive")
    if lam <= 0:
        raise ValueError("impedance lambda must be positive")
    if gamma0 < 0 or gamma1 < 0:
        raise ValueError("penalty parameters must be nonnegative")
    alpha_sq = np.asarray(alpha_sq, dtype=float)
    nc = mesh.n_cells
    if alpha_sq.shape != (nc,):
        raise ValueError(
            f"coefficient sample must have one value per cell "
            f"({nc}), got shape {alpha_sq.shape}"
        )

    h = mesh.h
    quad = make_quadrature(2)
    mass = ref_mass_12() * mesh.cell_volume
    cv = curl_vectors(h)
    curlcurl = mesh.cell_volume * (cv @ cv.T)

    # diagonal blocks: curl-curl - k^2 alpha^2 mass, plus the self terms of
    # every face.  A cell owns at most one face per axis and neighbors at
    # most one, and has at most one boundary face per (axis, side), so no
    # fancy-indexed group below repeats a cell.
    diag = (curlcurl - (k * k) * alpha_sq[:, None, None] * mass).astype(complex)
    offdiag = []                        # (block rows, block cols, values)
    for axis in range(3):
        flux, j0, j1 = _interior_face_blocks(axis, h, quad)
        blk = flux - 1j * ((gamma0 / h) * j0 + gamma1 * h * j1)
        own, nb = mesh.interior_faces(axis)
        diag[own] += blk[:12, :12]
        diag[nb] += blk[12:, 12:]
        offdiag += [(own, nb, blk[:12, 12:]), (nb, own, blk[12:, :12])]
    for axis in range(3):
        for side in (0, 1):
            blk = _boundary_tangential_block(axis, side, h, quad)
            diag[mesh.boundary_cells(axis, side)] -= 1j * k * lam * blk

    # A block sparse matrix of A^T, its blocks transposed and sorted by
    # block column of A, converts to CSR arrays that are A's CSC arrays.
    cells = np.arange(nc)
    blocks = [(cells, cells, diag), *offdiag]
    brow, bcol = (np.concatenate([b[i] for b in blocks]) for i in (0, 1))
    order = np.lexsort((brow, bcol))
    dest = np.empty_like(order)
    dest[order] = np.arange(len(order))
    data = np.empty((len(order), 12, 12), dtype=complex)
    start = 0
    for rows, _, vals in blocks:
        data[dest[start:start + len(rows)]] = np.swapaxes(vals, -1, -2)
        start += len(rows)
    indptr = np.searchsorted(bcol[order], np.arange(nc + 1))
    n = 12 * nc
    A = sp.bsr_matrix((data, brow[order], indptr), shape=(n, n)).tocsr().T
    A.eliminate_zeros()
    return A


def assemble_a_h(mesh: HexMesh, k: float, lam: float, gamma0: float,
                 gamma1: float) -> SystemMatrix:
    """Sample-independent IP-DG matrix (background coefficient 1).  Its
    coefficients are constant and every boundary face carries the same
    impedance condition, so it commutes with the mesh's mirrors."""
    return SystemMatrix(
        _assemble(mesh, k, lam, gamma0, gamma1, np.ones(mesh.n_cells)),
        mirror_mesh=mesh)


def assemble_standard(mesh: HexMesh, k: float, lam: float, gamma0: float,
                      gamma1: float, alpha_values: np.ndarray) -> SystemMatrix:
    """Per-sample IP-DG matrix with the cellwise-constant coefficient
    alpha^2 in the mass term."""
    alpha = np.asarray(alpha_values, dtype=float)
    return SystemMatrix(_assemble(mesh, k, lam, gamma0, gamma1, alpha * alpha))


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
    f_c(x) = exp(i k (1 + xi) x_c) with xi constant per cell, under the
    q_f-point tensor Gauss rule.

    For one sample, xi has shape (n_cells,) and the result (n_dof,).  For
    a block of B samples, xi has shape (n_cells, B), one column per
    sample, and the result (n_dof, B).
    """
    xi = np.asarray(xi_values, dtype=float)
    if xi.shape[:1] != (mesh.n_cells,) or xi.ndim > 2:
        raise ValueError("xi sample must have one value per cell")
    nc, block, h = mesh.n_cells, xi.shape[1:], mesh.h
    t, w = gauss01(q_f)
    ikk = 1j * k * (1.0 + xi)                                # (nc, *B)
    lowers = mesh.cell_lower(np.arange(nc)).reshape(nc, 3, *(1,) * len(block))
    corner = np.exp(ikk[:, None] * lowers)                   # (nc, 3, *B)
    s0 = s1 = 0.0                                 # S0 and S1, times h^3
    for tq, wq in zip(t, (h ** 3) * w):
        p = np.exp(ikk * (h * tq))                           # (nc, *B)
        s0, s1 = s0 + wq * p, s1 + (wq * tq) * p
    b = np.empty((nc, 3, 4, *block), dtype=np.complex128)
    b[:, :, 0] = corner * s0[:, None]
    b[:, :, 1:] = (b[:, :, 0] * np.dot(w, t))[:, :, None]
    for a in range(3):
        b[:, a, 1 + a] = corner[:, a] * s1
    return b.reshape(12 * nc, *block)


def assemble_mode_source(mesh: HexMesh, k: float, eta_values: np.ndarray,
                         e_prev, e_prev2,
                         mass: np.ndarray = REF_MONOMIAL_MASS) -> np.ndarray:
    """Load vector of the recursive mode source
    (2 k^2 eta E_prev + k^2 eta^2 E_prev2, basis)_D, exact for the
    piecewise-polynomial integrand.

    For one sample, eta has shape (n_cells,) and the previous modes are
    DGFields; the result has shape (n_dof,).  For a block of B samples,
    eta has shape (n_cells, B) and the previous modes are coefficient
    arrays of shape (n_dof, B), one column per sample; so is the result.
    mass is the reference cell mass of the local basis the coefficients
    and the result are in: REF_MONOMIAL_MASS for the monomials, and
    REF_CENTRED_MASS for the centred monomials of the centred recursion
    (coefficient arrays only; a DGField is in monomials).
    """
    eta = np.asarray(eta_values, dtype=float)
    if eta.shape[:1] != (mesh.n_cells,) or eta.ndim > 2:
        raise ValueError("eta sample must have one value per cell")
    block = eta.shape[1:]
    prev, prev2 = (_mode_coeffs(mesh, e, block) for e in (e_prev, e_prev2))
    k2, eta = k * k, eta[:, None]
    w = (2.0 * k2 * eta) * prev + (k2 * eta * eta) * prev2
    # (nc, 3, 4, 2B) float64 view; one sample is a block of width 1
    w = np.ascontiguousarray(w.reshape(mesh.n_cells, 3, 4, -1)).view(np.float64)
    b = (mesh.h ** 3) * np.matmul(mass, w)
    return b.view(np.complex128).reshape(12 * mesh.n_cells, *block)


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
