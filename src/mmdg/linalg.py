"""Sparse complex LU factorization reusable across many right-hand sides.

Backed by SuperLU via scipy; the factorization object is immutable after
construction and every solve is a pair of triangular substitutions, for
one right-hand side or a block of them at once.

The deterministic IP-DG matrix A_h (uniform mesh of the unit cube,
constant coefficients, the same impedance condition on all six faces)
commutes with the cube's three mirrors x_a -> 1 - x_a, with its axis
swaps and with its axis cycle x -> y -> z -> x.  Its SystemMatrix names
that mesh, and such a matrix is factored in the mesh's mirror basis Q =
C S: C centres each cell's monomials (dg_core.CENTRE, one 4x4 per
component), and in the centred monomials each mirror is a signed
permutation of the dofs, whose orbit sums S, which mirror_orbits
tabulates, make B = Q^T A Q 8 independent sector blocks, one per parity
under the mirrors.  Two of a sector's three parities agree, so the swap
of those two axes permutes the sector's columns (pair), and U, whose
columns are the pairs' sums and differences over sqrt 2, splits each
sector into its swap-even and swap-odd halves.  The cycle fixes sectors
0 and 7 and carries 1 to 2 to 4 and 3 to 6 to 5; mirror_orbits numbers
2, 6 and 4, 5 as the images of 1 and 3, and U orders its halves in four
chunks of sectors, [0, 7 | 1, 3 | 2, 6 | 4, 5], so that (QU)^T A QU =
diag(D_07, D_13, D_13, D_13).  half_blocks, the one fold, builds U and
the distinct half-blocks D_07 and D_13, each of n/4 columns, from the
12x12 cell blocks of A at the representative cells, and checks that
identity on 4 fixed random columns, so an A that does not commute with
the mirrors, the swaps and the cycle, and a wrong orbit, pairing or cycle
numbering, are refused with ValueError.

MirrorLU is the whole mirror solve, S U D^{-1} U^T S^T b~ in centred
coefficients.  S's entries are +-1 and U's +-1 or +-1/sqrt 2, so S, U and
their transposes are float64 and each acts on the (n, 2B) float64 view of
a C-contiguous complex block: half the flops of a complex product, with
bitwise the same result.  A Factorization is a factor, a MirrorLU or A's
own SuperLU, and the per-cell change of basis T of its solve, x = T
lu.solve(T^T b): T = C on factorize's mirror factor, which solves A, and
none on its centred view centred(fact), which shares the factors and
solves in centred coefficients x~ = C^-1 x, b~ = C^T b.

A_h, each sample's A(alpha), and so D_07 and D_13, are complex
symmetric, A = A^T, and every splu call factors them as such: minimum
degree on A + A^T (MMD_AT_PLUS_A), SuperLU's symmetric mode, and a pivot
that stays on the diagonal unless it is below DIAG_PIVOT_THRESH of its
column's largest entry.  mirror_orbits numbers the columns of sectors 0,
7, 1 and 3 by representative cell in index order, and U's columns go by
half, then by their lead columns min(j, pair[j]); the ordering never
joins two halves.  SuperLU.nnz, summed over the two parts, is 5 728 at
L=4, 41 840 at L=6 and 169 822 at L=8, against 123 034, 985 686 and
3 761 456 for the coupled factor of A_h; it can move with round-off in
D, through pivoting.

one_blas_thread holds every OpenBLAS the process has mapped at one thread
while a driver runs: SuperLU's dense kernels call scipy's OpenBLAS, whose
idle workers otherwise share the cores with the factorization, and whose
rounding, and so the factors, depend on the thread count.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .dg_core import CENTRE, N_LOCAL

# Largest gap (QU)^T A QU V - D V half_blocks accepts, relative to
# max|A| max|V|: round-off on A_h reads <= 5.6e-15 (L <= 8, three
# parameter sets; 3.8e-15 at L = 10, 5.4e-15 at L = 12, 4.2e-15 at L = 16),
# and <= 4.5e-15 with every column its own image (L <= 12); moving one
# entry of A by 1e-11 max|A| reads >= 9.4e-13 unless the entry stays in
# one half of sector 0 or 7 (every entry at L <= 2, 300 sampled at L = 3,
# 4, 5).
MIRROR_TOL = 2e-13
# Half-block entries at most this fraction of the largest are round-off.
ROUNDOFF = 1e-14
# A pivot stays on the diagonal unless it is below this fraction of its
# column's largest entry.  At the default parameters every pivot of A_h's
# parts stays there (L = 3-8).  Over k in {0.5, 2, 8, 20}, lambda in {0.1,
# 1, 10}, gamma0 in {0, 1, 10, 100}, gamma1 in {0, 0.1, 1} at L = 3, 4, a
# threshold of 0 raises |A x - b| / |b| up to 55x over full partial
# pivoting where gamma0 = 0 (to 3.8e-12); 0.1 stays within 2.1x.
DIAG_PIVOT_THRESH = 0.1


# (setter, getter) names an OpenBLAS build exports: scipy's wheel, numpy's
# 64-bit-integer wheel, a system library
_THREAD_SYMBOLS = [(f"{p}_set_num_threads{s}", f"{p}_get_num_threads{s}")
                   for p in ("scipy_openblas", "openblas") for s in ("", "64_")]


class SingularMatrixError(RuntimeError):
    """Raised when the system matrix is numerically singular.  This
    signals a configuration error: the IP-DG system is provably uniquely
    solvable for valid parameters."""


@dataclass(frozen=True)
class MirrorLU:
    """The whole mirror solve, in centred coefficients: S U D^-1 U^T S^T
    b~, where (QU)^T A QU = D = diag(D_07, D_13, D_13, D_13) (see
    half_blocks).  parts holds one SuperLU each of D_07 and D_13, basis the
    signed orbit sums (S, S^T) and halves the orthogonal (U, U^T) that
    splits each mirror sector by an axis swap, all float64.  D^-1 is
    written in place into U^T S^T b~: D_07's factor solves chunk 0, and
    D_13's chunks 1, 2 and 3 stacked side by side, in one call, each on a
    copy SuperLU makes of its right-hand side.  nnz, L and U are those of
    diag(D_07, D_13)'s factor, each stored entry once: the parts' sums and
    block diagonals, L and U built on read as SuperLU's are."""

    parts: tuple[spla.SuperLU, spla.SuperLU]
    basis: tuple[sp.csr_matrix, sp.csr_matrix]    # (S, S^T)
    halves: tuple[sp.csr_matrix, sp.csr_matrix]   # (U, U^T)

    @property
    def nnz(self) -> int:
        return sum(part.nnz for part in self.parts)

    @property
    def L(self) -> sp.csc_matrix:
        return sp.block_diag([part.L for part in self.parts], format="csc")

    @property
    def U(self) -> sp.csc_matrix:
        return sp.block_diag([part.U for part in self.parts], format="csc")

    def solve(self, b: np.ndarray) -> np.ndarray:
        (S, St), (U, Ut) = self.basis, self.halves
        (n07, _), (n13, _) = (part.shape for part in self.parts)
        y = _real_times(Ut, _real_times(St, b))
        cols = y.reshape(len(y), -1)
        B = cols.shape[1]
        cols[:n07] = self.parts[0].solve(cols[:n07])
        # column k B + b of the stacked block is column b of chunk k + 1
        chunks = cols[n07:].reshape(3, n13, B)
        chunks[:] = self.parts[1].solve(
            chunks.transpose(1, 0, 2).reshape(n13, 3 * B)).reshape(
            n13, 3, B).transpose(1, 0, 2)
        return _real_times(S, _real_times(U, y))


@dataclass(frozen=True)
class Factorization:
    """Stored sparse LU factors and the per-cell change of basis T of
    their solve, x = T lu.solve(T^T b) (T applied per_cell; None is the
    identity).  For a mirror-invariant A, lu is the MirrorLU of its mirror
    basis and distinct half_blocks, which solves C^-1 A^-1 C^-T with C =
    CENTRE: factorize sets T = CENTRE, which solves A, and its centred view
    T = None, which solves the centred system.  Otherwise lu is A's
    SuperLU, and T = None solves A, T = CENTRE^-1 the centred system."""

    lu: "spla.SuperLU | MirrorLU"
    n: int
    nnz: int                                  # of A
    cell_basis: np.ndarray | None = None      # T, 4x4 per component

    @property
    def stats(self) -> dict:
        """The column ordering (minimum degree, "mmd", for every factor),
        nnz of A and the entries SuperLU stores for L and U, the explicit
        zeros of its supernodes included; read without copying the
        factors, unlike lu.L and lu.U."""
        return {"ordering": "mmd", "nnz_A": self.nnz, "nnz_LU": self.lu.nnz}


def factorize(A) -> Factorization:
    """Factor a sparse complex matrix, or a SystemMatrix wrapper; one that
    names a mirror_mesh is factored as its two distinct half_blocks, one
    SuperLU each.  Every splu call orders by minimum degree on A + A^T,
    with SuperLU's symmetric mode and diagonal pivots down to
    DIAG_PIVOT_THRESH, the treatment of a complex-symmetric A = A^T;
    another matrix is still factored, with off-diagonal pivots."""
    mat = getattr(A, "matrix", A)
    if mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix must be square")
    mat = sp.csc_matrix(mat, dtype=np.complex128)
    n, nnz = mat.shape[0], mat.nnz
    mesh = getattr(A, "mirror_mesh", None)
    blocks, cell_basis = (mat,), None
    if mesh is not None:
        if N_LOCAL * mesh.n_cells != n:
            raise ValueError(f"mirror_mesh has {N_LOCAL * mesh.n_cells} "
                             f"dofs, the matrix {n}")
        orbits = mirror_orbits(mesh)
        blocks, U = half_blocks(mat, orbits)
        cell_basis = CENTRE
    options = dict(SymmetricMode=True, DiagPivotThresh=DIAG_PIVOT_THRESH)
    try:
        parts = tuple(spla.splu(block, permc_spec="MMD_AT_PLUS_A",
                                options=options) for block in blocks)
    except RuntimeError as exc:
        raise SingularMatrixError(
            f"sparse LU failed, matrix is numerically singular: {exc}"
        ) from exc
    lu = parts[0] if mesh is None else MirrorLU(
        parts, (orbits.S, orbits.S.T.tocsr()), (U, U.T.tocsr()))
    return Factorization(lu=lu, n=n, nnz=nnz, cell_basis=cell_basis)


def centred(fact: Factorization) -> Factorization:
    """The view of fact that solves in centred coefficients, x~ = C^-1
    A^-1 C^-T b~ with C = CENTRE: the same factors, cell_basis C^-1 T."""
    T = _UNCENTRE if fact.cell_basis is None else _UNCENTRE @ fact.cell_basis
    return replace(fact, cell_basis=None if np.array_equal(T, np.eye(4))
                   else T)


def per_cell(T: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(I (x) T) x: the 4x4 T applied to the 4 coefficients of each cell
    and component of x, of shape (n,) or (n, B), real or complex (on its
    float64 view), by one stacked matmul; a block's columns come out
    bitwise those of single columns."""
    c = np.ascontiguousarray(x.reshape(len(x), -1))
    v = c.view(np.float64) if np.iscomplexobj(c) else c
    out = np.matmul(T, v.reshape(len(x) // 4, 4, -1)).reshape(v.shape)
    return out.view(c.dtype).reshape(x.shape)


# CENTRE^-1, exactly: centred(fact) of factorize's mirror factor has T = I
_UNCENTRE = np.eye(4) + np.outer([0.5, 0, 0, 0], [0, 1, 1, 1])
# _MIRROR_ODD[a, loc]: mirror a flips centred dof loc = (c, m) if c = a xor m = a+1
_MIRROR_ODD = np.array([[(loc // 4 == a) ^ (loc % 4 == a + 1)
                         for loc in range(N_LOCAL)] for a in range(3)])
# _SWAP[s]: the axis swap that fixes sector s, as a permutation of the
# axes; it swaps two axes whose bits in s agree: y, z if they can, else x, z
_SWAP = np.array([[0, 2, 1] if s >> 1 & 1 == s >> 2 & 1 else
                  [2, 1, 0] if s & 1 == s >> 2 & 1 else [1, 0, 2]
                  for s in range(8)])
# The axis cycle x -> y -> z -> x fixes sectors 0 and 7 and carries 1 to 2
# to 4 and 3 to 6 to 5: sector s is the _TURNS[s]-th image of _LEAD[s].
# U's halves go by sector in the chunks of _CHUNKS, each row after the
# second the image of the row before, so only the first two are folded.
_LEAD = np.array([0, 1, 1, 3, 1, 3, 3, 7])
_TURNS = np.array([0, 0, 1, 0, 2, 2, 1, 0])
_CHUNKS = np.array([[0, 7], [1, 3], [2, 6], [4, 5]])


class MirrorOrbits(NamedTuple):
    """The signed orbit matrix S of the mirror basis Q = C S, in centred
    coefficients (C = CENTRE per cell).  Column j of S sums a centred dof
    over its mirror images with signs +-1, so that it is odd under mirror
    a exactly when bit a of its sector is set.  In one sector S has at
    most one entry per row, and it is 1 at the orbit's representative,
    its cell of least index along each axis; a row has at most 8 entries,
    one per sector, in increasing column order.  The axis swap _SWAP[s]
    permutes sector s's columns with sign +1: pair[j] is column j's image,
    and pair[pair[j]] = j.  The axis cycle x -> y -> z -> x maps the column
    of sector s at (cell, loc) to the one of its image sector at their
    images, with sign +1 and, for s = 1, 3, 2, 6, the same index within its
    sector.  half_blocks folds D_07 and D_13 from column, sign, rep, size,
    sector and pair, and checks them against C S."""

    S: sp.csr_matrix    # canonical CSR, written in row order
    column: np.ndarray  # (n_cells, 8, 12) column of S at (cell, sector, loc)
    sign: np.ndarray    # S's entry there: +-1, or 0 if none
    sector: np.ndarray  # (n,) sector of each column, columns grouped by it
    rep: np.ndarray     # (n_cells,) representative of each cell's orbit
    size: np.ndarray    # (n_cells,) number of cells in each cell's orbit
    pair: np.ndarray    # (n,) image of each column under its sector's swap


def mirror_orbits(mesh) -> MirrorOrbits:
    """Orbit table of the mesh's mirrors.  Along one axis, cells i and
    L-1-i make an even and an odd combination numbered min(i, L-1-i), the
    odd one weighing cell i by sign(L-1-2i): a mid-plane cell has none, so
    S stays square.  The representatives fill an R^3 box, R = (L+1)//2.
    The columns of sectors 0, 7, 1 and 3 go by representative in index
    order of that box, then by local dof; sector s = 2, 6 or 4, 5, the
    image of 1 or 3 under the axis cycle to the power _TURNS[s], gives
    the column at the images of (representative c, loc) the index within
    its sector of the one at (c, loc).  A sector's swap maps the column
    at (representative c, loc) to the one at (swapped c, swapped loc),
    read off the same numbering.  Row (cell, loc) of S holds sign[cell, s,
    loc] at column[cell, s, loc] for the sectors s where the sign is not
    0; the sectors' columns are grouped in sector order, so S's CSR arrays
    are written row by row with no sort."""
    L, n = mesh.L, N_LOCAL * mesh.n_cells
    R = (L + 1) // 2
    i = np.arange(L)
    ijk = np.stack(np.unravel_index(np.arange(mesh.n_cells), (L,) * 3))
    half = np.minimum(i, L - 1 - i)[ijk]                     # (3, n_cells)
    weight = np.array([np.ones(L), np.sign(L - 1 - 2 * i)])  # [parity, i]
    parity = (np.arange(8)[:, None, None] >> np.arange(3) & 1) ^ _MIRROR_ODD.T
    ncol = np.array([R, L // 2])[parity]               # (sector, loc, axis)
    box = np.stack(np.unravel_index(np.arange(R ** 3), (R,) * 3), axis=1)
    at = np.arange(R ** 3).reshape((R,) * 3)    # each one's place in box

    def carry(perm):
        """Where each sector's axis permutation perm[s] (axis a to
        perm[s, a]) takes each representative, as its place in box
        (8, R^3), and each local dof (8, 12)."""
        cells = at[tuple(np.moveaxis(box.T[np.argsort(perm, axis=1)], 1, 0))]
        locs = 4 * perm[:, :, None] + np.hstack([np.zeros((8, 1), int),
                                                 perm + 1])[:, None]
        return cells, locs.reshape(8, N_LOCAL)

    # has[s, c, loc]: the c-th representative has a column in (s, loc)
    has = np.all(box[:, None] < ncol[:, None], axis=3)
    count = has.sum(axis=(1, 2))
    # a lead sector counts its columns in order; sector s gives the column
    # at (c, loc) the index its lead has at their image under the cycle
    # to the power -_TURNS[s]
    own = np.cumsum(has.reshape(8, -1), axis=1).reshape(has.shape) - 1
    back, back_loc = carry((np.arange(3) - _TURNS[:, None]) % 3)
    num = (np.cumsum(count) - count)[:, None, None] + own[
        _LEAD[:, None, None], back[:, :, None], back_loc[:, None]]
    column = num[:, at[tuple(half)]].transpose(1, 0, 2)
    image, image_loc = carry(_SWAP)
    pair = np.empty(n, dtype=np.intp)
    pair[num[has]] = num[np.arange(8)[:, None, None], image[:, :, None],
                         image_loc[:, None]][has]
    sign = np.prod(weight[parity, ijk.T[:, None, None, :]], axis=3)
    by_row = sign.transpose(0, 2, 1) != 0             # (cell, loc, sector)
    S = sp.csr_matrix((sign.transpose(0, 2, 1)[by_row],
                       column.transpose(0, 2, 1)[by_row],
                       np.concatenate([[0], np.cumsum(by_row.sum(axis=2))])),
                      shape=(n, n))
    return MirrorOrbits(
        S=S, column=column, sign=sign,
        sector=np.repeat(np.arange(8), count),
        rep=np.ravel_multi_index(half, (L,) * 3),
        size=2 ** np.count_nonzero(2 * ijk != L - 1, axis=0), pair=pair)


def half_blocks(mat, orbits: MirrorOrbits) -> tuple[
        tuple[sp.csc_matrix, sp.csc_matrix], sp.csr_matrix]:
    """((D_07, D_13), U): the orthogonal U that splits each sector of B =
    Q^T A Q into its swap-even and swap-odd halves, 16 in all, and the
    distinct diagonal blocks of (QU)^T A QU, which for an A that commutes
    with the mirrors, the swaps and the axis cycle is diag(D_07, D_13,
    D_13, D_13).  For a pair j < k = pair[j], U has the columns
    (e_j +- e_k)/sqrt 2, for a fixed point e_j in the even half.  One sort
    numbers them: by half, 2 (place of the sector in _CHUNKS) + 1 if odd,
    then by lead column min(j, pair[j]), so that chunk k >= 2 is the image
    of chunk k - 1 row for row.  D_07 and D_13, the halves of sectors 0, 7
    and 1, 3, are folded with no n-by-n product, as the transpose of the
    fold of A^T, from the lead rows of B^T = Q^T A^T Q in those sectors:
    B^T commutes with the swap, so row (j, +-) of the fold is B^T[j, k] +-
    B^T[j, pair[k]], times a power of sqrt 2.  Those rows come from the
    block rows of A^T at the representative cells, that is A's block
    columns there: for a mirror-invariant A, A_c = C^T A^T C gives A_c S_s
    = S_s X_s, with S_s's columns orthogonal, so S_s^T A_c S_s = diag(size)
    X_s, and row j of X_s is row r_j of A_c S_s, r_j the dof where column
    j's S_s is 1 at its representative cell.  Entries at most ROUNDOFF of
    the largest are dropped.  Last, (QU)^T A QU V is checked against D_07
    on chunk 0 of V and D_13 on each of chunks 1, 2, 3, for a fixed block
    V of 4 normal columns (Freivalds' method), with Q = C S applied as S,
    then C per_cell: A, or a wrong orbit, pairing or cycle numbering, is
    refused beyond MIRROR_TOL of max|A| max|V|."""
    n, nc = mat.shape[0], orbits.rep.size
    j = np.arange(n)
    lo, hi = np.minimum(j, orbits.pair), np.maximum(j, orbits.pair)
    lead, paired = lo == j, lo != hi
    # U's columns go by half, then by lead column: an orbit's lead column
    # lo numbers its even column, hi its odd one
    place = np.argsort(_CHUNKS, axis=None)[orbits.sector]
    at = np.empty(n, dtype=np.intp)
    at[np.lexsort((lo, 2 * place + ~lead))] = j
    even, odd = at[lo], np.where(paired, at[hi], -1)
    root = np.where(paired, np.sqrt(0.5), 1.0)     # U[j, even[j]]
    sgn = np.where(lead, 1.0, -1.0)                # U[j, odd[j]] / sqrt 1/2
    U = sp.csr_matrix((np.concatenate([root, sgn[paired] * np.sqrt(0.5)]),
                       (np.concatenate([j, j[paired]]),
                        np.concatenate([even, odd[paired]]))), shape=(n, n))
    # A^T's block rows at the representative cells p, cut from A's CSC
    # arrays; K is the block at (p, q)
    reps = np.flatnonzero(orbits.rep == np.arange(nc))
    dofs = (N_LOCAL * reps[:, None] + np.arange(N_LOCAL)).ravel()
    At = mat[:, dofs].T.tobsr(blocksize=(N_LOCAL, N_LOCAL))
    p, q = np.repeat(reps, np.diff(At.indptr)), At.indices
    K = At.data                                 # K becomes C^T K C:
    for part in (K.reshape(-1, 4), K.reshape(-1, 4, N_LOCAL)):
        part[:, 1:] -= 0.5 * part[:, :1]      # (c, m>0) less half of (c, 0)
    # the rows of the folded sectors 0, 7, 1, 3 only
    column, sign = (t[:, _CHUNKS[:2].ravel()] for t in (orbits.column,
                                                         orbits.sign))
    is_lead = (sign != 0) & lead[column]
    blk, sec, i, jj = np.nonzero((K != 0)[:, None]
                                 & is_lead[p][..., None]
                                 & (sign[q] != 0)[:, :, None, :])
    r, c = column[p[blk], sec, i], column[q[blk], sec, jj]
    v = K[blk, i, jj] * orbits.size[p[blk]] * sign[q[blk], sec, jj]
    both = paired[r] & paired[c]
    # the blocks of one column orbit land on the same entries, summed here;
    # (r, c) of the fold of A^T is (c, r) of D
    chunk = np.bincount(place // 2, minlength=4)   # n_07, then 3 times n_13
    m = chunk[0] + chunk[1]
    D = sp.csc_matrix(
        (np.concatenate([v * (root[c] / root[r]), (v * sgn[c])[both]]),
         (np.concatenate([even[c], odd[c[both]]]),
          np.concatenate([even[r], odd[r[both]]]))), shape=(m, m))
    D.data[np.abs(D.data) <= ROUNDOFF * np.abs(D.data).max(initial=0.0)] = 0
    D.eliminate_zeros()
    blocks = D[:chunk[0], :chunk[0]], D[chunk[0]:, chunk[0]:]
    V = np.random.default_rng(0).standard_normal((n, 4))
    QU_V = per_cell(CENTRE, orbits.S @ (U @ V))
    QUt_A_QU_V = _real_times(U.T, _real_times(
        orbits.S.T, per_cell(CENTRE.T, mat @ QU_V)))
    DV = np.concatenate([blocks[min(k, 1)] @ part for k, part in
                         enumerate(np.split(V, np.cumsum(chunk)[:-1]))])
    gap = np.abs(QUt_A_QU_V - DV).max()
    scale = np.abs(mat.data).max(initial=0.0) * np.abs(V).max()
    if gap > MIRROR_TOL * scale:
        raise ValueError(f"matrix is not mirror-invariant, not swap-"
                         f"invariant or not cycle-invariant: (QU)^T A QU V "
                         f"misses D V by {gap / scale:.1e} of max|A| max|V|")
    return blocks, U


@functools.cache
def openblas_pools() -> tuple | None:
    """(set_num_threads, get_num_threads) of every OpenBLAS mapped into
    the process, read once from /proc/self/maps; None when there is no
    such map or an OpenBLAS cannot be opened or has no known setter."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(None, 5)[-1].strip() for line in maps}
    except OSError:
        return None
    pools = []
    for path in sorted(p for p in paths
                       if "openblas" in os.path.basename(p).lower()):
        try:
            lib = ctypes.CDLL(path)
        except OSError:                  # e.g. "... .so (deleted)"
            return None
        names = next((n for n in _THREAD_SYMBOLS
                      if all(hasattr(lib, name) for name in n)), None)
        if names is None:
            return None
        set_threads, get_threads = (getattr(lib, name) for name in names)
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        pools.append((set_threads, get_threads))
    return tuple(pools) or None


# OpenBLAS's thread counts are per process, and so is this record: the
# number of open one_blas_thread blocks and the counts the first replaced.
_pool_lock = threading.Lock()
_pool_users = 0
_pool_saved: list[int] = []


@contextmanager
def one_blas_thread():
    """Hold every OpenBLAS at one thread inside the block, restoring each
    one's previous count on leaving it, also by a raise; yields 1, or
    "unmanaged" (changing nothing) where openblas_pools is None.  Blocks
    may overlap on several Python threads: the first entry sets the counts
    and the last exit restores them."""
    global _pool_users
    pools = openblas_pools()
    if pools is None:
        yield "unmanaged"
        return
    with _pool_lock:
        if _pool_users == 0:
            _pool_saved[:] = [get() for _, get in pools]
            for set_threads, _ in pools:
                set_threads(1)
        _pool_users += 1
    try:
        yield 1
    finally:
        with _pool_lock:
            _pool_users -= 1
            if _pool_users == 0:
                for (set_threads, _), n in zip(pools, _pool_saved):
                    set_threads(n)


def backward_error(A, x: np.ndarray, b: np.ndarray) -> float:
    """||A x - b|| / ||b|| in the 2-norm, for a sparse A or a SystemMatrix
    wrapper and one right-hand side; 0 for b = 0."""
    norm_b = np.linalg.norm(b)
    return float(np.linalg.norm(getattr(A, "matrix", A) @ x - b) / norm_b
                 if norm_b else 0.0)


def solve(fact: Factorization, b: np.ndarray) -> np.ndarray:
    """Forward/backward substitution against the stored factors, for one
    right-hand side of shape (n,) or a block of them of shape (n, B):
    x = T lu.solve(T^T b), T the factor's cell_basis (see Factorization)."""
    b = np.asarray(b, dtype=np.complex128)
    if b.ndim not in (1, 2) or b.shape[0] != fact.n:
        raise ValueError(
            f"right-hand side must have shape ({fact.n},) or ({fact.n}, B), "
            f"got {b.shape}"
        )
    T = fact.cell_basis
    if T is None:
        return fact.lu.solve(b)
    return per_cell(T, fact.lu.solve(per_cell(T.T, b)))


def _real_times(Q: sp.csr_matrix, b: np.ndarray) -> np.ndarray:
    """Q @ b for a float64 Q (S, U, or a transpose) and a complex b of
    shape (n,) or (n, B), as one real product on b's float64 view; a
    non-C-contiguous b (a strided or Fortran-order block) is copied first,
    as a complex product would."""
    c = np.ascontiguousarray(b if b.ndim == 2 else b[:, None])
    return (Q @ c.view(np.float64)).view(np.complex128).reshape(b.shape)
