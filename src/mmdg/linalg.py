"""Sparse complex LU factorization reusable across many right-hand sides.

Backed by SuperLU via scipy with partial pivoting; the factorization object
is immutable after construction and every solve is a pair of triangular
substitutions, for one right-hand side or a block of them at once.

The deterministic IP-DG matrix A_h (uniform mesh of the unit cube,
constant coefficients, the same impedance condition on all six faces)
commutes with the cube's three mirrors x_a -> 1 - x_a and with its axis
swaps.  Its SystemMatrix names that mesh, and such a matrix is factored
in the mesh's mirror basis Q, which mirror_orbits tabulates: B = Q^T A Q
is 8 independent sector blocks, one per parity under the mirrors.  Two of
a sector's three parities agree, so the swap of those two axes permutes
the sector's columns (pair), and U, whose columns are the pairs' sums and
differences over sqrt 2, splits each sector into its swap-even and
swap-odd halves.  half_blocks, the one fold, builds U and the 16 diagonal
blocks B_h of (QU)^T A QU, each about 1/16 of A, from the 12x12 cell
blocks of A at the representative cells; one SuperLU holds them.  A solve is
x = Q U B_h^{-1} U^T Q^T b, right only if (QU)^T A QU = B_h; half_blocks
checks that identity on 4 fixed random columns, so an A that does not
commute with the mirrors and the swaps, and a wrong orbit or pairing
table, are refused with ValueError.  Q's entries are real (+-1, +-1/2),
and U's (+-1, +-1/sqrt 2), so Q, U and their transposes are float64 and
each acts on the (n, 2B) float64 view of a C-contiguous complex block:
half the flops of a complex product, with bitwise the same result.

mirror_orbits numbers each sector's columns by nested dissection of its
cell grid at every L, and U's columns go by half, then by their lead
columns min(j, pair[j]).  From L = NESTED_MIN_L = 5 on, SuperLU
keeps that order (NATURAL); below, it reorders B_h by minimum degree on
B_h + B_h^T (MMD_AT_PLUS_A).  Neither joins two blocks.  SuperLU.nnz is
106 748 at L=6 and 430 668 at L=8, against 170 432 and 709 184 for the 8
sector blocks and 1 004 072 and 3 787 360 for the coupled factor of A_h;
it can move with round-off in B_h, through pivoting.

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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .dg_core import N_LOCAL

# Largest gap (QU)^T A QU V - B_h V half_blocks accepts, relative to
# max|A| max|V|: round-off on A_h reads <= 6.0e-15 (L <= 8; 3.8e-15 at
# L = 10, 12, 16), and <= 7.0e-15 with U = I (L <= 20); moving one entry of
# A by 1e-11 max|A| reads >= 1.2e-12 unless the entry stays in one half
# (every entry at L <= 2, 300 sampled at L = 3, 4, 5).
MIRROR_TOL = 2e-13
# Half-block entries at most this fraction of the largest are round-off.
ROUNDOFF = 1e-14
# From this L on SuperLU keeps the halves' nested-dissection order.  At
# L=4 minimum degree stores less (SuperLU.nnz 14 798 against 15 293) and
# solves 16 columns faster (0.39 against 0.44 ms, best of 7, 2 vCPUs).
# The best order is not monotone in L: NATURAL also wins at L=3 (3 060
# against 4 270), but only tests run L=3, so one threshold is kept.
NESTED_MIN_L = 5


# (setter, getter) names an OpenBLAS build exports: scipy's wheel, numpy's
# 64-bit-integer wheel, a system library
_THREAD_SYMBOLS = [(f"{p}_set_num_threads{s}", f"{p}_get_num_threads{s}")
                   for p in ("scipy_openblas", "openblas") for s in ("", "64_")]


class SingularMatrixError(RuntimeError):
    """Raised when the system matrix is numerically singular.  This
    signals a configuration error: the IP-DG system is provably uniquely
    solvable for valid parameters."""


@dataclass(frozen=True)
class Factorization:
    """Stored sparse LU factors P B Pc = L U.  For a mirror-invariant A,
    B is the block-diagonal half_blocks of A, basis holds its mirror basis
    (Q, Q^T) and halves the orthogonal (U, U^T) that splits each mirror
    sector by an axis swap, all float64, so that A^-1 = Q U B^-1 U^T Q^T;
    otherwise B is A and basis and halves are None."""

    lu: "spla.SuperLU"
    n: int
    nnz: int                                  # of A
    basis: tuple[sp.csr_matrix, sp.csr_matrix] | None = None   # (Q, Q^T)
    halves: tuple[sp.csr_matrix, sp.csr_matrix] | None = None  # (U, U^T)
    ordering: str = "mmd"                     # or "nested_dissection"

    @property
    def stats(self) -> dict:
        """The column ordering, nnz of A and the entries SuperLU stores
        for L and U, the explicit zeros of its supernodes included; read
        without copying the factors, unlike lu.L and lu.U."""
        return {"ordering": self.ordering, "nnz_A": self.nnz,
                "nnz_LU": self.lu.nnz}


def factorize(A) -> Factorization:
    """Factor a sparse complex matrix, or a SystemMatrix wrapper; one that
    names a mirror_mesh is factored as its 16 half_blocks in one SuperLU,
    in the column order of mirror_orbits from L = NESTED_MIN_L on."""
    mat = getattr(A, "matrix", A)
    if mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix must be square")
    mat = sp.csc_matrix(mat, dtype=np.complex128)
    n, nnz = mat.shape[0], mat.nnz
    basis = halves = None
    ordering = "mmd"
    if getattr(A, "mirror_mesh", None) is not None:
        orbits = mirror_orbits(A.mirror_mesh)
        mat, U = half_blocks(mat, orbits)
        basis = (orbits.Q, orbits.Q.T.tocsr())
        halves = (U, U.T.tocsr())
        if A.mirror_mesh.L >= NESTED_MIN_L:
            ordering = "nested_dissection"
    try:
        lu = spla.splu(mat, permc_spec={"mmd": "MMD_AT_PLUS_A",
                                        "nested_dissection": "NATURAL"}[ordering])
    except RuntimeError as exc:
        raise SingularMatrixError(
            f"sparse LU failed, matrix is numerically singular: {exc}"
        ) from exc
    return Factorization(lu=lu, n=n, nnz=nnz, basis=basis, halves=halves,
                         ordering=ordering)


# the per-cell centring C: centred local dof (c, m>0) is e_c (x_m - 1/2)
_CENTRE = np.eye(N_LOCAL) - np.kron(np.eye(3), np.outer([0.5, 0, 0, 0],
                                                        [0, 1, 1, 1]))
# _MIRROR_ODD[a, loc]: mirror a flips centred dof loc = (c, m) if c = a xor m = a+1
_MIRROR_ODD = np.array([[(loc // 4 == a) ^ (loc % 4 == a + 1)
                         for loc in range(N_LOCAL)] for a in range(3)])
# _SWAP[s]: the axis swap that fixes sector s, as a permutation of the
# axes; it swaps two axes whose bits in s agree: y, z if they can, else x, z
_SWAP = np.array([[0, 2, 1] if s >> 1 & 1 == s >> 2 & 1 else
                  [2, 1, 0] if s & 1 == s >> 2 & 1 else [1, 0, 2]
                  for s in range(8)])
# _SWAP_LOC[s, loc]: the local dof that swap carries loc = (c, m) to
_SWAP_LOC = (4 * _SWAP[:, :, None]
             + np.hstack([np.zeros((8, 1), int), _SWAP + 1])[:, None]
             ).reshape(8, N_LOCAL)


class MirrorOrbits(NamedTuple):
    """The mirror basis Q = C S.  Column j of the signed orbit matrix S
    sums a centred dof over its mirror images with signs +-1, so that it
    is odd under mirror a exactly when bit a of its sector is set.  In one
    sector S has at most one entry per row, and it is 1 at the orbit's
    representative, its cell of least index along each axis.  The axis
    swap _SWAP[s] permutes sector s's columns with sign +1: pair[j] is
    column j's image, and pair[pair[j]] = j.  half_blocks folds B_h from
    column, sign, rep, size, sector and pair, and checks it against Q."""

    Q: sp.csr_matrix    # canonical CSR
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
    Q stays square.  The representatives fill an R^3 box, R = (L+1)//2,
    and a sector's columns go by representative in nested-dissection
    order of that box, then by local dof.  A sector's swap maps the
    column at (representative c, loc) to the one at (swapped c, swapped
    loc), read off the same numbering."""
    L, n = mesh.L, N_LOCAL * mesh.n_cells
    R = (L + 1) // 2
    i = np.arange(L)
    ijk = np.stack(np.unravel_index(np.arange(mesh.n_cells), (L,) * 3))
    half = np.minimum(i, L - 1 - i)[ijk]                     # (3, n_cells)
    weight = np.array([np.ones(L), np.sign(L - 1 - 2 * i)])  # [parity, i]
    parity = (np.arange(8)[:, None, None] >> np.arange(3) & 1) ^ _MIRROR_ODD.T
    ncol = np.array([R, L // 2])[parity]               # (sector, loc, axis)
    box = np.stack(np.unravel_index(np.arange(R ** 3), (R,) * 3), axis=1)
    box = _dissection(box)                      # representatives in order
    at = np.empty((R,) * 3, dtype=np.intp)      # each one's place in box
    at[tuple(box.T)] = np.arange(R ** 3)
    # has[s, c, loc]: the c-th representative has a column in (s, loc)
    has = np.all(box[:, None] < ncol[:, None], axis=3)
    num = np.cumsum(has).reshape(has.shape) - 1
    column = num[:, at[tuple(half)]].transpose(1, 0, 2)
    image = at[tuple(np.moveaxis(box.T[_SWAP], 1, 0))]         # (8, R^3)
    pair = num[np.arange(8)[:, None, None], image[:, :, None],
               _SWAP_LOC[:, None]][has]
    sign = np.prod(weight[parity, ijk.T[:, None, None, :]], axis=3)
    dst, src = np.nonzero(_CENTRE)                 # Q = C S, cell by cell
    v = sign[:, :, src] * _CENTRE[dst, src]
    rows = N_LOCAL * np.arange(mesh.n_cells)[:, None, None] + dst
    return MirrorOrbits(
        Q=sp.csr_matrix((v[v != 0], (np.broadcast_to(rows, v.shape)[v != 0],
                                     column[:, :, src][v != 0])), shape=(n, n)),
        column=column, sign=sign,
        sector=np.repeat(np.arange(8), has.sum(axis=(1, 2))),
        rep=np.ravel_multi_index(half, (L,) * 3),
        size=2 ** np.count_nonzero(2 * ijk != L - 1, axis=0), pair=pair)


def _dissection(cells: np.ndarray) -> np.ndarray:
    """Nested-dissection order of a box of cells, (k, 3) coordinates in
    index order: bisect the box across its longest axis, then number the
    lower half, the upper half, and last the one-cell separator between
    them in index order; the halves recurse down to single cells."""
    if len(cells) <= 1:
        return cells
    lo, hi = cells.min(axis=0), cells.max(axis=0) + 1
    a = np.argmax(hi - lo)
    mid, x = (lo[a] + hi[a]) // 2, cells[:, a]
    return np.concatenate([_dissection(cells[x < mid]),
                           _dissection(cells[x > mid]), cells[x == mid]])


def half_blocks(mat, orbits: MirrorOrbits) -> tuple[sp.csc_matrix,
                                                     sp.csr_matrix]:
    """(B_h, U): the diagonal blocks B_h of (QU)^T A QU as one CSC matrix,
    and the orthogonal U that splits each sector of B = Q^T A Q into its
    swap-even and swap-odd halves, 16 blocks in all.  For a pair j < k =
    pair[j], U has the columns (e_j +- e_k)/sqrt 2, for a fixed point
    e_j in the even half.  One sort numbers them: by half, 2 sector + 1
    if odd, then by lead column min(j, pair[j]).  B_h is folded with no
    n-by-n product, as the transpose of the fold of A^T, from the lead
    rows of B^T = Q^T A^T Q: B^T commutes with the swap, so row (j, +-) of
    B_h^T is B^T[j, k] +- B^T[j, pair[k]], times a power of sqrt 2.  Those
    rows come from the block rows of A^T at the representative cells, that
    is A's block columns there: for a mirror-invariant A, A_c = C^T A^T C
    gives A_c S_s = S_s X_s, with S_s's columns orthogonal, so S_s^T A_c
    S_s = diag(size) X_s, and row j of X_s is row r_j of A_c S_s, r_j the
    dof where column j's S_s is 1 at its representative cell.  Entries at
    most ROUNDOFF of the largest are dropped.  Last, (QU)^T A QU V = B_h V
    is checked for a fixed block V of 4 normal columns (Freivalds'
    method): A, or a wrong orbit or pairing table, is refused beyond
    MIRROR_TOL of max|A| max|V|."""
    n, nc = mat.shape[0], orbits.rep.size
    j = np.arange(n)
    lo, hi = np.minimum(j, orbits.pair), np.maximum(j, orbits.pair)
    lead, paired = lo == j, lo != hi
    # U's columns go by half, 2 sector + odd, then by lead column: an
    # orbit's lead column lo numbers its even column, hi its odd one
    at = np.empty(n, dtype=np.intp)
    at[np.lexsort((lo, 2 * orbits.sector + ~lead))] = j
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
    is_lead = (orbits.sign != 0) & lead[orbits.column]
    blk, sec, i, jj = np.nonzero((K != 0)[:, None]
                                 & is_lead[p][..., None]
                                 & (orbits.sign[q] != 0)[:, :, None, :])
    r, c = orbits.column[p[blk], sec, i], orbits.column[q[blk], sec, jj]
    v = K[blk, i, jj] * orbits.size[p[blk]] * orbits.sign[q[blk], sec, jj]
    both = paired[r] & paired[c]
    # the blocks of one column orbit land on the same entries, summed here;
    # (r, c) of B_h^T is (c, r) of B_h
    B = sp.csc_matrix(
        (np.concatenate([v * (root[c] / root[r]), (v * sgn[c])[both]]),
         (np.concatenate([even[c], odd[c[both]]]),
          np.concatenate([even[r], odd[r[both]]]))), shape=mat.shape)
    B.data[np.abs(B.data) <= ROUNDOFF * np.abs(B.data).max(initial=0.0)] = 0
    B.eliminate_zeros()
    V = np.random.default_rng(0).standard_normal((n, 4))
    QUt_A_QU_V = _real_times(U.T, _real_times(
        orbits.Q.T, mat @ (orbits.Q @ (U @ V))))
    gap = np.abs(QUt_A_QU_V - B @ V).max()
    scale = np.abs(mat.data).max(initial=0.0) * np.abs(V).max()
    if gap > MIRROR_TOL * scale:
        raise ValueError(f"matrix is not mirror-invariant, or not swap-"
                         f"invariant: (QU)^T A QU V misses B_h V by "
                         f"{gap / scale:.1e} of max|A| max|V|")
    return B, U


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
    right-hand side of shape (n,) or a block of them of shape (n, B)."""
    b = np.asarray(b, dtype=np.complex128)
    if b.ndim not in (1, 2) or b.shape[0] != fact.n:
        raise ValueError(
            f"right-hand side must have shape ({fact.n},) or ({fact.n}, B), "
            f"got {b.shape}"
        )
    if fact.basis is None:
        return fact.lu.solve(b)
    (Q, Qt), (U, Ut) = fact.basis, fact.halves
    y = fact.lu.solve(_real_times(Ut, _real_times(Qt, b)))
    return _real_times(Q, _real_times(U, y))


def _real_times(Q: sp.csr_matrix, b: np.ndarray) -> np.ndarray:
    """Q @ b for a float64 Q (or U, or a transpose) and a complex b of
    shape (n,) or (n, B), as one real product on b's float64 view; a
    non-C-contiguous b (SuperLU returns Fortran order) is copied first, as
    a complex product would."""
    c = np.ascontiguousarray(b if b.ndim == 2 else b[:, None])
    return (Q @ c.view(np.float64)).view(np.complex128).reshape(b.shape)
