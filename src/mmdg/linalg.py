"""Sparse complex LU factorization reusable across many right-hand sides.

Backed by SuperLU via scipy with partial pivoting; the factorization object
is immutable after construction and every solve is a pair of triangular
substitutions, for one right-hand side or a block of them at once.

The deterministic IP-DG matrix A_h (uniform mesh of the unit cube,
constant coefficients, the same impedance condition on all six faces)
commutes with the cube's three mirrors x_a -> 1 - x_a.  Its SystemMatrix
names that mesh, and such a matrix is factored in the mesh's mirror basis
Q, which mirror_orbits tabulates: B = Q^T A Q is 8 independent sector
blocks, each about 1/8 of A, which sector_blocks folds from the 12x12
cell blocks of the representative cells' block rows.  A solve is
x = Q B^{-1} Q^T b, right only if Q^T A Q = B; sector_blocks checks that
identity on 4 fixed random columns, so an A that is not mirror-invariant
and a wrong fold are both refused with ValueError.
Q's entries are real (+-1, +-1/2), so Q and Q^T are float64 and act on
the (n, 2B) float64 view of a C-contiguous complex block: half the flops
of a complex product, with bitwise the same result.

mirror_orbits numbers each sector's columns by nested dissection of its
cell grid at every L.  From L = NESTED_MIN_L = 5 on, SuperLU keeps that
order (NATURAL); below, it reorders B by minimum degree on B + B^T
(MMD_AT_PLUS_A), whose 16-column solve is faster at L=4 although it
stores more: SuperLU.nnz is 39 537 there against NATURAL's 28 656.  Neither
joins two blocks.  nnz(L+U) is 170 432 at L=6 and 709 184 at L=8, against
982 000 and 3 728 000 for the coupled factor of A_h; it can move with
round-off in B, through pivoting.

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

# Largest gap Q^T A Q V - B V sector_blocks accepts, relative to max|A|
# max|V|: round-off on A_h reads <= 7.0e-15 (L <= 20); moving one entry of
# A by 1e-11 max|A| reads >= 4.1e-13 unless every mirror fixes it (L <= 5).
MIRROR_TOL = 2e-13
# Sector-block entries at most this fraction of the largest are round-off.
ROUNDOFF = 1e-14
# From this L on SuperLU keeps the sector blocks' nested-dissection order.
# At L=4 minimum degree stores more (SuperLU.nnz 39 537 against 28 656)
# but solves 16 columns faster (0.61-0.64 against 0.71-0.77 ms, 2 vCPUs).
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
    B is the block-diagonal sector_blocks of A and basis holds its mirror
    basis Q (float64); otherwise B is A and basis is None."""

    lu: "spla.SuperLU"
    n: int
    nnz: int                                  # of A
    basis: tuple[sp.csr_matrix, sp.csr_matrix] | None = None  # (Q, Q^T)
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
    names a mirror_mesh is factored in that mesh's mirror basis, in the
    column order of mirror_orbits from L = NESTED_MIN_L on."""
    mat = getattr(A, "matrix", A)
    if mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix must be square")
    mat = sp.csc_matrix(mat, dtype=np.complex128)
    n, nnz = mat.shape[0], mat.nnz
    basis, ordering = None, "mmd"
    if getattr(A, "mirror_mesh", None) is not None:
        orbits = mirror_orbits(A.mirror_mesh)
        mat = sector_blocks(mat, orbits)
        basis = (orbits.Q, orbits.Q.T.tocsr())
        if A.mirror_mesh.L >= NESTED_MIN_L:
            ordering = "nested_dissection"
    try:
        lu = spla.splu(mat, permc_spec={"mmd": "MMD_AT_PLUS_A",
                                        "nested_dissection": "NATURAL"}[ordering])
    except RuntimeError as exc:
        raise SingularMatrixError(
            f"sparse LU failed, matrix is numerically singular: {exc}"
        ) from exc
    return Factorization(lu=lu, n=n, nnz=nnz, basis=basis, ordering=ordering)


# the per-cell centring C: centred local dof (c, m>0) is e_c (x_m - 1/2)
_CENTRE = np.eye(N_LOCAL) - np.kron(np.eye(3), np.outer([0.5, 0, 0, 0],
                                                        [0, 1, 1, 1]))
# _MIRROR_ODD[a, loc]: mirror a flips centred dof loc = (c, m) if c = a xor m = a+1
_MIRROR_ODD = np.array([[(loc // 4 == a) ^ (loc % 4 == a + 1)
                         for loc in range(N_LOCAL)] for a in range(3)])


class MirrorOrbits(NamedTuple):
    """The mirror basis Q = C S.  Column j of the signed orbit matrix S
    sums a centred dof over its mirror images with signs +-1, so that it
    is odd under mirror a exactly when bit a of its sector is set.  In one
    sector S has at most one entry per row, and it is 1 at the orbit's
    representative, its cell of least index along each axis.  sector_blocks
    folds B from column, sign, rep and size, and checks it against Q."""

    Q: sp.csr_matrix    # canonical CSR
    column: np.ndarray  # (n_cells, 8, 12) column of S at (cell, sector, loc)
    sign: np.ndarray    # S's entry there: +-1, or 0 if none
    sector: np.ndarray  # (n,) sector of each column, columns grouped by it
    rep: np.ndarray     # (n_cells,) representative of each cell's orbit
    size: np.ndarray    # (n_cells,) number of cells in each cell's orbit


def mirror_orbits(mesh) -> MirrorOrbits:
    """Orbit table of the mesh's mirrors.  Along one axis, cells i and
    L-1-i make an even and an odd combination numbered min(i, L-1-i), the
    odd one weighing cell i by sign(L-1-2i): a mid-plane cell has none, so
    Q stays square.  The representatives fill an R^3 box, R = (L+1)//2,
    and a sector's columns go by representative in nested-dissection
    order of that box, then by local dof."""
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
        size=2 ** np.count_nonzero(2 * ijk != L - 1, axis=0))


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


def sector_blocks(mat, orbits: MirrorOrbits) -> sp.csc_matrix:
    """The 8 diagonal sector blocks B of Q^T A Q as one CSC matrix, folded
    from the block rows of A's representative cells with no n-by-n
    product.  For a mirror-invariant A, A_c = C^T A C gives A_c S_s =
    S_s X_s, with S_s's columns orthogonal, so S_s^T A_c S_s = diag(size)
    X_s, and row j of X_s is row r_j of A_c S_s, r_j the dof where column
    j's S_s is 1 at its representative cell.  Entries at most ROUNDOFF of
    the largest are dropped.  Last, Q^T A Q V = B V is checked for a fixed
    block V of 4 normal columns (Freivalds' method): A or a wrong orbit
    table is refused beyond MIRROR_TOL of max|A| max|V|."""
    nc = orbits.rep.size
    # block (q, p) of A^T is block (p, q) of A transposed
    At = mat.T.tobsr(blocksize=(N_LOCAL, N_LOCAL))
    q, p = np.repeat(np.arange(nc), np.diff(At.indptr)), At.indices
    rows = np.flatnonzero(orbits.rep[p] == p)
    p, q, K = p[rows], q[rows], At.data[rows]   # K becomes C^T K C:
    for part in (K.reshape(-1, 4), K.reshape(-1, 4, N_LOCAL)):
        part[:, 1:] -= 0.5 * part[:, :1]      # (c, m>0) less half of (c, 0)
    K = np.swapaxes(K, 1, 2)
    blk, sec, i, j = np.nonzero((K != 0)[:, None]
                                & (orbits.sign[p] != 0)[..., None]
                                & (orbits.sign[q] != 0)[:, :, None, :])
    # the blocks of one column orbit land on the same entries, summed here
    B = sp.csc_matrix(
        (K[blk, i, j] * orbits.size[p[blk]] * orbits.sign[q[blk], sec, j],
         (orbits.column[p[blk], sec, i], orbits.column[q[blk], sec, j])),
        shape=mat.shape)
    B.data[np.abs(B.data) <= ROUNDOFF * np.abs(B.data).max(initial=0.0)] = 0
    B.eliminate_zeros()
    V = np.random.default_rng(0).standard_normal((mat.shape[0], 4))
    gap = np.abs(_real_times(orbits.Q.T, mat @ (orbits.Q @ V)) - B @ V).max()
    scale = np.abs(mat.data).max(initial=0.0) * np.abs(V).max()
    if gap > MIRROR_TOL * scale:
        raise ValueError(f"matrix is not mirror-invariant: Q^T A Q V misses "
                         f"B V by {gap / scale:.1e} of max|A| max|V|")
    return B


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
    Q, Qt = fact.basis
    return _real_times(Q, fact.lu.solve(_real_times(Qt, b)))


def _real_times(Q: sp.csr_matrix, b: np.ndarray) -> np.ndarray:
    """Q @ b for a float64 Q and a complex b of shape (n,) or (n, B), as
    one real product on b's float64 view; a non-C-contiguous b (SuperLU
    returns Fortran order) is copied first, as a complex product would."""
    c = np.ascontiguousarray(b if b.ndim == 2 else b[:, None])
    return (Q @ c.view(np.float64)).view(np.complex128).reshape(b.shape)
