"""Sparse complex LU factorization reusable across many right-hand sides.

Backed by SuperLU via scipy with partial pivoting; the factorization object
is immutable after construction and every solve is a pair of triangular
substitutions, for one right-hand side or a block of them at once.

The deterministic IP-DG matrix A_h (uniform mesh of the unit cube,
constant coefficients, the same impedance condition on all six faces)
commutes with the cube's three mirrors x_a -> 1 - x_a.  Its SystemMatrix
names that mesh, and such a matrix is factored in the mesh's mirror basis
Q (dg_core.mirror_basis): B = Q^T A Q has no entry between two of the 8
mirror sectors, so it is 8 independent blocks, each about 1/8 of A.  The
cross-sector entries of the computed product are round-off (~1e-16 of
B's largest entry); a matrix whose entries there exceed MIRROR_TOL is
refused, and the rest are dropped.  A solve is x = Q B^{-1} Q^T b.
Q's entries are real (+-1, +-1/2), so Q and Q^T are float64 and act on
the (n, 2B) float64 view of a C-contiguous complex block: half the flops
of a complex product, with bitwise the same result.

Columns are ordered by minimum degree on the structure of B + B^T
(SuperLU's MMD_AT_PLUS_A), a symmetric ordering for the complex symmetric
IP-DG matrix, which never joins two blocks.  nnz(L+U) of A_h is
25 400 at L=4, 231 000 at L=6 and 985 000 at L=8, against 120 500,
982 000 and 3 728 000 for the coupled factor of A_h itself, and every
triangular solve reads correspondingly fewer entries.  The exact counts
move by up to ~2% with round-off in B, through pivoting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .dg_core import mirror_basis

# Largest cross-sector entry of Q^T A Q, relative to its largest entry,
# that a mirror-invariant A may have; exact symmetry leaves ~1e-16.
MIRROR_TOL = 1e-12


class SingularMatrixError(RuntimeError):
    """Raised when the system matrix is numerically singular.  This
    signals a configuration error: the IP-DG system is provably uniquely
    solvable for valid parameters."""


@dataclass
class Factorization:
    """Stored sparse LU factors P B Pc = L U of B = Q^T A Q, where Q is
    the mirror basis of a mirror-invariant A (stored as float64) and the
    identity otherwise."""

    lu: "spla.SuperLU"
    n: int
    nnz: int                                  # of A
    basis: tuple[sp.csr_matrix, sp.csr_matrix] | None = None  # (Q, Q^T)


def factorize(A) -> Factorization:
    """Factor a sparse complex matrix, or a SystemMatrix wrapper; one that
    names a mirror_mesh is factored in that mesh's mirror basis."""
    mat = getattr(A, "matrix", A)
    if mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix must be square")
    mat = sp.csc_matrix(mat, dtype=np.complex128)
    n, nnz = mat.shape[0], mat.nnz
    basis = None
    if getattr(A, "mirror_mesh", None) is not None:
        Q, sector = mirror_basis(A.mirror_mesh)
        B = ((Q.T @ mat) @ Q).tocoo()
        same = sector[B.row] == sector[B.col]
        worst = np.abs(B.data[~same]).max(initial=0.0)
        if worst > MIRROR_TOL * np.abs(B.data).max(initial=0.0):
            raise ValueError(
                f"matrix is not mirror-invariant: a cross-sector entry of "
                f"Q^T A Q is {worst / np.abs(B.data).max():.1e} of its "
                f"largest entry")
        mat = sp.csc_matrix((B.data[same], (B.row[same], B.col[same])),
                            shape=(n, n))
        basis = (Q.tocsr(), Q.T.tocsr())
    try:
        lu = spla.splu(mat, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise SingularMatrixError(
            f"sparse LU failed, matrix is numerically singular: {exc}"
        ) from exc
    return Factorization(lu=lu, n=n, nnz=nnz, basis=basis)


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
