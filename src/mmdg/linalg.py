"""Sparse complex LU factorization reusable across many right-hand sides.

Backed by SuperLU via scipy with partial pivoting; the factorization object
is immutable after construction and every solve is a pair of triangular
substitutions, for one right-hand side or a block of them at once.

Columns are ordered by minimum degree on the structure of A + A^T
(SuperLU's MMD_AT_PLUS_A).  The IP-DG matrix A = S - iP is complex
symmetric, so a symmetric ordering fits it where COLAMD, made for
unsymmetric structure, over-fills: nnz(L+U) of the deterministic matrix
drops from about 193 000 to 120 500 at L=4, from 1 296 000 to 982 000 at
L=6 and from 5 203 000 to 3 728 000 at L=8 (the exact counts move by
~0.1% with round-off in A through pivoting), and every triangular solve
reads correspondingly fewer entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class SingularMatrixError(RuntimeError):
    """Raised when the system matrix is numerically singular.  This
    signals a configuration error: the IP-DG system is provably uniquely
    solvable for valid parameters."""


@dataclass
class Factorization:
    """Stored sparse LU factors P A Q = L U."""

    lu: "spla.SuperLU"
    n: int
    nnz: int


def factorize(A) -> Factorization:
    """Factor a sparse complex matrix (or a SystemMatrix wrapper)."""
    mat = getattr(A, "matrix", A)
    if mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix must be square")
    mat = sp.csc_matrix(mat, dtype=np.complex128)
    try:
        lu = spla.splu(mat, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise SingularMatrixError(
            f"sparse LU failed, matrix is numerically singular: {exc}"
        ) from exc
    return Factorization(lu=lu, n=mat.shape[0], nnz=mat.nnz)


def solve(fact: Factorization, b: np.ndarray) -> np.ndarray:
    """Forward/backward substitution against the stored factors, for one
    right-hand side of shape (n,) or a block of them of shape (n, B)."""
    b = np.asarray(b, dtype=np.complex128)
    if b.ndim not in (1, 2) or b.shape[0] != fact.n:
        raise ValueError(
            f"right-hand side must have shape ({fact.n},) or ({fact.n}, B), "
            f"got {b.shape}"
        )
    return fact.lu.solve(b)
