"""Sparse complex LU factorization reusable across many right-hand sides.

Backed by SuperLU via scipy with partial pivoting; the factorization object
is immutable after construction and every solve is a pair of triangular
substitutions, for one right-hand side or a block of them at once.  A
module-level counter records how many factorizations have been performed,
which lets the driver check that the accelerated algorithm factors exactly
once.

Columns are ordered by minimum degree on the structure of A + A^T
(SuperLU's MMD_AT_PLUS_A).  The IP-DG matrix A = S - iP is structurally
symmetric, and complex symmetric to round-off, so a symmetric ordering
fits it where COLAMD, made for unsymmetric structure, over-fills:
nnz(L+U) of the deterministic matrix drops from 193 145 to 120 511 at
L=4, from 1 295 774 to 981 661 at L=6 and from 5 203 172 to 3 727 203 at
L=8, and every triangular solve reads correspondingly fewer entries.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

_factorization_count = 0


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
    factor_seconds: float

    def solve(self, b: np.ndarray) -> np.ndarray:
        return solve(self, b)


def factorization_count() -> int:
    return _factorization_count


def factorize(A) -> Factorization:
    """Factor a sparse complex matrix (or a SystemMatrix wrapper)."""
    global _factorization_count
    mat = getattr(A, "matrix", A)
    if mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix must be square")
    mat = sp.csc_matrix(mat, dtype=np.complex128)
    t0 = time.perf_counter()
    try:
        lu = spla.splu(mat, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise SingularMatrixError(
            f"sparse LU failed, matrix is numerically singular: {exc}"
        ) from exc
    dt = time.perf_counter() - t0
    _factorization_count += 1
    return Factorization(lu=lu, n=mat.shape[0], nnz=mat.nnz, factor_seconds=dt)


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
