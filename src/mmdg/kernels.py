"""Hot kernels of the sampling loop, in numpy.

The oscillatory load is evaluated per axis.  The source component
f_c(x) = exp(i k (1+xi) x_c) depends on x_c alone, and the cell rule is a
q-point tensor Gauss rule in local coordinates t with weights w_t summing
to 1.  With e_c(t) = exp(i k (1+xi) (lower_c + h t)),
S0_c = sum_t w_t e_c(t) and S1_c = sum_t w_t t e_c(t), the tensor rule
gives for the monomials (1, t_0, t_1, t_2) of component c

    b[4c+0]   = h^3 S0_c
    b[4c+1+c] = h^3 S1_c
    b[4c+1+d] = h^3 S0_c sum_t w_t t      (d != c),

so a cell costs q exponentials per axis instead of q^3 per component
(sum factorization of a tensor-product rule).

The mode source's reference monomial mass matrix is real, so it is one
broadcast matmul on the float64 view of the complex coefficients.

Both kernels take one sample, or a block of B samples along a trailing
axis.
"""

from __future__ import annotations

import numpy as np

from .dg_core import REF_MONOMIAL_MASS

# The kernels have no compiled variant; kept for the benchmark's
# environment stamp, which records it.
USE_NUMBA = False


def oscillatory_load(lowers, h, xi, k, t, w):
    """Load vector entries for f_c(x) = exp(i k (1+xi) x_c), xi constant
    per cell, under the tensor rule built from the 1-D rule (t, w).

    lowers: (nc, 3) cell lower corners; t, w: (q,) local points and
    weights on [0, 1], weights summing to 1; xi: (nc,) or (nc, B).
    Returns (nc, 12) or (nc, 12, B) complex.
    """
    nc = len(lowers)
    block = xi.shape[1:]
    x = (lowers[:, :, None] + h * t).reshape(nc, 3, len(t), *(1,) * len(block))
    kk = (k * (1.0 + xi)).reshape(nc, 1, 1, *block)
    e = np.exp(1j * kk * x)                                  # (nc, 3, q, *B)
    s0 = np.einsum("q,ncq...->nc...", w, e)                  # (nc, 3, *B)
    s1 = np.einsum("q,ncq...->nc...", w * t, e)
    b = np.empty((nc, 3, 4, *block), dtype=np.complex128)
    b[:, :, 0] = s0
    b[:, :, 1:] = (s0 * np.dot(w, t))[:, :, None]
    axes = np.arange(3)
    b[:, axes, 1 + axes] = s1
    return (h ** 3) * b.reshape(nc, 12, *block)


def mode_source(prev, prev2, eta, k, h):
    """Coefficients of the recursive mode source load vector.

    prev/prev2: (nc, 12) complex mode coefficients; eta: (nc,) per-cell
    constants.  Entries are exact integrals of
    (2 k^2 eta E_prev + k^2 eta^2 E_prev2) . basis over each cell.
    Returns (nc, 12) complex.  A block of B samples carries a trailing
    sample axis: prev/prev2 (nc, 12, B), eta (nc, B), result (nc, 12, B).
    """
    k2 = k * k
    eta = eta[:, None]
    w = (2.0 * k2 * eta) * prev + (k2 * eta * eta) * prev2
    # (nc, 3, 4, 2B) float64 view; one sample is a block of width 1
    w = np.ascontiguousarray(w.reshape(len(eta), 3, 4, -1)).view(np.float64)
    b = (h ** 3) * np.matmul(REF_MONOMIAL_MASS, w)
    return b.view(np.complex128).reshape(prev.shape)
