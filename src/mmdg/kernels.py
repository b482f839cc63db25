"""Hot kernels of the sampling loop.

Two implementations are provided for each kernel: a numba @njit version and
a pure-numpy fallback.  Selection happens at import time; set the
environment variable MMDG_NO_NUMBA=1 to force the numpy path (e.g. for
debugging or on platforms without numba).  `benchmarks/bench_kernels.py`
compares the two.
"""

from __future__ import annotations

import os

import numpy as np

from .dg_core import REF_MONOMIAL_MASS

USE_NUMBA = os.environ.get("MMDG_NO_NUMBA", "0") != "1"

if USE_NUMBA:
    try:
        from numba import njit
    except ImportError:  # pragma: no cover
        USE_NUMBA = False


def _oscillatory_load_numpy(lowers, h, xi, k, qpts, qwts, mono):
    """Load vector entries for f_c(x) = exp(i k (1+xi) x_c), xi constant
    per cell.

    lowers: (nc, 3) cell lower corners; qpts: (nq, 3) local points;
    qwts: (nq,) weights summing to 1; mono: (nq, 4) monomial values.
    Returns (nc, 12) complex.
    """
    nc = len(lowers)
    phys = lowers[:, None, :] + h * qpts[None, :, :]        # (nc, nq, 3)
    phase = 1j * k * (1.0 + xi)[:, None, None] * phys        # (nc, nq, 3)
    f = np.exp(phase)                                        # (nc, nq, 3)
    vol = h ** 3
    # b[cell, 4c+m] = vol * sum_q w_q f_c(x_q) mono_m(q)
    b = vol * np.einsum("q,nqc,qm->ncm", qwts, f, mono)
    return b.reshape(nc, 12)


def _mode_source_numpy(prev, prev2, eta, k, h):
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
    w = w.reshape(len(eta), 3, 4, *prev.shape[2:])
    b = (h ** 3) * np.einsum("am,ncm...->nca...", REF_MONOMIAL_MASS, w)
    return b.reshape(prev.shape)


if USE_NUMBA:

    @njit(cache=True)
    def _oscillatory_load_numba(lowers, h, xi, k, qpts, qwts, mono):  # pragma: no cover - exercised via dispatch
        nc = lowers.shape[0]
        nq = qpts.shape[0]
        vol = h ** 3
        out = np.zeros((nc, 12), dtype=np.complex128)
        for n in range(nc):
            kk = k * (1.0 + xi[n])
            for q in range(nq):
                w = qwts[q] * vol
                for c in range(3):
                    x = lowers[n, c] + h * qpts[q, c]
                    fc = np.exp(1j * kk * x)
                    for m in range(4):
                        out[n, 4 * c + m] += w * fc * mono[q, m]
        return out

    @njit(cache=True)
    def _mode_source_numba(prev, prev2, eta, k, h, ref_mass):  # pragma: no cover
        nc = prev.shape[0]
        k2 = k * k
        vol = h ** 3
        out = np.zeros((nc, 12), dtype=np.complex128)
        for n in range(nc):
            a2 = 2.0 * k2 * eta[n]
            a1 = k2 * eta[n] * eta[n]
            for c in range(3):
                for a in range(4):
                    acc = 0.0 + 0.0j
                    for m in range(4):
                        w = a2 * prev[n, 4 * c + m] + a1 * prev2[n, 4 * c + m]
                        acc += ref_mass[a, m] * w
                    out[n, 4 * c + a] = vol * acc
        return out


def oscillatory_load(lowers, h, xi, k, qpts, qwts, mono):
    if USE_NUMBA:
        return _oscillatory_load_numba(
            np.ascontiguousarray(lowers), h, np.ascontiguousarray(xi), k,
            np.ascontiguousarray(qpts), np.ascontiguousarray(qwts),
            np.ascontiguousarray(mono),
        )
    return _oscillatory_load_numpy(lowers, h, xi, k, qpts, qwts, mono)


def mode_source(prev, prev2, eta, k, h):
    if USE_NUMBA:
        if prev.ndim == 3:
            # a block of samples: the compiled kernel runs column by column
            return np.stack(
                [mode_source(prev[:, :, s], prev2[:, :, s], eta[:, s], k, h)
                 for s in range(prev.shape[2])],
                axis=2,
            )
        return _mode_source_numba(
            np.ascontiguousarray(prev), np.ascontiguousarray(prev2),
            np.ascontiguousarray(eta), k, h, REF_MONOMIAL_MASS,
        )
    return _mode_source_numpy(prev, prev2, eta, k, h)
