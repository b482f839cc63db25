import numpy as np

from mmdg import kernels
from mmdg.dg_core import gauss01, make_quadrature, monomial_values
from mmdg.mesh import build_uniform_mesh


def _oracle_oscillatory_load(lowers, h, xi, k, q):
    """Brute-force q^3-point tensor rule, every component at every point."""
    quad = make_quadrature(q)
    mono = monomial_values(quad.cell_points)                   # (nq, 4)
    phys = lowers[:, None, :] + h * quad.cell_points[None, :, :]
    f = np.exp(1j * k * (1.0 + xi)[:, None, None] * phys)     # (nc, nq, 3)
    b = h ** 3 * np.einsum("q,nqc,qm->ncm", quad.cell_weights, f, mono)
    return b.reshape(len(lowers), 12)


def _oracle_mode_source(prev, prev2, eta, k, h):
    """Cell by cell, with the reference monomial mass written out."""
    mass = np.array([[1, 1 / 2, 1 / 2, 1 / 2],
                     [1 / 2, 1 / 3, 1 / 4, 1 / 4],
                     [1 / 2, 1 / 4, 1 / 3, 1 / 4],
                     [1 / 2, 1 / 4, 1 / 4, 1 / 3]])
    out = np.zeros_like(prev)
    for n in range(len(prev)):
        w = 2 * k * k * eta[n] * prev[n] + k * k * eta[n] ** 2 * prev2[n]
        for c in range(3):
            out[n, 4 * c:4 * c + 4] = h ** 3 * mass @ w[4 * c:4 * c + 4]
    return out


def _load_inputs(L, xi_shape=(), seed=0):
    mesh = build_uniform_mesh(L)
    rng = np.random.default_rng(seed)
    lowers = mesh.cell_lower(np.arange(mesh.n_cells))
    xi = rng.uniform(-1, 1, (mesh.n_cells, *xi_shape))
    return lowers, mesh.h, xi


def _complex_normal(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_oscillatory_load_matches_oracle():
    for L in (1, 3):
        lowers, h, xi = _load_inputs(L)
        for q in (1, 2, 3, 4, 8):
            ref = _oracle_oscillatory_load(lowers, h, xi, 2.0, q)
            got = kernels.oscillatory_load(lowers, h, xi, 2.0, *gauss01(q))
            assert got.shape == (len(lowers), 12)
            assert (np.linalg.norm(got - ref)
                    <= 1e-14 * np.linalg.norm(ref)), (L, q)


def test_oscillatory_load_block_matches_columns():
    lowers, h, xi = _load_inputs(3, xi_shape=(5,), seed=3)
    t, w = gauss01(4)
    block = kernels.oscillatory_load(lowers, h, xi, 2.0, t, w)
    assert block.shape == (len(lowers), 12, 5)
    for s in range(5):
        col = kernels.oscillatory_load(lowers, h, xi[:, s], 2.0, t, w)
        assert np.allclose(block[:, :, s], col, rtol=0, atol=1e-15)


def test_mode_source_matches_oracle():
    rng = np.random.default_rng(1)
    nc = 27
    prev = _complex_normal(rng, (nc, 12))
    prev2 = _complex_normal(rng, (nc, 12))
    eta = rng.uniform(-1, 1, nc)
    ref = _oracle_mode_source(prev, prev2, eta, 2.0, 1 / 3)
    got = kernels.mode_source(prev, prev2, eta, 2.0, 1 / 3)
    assert np.allclose(got, ref, rtol=0, atol=1e-13)


def test_mode_source_block_matches_columns():
    rng = np.random.default_rng(2)
    nc, B = 27, 4
    prev = _complex_normal(rng, (nc, 12, B))
    prev2 = _complex_normal(rng, (nc, 12, B))
    eta = rng.uniform(-1, 1, (nc, B))
    block = kernels.mode_source(prev, prev2, eta, 2.0, 1 / 3)
    assert block.shape == (nc, 12, B)
    for s in range(B):
        col = _oracle_mode_source(prev[:, :, s], prev2[:, :, s], eta[:, s],
                                  2.0, 1 / 3)
        assert np.allclose(block[:, :, s], col, rtol=0, atol=1e-13)
