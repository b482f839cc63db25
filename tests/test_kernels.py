"""The sampling loop's two loads, assemble_oscillatory_load and
assemble_mode_source, against brute-force oracles."""

import numpy as np

from mmdg.assembly import assemble_mode_source, assemble_oscillatory_load
from mmdg.dg_core import make_quadrature, monomial_values
from mmdg.mesh import build_uniform_mesh


def _oracle_oscillatory_load(lowers, h, xi, k, q):
    """Brute-force q^3-point tensor rule, every component at every point."""
    quad = make_quadrature(q)
    mono = monomial_values(quad.cell_points)                   # (nq, 4)
    phys = lowers[:, None, :] + h * quad.cell_points[None, :, :]
    f = np.exp(1j * k * (1.0 + xi)[:, None, None] * phys)     # (nc, nq, 3)
    b = h ** 3 * np.einsum("q,nqc,qm->ncm", quad.cell_weights, f, mono)
    return b.reshape(-1)


def _oracle_mode_source(prev, prev2, eta, k, h):
    """Cell by cell, with the reference monomial mass written out."""
    mass = np.array([[1, 1 / 2, 1 / 2, 1 / 2],
                     [1 / 2, 1 / 3, 1 / 4, 1 / 4],
                     [1 / 2, 1 / 4, 1 / 3, 1 / 4],
                     [1 / 2, 1 / 4, 1 / 4, 1 / 3]])
    prev, prev2 = prev.reshape(-1, 12), prev2.reshape(-1, 12)
    out = np.zeros_like(prev)
    for n in range(len(prev)):
        w = 2 * k * k * eta[n] * prev[n] + k * k * eta[n] ** 2 * prev2[n]
        for c in range(3):
            out[n, 4 * c:4 * c + 4] = h ** 3 * mass @ w[4 * c:4 * c + 4]
    return out.reshape(-1)


def _complex_normal(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_oscillatory_load_matches_oracle():
    for L in (1, 3):
        mesh = build_uniform_mesh(L)
        lowers = mesh.cell_lower(np.arange(mesh.n_cells))
        xi = np.random.default_rng(0).uniform(-1, 1, mesh.n_cells)
        for q in (1, 2, 3, 4, 8):
            ref = _oracle_oscillatory_load(lowers, mesh.h, xi, 2.0, q)
            got = assemble_oscillatory_load(mesh, xi, 2.0, q_f=q)
            assert got.shape == (12 * mesh.n_cells,)
            assert (np.linalg.norm(got - ref)
                    <= 1e-14 * np.linalg.norm(ref)), (L, q)


def test_mode_source_matches_oracle():
    rng = np.random.default_rng(1)
    mesh = build_uniform_mesh(3)
    n = 12 * mesh.n_cells
    prev = _complex_normal(rng, n)
    prev2 = _complex_normal(rng, n)
    eta = rng.uniform(-1, 1, mesh.n_cells)
    ref = _oracle_mode_source(prev, prev2, eta, 2.0, mesh.h)
    got = assemble_mode_source(mesh, 2.0, eta, prev, prev2)
    assert np.allclose(got, ref, rtol=0, atol=1e-13)


def test_mode_source_block_layout_does_not_matter():
    # the matmul runs on a float64 view, which needs C order; Fortran-
    # ordered (n_dof, B) blocks, as SuperLU returns, must give the same bits
    rng = np.random.default_rng(3)
    mesh = build_uniform_mesh(3)
    B = 5
    prev = _complex_normal(rng, (12 * mesh.n_cells, B))
    prev2 = _complex_normal(rng, (12 * mesh.n_cells, B))
    eta = rng.uniform(-1, 1, (mesh.n_cells, B))
    args = [np.asfortranarray(a) for a in (eta, prev, prev2)]
    assert not any(a.flags.c_contiguous for a in args)
    assert np.array_equal(assemble_mode_source(mesh, 2.0, *args),
                          assemble_mode_source(mesh, 2.0, eta, prev, prev2))
