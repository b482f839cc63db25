import numpy as np

from mmdg import kernels
from mmdg.dg_core import make_quadrature, monomial_values
from mmdg.mesh import build_uniform_mesh


def _load_inputs(L=3, q=4, seed=0):
    mesh = build_uniform_mesh(L)
    rng = np.random.default_rng(seed)
    quad = make_quadrature(q)
    lowers = mesh.cell_lower(np.arange(mesh.n_cells))
    xi = rng.uniform(-1, 1, mesh.n_cells)
    mono = monomial_values(quad.cell_points)
    return lowers, mesh.h, xi, 2.0, quad.cell_points, quad.cell_weights, mono


def test_oscillatory_load_paths_agree():
    args = _load_inputs()
    ref = kernels._oscillatory_load_numpy(*args)
    got = kernels.oscillatory_load(*args)
    assert np.allclose(got, ref, atol=1e-13)


def test_mode_source_paths_agree():
    rng = np.random.default_rng(1)
    nc = 27
    prev = rng.normal(size=(nc, 12)) + 1j * rng.normal(size=(nc, 12))
    prev2 = rng.normal(size=(nc, 12)) + 1j * rng.normal(size=(nc, 12))
    eta = rng.uniform(-1, 1, nc)
    ref = kernels._mode_source_numpy(prev, prev2, eta, 2.0, 1 / 3)
    got = kernels.mode_source(prev, prev2, eta, 2.0, 1 / 3)
    assert np.allclose(got, ref, atol=1e-13)


def test_mode_source_block_matches_columns(monkeypatch):
    rng = np.random.default_rng(2)
    nc, B = 27, 4
    prev = rng.normal(size=(nc, 12, B)) + 1j * rng.normal(size=(nc, 12, B))
    prev2 = rng.normal(size=(nc, 12, B)) + 1j * rng.normal(size=(nc, 12, B))
    eta = rng.uniform(-1, 1, (nc, B))
    block = kernels.mode_source(prev, prev2, eta, 2.0, 1 / 3)
    assert block.shape == (nc, 12, B)
    for s in range(B):
        col = kernels._mode_source_numpy(prev[:, :, s], prev2[:, :, s],
                                         eta[:, s], 2.0, 1 / 3)
        assert np.allclose(block[:, :, s], col, atol=1e-13)
    # the compiled dispatch runs the one-sample kernel column by column;
    # stand the numpy kernel in for it, numba being optional
    monkeypatch.setattr(kernels, "USE_NUMBA", True)
    monkeypatch.setattr(
        kernels, "_mode_source_numba",
        lambda p, p2, e, k, h, ref: kernels._mode_source_numpy(p, p2, e, k, h),
        raising=False,
    )
    got = kernels.mode_source(prev, prev2, eta, 2.0, 1 / 3)
    assert np.allclose(got, block, atol=1e-13)


def test_env_flag_selects_numpy_path(monkeypatch):
    import importlib
    import subprocess
    import sys

    code = (
        "import os; os.environ['MMDG_NO_NUMBA'] = '1';"
        "from mmdg import kernels; print(kernels.USE_NUMBA)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
