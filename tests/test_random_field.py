import numpy as np
import pytest

from mmdg.mesh import build_uniform_mesh
from mmdg.random_field import (
    CovarianceSpec,
    GaussianSampler,
    compute_kl,
    covariance_matrix,
    sample_from_kl,
    sample_uniform,
)


def test_covariance_spec_validation():
    with pytest.raises(ValueError):
        CovarianceSpec(ell=0.0)
    with pytest.raises(TypeError):  # exponential is the only kind
        CovarianceSpec(ell=0.5, kind="squared-exponential")


def test_covariance_matrix_properties():
    mesh = build_uniform_mesh(3)
    C = covariance_matrix(mesh, CovarianceSpec(0.5))
    assert np.allclose(C, C.T)
    assert np.allclose(np.diag(C), 1.0)
    w = np.linalg.eigvalsh(C)
    assert w.min() >= -1e-10


@pytest.mark.parametrize("L", [2, 5])
def test_covariance_matrix_bitwise_matches_norm_formula(L):
    mesh = build_uniform_mesh(L)
    c = mesh.cell_centers
    ref = np.exp(-np.linalg.norm(c[:, None] - c[None], axis=-1) / 0.3)
    C = covariance_matrix(mesh, CovarianceSpec(0.3))
    assert C.dtype == ref.dtype and C.tobytes() == ref.tobytes()


def test_perfect_correlation_limit():
    # huge correlation length: the covariance is near rank one and all
    # cells get (almost) the same value
    mesh = build_uniform_mesh(2)
    s = GaussianSampler(mesh, CovarianceSpec(1e9)).sample(np.random.default_rng(0))
    assert np.ptp(s.values) <= 1e-3 * max(1.0, abs(s.values[0]))


def test_empirical_covariance_matches_exponential():
    mesh = build_uniform_mesh(3)
    sampler = GaussianSampler(mesh, CovarianceSpec(0.5))
    rng = np.random.default_rng(42)
    a, b = 0, 20
    d = np.linalg.norm(mesh.cell_centers[a] - mesh.cell_centers[b])
    n = 20000
    vals = np.empty((n, 2))
    for i in range(n):
        s = sampler.sample(rng)
        vals[i] = s.values[a], s.values[b]
    emp = np.mean(vals[:, 0] * vals[:, 1])
    assert abs(emp - np.exp(-d / 0.5)) <= 0.03


def test_gaussian_determinism():
    mesh = build_uniform_mesh(2)
    spec = CovarianceSpec(0.5)
    s1 = GaussianSampler(mesh, spec).sample(np.random.default_rng(7))
    s2 = GaussianSampler(mesh, spec).sample(np.random.default_rng(7))
    assert np.array_equal(s1.values, s2.values)


def test_gaussian_clamp():
    mesh = build_uniform_mesh(3)
    sampler = GaussianSampler(mesh, CovarianceSpec(0.5))
    rng = np.random.default_rng(1)
    for _ in range(50):
        s = sampler.sample(rng, clamp=True)
        assert s.sup_norm <= 1.0
        assert s.metadata["clamped"]


def test_mu_hat_surrogate():
    mesh = build_uniform_mesh(2)
    sampler = GaussianSampler(mesh, CovarianceSpec(0.5))
    s = sampler.sample(np.random.default_rng(2))
    diffs = np.abs(s.values[mesh.iface_owner] - s.values[mesh.iface_neighbor])
    assert s.mu_hat == pytest.approx(diffs.max() / mesh.h)


def test_uniform_moments():
    mesh = build_uniform_mesh(2)
    rng = np.random.default_rng(3)
    n = 100_000 // mesh.n_cells
    draws = np.concatenate([sample_uniform(mesh, rng).values for _ in range(n)])
    assert np.all(np.abs(draws) <= 1.0)
    assert abs(draws.mean()) <= 0.02
    assert abs(draws.var() - 1 / 3) <= 0.05 * (1 / 3)


def test_uniform_adjacent_independence():
    mesh = build_uniform_mesh(2)
    rng = np.random.default_rng(4)
    a = int(mesh.iface_owner[0])
    b = int(mesh.iface_neighbor[0])
    vals = np.array([sample_uniform(mesh, rng).values[[a, b]]
                     for _ in range(10_000)])
    corr = np.corrcoef(vals.T)[0, 1]
    assert abs(corr) <= 0.05


def test_kl_full_rank_reconstruction():
    mesh = build_uniform_mesh(3)
    spec = CovarianceSpec(0.5)
    basis = compute_kl(mesh, spec)
    C = covariance_matrix(mesh, spec)
    recon = (basis.eigenvectors * basis.eigenvalues) @ basis.eigenvectors.T
    assert np.linalg.norm(recon - C) <= 1e-10 * np.linalg.norm(C)


def test_kl_trace_identity():
    # unit diagonal -> sum of eigenvalues equals the cell count
    mesh = build_uniform_mesh(4)
    basis = compute_kl(mesh, CovarianceSpec(0.5))
    assert basis.eigenvalues.sum() == pytest.approx(mesh.n_cells, rel=1e-12)


def test_kl_eigenvalues_sorted_decaying():
    mesh = build_uniform_mesh(4)
    lam = compute_kl(mesh, CovarianceSpec(0.5)).eigenvalues
    assert np.all(np.diff(lam) <= 1e-12)
    assert np.all(lam >= 0)
    assert lam[0] > lam[5] > lam[20]


def test_kl_orthonormal_eigenvectors():
    mesh = build_uniform_mesh(3)
    V = compute_kl(mesh, CovarianceSpec(0.5)).eigenvectors
    assert np.allclose(V.T @ V, np.eye(V.shape[1]), atol=1e-10)


def test_kl_sample_normalized_pair():
    mesh = build_uniform_mesh(3)
    basis = compute_kl(mesh, CovarianceSpec(0.5))
    s = sample_from_kl(mesh, basis, K=10, rng=np.random.default_rng(5))
    assert s.epsilon == pytest.approx(np.sqrt(basis.eigenvalues[0]))
    assert np.allclose(basis.mean + s.epsilon * s.zeta, s.field.values)


def test_kl_truncation_bounds():
    mesh = build_uniform_mesh(2)
    basis = compute_kl(mesh, CovarianceSpec(0.5))
    with pytest.raises(ValueError):
        sample_from_kl(mesh, basis, K=0, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        sample_from_kl(mesh, basis, K=mesh.n_cells + 1,
                       rng=np.random.default_rng(0))


def test_kl_and_cholesky_second_moments_match():
    # full-truncation KL sampling and Cholesky sampling target the same
    # distribution: compare empirical covariances at a few cell pairs
    mesh = build_uniform_mesh(2)
    spec = CovarianceSpec(0.5)
    basis = compute_kl(mesh, spec, mean=0.0)
    sampler = GaussianSampler(mesh, spec)
    n = 20_000
    rng1 = np.random.default_rng(6)
    rng2 = np.random.default_rng(7)
    kl_draws = np.array([
        sample_from_kl(mesh, basis, K=mesh.n_cells, rng=rng1).field.values
        for _ in range(n)
    ])
    ch_draws = np.array([sampler.sample(rng2).values for _ in range(n)])
    c_kl = np.cov(kl_draws.T)
    c_ch = np.cov(ch_draws.T)
    assert np.abs(c_kl - c_ch).max() <= 0.05


def test_field_csv_export(tmp_path):
    mesh = build_uniform_mesh(2)
    s = sample_uniform(mesh, np.random.default_rng(8))
    path = tmp_path / "field.csv"
    s.export_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "cell,value"
    assert len(lines) == 1 + mesh.n_cells
