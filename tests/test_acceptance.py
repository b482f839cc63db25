"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line on success (run with -s to see them);
a failure raises before the line is printed.
"""

import dataclasses

import numpy as np

from mmdg import linalg
from mmdg.assembly import assemble_a_h, assemble_mode_source, assemble_standard
from mmdg.dg_core import DGField, _penalty_quadratic, l2_norm
from mmdg.driver import (
    RunConfig,
    compare_algorithms,
    component_integral,
    run_multimodes,
    run_standard,
    truncate_modes,
)
from mmdg.mesh import build_uniform_mesh
from mmdg.random_field import (
    CovarianceSpec,
    GaussianSampler,
    compute_kl,
    covariance_matrix,
    sample_from_kl,
)

BASE = RunConfig(L=5, k=2.0, lam=1.0, M=50, N=6, epsilon=0.1,
                 field="gaussian", ell=0.5, seed=0)


def _error_table(cfg: RunConfig) -> np.ndarray:
    rows, _, _ = compare_algorithms(cfg, N_max=6)
    return np.array([r["l2_error"] for r in rows])


def test_criterion_1_eps_convergence_smooth():
    errs = _error_table(BASE)
    lo, hi = BASE.epsilon ** 2 / 10, 10 * BASE.epsilon ** 2
    ratios = [errs[n + 2] / errs[n] for n in (0, 2, 4)]
    for r in ratios:
        assert lo <= r <= hi, f"even-N ratio {r:.4g} outside [{lo}, {hi}]"
    drop = errs[0] / errs[6]
    assert drop >= 1e3, f"N=0 to N=6 error drop {drop:.3g} < 1e3"
    print(f"\nPASS criterion 1: even-N ratios {[f'{r:.3g}' for r in ratios]} "
          f"in [{lo:.3g}, {hi:.3g}]; drop {drop:.3g} >= 1e3")


def test_criterion_2_large_eps_robustness():
    # eps = 0.9 needs a bounded coefficient field for the mode series to
    # stay summable; clamp keeps the smooth field in [-1, 1]
    cfg = dataclasses.replace(BASE, epsilon=0.9, clamp=True)
    errs = _error_table(cfg)
    assert np.all(np.isfinite(errs)), "error table not finite at eps=0.9"
    assert errs[6] < errs[0], f"error(N=6)={errs[6]:.4g} not below " \
                              f"error(N=0)={errs[0]:.4g}"
    print(f"\nPASS criterion 2: eps=0.9 table finite, "
          f"error(6)={errs[6]:.3g} < error(0)={errs[0]:.3g}")


def test_criterion_3_nonsmooth_field_parity():
    cfg = dataclasses.replace(BASE, field="uniform")
    errs = _error_table(cfg)
    lo, hi = cfg.epsilon ** 2 / 10, 10 * cfg.epsilon ** 2
    ratios = [errs[n + 2] / errs[n] for n in (0, 2, 4)]
    for r in ratios:
        assert lo <= r <= hi, f"even-N ratio {r:.4g} outside [{lo}, {hi}]"
    print(f"\nPASS criterion 3: uniform-field even-N ratios "
          f"{[f'{r:.3g}' for r in ratios]} in [{lo:.3g}, {hi:.3g}]")


def test_criterion_4_per_sample_series_consistency():
    cfg = dataclasses.replace(BASE, M=1, seed=3)
    rs = run_standard(cfg)
    rm = run_multimodes(cfg)
    psi6 = truncate_modes(rm, 6)
    diff = l2_norm(DGField(psi6.mesh, rs.psi.coeffs - psi6.coeffs))
    rel = diff / l2_norm(rs.psi)
    assert rel <= 1e-4, f"per-sample relative error {rel:.3g} > 1e-4 at N=6"
    print(f"\nPASS criterion 4: single-sample N=6 relative error "
          f"{rel:.3g} <= 1e-4")


def test_criterion_5_lu_reuse_speedup():
    cfg = RunConfig(L=6, M=200, N=6, epsilon=0.1, seed=1)
    rows, _, _ = compare_algorithms(cfg, N_max=6)
    r2 = rows[2]
    speedup = r2["time_standard_s"] / r2["time_multimodes_s"]
    assert speedup >= 3.0, f"speedup at N=2 is {speedup:.2f}x < 3x"
    ts = np.array([r["time_multimodes_s"] for r in rows])
    Ns = np.arange(7, dtype=float)
    A = np.vstack([Ns, np.ones(7)]).T
    _, res, *_ = np.linalg.lstsq(A, ts, rcond=None)
    ss_res = float(res[0]) if len(res) else 0.0
    r2_fit = 1.0 - ss_res / float(np.sum((ts - ts.mean()) ** 2))
    assert r2_fit >= 0.95, f"affine time-vs-N fit R^2 = {r2_fit:.4f} < 0.95"
    print(f"\nPASS criterion 5: N=2 speedup {speedup:.1f}x >= 3x; "
          f"time-vs-N affine R^2 = {r2_fit:.4f} >= 0.95")


def test_criterion_6_monte_carlo_rate():
    seeds = range(100, 130)

    def cross_seed_std(M: int) -> float:
        vals = [
            component_integral(
                run_multimodes(RunConfig(L=3, M=M, N=2, epsilon=0.1,
                                         seed=s)).psi, 0
            ).real
            for s in seeds
        ]
        return float(np.std(vals, ddof=1))

    ratio = cross_seed_std(25) / cross_seed_std(100)
    assert 2.0 * 0.75 <= ratio <= 2.0 * 1.25, \
        f"std(M)/std(4M) = {ratio:.3f} outside [1.5, 2.5]"
    print(f"\nPASS criterion 6: quadrupling M scales cross-seed std by "
          f"{ratio:.3f} (target 2 +/- 25%)")


def test_criterion_7_matrix_structure():
    mesh = build_uniform_mesh(2)
    A = assemble_a_h(mesh, 2.0, 1.0, 10.0, 0.1)
    S = A.s_part.toarray()
    P = A.p_part.toarray()
    s_dev = np.abs(S - S.conj().T).max()
    assert s_dev <= 1e-13, f"S Hermitian deviation {s_dev:.3g} > 1e-13"
    w = np.linalg.eigvalsh(P)
    p_norm = np.abs(P).max()
    assert w.min() >= -1e-10 * p_norm, \
        f"P min eigenvalue {w.min():.3g} below -1e-10*||P||"
    recon = np.abs((S - 1j * P) - A.matrix.toarray()).max()
    assert recon <= 1e-13 * max(np.abs(A.matrix.toarray()).max(), 1.0)
    hashes = {
        run_multimodes(RunConfig(L=2, M=2, N=1, seed=s,
                                 workers=w_)).matrix_hash
        for s, w_ in ((0, 1), (7, 1), (0, 3))
    }
    assert len(hashes) == 1, "matrix hash varies with seed or worker count"
    print(f"\nPASS criterion 7: ||S - S^H||_max = {s_dev:.3g} <= 1e-13; "
          f"min eig(P) = {w.min():.3g} >= -1e-10||P||; hash seed/worker "
          f"invariant")


def test_criterion_8_exactness_oracles():
    from test_assembly import oracle_dense_matrix

    mesh = build_uniform_mesh(2)
    A = assemble_a_h(mesh, 2.0, 1.0, 10.0, 0.1).matrix.toarray()
    # refined-quadrature oracle (entries are polynomials, so q=5 is exact
    # with margin)
    O = oracle_dense_matrix(mesh, 2.0, 1.0, 10.0, 0.1, q=5)
    rel = np.abs(A - O).max() / np.abs(O).max()
    assert rel <= 1e-12, f"oracle mismatch {rel:.3g} > 1e-12"

    # single-cell analytic entries
    m1 = build_uniform_mesh(1)
    k, lam = 2.0, 1.0
    A1 = assemble_a_h(m1, k, lam, 10.0, 0.1).matrix.toarray()
    expected = -k ** 2 - 4j * k * lam
    dev = abs(A1[0, 0] - expected)
    assert dev <= 1e-13, f"constant-basis diagonal off by {dev:.3g}"
    B1 = assemble_standard(m1, k, lam, 10.0, 0.1, np.array([1.1])).matrix
    dev2 = abs(B1.toarray()[0, 0] - (-k ** 2 * 1.1 ** 2 - 4j * k * lam))
    assert dev2 <= 1e-13

    from mmdg.assembly import assemble_load
    b = assemble_load(m1, lambda x: np.stack(
        [np.ones(len(x)), np.zeros(len(x)), np.zeros(len(x))], axis=1
    ).astype(complex))
    moments = b[:4].real
    assert np.abs(moments - [1.0, 0.5, 0.5, 0.5]).max() <= 1e-13

    # a globally continuous linear field has zero jump penalties
    mesh3 = build_uniform_mesh(3)
    a_vec = np.array([0.3, -0.2, 0.5])
    B = np.array([[0.1, 0.7, -0.4], [0.2, -0.3, 0.6], [-0.5, 0.4, 0.8]])
    coeffs = np.zeros(12 * mesh3.n_cells, dtype=complex)
    for cell in range(mesh3.n_cells):
        lo = mesh3.cell_lower(cell)
        for c in range(3):
            base = 12 * cell + 4 * c
            coeffs[base] = a_vec[c] + B[c] @ lo
            coeffs[base + 1: base + 4] = mesh3.h * B[c]
    field = DGField(mesh3, coeffs)
    j0, j1 = _penalty_quadratic(field, 10.0, 0.1)
    assert j0 <= 1e-12 and j1 <= 1e-12, f"J0={j0:.3g}, J1={j1:.3g} nonzero"
    print(f"\nPASS criterion 8: refined-quadrature oracle rel dev {rel:.3g} "
          f"<= 1e-12; analytic entries <= 1e-13; continuous field "
          f"J0={j0:.3g}, J1={j1:.3g} <= 1e-12")


def test_criterion_9_degenerate_identities():
    cfg = RunConfig(L=3, M=3, N=3, epsilon=0.0, seed=11)
    rs = run_standard(cfg)
    rm = run_multimodes(cfg)
    rel = (l2_norm(DGField(rs.psi.mesh, rs.psi.coeffs - rm.psi.coeffs))
           / l2_norm(rs.psi))
    assert rel <= 1e-12, f"eps=0 algorithms differ by {rel:.3g}"

    # f = 0 => Psi = 0 for the solved linear system
    mesh = build_uniform_mesh(2)
    fact = linalg.factorize(assemble_a_h(mesh, 2.0, 1.0, 10.0, 0.1))
    x = linalg.solve(fact, np.zeros(fact.n, dtype=complex))
    assert np.all(x == 0), "zero source produced nonzero field"

    # the mode recursion seeds from identically-zero previous iterates, so
    # the first recursive source built from them vanishes
    eta = np.random.default_rng(0).uniform(-1, 1, mesh.n_cells)
    b1 = assemble_mode_source(mesh, 2.0, eta, DGField.zeros(mesh),
                              DGField.zeros(mesh))
    assert np.all(b1 == 0), "zero iterates produced a nonzero mode source"
    print(f"\nPASS criterion 9: eps=0 coincidence rel dev {rel:.3g} <= "
          f"1e-12; f=0 => Psi=0; zero iterates => zero mode source")


def test_criterion_10_kl_module():
    mesh = build_uniform_mesh(3)
    spec = CovarianceSpec(0.5)
    basis = compute_kl(mesh, spec)
    C = covariance_matrix(mesh, spec)
    recon = (basis.eigenvectors * basis.eigenvalues) @ basis.eigenvectors.T
    frob = np.linalg.norm(recon - C) / np.linalg.norm(C)
    assert frob <= 1e-10, f"KL reconstruction rel Frobenius {frob:.3g}"
    trace_dev = abs(basis.eigenvalues.sum() - mesh.n_cells)
    assert trace_dev <= 1e-10 * mesh.n_cells, \
        f"trace identity off by {trace_dev:.3g}"

    small = build_uniform_mesh(2)
    sbasis = compute_kl(small, spec, mean=0.0)
    sampler = GaussianSampler(small, spec)
    n = 10_000
    rng1, rng2 = np.random.default_rng(8), np.random.default_rng(9)
    kl_draws = np.array([
        sample_from_kl(small, sbasis, K=small.n_cells, rng=rng1).field.values
        for _ in range(n)
    ])
    ch_draws = np.array([sampler.sample(rng2).values for _ in range(n)])
    moment_dev = np.abs(np.cov(kl_draws.T) - np.cov(ch_draws.T)).max()
    assert moment_dev <= 0.05, \
        f"KL vs Cholesky second-moment deviation {moment_dev:.3g} > 0.05"
    print(f"\nPASS criterion 10: KL reconstruction {frob:.3g} <= 1e-10; "
          f"trace dev {trace_dev:.3g}; sampler second moments within "
          f"{moment_dev:.3g} <= 0.05")
