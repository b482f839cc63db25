import dataclasses
import time
import warnings

import numpy as np
import pytest

from mmdg.dg_core import DGField, l2_norm
from mmdg.driver import (
    SAMPLE_BLOCK,
    MCResult,
    RunConfig,
    compare_algorithms,
    component_integral,
    diagnostics,
    run_multimodes,
    run_standard,
    sample_stream,
    truncate_modes,
)
from mmdg.mesh import build_uniform_mesh

SMALL = RunConfig(L=2, M=3, N=3, epsilon=0.1, seed=11)


def diff_norm(a: DGField, b: DGField) -> float:
    return l2_norm(DGField(a.mesh, a.coeffs - b.coeffs))


def test_config_validation():
    bad = [
        dict(L=0), dict(k=0.0), dict(lam=-1.0), dict(epsilon=-0.1),
        dict(gamma0=-1.0), dict(M=0), dict(N=-1), dict(field="levy"),
        dict(ell=0.0), dict(q_f=0), dict(workers=0),
    ]
    for kw in bad:
        with pytest.raises(ValueError):
            dataclasses.replace(SMALL, **kw).validate()


def test_eps_zero_algorithms_coincide():
    cfg = dataclasses.replace(SMALL, epsilon=0.0, L=3, M=2)
    rs = run_standard(cfg)
    rm = run_multimodes(cfg)
    assert diff_norm(rs.psi, rm.psi) <= 1e-12 * max(l2_norm(rs.psi), 1e-30)


def test_standard_m1_equals_single_solve():
    cfg = dataclasses.replace(SMALL, M=1)
    r1 = run_standard(cfg)
    # one sample: psi is exactly that sample's solve; rerunning gives the
    # same coefficients bit for bit
    r2 = run_standard(cfg)
    assert np.array_equal(r1.psi.coeffs, r2.psi.coeffs)


def test_standard_no_randomness_when_deterministic():
    # eps = 0 removes eta from the matrix; the source still varies with
    # xi, so instead check that two different M values give the same psi
    # once the source field is effectively frozen per sample index
    cfg = dataclasses.replace(SMALL, epsilon=0.0, M=2)
    r = run_standard(cfg)
    assert r.factorizations == cfg.M


def test_multimodes_exactly_one_factorization():
    cfg = dataclasses.replace(SMALL, M=4, N=5)
    r = run_multimodes(cfg)
    assert r.factorizations == 1


def test_psi_is_eps_weighted_mode_sum():
    cfg = dataclasses.replace(SMALL, M=2, N=4)
    r = run_multimodes(cfg)
    acc = np.zeros_like(r.psi.coeffs)
    for n, phi in enumerate(r.mode_means):
        acc += cfg.epsilon ** n * phi.coeffs
    assert np.linalg.norm(acc - r.psi.coeffs) <= 1e-12 * np.linalg.norm(acc)


def test_mode_series_converges_to_standard_per_sample():
    cfg = RunConfig(L=3, M=1, N=6, epsilon=0.1, seed=3)
    rs = run_standard(cfg)
    rm = run_multimodes(cfg)
    ref = l2_norm(rs.psi)
    errs = [diff_norm(rs.psi, truncate_modes(rm, N)) / ref
            for N in range(cfg.N + 1)]
    # geometric decay; successive ratio bounded by ~10 * eps
    for a, b in zip(errs, errs[1:]):
        assert b <= 10 * cfg.epsilon * a
    assert errs[-1] < 1e-4 * errs[0]


def test_reproducibility_and_worker_invariance():
    cfg = dataclasses.replace(SMALL, M=5, N=2)
    r1 = run_multimodes(cfg)
    r2 = run_multimodes(cfg)
    r4 = run_multimodes(dataclasses.replace(cfg, workers=3))
    assert np.array_equal(r1.psi.coeffs, r2.psi.coeffs)
    assert np.array_equal(r1.psi.coeffs, r4.psi.coeffs)
    s1 = run_standard(cfg)
    s2 = run_standard(dataclasses.replace(cfg, workers=2))
    assert np.array_equal(s1.psi.coeffs, s2.psi.coeffs)


def test_common_random_numbers_between_algorithms():
    # identical (seed, j) streams feed both algorithms
    cfg = dataclasses.replace(SMALL, M=2)
    rng_a = sample_stream(cfg.seed, 1, 0)
    rng_b = sample_stream(cfg.seed, 1, 0)
    assert np.array_equal(rng_a.standard_normal(5), rng_b.standard_normal(5))
    assert not np.array_equal(
        sample_stream(cfg.seed, 1, 0).standard_normal(5),
        sample_stream(cfg.seed, 2, 0).standard_normal(5),
    )


def test_source_linearity_of_pipeline():
    # multiplying the source by 2 doubles the solution; emulate by
    # scaling the assembled load within a single solve
    from mmdg import linalg
    from mmdg.assembly import assemble_a_h, assemble_oscillatory_load

    mesh = build_uniform_mesh(3)
    xi = np.zeros(mesh.n_cells)
    A = assemble_a_h(mesh, 2.0, 1.0, 10.0, 0.1)
    fact = linalg.factorize(A)
    b = assemble_oscillatory_load(mesh, xi, 2.0)
    x1 = linalg.solve(fact, b)
    x2 = linalg.solve(fact, 2.0 * b)
    assert np.linalg.norm(x2 - 2 * x1) <= 1e-12 * np.linalg.norm(x2)


def test_compare_rows_structure():
    cfg = dataclasses.replace(SMALL, L=3, M=3)
    rows, rs, rm = compare_algorithms(cfg, N_max=4)
    assert [r["N"] for r in rows] == [0, 1, 2, 3, 4]
    for r in rows:
        assert r["eps_pow_N"] == pytest.approx(cfg.epsilon ** r["N"])
        assert r["l2_error"] >= 0 and r["dg_error"] >= r["l2_error"] - 1e-12
    times = [r["time_multimodes_s"] for r in rows]
    assert all(b >= a for a, b in zip(times, times[1:]))


def test_compare_eps_zero_rows_vanish():
    cfg = dataclasses.replace(SMALL, epsilon=0.0, L=2, M=2)
    rows, _, _ = compare_algorithms(cfg, N_max=2)
    for r in rows:
        assert r["l2_error"] <= 1e-10


def test_diagnostics_formulas():
    cfg = dataclasses.replace(SMALL, epsilon=0.1, k=2.0, mu_user=1.0)
    d = diagnostics(cfg)
    assert d["sigma"] == pytest.approx(7 * 0.1 * 1 * 3 * 2)
    assert d["sigma_hat"] == pytest.approx(14 * 1 * 1 * 3 * 2 * 0.1)
    assert d["sigma_tilde"] == pytest.approx(4 * 1 * 3 * 0.1)
    z = diagnostics(dataclasses.replace(cfg, epsilon=0.0))
    assert z["sigma"] == z["sigma_hat"] == z["sigma_tilde"] == 0.0


def test_large_eps_runs_without_warning():
    # sigma = 7 * 0.9 * 3 * 2 = 37.8: far above 1, yet only recorded
    cfg = dataclasses.replace(SMALL, epsilon=0.9, M=1, N=1, mu_user=1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        r = run_multimodes(cfg)
    assert not caught
    assert np.all(np.isfinite(r.psi.coeffs))
    assert r.diagnostics["sigma"] == pytest.approx(37.8)


def test_default_runs_emit_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res_mm = run_multimodes(RunConfig())
        res_std = run_standard(RunConfig(M=2))
    # the theory products stay informational fields
    for res in (res_mm, res_std):
        assert set(res.diagnostics) == {"sigma", "sigma_hat", "sigma_tilde",
                                        "mu"}
        assert res.diagnostics["sigma_tilde"] == pytest.approx(1.2)


def test_zero_source_gives_zero_mean():
    # xi does not matter if the load vanishes; emulate by solving the
    # homogeneous problem directly
    from mmdg import linalg
    from mmdg.assembly import assemble_a_h

    mesh = build_uniform_mesh(2)
    fact = linalg.factorize(assemble_a_h(mesh, 2.0, 1.0, 10.0, 0.1))
    x = linalg.solve(fact, np.zeros(fact.n, dtype=complex))
    assert np.all(x == 0)


def test_component_integral_linear_functional():
    mesh = build_uniform_mesh(2)
    f = DGField.constant(mesh, [2.0 + 1.0j, 0.0, 0.0])
    assert component_integral(f, 0) == pytest.approx(2.0 + 1.0j)
    assert component_integral(f, 1) == pytest.approx(0.0)


def test_uniform_field_run():
    cfg = dataclasses.replace(SMALL, field="uniform", M=2, N=2)
    r = run_multimodes(cfg)
    assert np.all(np.isfinite(r.psi.coeffs))
    assert r.field_stats["sup_norm_max"] <= 1.0


def _reference_multimodes(cfg):
    """Sample-by-sample mode recursion, one solve per sample and mode."""
    from mmdg import linalg
    from mmdg.assembly import (assemble_a_h, assemble_mode_source,
                               assemble_oscillatory_load)
    from mmdg.driver import _FieldDraws

    mesh = build_uniform_mesh(cfg.L)
    draws = _FieldDraws(mesh, cfg)
    fact = linalg.factorize(assemble_a_h(mesh, cfg.k, cfg.lam, cfg.gamma0,
                                         cfg.gamma1))
    sums = np.zeros((cfg.N + 1, 12 * mesh.n_cells), dtype=complex)
    for j in range(cfg.M):
        eta, xi = draws.draw(j)
        e_prev = e_prev2 = DGField.zeros(mesh)
        for n in range(cfg.N + 1):
            if n == 0:
                b = assemble_oscillatory_load(mesh, xi.values, cfg.k, cfg.q_f)
            else:
                b = assemble_mode_source(mesh, cfg.k, eta.values, e_prev,
                                         e_prev2)
            x = linalg.solve(fact, b)
            sums[n] += x
            e_prev2, e_prev = e_prev, DGField(mesh, x)
    means = sums / cfg.M
    psi = (cfg.epsilon ** np.arange(cfg.N + 1)) @ means
    return psi, means


@pytest.mark.parametrize("M", [1, SAMPLE_BLOCK - 1, SAMPLE_BLOCK,
                               2 * SAMPLE_BLOCK + 1])
def test_block_partition_matches_sample_by_sample(M):
    cfg = dataclasses.replace(SMALL, M=M, N=3)
    r = run_multimodes(cfg)
    psi, means = _reference_multimodes(cfg)
    assert (np.linalg.norm(r.psi.coeffs - psi)
            <= 1e-12 * np.linalg.norm(psi))
    for n, phi in enumerate(r.mode_means):
        assert (np.linalg.norm(phi.coeffs - means[n])
                <= 1e-12 * np.linalg.norm(means[n]))
    if M == 2 * SAMPLE_BLOCK + 1:
        r3 = run_multimodes(dataclasses.replace(cfg, workers=3))
        assert np.array_equal(r.psi.coeffs, r3.psi.coeffs)


@pytest.mark.parametrize("run, where", [
    (run_multimodes, "mode 0 in the block of samples 0..1"),
    (run_standard, "sample 0"),
])
def test_non_finite_load_raises(run, where, monkeypatch):
    from mmdg import driver

    def nan_load(mesh, xi, k, q_f=4):
        return np.full((12 * mesh.n_cells, *np.shape(xi)[1:]), np.nan,
                       dtype=complex)

    monkeypatch.setattr(driver, "assemble_oscillatory_load", nan_load)
    with pytest.raises(FloatingPointError, match=f"non-finite .*{where}"):
        run(dataclasses.replace(SMALL, M=2, N=1))


@pytest.mark.parametrize("workers", [1, 3])
def test_factorization_counts_seen_from_outside(workers, monkeypatch):
    from mmdg import linalg

    calls = []
    factorize = linalg.factorize

    def counting_factorize(A):
        calls.append(1)
        return factorize(A)

    monkeypatch.setattr(linalg, "factorize", counting_factorize)
    cfg = dataclasses.replace(SMALL, M=SAMPLE_BLOCK + 2, N=2, workers=workers)
    res = run_multimodes(cfg)
    assert len(calls) == 1 and res.factorizations == 1
    calls.clear()
    res = run_standard(cfg)
    assert len(calls) == cfg.M and res.factorizations == cfg.M


def test_concurrent_runs_do_not_interfere():
    from concurrent.futures import ThreadPoolExecutor

    cfg = RunConfig(L=4, M=4, N=2, seed=11)
    serial = run_multimodes(cfg).psi.coeffs
    with ThreadPoolExecutor(max_workers=2) as ex:
        results = list(ex.map(lambda _: run_multimodes(cfg), range(8)))
    for res in results:
        assert res.factorizations == 1
        assert np.array_equal(res.psi.coeffs, serial)


def test_both_drivers_share_one_timings_schema():
    cfg = dataclasses.replace(SMALL, M=2, N=1)
    std = run_standard(cfg).timings
    mm = run_multimodes(cfg).timings
    assert set(std) <= set(mm)
    for key in ("total_s", "setup_s", "samples_s", "per_mode_s"):
        assert key in std and key in mm


@pytest.mark.parametrize("run", [run_multimodes, run_standard])
def test_per_mode_times_cover_the_draws(run, monkeypatch):
    from mmdg.driver import _FieldDraws

    draw = _FieldDraws.draw

    # a draw slower than a reference sample's assembly, factorization and
    # solve at L=2, so that leaving the draws out shows for both drivers
    pause = 0.05

    def slow_draw(self, j):
        time.sleep(pause)
        return draw(self, j)

    monkeypatch.setattr(_FieldDraws, "draw", slow_draw)
    cfg = dataclasses.replace(SMALL, M=3, N=2)
    timings = run(cfg).timings
    assert sum(timings["per_mode_s"]) >= cfg.M * pause
    assert sum(timings["per_mode_s"]) <= timings["samples_s"]


def test_matrix_hash_assembles_on_first_read(monkeypatch):
    from mmdg import driver

    calls = []
    assemble = driver.assemble_a_h

    def counting_assemble(*args):
        calls.append(1)
        return assemble(*args)

    monkeypatch.setattr(driver, "assemble_a_h", counting_assemble)
    cfg = dataclasses.replace(SMALL, M=2, N=1)
    res = run_standard(cfg)
    assert not calls
    mesh = build_uniform_mesh(cfg.L)
    expected = assemble(mesh, cfg.k, cfg.lam, cfg.gamma0,
                        cfg.gamma1).content_hash()
    assert res.matrix_hash == expected and len(calls) == 1
    assert res.matrix_hash == expected and len(calls) == 1  # cached
    assert run_multimodes(cfg).matrix_hash == expected
