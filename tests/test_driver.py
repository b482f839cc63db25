import dataclasses
import os
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from mmdg import linalg
from mmdg.dg_core import DGField, l2_norm
from mmdg.driver import (
    FIELD_KINDS,
    SAMPLE_BLOCK,
    MCResult,
    RunConfig,
    compare_algorithms,
    component_integral,
    run_multimodes,
    run_standard,
    sample_stream,
    truncate_modes,
)
from mmdg.mesh import build_uniform_mesh
from mmdg.random_field import FieldSample

SMALL = RunConfig(L=2, M=3, N=3, epsilon=0.1, seed=11)


def diff_norm(a: DGField, b: DGField) -> float:
    return l2_norm(DGField(a.mesh, a.coeffs - b.coeffs))


def test_config_validation():
    bad = [
        dict(L=0), dict(k=0.0), dict(lam=-1.0), dict(epsilon=-0.1),
        dict(gamma0=-1.0), dict(M=0), dict(N=-1), dict(field="levy"),
        dict(ell=0.0), dict(q_f=0), dict(workers=0),
        dict(epsilon=np.nan), dict(epsilon=np.inf), dict(k=np.nan),
        dict(k=np.inf), dict(lam=np.nan), dict(gamma0=np.inf),
        dict(gamma1=np.nan), dict(ell=np.nan), dict(ell=np.inf),
        dict(seed=-1),
        # counts must be integers, and a bool is not one
        dict(workers=1.5), dict(M=True), dict(L=2.5), dict(N=1.5),
        dict(seed=1.5), dict(q_f=2.5),
        # a flag must be a bool, and a physical parameter a real number
        dict(clamp="no"), dict(clamp=1), dict(k="2"), dict(k=None),
        dict(epsilon=1j), dict(ell=True),
    ]
    # an invalid config cannot be built, directly or by replace
    for kw in bad:
        with pytest.raises(ValueError):
            RunConfig(**kw)
        with pytest.raises(ValueError):
            dataclasses.replace(SMALL, **kw)
    assert len(dataclasses.fields(RunConfig)) == 14


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


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("M", [1, 17, 37])
@pytest.mark.parametrize("field", FIELD_KINDS)
def test_psi_is_the_truncation_at_N(field, M, workers):
    # psi and truncate_modes share one combination rule, bit for bit
    cfg = dataclasses.replace(SMALL, field=field, M=M, workers=workers)
    r = run_multimodes(cfg)
    assert np.array_equal(truncate_modes(r, cfg.N).coeffs, r.psi.coeffs)


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


@pytest.mark.parametrize("M", [5, 37])
def test_worker_invariance_under_nested_dissection(M):
    # named for the nested-dissection order the mirror factor once used; L=6
    # now factors the two distinct half-blocks by the one symmetric rule
    cfg = RunConfig(L=6, M=M, N=3, seed=11)
    runs = [run_multimodes(dataclasses.replace(cfg, workers=w))
            for w in (1, 2, 3, 1)]
    for r in runs[1:]:
        assert np.array_equal(r.psi.coeffs, runs[0].psi.coeffs)
        assert r.diagnostics == runs[0].diagnostics


@pytest.mark.parametrize("L", [3, 4, 5, 6])
@pytest.mark.parametrize("field", FIELD_KINDS)
def test_nested_dissection_agrees_with_the_coupled_factor(L, field,
                                                          monkeypatch):
    # named for the nested-dissection order the mirror factor once used: the
    # symmetric factor of the mirror basis's distinct half-blocks and
    # the coupled minimum-degree factor of A_h, with partial pivoting, give
    # the same means up to round-off
    import scipy.sparse.linalg as spla

    from mmdg import linalg

    cfg = RunConfig(L=L, M=20, N=3, field=field, seed=3)
    mirror = run_multimodes(cfg)

    def coupled(A):
        return linalg.Factorization(
            lu=spla.splu(A.matrix, permc_spec="MMD_AT_PLUS_A"),
            n=A.matrix.shape[0],
            nnz=A.matrix.nnz)

    monkeypatch.setattr(linalg, "factorize", coupled)
    ref = run_multimodes(cfg)
    assert ref.diagnostics["factor"]["ordering"] == "mmd"
    assert (mirror.diagnostics["factor"]["nnz_A"]
            == ref.diagnostics["factor"]["nnz_A"])
    for a, b in zip([mirror.psi, *mirror.mode_means],
                    [ref.psi, *ref.mode_means]):
        assert diff_norm(a, b) <= 1e-10 * l2_norm(b)


def test_factor_is_recorded_by_both_drivers(monkeypatch):
    # the multi-modes run records its one factor, the reference its
    # first sample's, in one schema
    from mmdg import linalg

    factors = []
    factorize = linalg.factorize

    def recording_factorize(A):
        factors.append(factorize(A))
        return factors[-1]

    monkeypatch.setattr(linalg, "factorize", recording_factorize)
    cfg = dataclasses.replace(SMALL, M=4)
    assert run_multimodes(cfg).diagnostics["factor"] == factors[0].stats
    factors.clear()
    first = run_standard(dataclasses.replace(cfg, M=1)).diagnostics["factor"]
    assert first == factors[0].stats
    assert set(first) == {"ordering", "nnz_A", "nnz_LU"}
    res = run_standard(dataclasses.replace(cfg, workers=2))
    assert res.diagnostics["factor"] == first


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


@pytest.mark.parametrize("field", FIELD_KINDS)
def test_mode_means_do_not_depend_on_epsilon(field):
    # epsilon weights the modes only in psi, so one run serves every epsilon
    cfg = dataclasses.replace(SMALL, field=field, M=5)
    a = run_multimodes(dataclasses.replace(cfg, epsilon=0.1))
    b = run_multimodes(dataclasses.replace(cfg, epsilon=0.7))
    for pa, pb in zip(a.mode_means, b.mode_means, strict=True):
        assert np.array_equal(pa.coeffs, pb.coeffs)


def test_compare_eps_zero_rows_vanish():
    cfg = dataclasses.replace(SMALL, epsilon=0.0, L=2, M=2)
    rows, _, _ = compare_algorithms(cfg, N_max=2)
    for r in rows:
        assert r["l2_error"] <= 1e-10


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("M", [1, 17, 37])
@pytest.mark.parametrize("field", FIELD_KINDS)
def test_field_stats_are_maxima_over_the_eta_draws(field, M, workers):
    from mmdg.driver import _FieldDraws

    cfg = dataclasses.replace(SMALL, field=field, M=M, N=1, workers=workers)
    draws = _FieldDraws(build_uniform_mesh(cfg.L), cfg)
    sup = max(float(np.abs(draws.draw(j)[0].values).max()) for j in range(M))
    for run in (run_multimodes, run_standard):
        res = run(cfg)
        assert res.field_stats == {"sup_norm_max": sup}     # bitwise: float ==


def test_large_eps_runs_without_warning():
    # eps = 0.9 at N = 2: the contraction eps^2 ||phi_2|| / ||phi_0|| is
    # recorded, and no value of it raises a warning
    cfg = dataclasses.replace(SMALL, epsilon=0.9, M=1, N=2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        r = run_multimodes(cfg)
    assert not caught
    assert np.all(np.isfinite(r.psi.coeffs))
    norms = [l2_norm(phi) for phi in r.mode_means]
    health = dict(r.diagnostics)
    assert health.pop("factor")["ordering"] == "mmd"
    assert health.pop("backward_error") < 1e-12
    assert health.pop("blas_threads") in (1, "unmanaged")
    assert health == {
        "mode_l2_norms": norms,
        "even_contraction": [cfg.epsilon ** 2 * norms[2] / norms[0]]}


def test_default_runs_emit_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res_mm = run_multimodes(RunConfig())
        res_std = run_standard(RunConfig(M=2))
    # the health fields are plain data: N + 1 norms and the contraction at
    # n = 2, 4 for the multi-modes run, one norm and none for the reference
    assert len(res_mm.diagnostics["mode_l2_norms"]) == RunConfig().N + 1
    assert len(res_mm.diagnostics["even_contraction"]) == 2
    assert 0.0 < max(res_mm.diagnostics["even_contraction"]) < 1.0
    health = dict(res_std.diagnostics)
    assert health.pop("factor")["ordering"] == "mmd"
    assert health.pop("backward_error") < 1e-12
    assert health.pop("blas_threads") in (1, "unmanaged")
    assert health == {"mode_l2_norms": [l2_norm(res_std.psi)],
                      "even_contraction": []}


def _scale_eta(monkeypatch, factor):
    """Make every run draw factor * eta, with xi unchanged."""
    from mmdg.driver import _FieldDraws

    draw = _FieldDraws.draw

    def scaled(self, j):
        eta, xi = draw(self, j)
        return FieldSample(factor * eta.values), xi

    monkeypatch.setattr(_FieldDraws, "draw", scaled)


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("field", FIELD_KINDS)
def test_negating_eta_flips_the_odd_modes(field, workers, monkeypatch):
    # phi_n is homogeneous of degree n in eta: negating every eta draw maps
    # phi_n to (-1)^n phi_n bit for bit, so odd-mode means of a symmetric
    # field vanish in expectation
    cfg = dataclasses.replace(SMALL, field=field, M=37, N=4, workers=workers)
    plain = run_multimodes(cfg).mode_means
    _scale_eta(monkeypatch, -1.0)
    negated = run_multimodes(cfg).mode_means
    for n, (a, b) in enumerate(zip(plain, negated)):
        assert np.array_equal((-1) ** n * a.coeffs, b.coeffs)


GATE = RunConfig(L=4, N=6)


def test_contraction_below_one_for_the_clamped_large_eps_case():
    # the series converges here (acceptance criterion 2)
    cfg = dataclasses.replace(GATE, M=64, epsilon=0.9, clamp=True)
    contraction = run_multimodes(cfg).diagnostics["even_contraction"]
    assert len(contraction) == 3 and max(contraction) < 1.0


def test_contraction_above_one_for_a_divergent_series():
    cfg = dataclasses.replace(GATE, M=16, epsilon=3.0, field="uniform")
    assert max(run_multimodes(cfg).diagnostics["even_contraction"]) > 1.0


def test_contraction_reads_zero_at_eps_zero_and_over_zero_modes(monkeypatch):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_multimodes(dataclasses.replace(SMALL, epsilon=0.0, N=4))
        assert res.diagnostics["even_contraction"] == [0.0, 0.0]
        # eta = 0: phi_1..phi_N are zero, so ||phi_2|| / ||phi_0|| is 0 and
        # ||phi_4|| / ||phi_2|| divides by a zero norm
        _scale_eta(monkeypatch, 0.0)
        res = run_multimodes(dataclasses.replace(SMALL, N=4))
    assert res.diagnostics["mode_l2_norms"][1:] == [0.0] * 4
    assert res.diagnostics["even_contraction"] == [0.0, 0.0]


def test_diagnostics_independent_of_workers():
    for run in (run_multimodes, run_standard):
        one, three = (run(dataclasses.replace(SMALL, M=37, N=4, workers=w))
                      for w in (1, 3))
        assert one.diagnostics == three.diagnostics


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


@pytest.mark.parametrize("N", [0, 2])
@pytest.mark.parametrize("M", [1, 17, 37])
@pytest.mark.parametrize("field", FIELD_KINDS)
def test_last_mode_is_one_solve_of_the_summed_sources(field, M, N,
                                                      monkeypatch):
    from mmdg import linalg

    cfg = dataclasses.replace(SMALL, field=field, M=M, N=N)
    longer = run_multimodes(dataclasses.replace(cfg, N=N + 1))
    columns = []
    solve = linalg.solve

    def counting_solve(fact, b):
        columns.append(b.shape[1] if b.ndim == 2 else 1)
        return solve(fact, b)

    monkeypatch.setattr(linalg, "solve", counting_solve)
    res = run_multimodes(cfg)
    blocks = -(-M // SAMPLE_BLOCK)
    assert len(columns) == (N + 1) * blocks
    assert sum(columns) == N * M + blocks
    # modes below N are the B-column solves of the longer run, bit for
    # bit; mode N is the solve of the summed sources, equal at round-off
    for n in range(N):
        assert np.array_equal(res.mode_means[n].coeffs,
                              longer.mode_means[n].coeffs)
    last, ref = res.mode_means[N].coeffs, longer.mode_means[N].coeffs
    assert np.linalg.norm(last - ref) <= 1e-13 * np.linalg.norm(ref)
    res3 = run_multimodes(dataclasses.replace(cfg, workers=3))
    assert np.array_equal(res.psi.coeffs, res3.psi.coeffs)
    for a, b in zip(res.mode_means, res3.mode_means, strict=True):
        assert np.array_equal(a.coeffs, b.coeffs)


@pytest.mark.parametrize("entry", ["library", "cli"])
@pytest.mark.parametrize("N", [1, 3])
def test_non_finite_last_mode_source_raises(N, entry, monkeypatch, tmp_path):
    # a NaN in sample 1's mode-N source of the first block: summing the
    # sources before the one solve cannot hide it
    from mmdg import driver
    from mmdg.cli import main

    source = driver.assemble_mode_source
    calls = []

    def planted(mesh, k, etas, e_prev, e_prev2, mass):
        b = source(mesh, k, etas, e_prev, e_prev2, mass)
        calls.append(1)
        if len(calls) == N:
            b[5, 1] = np.nan
        return b

    monkeypatch.setattr(driver, "assemble_mode_source", planted)
    if entry == "library":
        with pytest.raises(FloatingPointError,
                           match=f"non-finite mode {N} in the block of "
                                 f"samples 0..1"):
            run_multimodes(dataclasses.replace(SMALL, M=2, N=N))
    else:
        rc = main(["run", "--algorithm", "multimodes", "--L", "2",
                   "--samples", "2", "--modes", str(N),
                   "--out", str(tmp_path / "x")])
        assert rc == 3
    assert len(calls) == N


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


def test_raising_block_stops_a_parallel_run(monkeypatch):
    # sample 0 raises at once while every other block's first draw is
    # slow: the error surfaces unchanged and the blocks not yet started
    # are cancelled, not run
    from mmdg import driver

    failure = RuntimeError("draw failed")
    block_starts = []
    draw = driver._FieldDraws.draw

    def failing_draw(self, j):
        if j % SAMPLE_BLOCK == 0:
            block_starts.append(j)
            if j == 0:
                raise failure
            time.sleep(0.05)
        return draw(self, j)

    monkeypatch.setattr(driver._FieldDraws, "draw", failing_draw)
    cfg = dataclasses.replace(SMALL, M=40 * SAMPLE_BLOCK, N=1, workers=3)
    with pytest.raises(RuntimeError) as exc:
        run_multimodes(cfg)
    assert exc.value is failure
    assert len(block_starts) < 40


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


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("delayed, charged", [
    ("assemble_mode_source", (1, 2, 3)),
    ("assemble_oscillatory_load", (0,)),
])
def test_each_mode_is_charged_its_own_work(delayed, charged, workers,
                                           monkeypatch):
    # a pause in one step of the recursion lands on the modes that step
    # builds: mode sources on modes 1..N, the load on mode 0
    from mmdg import driver

    pause = 0.03
    step = getattr(driver, delayed)

    def slow_step(*args):
        time.sleep(pause)
        return step(*args)

    monkeypatch.setattr(driver, delayed, slow_step)
    cfg = dataclasses.replace(SMALL, L=2, M=2 * SAMPLE_BLOCK, N=3,
                              workers=workers)
    per_mode = run_multimodes(cfg).timings["per_mode_s"]
    assert len(per_mode) == cfg.N + 1
    n_blocks = 2
    for n, seconds in enumerate(per_mode):
        if n in charged:
            assert seconds >= n_blocks * pause
        else:
            assert seconds < n_blocks * pause


def test_matrix_hash_only_from_the_factored_a_h(monkeypatch):
    from mmdg import driver

    calls = []
    assemble = driver.assemble_a_h

    def counting_assemble(*args):
        calls.append(1)
        return assemble(*args)

    monkeypatch.setattr(driver, "assemble_a_h", counting_assemble)
    cfg = dataclasses.replace(SMALL, M=2, N=1)
    # the reference run builds no A_h, so it records no hash
    res = run_standard(cfg)
    assert res.matrix_hash is None and not calls
    res_mm = run_multimodes(cfg)
    assert len(calls) == 1
    mesh = build_uniform_mesh(cfg.L)
    assert res_mm.matrix_hash == assemble(mesh, cfg.k, cfg.lam, cfg.gamma0,
                                          cfg.gamma1).content_hash()
    assert len(calls) == 1


def test_result_is_frozen():
    res = run_multimodes(dataclasses.replace(SMALL, M=1, N=1))
    for name in ("psi", "factorizations", "matrix_hash"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(res, name, None)


@pytest.mark.parametrize("L", [4, 6])
@pytest.mark.parametrize("run, N", [(run_multimodes, 0), (run_multimodes, 2),
                                    (run_standard, 0)])
def test_backward_error_of_a_sampled_solve(run, N, L):
    res = run(RunConfig(L=L, M=1, N=N))
    assert 0.0 < res.diagnostics["backward_error"] < 1e-12


def test_standard_backward_error_is_that_of_sample_0():
    # with M = 1, psi is sample 0's solution
    from mmdg.assembly import assemble_oscillatory_load, assemble_standard
    from mmdg.driver import _FieldDraws

    cfg = RunConfig(L=3, M=1)
    res = run_standard(cfg)
    mesh = build_uniform_mesh(cfg.L)
    eta, xi = _FieldDraws(mesh, cfg).draw(0)
    A = assemble_standard(mesh, cfg.k, cfg.lam, cfg.gamma0, cfg.gamma1,
                          1.0 + cfg.epsilon * eta.values)
    b = assemble_oscillatory_load(mesh, xi.values, cfg.k, cfg.q_f)
    x = res.psi.coeffs
    assert res.diagnostics["backward_error"] == (
        np.linalg.norm(A.matrix @ x - b) / np.linalg.norm(b))


def _blas_counts(pools):
    return [get() for _, get in pools]


@pytest.fixture
def blas_pools():
    """Each OpenBLAS's thread setter and getter, all set to 2 threads so
    that holding one thread shows; the caller's counts come back after."""
    pools = linalg.openblas_pools()
    if pools is None:
        pytest.skip("no OpenBLAS with a known thread setter is mapped")
    saved = _blas_counts(pools)
    for set_threads, _ in pools:
        set_threads(2)
    yield pools
    for (set_threads, _), n in zip(pools, saved):
        set_threads(n)


@pytest.mark.parametrize("run", [run_multimodes, run_standard])
def test_blas_threads_are_restored_on_return_and_raise(run, blas_pools,
                                                       monkeypatch):
    before = _blas_counts(blas_pools)
    inside = []
    factorize = linalg.factorize

    def recording_factorize(A):
        inside.append(_blas_counts(blas_pools))
        return factorize(A)

    monkeypatch.setattr(linalg, "factorize", recording_factorize)
    assert run(dataclasses.replace(SMALL, M=2)).diagnostics["blas_threads"] == 1
    assert inside and all(c == [1] * len(before) for c in inside)
    assert _blas_counts(blas_pools) == before

    def singular(A):
        raise linalg.SingularMatrixError("singular")

    monkeypatch.setattr(linalg, "factorize", singular)
    with pytest.raises(linalg.SingularMatrixError):
        run(SMALL)
    assert _blas_counts(blas_pools) == before


def test_overlapping_runs_hold_one_blas_thread_until_both_end(blas_pools,
                                                              monkeypatch):
    # both runs meet inside their drivers, the multi-modes run ends first,
    # and the reference run, still inside, keeps the one thread
    cfgs = {run_multimodes: RunConfig(L=4, M=3, N=2, seed=5),
            run_standard: RunConfig(L=4, M=1, seed=5)}
    serial = {run: run(cfg).psi.coeffs for run, cfg in cfgs.items()}
    before = _blas_counts(blas_pools)
    both_inside = threading.Barrier(2, timeout=60)
    release = threading.Event()
    seen, results = [], {}
    factorize = linalg.factorize

    def meeting_factorize(A):
        seen.append(_blas_counts(blas_pools))
        both_inside.wait()
        if threading.current_thread() is threads[run_standard]:
            assert release.wait(60)
        return factorize(A)

    def call(run):
        results[run] = run(cfgs[run])

    monkeypatch.setattr(linalg, "factorize", meeting_factorize)
    threads = {run: threading.Thread(target=call, args=(run,)) for run in cfgs}
    for t in threads.values():
        t.start()
    try:
        threads[run_multimodes].join(60)
        assert not threads[run_multimodes].is_alive()
        assert run_multimodes in results
        assert _blas_counts(blas_pools) == [1] * len(before)
    finally:
        release.set()
        threads[run_standard].join(60)
    assert not threads[run_standard].is_alive()
    assert _blas_counts(blas_pools) == before
    assert seen == [[1] * len(before)] * 2
    for run, res in results.items():
        assert res.diagnostics["blas_threads"] == 1
        assert np.array_equal(res.psi.coeffs, serial[run])


BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def test_answers_do_not_depend_on_the_blas_environment():
    # the reference estimator's L=6 factor and the L=8 mirror-sector
    # factor round differently on OpenBLAS's default threads
    code = (
        "import hashlib\n"
        "from mmdg.driver import RunConfig, run_multimodes, run_standard\n"
        "for run, cfg in ((run_standard, RunConfig(L=6, M=1)),\n"
        "                 (run_multimodes, RunConfig(L=8, M=2, N=2))):\n"
        "    res = run(cfg)\n"
        "    print(res.diagnostics['blas_threads'],\n"
        "          res.diagnostics['factor']['nnz_LU'],\n"
        "          hashlib.sha256(res.psi.coeffs.tobytes()).hexdigest())\n"
    )
    import mmdg

    src = os.path.dirname(os.path.dirname(mmdg.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    unset = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
    unset["PYTHONPATH"] = path
    outputs = [subprocess.run([sys.executable, "-c", code], check=True,
                              capture_output=True, text=True, env=env
                              ).stdout.split("\n")
               for env in (unset, {**unset, **dict.fromkeys(BLAS_ENV, "1")})]
    if any(line.startswith("unmanaged") for out in outputs for line in out):
        pytest.skip("OpenBLAS threads are unmanaged in this install")
    assert outputs[0] == outputs[1]
    assert all(line.startswith("1 ") for line in outputs[0][:2])
