"""Monte Carlo drivers: the per-sample-factorization algorithm, the
accelerated single-factorization multi-modes algorithm, common-random-
numbers comparisons, and convergence diagnostics.

Per-sample randomness is drawn from counter-based streams keyed by
(master seed, sample index, purpose), so the two algorithms see identical
draws and results are independent of execution order and worker count.
The sample mean is always accumulated in sample-index order; the
multi-modes algorithm sums each fixed block of samples first, then the
block sums in block order.
"""

from __future__ import annotations

import math
import time
import warnings as _warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg
from .assembly import (
    assemble_a_h,
    assemble_mode_source,
    assemble_oscillatory_load,
    assemble_standard,
)
from .dg_core import DGField, dg_norm, l2_norm, make_quadrature, monomial_values
from .mesh import HexMesh, build_uniform_mesh
from .random_field import CovarianceSpec, FieldSample, GaussianSampler, sample_uniform

FIELD_KINDS = ("gaussian", "uniform")

# Samples per block of the multi-modes recursion: each mode of a block is one
# triangular solve with SAMPLE_BLOCK right-hand-side columns.
SAMPLE_BLOCK = 16


@dataclass(frozen=True)
class RunConfig:
    """All knobs of one Monte Carlo run."""

    L: int = 4                     # cells per axis, h = 1/L
    k: float = 2.0                 # wave number
    lam: float = 1.0               # impedance parameter
    epsilon: float = 0.1           # perturbation size
    gamma0: float = 10.0           # tangential jump penalty
    gamma1: float = 0.1            # curl jump penalty
    M: int = 10                    # sample count
    N: int = 4                     # modes 0..N inclusive
    field: str = "gaussian"
    ell: float = 0.5               # correlation length (gaussian field)
    clamp: bool = False
    q_f: int = 4                   # load quadrature order per axis
    seed: int = 0
    C0_user: float = 1.0           # analysis constants for diagnostics only
    Chat0_user: float = 1.0
    mu_user: float | None = None
    workers: int = 1

    def validate(self) -> None:
        if self.L < 1:
            raise ValueError("L must be >= 1")
        if self.k <= 0 or self.lam <= 0:
            raise ValueError("k and lambda must be positive")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        if self.gamma0 < 0 or self.gamma1 < 0:
            raise ValueError("penalties must be nonnegative")
        if self.M < 1:
            raise ValueError("M must be >= 1")
        if self.N < 0:
            raise ValueError("N must be >= 0")
        if self.field not in FIELD_KINDS:
            raise ValueError(f"field must be one of {FIELD_KINDS}")
        if self.ell <= 0:
            raise ValueError("correlation length must be positive")
        if self.q_f < 1 or self.workers < 1:
            raise ValueError("q_f and workers must be >= 1")


@dataclass
class MCResult:
    """Outputs of one Monte Carlo run."""

    psi: DGField                          # combined mean field
    mode_means: list[DGField] | None      # per-mode sample means (multi-modes)
    timings: dict
    diagnostics: dict
    field_stats: dict
    factorizations: int
    matrix_hash: str
    config: RunConfig


def sample_stream(seed: int, j: int, purpose: int) -> np.random.Generator:
    """Independent stream for sample j; purpose 0 = coefficient field eta,
    1 = source field xi."""
    return np.random.default_rng([seed, j, purpose])


class _FieldDraws:
    """Draws the per-sample (eta, xi) field pair for a config."""

    def __init__(self, mesh: HexMesh, config: RunConfig):
        self.mesh = mesh
        self.config = config
        self.gaussian = (
            GaussianSampler(mesh, CovarianceSpec(config.ell))
            if config.field == "gaussian"
            else None
        )

    def _one(self, rng) -> FieldSample:
        if self.gaussian is not None:
            return self.gaussian.sample(rng, clamp=self.config.clamp)
        return sample_uniform(self.mesh, rng)

    def draw(self, j: int) -> tuple[FieldSample, FieldSample]:
        cfg = self.config
        eta = self._one(sample_stream(cfg.seed, j, 0))
        xi = self._one(sample_stream(cfg.seed, j, 1))
        return eta, xi


def _ordered_results(fn, M: int, workers: int):
    """Run fn(j) for j = 0..M-1, yielding results in index order.  With
    workers > 1 the calls (samples, or blocks of samples) run on a thread
    pool; the ordered yield keeps the reduction deterministic."""
    if workers <= 1:
        for j in range(M):
            yield fn(j)
        return
    with ThreadPoolExecutor(max_workers=workers) as ex:
        pending = deque()
        nxt = 0
        window = 4 * workers
        while pending or nxt < M:
            while nxt < M and len(pending) < window:
                pending.append(ex.submit(fn, nxt))
                nxt += 1
            yield pending.popleft().result()


def _field_stats(samples_stats: list[tuple[float, float]]) -> dict:
    sups = [s for s, _ in samples_stats]
    mus = [m for _, m in samples_stats]
    return {
        "sup_norm_max": max(sups) if sups else 0.0,
        "mu_hat_max": max(mus) if mus else 0.0,
    }


def diagnostics(config: RunConfig, mu: float | None = None) -> dict:
    """Convergence-theory products; values >= 1 only warn, runs proceed."""
    if mu is None:
        mu = config.mu_user if config.mu_user is not None else 1.0
    eps, k = config.epsilon, config.k
    c0, chat0 = config.C0_user, config.Chat0_user
    sigma = 7.0 * eps * math.sqrt(c0) * (1.0 + k) * (1.0 + mu)
    sigma_hat = 14.0 * chat0 * math.sqrt(c0) * (1.0 + k) * (1.0 + mu) * eps
    sigma_tilde = 4.0 * chat0 * (1.0 + k) * eps
    warns = []
    for name, val in (("sigma", sigma), ("sigma_hat", sigma_hat),
                      ("sigma_tilde", sigma_tilde)):
        if val >= 1.0:
            warns.append(
                f"{name} = {val:.3g} >= 1: geometric convergence of the mode "
                f"series is not guaranteed by theory"
            )
    return {"sigma": sigma, "sigma_hat": sigma_hat, "sigma_tilde": sigma_tilde,
            "mu": mu, "warnings": warns}


def run_standard(config: RunConfig) -> MCResult:
    """Per-sample assembly and factorization; the reference estimator."""
    config.validate()
    t_start = time.perf_counter()
    mesh = build_uniform_mesh(config.L)
    draws = _FieldDraws(mesh, config)
    n_dof = 12 * mesh.n_cells
    count0 = linalg.factorization_count()

    def one_sample(j: int):
        eta, xi = draws.draw(j)
        alpha = 1.0 + config.epsilon * eta.values
        A = assemble_standard(mesh, config.k, config.lam, config.gamma0,
                              config.gamma1, alpha)
        fact = linalg.factorize(A)
        b = assemble_oscillatory_load(mesh, xi.values, config.k, config.q_f)
        x = linalg.solve(fact, b)
        if not np.isfinite(x).all():
            raise FloatingPointError(f"non-finite solution of sample {j}")
        return x, (eta.sup_norm, eta.mu_hat)

    acc = np.zeros(n_dof, dtype=np.complex128)
    stats = []
    t_samples = time.perf_counter()
    for x, st in _ordered_results(one_sample, config.M, config.workers):
        acc += x
        stats.append(st)
    psi = DGField(mesh, acc / config.M)
    t_end = time.perf_counter()

    fstats = _field_stats(stats)
    diag = diagnostics(config, mu=config.mu_user
                       if config.mu_user is not None else fstats["mu_hat_max"])
    for w in diag["warnings"]:
        _warnings.warn(w, stacklevel=2)
    # hash of the deterministic part for the manifest
    a_h = assemble_a_h(mesh, config.k, config.lam, config.gamma0, config.gamma1)
    return MCResult(
        psi=psi,
        mode_means=None,
        timings={
            "total_s": t_end - t_start,
            "samples_s": t_end - t_samples,
            "setup_s": t_samples - t_start,
        },
        diagnostics=diag,
        field_stats=fstats,
        factorizations=linalg.factorization_count() - count0,
        matrix_hash=a_h.content_hash(),
        config=config,
    )


def run_multimodes(config: RunConfig) -> MCResult:
    """Accelerated algorithm: one deterministic matrix, one LU
    factorization, then per block of SAMPLE_BLOCK samples one load call
    and N+1 block triangular solves with recursive sources."""
    config.validate()
    t_start = time.perf_counter()
    mesh = build_uniform_mesh(config.L)
    draws = _FieldDraws(mesh, config)
    n_dof = 12 * mesh.n_cells
    n_modes = config.N + 1
    count0 = linalg.factorization_count()

    t0 = time.perf_counter()
    A = assemble_a_h(mesh, config.k, config.lam, config.gamma0, config.gamma1)
    t_assembly = time.perf_counter() - t0
    t0 = time.perf_counter()
    fact = linalg.factorize(A)
    t_factor = time.perf_counter() - t0

    # the cut into blocks depends on M alone, never on the worker count
    blocks = [range(j, min(j + SAMPLE_BLOCK, config.M))
              for j in range(0, config.M, SAMPLE_BLOCK)]

    def one_block(i: int):
        """Per-mode sums over the block's samples of the modes E_n."""
        block = blocks[i]
        etas = np.empty((mesh.n_cells, len(block)))
        xis = np.empty((mesh.n_cells, len(block)))
        stats = []
        for col, j in enumerate(block):
            eta, xi = draws.draw(j)
            etas[:, col] = eta.values
            xis[:, col] = xi.values
            stats.append((eta.sup_norm, eta.mu_hat))
        b0 = assemble_oscillatory_load(mesh, xis, config.k, config.q_f)
        mode_sums = np.empty((n_modes, n_dof), dtype=np.complex128)
        mode_times = np.zeros(n_modes)
        e_prev = e_prev2 = np.zeros_like(b0)
        for n in range(n_modes):
            tn = time.perf_counter()
            if n == 0:
                b = b0
            else:
                b = assemble_mode_source(mesh, config.k, etas, e_prev, e_prev2)
            x = linalg.solve(fact, b)
            mode_sums[n] = x.sum(axis=1)
            if not np.isfinite(mode_sums[n]).all():
                raise FloatingPointError(
                    f"non-finite mode {n} in the block of samples "
                    f"{block.start}..{block.stop - 1}"
                )
            e_prev2, e_prev = e_prev, x
            mode_times[n] = time.perf_counter() - tn
        return mode_sums, mode_times, stats

    mode_acc = np.zeros((n_modes, n_dof), dtype=np.complex128)
    per_mode_s = np.zeros(n_modes)
    stats = []
    t_samples = time.perf_counter()
    for mode_sums, mode_times, st in _ordered_results(
        one_block, len(blocks), config.workers
    ):
        mode_acc += mode_sums
        per_mode_s += mode_times
        stats.extend(st)
    t_end = time.perf_counter()

    eps_pow = config.epsilon ** np.arange(n_modes)
    psi = DGField(mesh, eps_pow @ mode_acc / config.M)
    mode_means = [DGField(mesh, mode_acc[n] / config.M) for n in range(n_modes)]
    n_facts = linalg.factorization_count() - count0
    if n_facts != 1:
        raise RuntimeError(f"expected exactly one factorization, saw {n_facts}")

    fstats = _field_stats(stats)
    diag = diagnostics(config, mu=config.mu_user
                       if config.mu_user is not None else fstats["mu_hat_max"])
    for w in diag["warnings"]:
        _warnings.warn(w, stacklevel=2)
    return MCResult(
        psi=psi,
        mode_means=mode_means,
        timings={
            "total_s": t_end - t_start,
            "assembly_s": t_assembly,
            "factorization_s": t_factor,
            "samples_s": t_end - t_samples,
            "setup_s": t_samples - t_start,
            "per_mode_s": per_mode_s.tolist(),
        },
        diagnostics=diag,
        field_stats=fstats,
        factorizations=n_facts,
        matrix_hash=A.content_hash(),
        config=config,
    )


def truncate_modes(result: MCResult, N: int) -> DGField:
    """Combined mean using only modes 0..N of a multi-modes result."""
    if result.mode_means is None:
        raise ValueError("result carries no per-mode means")
    if not 0 <= N < len(result.mode_means):
        raise ValueError("N out of range for the stored modes")
    eps = result.config.epsilon
    mesh = result.psi.mesh
    acc = np.zeros_like(result.psi.coeffs)
    for n in range(N + 1):
        acc += (eps ** n) * result.mode_means[n].coeffs
    return DGField(mesh, acc)


def compare_algorithms(config: RunConfig, N_max: int | None = None):
    """Common-random-numbers error table.

    Runs the reference estimator once and the accelerated algorithm once
    with all modes up to N_max; rows for smaller N come from truncating
    the stored per-mode means.  Returns (rows, result_standard,
    result_multimodes); each row is a dict with keys N, l2_error,
    dg_error, eps_pow_N, time_multimodes_s, time_standard_s.
    """
    if N_max is None:
        N_max = config.N
    cfg = replace(config, N=N_max)
    res_std = run_standard(cfg)
    res_mm = run_multimodes(cfg)
    rows = []
    setup = res_mm.timings["setup_s"]
    per_mode = res_mm.timings["per_mode_s"]
    for N in range(N_max + 1):
        psi_n = truncate_modes(res_mm, N)
        diff = DGField(psi_n.mesh, res_std.psi.coeffs - psi_n.coeffs)
        rows.append({
            "N": N,
            "l2_error": l2_norm(diff),
            "dg_error": dg_norm(diff, cfg.gamma0, cfg.gamma1),
            "eps_pow_N": cfg.epsilon ** N,
            "time_multimodes_s": setup + float(np.sum(per_mode[: N + 1])),
            "time_standard_s": res_std.timings["total_s"],
        })
    return rows, res_std, res_mm


def component_integral(psi: DGField, component: int = 0) -> complex:
    """Integral of one Cartesian component of the field over D; a simple
    linear functional used for Monte Carlo rate checks."""
    c = psi.cellwise().reshape(-1, 3, 4)[:, component, :]
    moments = np.array([1.0, 0.5, 0.5, 0.5])
    return complex(psi.mesh.cell_volume * np.sum(c @ moments))


def estimate_source_moments(config: RunConfig) -> dict:
    """Monte Carlo estimate of the source moments E||f||^2 and
    E||div f||^2 for the oscillatory source family.  With xi constant per
    cell, div f = i k (1+xi) * sum_c exp(i k (1+xi) x_c) on each cell."""
    config.validate()
    mesh = build_uniform_mesh(config.L)
    draws = _FieldDraws(mesh, config)
    quad = make_quadrature(config.q_f)
    lowers = mesh.cell_lower(np.arange(mesh.n_cells))
    pts = lowers[:, None, :] + mesh.h * quad.cell_points[None, :, :]  # (nc,nq,3)

    f_sq = 0.0
    div_sq = 0.0
    for j in range(config.M):
        _, xi = draws.draw(j)
        kk = config.k * (1.0 + xi.values)[:, None, None]
        f = np.exp(1j * kk * pts)                              # (nc,nq,3)
        f_sq += mesh.cell_volume * float(
            np.einsum("q,nqc->", quad.cell_weights, (f.conj() * f).real)
        )
        div = 1j * kk[:, :, 0] * f.sum(axis=2)                 # (nc,nq)
        div_sq += mesh.cell_volume * float(
            np.einsum("q,nq->", quad.cell_weights, (div.conj() * div).real)
        )
    return {"E_f_sq": f_sq / config.M, "E_div_f_sq": div_sq / config.M}
