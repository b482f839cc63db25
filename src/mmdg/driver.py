"""Monte Carlo drivers: the per-sample-factorization algorithm, the
accelerated single-factorization multi-modes algorithm, common-random-
numbers comparisons, and convergence diagnostics.

Per-sample randomness is drawn from counter-based streams keyed by
(master seed, sample index, purpose), so the two algorithms see identical
draws and results are independent of execution order and worker count.
Both algorithms run one block loop: the samples are cut into fixed
consecutive blocks (SAMPLE_BLOCK samples for the multi-modes algorithm,
one for the reference), each block's per-mode sums are formed first, and
the block sums are added in block order.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import linalg
from .assembly import (
    assemble_a_h,
    assemble_mode_source,
    assemble_oscillatory_load,
    assemble_standard,
)
from .dg_core import DGField, dg_norm, l2_norm
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
    mu_user: float | None = None   # mu for diagnostics; None = measured
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
    config: RunConfig

    @cached_property
    def matrix_hash(self) -> str:
        """Content hash of this run's deterministic matrix A_h, for the
        manifest; A_h is assembled on the first read."""
        cfg = self.config
        return assemble_a_h(self.psi.mesh, cfg.k, cfg.lam, cfg.gamma0,
                            cfg.gamma1).content_hash()


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


def _ordered_results(fn, n: int, workers: int):
    """Run fn(i) for i = 0..n-1, one call per block of samples, yielding
    results in block order.  With workers > 1 the calls run on a thread
    pool; the ordered yield keeps the reduction deterministic."""
    if workers <= 1:
        for i in range(n):
            yield fn(i)
        return
    with ThreadPoolExecutor(max_workers=workers) as ex:
        pending = deque()
        nxt = 0
        window = 4 * workers
        while pending or nxt < n:
            while nxt < n and len(pending) < window:
                pending.append(ex.submit(fn, nxt))
                nxt += 1
            yield pending.popleft().result()


def diagnostics(config: RunConfig, mu: float | None = None) -> dict:
    """Convergence-theory products sigma, sigma_hat, sigma_tilde, with the
    unknown analysis constants C0 and Chat0 set to 1.  Informational only:
    theory guarantees geometric convergence of the mode series when they
    are below 1, but a run proceeds whatever their values."""
    if mu is None:
        mu = config.mu_user if config.mu_user is not None else 1.0
    eps, k = config.epsilon, config.k
    sigma = 7.0 * eps * (1.0 + k) * (1.0 + mu)
    sigma_hat = 14.0 * (1.0 + k) * (1.0 + mu) * eps
    sigma_tilde = 4.0 * (1.0 + k) * eps
    return {"sigma": sigma, "sigma_hat": sigma_hat, "sigma_tilde": sigma_tilde,
            "mu": mu}


def _monte_carlo(config: RunConfig, draws: _FieldDraws, t_start: float,
                 block_size: int, n_modes: int, solve_block) -> MCResult:
    """The sampling loop both estimators share.

    Cuts the samples 0..M-1 into consecutive blocks of block_size, draws
    each block's fields into (n_cells, B) arrays and calls
    solve_block(etas, xis), which returns the block's (n_modes, n_dof)
    per-mode sums and the seconds spent per mode.  The block's field draws
    are charged to mode 0.  The sums are reduced in block order; psi is
    their eps^n-weighted mean.  The caller sets the factorization count."""
    t_samples = time.perf_counter()
    mesh = draws.mesh
    # the cut into blocks depends on M alone, never on the worker count
    blocks = [range(j, min(j + block_size, config.M))
              for j in range(0, config.M, block_size)]

    def one_block(i: int):
        t0 = time.perf_counter()
        block = blocks[i]
        etas = np.empty((mesh.n_cells, len(block)))
        xis = np.empty((mesh.n_cells, len(block)))
        stats = []
        for col, j in enumerate(block):
            eta, xi = draws.draw(j)
            etas[:, col] = eta.values
            xis[:, col] = xi.values
            stats.append((eta.sup_norm, eta.mu_hat))
        t_draws = time.perf_counter() - t0
        mode_sums, mode_times = solve_block(etas, xis)
        mode_times[0] += t_draws
        return block, stats, mode_sums, mode_times

    mode_acc = np.zeros((n_modes, 12 * mesh.n_cells), dtype=np.complex128)
    per_mode_s = np.zeros(n_modes)
    stats = []
    for block, st, mode_sums, mode_times in _ordered_results(
        one_block, len(blocks), config.workers
    ):
        finite = np.isfinite(mode_sums).all(axis=1)
        if not finite.all():
            a, n = block.start, int(np.argmin(finite))
            raise FloatingPointError(
                f"non-finite mode {n} in the block of samples "
                f"{a}..{block.stop - 1} (block starts at sample {a})"
            )
        mode_acc += mode_sums
        per_mode_s += mode_times
        stats.extend(st)
    t_end = time.perf_counter()

    eps_pow = config.epsilon ** np.arange(n_modes)
    fstats = {"sup_norm_max": max(s for s, _ in stats),
              "mu_hat_max": max(m for _, m in stats)}
    diag = diagnostics(config, mu=config.mu_user
                       if config.mu_user is not None else fstats["mu_hat_max"])
    return MCResult(
        psi=DGField(mesh, eps_pow @ mode_acc / config.M),
        mode_means=[DGField(mesh, mode_acc[n] / config.M)
                    for n in range(n_modes)],
        timings={
            "total_s": t_end - t_start,
            "samples_s": t_end - t_samples,
            "setup_s": t_samples - t_start,
            "per_mode_s": per_mode_s.tolist(),
        },
        diagnostics=diag,
        field_stats=fstats,
        factorizations=0,
        config=config,
    )


def run_standard(config: RunConfig) -> MCResult:
    """Per-sample assembly and factorization; the reference estimator.
    Blocks hold one sample each, so workers > 1 stay busy at small M."""
    config.validate()
    t_start = time.perf_counter()
    mesh = build_uniform_mesh(config.L)
    draws = _FieldDraws(mesh, config)

    def solve_block(etas, xis):
        t0 = time.perf_counter()
        alpha = 1.0 + config.epsilon * etas[:, 0]
        A = assemble_standard(mesh, config.k, config.lam, config.gamma0,
                              config.gamma1, alpha)
        fact = linalg.factorize(A)
        b = assemble_oscillatory_load(mesh, xis[:, 0], config.k, config.q_f)
        x = linalg.solve(fact, b)
        return x[None], [time.perf_counter() - t0]

    res = _monte_carlo(config, draws, t_start, 1, 1, solve_block)
    res.mode_means = None
    res.factorizations = config.M
    return res


def run_multimodes(config: RunConfig) -> MCResult:
    """Accelerated algorithm: one deterministic matrix, one LU
    factorization, then per block of SAMPLE_BLOCK samples one load call
    and N+1 block triangular solves with recursive sources."""
    config.validate()
    t_start = time.perf_counter()
    mesh = build_uniform_mesh(config.L)
    draws = _FieldDraws(mesh, config)
    n_modes = config.N + 1

    t0 = time.perf_counter()
    A = assemble_a_h(mesh, config.k, config.lam, config.gamma0, config.gamma1)
    t_assembly = time.perf_counter() - t0
    t0 = time.perf_counter()
    fact = linalg.factorize(A)
    t_factor = time.perf_counter() - t0

    def solve_block(etas, xis):
        """Per-mode sums over the block's samples of the modes E_n; the
        mode-0 load is charged to mode 0."""
        t0 = time.perf_counter()
        b = assemble_oscillatory_load(mesh, xis, config.k, config.q_f)
        mode_sums = np.empty((n_modes, fact.n), dtype=np.complex128)
        mode_times = np.zeros(n_modes)
        e_prev = e_prev2 = np.zeros_like(b)
        for n in range(n_modes):
            if n > 0:
                b = assemble_mode_source(mesh, config.k, etas, e_prev, e_prev2)
            x = linalg.solve(fact, b)
            mode_sums[n] = x.sum(axis=1)
            e_prev2, e_prev = e_prev, x
            t1 = time.perf_counter()
            mode_times[n] = t1 - t0
            t0 = t1
        return mode_sums, mode_times

    res = _monte_carlo(config, draws, t_start, SAMPLE_BLOCK, n_modes,
                       solve_block)
    res.timings.update(assembly_s=t_assembly, factorization_s=t_factor)
    res.factorizations = 1
    return res


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
