"""Monte Carlo drivers: the per-sample-factorization algorithm, the
accelerated single-factorization multi-modes algorithm, common-random-
numbers comparisons, and the measured health of a run's mode series.

Per-sample randomness is drawn from counter-based streams keyed by
(master seed, sample index, purpose), so the two algorithms see identical
draws and results are independent of execution order and worker count.
Both algorithms run one block loop: the samples are cut into fixed
consecutive blocks (SAMPLE_BLOCK samples for the multi-modes algorithm,
one for the reference), each block's per-mode sums are formed first, and
the block sums are added in block order.  Each estimator's block solver
is a generator of a block's per-mode sums; the loop alone times the
modes.  The mean psi is sum_n eps^n phi_n over the per-mode means phi_n,
by the one combination rule that truncations and error rows use too.  In
the multi-modes recursion each mode of a block is one B-column triangular
solve, except mode N: it feeds no later mode, so its block sum is one
solve of the summed sources.  The recursion runs in the centred
monomials (dg_core.CENTRE = C): the load is centred once per block, b~ =
C^T b; every solve is one of the factor's centred view, which on the
mirror factor applies no C; the mode sources take the diagonal centred
mass REF_CENTRED_MASS; and the reduced mode sums go back through C once
per run.
"""

from __future__ import annotations

import numbers
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .assembly import (
    assemble_a_h,
    assemble_mode_source,
    assemble_oscillatory_load,
    assemble_standard,
)
from .dg_core import (CENTRE, REF_CENTRED_MASS, REF_MONOMIAL_MASS, DGField,
                      dg_norm, l2_norm)
from .mesh import HexMesh, build_uniform_mesh
from .random_field import (CovarianceSpec, FieldSample, GaussianSampler,
                           sample_uniform)

FIELD_KINDS = ("gaussian", "uniform")

# Samples per block of the multi-modes recursion: each mode of a block but
# the last is one triangular solve with SAMPLE_BLOCK right-hand-side columns.
SAMPLE_BLOCK = 16


@dataclass(frozen=True)
class RunConfig:
    """All knobs of one Monte Carlo run; an invalid config raises
    ValueError on construction, dataclasses.replace included."""

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
    workers: int = 1

    def __post_init__(self) -> None:
        for name in "L M N q_f seed workers".split():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer")
        for name in "k lam epsilon gamma0 gamma1 ell".split():
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not np.isfinite(value)):
                raise ValueError(f"{name} must be a finite real number")
        if not isinstance(self.clamp, (bool, np.bool_)):
            raise ValueError("clamp must be a bool")
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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class MCResult:
    """Outputs of one Monte Carlo run, frozen: each driver builds it
    complete."""

    psi: DGField                          # combined mean field
    mode_means: list[DGField] | None      # per-mode sample means (multi-modes)
    timings: dict
    diagnostics: dict
    field_stats: dict
    factorizations: int
    config: RunConfig
    # content hash of the A_h the run factored; None for the reference
    matrix_hash: str | None = None


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
    pool; the ordered yield keeps the reduction deterministic, and the
    blocks not yet started are cancelled once a block raises or the
    consumer stops."""
    if workers <= 1:
        yield from map(fn, range(n))
        return
    with ThreadPoolExecutor(max_workers=workers) as ex:
        yield from ex.map(fn, range(n))


def _health(mode_means: list[DGField], eps: float) -> dict:
    """Mode-mean L2 norms and the even-mode contraction eps^2 ||phi_n|| /
    ||phi_{n-2}||, n = 2, 4, ... (0 over a zero norm): phi_n is of degree n
    in eta, so for a symmetric field the odd-mode means vanish in
    expectation and a one-step ratio would alternate."""
    norms = [l2_norm(phi) for phi in mode_means]
    return {"mode_l2_norms": norms,
            "even_contraction": [eps ** 2 * norms[n] / norms[n - 2]
                                 if norms[n - 2] else 0.0
                                 for n in range(2, len(norms), 2)]}


def _monte_carlo(config: RunConfig, draws: _FieldDraws, t_start: float,
                 block_size: int, n_modes: int, solve_block,
                 cell_basis: np.ndarray | None = None) -> MCResult:
    """The sampling loop both estimators share, and the only code that
    times modes.

    Cuts the samples 0..M-1 into consecutive blocks of block_size, draws
    each block's fields into (n_cells, B) arrays and iterates
    solve_block(block, etas, xis), a generator that yields the block's
    n_modes per-mode sums (n_dof,) in mode order; block is the range of
    the block's sample indices.  Each mode is charged the time since the
    previous yield; mode 0's time starts at the block's first draw.  The
    sums are reduced in block order, then taken to monomial coefficients
    by linalg.per_cell(cell_basis, .) unless cell_basis is None; psi is
    the eps^n-weighted sum of their means, and the diagnostics are _health
    of the means.  The result
    counts no factorization and records no factor; each driver returns a
    copy with its own count and its factor's stats."""
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
        for col, j in enumerate(block):
            eta, xi = draws.draw(j)
            etas[:, col] = eta.values
            xis[:, col] = xi.values
        sup = float(np.abs(etas).max())
        mode_sums = np.empty((n_modes, 12 * mesh.n_cells), dtype=np.complex128)
        mode_times = np.empty(n_modes)
        for n, mode_sum in enumerate(solve_block(block, etas, xis)):
            mode_sums[n] = mode_sum
            t1 = time.perf_counter()
            mode_times[n] = t1 - t0
            t0 = t1
        return block, sup, mode_sums, mode_times

    mode_acc = np.zeros((n_modes, 12 * mesh.n_cells), dtype=np.complex128)
    per_mode_s = np.zeros(n_modes)
    sup_norm_max = 0.0
    for block, sup, mode_sums, mode_times in _ordered_results(
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
        sup_norm_max = max(sup_norm_max, sup)
    if cell_basis is not None:
        mode_acc = linalg.per_cell(cell_basis, mode_acc.T).T
    t_end = time.perf_counter()

    mode_means = [DGField(mesh, mode_acc[n] / config.M)
                  for n in range(n_modes)]
    return MCResult(
        psi=DGField(mesh, _mode_sum(mode_means, config.epsilon, n_modes - 1)),
        mode_means=mode_means,
        timings={
            "total_s": t_end - t_start,
            "samples_s": t_end - t_samples,
            "setup_s": t_samples - t_start,
            "per_mode_s": per_mode_s.tolist(),
        },
        diagnostics=_health(mode_means, config.epsilon),
        field_stats={"sup_norm_max": sup_norm_max},
        factorizations=0,
        config=config,
    )


def run_standard(config: RunConfig) -> MCResult:
    """Per-sample assembly and factorization; the reference estimator.
    Blocks hold one sample each, so workers > 1 stay busy at small M.  The
    diagnostics record sample 0's factor and backward error."""
    with linalg.one_blas_thread() as blas_threads:
        t_start = time.perf_counter()
        mesh = build_uniform_mesh(config.L)
        draws = _FieldDraws(mesh, config)
        first = {}

        def solve_block(block, etas, xis):
            alpha = 1.0 + config.epsilon * etas[:, 0]
            A = assemble_standard(mesh, config.k, config.lam, config.gamma0,
                                  config.gamma1, alpha)
            b = assemble_oscillatory_load(mesh, xis[:, 0], config.k, config.q_f)
            fact = linalg.factorize(A)
            x = linalg.solve(fact, b)
            if block.start == 0:
                first.update(factor=fact.stats,
                             backward_error=linalg.backward_error(A, x, b))
            yield x

        res = _monte_carlo(config, draws, t_start, 1, 1, solve_block)
        return replace(res, mode_means=None, factorizations=config.M,
                       diagnostics={**res.diagnostics, **first,
                                    "blas_threads": blas_threads})


def run_multimodes(config: RunConfig) -> MCResult:
    """Accelerated algorithm: one deterministic matrix, one LU
    factorization, then per block of SAMPLE_BLOCK samples one load call,
    N block triangular solves with recursive sources for modes 0..N-1 and
    one single-column solve of the summed mode-N sources, all in centred
    coefficients.  The diagnostics record the factor and the backward
    error, in monomial coefficients, of sample 0's mode 0 (with N = 0, of
    the first block's summed load)."""
    with linalg.one_blas_thread() as blas_threads:
        t_start = time.perf_counter()
        mesh = build_uniform_mesh(config.L)
        draws = _FieldDraws(mesh, config)

        t0 = time.perf_counter()
        A = assemble_a_h(mesh, config.k, config.lam, config.gamma0,
                         config.gamma1)
        t_assembly = time.perf_counter() - t0
        t0 = time.perf_counter()
        fact = linalg.factorize(A)
        t_factor = time.perf_counter() - t0
        centred = linalg.centred(fact)
        first = {}

        def solve_block(block, etas, xis):
            b = assemble_oscillatory_load(mesh, xis, config.k, config.q_f)
            if block.start == 0:   # in monomials, for the backward error
                b_first = b[:, 0].copy() if config.N else b.sum(axis=1)
            b = linalg.per_cell(CENTRE.T, b)
            e_prev = e_prev2 = np.zeros_like(b)
            for n in range(config.N):
                x = linalg.solve(centred, b)
                if block.start == n == 0:
                    first["backward_error"] = linalg.backward_error(
                        A, linalg.per_cell(CENTRE, x[:, 0]), b_first)
                yield x.sum(axis=1)
                e_prev2, e_prev = e_prev, x
                b = assemble_mode_source(mesh, config.k, etas, e_prev, e_prev2,
                                         REF_CENTRED_MASS)
            x = linalg.solve(centred, b.sum(axis=1))
            if block.start == config.N == 0:   # mode 0 is this summed solve
                first["backward_error"] = linalg.backward_error(
                    A, linalg.per_cell(CENTRE, x), b_first)
            yield x

        res = _monte_carlo(config, draws, t_start, SAMPLE_BLOCK,
                           config.N + 1, solve_block, CENTRE)
        return replace(res, timings={**res.timings, "assembly_s": t_assembly,
                                     "factorization_s": t_factor},
                       diagnostics={**res.diagnostics, "factor": fact.stats,
                                    **first, "blas_threads": blas_threads},
                       factorizations=1, matrix_hash=A.content_hash())


def _mode_sum(mode_means: list[DGField], eps: float, N: int) -> np.ndarray:
    """sum_{n<=N} eps^n phi_n, accumulated in mode order."""
    acc = np.zeros_like(mode_means[0].coeffs)
    for n in range(N + 1):
        acc += (eps ** n) * mode_means[n].coeffs
    return acc


def truncate_modes(result: MCResult, N: int) -> DGField:
    """Combined mean using only modes 0..N of a multi-modes result."""
    if result.mode_means is None:
        raise ValueError("result carries no per-mode means")
    if not 0 <= N < len(result.mode_means):
        raise ValueError("N out of range for the stored modes")
    return DGField(result.psi.mesh,
                   _mode_sum(result.mode_means, result.config.epsilon, N))


def _error_rows(res_std: MCResult, res_mm: MCResult) -> list[dict]:
    """Error rows of a reference result against each truncation of a
    multi-modes result, weighted by the reference's epsilon: the mode means
    do not depend on epsilon, so one multi-modes run serves every epsilon."""
    cfg = res_std.config
    setup = res_mm.timings["setup_s"]
    per_mode = res_mm.timings["per_mode_s"]
    rows = []
    for N in range(len(res_mm.mode_means)):
        psi_n = _mode_sum(res_mm.mode_means, cfg.epsilon, N)
        diff = DGField(res_std.psi.mesh, res_std.psi.coeffs - psi_n)
        rows.append({
            "N": N,
            "l2_error": l2_norm(diff),
            "dg_error": dg_norm(diff, cfg.gamma0, cfg.gamma1),
            "eps_pow_N": cfg.epsilon ** N,
            "time_multimodes_s": setup + float(np.sum(per_mode[: N + 1])),
            "time_standard_s": res_std.timings["total_s"],
        })
    return rows


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
    return _error_rows(res_std, res_mm), res_std, res_mm


def component_integral(psi: DGField, component: int = 0) -> complex:
    """Integral of one Cartesian component of the field over D; a simple
    linear functional used for Monte Carlo rate checks."""
    c = psi.cellwise().reshape(-1, 3, 4)[:, component, :]
    return complex(psi.mesh.cell_volume * np.sum(c @ REF_MONOMIAL_MASS[0]))
