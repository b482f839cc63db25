"""Random inputs: piecewise-constant fields over the mesh cells.

Three samplers are provided: Gaussian fields with exponential covariance
(Cholesky of the cell-center covariance matrix), i.i.d. uniform per-cell
values on [-1, 1], and a truncated discrete Karhunen-Loeve expansion for
recasting general media into mean-plus-small-perturbation form.  All
samplers take an explicit numpy Generator so that parallel sampling stays
reproducible, and return a FieldSample that holds only the per-cell
values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .mesh import HexMesh


@dataclass(frozen=True)
class CovarianceSpec:
    """Exponential covariance C(x1, x2) = exp(-||x1 - x2|| / ell)."""

    ell: float

    def __post_init__(self):
        if not (np.isfinite(self.ell) and self.ell > 0):
            raise ValueError("correlation length must be finite and positive")


@dataclass
class FieldSample:
    """One realization of a per-cell constant random field."""

    values: np.ndarray


def covariance_matrix(mesh: HexMesh, spec: CovarianceSpec) -> np.ndarray:
    """exp(-||c_i - c_j|| / ell) over the cell centers c, built in place in
    one n x n array, without an (n, n, 3) difference temporary."""
    c = mesh.cell_centers
    out = np.zeros((len(c), len(c)))
    for x in c.T:
        d = np.subtract.outer(x, x)
        out += np.square(d, out=d)
    np.sqrt(out, out=out)
    np.negative(out, out=out)
    out /= spec.ell
    return np.exp(out, out=out)


class GaussianSampler:
    """Gaussian field sampler; the covariance factor is computed once and
    reused across samples."""

    def __init__(self, mesh: HexMesh, spec: CovarianceSpec):
        self.mesh = mesh
        C = covariance_matrix(mesh, spec)
        try:
            self.factor = np.linalg.cholesky(C)
        except np.linalg.LinAlgError:
            # covariance numerically singular: factor it by its KL basis,
            # whose round-off eigenvalues are zeroed
            kl = compute_kl(mesh, spec)
            self.factor = kl.eigenvectors * np.sqrt(kl.eigenvalues)

    def sample(self, rng: np.random.Generator, clamp: bool = False) -> FieldSample:
        values = self.factor @ rng.standard_normal(self.mesh.n_cells)
        if clamp:
            values = np.clip(values, -1.0, 1.0)
        return FieldSample(values)


def sample_uniform(mesh: HexMesh, rng: np.random.Generator) -> FieldSample:
    return FieldSample(rng.uniform(-1.0, 1.0, mesh.n_cells))


@dataclass
class KLBasis:
    """Discrete Karhunen-Loeve basis of the cell-center covariance."""

    eigenvalues: np.ndarray    # descending, round-off of the largest zeroed
    eigenvectors: np.ndarray   # (n_cells, n_cells), column k matches lambda_k
    mean: np.ndarray           # background field per cell

    @property
    def epsilon(self) -> float:
        """Perturbation size sqrt(lambda_1) of the normalized expansion."""
        return float(np.sqrt(self.eigenvalues[0]))


class KLSample(NamedTuple):
    field: FieldSample         # the coefficient values mean + sum(...)
    epsilon: float             # sqrt(lambda_1)
    zeta: np.ndarray           # normalized perturbation (field - mean)/epsilon


def compute_kl(mesh: HexMesh, spec: CovarianceSpec,
               mean: float | np.ndarray = 1.0) -> KLBasis:
    w, V = np.linalg.eigh(covariance_matrix(mesh, spec))  # ascending
    w = w[::-1]
    w[w <= len(w) * np.finfo(float).eps * w[0]] = 0.0  # round-off, or negative
    V = np.asfortranarray(V[:, ::-1])          # eigh's column-major layout
    mean_arr = np.broadcast_to(np.asarray(mean, dtype=float), (mesh.n_cells,)).copy()
    return KLBasis(eigenvalues=w, eigenvectors=V, mean=mean_arr)


def sample_from_kl(mesh: HexMesh, basis: KLBasis, K: int,
                   rng: np.random.Generator) -> KLSample:
    n = len(basis.eigenvalues)
    if not 1 <= K <= n:
        raise ValueError(f"truncation K must be in [1, {n}], got {K}")
    xi = rng.standard_normal(K)
    perturbation = basis.eigenvectors[:, :K] @ (np.sqrt(basis.eigenvalues[:K]) * xi)
    values = basis.mean + perturbation
    eps = basis.epsilon
    zeta = perturbation / eps if eps > 0 else np.zeros_like(perturbation)
    return KLSample(field=FieldSample(values), epsilon=eps, zeta=zeta)
