"""Random inputs: piecewise-constant fields over the mesh cells.

Three samplers are provided: Gaussian fields with exponential covariance
(Cholesky of the cell-center covariance matrix), i.i.d. uniform per-cell
values on [-1, 1], and a truncated discrete Karhunen-Loeve expansion for
recasting general media into mean-plus-small-perturbation form.  All
samplers take an explicit numpy Generator so that parallel sampling stays
reproducible.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .mesh import HexMesh


@dataclass(frozen=True)
class CovarianceSpec:
    """Exponential covariance C(x1, x2) = exp(-||x1 - x2|| / ell)."""

    ell: float

    def __post_init__(self):
        if self.ell <= 0:
            raise ValueError("correlation length must be positive")


@dataclass
class FieldSample:
    """One realization of a per-cell constant random field."""

    values: np.ndarray
    kind: str                       # gaussian | uniform | kl
    sup_norm: float
    mu_hat: float                   # adjacent-cell difference quotient
    metadata: dict = field(default_factory=dict)

    def export_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["cell", "value"])
            for i, v in enumerate(self.values):
                w.writerow([i, repr(float(v))])


def _lipschitz_surrogate(mesh: HexMesh, values: np.ndarray) -> float:
    """Max |value difference| / center distance over face-adjacent cells."""
    if mesh.n_interior_faces == 0:
        return 0.0
    diff = np.abs(values[mesh.iface_owner] - values[mesh.iface_neighbor])
    return float(diff.max() / mesh.h)


def _make_sample(mesh: HexMesh, values: np.ndarray, kind: str,
                 metadata: dict | None = None) -> FieldSample:
    return FieldSample(
        values=values,
        kind=kind,
        sup_norm=float(np.abs(values).max()) if len(values) else 0.0,
        mu_hat=_lipschitz_surrogate(mesh, values),
        metadata=metadata or {},
    )


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
        self.spec = spec
        C = covariance_matrix(mesh, spec)
        self.fallback = False
        try:
            self.factor = np.linalg.cholesky(C)
        except np.linalg.LinAlgError:
            # covariance numerically indefinite: floor the spectrum at 0
            w, V = np.linalg.eigh(C)
            self.factor = V * np.sqrt(np.clip(w, 0.0, None))
            self.fallback = True

    def sample(self, rng: np.random.Generator, clamp: bool = False) -> FieldSample:
        z = rng.standard_normal(self.mesh.n_cells)
        values = self.factor @ z
        meta = {"clamped": clamp, "eigen_fallback": self.fallback}
        if clamp:
            values = np.clip(values, -1.0, 1.0)
        return _make_sample(self.mesh, values, "gaussian", meta)


def sample_uniform(mesh: HexMesh, rng: np.random.Generator) -> FieldSample:
    values = rng.uniform(-1.0, 1.0, mesh.n_cells)
    return _make_sample(mesh, values, "uniform")


@dataclass
class KLBasis:
    """Discrete Karhunen-Loeve basis of the cell-center covariance."""

    eigenvalues: np.ndarray    # descending, floored at 0
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
    C = covariance_matrix(mesh, spec)
    w, V = np.linalg.eigh(C)
    order = np.argsort(w)[::-1]
    w = np.clip(w[order], 0.0, None)
    V = V[:, order]
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
    sample = _make_sample(mesh, values, "kl", {"K": K, "epsilon": eps})
    return KLSample(field=sample, epsilon=eps, zeta=zeta)
