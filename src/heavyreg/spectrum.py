"""Covariance models, their spectra, and correlated design sampling.

The risk theory consumes a covariance only through its eigenvalues and the
projection of the prior misalignment onto its eigenbasis, so the central type
is :class:`DiscreteSpectrum`: eigen-atoms with uniform weight ``1/p``,
optionally carrying misalignment coefficients and the aspect ratio.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import ConfigError, ConvergenceError

__all__ = [
    "CovarianceKind",
    "CovarianceModel",
    "DiscreteSpectrum",
    "decompose",
    "project_delta",
    "q_sigma",
    "sample_design",
    "sample_signal",
    "sample_sphere",
]

_RECONSTRUCTION_TOL = 1.0e-10
_EIGENVALUE_FLOOR = 1.0e-12


class CovarianceKind(enum.Enum):
    IDENTITY = "identity"
    AR1 = "ar1"
    EXPLICIT = "explicit"


@dataclass(frozen=True)
class CovarianceModel:
    """Feature covariance specification.

    ``AR1`` has entries ``rho**|i-j|``; ``EXPLICIT`` carries a symmetric
    positive-definite matrix supplied by the caller.
    """

    kind: CovarianceKind
    p: int
    rho: float | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ConfigError(f"dimension must be >= 1, got {self.p}")
        if self.kind is CovarianceKind.AR1:
            if self.rho is None or not (-1.0 < self.rho < 1.0):
                raise ConfigError(f"AR1 correlation must lie in (-1, 1), got {self.rho}")
        if self.kind is CovarianceKind.EXPLICIT:
            m = self.matrix
            if m is None or m.shape != (self.p, self.p):
                raise ConfigError("explicit covariance needs a (p, p) matrix")
            if not np.allclose(m, m.T, rtol=0.0, atol=1.0e-12):
                raise ConfigError("explicit covariance must be symmetric")

    @classmethod
    def identity(cls, p: int) -> "CovarianceModel":
        return cls(CovarianceKind.IDENTITY, p)

    @classmethod
    def ar1(cls, p: int, rho: float) -> "CovarianceModel":
        return cls(CovarianceKind.AR1, p, rho=rho)

    @classmethod
    def explicit(cls, matrix: np.ndarray) -> "CovarianceModel":
        matrix = np.asarray(matrix, dtype=float)
        return cls(CovarianceKind.EXPLICIT, matrix.shape[0], matrix=matrix)

    def materialize(self) -> np.ndarray:
        """Return the dense covariance matrix."""
        if self.kind is CovarianceKind.IDENTITY:
            return np.eye(self.p)
        if self.kind is CovarianceKind.AR1:
            idx = np.arange(self.p)
            return self.rho ** np.abs(np.subtract.outer(idx, idx))
        return np.array(self.matrix, dtype=float)


@dataclass(frozen=True)
class DiscreteSpectrum:
    """Eigen-atoms of a covariance with optional misalignment coefficients.

    Attributes
    ----------
    eigenvalues : ndarray
        Positive eigenvalues ``s_j`` in ascending order, length ``p``.
    basis : ndarray
        Orthonormal eigenvectors, column ``j`` paired with ``eigenvalues[j]``.
    matrix : ndarray
        The covariance that was decomposed (kept for exact cross-checks).
    delta_coeffs : ndarray or None
        Eigenbasis coefficients of the misalignment ``beta_star - beta0``.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray
    matrix: np.ndarray
    delta_coeffs: np.ndarray | None = None

    @property
    def p(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def weights(self) -> np.ndarray:
        """Uniform spectral weights, ``1/p`` per atom."""
        return np.full(self.p, 1.0 / self.p)

    def sqrt_matrix(self) -> np.ndarray:
        """Symmetric square root of the covariance, taken once per spectrum
        and returned read-only."""
        return self._sqrt_matrix

    @cached_property
    def _sqrt_matrix(self) -> np.ndarray:
        root = (self.basis * np.sqrt(self.eigenvalues)) @ self.basis.T
        root.flags.writeable = False
        return root


def decompose(model: CovarianceModel) -> DiscreteSpectrum:
    """Eigendecompose a covariance model into a :class:`DiscreteSpectrum`.

    Raises
    ------
    ConfigError
        If the smallest eigenvalue falls at or below ``1e-12`` times the
        largest.
    ConvergenceError
        If the eigenbasis fails to reconstruct the matrix to ``1e-10``
        relative Frobenius error.
    """
    sigma = model.materialize()
    eigenvalues, basis = np.linalg.eigh(sigma)
    if eigenvalues[-1] <= 0.0 or eigenvalues[0] <= _EIGENVALUE_FLOOR * eigenvalues[-1]:
        raise ConfigError(
            f"covariance is numerically singular: eigenvalue range [{eigenvalues[0]}, {eigenvalues[-1]}]"
        )
    recon = (basis * eigenvalues) @ basis.T
    rel = np.linalg.norm(recon - sigma) / np.linalg.norm(sigma)
    if rel > _RECONSTRUCTION_TOL:
        raise ConvergenceError(f"eigendecomposition reconstruction error {rel} exceeds {_RECONSTRUCTION_TOL}")
    return DiscreteSpectrum(eigenvalues=eigenvalues, basis=basis, matrix=sigma)


def project_delta(spec: DiscreteSpectrum, beta_star: np.ndarray, beta0: np.ndarray) -> DiscreteSpectrum:
    """Attach misalignment coefficients ``basis.T @ (beta_star - beta0)``.

    The spectral representation of the misalignment energy must agree with the
    direct quadratic form to 1e-10 relative, which catches basis/eigenvalue
    pairing mistakes immediately.
    """
    beta_star = np.asarray(beta_star, dtype=float)
    beta0 = np.asarray(beta0, dtype=float)
    if beta_star.shape != (spec.p,) or beta0.shape != (spec.p,):
        raise ConfigError(f"signal vectors must have shape ({spec.p},)")
    delta = beta_star - beta0
    coeffs = spec.basis.T @ delta
    spectral = float(np.sum(spec.eigenvalues * coeffs ** 2)) / spec.p
    direct = float(delta @ spec.matrix @ delta) / spec.p
    scale = max(abs(direct), 1.0e-300)
    if abs(spectral - direct) > 1.0e-10 * scale:
        raise ConfigError(
            f"misalignment energy mismatch: spectral {spectral} vs direct {direct}"
        )
    return replace(spec, delta_coeffs=coeffs)


def q_sigma(spec: DiscreteSpectrum) -> float:
    """Normalized misalignment energy ``p^-1 sum_j s_j Delta_j^2``."""
    if spec.delta_coeffs is None:
        raise ConfigError("spectrum carries no misalignment coefficients; call project_delta first")
    return float(np.sum(spec.eigenvalues * spec.delta_coeffs ** 2)) / spec.p


def sample_design(
    spec: DiscreteSpectrum,
    n: int,
    rng: np.random.Generator,
    kind: str = "gaussian",
) -> np.ndarray:
    """Draw an ``n x p`` design with row covariance equal to the spectrum's matrix.

    ``kind`` selects the iid entry law of the pre-correlation matrix:
    ``"gaussian"`` or ``"rademacher"`` (unit variance either way).
    """
    if n < 1:
        raise ConfigError(f"sample size must be >= 1, got {n}")
    if kind == "gaussian":
        z = rng.standard_normal((n, spec.p))
    elif kind == "rademacher":
        z = np.where(rng.random((n, spec.p)) < 0.5, -1.0, 1.0)
    else:
        raise ConfigError(f"unknown design kind {kind!r}; expected 'gaussian' or 'rademacher'")
    return z @ spec.sqrt_matrix()


def sample_signal(p: int, sparsity: float, rng: np.random.Generator) -> np.ndarray:
    """Sparse signal: ``ceil(sparsity * p)`` coordinates iid standard normal."""
    if not (0.0 < sparsity <= 1.0):
        raise ConfigError(f"sparsity must lie in (0, 1], got {sparsity}")
    k = int(math.ceil(sparsity * p))
    support = rng.choice(p, size=k, replace=False)
    beta = np.zeros(p)
    beta[support] = rng.standard_normal(k)
    return beta


def sample_sphere(p: int, radius: float, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from the sphere of the given radius in ``R^p``."""
    if radius < 0.0:
        raise ConfigError(f"radius must be >= 0, got {radius}")
    g = rng.standard_normal(p)
    norm = np.linalg.norm(g)
    while norm == 0.0:  # pragma: no cover - measure-zero event
        g = rng.standard_normal(p)
        norm = np.linalg.norm(g)
    return radius * g / norm
