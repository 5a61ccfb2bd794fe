"""Covariance models, their spectra, and correlated design sampling.

The risk theory consumes a covariance only through its eigenvalues and the
projection of the prior misalignment onto its eigenbasis, so the central type
is :class:`DiscreteSpectrum`: eigen-atoms with uniform weight ``1/p``,
optionally carrying misalignment coefficients.

Every covariance model is an AR(1) correlation (identity is ``rho = 0``),
whose tridiagonal inverse ``T`` is known in closed form: :func:`decompose`
takes its eigenpairs from ``T`` and forms no dense covariance, and every
energy ``v' Sigma v`` is read from the eigen-atoms.  A general covariance
enters the theory as a :class:`DiscreteSpectrum` built from its eigenpairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy import linalg

from .errors import ConfigError, ConvergenceError

__all__ = [
    "CovarianceModel",
    "DiscreteSpectrum",
    "decompose",
    "project_delta",
    "q_sigma",
    "sample_design",
    "sample_signal",
    "sample_sphere",
]

_CERTIFICATE_TOL = 1.0e-10  # residual and orthogonality bound
_EIGENVALUE_FLOOR = 1.0e-12
_RESIDUAL_BLOCK = 128  # columns per slice of the tridiagonal residual


@dataclass(frozen=True)
class CovarianceModel:
    """Feature covariance: the AR(1) correlation ``rho**|i-j|`` in ``p``
    dimensions, ``-1 < rho < 1``; ``rho = 0`` is the identity."""

    p: int
    rho: float = 0.0

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ConfigError(f"dimension must be >= 1, got {self.p}")
        if not -1.0 < self.rho < 1.0:
            raise ConfigError(f"AR1 correlation must lie in (-1, 1), got {self.rho}")

    @classmethod
    def identity(cls, p: int) -> "CovarianceModel":
        return cls(p)

    @classmethod
    def ar1(cls, p: int, rho: float) -> "CovarianceModel":
        return cls(p, rho)

    def materialize(self) -> np.ndarray:
        """Return the dense covariance matrix."""
        return linalg.toeplitz(self.rho ** np.arange(self.p))


@dataclass(frozen=True)
class DiscreteSpectrum:
    """Eigen-atoms of a covariance with optional misalignment coefficients.

    Attributes
    ----------
    eigenvalues : ndarray
        Positive eigenvalues ``s_j`` in ascending order, length ``p``.
    basis : ndarray
        Orthonormal eigenvectors, column ``j`` paired with ``eigenvalues[j]``.
    matrix : ndarray or None
        A caller's own decomposed covariance, which :func:`project_delta`
        checks the pairing against.  None skips that check: :func:`decompose`
        passes None, having certified its pairs against ``T``.
    delta_coeffs : ndarray or None
        Eigenbasis coefficients of the misalignment ``beta_star - beta0``.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray
    matrix: np.ndarray | None
    delta_coeffs: np.ndarray | None = None

    @property
    def p(self) -> int:
        return self.eigenvalues.shape[0]

    def sqrt_matrix(self) -> np.ndarray:
        """Symmetric square root of the covariance, taken once per spectrum
        and returned read-only; only a design draw reads it."""
        return self._sqrt_matrix

    @cached_property
    def _sqrt_matrix(self) -> np.ndarray:
        root = (self.basis * np.sqrt(self.eigenvalues)) @ self.basis.T
        root.flags.writeable = False
        return root


def decompose(model: CovarianceModel) -> DiscreteSpectrum:
    """Eigendecompose a covariance model into a :class:`DiscreteSpectrum`.

    The covariance is decomposed through its tridiagonal inverse ``T`` (see
    :func:`_ar1_inverse`): ``scipy.linalg.eigh_tridiagonal`` of ``-T``
    returns eigenvalues ``mu`` in ascending order, so ``-1/mu`` are the
    covariance's eigenvalues, ascending, with the same eigenvectors.  The
    pairs are certified by the residual ``||T U diag(s) - U||_F / sqrt(p)``,
    in ``O(p^2)`` work, and by ``||U'U - I||_F``, a ``p^3`` product (about a
    fifth of the call at ``p = 1000`` on one BLAS thread) kept because only
    it catches a duplicated eigenpair.  The largest eigenvalues, as reciprocals of the
    inverse's smallest, carry about ``eps ((1+|rho|)/(1-|rho|))^2`` relative
    error (``2e-15`` at ``rho = 0.5``, ``2e-12`` near ``|rho| = 0.99``).

    Raises
    ------
    ConfigError
        If the smallest eigenvalue falls at or below ``1e-12`` times the
        largest.
    ConvergenceError
        If the eigenbasis misses the residual or the orthogonality bound
        (``1e-10`` each).  The message names the check.
    """
    diag, off = _ar1_inverse(model.p, model.rho)
    mu, basis = linalg.eigh_tridiagonal(-diag, -off)
    eigenvalues = -1.0 / mu
    if eigenvalues[-1] <= 0.0 or eigenvalues[0] <= _EIGENVALUE_FLOOR * eigenvalues[-1]:
        raise ConfigError(
            f"covariance is numerically singular: eigenvalue range [{eigenvalues[0]}, {eigenvalues[-1]}]"
        )
    residual = _tridiagonal_residual(diag, off, eigenvalues, basis)
    if not residual <= _CERTIFICATE_TOL:
        raise ConvergenceError(f"tridiagonal eigenpair residual {residual} exceeds {_CERTIFICATE_TOL}")
    gram = basis.T @ basis
    gram.flat[::model.p + 1] -= 1.0
    orthogonality = float(np.linalg.norm(gram))
    if not orthogonality <= _CERTIFICATE_TOL:
        raise ConvergenceError(f"eigenbasis orthogonality error {orthogonality} exceeds {_CERTIFICATE_TOL}")
    return DiscreteSpectrum(eigenvalues=eigenvalues, basis=basis, matrix=None)


def _ar1_inverse(p: int, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the inverse of the AR(1) covariance
    ``rho**|i-j|``: ``(1, 1+rho^2, ..., 1+rho^2, 1)/(1-rho^2)`` and
    ``-rho/(1-rho^2)`` (the inverse of the ``1 x 1`` covariance is 1)."""
    if p == 1:
        return np.ones(1), np.empty(0)
    scale = 1.0 - rho * rho
    diag = np.full(p, (1.0 + rho * rho) / scale)
    diag[[0, -1]] = 1.0 / scale
    return diag, np.full(p - 1, -rho / scale)


def _tridiagonal_product(diag: np.ndarray, off: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``T u`` for the symmetric tridiagonal ``T`` with the given diagonal
    and off-diagonal and a ``p x k`` block ``u``."""
    tu = diag[:, None] * u
    tu[1:] += off[:, None] * u[:-1]
    tu[:-1] += off[:, None] * u[1:]
    return tu


def _tridiagonal_residual(diag: np.ndarray, off: np.ndarray, eigenvalues: np.ndarray,
                          basis: np.ndarray) -> float:
    """``||T U diag(eigenvalues) - U||_F / sqrt(p)`` for the symmetric
    tridiagonal ``T`` with the given diagonal and off-diagonal, formed a
    slice of columns at a time so that no ``p x p`` temporary is held."""
    p = basis.shape[0]
    total = 0.0
    for start in range(0, p, _RESIDUAL_BLOCK):
        u = basis[:, start:start + _RESIDUAL_BLOCK]
        r = _tridiagonal_product(diag, off, u)
        r *= eigenvalues[start:start + _RESIDUAL_BLOCK]
        r -= u
        total += float(np.sum(r * r))
    return math.sqrt(total / p)


def project_delta(spec: DiscreteSpectrum, beta_star: np.ndarray, beta0: np.ndarray) -> DiscreteSpectrum:
    """Attach misalignment coefficients ``basis.T @ (beta_star - beta0)``.

    On a spectrum with a ``matrix``, the spectral representation of the
    misalignment energy must agree with the direct quadratic form to 1e-10
    relative, which catches basis/eigenvalue pairing mistakes immediately.
    """
    beta_star = np.asarray(beta_star, dtype=float)
    beta0 = np.asarray(beta0, dtype=float)
    if beta_star.shape != (spec.p,) or beta0.shape != (spec.p,):
        raise ConfigError(f"signal vectors must have shape ({spec.p},)")
    delta = beta_star - beta0
    projected = replace(spec, delta_coeffs=spec.basis.T @ delta)
    if spec.matrix is not None:
        spectral = float(_energy(projected))
        direct = float(delta @ spec.matrix @ delta) / spec.p
        scale = max(abs(direct), 1.0e-300)
        if abs(spectral - direct) > 1.0e-10 * scale:
            raise ConfigError(
                f"misalignment energy mismatch: spectral {spectral} vs direct {direct}"
            )
    return projected


def q_sigma(spec: DiscreteSpectrum) -> float:
    """Normalized misalignment energy ``p^-1 sum_j s_j Delta_j^2``."""
    if spec.delta_coeffs is None:
        raise ConfigError("spectrum carries no misalignment coefficients; call project_delta first")
    return float(_energy(spec))


def _energy(spec: DiscreteSpectrum, v: np.ndarray | None = None) -> np.ndarray:
    """The covariance energy ``v' Sigma v / p = p^-1 sum_j s_j (u_j' v)^2``
    from the eigen-atoms, for a vector ``v`` or per column of a ``p x k``
    block; with no ``v``, the misalignment's, from its coefficients."""
    coeffs = spec.delta_coeffs if v is None else spec.basis.T @ v
    return np.sum(spec.eigenvalues * coeffs.T ** 2, axis=-1) / spec.p


def sample_design(
    spec: DiscreteSpectrum,
    n: int,
    rng: np.random.Generator,
    kind: str = "gaussian",
) -> np.ndarray:
    """Draw an ``n x p`` design whose rows have the spectrum's covariance.

    ``kind`` selects the iid entry law of the pre-correlation matrix:
    ``"gaussian"`` or ``"rademacher"`` (unit variance either way).  The
    design is the white draw ``Z`` of :func:`_white_draw` times the
    symmetric root ``Sigma^1/2``, bit for bit, so a solve that works on ``Z``
    itself sees the same draw from the same stream.
    """
    return _white_draw(n, spec.p, rng, kind) @ spec.sqrt_matrix()


def _white_draw(n: int, p: int, rng: np.random.Generator, kind: str) -> np.ndarray:
    """The ``n x p`` matrix ``Z`` of iid unit-variance entries of the law
    ``kind`` behind :func:`sample_design`."""
    if n < 1:
        raise ConfigError(f"sample size must be >= 1, got {n}")
    if kind == "gaussian":
        return rng.standard_normal((n, p))
    if kind == "rademacher":
        return np.where(rng.random((n, p)) < 0.5, -1.0, 1.0)
    raise ConfigError(f"unknown design kind {kind!r}; expected 'gaussian' or 'rademacher'")


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
