"""Covariance models, their spectra, and correlated design sampling.

The risk theory consumes a covariance only through its eigenvalues and the
projection of the prior misalignment onto its eigenbasis, so the central type
is :class:`DiscreteSpectrum`: eigen-atoms with uniform weight ``1/p``,
optionally carrying misalignment coefficients.

Every covariance model is an AR(1) correlation (identity is ``rho = 0``),
whose eigenpairs and tridiagonal inverse ``T`` are known in closed form:
:func:`decompose` takes the eigenpairs from the former, certifies them
against ``T`` and forms no dense covariance, and every energy
``v' Sigma v`` is read from the eigen-atoms.  A general covariance
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
_RESIDUAL_BLOCK = 32  # rows per slice of the tridiagonal residual
_NEWTON_CAP = 64  # secular-equation Newton steps; the last float below rho = 1 takes 32
_EPS = float(np.finfo(float).eps)


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

    @cached_property
    def _companion_roots(self) -> dict[tuple[float, float], float]:
        # heavyreg.theory's companion roots v(gamma, mu), solved once per key
        return {}


def decompose(model: CovarianceModel) -> DiscreteSpectrum:
    """Eigendecompose a covariance model into a :class:`DiscreteSpectrum`.

    The AR(1) eigenpairs have a closed form (Kac, Murdock & Szegő 1953),
    taken by :func:`_ar1_eigenpairs` with no LAPACK eigensolver: each
    eigenvalue is a root of a scalar secular equation, solved for all ``p`` at
    once by safeguarded Newton steps, and each eigenvector is a sampled
    sinusoid whose arguments are reduced exactly through that equation.  The
    eigenvalues come out ascending and within a few ulps of a 40-digit oracle
    up to ``|rho| = 0.999``; ``||U'U - I||_F`` is about ``4e-14`` at
    ``p = 1000`` and ``1e-13`` at ``p = 4000``.  A negative ``rho`` is
    decomposed as ``|rho|`` with every other row of the basis negated, since
    ``Sigma(-rho) = D Sigma(rho) D`` for ``D = diag((-1)^j)``; at ``rho = 0``
    (and at ``p = 1``) the eigenvalues are exactly 1 and the basis is the
    identity.

    The pairs are certified against the tridiagonal inverse ``T`` (see
    :func:`_ar1_inverse`) by the residual ``||T U diag(s) - U||_F / sqrt(p)``,
    in ``O(p^2)`` work, and by ``||U'U - I||_F``, a ``p^3`` product (about half
    of the call at ``p = 1000`` on one BLAS thread) kept because only it
    catches a duplicated eigenpair.

    Raises
    ------
    ConfigError
        If the smallest eigenvalue falls at or below ``1e-12`` times the
        largest.
    ConvergenceError
        If the secular equation's Newton steps do not settle, or if the
        eigenbasis misses the residual or the orthogonality bound (``1e-10``
        each).  The message names the check.
    """
    eigenvalues, basis = _ar1_eigenpairs(model.p, model.rho)
    if eigenvalues[-1] <= 0.0 or eigenvalues[0] <= _EIGENVALUE_FLOOR * eigenvalues[-1]:
        raise ConfigError(
            f"covariance is numerically singular: eigenvalue range [{eigenvalues[0]}, {eigenvalues[-1]}]"
        )
    diag, off = _ar1_inverse(model.p, model.rho)
    residual = _tridiagonal_residual(diag, off, eigenvalues, basis)
    if not residual <= _CERTIFICATE_TOL:
        raise ConvergenceError(f"tridiagonal eigenpair residual {residual} exceeds {_CERTIFICATE_TOL}")
    gram = basis.T @ basis
    gram.flat[::model.p + 1] -= 1.0
    orthogonality = float(np.linalg.norm(gram))
    if not orthogonality <= _CERTIFICATE_TOL:
        raise ConvergenceError(f"eigenbasis orthogonality error {orthogonality} exceeds {_CERTIFICATE_TOL}")
    return DiscreteSpectrum(eigenvalues=eigenvalues, basis=basis, matrix=None)


def _ar1_eigenpairs(p: int, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and unit eigenvectors of the AR(1) covariance
    ``rho**|i-j|`` in closed form; see :func:`decompose`.

    For ``0 < rho < 1`` pair ``k = 1..p`` (eigenvalues descending in ``k``)
    has the angle ``theta = ((k-1) pi + x) / (p+1)``, where ``x`` in
    ``(0, pi]`` solves ``x = 2 atan2(1 - rho cos theta, rho sin theta)``: the
    secular equation ``(p+1) theta + 2 phi = k pi`` for
    ``phi = atan2(rho sin theta, 1 - rho cos theta)``, written so that
    neither side cancels.  Its gap is increasing and concave in ``x``, so
    Newton steps from ``x = pi``, bisecting where one leaves the bracket,
    settle in 3 steps at ``rho = 0.5`` and in 32 at the last float below 1;
    past ``_NEWTON_CAP`` steps ``ConvergenceError`` is raised.  The
    eigenvalue is ``(1-rho)(1+rho) / ((1-rho)^2 + 4 rho sin^2(theta/2))``,
    and entry ``j`` of the eigenvector is ``sin(j theta + phi)``, normalized,
    that is ``cos(pi (j (k-1) mod 2(p+1)) / (p+1) + x (j/(p+1) - 1/2))``
    with the integer part reduced exactly.  These are formed for the first
    ``h = ceil(p/2)`` entries by angle addition over ``j = a b + c + 1``,
    ``b = isqrt(h)``, in ``O(p sqrt(p))`` trigonometric calls; the rest
    mirror them, entry ``p+1-j`` being ``(-1)^(k+1)`` times entry ``j``, as
    the equation makes it, so every vector is exactly symmetric or
    antisymmetric like the true one.
    """
    if p == 1 or rho == 0.0:
        return np.ones(p), np.eye(p)
    r = abs(rho)
    k = np.arange(p - 1, -1, -1)  # k - 1, descending: ascending eigenvalues
    lo, hi = np.zeros(p), np.full(p, math.pi)
    x = hi
    for _ in range(_NEWTON_CAP):
        theta = (k * math.pi + x) / (p + 1)
        sin2 = np.sin(0.5 * theta) ** 2  # 1 - rho cos(theta) = (1 - rho) + 2 rho sin2, with no cancellation
        gap = x - 2.0 * np.arctan2((1.0 - r) + 2.0 * r * sin2, r * np.sin(theta))
        lo = np.where(gap < 0.0, x, lo)
        hi = np.where(gap > 0.0, x, hi)
        slope = 1.0 + 2.0 * r * ((1.0 - r) - 2.0 * sin2) / ((p + 1) * ((1.0 - r) ** 2 + 4.0 * r * sin2))
        step = x - gap / slope
        step = np.where((lo <= step) & (step <= hi), step, 0.5 * (lo + hi))
        settled = bool(np.all(np.abs(step - x) <= 4.0 * _EPS * x))
        x = step
        if settled:
            break
    else:
        raise ConvergenceError(f"AR1 secular equation unsettled after {_NEWTON_CAP} Newton steps")
    theta = (k * math.pi + x) / (p + 1)
    eigenvalues = (1.0 - r) * (1.0 + r) / ((1.0 - r) ** 2 + 4.0 * r * np.sin(0.5 * theta) ** 2)
    # Row i = a b + c of the first half holds j = i + 1; its argument is u + v,
    # u = a b theta and v = (c + 1) theta + phi - pi/2.
    half = p - p // 2
    b = math.isqrt(half)
    heads = np.arange(-(-half // b)) * b
    tails = np.arange(1, b + 1)
    unit, period = math.pi / (p + 1), 2 * (p + 1)
    u = unit * (np.multiply.outer(heads, k) % period) + np.multiply.outer(heads / (p + 1), x)
    v = unit * (np.multiply.outer(tails, k) % period) + np.multiply.outer(tails / (p + 1) - 0.5, x)
    sin_u, cos_u, sin_v, cos_v = np.sin(u), np.cos(u), np.sin(v), np.cos(v)
    basis = np.empty((p, p))
    scratch = np.empty((b, p))
    for a in range(heads.size):
        rows = basis[a * b:min((a + 1) * b, half)]
        m = rows.shape[0]
        np.multiply(cos_v[:m], cos_u[a], out=rows)
        rows -= np.multiply(sin_v[:m], sin_u[a], out=scratch[:m])
    np.multiply(basis[p // 2 - 1::-1], np.where(k % 2 == 0, 1.0, -1.0), out=basis[half:])
    if rho < 0.0:
        basis[0::2] *= -1.0
    basis /= np.sqrt(np.einsum("ij,ij->j", basis, basis))
    return eigenvalues, basis


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
    and off-diagonal and a vector or a ``p x k`` block ``u``."""
    diag, off = (diag, off) if u.ndim == 1 else (diag[:, None], off[:, None])
    tu = diag * u
    tu[1:] += off * u[:-1]
    tu[:-1] += off * u[1:]
    return tu


def _tridiagonal_residual(diag: np.ndarray, off: np.ndarray, eigenvalues: np.ndarray,
                          basis: np.ndarray) -> float:
    """``||T U diag(eigenvalues) - U||_F / sqrt(p)`` for the symmetric
    tridiagonal ``T`` with the given diagonal and off-diagonal, formed a
    slice of rows at a time (with the rows either side, which ``T`` reads),
    so that no ``p x p`` temporary is held and each slice stays in cache."""
    p = basis.shape[0]
    total = 0.0
    for start in range(0, p, _RESIDUAL_BLOCK):
        stop = min(start + _RESIDUAL_BLOCK, p)
        lo, hi = max(start - 1, 0), min(stop + 1, p)
        r = _tridiagonal_product(diag[lo:hi], off[lo:hi - 1], basis[lo:hi])[start - lo:stop - lo]
        r *= eigenvalues
        r -= basis[start:stop]
        total += float(np.vdot(r, r))
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
