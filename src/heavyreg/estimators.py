"""Finite-sample estimators: least squares, closed-form ridge, and an
accelerated proximal-gradient solver for smooth losses with separable
penalties.

Every fit goes through one :class:`Resolvent`, the eigendecomposition of the
design's Gram matrix ``X'X/n`` taken once per design: least squares and ridge
are its resolvent ``(X'X/n + lam I)^-1`` applied to ``X'y/n``, and the
proximal solver takes its fixed step ``1/L`` from the top eigenvalue.

All fitting is centered: the penalty acts on ``beta - beta0`` where ``beta0``
is a prior center (the origin when omitted), and objectives use the
``n^-1 sum loss(y_i - x_i' beta) + lambda * penalty(beta - beta0)``
normalization, so a noise-adapted penalty level is ``lambda_tilde * sigma2``
with no further rescaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convex import Loss, Regularizer, prox_reg
from .errors import ConfigError, ConvergenceError

__all__ = [
    "Resolvent",
    "EstimatorConfig",
    "FitResult",
    "fit_ols",
    "fit_ridge",
    "fit_proximal",
    "empirical_risk",
]

_MAX_CONDITION = 1.0e12
_STALL_WINDOW = 300


@dataclass(frozen=True)
class EstimatorConfig:
    """Everything a proximal fit needs besides the data.

    ``lambda_value`` is the penalty level ``lambda_n``; a noise-adapted fit
    passes ``lambda_tilde * sigma2``.  ``center`` defaults to the origin.
    """

    loss: Loss
    reg: Regularizer | None
    lambda_value: float = 0.1
    center: np.ndarray | None = None
    rel_objective_tol: float = 1.0e-10
    gradient_map_tol: float = 1.0e-8
    max_iterations: int = 10_000

    def __post_init__(self) -> None:
        if not (self.lambda_value > 0.0 and math.isfinite(self.lambda_value)):
            raise ConfigError(f"penalty weight must be finite and > 0, got {self.lambda_value}")
        if self.max_iterations < 1:
            raise ConfigError(f"iteration budget must be >= 1, got {self.max_iterations}")


@dataclass(frozen=True)
class FitResult:
    """Outcome of a fit, with its optimality certificate.

    ``converged`` is True only when the gradient-mapping norm certifies
    first-order optimality; closed-form fits report zero iterations and a
    machine-precision certificate.
    """

    beta_hat: np.ndarray
    iterations: int
    converged: bool
    objective: float
    gradient_map_norm: float = 0.0
    objective_trace: tuple[float, ...] | None = None


@dataclass(frozen=True)
class Resolvent:
    """One design and the eigendecomposition of its Gram matrix ``X'X/n``.

    Build it with :meth:`of`, which takes the decomposition once; every fit
    on the same design reuses it.  ``evals`` ascend, so ``evals[-1]`` is the
    largest eigenvalue ``||X||_2**2 / n``.
    """

    x: np.ndarray
    evals: np.ndarray
    evecs: np.ndarray

    @classmethod
    def of(cls, x: np.ndarray) -> Resolvent:
        """Validate a finite 2-d design and eigendecompose ``X'X/n``."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.size == 0 or not np.isfinite(x).all():
            raise ConfigError(f"design must be a nonempty finite 2-d array, got shape {x.shape}")
        return cls(x, *np.linalg.eigh(x.T @ x / x.shape[0]))

    def solve(self, rhs: np.ndarray, lam: float) -> np.ndarray:
        """``(X'X/n + lam I)^-1 rhs`` through the eigenbasis."""
        return self.evecs @ ((self.evecs.T @ rhs) / (self.evals + lam))

    def gram(self, v: np.ndarray) -> np.ndarray:
        """``(X'X/n) v`` through the eigenbasis."""
        return self.evecs @ ((self.evecs.T @ v) * self.evals)


def _finite_vector(v, size: int, label: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (size,) or not np.isfinite(v).all():
        raise ConfigError(f"{label} must be finite with shape ({size},), got shape {v.shape}")
    return v


def fit_ols(design: Resolvent, y: np.ndarray) -> FitResult:
    """Unpenalized least squares, ``(X'X/n)^-1 X'y/n`` through the eigenbasis.

    Requires more observations than features and a Gram matrix with
    condition number at most 1e12, i.e. a design with condition number at
    most 1e6.  Raises ``ConfigError`` on a non-finite response.
    """
    x = design.x
    n, p = x.shape
    y = _finite_vector(y, n, "response")
    if n <= p:
        raise ConfigError(f"least squares needs n > p, got n={n}, p={p}")
    if not (design.evals[0] > 0.0 and design.evals[-1] <= _MAX_CONDITION * design.evals[0]):
        raise ConfigError("Gram matrix is singular or conditioned worse than 1e12")
    beta = design.solve(x.T @ y / n, 0.0)
    resid = y - x @ beta
    objective = 0.5 * float(resid @ resid) / n
    return FitResult(beta_hat=beta, iterations=0, converged=True, objective=objective,
                     gradient_map_norm=float(np.linalg.norm(x.T @ resid)) / n)


def fit_ridge(design: Resolvent, y: np.ndarray, lam: float, beta0: np.ndarray | None = None) -> FitResult:
    """Exact solution of ``(X'X/n + lam I)(beta - beta0) = X'(y - X beta0)/n``
    through the eigenbasis, certified by the stationarity residual computed
    from the design itself (``ConvergenceError`` above 1e-10 relative)."""
    x = design.x
    n, p = x.shape
    y = _finite_vector(y, n, "response")
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ConfigError(f"ridge strength must be finite and > 0, got {lam}")
    center = np.zeros(p) if beta0 is None else _finite_vector(beta0, p, "center")
    rhs = x.T @ (y - x @ center) / n
    d = design.solve(rhs, lam)
    residual = float(np.linalg.norm(x.T @ (x @ d) / n + lam * d - rhs))
    scale = float(np.linalg.norm(rhs)) + float(np.linalg.norm(d)) * (float(design.evals[-1]) + lam)
    if residual > 1.0e-10 * max(scale, 1.0e-300):
        raise ConvergenceError(f"ridge stationarity residual {residual} exceeds 1e-10 relative")
    beta = center + d
    r = y - x @ beta
    objective = 0.5 * float(r @ r) / n + 0.5 * lam * float(d @ d)
    return FitResult(beta_hat=beta, iterations=0, converged=True, objective=objective,
                     gradient_map_norm=residual)


def fit_proximal(
    config: EstimatorConfig,
    design: Resolvent,
    y: np.ndarray,
    x0: np.ndarray | None = None,
    record_trace: bool = False,
) -> FitResult:
    """Accelerated proximal gradient (FISTA) with monotone restarts on
    ``n^-1 sum loss(y - X beta) + lambda_n reg(beta - beta0)``.

    Only smooth losses take gradient steps; the penalty enters through its
    prox.  The step is the constant ``1/L`` with ``L = evals[-1] *
    loss.derivative_lipschitz()``, the exact Lipschitz constant of the
    smooth part's gradient, so every step satisfies the descent lemma and
    nothing is backtracked.  ``x0`` warm-starts the iteration (e.g. from the
    previous sweep point).  Convergence means the gradient-mapping
    certificate holds; ``rel_objective_tol`` is the slack of the
    monotonicity comparison.  Raises only ``ConfigError``, on invalid input
    (a nonsmooth loss, wrong shapes, non-finite ``y``, center or ``x0``); a
    busted budget or a stalled certificate returns the result with
    ``converged=False``.
    """
    if not config.loss.smooth:
        raise ConfigError(f"loss {config.loss.kind.value!r} is classification-only; fitting needs a smooth loss")
    x = design.x
    n, p = x.shape
    y = _finite_vector(y, n, "response")
    lam = config.lambda_value
    center = np.zeros(p) if config.center is None else _finite_vector(config.center, p, "center")
    d = np.zeros(p) if x0 is None else _finite_vector(x0, p, "warm start") - center
    y_shift = y - x @ center
    loss = config.loss
    reg = config.reg

    def smooth_value(resid: np.ndarray) -> float:
        return float(np.mean(loss.value(resid)))

    def gradient(resid: np.ndarray) -> np.ndarray:
        return -(x.T @ np.asarray(loss.derivative(resid))) / n

    def penalty(d: np.ndarray) -> float:
        return 0.0 if reg is None else lam * float(reg.value(d))

    lipschitz = float(design.evals[-1]) * loss.derivative_lipschitz()
    step = 1.0 / lipschitz if lipschitz > 0.0 else 1.0

    def prox_step(point: np.ndarray, g: np.ndarray) -> np.ndarray:
        moved = point - step * g
        return moved if reg is None else prox_reg(reg, step * lam, moved)

    def forward_backward(point: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        cand = prox_step(point, gradient(y_shift - x @ point))
        r_cand = y_shift - x @ cand
        return cand, r_cand, smooth_value(r_cand)

    objective = smooth_value(y_shift - x @ d) + penalty(d)
    z = d.copy()
    momentum = 1.0
    trace = [objective] if record_trace else None
    converged = False
    gradient_map_norm = math.inf
    iterations = 0
    best_certificate = math.inf
    since_improvement = 0
    slack = config.rel_objective_tol

    for iterations in range(1, config.max_iterations + 1):
        cand, r_cand, f_cand = forward_backward(z)
        new_objective = f_cand + penalty(cand)
        if new_objective > objective + slack * max(1.0, abs(objective)):
            # Momentum overshot: restart from the last accepted iterate. The
            # plain majorized step cannot increase the objective.
            momentum = 1.0
            cand, r_cand, f_cand = forward_backward(d)
            new_objective = f_cand + penalty(cand)
        momentum_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * momentum ** 2))
        z = cand + ((momentum - 1.0) / momentum_next) * (cand - d)
        d, objective, momentum = cand, new_objective, momentum_next
        if record_trace:
            trace.append(objective)

        mapped = prox_step(d, gradient(r_cand))
        gradient_map_norm = float(np.linalg.norm(d - mapped)) / step
        if gradient_map_norm <= config.gradient_map_tol * (1.0 + float(np.linalg.norm(d + center))):
            converged = True
            break
        if gradient_map_norm <= 0.99 * best_certificate:
            best_certificate = gradient_map_norm
            since_improvement = 0
        else:
            since_improvement += 1
        if since_improvement >= _STALL_WINDOW:
            break

    return FitResult(
        beta_hat=center + d,
        iterations=iterations,
        converged=converged,
        objective=objective,
        gradient_map_norm=gradient_map_norm,
        objective_trace=None if trace is None else tuple(trace),
    )


def empirical_risk(beta_hat: np.ndarray, beta_star: np.ndarray, sigma: np.ndarray) -> float:
    """Covariance-weighted parameter error ``p^-1 (b - b*)' Sigma (b - b*)``."""
    beta_hat = np.asarray(beta_hat, dtype=float)
    beta_star = np.asarray(beta_star, dtype=float)
    if beta_hat.shape != beta_star.shape:
        raise ConfigError(f"shape mismatch: {beta_hat.shape} vs {beta_star.shape}")
    p = beta_hat.shape[0]
    if sigma.shape != (p, p):
        raise ConfigError(f"covariance must have shape ({p}, {p}), got {sigma.shape}")
    err = beta_hat - beta_star
    return float(err @ sigma @ err) / p
