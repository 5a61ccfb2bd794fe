"""Finite-sample estimators: least squares, closed-form ridge, and an
accelerated proximal-gradient solver for smooth losses with separable
penalties.

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
from scipy.linalg import solve as linalg_solve

from .convex import Loss, Regularizer, prox_reg
from .errors import ConfigError, ConvergenceError

__all__ = [
    "EstimatorConfig",
    "FitResult",
    "fit_ols",
    "fit_ridge",
    "fit_proximal",
    "empirical_risk",
]

_MAX_CONDITION = 1.0e12
_POWER_ITER_TOL = 1.0e-6
_POWER_ITER_MAX = 1000
_BACKTRACK_MAX = 80
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


def _as_matrix(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, int]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2:
        raise ConfigError(f"design must be a 2-d array, got shape {x.shape}")
    n, p = x.shape
    if y.shape != (n,):
        raise ConfigError(f"response must have shape ({n},), got {y.shape}")
    return x, y, n, p


def fit_ols(x: np.ndarray, y: np.ndarray) -> FitResult:
    """Unpenalized least squares via orthogonal factorization.

    Requires more observations than features and a design with condition
    number at most 1e12.
    """
    x, y, n, p = _as_matrix(x, y)
    if n <= p:
        raise ConfigError(f"least squares needs n > p, got n={n}, p={p}")
    q, r = np.linalg.qr(x)
    diag = np.abs(np.diag(r))
    if diag.min() <= 0.0 or diag.max() / diag.min() > _MAX_CONDITION:
        raise ConfigError("design is rank deficient or conditioned worse than 1e12")
    beta = np.linalg.solve(r, q.T @ y)
    resid = y - x @ beta
    objective = 0.5 * float(resid @ resid) / n
    return FitResult(beta_hat=beta, iterations=0, converged=True, objective=objective,
                     gradient_map_norm=float(np.linalg.norm(x.T @ resid)) / n)


def fit_ridge(x: np.ndarray, y: np.ndarray, lam: float, beta0: np.ndarray | None = None) -> FitResult:
    """Exact solution of ``(X'X/n + lam I)(beta - beta0) = X'(y - X beta0)/n``."""
    x, y, n, p = _as_matrix(x, y)
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ConfigError(f"ridge strength must be finite and > 0, got {lam}")
    center = np.zeros(p) if beta0 is None else np.asarray(beta0, dtype=float)
    if center.shape != (p,):
        raise ConfigError(f"center must have shape ({p},), got {center.shape}")
    gram = x.T @ x / n
    gram[np.diag_indices_from(gram)] += lam
    rhs = x.T @ (y - x @ center) / n
    d = linalg_solve(gram, rhs, assume_a="pos")
    residual = float(np.linalg.norm(gram @ d - rhs))
    scale = float(np.linalg.norm(rhs)) + float(np.linalg.norm(d)) * float(np.linalg.norm(gram, 2))
    if residual > 1.0e-10 * max(scale, 1.0e-300):
        raise ConvergenceError(f"ridge stationarity residual {residual} exceeds 1e-10 relative")
    beta = center + d
    r = y - x @ beta
    objective = 0.5 * float(r @ r) / n + 0.5 * lam * float(d @ d)
    return FitResult(beta_hat=beta, iterations=0, converged=True, objective=objective,
                     gradient_map_norm=residual)


def _operator_norm_squared(x: np.ndarray) -> float:
    """Largest eigenvalue of X'X/n by power iteration to 1e-6 relative."""
    n, p = x.shape
    rng = np.random.default_rng(0)
    v = rng.standard_normal(p)
    v /= np.linalg.norm(v)
    estimate = 0.0
    for _ in range(_POWER_ITER_MAX):
        w = x.T @ (x @ v) / n
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return 0.0
        v = w / norm
        if abs(norm - estimate) <= _POWER_ITER_TOL * norm:
            return norm
        estimate = norm
    raise ConvergenceError("power iteration for the step size did not converge")


def fit_proximal(
    config: EstimatorConfig,
    x: np.ndarray,
    y: np.ndarray,
    x0: np.ndarray | None = None,
    record_trace: bool = False,
) -> FitResult:
    """Accelerated proximal gradient (FISTA) with backtracking and monotone
    restarts on ``n^-1 sum loss(y - X beta) + lambda_n reg(beta - beta0)``.

    Only smooth losses take gradient steps; the penalty enters through its
    prox.  ``x0`` warm-starts the iteration (e.g. from the previous sweep
    point).  Convergence means the gradient-mapping certificate holds;
    ``rel_objective_tol`` is the slack used in the backtracking and
    monotonicity comparisons.  Never raises on a busted budget or a stalled
    certificate: the result is returned with ``converged=False``.
    """
    if not config.loss.smooth:
        raise ConfigError(f"loss {config.loss.kind.value!r} is classification-only; fitting needs a smooth loss")
    x, y, n, p = _as_matrix(x, y)
    lam = config.lambda_value
    center = np.zeros(p) if config.center is None else np.asarray(config.center, dtype=float)
    if center.shape != (p,):
        raise ConfigError(f"center must have shape ({p},), got {center.shape}")
    y_shift = y - x @ center
    loss = config.loss
    reg = config.reg

    def smooth_value(resid: np.ndarray) -> float:
        return float(np.mean(loss.value(resid)))

    def gradient(resid: np.ndarray) -> np.ndarray:
        return -(x.T @ np.asarray(loss.derivative(resid))) / n

    def penalty(d: np.ndarray) -> float:
        return 0.0 if reg is None else lam * float(reg.value(d))

    def prox(step: float, point: np.ndarray) -> np.ndarray:
        return point.copy() if reg is None else prox_reg(reg, step * lam, point)

    lipschitz = _operator_norm_squared(x) * loss.derivative_lipschitz()
    step = 1.0 / lipschitz if lipschitz > 0.0 else 1.0

    d = np.zeros(p) if x0 is None else np.asarray(x0, dtype=float) - center
    resid = y_shift - x @ d
    objective = smooth_value(resid) + penalty(d)
    z = d.copy()
    momentum = 1.0
    trace = [objective] if record_trace else None
    converged = False
    gradient_map_norm = math.inf
    iterations = 0
    best_certificate = math.inf
    since_improvement = 0
    slack = config.rel_objective_tol

    def backtracked_step(point: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        nonlocal step
        r_point = y_shift - x @ point
        f_point = smooth_value(r_point)
        g = gradient(r_point)
        for _ in range(_BACKTRACK_MAX):
            cand = prox(step, point - step * g)
            diff = cand - point
            r_cand = y_shift - x @ cand
            f_cand = smooth_value(r_cand)
            bound = f_point + float(g @ diff) + 0.5 * float(diff @ diff) / step
            if f_cand <= bound + slack * max(1.0, abs(f_point)):
                return cand, r_cand, f_cand
            step *= 0.5
        raise ConvergenceError("backtracking exhausted 80 halvings; loss curvature inconsistent")

    for iterations in range(1, config.max_iterations + 1):
        cand, r_cand, f_cand = backtracked_step(z)
        new_objective = f_cand + penalty(cand)
        if new_objective > objective + slack * max(1.0, abs(objective)):
            # Momentum overshot: restart from the last accepted iterate. The
            # plain majorized step cannot increase the objective.
            momentum = 1.0
            cand, r_cand, f_cand = backtracked_step(d)
            new_objective = f_cand + penalty(cand)
        momentum_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * momentum ** 2))
        z = cand + ((momentum - 1.0) / momentum_next) * (cand - d)
        d, objective, momentum = cand, new_objective, momentum_next
        if record_trace:
            trace.append(objective)

        g_at_d = gradient(r_cand)
        mapped = prox(step, d - step * g_at_d)
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
