"""Exact asymptotic risk predictions for proximally regularized least squares.

Everything here is deterministic: given a covariance spectrum with
misalignment coefficients, an aspect ratio, an effective noise variance and a
noise-adapted penalty weight, these functions return the limiting prediction
risk of the corresponding estimator.

Two routes are provided and must agree for the ridge penalty:

* :func:`ridge_risk_closed_form` evaluates the companion-resolvent closed
  form.  The companion scalar ``v`` solves

      1/v = 1 + gamma * E_S[ S / (S v + mu) ],        mu = lambda_tilde * sigma2,

  and the risk splits into a bias term ``mu^2 E_S[S Delta_S^2 / (S v + mu)^2]``
  and a variance term ``tau_eff^2 * (sigma2/n) * v^2 * E_S[S^2 / (S v + mu)^2]``
  where the effective-noise amplification

      tau_eff^2 = (1 + p * bias / sigma2) / (1 - gamma * E_S[(S v)^2 / (S v + mu)^2])

  accounts for the estimation error feeding back into the residuals.

* :func:`solve_general_fixed_point` solves the scalar fixed point
  ``tau^2 = 1 + gamma * R(tau)`` by damped iteration, where ``R`` is the risk
  functional evaluated atom by atom: each eigen-atom applies the regularizer
  prox with step ``mu / (v * s_j)`` to the misalignment coefficient perturbed
  by centered Gaussian noise of standard deviation
  ``sqrt(sigma2 + n * (tau^2 - 1)) / sqrt(n * s_j)``, integrated by
  Gauss-Hermite quadrature.  For the ridge prox the quadrature is exact and
  the two routes coincide to solver tolerance.

As ``sigma2 -> inf`` every prox collapses to the centering point, ``R`` tends
to the misalignment energy ``q_Sigma``, and ``tau`` tends to
``sqrt(1 + gamma * q_Sigma)``: the universal floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy.optimize import brentq

from .convex import Regularizer, RegKind, prox_reg
from .errors import ConfigError, ConvergenceError
from .spectrum import DiscreteSpectrum

__all__ = [
    "TheoryInputs",
    "RiskPrediction",
    "solve_companion_v",
    "ridge_risk_closed_form",
    "solve_general_fixed_point",
]

_GH_NODES_DEFAULT = 61
_FP_MAX_ITER = 500
_FP_TOL = 1.0e-10
_FP_DAMPING = 0.5


@dataclass(frozen=True)
class TheoryInputs:
    """Inputs to a risk prediction.

    ``spectrum`` must carry misalignment coefficients (see
    :func:`heavyreg.spectrum.project_delta`).  ``gamma`` is the aspect ratio
    ``p/n``; ``n`` is optional and only cross-checked when provided, since the
    formulas need the sample size only through ``gamma``.
    """

    spectrum: DiscreteSpectrum
    gamma: float
    sigma2: float
    lambda_tilde: float
    reg: Regularizer = Regularizer(RegKind.RIDGE)
    n: int | None = None

    def __post_init__(self) -> None:
        if self.spectrum.delta_coeffs is None:
            raise ConfigError("spectrum carries no misalignment coefficients; call project_delta first")
        if not (self.gamma >= 0.0 and math.isfinite(self.gamma)):
            raise ConfigError(f"aspect ratio must be finite and >= 0, got {self.gamma}")
        if not (self.sigma2 >= 0.0 and math.isfinite(self.sigma2)):
            raise ConfigError(f"noise variance must be finite and >= 0, got {self.sigma2}")
        if not (self.lambda_tilde > 0.0 and math.isfinite(self.lambda_tilde)):
            raise ConfigError(f"penalty weight must be finite and > 0, got {self.lambda_tilde}")
        if self.n is not None:
            expected = self.spectrum.p / self.n
            if abs(expected - self.gamma) > 1.0e-12 * max(1.0, expected):
                raise ConfigError(f"gamma {self.gamma} inconsistent with p/n = {expected}")


@dataclass(frozen=True)
class RiskPrediction:
    """Deterministic risk prediction.

    ``bias_term``/``variance_term`` are populated by the closed-form ridge
    route only; ``tau`` always satisfies ``tau = sqrt(1 + gamma * risk)``.
    """

    risk: float
    tau: float
    v: float | None = None
    bias_term: float | None = None
    variance_term: float | None = None
    iterations: int = 0
    residual: float = 0.0


def solve_companion_v(eigenvalues: np.ndarray, gamma: float, mu: float) -> float:
    """Solve ``1/v = 1 + gamma * mean_j(s_j / (s_j v + mu))`` for ``v`` in (0, 1].

    Requires ``mu > 0``, or ``mu = 0`` with ``gamma < 1`` (where the solution
    is ``1 - gamma`` exactly).
    """
    s = np.asarray(eigenvalues, dtype=float)
    if np.any(s <= 0.0):
        raise ConfigError("eigenvalues must be positive")
    if not (gamma >= 0.0 and math.isfinite(gamma)):
        raise ConfigError(f"aspect ratio must be finite and >= 0, got {gamma}")
    if mu < 0.0:
        raise ConfigError(f"regularization level must be >= 0, got {mu}")
    if mu == 0.0 and gamma >= 1.0:
        raise ConfigError("mu = 0 requires gamma < 1")
    if gamma == 0.0:
        return 1.0
    if mu == 0.0:
        return 1.0 - gamma

    def residual(v: float) -> float:
        return 1.0 / v - 1.0 - gamma * float(np.mean(s / (s * v + mu)))

    lo = 1.0e-14
    if residual(lo) <= 0.0:  # pragma: no cover - impossible for mu > 0
        raise ConvergenceError("companion bracket lost its sign change at the lower end")
    hi = 1.0
    v = float(brentq(residual, lo, hi, xtol=1.0e-15, rtol=8.9e-16))
    res = abs(residual(v))
    if not (res <= 1.0e-10):
        raise ConvergenceError(f"companion equation residual {res} exceeds 1e-10 at v={v}")
    return v


def _sigma2_over_n(inputs: TheoryInputs) -> float:
    # The sample size enters only through sigma2/n = gamma * sigma2 / p.
    return inputs.gamma * inputs.sigma2 / inputs.spectrum.p


def ridge_risk_closed_form(inputs: TheoryInputs) -> RiskPrediction:
    """Companion-resolvent risk for the ridge penalty."""
    if inputs.reg.kind is not RegKind.RIDGE:
        raise ConfigError("closed form applies to the ridge penalty only")
    spec = inputs.spectrum
    s = spec.eigenvalues
    d2 = spec.delta_coeffs ** 2
    gamma = inputs.gamma
    sigma2 = inputs.sigma2
    if sigma2 == 0.0:
        return RiskPrediction(risk=0.0, tau=1.0, v=solve_companion_v(s, gamma, 0.0),
                              bias_term=0.0, variance_term=0.0)
    mu = inputs.lambda_tilde * sigma2
    v = solve_companion_v(s, gamma, mu)
    denom = s * v + mu
    bias = mu ** 2 * float(np.mean(s * d2 / denom ** 2))
    chi = gamma * float(np.mean((s * v) ** 2 / denom ** 2))
    if chi >= 1.0:
        raise ConvergenceError(f"variance feedback factor {chi} >= 1; no bounded fixed point")
    w_base = _sigma2_over_n(inputs) * v ** 2 * float(np.mean(s ** 2 / denom ** 2))
    tau_eff2 = (1.0 + spec.p * bias / sigma2) / (1.0 - chi)
    variance = tau_eff2 * w_base
    risk = bias + variance
    return RiskPrediction(
        risk=risk,
        tau=math.sqrt(1.0 + gamma * risk),
        v=v,
        bias_term=bias,
        variance_term=variance,
    )


def _gauss_hermite_standard_normal(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    # hermgauss targets weight exp(-x^2); rescale to the standard normal.
    x, w = hermgauss(nodes)
    return x * math.sqrt(2.0), w / math.sqrt(math.pi)


def solve_general_fixed_point(inputs: TheoryInputs, gh_nodes: int = _GH_NODES_DEFAULT) -> RiskPrediction:
    """Damped fixed-point iteration ``tau^2 <- (1-w) tau^2 + w (1 + gamma R(tau))``.

    Raises
    ------
    ConvergenceError
        If 500 iterations do not bring successive ``tau^2`` values within
        1e-10 of each other.
    """
    spec = inputs.spectrum
    s = spec.eigenvalues
    delta = spec.delta_coeffs
    p = spec.p
    gamma = inputs.gamma
    sigma2 = inputs.sigma2
    if sigma2 == 0.0:
        return RiskPrediction(risk=0.0, tau=1.0, v=solve_companion_v(s, gamma, 0.0))
    mu = inputs.lambda_tilde * sigma2
    v = solve_companion_v(s, gamma, mu)
    zeta, wts = _gauss_hermite_standard_normal(gh_nodes)

    eta = mu / (v * s)  # per-atom prox step
    kappa_base2 = sigma2 * gamma / (p * s)  # per-atom noise variance at tau_eff = 1

    def risk_functional(tau_eff2: float) -> float:
        kappa = np.sqrt(kappa_base2 * tau_eff2)
        args = delta[:, None] - kappa[:, None] * zeta[None, :]
        moved = prox_reg(inputs.reg, eta[:, None], args)
        sq = (moved - delta[:, None]) ** 2
        return float(np.sum(s * (sq @ wts)) / p)

    tau2 = 1.0
    risk = 0.0
    iterations = 0
    converged = False
    for iterations in range(1, _FP_MAX_ITER + 1):
        tau_eff2 = 1.0 + p * risk / sigma2
        risk_new = risk_functional(tau_eff2)
        tau2_new = (1.0 - _FP_DAMPING) * tau2 + _FP_DAMPING * (1.0 + gamma * risk_new)
        if abs(tau2_new - tau2) <= _FP_TOL and abs(risk_new - risk) <= _FP_TOL * max(1.0, abs(risk_new)):
            tau2, risk = tau2_new, risk_new
            converged = True
            break
        tau2, risk = tau2_new, risk_new
    if not converged:
        raise ConvergenceError(
            f"risk fixed point did not converge in {_FP_MAX_ITER} iterations (last tau^2 = {tau2})"
        )
    residual = abs(tau2 - 1.0 - gamma * risk)
    return RiskPrediction(
        risk=risk,
        tau=math.sqrt(1.0 + gamma * risk),
        v=v,
        iterations=iterations,
        residual=residual,
    )

