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
  ``r = R(r)`` on the risk (Thrampoulidis, Abbasi & Hassibi 2018), with
  ``tau^2 = 1 + gamma * r``.  ``R`` is the risk functional evaluated atom by
  atom: each eigen-atom applies the regularizer prox with step
  ``mu / (v * s_j)`` to the misalignment coefficient perturbed by centered
  Gaussian noise of standard deviation
  ``sqrt(sigma2 + n * (tau^2 - 1)) / sqrt(n * s_j)``, integrated by
  Gauss-Hermite quadrature.  The root of ``g(r) = R(r) - r`` is found by
  secant steps kept inside the bracket that the signs of ``g`` give, with the
  plain step ``r <- R(r)`` or a bisection as the safeguard.  For the ridge
  prox the quadrature is exact and ``R`` is affine in ``r``, so the secant
  lands on the root at the third evaluation and the two routes coincide to
  rounding.

As ``sigma2 -> inf`` every prox collapses to the centering point, ``R`` tends
to the misalignment energy ``q_Sigma``, and ``tau`` tends to
``sqrt(1 + gamma * q_Sigma)``: the universal floor.
"""

from __future__ import annotations

import functools
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
_FP_TOL = 1.0e-12


@dataclass(frozen=True)
class TheoryInputs:
    """Inputs to a risk prediction.

    ``spectrum`` must carry misalignment coefficients (see
    :func:`heavyreg.spectrum.project_delta`).  ``gamma`` is the aspect ratio
    ``p/n``; the formulas need the sample size only through it.
    """

    spectrum: DiscreteSpectrum
    gamma: float
    sigma2: float
    lambda_tilde: float
    reg: Regularizer = Regularizer(RegKind.RIDGE)

    def __post_init__(self) -> None:
        if self.spectrum.delta_coeffs is None:
            raise ConfigError("spectrum carries no misalignment coefficients; call project_delta first")
        if not (self.gamma >= 0.0 and math.isfinite(self.gamma)):
            raise ConfigError(f"aspect ratio must be finite and >= 0, got {self.gamma}")
        if not (self.sigma2 >= 0.0 and math.isfinite(self.sigma2)):
            raise ConfigError(f"noise variance must be finite and >= 0, got {self.sigma2}")
        if not (self.lambda_tilde > 0.0 and math.isfinite(self.lambda_tilde)):
            raise ConfigError(f"penalty weight must be finite and > 0, got {self.lambda_tilde}")


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

    # At lo, 1/lo - 1 = gamma mean(s) / mu bounds the mean term from above,
    # so residual(lo) >= 0 and residual(1) < 0; where rounding makes
    # residual(lo) <= 0 (mu >> gamma s), lo is the root to rounding.  The
    # tolerances and the residual check are relative to v, which can be far
    # below 1e-6 at small mu.
    lo = mu / (mu + gamma * float(np.mean(s)))
    v = lo if residual(lo) <= 0.0 else float(brentq(residual, lo, 1.0, xtol=1.0e-15 * lo, rtol=8.9e-16))
    res = v * abs(residual(v))
    if not (res <= 1.0e-10):
        raise ConvergenceError(f"companion equation relative residual {res} exceeds 1e-10 at v={v}")
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


@functools.cache
def _gauss_hermite_standard_normal(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    # hermgauss targets weight exp(-x^2); rescale to the standard normal.
    # Built once per node count and shared, so the arrays are read-only.
    x, w = hermgauss(nodes)
    x, w = x * math.sqrt(2.0), w / math.sqrt(math.pi)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def solve_general_fixed_point(inputs: TheoryInputs, gh_nodes: int = _GH_NODES_DEFAULT) -> RiskPrediction:
    """The risk ``r`` with ``R(r) = r``, by safeguarded secant steps on
    ``g(r) = R(r) - r``.

    ``R(r)`` is the risk functional at ``tau_eff^2 = 1 + p r / sigma2``.  The
    search starts at ``r = 0``, where ``g >= 0``, and keeps the bracket
    ``[lo, hi]`` that the signs of ``g`` seen so far give (``hi`` is infinite
    until ``g < 0`` is seen).  Each step is the secant point through the last
    two evaluations when it lies strictly inside the bracket; otherwise the
    plain step ``R(r)``, or the bracket's midpoint where that step leaves it.
    The first step is therefore ``R(0)``; where the prox pins every node at
    the centre, ``R`` is constant and 2 evaluations suffice, and for ridge,
    whose ``R`` is affine, 3.

    The search stops at the first evaluated ``r`` with
    ``|R(r) - r| <= 1e-12 max(1, r)``; that ``r`` is the returned risk, and
    ``residual`` is the matching gap in ``tau^2 = 1 + gamma R``, namely
    ``gamma |R(r) - r|``.  ``iterations`` counts evaluations of ``R``.

    Raises
    ------
    ConvergenceError
        If 500 evaluations do not bring the risk within that tolerance, or as
        soon as ``R(r)`` overflows or is not finite (the risk grows without
        bound: there is no finite fixed point); the message names the last
        finite risk.
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

    def gap(risk: float) -> float:
        try:
            value = risk_functional(1.0 + p * risk / sigma2)
        except FloatingPointError:
            value = math.inf
        if not math.isfinite(value):
            raise ConvergenceError(f"R(r) is not finite at r = {risk}, the last finite risk: no finite fixed point")
        return value - risk

    risk, lo, hi = 0.0, 0.0, math.inf  # g(lo) >= 0 > g(hi)
    last = None  # the previous (risk, g) pair
    with np.errstate(over="raise", invalid="raise"):
        for iterations in range(1, _FP_MAX_ITER + 1):
            g = gap(risk)
            if abs(g) <= _FP_TOL * max(1.0, risk):
                break
            if g > 0.0:
                lo = risk
            else:
                hi = risk
            step = risk + g
            if last is not None and g != last[1]:
                secant = risk - g * (risk - last[0]) / (g - last[1])
                if lo < secant < hi:
                    step = secant
            if not lo < step < hi:
                step = 0.5 * (lo + hi)
            last, risk = (risk, g), step
        else:
            raise ConvergenceError(
                f"risk fixed point did not converge in {_FP_MAX_ITER} evaluations (last risk = {last[0]}, gap {g})"
            )
    residual = gamma * abs(g)
    return RiskPrediction(
        risk=risk,
        tau=math.sqrt(1.0 + gamma * risk),
        v=v,
        iterations=iterations,
        residual=residual,
    )

