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
  ``sqrt(sigma2 + n * (tau^2 - 1)) / sqrt(n * s_j)``, integrated by a
  Gauss-Hermite rule.  The rule is summed per piece of the prox: the squared
  move is constant between the prox's two breakpoints and quadratic in the
  node beyond them, so running sums of the rule's moments give each atom's
  sum after two binary searches.  For the ridge prox the quadrature is exact
  and ``R`` is affine in ``r``, so the two routes coincide to rounding.

Both scalar equations, ``r = R(r)`` and the companion one in its fixed-point
form ``v = 1 - gamma * E_S[S v / (S v + mu)]``, are solved by one
root-finder, :func:`_bracketed_secant`.  The companion root is solved once
per ``(spectrum, gamma, mu)`` and kept on the spectrum.

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

from .convex import Regularizer, RegKind, _prox_steps, _reg_weights
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
        if self.sigma2 == 0.0 and self.gamma >= 1.0:
            # The adapted penalty lambda_tilde * sigma2 vanishes, and the
            # ridgeless limit at gamma >= 1 keeps a null-space bias, so a
            # risk of 0 would be wrong.
            raise ConfigError(f"sigma2 = 0 requires gamma < 1, got gamma = {self.gamma}")


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


def _bracketed_secant(gap, x: float, lo: float, hi: float, tol: float) -> tuple[float, float, int, bool]:
    """Root of a decreasing ``gap`` with ``gap(lo) >= 0 > gap(hi)`` (``hi`` may
    be infinite), from ``x``: each step is the secant through the last two
    evaluations if it lies strictly inside the bracket the signs of ``gap``
    give, else the plain step ``x + gap(x)``, else the bracket's midpoint.

    Stops at the first ``x`` with ``|gap(x)| <= tol * max(1, x)`` or once no
    float lies strictly inside the bracket, and returns that ``x``,
    ``gap(x)``, the evaluation count and whether it stopped within
    ``_FP_MAX_ITER`` evaluations (else ``x`` is the last one evaluated).
    """
    last = None  # the previous (x, gap) pair
    for evaluations in range(1, _FP_MAX_ITER + 1):
        g = gap(x)
        if abs(g) <= tol * max(1.0, x):
            return x, g, evaluations, True
        if g > 0.0:
            lo = x
        else:
            hi = x
        if math.nextafter(lo, hi) >= hi:
            return x, g, evaluations, True
        step = x + g
        if last is not None and g != last[1]:
            secant = x - g * (x - last[0]) / (g - last[1])
            if lo < secant < hi:
                step = secant
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
        last, x = (x, g), step
    return last[0], g, _FP_MAX_ITER, False


def solve_companion_v(eigenvalues: np.ndarray, gamma: float, mu: float) -> float:
    """Solve ``1/v = 1 + gamma * mean_j(s_j / (s_j v + mu))`` for ``v`` in (0, 1].

    Requires ``mu > 0``, or ``mu = 0`` with ``gamma < 1`` (where the solution
    is ``1 - gamma`` exactly).  Otherwise :func:`_bracketed_secant` finds the
    fixed point of ``F(v) = 1 - gamma * mean_j(s_j v / (s_j v + mu))`` in
    ``[mu / (mu + gamma mean(s)), 1]`` to the last float, with ``F`` summed as
    ``mean_j((mu + (1 - gamma) s_j v) / (s_j v + mu))``, which does not cancel
    near the root ``v ~ sqrt(mu)`` at ``gamma = 1``; ``|F(v) - v| <= 1e-10``
    is certified.
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

    def gap(v: float) -> float:
        return float(np.mean((mu + (1.0 - gamma) * s * v) / (s * v + mu))) - v

    # gap(lo) >= 0 > gap(1); where rounding makes gap(lo) <= 0 (mu >> gamma s)
    # the bracket closes at once on lo, the root to rounding.
    lo = mu / (mu + gamma * float(np.mean(s)))
    v, g, _, _ = _bracketed_secant(gap, lo, lo, 1.0, 0.0)
    if not (abs(g) <= 1.0e-10):
        raise ConvergenceError(f"companion equation relative residual {abs(g)} exceeds 1e-10 at v={v}")
    return v


def _companion_v(spec: DiscreteSpectrum, gamma: float, mu: float) -> float:
    """:func:`solve_companion_v` on the spectrum's eigenvalues, solved once
    per ``(gamma, mu)`` and kept on the spectrum: every prediction at one
    ``(spectrum, gamma, mu)`` reads the same root."""
    roots = spec._companion_roots
    key = (gamma, mu)
    if key not in roots:
        roots[key] = solve_companion_v(spec.eigenvalues, gamma, mu)
    return roots[key]


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
        return RiskPrediction(risk=0.0, tau=1.0, v=_companion_v(spec, gamma, 0.0),
                              bias_term=0.0, variance_term=0.0)
    mu = inputs.lambda_tilde * sigma2
    v = _companion_v(spec, gamma, mu)
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


@functools.cache
def _gauss_hermite_moments(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Running sums of the rule's moments ``w z^k``, ``k = 0, 1, 2`` (rows),
    over the ascending nodes: column ``i`` of the first array sums the nodes
    below index ``i``, of the second the nodes from ``i`` on.  The suffix sums
    are accumulated from the top, so an upper tail keeps its digits instead of
    being the difference of two sums near the full moments."""
    zeta, wts = _gauss_hermite_standard_normal(nodes)
    terms = np.stack([wts, wts * zeta, wts * zeta * zeta])
    prefix = np.zeros((3, nodes + 1))
    suffix = np.zeros((3, nodes + 1))
    np.cumsum(terms, axis=1, out=prefix[:, 1:])
    np.cumsum(terms[:, ::-1], axis=1, out=suffix[:, -2::-1])
    prefix.setflags(write=False)
    suffix.setflags(write=False)
    return prefix, suffix


def _node_cut(num: np.ndarray, kappa: np.ndarray) -> np.ndarray:
    # The node z where delta - kappa z crosses a prox breakpoint, num / kappa;
    # at kappa = 0 every node lies on num's side of it.
    return np.divide(num, kappa, out=np.copysign(np.inf, num), where=kappa > 0.0)


def _risk_functional(inputs: TheoryInputs, v: float, gh_nodes: int):
    """The risk functional ``R(r) = p^-1 sum_j s_j E[(prox(delta_j - kappa_j Z)
    - delta_j)^2]`` for ``sigma2 > 0``, with ``kappa_j^2 = (sigma2 / n)
    tau_eff^2 / s_j``, ``tau_eff^2 = 1 + p r / sigma2``, the prox step
    ``mu / (v s_j)`` and the expectation taken by the ``gh_nodes``-point
    Gauss-Hermite rule.

    The rule is summed per piece of the prox rather than node by node.  With
    the prox written as ``soft(a, eta l1) / (1 + eta l2)``, the squared move
    is ``delta^2`` between the breakpoints ``z = (delta -+ eta l1) / kappa``
    and a quadratic in ``z`` beyond them, so two binary searches and the
    rule's running moment sums give each atom's sum: O(p log N) work for one
    evaluation instead of O(p N).

    Raises ``ConfigError`` if a prox step is not finite and > 0.
    """
    spec = inputs.spectrum
    s = spec.eigenvalues
    delta = spec.delta_coeffs
    p = spec.p
    sigma2 = inputs.sigma2
    zeta, _ = _gauss_hermite_standard_normal(gh_nodes)
    prefix, suffix = _gauss_hermite_moments(gh_nodes)
    l1, l2 = _reg_weights(inputs.reg)
    eta = _prox_steps(inputs.lambda_tilde * sigma2 / (v * s))  # per-atom prox step
    thresh = eta * l1
    # (1 + eta l2) (prox - delta) = offset - kappa z where the prox argument
    # a = delta - kappa z exceeds thresh (the nodes below cut_upper / kappa)
    # and where it falls below -thresh (the nodes above cut_lower / kappa);
    # in between the prox is 0 and the squared move delta^2.
    offset_upper = -(eta * l2 * delta + thresh)
    offset_lower = thresh - eta * l2 * delta
    cut_upper = delta - thresh
    cut_lower = delta + thresh
    s_shrunk = s / (1.0 + eta * l2) ** 2
    s_delta2 = s * delta ** 2
    kappa_base2 = sigma2 * inputs.gamma / (p * s)  # per-atom noise variance at tau_eff = 1

    def risk_functional(risk: float) -> float:
        kappa = np.sqrt(kappa_base2 * (1.0 + p * risk / sigma2))
        upper = np.searchsorted(zeta, _node_cut(cut_upper, kappa))
        lower = np.searchsorted(zeta, _node_cut(cut_lower, kappa), side="right")
        m0, m1, m2 = np.take(prefix, upper, axis=1)
        n0, n1, n2 = np.take(suffix, lower, axis=1)
        twice = 2.0 * kappa
        moved = (offset_upper * (offset_upper * m0 - twice * m1)
                 + offset_lower * (offset_lower * n0 - twice * n1)
                 + kappa * kappa * (m2 + n2))
        centred = np.take(prefix[0], lower) - m0
        return (float(s_shrunk @ moved) + float(s_delta2 @ centred)) / p

    return risk_functional


def solve_general_fixed_point(inputs: TheoryInputs, gh_nodes: int = _GH_NODES_DEFAULT) -> RiskPrediction:
    """The risk ``r`` with ``R(r) = r``, by :func:`_bracketed_secant` on
    ``g(r) = R(r) - r`` from ``r = 0`` in ``[0, inf)``.

    ``R`` is :func:`_risk_functional`: the ``gh_nodes``-point Gauss-Hermite
    rule, summed per piece of the prox.  The first step is ``R(0)``; where
    the prox pins every node at the centre, ``R`` is constant and 2
    evaluations suffice, and for ridge, whose ``R`` is affine, 3.  The
    returned ``r`` is the first with ``|R(r) - r| <= 1e-12 max(1, r)``, or
    the last before the bracket closes; ``residual`` is ``gamma |R(r) - r|``
    there, the gap in ``tau^2 = 1 + gamma R``, and ``iterations`` counts
    evaluations of ``R``.

    Raises
    ------
    ConfigError
        If ``gh_nodes < 1``, or if a prox step ``mu / (v s_j)`` is not finite
        and > 0.
    ConvergenceError
        If 500 evaluations do not bring the risk within that tolerance, or as
        soon as ``R(r)`` overflows or is not finite (the risk grows without
        bound: there is no finite fixed point); the message names the last
        finite risk.
    """
    if gh_nodes < 1:
        raise ConfigError(f"gh_nodes must be >= 1, got {gh_nodes}")
    spec = inputs.spectrum
    gamma = inputs.gamma
    if inputs.sigma2 == 0.0:
        return RiskPrediction(risk=0.0, tau=1.0, v=_companion_v(spec, gamma, 0.0))
    v = _companion_v(spec, gamma, inputs.lambda_tilde * inputs.sigma2)
    risk_functional = _risk_functional(inputs, v, gh_nodes)

    def gap(risk: float) -> float:
        try:
            value = risk_functional(risk)
        except FloatingPointError:
            value = math.inf
        if not math.isfinite(value):
            raise ConvergenceError(f"R(r) is not finite at r = {risk}, the last finite risk: no finite fixed point")
        return value - risk

    with np.errstate(over="raise", invalid="raise"):
        risk, g, iterations, settled = _bracketed_secant(gap, 0.0, 0.0, math.inf, _FP_TOL)
    if not settled:
        raise ConvergenceError(
            f"risk fixed point did not converge in {_FP_MAX_ITER} evaluations (last risk = {risk}, gap {g})"
        )
    residual = gamma * abs(g)
    return RiskPrediction(
        risk=risk,
        tau=math.sqrt(1.0 + gamma * risk),
        v=v,
        iterations=iterations,
        residual=residual,
    )

