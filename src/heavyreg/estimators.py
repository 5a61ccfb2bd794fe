"""Finite-sample estimators: an exact active-set Newton fit for squared or
Huber loss with a ridge or lasso penalty, and the shifted Gram solves behind
every closed-form squared-loss fit.

Every fit goes through one :class:`Resolvent`, the eigendecomposition of the
design's Gram matrix ``X'X/n`` taken once per design.  A closed-form
squared-loss fit is one shifted system ``(X'X/n + lam I) e = rhs`` for its
error ``e``; :meth:`Resolvent.solve` takes a block of them with one shift per
column.  The Newton fit solves one piecewise-quadratic pattern per step
through the same resolvent, corrected by Woodbury identities for a few
outliers or a few inliers, or else through a Cholesky factor; it never
decomposes again.  A block of well-conditioned shifted solves on one design
(the transient sweep's) skips the decomposition: conjugate gradients solve
it, certified by the true residual, with the ``Resolvent`` as fallback.

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
import scipy.linalg

from .convex import Loss, LossKind, Regularizer, RegKind, prox_reg
from .errors import ConfigError

__all__ = [
    "Resolvent",
    "EstimatorConfig",
    "FitResult",
    "fit_proximal",
    "empirical_risk",
]

_MAX_CONDITION = 1.0e12
_ROUNDING = 1.0e-12  # relative objective slack that absorbs rounding
_MIN_STEP = 2.0 ** -60  # the shortest step the halving tries
_PROXIMAL = 1.0e-6  # weight of the proximal term on a singular pattern, relative to L
_CERTIFICATE = 1.0e-10  # relative residual a shifted solve must reach
_CG_TOL = 1.0e-12  # recurrence residual at which a column leaves the conjugate-gradient block
# Column mat-vecs per feature the block may spend: on one BLAS thread an eigh
# of a p x p Gram matrix costs 2.5p (p = 1000) to 4p (p = 400) of them.
_CG_BUDGET = 3


@dataclass(frozen=True)
class EstimatorConfig:
    """Everything a proximal fit needs besides the data.

    ``lambda_value`` is the penalty level ``lambda_n``; a noise-adapted fit
    passes ``lambda_tilde * sigma2``.  ``center`` defaults to the origin.
    ``max_iterations`` caps the Newton steps.
    """

    loss: Loss
    reg: Regularizer | None
    lambda_value: float = 0.1
    center: np.ndarray | None = None
    gradient_map_tol: float = 1.0e-8
    max_iterations: int = 100

    def __post_init__(self) -> None:
        if not (self.lambda_value > 0.0 and math.isfinite(self.lambda_value)):
            raise ConfigError(f"penalty weight must be finite and > 0, got {self.lambda_value}")
        if self.max_iterations < 1:
            raise ConfigError(f"iteration budget must be >= 1, got {self.max_iterations}")


@dataclass(frozen=True)
class FitResult:
    """Outcome of a fit, with its optimality certificate.

    ``converged`` is True only when the gradient-mapping norm certifies
    first-order optimality; ``iterations`` counts Newton steps.
    """

    beta_hat: np.ndarray
    iterations: int
    converged: bool
    objective: float
    gradient_map_norm: float = 0.0


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

    def solve(self, rhs: np.ndarray, lam: float | np.ndarray) -> np.ndarray:
        """``(X'X/n + lam I)^-1 rhs`` through the eigenbasis, for a vector or
        a ``p x k`` block of right-hand sides; for a block ``lam`` is one
        shift or ``k`` of them, one per column."""
        shift = self.evals.reshape((-1,) + (1,) * (np.ndim(rhs) - 1)) + lam
        return self.evecs @ ((self.evecs.T @ rhs) / shift)


def _shifted_solve(x: np.ndarray, rhs: np.ndarray, shifts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(G + shifts[k] I)^-1 rhs[:, k]`` for every column ``k``, with
    ``G = X'X/n``, by conjugate gradients on all columns at once.

    Each step multiplies ``G`` into the block of unfinished search directions
    (one GEMM); a column leaves the block once its recurrence residual falls
    to ``_CG_TOL`` relative.  The block stops after ``_CG_BUDGET * p``
    column mat-vecs in all, about the cost of one ``eigh`` of ``G``.  Every
    column is certified by its true relative residual
    ``||(G + s_k I) e_k - r_k|| / ||r_k||``, recomputed from ``G`` at the end;
    a column above ``_CERTIFICATE`` (the budget ran out, or rounding held
    the true residual up) is solved again through a :class:`Resolvent`,
    built once, and certified the same way.

    Returns the solutions, their certificates and a mask of the columns
    solved through the ``Resolvent``.
    """
    n, p = x.shape
    gram = x.T @ x / n
    sol = np.zeros_like(rhs)
    res = rhs.copy()
    direction = rhs.copy()
    rho = np.einsum("ij,ij->j", res, res)
    stop = _CG_TOL ** 2 * rho
    active = np.flatnonzero(rho > stop)
    spent = 0
    while active.size and spent + active.size <= _CG_BUDGET * p:
        spent += active.size
        d = direction[:, active]
        q = gram @ d + d * shifts[active]
        alpha = rho[active] / np.einsum("ij,ij->j", d, q)
        sol[:, active] += alpha * d
        r = res[:, active] - alpha * q
        res[:, active] = r
        rho_next = np.einsum("ij,ij->j", r, r)
        direction[:, active] = r + (rho_next / rho[active]) * d
        rho[active] = rho_next
        active = active[rho_next > stop[active]]

    def certify(cols: np.ndarray) -> np.ndarray:
        e = sol[:, cols]
        residual = np.linalg.norm(gram @ e + e * shifts[cols] - rhs[:, cols], axis=0)
        return residual / np.maximum(np.linalg.norm(rhs[:, cols], axis=0), 1.0e-300)

    certificate = certify(np.arange(rhs.shape[1]))
    fell_back = ~(certificate <= _CERTIFICATE)
    if fell_back.any():
        cols = np.flatnonzero(fell_back)
        sol[:, cols] = Resolvent(x, *np.linalg.eigh(gram)).solve(rhs[:, cols], shifts[cols])
        certificate[cols] = certify(cols)
    return sol, certificate, fell_back


def _finite_vector(v, size: int, label: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (size,) or not np.isfinite(v).all():
        raise ConfigError(f"{label} must be finite with shape ({size},), got shape {v.shape}")
    return v


def fit_proximal(
    config: EstimatorConfig,
    design: Resolvent,
    y: np.ndarray,
    x0: np.ndarray | None = None,
) -> FitResult:
    """Exact active-set (semismooth) Newton method on
    ``n^-1 sum loss(y - X beta) + lambda_n reg(beta - beta0)`` for squared
    or Huber loss with a ridge or lasso penalty.

    Both objectives are piecewise quadratic.  Each step reads a pattern --
    every residual an inlier (``|r| <= k``) or an outlier of a given sign,
    every lasso coordinate zero or free with a given sign -- and solves that
    pattern's quadratic exactly (:func:`_pattern_solve`).  The lasso reads
    its signs from the proximal-gradient point ``prox(b - grad / L)`` and
    steps from there.  When the full step raises the objective, the step is
    halved (for the lasso, coordinates that would change sign stop at zero).
    The method stops when a full step lands on the pattern it was solved
    for, since that point satisfies the optimality conditions exactly, or
    when a step no longer lowers the objective.  A lasso pattern with more
    free coordinates than inlier rows, or a Cholesky factorization that
    fails, has no unique minimizer; its step adds the proximal term
    ``(mu/2) ||b - b_k||^2`` with ``mu = 1e-6 L`` and never ends the method.
    ``x0`` warm-starts it (e.g. from the previous sweep point).  A lasso
    whose centre is optimal, ``||X' loss'(y - X beta0) / n||_inf <=
    lambda_n``, returns the centre in zero steps.

    ``iterations`` counts Newton steps.  Convergence means the
    gradient-mapping certificate, computed once at the end with the step
    ``1/L``, ``L = evals[-1]``, holds.  Raises only ``ConfigError``, on
    invalid input (a loss or penalty other than those above, wrong shapes,
    non-finite ``y``, center or ``x0``); a busted budget or a stalled step
    returns the result with ``converged=False``.
    """
    loss, reg = config.loss, config.reg
    if loss.kind not in (LossKind.SQUARED, LossKind.HUBER) or reg is None \
            or reg.kind not in (RegKind.RIDGE, RegKind.LASSO):
        penalty = "no penalty" if reg is None else repr(reg.kind.value)
        raise ConfigError(f"fitting takes squared or Huber loss with ridge or lasso, "
                          f"got {loss.kind.value!r} with {penalty}")
    x = design.x
    n, p = x.shape
    y = _finite_vector(y, n, "response")
    lam = config.lambda_value
    center = np.zeros(p) if config.center is None else _finite_vector(config.center, p, "center")
    d = np.zeros(p) if x0 is None else _finite_vector(x0, p, "warm start") - center
    y_shift = y - x @ center
    lasso = reg.kind is RegKind.LASSO
    k = loss.param if loss.kind is LossKind.HUBER else math.inf
    lipschitz = float(design.evals[-1]) * loss.derivative_lipschitz()
    step = 1.0 / lipschitz if lipschitz > 0.0 else 1.0

    def objective(d: np.ndarray, r: np.ndarray) -> float:
        return float(np.mean(loss.value(r))) + lam * float(reg.value(d))

    def gradient(r: np.ndarray) -> np.ndarray:
        return -(x.T @ np.asarray(loss.derivative(r))) / n

    screened = lasso and np.max(np.abs(gradient(y_shift))) <= lam
    if screened:
        d = np.zeros(p)  # the centre is optimal
    r = y_shift - x @ d
    f = objective(d, r)
    iterations = 0
    solved = None  # the pattern of the last exact full step
    while not screened and iterations < config.max_iterations:
        base, r_base, sign = d, r, None
        if lasso:  # the proximal-gradient point lies inside its own sign pattern
            u = d - step * gradient(r)
            sign = np.where(np.abs(u) > step * lam, np.sign(u), 0.0)
            base = np.where(sign != 0.0, u - step * lam * sign, 0.0)
            r_base = y_shift - x @ base
        pattern = (np.where(np.abs(r_base) <= k, 0.0, np.sign(r_base)), sign)
        if solved is not None and all(a is None or np.array_equal(a, b) for a, b in zip(pattern, solved)):
            break  # a full step landed on its own pattern
        iterations += 1
        if lasso:  # never above the objective at d, by the descent lemma
            d, r, f = base, r_base, objective(base, r_base)
        singular = lasso and np.count_nonzero(sign) > np.count_nonzero(pattern[0] == 0.0)
        mu = _PROXIMAL * lipschitz if singular else 0.0
        try:
            target = _pattern_solve(design, y_shift, k, *pattern, lam, d, mu)
        except np.linalg.LinAlgError:
            mu = _PROXIMAL * lipschitz
            target = _pattern_solve(design, y_shift, k, *pattern, lam, d, mu)
        # the full step; for the lasso next the full step with coordinates
        # that would change sign stopped at zero; then halvings of that
        t, cand = 1.0, target
        while True:
            r_cand = y_shift - x @ cand
            f_cand = objective(cand, r_cand)
            if f_cand <= f + _ROUNDING * abs(f) or t < _MIN_STEP:
                break
            if not (lasso and cand is target):
                t *= 0.5
            cand = d + t * (target - d)
            if lasso:
                cand = np.where(cand * sign > 0.0, cand, 0.0)
        if not f_cand < f:
            break  # no descent left
        d, r, f = cand, r_cand, f_cand
        solved = pattern if cand is target and mu == 0.0 else None

    mapped = prox_reg(reg, step * lam, d - step * gradient(r))
    gradient_map_norm = float(np.linalg.norm(d - mapped)) / step
    beta = center + d
    return FitResult(
        beta_hat=beta,
        iterations=iterations,
        converged=gradient_map_norm <= config.gradient_map_tol * (1.0 + float(np.linalg.norm(beta))),
        objective=f,
        gradient_map_norm=gradient_map_norm,
    )


def _pattern_solve(design: Resolvent, y: np.ndarray, k: float, outlier: np.ndarray,
                   sign: np.ndarray | None, lam: float, anchor: np.ndarray, mu: float) -> np.ndarray:
    """Minimizer of one pattern's quadratic plus ``(mu/2) ||b - anchor||^2``.

    ``outlier`` is 0 for an inlier residual and its sign for an outlier;
    ``sign`` is None for the ridge, where every coordinate is free, and for
    the lasso each coordinate's sign, 0 for one held at zero.  On the free
    coordinates ``F`` the minimizer solves

        ``(X_IF' X_IF / n + s I) b_F = X_F' v / n - lam_1 sign_F + mu anchor_F``

    with ``v`` the inlier responses and ``k`` times the outlier signs,
    ``s = lam_2 + mu`` and ``(lam_1, lam_2)`` equal to ``(lam, 0)`` for the
    lasso and ``(0, lam)`` for the ridge.  The system is solved the cheapest
    exact way by flop count: through the ``Resolvent`` with a Woodbury
    correction for the outliers when every coordinate is free and the
    resolvent is finite (``s > 0``, or a Gram matrix conditioned within
    1e12); with a Woodbury correction of ``s I`` for the inliers when
    ``s > 0`` (no inliers and ``mu = 0`` give ``b = k X' sign / (lam n)``);
    otherwise by a Cholesky factor of ``X_IF' X_IF / n + s I``, whose
    failure raises ``numpy.linalg.LinAlgError``.
    """
    x = design.x
    n, p = x.shape
    inlier = outlier == 0.0
    free = np.ones(p, dtype=bool) if sign is None else sign != 0.0
    q = int(np.count_nonzero(free))
    m = int(np.count_nonzero(inlier))
    out = np.zeros(p)
    if q == 0:
        return out
    x_f = x if q == p else x[:, free]
    c = x_f.T @ np.where(inlier, y, np.copysign(k, outlier)) / n + mu * anchor[free]
    if sign is None:
        shift = lam + mu
    else:
        shift = mu
        c -= lam * sign[free]

    costs = {"cholesky": m * q * q + q ** 3 / 3.0}
    if q == p and (shift > 0.0 or design.evals[-1] <= _MAX_CONDITION * design.evals[0]):
        costs["outliers"] = 2.0 * p * p * (n - m) + p * (n - m) ** 2
    if shift > 0.0:
        costs["inliers"] = m * m * q + m ** 3 / 3.0
    route = min(costs, key=costs.get)
    if route == "outliers":
        # (A - X_O'X_O/n)^-1 = A^-1 + A^-1 X_O' (n I - X_O A^-1 X_O')^-1 X_O A^-1,  A = X'X/n + s I
        b = design.solve(c, shift)
        if m < n:
            x_o = x[~inlier]
            w = design.solve(x_o.T, shift)
            b += w @ _spd_solve(n * np.eye(n - m) - x_o @ w, x_o @ b)
    elif route == "inliers":
        # (s I + X_I'X_I/n)^-1 = (I - X_I' (n s I + X_I X_I')^-1 X_I) / s
        x_i = x_f[inlier]
        if m:
            c = c - x_i.T @ _spd_solve(n * shift * np.eye(m) + x_i @ x_i.T, x_i @ c)
        b = c / shift
    else:
        x_i = x_f[inlier]
        h = x_i.T @ x_i / n
        h[np.diag_indices(q)] += shift
        b = _spd_solve(h, c)
    out[free] = b
    return out


def _spd_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a^-1 b`` for a symmetric positive definite ``a``, by Cholesky."""
    return scipy.linalg.cho_solve(scipy.linalg.cho_factor(a, lower=True, check_finite=False), b,
                                  check_finite=False)


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
