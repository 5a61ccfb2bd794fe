"""Reproducible Monte Carlo harness for the six risk experiments.

Protocol
--------
Per experiment, the signal pair is frozen once from the ``signal`` stream of
the master seed: a sparse ``beta_star`` (10% nonzero by default) and a
misalignment direction ``delta`` uniform on the sphere of radius
``delta_norm``, giving the transfer center ``beta0 = beta_star + delta``.
Each replication draws a fresh design and a fresh unit-scale noise vector
from per-replication streams, so any subset of replications can run on any
worker without changing a single byte of output.

Draws: every run draws only the white ``Z`` of the design
``X = Z Sigma^1/2`` and solves every closed form on ``Z'Z/n``, reading
``Sigma`` through its eigen-atoms and its tridiagonal inverse.  Huber-ridge
is fitted on ``Z`` in ``theta = Sigma^1/2 beta``.  At noise scale 0 both
transfer fits are least squares on noiseless data, ``beta_star`` itself
(n > p).  Every other transfer-lasso point is settled by a KKT screen,
exact on ``Z``, and ``X`` is formed from the same ``Z`` only for a point
the screen leaves to a Newton fit.

Noise delivery: squared-loss estimators receive the winsorized noise (clamped
at the sample-size-coupled threshold, scaled exactly equivariantly along the
sweep); the Huber estimator receives the raw heavy-tailed noise.  On the
noise-variance sweep the winsorized draw is rescaled so its population
variance is exactly the target value.

Outputs: sorted risk-record CSVs (one row per estimator/sweep/replication),
a JSON summary with per-group statistics and built-in pass/fail checks, and
an echo of the fully resolved configuration.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import time
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .convex import Loss, LossKind, RegKind, Regularizer
from .errors import ConfigError
from .estimators import (
    EstimatorConfig,
    FitResult,
    Resolvent,
    _gram_solve,
    empirical_risk,  # unused here, kept as the binding heavybench's spans.py wraps by name
    fit_proximal,
)
from .spectrum import (
    CovarianceModel,
    DiscreteSpectrum,
    decompose,
    project_delta,
    q_sigma,
    sample_design,  # unused here, kept as the binding heavybench's spans.py wraps by name
    sample_signal,
    sample_sphere,
    _ar1_inverse,
    _energy,
    _white_draw,
)
from .streams import substream
from .tails import (
    NoiseFamily,
    TailLaw,
    effective_variance_exact,
    sample_noise,
    truncated_fourth_moment,
    winsorize,
)

__all__ = [
    "ExperimentConfig",
    "RiskRecord",
    "ExperimentResult",
    "default_config",
    "run_experiment",
    "summarize",
    "write_outputs",
    "CSV_HEADER",
    "EXPERIMENT_NAMES",
]

CSV_HEADER = ("experiment", "estimator", "sweep_value", "replication", "risk", "converged", "wall_ms")

_MAX_NONCONVERGED_FRACTION = 0.01
_SLOPE_BAND_SQUARED = (1.8, 2.2)
_SLOPE_BAND_FLAT = (-0.1, 0.1)
_PLATEAU_RTOL = 0.15
_FLOOR_GAP_RTOL = 0.10
_CONCENTRATION_BAND = (0.9, 1.1)  # reported diagnostic only, not a check
_MAX_MOMENT_GAP_IN_SES = 3.0


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete, serializable description of one experiment run.

    ``grid`` is the sweep, and the experiment decides what its values mean:
    noise scales (>= 0) for paradox, floor, trichotomy and universality,
    effective noise variances sigma2 (> 0) for transient, and sample sizes
    (integers >= 1) for concentration.  It is normalized to ints for
    concentration and to floats for every other experiment.  A noise scale
    of 0 is the noiseless row, least squares on noiseless data, which is
    unique only when n > p.  paradox, floor and trichotomy check their
    curves against the misalignment floor ``q_Sigma``, and so need
    ``delta_norm > 0``.
    """

    name: str
    n: int = 800
    p: int = 400
    cov: CovarianceModel = None  # type: ignore[assignment]  # filled in __post_init__
    noise: TailLaw = TailLaw(NoiseFamily.STUDENT_T, alpha=1.5)
    sparsity: float = 0.1
    delta_norm: float = 1.0
    lambda_tilde: float = 1.0
    lambda_fixed: float = 0.1
    huber_k: float = 1.5
    grid: tuple[float, ...] = ()
    replications: int = 100
    master_seed: int = 12345
    workers: int = 1
    paper_scale: bool = False

    def __post_init__(self) -> None:
        if self.name not in EXPERIMENT_NAMES:
            raise ConfigError(f"unknown experiment {self.name!r}; expected one of {EXPERIMENT_NAMES}")
        row = _EXPERIMENTS[self.name]
        if self.cov is None:
            object.__setattr__(self, "cov", CovarianceModel.ar1(self.p, 0.5))
        if self.cov.p != self.p:
            raise ConfigError(f"covariance dimension {self.cov.p} does not match p={self.p}")
        if self.n < 1 or self.p < 1:
            raise ConfigError(f"dimensions must be >= 1, got n={self.n}, p={self.p}")
        if self.replications < 1:
            raise ConfigError(f"replications must be >= 1, got {self.replications}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.master_seed < 0:
            raise ConfigError(f"master seed must be >= 0, got {self.master_seed}")
        grid = tuple(self.grid)
        if not grid or not all(map(math.isfinite, grid)) or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError(f"grid must be nonempty, finite and strictly ascending, got {grid}")
        if not row.estimators:  # concentration
            if self.noise.scale == 0.0:
                raise ConfigError("the winsorized-energy ratio is undefined for a zero-scale noise law")
            if self.replications < 3:
                raise ConfigError("the concentration checks estimate a fourth moment and need >= 3 replications")
            if grid[0] < 1 or any(v != int(v) for v in grid):
                raise ConfigError(f"a sample-size grid holds integers >= 1, got {grid}")
            grid = tuple(map(int, grid))
        else:
            if self.noise.scale != 1.0:
                raise ConfigError("sweeps own the noise scale; configure the law with scale=1")
            if row.sigma2_grid and grid[0] <= 0.0:
                raise ConfigError(f"a sigma2 grid must be > 0, got {grid}")
            if grid[0] < 0.0:
                raise ConfigError(f"a noise-scale grid must be >= 0, got {grid}")
            if grid[0] == 0.0 and self.n <= self.p:
                raise ConfigError("a noise scale of 0 is the noiseless row, least squares on noiseless data, "
                                  "which is unique only when n > p")
            grid = tuple(map(float, grid))
        object.__setattr__(self, "grid", grid)
        if "ols" in row.estimators and self.n <= self.p:
            raise ConfigError("this experiment fits unpenalized least squares and needs n > p")
        for label in ("lambda_tilde", "lambda_fixed", "huber_k"):
            if not 0.0 < getattr(self, label) < math.inf:
                raise ConfigError(f"{label} must be finite and > 0, got {getattr(self, label)}")
        if not 0.0 <= self.delta_norm < math.inf:
            raise ConfigError(f"delta_norm must be finite and >= 0, got {self.delta_norm}")
        if self.delta_norm == 0.0 and self.name in _FLOOR_CHECKED:
            raise ConfigError(f"the {self.name} checks divide by the misalignment floor q_Sigma, "
                              "which delta_norm = 0 makes 0; give delta_norm > 0")

    @property
    def gamma(self) -> float:
        return self.p / self.n

    def to_dict(self) -> dict:
        """JSON-ready fully resolved configuration.

        An experiment that draws no design echoes only the fields it reads.
        ``workers`` is left out, since the records do not depend on it.
        """
        out = dataclasses.asdict(self)
        del out["workers"]
        rho = self.cov.rho
        out["cov"] = {"kind": "ar1" if rho else "identity", "p": self.cov.p, "rho": rho or None}
        out["noise"] = {"family": self.noise.family.value, "alpha": self.noise.alpha, "scale": self.noise.scale}
        out["gamma"] = self.gamma
        if not _EXPERIMENTS[self.name].estimators:
            return {key: out[key] for key in _DESIGN_FREE_FIELDS}
        return out


@dataclass(frozen=True)
class RiskRecord:
    """One Monte Carlo measurement.

    A Newton fit also reports its step count and optimality certificate,
    the norm of its least-norm subgradient (the design fit's for a Huber fit
    on ``theta``), and so does a lasso point settled without one (see
    :func:`_rep_sweep`): zero steps and certificate 0.  A noiseless
    transfer-ridge record is exact, with certificate 0.  Every other
    closed-form fit reports as its certificate the relative residual
    of its shifted Gram system ``(X'X/n + lam I) e = r``, read from the
    whitened one it solves, is converged when :func:`_gram_solve` finds that
    within its threshold (1e-10), and reports
    whether the solve fell back: its conjugate gradients missed the
    threshold, it was solved again by Cholesky of the draw's shifted Gram
    matrix, and it kept whichever of the two solutions has the smaller
    certificate.  The certificate bounds the residual, not the error: the
    error can reach ``cond(X'X/n + lam I)`` times it (at n = 40, p = 60 and
    ``lam = 1e-6``, solves certified at 1e-10 were up to 9.7e-10 relative
    off the exact error).  None of them goes into the CSV.

    ``wall_ms`` is physical time: a Newton fit's own time plus its risk
    evaluation.  The closed-form fits of one draw are solved and evaluated in
    one block, with the points settled without a fit, and each of their
    records takes an equal share of the block's time.  The replication's
    shared draw and factorization are not in it, nor is a design drawn for a
    Newton fit.
    """

    experiment: str
    estimator: str
    sweep_value: float
    replication: int
    risk: float
    converged: bool
    wall_ms: float
    newton_steps: int | None = None
    certificate: float | None = None
    resolvent_fallback: bool = False


@dataclass(frozen=True)
class ExperimentResult:
    """Records plus the summary with built-in pass/fail checks."""

    config: ExperimentConfig
    records: tuple[RiskRecord, ...]
    summary: dict

    @property
    def passed(self) -> bool:
        return bool(self.summary["passed"])


def _desk_scale_grid() -> tuple[float, ...]:
    return (0.0,) + tuple(float(s) for s in np.geomspace(1.0, 1.0e3, 10))


def _trichotomy_scale_grid() -> tuple[float, ...]:
    # The robust-loss plateau is approached at rate scale**-(2-alpha), so the
    # flatness read-off needs a top decade two decades beyond the divergence
    # sweep; 11 points at half-decade spacing reach 1e5.
    return (0.0,) + tuple(float(s) for s in np.geomspace(1.0, 1.0e5, 11))


def default_config(name: str, master_seed: int = 12345, paper_scale: bool = False, workers: int = 1) -> ExperimentConfig:
    """Desk-scale defaults per experiment; ``paper_scale`` switches to the
    long-run protocol (n=2000, p=1000, 500 replications)."""
    n, p, reps = (2000, 1000, 500) if paper_scale else (800, 400, 100)
    common = dict(n=n, p=p, cov=CovarianceModel.ar1(p, 0.5), master_seed=master_seed,
                  workers=workers, paper_scale=paper_scale)
    if name in ("paradox", "floor"):
        return ExperimentConfig(name=name, grid=_desk_scale_grid(), replications=reps, **common)
    if name == "trichotomy":
        return ExperimentConfig(name=name, grid=_trichotomy_scale_grid(), replications=reps, **common)
    if name == "transient":
        points = 25 if paper_scale else 10
        reps_t = 500 if paper_scale else 200
        grid = tuple(float(v) for v in np.geomspace(1.0, 1.0e4, points))
        return ExperimentConfig(name=name, grid=grid, replications=reps_t, **common)
    if name == "universality":
        grid = tuple(float(v) for v in np.geomspace(1.0, 1.0e3, 5))
        return ExperimentConfig(name=name, grid=grid, replications=reps, **common)
    if name == "concentration":
        return ExperimentConfig(
            name=name,
            n=800,
            p=400,
            cov=CovarianceModel.ar1(400, 0.5),
            noise=TailLaw(NoiseFamily.SYMMETRIC_PARETO, alpha=1.5),
            grid=(10 ** 3, 10 ** 4, 10 ** 5),
            replications=200,
            master_seed=master_seed,
            workers=workers,
            paper_scale=paper_scale,
        )
    raise ConfigError(f"unknown experiment {name!r}; expected one of {EXPERIMENT_NAMES}")


# --------------------------------------------------------------------------
# Frozen per-experiment state shared across replications and workers.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _Plan:
    config: ExperimentConfig
    spec: DiscreteSpectrum  # carries the misalignment projection
    beta_star: np.ndarray
    beta0: np.ndarray
    tau_unit: float
    sigma2_unit: float
    # Sigma^-1 as (diagonal, off-diagonal); per closed-form estimator the seed its error systems read on the
    # white draw besides Z'w/n (see :func:`_white_seeds`); and per Newton-fitted estimator the root product
    # Sigma^1/2 (beta_star - c) for its centre c: the lasso screen's, and the Huber fit's theta_star.
    precision: tuple[np.ndarray, np.ndarray]
    white_seeds: dict[str, np.ndarray]
    root_offsets: dict[str, np.ndarray]


def _frozen_signal(spec: DiscreteSpectrum, master_seed: int, sparsity: float,
                   delta_norm: float) -> tuple[DiscreteSpectrum, np.ndarray, np.ndarray]:
    """The signal pair frozen from the ``signal`` stream of ``master_seed``:
    ``spec`` with the misalignment projected, ``beta_star`` and
    ``beta0 = beta_star + delta``."""
    rng = substream(master_seed, "signal", 0)
    beta_star = sample_signal(spec.p, sparsity, rng)
    beta0 = beta_star + sample_sphere(spec.p, delta_norm, rng)
    return project_delta(spec, beta_star, beta0), beta_star, beta0


def _root_product(spec: DiscreteSpectrum, v: np.ndarray, inverse: bool = False) -> np.ndarray:
    """``Sigma^1/2 v``, or ``Sigma^-1/2 v``, from the eigen-atoms, for a
    vector or per column of a ``p x k`` block: two products with the basis,
    and no dense root."""
    roots = np.sqrt(spec.eigenvalues)
    coeffs = (spec.basis.T @ v).T
    return spec.basis @ (coeffs / roots if inverse else coeffs * roots).T


def _white_seeds(spec: DiscreteSpectrum, beta_star: np.ndarray, beta0: np.ndarray,
                 estimators: tuple[str, ...]) -> dict[str, np.ndarray]:
    """Per closed-form estimator, the seed of its error systems on the white
    draw besides ``Z'w/n`` (see :func:`_error_block`): the white offset
    ``Sigma^-1/2 (beta_star - c)``, one per centre ``c`` of
    :func:`_penalty_and_centre` (``beta0`` for transfer ridge, the origin for
    least squares and fixed ridge)."""
    offsets: dict[bool, np.ndarray] = {}  # by whether the centre is beta0
    seeds = {}
    for estimator in estimators:
        if estimator in _PROXIMAL_FITS:
            continue
        transfer = estimator == "transfer_ridge"
        if transfer not in offsets:
            offsets[transfer] = _root_product(spec, beta_star - beta0 if transfer else beta_star, inverse=True)
        seeds[estimator] = offsets[transfer]
    return seeds


def _build_plan(config: ExperimentConfig) -> _Plan:
    spec, beta_star, beta0 = _frozen_signal(decompose(config.cov), config.master_seed, config.sparsity,
                                            config.delta_norm)
    estimators = _EXPERIMENTS[config.name].estimators
    root_offsets = {e: _root_product(spec, beta_star - beta0 if e == "transfer_lasso" else beta_star)
                    for e in estimators if e in _PROXIMAL_FITS}
    tau_unit = float(config.n) ** (1.0 / config.noise.alpha)
    sigma2_unit = effective_variance_exact(config.noise, tau_unit)
    return _Plan(config=config, spec=spec, beta_star=beta_star, beta0=beta0, tau_unit=tau_unit,
                 sigma2_unit=sigma2_unit, precision=_ar1_inverse(config.p, config.cov.rho),
                 white_seeds=_white_seeds(spec, beta_star, beta0, estimators), root_offsets=root_offsets)


@dataclass(frozen=True)
class _RepDraw:
    """One replication's draw and unit noise, raw and winsorized.

    ``design`` is the :class:`Resolvent` of the white matrix ``Z`` of
    ``X = Z Sigma^1/2``, with precision ``Sigma^-1``, from the
    replication's design stream; a lasso Newton fit reads ``X`` formed from
    it by :func:`_newton_draw` (see :func:`_rep_sweep`).
    """

    design: Resolvent
    w_unit: np.ndarray
    w_wins_unit: np.ndarray

    @property
    def x(self) -> np.ndarray:
        return self.design.x

    @cached_property
    def v(self) -> np.ndarray:
        """``Z'w/n`` for the unit winsorized noise ``w``: the first seed of the draw's error block."""
        return self.x.T @ self.w_wins_unit / self.x.shape[0]


def _draw_replication(plan: _Plan, rep: int, kind: str) -> _RepDraw:
    """The replication's white draw of entry law ``kind`` and its unit noise."""
    cfg = plan.config
    rng = substream(cfg.master_seed, "design", rep)
    design = Resolvent.of(_white_draw(cfg.n, cfg.p, rng, kind), plan.precision)
    w_unit = sample_noise(cfg.noise, cfg.n, substream(cfg.master_seed, "noise", rep))
    return _RepDraw(design=design, w_unit=w_unit, w_wins_unit=winsorize(w_unit, plan.tau_unit))


def _penalty_and_centre(plan: _Plan, estimator: str, sigma2: float) -> tuple[float, np.ndarray]:
    """Each estimator's penalty level and centre at effective noise variance
    ``sigma2``: least squares is unpenalized, fixed ridge and Huber-ridge take
    ``lambda_fixed`` at the origin, and the transfer fits take the adapted
    penalty ``lambda_tilde * sigma2`` at ``beta0``, 0 on the noiseless row,
    which :func:`_rep_sweep` settles without a fit."""
    cfg = plan.config
    if estimator in _TRANSFER_FITS:
        return cfg.lambda_tilde * sigma2, plan.beta0
    if estimator in ("fixed_ridge", "huber"):
        return cfg.lambda_fixed, np.zeros(cfg.p)
    if estimator == "ols":
        return 0.0, np.zeros(cfg.p)
    raise ConfigError(f"unknown estimator {estimator!r}")


def _error_block(plan: _Plan, draw: _RepDraw,
                 points: list[tuple[str, float, float]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The error systems of closed-form squared-loss fits on one draw.

    A squared-loss fit with penalty ``lam`` and centre ``c`` (see
    :func:`_penalty_and_centre`) at noise amplitude ``a`` errs by ``e``, and
    ``f = Sigma^1/2 e`` solves the whitened system
    ``(Z'Z/n + lam Sigma^-1) f = a v - lam Sigma^-1/2 (beta_star - c)`` for
    ``v = Z'w/n`` and the draw's unit winsorized noise ``w`` (see
    :class:`Resolvent`).  ``points`` lists ``(estimator, a, sigma2)``,
    ``sigma2`` being the effective noise variance at amplitude ``a``.  Every
    right-hand side combines a few seeds: ``v`` and each estimator's white
    offset (:func:`_white_seeds`).  Returns the ``p x m`` seeds, the
    ``m x k`` coefficients (``a`` on ``v`` and ``-lam`` on the point's
    offset) and the ``k`` shifts ``lam``.
    """
    seeds, rows = [draw.v], {}
    coefficients = np.zeros((1 + len(points), len(points)))
    shifts = []
    for k, (estimator, amplitude, sigma2) in enumerate(points):
        lam, centre = _penalty_and_centre(plan, estimator, sigma2)
        if estimator not in rows:
            rows[estimator] = len(seeds)
            seeds.append(plan.white_seeds[estimator])
        coefficients[0, k], coefficients[rows[estimator], k] = amplitude, -lam
        shifts.append(lam)
    return np.stack(seeds, axis=1), coefficients[:len(seeds)], np.array(shifts)


def _solve_block(plan: _Plan, draw: _RepDraw,
                 block: list[tuple[str, float, float, float]]) -> tuple[np.ndarray, ...]:
    """The risks, errors, certificates, converged and fell-back masks of the
    closed-form fits ``block``, ``(estimator, g, a, sigma2)`` each, on one
    draw: one :func:`_error_block` solved by :func:`_gram_solve`, its
    noise-adapted ridge columns by conjugate gradients and the rest by
    Cholesky.  The risk ``e' Sigma e / p`` is ``f'f / p``."""
    seeds, coefficients, shifts = _error_block(plan, draw, [(e, a, sigma2) for e, _, a, sigma2 in block])
    adapted = np.array([e in _ADAPTED_FITS for e, _, _, _ in block], dtype=bool)
    errors, certificates, converged, fell_back = _gram_solve(draw.design, seeds, coefficients, shifts, adapted)
    return np.einsum("ij,ij->j", errors, errors) / plan.config.p, errors, certificates, converged, fell_back


_PROXIMAL_FITS = ("huber", "transfer_lasso")
_TRANSFER_FITS = ("transfer_ridge", "transfer_lasso")  # the noise-adapted fits, centred at beta0
# The closed-form fits whose penalty grows with the noise, solved by
# multi-shift conjugate gradients.  Least squares and fixed ridge, whose
# penalties do not grow with the noise and would spend the conjugate-gradient
# budget, are solved by Cholesky.
_ADAPTED_FITS = ("transfer_ridge",)
# The lasso screen on a white draw (:func:`_centre_gradients`) keeps this
# much, relative to a norm-wise bound on the centre gradient, below the
# penalty, many times the rounding of its products: a point closer to the
# boundary goes on to its Newton fit.
_SCREEN_ROUNDING = 1.0e-12


def _centre_gradients(plan: _Plan, draw: _RepDraw, amplitudes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minus the gradient of the transfer lasso's smooth part at its centre
    ``beta0``, per noise amplitude ``a``, read from the white draw, and the
    rounding the screen allows it.

    With ``delta = beta_star - beta0`` and ``X = Z Sigma^1/2`` the gradient
    is ``-(X'X/n delta + a X'w/n) = -Sigma^1/2 (Z'Z/n Sigma^1/2 delta + a v)``
    for ``v = Z'w/n``: two root products per draw (:func:`_root_product`),
    of ``Z'Z/n Sigma^1/2 delta`` and of ``v``, and O(p) per amplitude.  The
    allowance is ``_SCREEN_ROUNDING`` times
    ``s_max tr(Z'Z/n) ||delta|| + a sqrt(s_max) ||v||``, which bounds the
    norms of the two terms for the largest eigenvalue ``s_max`` of
    ``Sigma``.  The centre is optimal when no entry of the gradient exceeds
    the penalty (see :func:`fit_proximal`).
    """
    gram, v = draw.design.gram, draw.v
    terms = _root_product(plan.spec, np.stack([gram @ plan.root_offsets["transfer_lasso"], v], axis=1))
    s_max = float(plan.spec.eigenvalues[-1])
    scale = s_max * float(np.trace(gram)) * float(np.linalg.norm(plan.beta_star - plan.beta0))
    return (terms[:, :1] + terms[:, 1:] * amplitudes,
            _SCREEN_ROUNDING * (scale + amplitudes * math.sqrt(s_max) * float(np.linalg.norm(v))))


def _newton_draw(plan: _Plan, draw: _RepDraw) -> _RepDraw:
    """The draw a lasso Newton fit reads: the design ``X = Z Sigma^1/2`` of
    the draw's own ``Z``, bit for bit ``sample_design`` on its stream, with
    the same noise."""
    return dataclasses.replace(draw, design=Resolvent.of(draw.x @ plan.spec.sqrt_matrix()))


def _proximal_fit(plan: _Plan, draw: _RepDraw, estimator: str, amplitude: float, sigma2: float,
                  warm: np.ndarray | None, signal: np.ndarray) -> FitResult:
    """Newton fit of one proximal estimator at noise amplitude ``amplitude``,
    at the penalty and centre :func:`_penalty_and_centre` gives it at ``sigma2``.

    ``signal`` is the draw's ``X beta_star``, formed once per draw, or for
    Huber-ridge, fitted on ``Z`` in ``theta = Sigma^1/2 beta``, ``Z theta_star``.
    Huber-ridge sees the raw heavy-tailed noise; transfer lasso sees the
    winsorized noise.
    """
    lam, centre = _penalty_and_centre(plan, estimator, sigma2)
    if estimator == "huber":
        loss, reg, noise = Loss(LossKind.HUBER, plan.config.huber_k), Regularizer(RegKind.RIDGE), draw.w_unit
    else:  # transfer_lasso
        loss, reg, noise = Loss(LossKind.SQUARED), Regularizer(RegKind.LASSO), draw.w_wins_unit
    y = signal + amplitude * noise
    return fit_proximal(EstimatorConfig(loss, reg, lam, center=centre), draw.design, y, x0=warm)


# --------------------------------------------------------------------------
# Per-replication record generators: ``(plan, rep) -> records``.
# --------------------------------------------------------------------------


def _rep_sweep(plan: _Plan, rep: int) -> list[RiskRecord]:
    """One replication of the sweep its registry row describes.

    A grid value ``g`` is a noise scale, with amplitude ``a = g`` and
    ``sigma2 = g**2 sigma2_unit``, or on a σ² grid ``sigma2 = g`` with
    ``a = sqrt(g / sigma2_unit)``.  Draws the design and unit noise once per
    design law of the row's ``designs``, whose name suffixes the estimator
    label when there are several; the draw is the white ``Z``.
    The closed-form fits at every point form one block (:func:`_solve_block`)
    on the draw's Gram matrix, formed before the clock starts.  Every record
    carries its certificate and fallback flag.

    At ``sigma2 = 0`` both transfer fits are least squares on noiseless data,
    their penalty ``lambda_tilde sigma2`` being 0, and so ``beta_star``
    itself at ``n > p``: their records read risk 0 and certificate 0, the
    lasso's 0 steps, with no column, factor or fit.  Huber-ridge is
    Newton-fitted on ``Z`` in ``theta = Sigma^1/2 beta``, with risk
    ``||theta_hat - theta_star||^2 / p``.  Every other transfer-lasso point
    is settled by its screen, when the gradient at the centre ``beta0``
    (:func:`_centre_gradients`) clears the penalty by more than rounding
    (the fit is ``beta0``, in zero steps with certificate 0), or else by
    its Newton fit on ``X``, formed by :func:`_newton_draw` at most once per
    draw.

    Each proximal fit warm-starts from its own fit at the previous point.
    """
    cfg = plan.config
    row = _EXPERIMENTS[cfg.name]
    points = [(g, math.sqrt(g / plan.sigma2_unit), g) if row.sigma2_grid else (g, g, g ** 2 * plan.sigma2_unit)
              for g in cfg.grid]
    # (estimator, g) -> the risk, fit and certificate of a point settled without a solve: here the noiseless rows
    noiseless = {(e, g): (0.0, plan.beta_star, 0.0) for g, _, sigma2 in points if sigma2 == 0.0
                 for e in row.estimators if e in _TRANSFER_FITS}
    closed = [(e, *point) for point in points for e in row.estimators
              if e not in _PROXIMAL_FITS and (e, point[0]) not in noiseless]
    fits = [e for e in row.estimators if e in _PROXIMAL_FITS]
    if "transfer_lasso" in fits:  # each point's amplitude and lasso penalty
        amplitudes = np.array([a for _, a, _ in points])
        lams = np.array([_penalty_and_centre(plan, "transfer_lasso", sigma2)[0] for _, _, sigma2 in points])
    records = []
    for kind in row.designs:
        draw = _draw_replication(plan, rep, kind)
        draw.design.gram  # formed before the clock starts
        suffix = f"_{kind}" if len(row.designs) > 1 else ""
        t0 = time.perf_counter()
        settled = noiseless
        if "transfer_lasso" in fits:  # and the lasso points the screen settles
            gradients, rounding = _centre_gradients(plan, draw, amplitudes)
            screened = np.max(np.abs(gradients), axis=0) + rounding <= lams
            centre_risk = float(_energy(plan.spec, plan.beta0 - plan.beta_star))
            settled = {("transfer_lasso", g): (centre_risk, plan.beta0, 0.0)
                       for (g, _, _), s in zip(points, screened) if s} | noiseless
        risks, _, certificates, converged, fell_back = _solve_block(plan, draw, closed)
        share_ms = (time.perf_counter() - t0) * 1.0e3 / (len(closed) + len(settled))
        for k, (estimator, g, _, _) in enumerate(closed):
            records.append(RiskRecord(cfg.name, estimator + suffix, g, rep, float(risks[k]), bool(converged[k]),
                                      share_ms, certificate=float(certificates[k]),
                                      resolvent_fallback=bool(fell_back[k])))
        for (estimator, g), (risk, _, certificate) in settled.items():
            records.append(RiskRecord(cfg.name, estimator + suffix, g, rep, risk, True, share_ms,
                                      newton_steps=0 if estimator in _PROXIMAL_FITS else None,
                                      certificate=certificate))
        warm: dict[str, np.ndarray] = {}
        newton = truth = signal = None  # the Newton fits' draw, coefficients and signal, formed at the first
        for g, a, sigma2 in points:
            for estimator in fits:
                if (estimator, g) in settled:
                    warm[estimator] = settled[estimator, g][1]
                    continue
                if newton is None:  # Huber-ridge on Z in theta = Sigma^1/2 beta, the lasso on X
                    newton, truth = ((draw, plan.root_offsets["huber"]) if estimator == "huber"
                                     else (_newton_draw(plan, draw), plan.beta_star))
                    signal = newton.x @ truth
                t0 = time.perf_counter()
                fit = _proximal_fit(plan, newton, estimator, a, sigma2, warm.get(estimator), signal)
                warm[estimator] = fit.beta_hat
                error = fit.beta_hat - truth
                risk = float(error @ error) / cfg.p if newton is draw else float(_energy(plan.spec, error))
                records.append(RiskRecord(cfg.name, estimator + suffix, g, rep, risk, fit.converged,
                                          (time.perf_counter() - t0) * 1.0e3, newton_steps=fit.iterations,
                                          certificate=fit.gradient_map_norm))
    return records


def _rep_concentration(config: ExperimentConfig, rep: int) -> list[RiskRecord]:
    rng = substream(config.master_seed, "noise", rep)
    records = []
    for n in config.grid:  # ascending; one stream consumed sequentially
        t0 = time.perf_counter()
        tau = float(n) ** (1.0 / config.noise.alpha)
        w = sample_noise(config.noise, n, rng)
        # tau is in unit-law units: the scaled law is clamped at scale * tau.
        clamped = winsorize(w, config.noise.scale * tau)
        ratio = float(np.sum(clamped ** 2)) / (n * effective_variance_exact(config.noise, tau))
        records.append(RiskRecord(
            experiment=config.name,
            estimator="winsorized_energy_ratio",
            sweep_value=float(n),
            replication=rep,
            risk=ratio,
            converged=True,
            wall_ms=(time.perf_counter() - t0) * 1.0e3,
        ))
    return records


# --------------------------------------------------------------------------
# Execution (module-level so worker processes can import it; the pool
# initializer installs the replicate function and its plan per worker).
# --------------------------------------------------------------------------

_WORKER_TASK: tuple[Callable, object] | None = None


def _install_task(replicate: Callable, plan) -> None:
    global _WORKER_TASK
    _WORKER_TASK = (replicate, plan)


def _worker_entry(rep: int) -> list[RiskRecord]:
    replicate, plan = _WORKER_TASK
    return replicate(plan, rep)


def _collect_records(config: ExperimentConfig, replicate: Callable, plan) -> tuple[RiskRecord, ...]:
    reps = range(config.replications)
    if config.workers == 1:
        chunks = [replicate(plan, rep) for rep in reps]
    else:
        with ProcessPoolExecutor(max_workers=config.workers, initializer=_install_task,
                                 initargs=(replicate, plan)) as pool:
            chunks = list(pool.map(_worker_entry, reps, chunksize=4))
    records = [record for chunk in chunks for record in chunk]
    records.sort(key=lambda r: (r.estimator, r.sweep_value, r.replication))
    return tuple(records)


def summarize(records: tuple[RiskRecord, ...]) -> dict:
    """Deterministic per-(estimator, sweep) statistics; for a Newton-fitted
    estimator also the largest and 95th-percentile step count, for any
    record that carries one the worst certificate, and for a closed-form
    estimator the number of solves that fell back."""
    groups: dict[tuple[str, float], list[RiskRecord]] = {}
    for record in records:
        groups.setdefault((record.estimator, record.sweep_value), []).append(record)
    out: dict[str, dict] = {}
    for (estimator, sweep) in sorted(groups):
        block = out.setdefault(estimator, {
            "sweep_values": [], "mean": [], "median": [], "se": [],
            "q05": [], "q95": [], "nonconverged": [],
        })
        risks = np.sort(np.array([r.risk for r in groups[(estimator, sweep)]]))
        block["sweep_values"].append(sweep)
        block["mean"].append(float(np.mean(risks)))
        block["median"].append(float(np.median(risks)))
        block["se"].append(float(np.std(risks, ddof=1) / math.sqrt(len(risks))) if len(risks) > 1 else 0.0)
        block["q05"].append(float(np.quantile(risks, 0.05)))
        block["q95"].append(float(np.quantile(risks, 0.95)))
        block["nonconverged"].append(sum(0 if r.converged else 1 for r in groups[(estimator, sweep)]))
        steps = [r.newton_steps for r in groups[(estimator, sweep)] if r.newton_steps is not None]
        if steps:
            block.setdefault("newton_steps_max", []).append(max(steps))
            block.setdefault("newton_steps_p95", []).append(float(np.quantile(steps, 0.95)))
        certificates = [r.certificate for r in groups[(estimator, sweep)] if r.certificate is not None]
        if certificates:
            block.setdefault("certificate_max", []).append(max(certificates))
        if certificates and not steps:  # closed form
            block.setdefault("resolvent_fallbacks", []).append(
                sum(r.resolvent_fallback for r in groups[(estimator, sweep)]))
    return out


# --------------------------------------------------------------------------
# Acceptance checks: ``(plan, records, stats) -> (checks, extra summary fields)``.
# --------------------------------------------------------------------------


def _top_decade(values: list[float]) -> list[float]:
    top = max(values)
    return [v for v in values if v > 0.0 and v >= top / 10.000001]


def _loglog_slope(sweeps: list[float], means: list[float]) -> float:
    pts = [(s, m) for s, m in zip(sweeps, means) if s in set(_top_decade(sweeps))]
    xs = np.log10([s for s, _ in pts])
    ys = np.log10([max(m, 1.0e-300) for _, m in pts])
    return float(np.polyfit(xs, ys, 1)[0])


def _check(value: float, lo: float | None, hi: float | None) -> dict:
    passed = True
    if lo is not None:
        passed = passed and value >= lo
    if hi is not None:
        passed = passed and value <= hi
    return {"value": value, "low": lo, "high": hi, "passed": bool(passed)}


def _nonconvergence_check(records: tuple[RiskRecord, ...]) -> dict:
    frac = sum(0 if r.converged else 1 for r in records) / len(records)
    return _check(frac, None, _MAX_NONCONVERGED_FRACTION)


def _squared_loss_checks(stats: dict, q: float) -> dict:
    """OLS and fixed-penalty ridge diverge with slope two; noise-adapted
    transfer ridge ends on a plateau at the misalignment energy ``q``."""
    return {
        "ols_slope": _check(_loglog_slope(stats["ols"]["sweep_values"], stats["ols"]["mean"]),
                            *_SLOPE_BAND_SQUARED),
        "fixed_ridge_slope": _check(_loglog_slope(stats["fixed_ridge"]["sweep_values"],
                                                  stats["fixed_ridge"]["mean"]), *_SLOPE_BAND_SQUARED),
        "transfer_plateau_ratio": _check(stats["transfer_ridge"]["mean"][-1] / q,
                                         1.0 - _PLATEAU_RTOL, 1.0 + _PLATEAU_RTOL),
    }


def _paradox_checks(plan: _Plan, records: tuple[RiskRecord, ...], stats: dict) -> tuple[dict, dict]:
    """The squared-loss checks, plus zero OLS risk on the noiseless row."""
    checks = _squared_loss_checks(stats, q_sigma(plan.spec))
    checks["noiseless_ols_risk"] = _check(stats["ols"]["mean"][0], None, 1.0e-12)
    return checks, {}


def _floor_checks(plan: _Plan, records: tuple[RiskRecord, ...], stats: dict) -> tuple[dict, dict]:
    """Transfer ridge and transfer lasso land on the same floor at the
    largest scale."""
    q = q_sigma(plan.spec)
    ridge_terminal = stats["transfer_ridge"]["mean"][-1]
    lasso_terminal = stats["transfer_lasso"]["mean"][-1]
    checks = {
        "terminal_gap_over_q": _check(abs(ridge_terminal - lasso_terminal) / q, None, _FLOOR_GAP_RTOL),
        "ridge_terminal_ratio": _check(ridge_terminal / q, 1.0 - _PLATEAU_RTOL, 1.0 + _PLATEAU_RTOL),
        "lasso_terminal_ratio": _check(lasso_terminal / q, 1.0 - _PLATEAU_RTOL, 1.0 + _PLATEAU_RTOL),
        "noiseless_within_floor": _check(max(stats["transfer_ridge"]["mean"][0],
                                             stats["transfer_lasso"]["mean"][0]), None, q),
    }
    return checks, {}


def _transient_checks(plan: _Plan, records: tuple[RiskRecord, ...], stats: dict) -> tuple[dict, dict]:
    """Monte Carlo risk of noise-adapted transfer ridge across the
    effective-variance grid, against the deterministic closed form."""
    # Looked up on heavyreg.theory at call time, so a wrapper installed on
    # that module's binding sees every call.
    from .theory import TheoryInputs, ridge_risk_closed_form

    cfg = plan.config
    theory = [
        ridge_risk_closed_form(TheoryInputs(plan.spec, cfg.gamma, sigma2, cfg.lambda_tilde)).risk
        for sigma2 in stats["transfer_ridge"]["sweep_values"]
    ]
    rel_errors = [abs(mc - th) / th for mc, th in zip(stats["transfer_ridge"]["mean"], theory)]
    checks = {"median_relative_error": _check(float(np.median(rel_errors)), None, 0.03)}
    return checks, {"theory_risk": theory, "relative_errors": rel_errors}


def _trichotomy_checks(plan: _Plan, records: tuple[RiskRecord, ...], stats: dict) -> tuple[dict, dict]:
    """The squared-loss checks, plus a flat, finite Huber curve (and, at
    paper scale, its plateau level)."""
    q = q_sigma(plan.spec)
    huber_means = stats["huber"]["mean"]
    checks = _squared_loss_checks(stats, q)
    checks["huber_slope"] = _check(_loglog_slope(stats["huber"]["sweep_values"], huber_means), *_SLOPE_BAND_FLAT)
    checks["huber_risk_finite"] = _check(1.0 if all(map(math.isfinite, huber_means)) else 0.0, 1.0, None)
    if plan.config.paper_scale:
        checks["huber_plateau"] = _check(huber_means[-1], 0.14, 0.24)
        checks["huber_over_floor"] = _check(huber_means[-1] / q, 149.0, 209.0)
    return checks, {"huber_plateau": huber_means[-1], "huber_plateau_over_q": huber_means[-1] / q}


def _universality_checks(plan: _Plan, records: tuple[RiskRecord, ...], stats: dict) -> tuple[dict, dict]:
    """Paired Gaussian/Rademacher designs share noise streams; their
    transfer-ridge risks must agree within two pooled standard errors."""
    g = stats["transfer_ridge_gaussian"]
    r = stats["transfer_ridge_rademacher"]
    z_scores = []
    for mg, mr, sg, sr in zip(g["mean"], r["mean"], g["se"], r["se"]):
        pooled = math.sqrt(sg ** 2 + sr ** 2)
        z_scores.append(abs(mg - mr) / pooled if pooled > 0.0 else 0.0)
    return ({"max_design_gap_in_ses": _check(float(np.max(z_scores)), None, 2.0)},
            {"design_gap_in_ses": z_scores})


def _concentration_checks(config: ExperimentConfig, records: tuple[RiskRecord, ...],
                          stats: dict) -> tuple[dict, dict]:
    """Distribution of the normalized winsorized noise energy across sample
    sizes.

    With ``tau_n = n**(1/alpha)``, the ratio ``R_n = n**-1 * ||winsorize(w,
    tau_n)||**2 / sigma2_exact(tau_n)`` is unbiased, and its variance is
    ``Var R_n = (m4 / sigma2**2 - 1) / n`` with ``m4`` the winsorized fourth
    moment.  At the sample-size-coupled threshold this does not vanish: about
    one sample per draw exceeds ``tau_n``, each exceedance carries
    ``(2 - alpha)/2`` of the energy, and ``Var R_n`` tends to
    ``(2 - alpha)**2 / (c * (4 - alpha))`` (0.1 for the unit Pareto law at
    alpha 1.5).  So no fixed band such as [0.9, 1.1] captures most draws at
    any ``n``; the in-band fractions are reported as a diagnostic only.

    The checks, at every ``n`` of the grid: the mean ratio lies within
    three standard errors of 1, and the sample variance lies within three of
    its own standard errors (delta method, from the sample fourth central
    moment) of the predicted ``Var R_n``.  The prediction takes ``sigma2``
    from ``effective_variance_exact`` and ``m4`` from the leading-order
    ``truncated_fourth_moment``, whose relative error at the default Pareto
    configuration is below 1e-5.
    """
    law = config.noise
    lo, hi = _CONCENTRATION_BAND
    rows = []
    fractions = []
    for n in config.grid:
        ratios = np.array([r.risk for r in records if r.sweep_value == float(n)])
        m = len(ratios)
        central = ratios - np.mean(ratios)
        tau = float(n) ** (1.0 / law.alpha)
        sigma2 = effective_variance_exact(law, tau)
        row = {
            "mean": float(np.mean(ratios)),
            "se": float(np.std(ratios, ddof=1)) / math.sqrt(m),
            "variance": float(np.var(ratios, ddof=1)),
            "variance_se": math.sqrt((float(np.mean(central ** 4)) - float(np.mean(central ** 2)) ** 2) / m),
            "predicted_variance": (truncated_fourth_moment(law, tau) / sigma2 ** 2 - 1.0) / n,
        }
        row["mean_gap_in_ses"] = (row["mean"] - 1.0) / row["se"]
        row["variance_gap_in_ses"] = (row["variance"] - row["predicted_variance"]) / row["variance_se"]
        rows.append(row)
        fractions.append(float(np.mean((ratios >= lo) & (ratios <= hi))))
    moments = {key: [row[key] for row in rows] for key in rows[0]}
    checks = {
        "max_mean_gap_in_ses": _check(max(map(abs, moments["mean_gap_in_ses"])), None, _MAX_MOMENT_GAP_IN_SES),
        "max_variance_gap_in_ses": _check(max(map(abs, moments["variance_gap_in_ses"])),
                                          None, _MAX_MOMENT_GAP_IN_SES),
    }
    return checks, {
        "energy_ratio": {"n": list(config.grid), **moments},
        "in_band_fractions": dict(zip(map(str, config.grid), fractions)),
    }


# --------------------------------------------------------------------------
# The registry.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _Experiment:
    """One experiment: its checks and the sweep :func:`_rep_sweep` runs.

    ``estimators`` are fitted at every grid point (``ols`` needs n > p);
    none marks a study that draws no design and fits nothing, whose
    functions get the config in place of a plan and whose summary carries
    neither the plan's figures nor a convergence check.  ``designs`` are the
    design laws each replication draws, and ``sigma2_grid`` says the grid
    holds σ² rather than noise scales.
    """

    checks: Callable  # (plan, records, stats) -> (checks, extra summary fields)
    estimators: tuple[str, ...] = ()
    designs: tuple[str, ...] = ("gaussian",)
    sigma2_grid: bool = False


# The configuration fields an experiment that draws no design reads.
_DESIGN_FREE_FIELDS = ("name", "noise", "grid", "replications", "master_seed", "paper_scale")

_SQUARED_LOSS_FITS = ("ols", "fixed_ridge", "transfer_ridge")
# The experiments whose checks divide by the misalignment floor q_Sigma, and so need delta_norm > 0.
_FLOOR_CHECKED = ("paradox", "floor", "trichotomy")

_EXPERIMENTS = {
    "paradox": _Experiment(_paradox_checks, _SQUARED_LOSS_FITS),
    "floor": _Experiment(_floor_checks, ("transfer_ridge", "transfer_lasso")),
    "transient": _Experiment(_transient_checks, ("transfer_ridge",), sigma2_grid=True),
    "trichotomy": _Experiment(_trichotomy_checks, _SQUARED_LOSS_FITS + ("huber",)),
    "universality": _Experiment(_universality_checks, ("transfer_ridge",), designs=("gaussian", "rademacher")),
    "concentration": _Experiment(_concentration_checks),
}
EXPERIMENT_NAMES = tuple(_EXPERIMENTS)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run one named experiment from its registry entry.

    An entry with estimators builds the frozen plan (signal, misalignment,
    winsorization threshold) and runs :func:`_rep_sweep` per replication;
    the one without (concentration) runs :func:`_rep_concentration` on the
    config.  The rest is shared: collect the records serially or in a
    process pool (the same bytes for any worker count), summarize them, add
    the non-convergence check to the entry's checks and assemble the
    summary.
    """
    experiment = _EXPERIMENTS[config.name]
    plan, replicate = (_build_plan(config), _rep_sweep) if experiment.estimators else (config, _rep_concentration)
    records = _collect_records(config, replicate, plan)
    stats = summarize(records)
    checks, extra = experiment.checks(plan, records, stats)
    summary = {"experiment": config.name, "replications": config.replications,
               "master_seed": config.master_seed, "estimators": stats}
    if experiment.estimators:
        checks["nonconverged_fraction"] = _nonconvergence_check(records)
        summary.update(n=config.n, p=config.p, gamma=config.gamma, q_sigma=q_sigma(plan.spec),
                       sigma2_unit=plan.sigma2_unit, tau_unit=plan.tau_unit)
    summary.update(extra, checks=checks, passed=all(c["passed"] for c in checks.values()))
    return ExperimentResult(config=config, records=records, summary=summary)


# --------------------------------------------------------------------------
# Serialization.
# --------------------------------------------------------------------------


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_records_csv(records: tuple[RiskRecord, ...], path) -> None:
    """Sorted records with shortest round-trip decimal formatting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in records:
            writer.writerow([
                r.experiment,
                r.estimator,
                _format_cell(r.sweep_value),
                str(r.replication),
                _format_cell(r.risk),
                _format_cell(r.converged),
                _format_cell(round(r.wall_ms, 3)),
            ])


def write_outputs(result: ExperimentResult, out_dir) -> dict:
    """Write the CSV, the JSON summary, and the resolved-config echo.

    Returns the mapping of artifact names to paths.  Their stem is
    ``<name>_seed<master_seed>``, so that reruns with the same configuration
    land on the same filenames.
    """
    import os

    os.makedirs(out_dir, exist_ok=True)
    base = f"{result.config.name}_seed{result.config.master_seed}"
    paths = {
        "csv": os.path.join(out_dir, base + ".csv"),
        "summary": os.path.join(out_dir, base + ".summary.json"),
        "config": os.path.join(out_dir, base + ".config.json"),
    }
    write_records_csv(result.records, paths["csv"])
    with open(paths["summary"], "w") as fh:
        json.dump(result.summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(paths["config"], "w") as fh:
        json.dump(result.config.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths
