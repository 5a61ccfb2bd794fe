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
from functools import cached_property, partial

import numpy as np

from .convex import Loss, LossKind, RegKind, Regularizer
from .errors import ConfigError
from .estimators import (
    _CERTIFICATE,
    EstimatorConfig,
    FitResult,
    Resolvent,
    _shifted_solve,
    empirical_risk,
    fit_proximal,
)
from .spectrum import (
    CovarianceModel,
    DiscreteSpectrum,
    decompose,
    project_delta,
    q_sigma,
    sample_design,
    sample_signal,
    sample_sphere,
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

_NOISELESS_PENALTY = 1.0e-12  # penalty floor for scale-zero rows
_MAX_NONCONVERGED_FRACTION = 0.01
_SLOPE_BAND_SQUARED = (1.8, 2.2)
_SLOPE_BAND_FLAT = (-0.1, 0.1)
_PLATEAU_RTOL = 0.15
_FLOOR_GAP_RTOL = 0.10
_CONCENTRATION_BAND = (0.9, 1.1)  # reported diagnostic only, not a check
_MAX_MOMENT_GAP_IN_SES = 3.0


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete, serializable description of one experiment run."""

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
    scale_grid: tuple[float, ...] | None = None
    sigma_grid: tuple[float, ...] | None = None
    n_grid: tuple[int, ...] | None = None
    replications: int = 100
    master_seed: int = 12345
    design_kind: str = "gaussian"
    workers: int = 1
    paper_scale: bool = False

    def __post_init__(self) -> None:
        if self.name not in EXPERIMENT_NAMES:
            raise ConfigError(f"unknown experiment {self.name!r}; expected one of {EXPERIMENT_NAMES}")
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
        if self.design_kind not in ("gaussian", "rademacher"):
            raise ConfigError(f"unknown design kind {self.design_kind!r}")
        if self.name == "concentration":
            if self.noise.scale == 0.0:
                raise ConfigError("the winsorized-energy ratio is undefined for a zero-scale noise law")
            if self.replications < 3:
                raise ConfigError("the concentration checks estimate a fourth moment and need >= 3 replications")
        elif self.noise.scale != 1.0:
            raise ConfigError("sweeps own the noise scale; configure the law with scale=1")
        for label in ("scale_grid", "sigma_grid", "n_grid"):
            grid = getattr(self, label)
            if grid is not None:
                if len(grid) == 0:
                    raise ConfigError(f"{label} must be nonempty")
                if any(b <= a for a, b in zip(grid, grid[1:])):
                    raise ConfigError(f"{label} must be strictly ascending")
        experiment = _EXPERIMENTS[self.name]
        if getattr(self, experiment.grid) is None:
            raise ConfigError(f"experiment {self.name!r} requires {experiment.grid}")
        if experiment.fits_ols and self.n <= self.p:
            raise ConfigError("this experiment fits unpenalized least squares and needs n > p")
        for label in ("lambda_tilde", "lambda_fixed", "huber_k"):
            if not 0.0 < getattr(self, label) < math.inf:
                raise ConfigError(f"{label} must be finite and > 0, got {getattr(self, label)}")
        if not 0.0 <= self.delta_norm < math.inf:
            raise ConfigError(f"delta_norm must be finite and >= 0, got {self.delta_norm}")

    @property
    def gamma(self) -> float:
        return self.p / self.n

    def to_dict(self) -> dict:
        """JSON-ready fully resolved configuration.

        An experiment that draws no design echoes only the fields it reads.
        """
        out = dataclasses.asdict(self)
        out["cov"] = {"kind": self.cov.kind.value, "p": self.cov.p, "rho": self.cov.rho}
        out["noise"] = {"family": self.noise.family.value, "alpha": self.noise.alpha, "scale": self.noise.scale}
        out["gamma"] = self.gamma
        for label in ("scale_grid", "sigma_grid"):
            if out[label] is not None:
                out[label] = [float(v) for v in out[label]]
        if out["n_grid"] is not None:
            out["n_grid"] = [int(v) for v in out["n_grid"]]
        if not _EXPERIMENTS[self.name].draws_design:
            return {key: out[key] for key in _DESIGN_FREE_FIELDS}
        return out


@dataclass(frozen=True)
class RiskRecord:
    """One Monte Carlo measurement.

    A Newton fit also reports its step count and optimality certificate.  A
    transient record reports the relative residual of its shifted solve as
    its certificate, and whether the solve fell back from conjugate
    gradients to the ``Resolvent``.  Other closed-form fits leave these at
    None and False.  None of them goes into the CSV.

    ``wall_ms`` is physical time: a Newton fit's own time plus its risk
    evaluation.  The closed-form fits of one draw are solved in one block, so
    each of their records gets an equal share of the block solve plus its
    own risk evaluation.  The replication's shared draw and factorization
    are not in it.
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
        return ExperimentConfig(name=name, scale_grid=_desk_scale_grid(), replications=reps, **common)
    if name == "trichotomy":
        return ExperimentConfig(name=name, scale_grid=_trichotomy_scale_grid(), replications=reps, **common)
    if name == "transient":
        points = 25 if paper_scale else 10
        reps_t = 500 if paper_scale else 200
        grid = tuple(float(v) for v in np.geomspace(1.0, 1.0e4, points))
        return ExperimentConfig(name=name, sigma_grid=grid, replications=reps_t, **common)
    if name == "universality":
        grid = tuple(float(v) for v in np.geomspace(1.0, 1.0e3, 5))
        return ExperimentConfig(name=name, scale_grid=grid, replications=100 if not paper_scale else reps, **common)
    if name == "concentration":
        return ExperimentConfig(
            name=name,
            n=800,
            p=400,
            cov=CovarianceModel.ar1(400, 0.5),
            noise=TailLaw(NoiseFamily.SYMMETRIC_PARETO, alpha=1.5),
            n_grid=(10 ** 3, 10 ** 4, 10 ** 5),
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


def _build_plan(config: ExperimentConfig) -> _Plan:
    spec = decompose(config.cov)
    rng = substream(config.master_seed, "signal", 0)
    beta_star = sample_signal(config.p, config.sparsity, rng)
    delta = sample_sphere(config.p, config.delta_norm, rng)
    beta0 = beta_star + delta
    spec = project_delta(spec, beta_star, beta0)
    spec.sqrt_matrix()  # taken once here, so every worker inherits it
    tau_unit = float(config.n) ** (1.0 / config.noise.alpha)
    sigma2_unit = effective_variance_exact(config.noise, tau_unit)
    return _Plan(config=config, spec=spec, beta_star=beta_star, beta0=beta0,
                 tau_unit=tau_unit, sigma2_unit=sigma2_unit)


@dataclass(frozen=True)
class _RepDraw:
    """One replication's design and unit noise, raw and winsorized.

    ``design`` eigendecomposes the Gram matrix on first use, once per draw;
    the transient sweep never asks for it.
    """

    x: np.ndarray
    w_unit: np.ndarray
    w_wins_unit: np.ndarray

    @cached_property
    def design(self) -> Resolvent:
        return Resolvent.of(self.x)


def _draw_replication(plan: _Plan, rep: int, design_kind: str | None = None) -> _RepDraw:
    cfg = plan.config
    kind = cfg.design_kind if design_kind is None else design_kind
    x = sample_design(plan.spec, cfg.n, substream(cfg.master_seed, "design", rep), kind=kind)
    w_unit = sample_noise(cfg.noise, cfg.n, substream(cfg.master_seed, "noise", rep))
    return _RepDraw(x=x, w_unit=w_unit, w_wins_unit=winsorize(w_unit, plan.tau_unit))


def _adapted_lambda(config: ExperimentConfig, sigma2: float) -> float:
    """The noise-adapted penalty ``lambda_tilde * sigma2``, floored so that
    noiseless rows keep a positive penalty."""
    return max(config.lambda_tilde * sigma2, _NOISELESS_PENALTY)


def _penalty_and_centre(plan: _Plan, estimator: str, sigma2: float) -> tuple[float, np.ndarray]:
    """Each estimator's penalty level and centre at effective noise variance
    ``sigma2``: least squares is unpenalized, fixed ridge and Huber-ridge take
    ``lambda_fixed`` at the origin, and the transfer fits take the adapted
    penalty at ``beta0``."""
    cfg = plan.config
    if estimator in ("transfer_ridge", "transfer_lasso"):
        return _adapted_lambda(cfg, sigma2), plan.beta0
    if estimator in ("fixed_ridge", "huber"):
        return cfg.lambda_fixed, np.zeros(cfg.p)
    if estimator == "ols":
        return 0.0, np.zeros(cfg.p)
    raise ConfigError(f"unknown estimator {estimator!r}")


def _error_block(plan: _Plan, draw: _RepDraw,
                 points: list[tuple[str, float, float]]) -> tuple[np.ndarray, np.ndarray]:
    """The error systems of closed-form squared-loss fits on one draw.

    A squared-loss fit with penalty ``lam`` and centre ``c`` (see
    :func:`_penalty_and_centre`) at noise amplitude ``a`` errs by
    ``beta_hat - beta_star = (X'X/n + lam I)^-1 (a v - lam (beta_star - c))``,
    with ``v = X'w/n`` for the draw's unit winsorized noise.  ``points`` lists
    ``(estimator, a, sigma2)``, ``sigma2`` being the effective noise variance
    at amplitude ``a``.  Returns the ``p x k`` block of right-hand sides and
    the ``k`` shifts ``lam``.
    """
    v = draw.x.T @ draw.w_wins_unit / plan.config.n
    columns, shifts = [], []
    for estimator, amplitude, sigma2 in points:
        lam, centre = _penalty_and_centre(plan, estimator, sigma2)
        columns.append(amplitude * v - lam * (plan.beta_star - centre))
        shifts.append(lam)
    return np.stack(columns, axis=1), np.array(shifts)


_PROXIMAL_FITS = ("huber", "transfer_lasso")


def _proximal_fit(plan: _Plan, draw: _RepDraw, estimator: str, scale: float,
                  warm: np.ndarray | None) -> FitResult:
    """Newton fit of one proximal estimator at one noise scale, at the
    penalty and centre :func:`_penalty_and_centre` gives it.

    Huber-ridge sees the raw heavy-tailed noise; transfer lasso sees the
    winsorized noise.
    """
    lam, centre = _penalty_and_centre(plan, estimator, scale ** 2 * plan.sigma2_unit)
    if estimator == "huber":
        loss, reg, noise = Loss(LossKind.HUBER, plan.config.huber_k), Regularizer(RegKind.RIDGE), draw.w_unit
    else:  # transfer_lasso
        loss, reg, noise = Loss(LossKind.SQUARED), Regularizer(RegKind.LASSO), draw.w_wins_unit
    y = draw.x @ plan.beta_star + scale * noise
    return fit_proximal(EstimatorConfig(loss, reg, lam, center=centre), draw.design, y, x0=warm)


def _record(plan: _Plan, estimator: str, sweep: float, rep: int, beta_hat: np.ndarray,
            converged: bool, t0: float, fit: FitResult | None = None, certificate: float | None = None,
            resolvent_fallback: bool = False) -> RiskRecord:
    risk = empirical_risk(beta_hat, plan.beta_star, plan.spec.matrix)
    return RiskRecord(
        experiment=plan.config.name,
        estimator=estimator,
        sweep_value=float(sweep),
        replication=rep,
        risk=risk,
        converged=converged,
        wall_ms=(time.perf_counter() - t0) * 1.0e3,
        newton_steps=None if fit is None else fit.iterations,
        certificate=certificate if fit is None else fit.gradient_map_norm,
        resolvent_fallback=resolvent_fallback,
    )


# --------------------------------------------------------------------------
# Per-replication record generators: ``(plan, rep) -> records``.
# --------------------------------------------------------------------------


def _rep_scale_sweep(plan: _Plan, rep: int, estimators: tuple[str, ...],
                     designs: tuple[str, ...] | None = None) -> list[RiskRecord]:
    """One replication of a noise-scale sweep.

    Draws the design and the unit noise once per design kind (the configured
    kind, or each of ``designs``, whose name is then appended to the
    estimator label).  The closed-form fits at every scale form one
    :func:`_error_block`, solved in one call through the draw's
    ``Resolvent``.  Each proximal fit warm-starts from its own fit at the
    previous scale.
    """
    cfg = plan.config
    closed = [(estimator, scale) for scale in cfg.scale_grid for estimator in estimators
              if estimator not in _PROXIMAL_FITS]
    records = []
    for kind in designs or (cfg.design_kind,):
        draw = _draw_replication(plan, rep, design_kind=kind)
        design = draw.design  # factorized before the clock starts
        suffix = "" if designs is None else f"_{kind}"
        t0 = time.perf_counter()
        rhs, shifts = _error_block(plan, draw, [(e, scale, scale ** 2 * plan.sigma2_unit) for e, scale in closed])
        errors = design.solve(rhs, shifts)
        share = (time.perf_counter() - t0) / len(closed)
        for k, (estimator, scale) in enumerate(closed):
            # the clock starts a share of the block solve early
            records.append(_record(plan, estimator + suffix, scale, rep, plan.beta_star + errors[:, k], True,
                                   time.perf_counter() - share))
        warm: dict[str, np.ndarray] = {}
        for scale in cfg.scale_grid:
            for estimator in estimators:
                if estimator in _PROXIMAL_FITS:
                    t0 = time.perf_counter()
                    fit = _proximal_fit(plan, draw, estimator, scale, warm.get(estimator))
                    warm[estimator] = fit.beta_hat
                    records.append(_record(plan, estimator + suffix, scale, rep, fit.beta_hat, fit.converged,
                                           t0, fit))
    return records


def _rep_transient(plan: _Plan, rep: int) -> list[RiskRecord]:
    """One replication of noise-adapted transfer ridge across the σ² grid,
    with no eigendecomposition.

    The fit at ``sigma2_k`` has amplitude ``a_k = sqrt(sigma2_k /
    sigma2_unit)``; all points form one :func:`_error_block`, solved
    together by :func:`_shifted_solve`.  A record is converged when its
    certificate holds.
    """
    cfg = plan.config
    draw = _draw_replication(plan, rep)
    t0 = time.perf_counter()
    rhs, lams = _error_block(plan, draw, [("transfer_ridge", math.sqrt(sigma2 / plan.sigma2_unit), sigma2)
                                       for sigma2 in cfg.sigma_grid])
    errors, certificates, fell_back = _shifted_solve(draw.x, rhs, lams)
    share = (time.perf_counter() - t0) / len(lams)
    records = []
    for k, sigma2 in enumerate(cfg.sigma_grid):
        # the clock starts a share of the block solve early
        records.append(_record(plan, "transfer_ridge", sigma2, rep, plan.beta_star + errors[:, k],
                               bool(certificates[k] <= _CERTIFICATE), time.perf_counter() - share,
                               certificate=float(certificates[k]), resolvent_fallback=bool(fell_back[k])))
    return records


def _rep_concentration(config: ExperimentConfig, rep: int) -> list[RiskRecord]:
    rng = substream(config.master_seed, "noise", rep)
    records = []
    for n in config.n_grid:  # ascending; one stream consumed sequentially
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
    estimator also the largest and 95th-percentile step count, and for any
    record that carries one the worst certificate."""
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
    effective-variance grid, against the deterministic closed form; the
    summary also counts, per σ² point, the solves that fell back to the
    ``Resolvent``."""
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
    fallbacks = [sum(r.resolvent_fallback for r in records if r.sweep_value == sigma2)
                 for sigma2 in stats["transfer_ridge"]["sweep_values"]]
    return checks, {"theory_risk": theory, "relative_errors": rel_errors, "resolvent_fallbacks": fallbacks}


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
    return {"max_design_gap_in_ses": _check(float(np.max(z_scores)), None, 2.0)}, {"design_gap_in_ses": z_scores}


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
    for n in config.n_grid:
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
        "energy_ratio": {"n": [int(n) for n in config.n_grid], **moments},
        "in_band_fractions": dict(zip((str(n) for n in config.n_grid), fractions)),
    }


# --------------------------------------------------------------------------
# The registry.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _Experiment:
    grid: str  # the ExperimentConfig field that holds the sweep
    fits_ols: bool  # unpenalized least squares needs n > p
    replicate: Callable  # (plan, rep) -> the replication's records
    checks: Callable  # (plan, records, stats) -> (checks, extra summary fields)
    # False for a study that draws no design and fits nothing: its functions
    # get the config in place of a plan, and its summary carries neither the
    # plan's figures nor a convergence check.
    draws_design: bool = True


# The configuration fields an experiment that draws no design reads.
_DESIGN_FREE_FIELDS = ("name", "noise", "n_grid", "replications", "master_seed", "workers", "paper_scale")

_SQUARED_LOSS_FITS = ("ols", "fixed_ridge", "transfer_ridge")

_EXPERIMENTS = {
    "paradox": _Experiment("scale_grid", True, partial(_rep_scale_sweep, estimators=_SQUARED_LOSS_FITS),
                           _paradox_checks),
    "floor": _Experiment("scale_grid", False,
                         partial(_rep_scale_sweep, estimators=("transfer_ridge", "transfer_lasso")), _floor_checks),
    "transient": _Experiment("sigma_grid", False, _rep_transient, _transient_checks),
    "trichotomy": _Experiment("scale_grid", True,
                              partial(_rep_scale_sweep, estimators=_SQUARED_LOSS_FITS + ("huber",)),
                              _trichotomy_checks),
    "universality": _Experiment("scale_grid", False,
                                partial(_rep_scale_sweep, estimators=("transfer_ridge",),
                                        designs=("gaussian", "rademacher")),
                                _universality_checks),
    "concentration": _Experiment("n_grid", False, _rep_concentration, _concentration_checks, draws_design=False),
}
EXPERIMENT_NAMES = tuple(_EXPERIMENTS)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run one named experiment from its registry entry.

    The entry names the sweep grid, whether the experiment fits unpenalized
    least squares (then ``ExperimentConfig`` requires n > p), the
    per-replication record generator and the acceptance checks.  The rest is
    shared: build the frozen plan (signal, misalignment, winsorization
    threshold) unless the experiment draws no design, collect the records
    serially or in a process pool (the same bytes for any worker count),
    summarize them, add the non-convergence check to the entry's checks and
    assemble the summary.
    """
    experiment = _EXPERIMENTS[config.name]
    plan = _build_plan(config) if experiment.draws_design else config
    records = _collect_records(config, experiment.replicate, plan)
    stats = summarize(records)
    checks, extra = experiment.checks(plan, records, stats)
    summary = {"experiment": config.name, "replications": config.replications,
               "master_seed": config.master_seed, "estimators": stats}
    if experiment.draws_design:
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


def write_outputs(result: ExperimentResult, out_dir, tag: str | None = None) -> dict:
    """Write the CSV, the JSON summary, and the resolved-config echo.

    Returns the mapping of artifact names to paths.  The default tag is
    ``seed<master_seed>`` so that reruns with the same configuration land on
    the same filenames.
    """
    import os

    os.makedirs(out_dir, exist_ok=True)
    tag = tag if tag is not None else f"seed{result.config.master_seed}"
    base = f"{result.config.name}_{tag}"
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
