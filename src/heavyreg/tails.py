"""Heavy-tailed noise models, winsorization, and effective-variance formulas.

A noise law here has a regularly-varying two-sided tail with index
``alpha`` in (1, 2): finite mean, infinite variance.  Its tail constant is

    c = lim_{t -> inf} t^alpha * P(|w| > t).

Winsorizing at threshold ``tau`` clips the variable to ``[-tau, tau]``.  The
winsorized second moment ("effective variance") is

    E[(w^(tau))^2] = integral_0^tau 2 t P(|w| > t) dt,

which for the sample-size-coupled threshold ``tau_n = n^(1/alpha)`` grows like
``(2c / (2 - alpha)) * n^((2-alpha)/alpha)``.

Thresholds passed to the functions below are always in units of the unit-scale
law; a law with ``scale = s`` is the unit variable multiplied by ``s``, its
winsorization happens at ``s * tau``, and its effective variance picks up a
factor ``s**2``.  This convention makes every quantity exactly scale
equivariant, which the experiment harness relies on.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy import stats

from .errors import ConfigError, ConvergenceError

__all__ = [
    "NoiseFamily",
    "TailLaw",
    "WinsorPlan",
    "winsorize",
    "winsor_plan",
    "effective_variance_exact",
    "effective_variance_asymptotic",
    "truncated_fourth_moment",
    "fisher_information",
    "mean_absolute",
    "sample_noise",
]


class NoiseFamily(enum.Enum):
    SYMMETRIC_PARETO = "symmetric_pareto"
    STUDENT_T = "student_t"
    ALPHA_STABLE = "alpha_stable"


def _student_tail_constant(alpha: float) -> float:
    # c = 2 * nu^(nu/2 - 1) * Gamma((nu+1)/2) / (sqrt(pi) * Gamma(nu/2)) with nu = alpha,
    # from the regularized-incomplete-beta form of the t survival function.
    nu = alpha
    return 2.0 * nu ** (nu / 2.0 - 1.0) * math.gamma((nu + 1.0) / 2.0) / (math.sqrt(math.pi) * math.gamma(nu / 2.0))


@functools.lru_cache(maxsize=None)
def _verified_student_tail_constant(alpha: float) -> float:
    """Closed-form Student-t tail constant, checked against direct integration.

    The check integrates the density over ``[T, inf)`` and compares
    ``2 * T^alpha * integral`` with the closed form; agreement to 1e-6 relative
    is required once per distinct ``alpha`` per process.
    """
    c = _student_tail_constant(alpha)
    T = 1.0e4
    # Substitute u = 1/t: the infinite tail becomes a smooth finite integral,
    # which quad resolves far below the closed form's own magnitude.
    tail, abserr = integrate.quad(
        lambda u: stats.t.pdf(1.0 / u, df=alpha) / (u * u), 0.0, 1.0 / T, epsabs=0.0, epsrel=1.0e-9
    )
    c_num = 2.0 * tail * T ** alpha
    if not math.isfinite(c_num) or abs(c_num - c) > 1.0e-6 * c:
        raise ConvergenceError(
            f"Student-t tail constant self-check failed for alpha={alpha}: closed form {c}, numeric {c_num}"
        )
    return c


def _stable_tail_constant(alpha: float) -> float:
    # Standard symmetric alpha-stable law, characteristic function exp(-|t|^alpha):
    # lim t^alpha P(|X| > t) = (1 - alpha) / (Gamma(2 - alpha) * cos(pi * alpha / 2)),
    # equivalently (2/pi) * Gamma(alpha) * sin(pi * alpha / 2).
    return (1.0 - alpha) / (math.gamma(2.0 - alpha) * math.cos(math.pi * alpha / 2.0))


@dataclass(frozen=True)
class TailLaw:
    """A centered noise law with regularly-varying tails.

    Parameters
    ----------
    family : NoiseFamily
        Which parametric family the law belongs to.
    alpha : float
        Tail index, strictly between 1 and 2.  For ``STUDENT_T`` this is the
        degrees of freedom; for ``ALPHA_STABLE`` the stability index.
    scale : float
        Multiplicative scale, >= 0.  Zero gives the degenerate point mass at
        the origin, accepted only so sweeps can include a noiseless row.
    """

    family: NoiseFamily
    alpha: float
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not (1.0 < self.alpha < 2.0):
            raise ConfigError(f"tail index must lie in (1, 2), got {self.alpha}")
        if not (self.scale >= 0.0 and math.isfinite(self.scale)):
            raise ConfigError(f"scale must be finite and >= 0, got {self.scale}")
        if self.family is NoiseFamily.STUDENT_T:
            _verified_student_tail_constant(self.alpha)

    @property
    def c(self) -> float:
        """Tail constant of the unit-scale law."""
        if self.family is NoiseFamily.SYMMETRIC_PARETO:
            return 1.0
        if self.family is NoiseFamily.STUDENT_T:
            return _verified_student_tail_constant(self.alpha)
        return _stable_tail_constant(self.alpha)

    def survival(self, t: np.ndarray | float) -> np.ndarray | float:
        """P(|w| > t) for the unit-scale law, vectorized over ``t >= 0``."""
        t = np.asarray(t, dtype=float)
        if np.any(t < 0):
            raise ConfigError("survival is defined for t >= 0")
        if self.family is NoiseFamily.SYMMETRIC_PARETO:
            out = np.where(t < 1.0, 1.0, np.minimum(t, np.inf) ** -self.alpha)
        elif self.family is NoiseFamily.STUDENT_T:
            out = 2.0 * stats.t.sf(t, df=self.alpha)
        else:
            out = self._stable_survival(t)
        return out if out.shape else float(out)

    def _stable_survival(self, t: np.ndarray) -> np.ndarray:
        # scipy's stable CDF underflows to 0 past t ~ 1e3; switch to the
        # two-term series c t^-a - (Gamma(2a) sin(pi a) / pi) t^-2a, whose
        # relative error O(t^-2a) is ~1e-5 already at the crossover.
        a = self.alpha
        crossover = 50.0
        out = np.empty_like(t)
        near = t <= crossover
        out[near] = 2.0 * stats.levy_stable.sf(t[near], a, 0.0)
        far = ~near
        if np.any(far):
            tf = t[far]
            second = (math.gamma(2.0 * a) * math.sin(math.pi * a) / math.pi) * tf ** (-2.0 * a)
            out[far] = _stable_tail_constant(a) * tf ** -a - second
        return out


@dataclass(frozen=True)
class WinsorPlan:
    """Sample-size-coupled winsorization plan.

    ``tau`` is the threshold ``n**(1/alpha)`` in unit-law units; ``sigma2`` is
    the exact effective variance of the scaled law winsorized at
    ``scale * tau``.
    """

    n: int
    tau: float
    sigma2: float


def winsorize(w: np.ndarray | float, tau: float) -> np.ndarray | float:
    """Clip ``w`` coordinate-wise to ``[-tau, tau]``.

    Rejects non-finite inputs: a NaN or infinity reaching this point means an
    upstream sampling bug and must not be silently clipped away.
    """
    if not (tau > 0.0 and math.isfinite(tau)):
        raise ConfigError(f"winsorization threshold must be finite and > 0, got {tau}")
    arr = np.asarray(w, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ConfigError("winsorize received non-finite input")
    out = np.clip(arr, -tau, tau)
    return out if out.shape else float(out)


def effective_variance_exact(law: TailLaw, tau: float) -> float:
    """Exact winsorized second moment ``scale**2 * int_0^tau 2 t P(|w|>t) dt``.

    Closed form for the symmetric Pareto family; adaptive quadrature to 1e-10
    relative tolerance otherwise, raising ``ConvergenceError`` when the
    quadrature's own error estimate exceeds it.
    """
    if not (tau > 0.0 and math.isfinite(tau)):
        raise ConfigError(f"threshold must be finite and > 0, got {tau}")
    a = law.alpha
    if law.family is NoiseFamily.SYMMETRIC_PARETO:
        # Unit minimum: survival is 1 below t=1 and t^-alpha above.
        if tau <= 1.0:
            unit = tau * tau
        else:
            unit = 1.0 + (2.0 / (2.0 - a)) * (tau ** (2.0 - a) - 1.0)
        return law.scale ** 2 * unit

    def integrand(t: float) -> float:
        return 2.0 * t * float(law.survival(t))

    # Integrate on decade panels so the power-law tail cannot starve quad of
    # subdivisions on a single huge interval.
    edges = [0.0]
    e = 1.0
    while e < tau:
        edges.append(e)
        e *= 10.0
    edges.append(tau)
    total = 0.0
    err = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, ab = integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1.0e-12, limit=200)
        total += val
        err += ab
    if not math.isfinite(total) or total <= 0.0 or err > 1.0e-10 * total:
        raise ConvergenceError(
            f"effective-variance quadrature did not converge: value {total}, error estimate {err}"
        )
    return law.scale ** 2 * total


def effective_variance_asymptotic(law: TailLaw, n: int) -> float:
    """Leading-order effective variance ``(2c/(2-alpha)) * n**((2-alpha)/alpha)``."""
    if n < 1:
        raise ConfigError(f"sample size must be >= 1, got {n}")
    a = law.alpha
    return law.scale ** 2 * (2.0 * law.c / (2.0 - a)) * float(n) ** ((2.0 - a) / a)


def winsor_plan(law: TailLaw, n: int) -> WinsorPlan:
    """Threshold ``tau_n = n**(1/alpha)`` and the exact effective variance at it."""
    if n < 1:
        raise ConfigError(f"sample size must be >= 1, got {n}")
    tau = float(n) ** (1.0 / law.alpha)
    return WinsorPlan(n=n, tau=tau, sigma2=effective_variance_exact(law, tau))


def truncated_fourth_moment(law: TailLaw, tau: float) -> float:
    """Leading-order fourth moment of the winsorized law, ``(4c/(4-alpha)) tau**(4-alpha)``.

    Diagnostic only: it quantifies how borderline the variance of the
    winsorized square is (the ratio to ``sigma2**2 * n`` stays of order one).
    """
    if tau < 1.0:
        raise ConfigError(f"fourth-moment asymptotic needs tau >= 1, got {tau}")
    a = law.alpha
    return law.scale ** 4 * (4.0 * law.c / (4.0 - a)) * tau ** (4.0 - a)


def fisher_information(law: TailLaw, n: int) -> float:
    """Information content of ``n`` winsorized observations, ``n / sigma_n^2``."""
    return float(n) / effective_variance_asymptotic(law, n)


def mean_absolute(law: TailLaw) -> float:
    """E|w|, finite because alpha > 1."""
    a = law.alpha
    if law.family is NoiseFamily.SYMMETRIC_PARETO:
        unit = a / (a - 1.0)
    elif law.family is NoiseFamily.STUDENT_T:
        nu = a
        unit = 2.0 * math.sqrt(nu) * math.gamma((nu + 1.0) / 2.0) / (math.sqrt(math.pi) * (nu - 1.0) * math.gamma(nu / 2.0))
    else:
        unit = (2.0 / math.pi) * math.gamma(1.0 - 1.0 / a)
    return law.scale * unit


def sample_noise(law: TailLaw, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``size`` iid samples of the scaled law.

    Sampling is implemented as ``scale * unit_draw`` so that laws differing
    only in scale produce exactly proportional streams from identical
    generator states.
    """
    if size < 0:
        raise ConfigError(f"size must be >= 0, got {size}")
    if law.family is NoiseFamily.SYMMETRIC_PARETO:
        # 1-U keeps the uniform away from zero so the magnitude is finite.
        magnitude = (1.0 - rng.random(size)) ** (-1.0 / law.alpha)
        sign = np.where(rng.random(size) < 0.5, -1.0, 1.0)
        unit = sign * magnitude
    elif law.family is NoiseFamily.STUDENT_T:
        unit = rng.standard_t(law.alpha, size)
    else:
        unit = _sample_stable(law.alpha, size, rng)
    return law.scale * unit


def _sample_stable(alpha: float, size: int, rng: np.random.Generator) -> np.ndarray:
    # Chambers-Mallows-Stuck for the symmetric case beta = 0:
    #   X = sin(alpha V) / cos(V)^(1/alpha) * (cos((1-alpha) V) / W)^((1-alpha)/alpha)
    # with V uniform on (-pi/2, pi/2) and W standard exponential.
    V = (rng.random(size) - 0.5) * math.pi
    W = rng.exponential(1.0, size)
    return (
        np.sin(alpha * V)
        / np.cos(V) ** (1.0 / alpha)
        * (np.cos((1.0 - alpha) * V) / W) ** ((1.0 - alpha) / alpha)
    )
