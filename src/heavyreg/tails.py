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
from scipy import special

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
    """Closed-form Student-t tail constant, checked against the t distribution.

    The check compares ``2 * T^alpha * P(W > T)`` at ``T = 1e4``, from the
    incomplete-beta routine ``special.stdtr``, with the closed form; agreement
    to 1e-6 relative (the next tail term is ~1e-8 there) is required once per
    distinct ``alpha`` per process.
    """
    c = _student_tail_constant(alpha)
    T = 1.0e4
    c_num = 2.0 * special.stdtr(alpha, -T) * T ** alpha
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


def _stable_second_coefficient(alpha: float) -> float:
    # b in the tail series P(|X| > t) = c t^-alpha - b t^-2alpha + O(t^-3alpha).
    return math.gamma(2.0 * alpha) * math.sin(math.pi * alpha) / math.pi


# Past this threshold the stable survival function is the two-term series.
_STABLE_CROSSOVER = 50.0
# Below this one it is the convergent density series, whose 14 terms there
# leave less than 1e-17 for every alpha in (1, 2).
_STABLE_SERIES_TOP = 0.1
_STABLE_SERIES_TERMS = 14


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
        """P(|w| > t) for the unit-scale law, vectorized over ``t >= 0``.

        - Symmetric Pareto: the closed form, exact.
        - Student-t: ``2 * special.stdtr(alpha, -t)``, the incomplete-beta
          routine behind scipy's t distribution; it agrees with a 30-digit
          incomplete-beta oracle to 1e-15 relative on ``[1e-3, 1e6]``.
        - Alpha-stable below ``t = 0.1``: the convergent density series, to
          1e-15 relative.
        - Alpha-stable on ``[0.1, 50]``: the characteristic-function integral
          of :func:`_stable_survival_cf`, certified to 1e-10 relative (1e-14
          absolute where the value is below 1e-4); it matches a 30-digit
          oracle to about 1e-11 at alpha <= 1.95.
        - Alpha-stable past ``t = 50``: the two-term tail series
          ``c t^-alpha - b t^-2alpha``, whose relative error ``O(t^-2alpha)``
          is about 1e-5 at 50.

        Raises
        ------
        ConvergenceError
            If a characteristic-function integral misses its certificate.
        """
        t = np.asarray(t, dtype=float)
        if np.any(t < 0):
            raise ConfigError("survival is defined for t >= 0")
        if self.family is NoiseFamily.SYMMETRIC_PARETO:
            out = np.where(t < 1.0, 1.0, np.minimum(t, np.inf) ** -self.alpha)
        elif self.family is NoiseFamily.STUDENT_T:
            out = 2.0 * special.stdtr(self.alpha, -t)
        else:
            out = self._stable_survival(t)
        return out if out.shape else float(out)

    def _stable_survival(self, t: np.ndarray) -> np.ndarray:
        # Below 0.1:  P(|W| <= t) = (2/(pi a)) sum_k (-1)^k Gamma((2k+1)/a) t^(2k+1) / (2k+1)!.
        a = self.alpha
        out = np.empty_like(t)
        low = t < _STABLE_SERIES_TOP
        k = np.arange(_STABLE_SERIES_TERMS)
        coeffs = (-1.0) ** k * np.exp(special.gammaln((2 * k + 1) / a) - special.gammaln(2 * k + 2))
        out[low] = 1.0 - 2.0 / (math.pi * a) * t[low] * np.polynomial.polynomial.polyval(t[low] ** 2, coeffs)
        near = ~low & (t <= _STABLE_CROSSOVER)
        out[near] = [_stable_survival_cf(a, float(x)) for x in t[near]]
        far = t > _STABLE_CROSSOVER
        if np.any(far):
            tf = t[far]
            out[far] = _stable_tail_constant(a) * tf ** -a - _stable_second_coefficient(a) * tf ** (-2.0 * a)
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

    Closed form for the symmetric Pareto family.  Student-t integrates
    ``2 t P(|w| > t)`` by :func:`_gauss_panels` on the half-decade panels
    ``[0, 1, sqrt(10), 10, ...]`` cut at ``tau``.  The alpha-stable
    law computes ``E[min(W^2, T^2)]`` on ``[0, T]``, ``T = min(tau, 50)``, from
    its characteristic function (see :func:`_stable_clipped_moment`); past
    ``t = 50`` it adds the exact integral of the two-term series that
    ``survival`` uses there.  That series drops the ``t^-3alpha`` term, a
    truncation of about 2e-6 of the result at alpha = 1.5, tau = 86, kept so
    that the value is the integral of ``survival`` itself.

    The quadrature part (all of it for Student-t, the part on ``[0, 50]``
    for alpha-stable) is certified to 1e-10 relative: ``ConvergenceError`` is
    raised when its own error estimate exceeds that.
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

    if law.family is NoiseFamily.STUDENT_T:
        # On whole decades the 16- and 32-node sums drift apart by up to
        # 9e-10 relative at alpha near 2; on half decades they agree to 1e-15.
        steps = 10.0 ** (0.5 * np.arange(math.floor(2.0 * math.log10(tau)) + 1))
        edges = np.concatenate(([0.0], steps[steps < tau], [tau]))
        total, err = _gauss_panels(lambda t: 2.0 * t * law.survival(t), edges)
        series = 0.0
    else:
        T = min(tau, _STABLE_CROSSOVER)
        total, err = _stable_clipped_moment(a, T)
        c, b = _stable_tail_constant(a), _stable_second_coefficient(a)
        series = (2.0 * c * (tau ** (2.0 - a) - T ** (2.0 - a)) / (2.0 - a)
                  - 2.0 * b * (tau ** (2.0 - 2.0 * a) - T ** (2.0 - 2.0 * a)) / (2.0 - 2.0 * a))
    if not math.isfinite(total) or total <= 0.0 or err > 1.0e-10 * total:
        raise ConvergenceError(
            f"effective-variance quadrature did not converge: value {total}, error estimate {err}"
        )
    return law.scale ** 2 * (total + series)


# k(x) = (sin x - x cos x) / x^3 = sum_{j>=1} (-1)^(j+1) 2j x^(2j-2) / (2j+1)!; the
# nine terms kept reach 1e-16 relative for x < 1, where the direct form cancels.
_K_TAYLOR = np.array([(-1) ** (j + 1) * 2.0 * j / math.factorial(2 * j + 1) for j in range(1, 10)])
_GL_LOW = np.polynomial.legendre.leggauss(16)
_GL_HIGH = np.polynomial.legendre.leggauss(32)


def _kernel_k(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    small = x < 1.0
    out[small] = np.polynomial.polynomial.polyval(x[small] ** 2, _K_TAYLOR)
    big = x[~small]
    out[~small] = (np.sin(big) - big * np.cos(big)) / big ** 3
    return out


def _gauss_panels(f, edges: np.ndarray) -> tuple[float, float]:
    """Gauss-Legendre over the panels between ``edges``: the 32-node sum and,
    as its error estimate, the summed panel gaps to the 16-node sum."""
    mid = (edges[1:] + edges[:-1]) / 2.0
    half = (edges[1:] - edges[:-1]) / 2.0
    sums = []
    for nodes, weights in (_GL_LOW, _GL_HIGH):
        x = mid[:, None] + half[:, None] * nodes[None, :]
        sums.append((f(x) @ weights) * half)
    return float(np.sum(sums[1])), float(np.sum(np.abs(sums[1] - sums[0])))


def _stable_panels(alpha: float, T: float, kernel) -> tuple[float, float, float]:
    """``int_0^{TU} (1 - exp(-(x/T)^alpha)) kernel(x) dx``, ``U = 40^(1/alpha)``,
    by :func:`_gauss_panels`: the value, its error estimate and ``TU``.

    The panels are graded geometrically toward the ``x^alpha`` singularity at
    0 and are at most half an oscillation wide beyond it.  Past ``TU`` the
    factor ``1 - exp(-(x/T)^alpha)`` is 1 to within ``e^-40``; each caller
    closes that tail itself.
    """
    top = T * 40.0 ** (1.0 / alpha)
    x0 = min(math.pi, T)
    edges = np.unique(np.concatenate((
        [0.0], x0 * 2.0 ** -np.arange(40.0, 0.0, -1.0), np.arange(x0, top, min(math.pi, 0.5 * T)), [top],
    )))
    body, err = _gauss_panels(lambda x: -np.expm1(-((x / T) ** alpha)) * kernel(x), edges)
    return body, err, top


def _stable_clipped_moment(alpha: float, T: float) -> tuple[float, float]:
    """``E[min(W^2, T^2)]`` for the standard symmetric stable law, with an
    error estimate.

    With the characteristic function ``exp(-|u|^alpha)``,

        E[min(W^2, T^2)] = (4/pi) T^2 int_0^inf (1 - exp(-(x/T)^alpha)) k(x) dx,

    ``k(x) = (sin x - x cos x) / x^3``, a form without the cancellation of
    ``T^2 - E[...; |W| <= T]``.  :func:`_stable_panels` integrates up to
    ``T U``; the tail ``int_{TU}^inf k`` is closed form through the sine
    integral, and the neglected part is bounded (``|k| <= 1/3``) and added to
    the estimate.
    """
    body, err, top = _stable_panels(alpha, T, _kernel_k)
    si, _ = special.sici(top)
    tail = math.sin(top) / (2.0 * top * top) - math.cos(top) / (2.0 * top) + (math.pi / 2.0 - si) / 2.0
    U = top / T
    neglected = T * math.exp(-40.0) / (3.0 * alpha * U ** (alpha - 1.0))
    scale = 4.0 / math.pi * T * T
    return scale * (body + tail), scale * (err + neglected)


def _stable_survival_cf(alpha: float, t: float) -> float:
    """``P(|W| > t)`` for the standard symmetric stable law, certified.

    Subtracting ``P(|W| <= t) = (2/pi) int_0^inf exp(-u^alpha) sin(tu)/u du``
    from ``(2/pi) int_0^inf sin(tu)/u du = 1`` and putting ``x = tu`` gives

        P(|W| > t) = (2/pi) int_0^inf (1 - exp(-(x/t)^alpha)) sin(x)/x dx,

    which has no ``1 - P(|W| <= t)`` cancellation.  :func:`_stable_panels`
    integrates up to ``t U``; the tail is ``pi/2 - Si(tU)``, and the neglected
    part, at most ``int_U^inf exp(-u^alpha)/u du <= e^-40 / (40 alpha)``, is
    added to the estimate.  The roundoff of the oscillatory sum, about 1e-15
    in absolute terms, is why the certificate is 1e-10 relative only down to
    values of 1e-4 and 1e-14 absolute below.
    """
    body, err, top = _stable_panels(alpha, t, lambda x: np.sin(x) / x)
    si, _ = special.sici(top)
    value = 2.0 / math.pi * (body + math.pi / 2.0 - si)
    err = 2.0 / math.pi * (err + math.exp(-40.0) / (40.0 * alpha))
    if not (err <= 1.0e-10 * max(value, 1.0e-4)):
        raise ConvergenceError(
            f"stable survival quadrature did not converge at t={t}: value {value}, error estimate {err}"
        )
    return value


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
