"""Loss and regularizer calculus: values, proximal maps, conjugate geometry.

The central dichotomy: a convex loss with linear growth at infinity has a
bounded conjugate domain, and fitting with it keeps the estimation error
bounded no matter how wild the noise scale is; superlinear growth (the squared
loss) has an unbounded conjugate domain and inherits the noise variance.  The
bounded/unbounded verdict plus the growth exponent feed the moment-requirement
rule ``alpha >= q / (q - 1)``.

Only smooth losses (Squared, Huber, LogCosh) are ever fitted by the solvers;
Absolute and Quantile participate in classification and prox identities only.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConvergenceError

__all__ = [
    "LossKind",
    "Loss",
    "RegKind",
    "Regularizer",
    "ConjugateClass",
    "classify",
    "numerical_growth_probe",
    "required_alpha",
    "moment_verdict",
    "prox_loss",
    "prox_loss_conjugate",
    "prox_reg",
]


class LossKind(enum.Enum):
    SQUARED = "squared"
    ABSOLUTE = "absolute"
    HUBER = "huber"
    QUANTILE = "quantile"
    LOGCOSH = "logcosh"


@dataclass(frozen=True)
class Loss:
    """A scalar convex loss, minimized at 0.

    ``param`` is the Huber transition point ``k`` or the quantile level; the
    other kinds take no parameter.
    """

    kind: LossKind
    param: float | None = None

    def __post_init__(self) -> None:
        if self.kind is LossKind.HUBER:
            if self.param is None or self.param <= 0.0:
                raise ConfigError(f"Huber needs a transition point > 0, got {self.param}")
        elif self.kind is LossKind.QUANTILE:
            if self.param is None or not (0.0 < self.param < 1.0):
                raise ConfigError(f"quantile level must lie in (0, 1), got {self.param}")
        elif self.param is not None:
            raise ConfigError(f"{self.kind.value} takes no parameter")

    @property
    def smooth(self) -> bool:
        return self.kind in (LossKind.SQUARED, LossKind.HUBER, LossKind.LOGCOSH)

    def value(self, t: np.ndarray | float) -> np.ndarray | float:
        t = np.asarray(t, dtype=float)
        k = self.kind
        if k is LossKind.SQUARED:
            out = 0.5 * t * t
        elif k is LossKind.ABSOLUTE:
            out = np.abs(t)
        elif k is LossKind.HUBER:
            a = self.param
            out = np.where(np.abs(t) <= a, 0.5 * t * t, a * np.abs(t) - 0.5 * a * a)
        elif k is LossKind.QUANTILE:
            out = t * (self.param - (t < 0.0))
        else:
            # log cosh t = |t| + log1p(exp(-2|t|)) - log 2, stable for large |t|
            at = np.abs(t)
            out = at + np.log1p(np.exp(-2.0 * at)) - math.log(2.0)
        return out if out.shape else float(out)

    def derivative(self, t: np.ndarray | float) -> np.ndarray | float:
        """Derivative where it exists; at kinks the symmetric choice (0)."""
        t = np.asarray(t, dtype=float)
        k = self.kind
        if k is LossKind.SQUARED:
            out = t.copy()
        elif k is LossKind.ABSOLUTE:
            out = np.sign(t)
        elif k is LossKind.HUBER:
            out = np.clip(t, -self.param, self.param)
        elif k is LossKind.QUANTILE:
            out = np.where(t > 0.0, self.param, np.where(t < 0.0, self.param - 1.0, 0.0))
        else:
            out = np.tanh(t)
        return out if out.shape else float(out)

    def derivative_lipschitz(self) -> float:
        """Upper bound on the curvature of a smooth loss."""
        if not self.smooth:
            raise ConfigError(f"{self.kind.value} is not smooth; no curvature bound")
        return 1.0  # t, clip(t, -k, k), tanh(t) are all 1-Lipschitz


class RegKind(enum.Enum):
    RIDGE = "ridge"
    LASSO = "lasso"
    ELASTIC_NET = "elastic_net"


@dataclass(frozen=True)
class Regularizer:
    """Separable penalty applied to the deviation from the centering point.

    Elastic net mixes ``mix * |v|_1 + (1 - mix) * |v|_2^2 / 2`` with
    ``mix`` strictly between 0 and 1.
    """

    kind: RegKind
    mix: float | None = None

    def __post_init__(self) -> None:
        if self.kind is RegKind.ELASTIC_NET:
            if self.mix is None or not (0.0 < self.mix < 1.0):
                raise ConfigError(f"elastic-net mix must lie in (0, 1), got {self.mix}")
        elif self.mix is not None:
            raise ConfigError(f"{self.kind.value} takes no mix parameter")

    def value(self, v: np.ndarray) -> float:
        v = np.asarray(v, dtype=float)
        if self.kind is RegKind.RIDGE:
            return 0.5 * float(v @ v)
        if self.kind is RegKind.LASSO:
            return float(np.sum(np.abs(v)))
        return self.mix * float(np.sum(np.abs(v))) + 0.5 * (1.0 - self.mix) * float(v @ v)


@dataclass(frozen=True)
class ConjugateClass:
    """Conjugate-domain geometry of a loss.

    ``interval`` is the closure of the conjugate domain when bounded;
    ``q_growth`` the polynomial growth exponent when unbounded.
    """

    bounded: bool
    interval: tuple[float, float] | None = None
    q_growth: float | None = None

    @property
    def K(self) -> float | None:
        """Half-width of the conjugate domain, when bounded."""
        if self.interval is None:
            return None
        lo, hi = self.interval
        return 0.5 * (hi - lo)


def classify(loss: Loss) -> ConjugateClass:
    """Analytic conjugate-domain classification."""
    k = loss.kind
    if k is LossKind.SQUARED:
        return ConjugateClass(bounded=False, q_growth=2.0)
    if k is LossKind.ABSOLUTE:
        return ConjugateClass(bounded=True, interval=(-1.0, 1.0))
    if k is LossKind.HUBER:
        a = loss.param
        return ConjugateClass(bounded=True, interval=(-a, a))
    if k is LossKind.QUANTILE:
        return ConjugateClass(bounded=True, interval=(loss.param - 1.0, loss.param))
    return ConjugateClass(bounded=True, interval=(-1.0, 1.0))  # logcosh slopes saturate at +-1


def numerical_growth_probe(loss: Loss, t_probe: float = 1.0e6) -> dict:
    """Numeric growth check backing the analytic classification.

    A bounded conjugate domain is equivalent to asymptotically linear growth:
    the two-point growth exponent between ``t_probe / 10`` and ``t_probe``
    must be near 1 and the linear rate ``L(t)/|t|`` bounded away from 0.
    """
    exps = []
    rates = []
    for sign in (-1.0, 1.0):
        hi = float(loss.value(sign * t_probe))
        lo = float(loss.value(sign * t_probe / 10.0))
        exps.append(math.log(hi / lo) / math.log(10.0))
        rates.append(hi / t_probe)
    exponent = max(exps)
    rate = min(rates)
    return {
        "growth_exponent": exponent,
        "linear_rate": rate,
        "bounded": bool(exponent <= 1.1 and rate > 1.0e-8),
    }


def required_alpha(q: float) -> float:
    """Smallest tail index with bounded risk for growth exponent ``q``.

    ``alpha >= q / (q - 1)`` for ``q > 1``; at ``q = 1`` every ``alpha > 1``
    qualifies (the bound 1 is exclusive).
    """
    if q < 1.0:
        raise ConfigError(f"growth exponent must be >= 1, got {q}")
    if q == 1.0:
        return 1.0
    return q / (q - 1.0)


def moment_verdict(cls: ConjugateClass, alpha: float) -> str:
    """Risk verdict for a tail index in (1, 2) under the given loss class."""
    if not (1.0 < alpha < 2.0):
        raise ConfigError(f"tail index must lie in (1, 2), got {alpha}")
    if cls.bounded:
        return "bounded-risk"
    if alpha >= required_alpha(cls.q_growth):
        return "bounded-risk"
    return "diverges-without-transfer"


def prox_loss(loss: Loss, eta: float, x: np.ndarray | float) -> np.ndarray | float:
    """Proximal map ``argmin_z eta * L(z) + (z - x)^2 / 2``."""
    if not (eta > 0.0 and math.isfinite(eta)):
        raise ConfigError(f"prox step must be finite and > 0, got {eta}")
    x = np.asarray(x, dtype=float)
    k = loss.kind
    if k is LossKind.SQUARED:
        out = x / (1.0 + eta)
    elif k is LossKind.ABSOLUTE:
        out = np.sign(x) * np.maximum(np.abs(x) - eta, 0.0)
    elif k is LossKind.HUBER:
        a = loss.param
        out = np.where(np.abs(x) <= a * (1.0 + eta), x / (1.0 + eta), x - eta * a * np.sign(x))
    elif k is LossKind.QUANTILE:
        q = loss.param
        out = np.where(x > eta * q, x - eta * q, np.where(x < eta * (q - 1.0), x - eta * (q - 1.0), 0.0))
    else:
        out = _prox_logcosh(eta, x)
    return out if out.shape else float(out)


def _prox_logcosh(eta: float, x: np.ndarray) -> np.ndarray:
    # Root of g(z) = z + eta*tanh(z) - x, unique since g' >= 1. Newton with a
    # bisection safeguard on the a-priori bracket [x - eta, x + eta].
    shape = x.shape
    x = np.atleast_1d(x).astype(float)
    lo = x - eta
    hi = x + eta
    z = x / (1.0 + eta)
    tol = 1.0e-12
    for _ in range(100):
        th = np.tanh(z)
        g = z + eta * th - x
        if np.all(np.abs(g) <= tol):
            break
        gp = 1.0 + eta * (1.0 - th * th)
        lo = np.where(g < 0.0, z, lo)
        hi = np.where(g > 0.0, z, hi)
        step = z - g / gp
        outside = (step <= lo) | (step >= hi)
        z = np.where(outside, 0.5 * (lo + hi), step)
    else:
        raise ConvergenceError("logcosh prox Newton iteration did not reach 1e-12 in 100 steps")
    return z.reshape(shape)


def prox_loss_conjugate(loss: Loss, sigma: float, u: np.ndarray | float) -> np.ndarray | float:
    """Proximal map of the Fenchel conjugate, ``argmin_z sigma * L*(z) + (z - u)^2 / 2``.

    Closed forms for Squared (``L* = z^2/2``), Absolute (indicator of
    ``[-1, 1]``), Huber (``z^2/2`` on ``[-k, k]``), and Quantile (indicator of
    the asymmetric interval).  LogCosh has no tractable conjugate; its
    conjugate prox is derived from the primal prox through the Moreau
    identity, so it must not be used to *test* that identity.
    """
    if not (sigma > 0.0 and math.isfinite(sigma)):
        raise ConfigError(f"prox step must be finite and > 0, got {sigma}")
    u = np.asarray(u, dtype=float)
    k = loss.kind
    if k is LossKind.SQUARED:
        out = u / (1.0 + sigma)
    elif k is LossKind.ABSOLUTE:
        out = np.clip(u, -1.0, 1.0)
    elif k is LossKind.HUBER:
        a = loss.param
        out = np.clip(u / (1.0 + sigma), -a, a)
    elif k is LossKind.QUANTILE:
        out = np.clip(u, loss.param - 1.0, loss.param)
    else:
        # Moreau: prox_{sigma L*}(u) = u - sigma * prox_{L / sigma}(u / sigma)
        out = u - sigma * np.asarray(prox_loss(loss, 1.0 / sigma, u / sigma))
    return out if out.shape else float(out)


def prox_reg(reg: Regularizer, eta: float | np.ndarray, v: np.ndarray | float) -> np.ndarray | float:
    """Coordinate-wise proximal map of a regularizer.

    ``eta`` is one step or an array of steps that broadcasts against ``v``
    (for example one step per row); every step must be finite and > 0.
    """
    if np.ndim(eta) == 0:  # the solvers' per-iteration call: keep numpy out of the check
        valid = eta > 0.0 and math.isfinite(eta)
    else:
        eta = np.asarray(eta, dtype=float)
        valid = bool(np.all((eta > 0.0) & np.isfinite(eta)))
    if not valid:
        raise ConfigError(f"prox steps must be finite and > 0, got {eta}")
    v = np.asarray(v, dtype=float)
    if reg.kind is RegKind.RIDGE:
        out = v / (1.0 + eta)
    elif reg.kind is RegKind.LASSO:
        out = np.sign(v) * np.maximum(np.abs(v) - eta, 0.0)
    else:
        soft = np.sign(v) * np.maximum(np.abs(v) - eta * reg.mix, 0.0)
        out = soft / (1.0 + eta * (1.0 - reg.mix))
    return out if out.shape else float(out)
