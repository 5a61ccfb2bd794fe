"""Finite-sample estimators: an exact active-set Newton fit for squared or
Huber loss with a ridge or lasso penalty, and the shifted Gram solves behind
every closed-form squared-loss fit.

A :class:`Resolvent` is one shifted family of Gram systems ``G + s T``,
formed once per draw, and only what its fits read of it; no fit reads the
spectrum of ``G``.  On a design ``X``, ``G = X'X/n`` and ``T = I``; on the
white draw ``Z`` of ``X = Z Sigma^1/2``, ``G = Z'Z/n`` and ``T = Sigma^-1``.
A closed-form squared-loss fit is one shifted system ``(G + lam T) f = rhs``
for its error.  A ridge Newton fit on a white draw fits
``theta = Sigma^1/2 beta`` with the penalty ``(lam/2) theta' T theta``; a
lasso Newton fit reads only a design.

:func:`_gram_solve` solves a draw's block either way.  A shift that does
not grow with the noise (least squares, fixed ridge), and any column whose
conjugate gradients miss their certificate, gets one LAPACK Cholesky
factor of ``G + s T``, ``p^3/3`` flops, and ``dpotrs`` solves.  The
noise-adapted ridge columns, whose shifts grow with the noise, go through
one multi-shift conjugate-gradient loop preconditioned by ``T`` instead,
one symmetric mat-vec per seed and step: every right-hand side combines
the same two seeds, so one Krylov sequence per seed serves every shift.
Below ``_KRYLOV_FEATURES`` features no block iterates, which is cheaper
there: a design's block is solved by Cholesky, and a white draw's through
one eigendecomposition of ``B^-T G B^-1`` for ``T = B'B``, the only one
left, which heavybench's eigh probe counts.

The Newton fit solves one piecewise-quadratic pattern per step, through the
Cholesky factor of ``G + s T`` corrected by Woodbury identities for a few
outliers or a few inliers, or else through a Cholesky factor of the
pattern's own system.  The outlier correction reads :meth:`Resolvent.factor`
``Y = X L^-T`` (one ``dtrsm``), formed once for the fit's one shift ``s``
and kept for every step and sweep point on the draw in place of ``G``, so
a step costs ``p o^2 + o^3/3`` for ``o`` outliers and no ``p x o`` product.
The inlier correction reads ``X B^-1`` for ``T = B'B``, formed once per
draw by banded solves.  A ridge step goes to the exact minimum of the
objective along its ray, a piecewise quadratic in the step length
(:func:`_ray_minimum`, O(n) per evaluation); a lasso step is halved while
it would raise the objective.  No fit reads an eigenvalue of ``G``: the
lasso's proximal-gradient step takes ``1/L`` for a curvature ``L``
backtracked along its own moves, and every fit is certified by its
least-norm subgradient, O(p).

All fitting is centered: the penalty acts on ``beta - beta0`` where ``beta0``
is a prior center (the origin when omitted), and objectives use the
``n^-1 sum loss(y_i - x_i' beta) + lambda * penalty(beta - beta0)``
normalization, so a noise-adapted penalty level is ``lambda_tilde * sigma2``
with no further rescaling.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg

from .convex import Loss, LossKind, Regularizer, RegKind, prox_reg
from .errors import ConfigError
from .spectrum import _tridiagonal_product

__all__ = [
    "Resolvent",
    "EstimatorConfig",
    "FitResult",
    "fit_proximal",
    "empirical_risk",
]

_ROUNDING = 1.0e-12  # relative objective slack that absorbs rounding
_MIN_STEP = 2.0 ** -60  # the shortest step the lasso's halving tries
_PROXIMAL = 1.0e-6  # weight of the proximal term on a singular pattern, relative to trace(G)/p
_RAY_EVALUATIONS = 64  # cap on the evaluations of phi' in one ridge step's line search (:func:`_ray_minimum`)
# Relative residual a shifted solve must reach.  It bounds the residual, not
# the error, which can reach cond(G + s I) times it: at n = 40, p = 60 and
# s = 1e-6 eigenbasis solves certified below it were 4.2e-10 to 9.7e-10
# relative off a 30-digit solution of the same system.
_CERTIFICATE = 1.0e-10
_CG_TOL = 1.0e-12  # recurrence residual at which a (seed, shift) pair leaves the conjugate-gradient solve
# Column mat-vecs per feature the seeds of a block may spend in all: p Krylov
# steps for a sweep's two seeds, conjugate gradients' termination bound in
# exact arithmetic.  A seed that finishes early leaves its share to the other.
# Spent in full on one BLAS thread it costs about 2.1 (p = 400) to 2.9
# (p = 1000) eighs of the p x p Gram matrix.
_CG_BUDGET = 2
# Fewest features at which a noise-adapted ridge block is solved by conjugate
# gradients rather than directly.  Each Krylov step pays a fixed overhead of
# tens of microseconds in NumPy and LAPACK calls, which a direct solve of a
# small block does not: for the white block on one BLAS thread at n = p..3p,
# lambda_tilde = 1 or 1e-6 and 10 or 25 shifts, an eigh of the Gram matrix
# was faster than conjugate gradients in every measured case with p <= 120
# (0.4 against 2.2-4.6 ms at p = 40), and conjugate gradients in every case
# with p >= 160 and lambda_tilde = 1.  Below it a white block still takes one
# eigh (:func:`_eigenbasis_solve`), only for heavybench's eigh probe, which
# counts one per tiny transient-paper replication; Cholesky of Z'Z/n + s T per
# shift is as fast there (0.20 against 0.25 ms at n = 120, p = 40, 6 shifts).
_KRYLOV_FEATURES = 128
# Columns gathered at a time for a Woodbury capacitance (:func:`_capacitance`):
# a 1000 x 128 block is 1 MiB, where a copy of 1000 rows of p = 1000 columns
# is 7.6 MiB.  The rank-k updates halve the product's flops, but the gathers
# take most of that back (17 against 20 ms at n = 2000, 1000 rows, p = 1000
# on one BLAS thread), so each route is still charged the full product.
_GATHER_COLUMNS = 128


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

    ``converged`` is True only when ``gradient_map_norm`` certifies
    first-order optimality: it is the norm of the least-norm subgradient,
    the gradient itself for a ridge fit, and never below the gradient map
    at any step.  ``iterations`` counts Newton steps.
    """

    beta_hat: np.ndarray
    iterations: int
    converged: bool
    objective: float
    gradient_map_norm: float = 0.0


@dataclass(frozen=True)
class Resolvent:
    """One shifted family of Gram systems ``(G + s T) e = r``.

    On a design ``X``, ``G = X'X/n`` and ``T`` is the identity.  On the
    white draw ``Z`` of a design ``X = Z Sigma^1/2``, ``G = Z'Z/n`` and
    ``T = Sigma^-1``, the symmetric tridiagonal ``precision`` as (diagonal,
    off-diagonal): the design's systems in the coordinates
    ``f = Sigma^1/2 e``, since ``(X'X/n + s I) e = Sigma^1/2 r`` exactly
    when ``(Z'Z/n + s T) f = r``, and ``e' Sigma e = f'f``.  A ridge fit
    reads ``T`` as its penalty's metric; a lasso fit reads only a design.

    Build it with :meth:`of`; every fit on the same draw reuses what it
    forms.  :attr:`gram` is formed on first use.  :meth:`cholesky` factors
    ``G + s T`` and keeps the factor of the last shift it was asked for,
    and :meth:`factor` keeps one ``n x p`` outlier factor and frees ``G``.
    So a draw holds one Cholesky factor beside ``G`` or beside the outlier
    factor, never all three.  No fit reads an eigenvalue of ``G``.
    """

    x: np.ndarray
    precision: tuple[np.ndarray, np.ndarray] | None = None
    # G once formed; the shift and lower Cholesky factor :meth:`cholesky` last
    # formed; and the shift and factor :meth:`factor` last formed
    _gram: list = field(default_factory=lambda: [None], init=False, repr=False, compare=False)
    _cholesky: list = field(default_factory=lambda: [None, None], init=False, repr=False, compare=False)
    _factor: list = field(default_factory=lambda: [None, None], init=False, repr=False, compare=False)

    @classmethod
    def of(cls, x: np.ndarray, precision: tuple[np.ndarray, np.ndarray] | None = None) -> Resolvent:
        """Validate a finite 2-d design, and factor a white draw's
        precision, which must be positive definite."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.size == 0 or not np.isfinite(x).all():
            raise ConfigError(f"design must be a nonempty finite 2-d array, got shape {x.shape}")
        design = cls(x, precision)
        if precision is not None:
            design._precision_factor  # raises on an indefinite precision
        return design

    @cached_property
    def _precision_factor(self) -> tuple[np.ndarray, np.ndarray]:
        """LAPACK ``pttrf``'s ``L D L'`` factor of ``T``, formed once."""
        diag, off = self.precision
        # the LAPACK wrapper rejects an empty off-diagonal, so a 1 x 1 T gets a zero one
        factor_d, factor_e, info = scipy.linalg.lapack.dpttrf(diag, off if diag.size > 1 else np.zeros(1))
        if info:
            raise ConfigError(f"precision is not positive definite (pttrf info {info})")
        return factor_d, factor_e

    @cached_property
    def _root_band(self) -> np.ndarray:
        """``B = D^1/2 L'``, ``T = B'B``, in LAPACK's upper band storage."""
        factor_d, factor_e = self._precision_factor
        root = np.sqrt(factor_d)
        return np.stack([np.r_[0.0, root[:-1] * factor_e[:root.size - 1]], root])

    def _b_solve(self, r: np.ndarray, trans: str) -> np.ndarray:
        """``B^-1 r`` or (``trans="T"``) ``B^-T r`` by ``tbtrs``; ``r`` on a design."""
        return r if self.precision is None else scipy.linalg.lapack.dtbtrs(self._root_band, r, trans=trans)[0]

    @cached_property
    def _root_x(self) -> np.ndarray:
        """``W = X B^-1``, formed once, O(np), so ``G + s T = B' (W'W/n + s I) B``."""
        return self._b_solve(self.x.T, "T").T

    def t_product(self, u: np.ndarray) -> np.ndarray:
        """``T u`` for a vector or a ``p x k`` block ``u``; ``u`` itself on a design."""
        return u if self.precision is None else _tridiagonal_product(*self.precision, u)

    def t_solve(self, r: np.ndarray) -> np.ndarray:
        """``T^-1 r`` by LAPACK ``pttrs`` for a vector or a ``p x k`` block; ``r`` itself on a design."""
        return r if self.precision is None else scipy.linalg.lapack.dpttrs(*self._precision_factor, r)[0]

    def _add_shift(self, a: np.ndarray, shift: float) -> None:
        """``a += shift T`` on the diagonal and upper off-diagonal of a C-ordered ``a``, all ``potrf`` reads."""
        diag, off = (1.0, 0.0) if self.precision is None else self.precision
        a.flat[::a.shape[0] + 1] += shift * diag
        a.flat[1::a.shape[0] + 1] += shift * off

    @property
    def gram(self) -> np.ndarray:
        """``G = X'X/n``, formed on first use, and formed again when asked
        for after :meth:`factor` freed it."""
        if self._gram[0] is None:
            gram = self.x.T @ self.x
            gram /= self.x.shape[0]  # in place: no second p x p array
            self._gram[0] = gram
        return self._gram[0]

    def cholesky(self, shift: float) -> np.ndarray:
        """The lower Cholesky factor ``L`` of ``G + shift T`` by
        :func:`_potrf`, which raises ``numpy.linalg.LinAlgError`` when that is
        not positive definite.  Only the last shift's factor is kept."""
        shift = float(shift)
        if self._cholesky[0] != shift:
            self._cholesky[:] = None, None  # the old factor is freed before the new one is formed
            a = self.gram.copy()
            self._add_shift(a, shift)
            self._cholesky[:] = shift, _potrf(a)
        return self._cholesky[1]

    def solve(self, rhs: np.ndarray, lam: float | np.ndarray) -> np.ndarray:
        """``(G + lam T)^-1 rhs`` by Cholesky, for a vector or a ``p x k``
        block of right-hand sides; for a block ``lam`` is one shift or ``k``
        of them, one per column.  Each distinct shift is factorized once, in
        ascending order, so the largest one's factor stays kept."""
        if np.ndim(rhs) == 1:  # two triangular solves, a third of potrs's time on one right-hand side
            factor = self.cholesky(lam)
            return scipy.linalg.blas.dtrsv(factor, scipy.linalg.blas.dtrsv(factor, rhs, lower=True),
                                           lower=True, trans=True)
        lam = np.broadcast_to(lam, rhs.shape[1:])
        out = np.empty(rhs.shape)
        for shift in np.unique(lam):
            cols = lam == shift
            out[:, cols] = scipy.linalg.lapack.dpotrs(self.cholesky(shift), rhs[:, cols], lower=True)[0]
        return out

    def factor(self, shift: float) -> np.ndarray:
        """The ``n x p`` factor ``Y = X L^-T`` of
        ``X (G + shift T)^-1 X' = Y Y'``, where ``L`` is :meth:`cholesky`
        at ``shift``.

        One triangular solve (BLAS ``trsm``) on first use.  Only the last
        shift's factor is kept: every Newton step of a fit at one penalty on
        this design reads the same one.  ``G`` is freed before ``Y`` is
        formed, since those steps read only ``L`` and ``Y``: at p = 1000 that
        keeps 7.6 MiB out of a Huber-ridge fit's peak.
        """
        if self._factor[0] != shift:
            self._factor[:] = None, None  # the old factor is freed before the new one is formed
            factor = self.cholesky(shift)
            self._gram[0] = None
            # L^-1 X' in Fortran order is Y in C order
            self._factor[:] = shift, scipy.linalg.blas.dtrsm(1.0, factor, self.x.T, lower=True).T
        return self._factor[1]


def _eigenbasis_solve(design: Resolvent, rhs: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """``(Z'Z/n + shifts[k] T)^-1 r_k`` per column ``k`` of ``rhs`` on a white
    draw.  With ``T = B'B``, ``B = D^1/2 L'`` from ``pttrf``'s ``L D L'``,
    ``G + s T = B' (M + s I) B`` for ``M = B^-T G B^-1 = V diag(w) V'`` (one
    eigh), so banded solves (LAPACK ``tbtrs``) give ``B^-1 V (V' B^-T r) / (w + s)``."""
    white = design._root_x.T  # (Z B^-1)'
    evals, evecs = np.linalg.eigh(white @ white.T / design.x.shape[0])
    return design._b_solve(evecs @ ((evecs.T @ design._b_solve(rhs, "T")) / (evals[:, None] + shifts)), "N")


def _gram_solve(design: Resolvent, seeds: np.ndarray, coefficients: np.ndarray, shifts: np.ndarray,
                adapted: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(G + shifts[k] T)^-1 r_k`` in the design's shifted family
    (:class:`Resolvent`), for every column ``k`` of ``r = seeds @ coefficients``
    (formed by :func:`_right_hand_sides`).

    The ``adapted`` columns, noise-adapted ridge, are solved from
    ``_KRYLOV_FEATURES`` features on by the multi-shift conjugate gradients
    of :func:`_multi_shift`, preconditioned by ``T``: one recurrence per seed
    at the smallest adapted shift ``s_0``, each step one symmetric mat-vec
    ``G d + s_0 T d`` per unfinished seed and one solve with ``T``
    (:meth:`Resolvent.t_solve`).  Every other column is solved directly, by
    Cholesky of ``G + s T`` (:meth:`Resolvent.solve`, one factor per distinct
    shift); below ``_KRYLOV_FEATURES`` features a white draw solves them
    instead through one eigendecomposition (:func:`_eigenbasis_solve`).

    Every column is certified by its relative residual in the ``T^-1`` norm,
    ``sqrt(rho' T^-1 rho / r' T^-1 r)`` with ``rho = (G + s_k T) e_k - r_k``,
    formed with one ``p x k`` product: the 2-norm on a design, and on a
    white draw the relative residual of the design's own system.  An adapted
    column above ``_CERTIFICATE`` (the budget ran out, or rounding held the
    true residual up) falls back: it is solved again by Cholesky of
    ``G + s T``, certified the same way, and keeps whichever of the two
    solutions has the smaller certificate.  The certificate bounds the
    residual, not the error (see ``_CERTIFICATE``).  Returns the solutions,
    their certificates, a mask of the columns converged (certified within
    ``_CERTIFICATE``) and a mask of the columns that fell back.
    """
    p = design.x.shape[1]
    rhs = _right_hand_sides(seeds, coefficients)
    if not shifts.size:  # no LAPACK banded or tridiagonal solve takes an empty block
        return rhs, np.zeros(0), np.zeros(0, dtype=bool), np.zeros(0, dtype=bool)
    krylov = adapted & (p >= _KRYLOV_FEATURES)
    sol = np.empty_like(rhs)
    if krylov.any():
        base = shifts[krylov].min()
        gram = design.gram.T  # G in the Fortran order BLAS takes

        def seed_product(d: np.ndarray) -> np.ndarray:  # G d + s_0 T d by one symmetric mat-vec per column
            return np.stack([scipy.linalg.blas.dsymv(1.0, gram, column, base, t_column)
                             for column, t_column in zip(d.T, design.t_product(d).T)], axis=1)

        sol[:, krylov] = _multi_shift(seed_product, design.t_solve, seeds, coefficients[:, krylov],
                                      shifts[krylov] - base, _CG_BUDGET * p)
    if design.precision is not None and p < _KRYLOV_FEATURES:  # a small white block: no column iterates
        sol[:] = _eigenbasis_solve(design, rhs, shifts)
    else:
        sol[:, ~krylov] = design.solve(rhs[:, ~krylov], shifts[~krylov])

    def t_norms(r: np.ndarray) -> np.ndarray:  # sqrt(r' T^-1 r) per column
        return np.sqrt(np.einsum("ij,ij->j", r, design.t_solve(r)))

    scale = t_norms(rhs)

    def certify(cols: np.ndarray) -> np.ndarray:
        residual = design.gram @ sol[:, cols] + design.t_product(sol[:, cols]) * shifts[cols] - rhs[:, cols]
        return t_norms(residual) / np.maximum(scale[cols], 1.0e-300)

    certificate = certify(np.arange(shifts.size))
    fell_back = krylov & ~(certificate <= _CERTIFICATE)
    redo = np.flatnonzero(fell_back)
    if redo.size:
        iterated, iterated_certificate = sol[:, redo], certificate[redo]
        sol[:, redo] = design.solve(rhs[:, redo], shifts[redo])
        certificate[redo] = certify(redo)
        keep = iterated_certificate < certificate[redo]  # the Krylov solve was the better one
        sol[:, redo[keep]], certificate[redo[keep]] = iterated[:, keep], iterated_certificate[keep]
    return sol, certificate, certificate <= _CERTIFICATE, fell_back


def _right_hand_sides(seeds: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """The block ``seeds @ coefficients``, formed one product at a time, so
    each column is ``sum_j c_j seed_j`` to the last bit in the seeds' order
    (a matrix product may fuse the multiply and the add)."""
    rhs = seeds[:, :1] * coefficients[0]
    for seed, row in zip(seeds.T[1:], coefficients[1:]):
        rhs += seed[:, None] * row
    return rhs


def _multi_shift(product: Callable[[np.ndarray], np.ndarray], precondition: Callable[[np.ndarray], np.ndarray],
                 seeds: np.ndarray, coefficients: np.ndarray, gaps: np.ndarray, budget: int) -> np.ndarray:
    """The Krylov loop of :func:`_gram_solve`: multi-shift preconditioned
    conjugate gradients on ``(G + s T) e = r`` for every shift ``s`` at once.

    ``product`` multiplies ``G + s_0 T`` into the seeds' search directions,
    ``precondition`` applies ``T^-1``, ``gaps`` are ``s - s_0`` and
    ``budget`` caps the column mat-vecs.  Preconditioning by ``T`` turns
    ``G + s T`` into ``T^-1 G + s I``, a family shifted exactly, so a seed's
    Krylov space is the same at every shift (Jegerlehner 1996,
    hep-lat/9612014; Frommer 2003, *Computing* 70): each seed runs one
    recurrence at the smallest shift ``s_0``, and at a shift ``s`` the
    residual is ``zeta`` times the seed's, ``1 / zeta`` being the seed's
    residual polynomial at ``s_0 - s``, so every (seed, shift) pair follows
    from scalar recurrences.  On the white draw of ``X = Z Sigma^1/2`` the
    iterates are those of plain conjugate gradients on ``X'X/n + s_0 I``
    mapped through ``Sigma^1/2``.  A pair with a nonzero coefficient iterates
    until ``zeta^2 r' T^-1 r`` falls to ``_CG_TOL^2`` of its start, and a
    seed until all its pairs have left.  Returns the columns of
    ``seeds @ coefficients`` solved as far as their pairs got."""
    res = seeds.copy()
    pre = precondition(res)
    rho = np.einsum("ij,ij->j", res, pre)
    stop = _CG_TOL ** 2 * rho
    live = (rho > stop)[:, None] & (coefficients != 0.0)
    # Only the seeds still iterating, ``ids``, are stepped.  A (seed, shift) pair's residual is zeta times
    # its seed's, and it steps by alpha ratio along p_t = zeta_t z_t + beta ratio^2 p_(t-1), where z_t is
    # the seed's preconditioned residual and ratio = zeta_(t+1) / zeta_t.  The loop keeps every z_t and
    # these scalars; the solutions are formed after it, which on one BLAS thread at p = 1000 is 6-12 ms
    # faster per 25-shift block than updating every pair's iterate and direction inside the loop.
    ids = np.flatnonzero(live.any(axis=1))
    res, pre, rho, stop, live = res[:, ids], pre[:, ids], rho[ids], stop[ids], live[ids]
    direction, alpha, beta = pre, np.ones(ids.size), np.zeros(ids.size)
    zeta, ratio = np.ones(live.shape), np.ones(live.shape)
    basis, steps = [], []
    spent = 0
    while ids.size and spent + ids.size <= budget:
        spent += ids.size
        q = product(direction)
        alpha_next = rho / np.einsum("ij,ij->j", direction, q)
        res = res - alpha_next * q
        basis.append(pre)
        pre = precondition(res)
        rho_next = np.einsum("ij,ij->j", res, pre)
        beta_next = rho_next / rho
        direction = pre + beta_next * direction
        # 1 / zeta is the seed's residual polynomial at s_0 - s; its three-term recurrence, in ratios
        ratio = 1.0 / (1.0 + gaps * alpha_next[:, None] + (alpha_next * beta / alpha)[:, None] * (1.0 - ratio))
        steps.append((ids, zeta, live, alpha_next, beta_next, ratio))
        zeta = zeta * ratio
        live = live & (zeta ** 2 * rho_next[:, None] > stop[:, None])
        alpha, beta, rho = alpha_next, beta_next, rho_next
        going = live.any(axis=1)
        if not going.all():
            ids, res, pre, direction, rho, stop, live, zeta, ratio, alpha, beta = (
                ids[going], res[:, going], pre[:, going], direction[:, going], rho[going], stop[going],
                live[going], zeta[going], ratio[going], alpha[going], beta[going])

    # A pair's solution, the sum of its steps, is sum_t zeta_t w_t z_t with w_t = alpha_t ratio_t
    # + beta_t ratio_t^2 w_(t+1) while it iterates; each column combines its pairs, so the block is one
    # product of the kept residuals and their weights.
    weights, w = [], np.zeros(coefficients.shape)
    for ids, zeta, live, alpha, beta, ratio in reversed(steps):
        w[ids] = live * alpha[:, None] * ratio + beta[:, None] * ratio ** 2 * w[ids]
        weights.append(coefficients[ids] * zeta * w[ids])
    return np.hstack(basis) @ np.vstack(weights[::-1]) if basis else np.zeros((seeds.shape[0], gaps.size))


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
    or Huber loss with a ridge or lasso penalty.  The ridge's is ``d'T d / 2``
    for ``d = beta - beta0``: on a white draw it fits ``theta = Sigma^1/2 beta``
    and reads the design fit's numbers.  A white lasso raises ``ConfigError``.

    Both objectives are piecewise quadratic.  Each step reads a pattern --
    every residual an inlier (``|r| <= k``) or an outlier of a given sign,
    every lasso coordinate zero or free with a given sign -- and solves that
    pattern's quadratic exactly (:func:`_pattern_solve`).  A ridge step then
    moves to the exact minimizer of the objective on the ray from the
    current point through the pattern's solution, found by
    :func:`_ray_minimum` (Madsen & Nielsen 1990, *BIT* 30); the full step,
    tested first, is that minimizer when it lands on its own pattern.  The
    lasso reads its signs from the proximal-gradient point
    ``prox(b - grad / L)`` and steps from there.  ``L`` starts at the
    Rayleigh quotient of ``X'X/n`` along the fit's first gradient (one
    mat-vec), and while the descent lemma
    ``h(prox) <= h(b) + grad'(prox - b) + (L/2) ||prox - b||^2`` fails for
    the smooth part ``h``, it rises to at least the move's own curvature
    ``||X (prox - b)||^2 / (n ||prox - b||^2)`` and at least ``1.5 L``
    (Beck & Teboulle 2009, *SIAM J. Imaging Sci.* 2(1)); it is kept for the
    rest of the fit.  So the proximal-gradient point is never above the
    objective at ``b``, and no eigenvalue is read.  When its full step raises
    the objective, coordinates that would change sign stop at zero, and then
    the step is halved.  The method stops when a full step lands on the
    pattern it was solved for, since that point satisfies the optimality
    conditions exactly, or when a step no longer lowers the objective (a
    full ridge step with no proximal term that ties it to ``_ROUNDING`` goes
    on to the landing test).  A lasso pattern with more free coordinates than
    inlier rows, or a Cholesky factorization that fails, has no unique
    minimizer; its step adds the proximal term ``(mu/2) (b - b_k)' T (b - b_k)``
    with ``mu = 1e-6 trace(G) / p``, which is ``1e-6 ||X||_F^2 / (n p)``
    and needs no ``X'X``, and never ends the method.  ``x0`` warm-starts it (e.g. from the previous sweep point).
    A lasso whose centre is optimal,
    ``||X' loss'(y - X beta0) / n||_inf <= lambda_n``, returns the centre
    in zero steps.

    ``iterations`` counts Newton steps.  Convergence means the certificate,
    computed once at the end in O(p), holds.  It is the norm of the
    least-norm subgradient of the objective (:func:`_certificate`).  For the
    ridge that is the gradient ``-X' loss'(r) / n + lambda_n T d``; for the lasso,
    with ``g`` the smooth part's gradient and ``d = beta - beta0``, it reads
    ``g_j + lambda_n sign(d_j)`` on a coordinate with ``d_j != 0`` and
    ``max(|g_j| - lambda_n, 0)`` on one at zero.  It is never below the
    gradient map at any step (Beck 2017, *First-Order Methods in
    Optimization*, ch. 10: the proximal map is nonexpansive), so it
    certifies no point that the gradient map at the step ``1/L`` would not.
    A screened fit's certificate is 0.
    Raises only ``ConfigError``, on invalid input (a loss or penalty other
    than those above, wrong shapes, non-finite ``y``, center or ``x0``); a
    busted budget or a stalled step returns the result with
    ``converged=False``.
    """
    loss, reg = config.loss, config.reg
    if loss.kind not in (LossKind.SQUARED, LossKind.HUBER) or reg is None \
            or reg.kind not in (RegKind.RIDGE, RegKind.LASSO):
        penalty = "no penalty" if reg is None else repr(reg.kind.value)
        raise ConfigError(f"fitting takes squared or Huber loss with ridge or lasso, "
                          f"got {loss.kind.value!r} with {penalty}")
    lasso = reg.kind is RegKind.LASSO
    if lasso and design.precision is not None:
        raise ConfigError("a lasso fit reads a design; got a white draw's Resolvent")
    x = design.x
    n, p = x.shape
    y = _finite_vector(y, n, "response")
    lam = config.lambda_value
    center = np.zeros(p) if config.center is None else _finite_vector(config.center, p, "center")
    d = np.zeros(p) if x0 is None else _finite_vector(x0, p, "warm start") - center
    y_shift = y - x @ center
    k = loss.param if loss.kind is LossKind.HUBER else math.inf

    def smooth(r: np.ndarray) -> float:
        return float(np.mean(loss.value(r)))

    def penalty(d: np.ndarray) -> float:  # lambda ||d||_1, or lambda d'T d / 2
        return lam * (float(reg.value(d)) if lasso else 0.5 * float(d @ design.t_product(d)))

    def gradient(r: np.ndarray) -> np.ndarray:
        return -(x.T @ np.asarray(loss.derivative(r))) / n

    def curvature(v: np.ndarray, xv: np.ndarray) -> float:  # the Rayleigh quotient of X'X/n along v, xv = X v
        return float(xv @ xv) / (n * float(v @ v))

    def mean_curvature() -> float:  # trace(G) / p, read without G
        return float(np.linalg.norm(x)) ** 2 / (n * p)

    grad = gradient(y_shift) if lasso else None
    screened = lasso and np.max(np.abs(grad)) <= lam
    if screened:  # the centre is optimal
        d, r = np.zeros(p), y_shift
    else:
        r = y_shift - x @ d
    h = smooth(r)  # the smooth part of the objective f at d
    f = h + penalty(d)
    lipschitz = None  # the lasso's backtracked curvature L, set at its first step
    iterations = 0
    solved = None  # the pattern of the last exact full step
    while not screened and iterations < config.max_iterations:
        base, r_base, sign = d, r, None
        if lasso:  # the proximal-gradient point lies inside its own sign pattern
            g = gradient(r)
            if lipschitz is None:  # a start with a zero gradient has no quotient along it
                lipschitz = curvature(g, x @ g) if g.any() else mean_curvature()
            while True:  # raise L until the descent lemma holds at the proximal point
                step = 1.0 / lipschitz
                base = prox_reg(reg, step * lam, d - step * g)
                sign = np.sign(base)
                r_base = y_shift - x @ base
                move = base - d
                bound = h + float(g @ move) + 0.5 * lipschitz * float(move @ move)
                h_base = smooth(r_base)
                if h_base <= bound + _ROUNDING * abs(h):
                    break
                lipschitz = max(1.5 * lipschitz, curvature(move, r - r_base))
        pattern = (_sides(r_base, k), sign)
        if solved is not None and all(a is None or np.array_equal(a, b) for a, b in zip(pattern, solved)):
            break  # a full step landed on its own pattern
        iterations += 1
        if lasso:  # never above the objective at d, by the descent lemma
            d, r, h, f = base, r_base, h_base, h_base + penalty(base)
        singular = lasso and np.count_nonzero(sign) > np.count_nonzero(pattern[0] == 0.0)
        mu = _PROXIMAL * mean_curvature() if singular else 0.0
        try:
            target = _pattern_solve(design, y_shift, k, *pattern, lam, d, mu)
        except np.linalg.LinAlgError:
            mu = _PROXIMAL * mean_curvature()
            target = _pattern_solve(design, y_shift, k, *pattern, lam, d, mu)
        if lasso:
            # the full step; next the full step with coordinates that would
            # change sign stopped at zero; then halvings of that
            t, cand = 1.0, target
            while True:
                r_cand = y_shift - x @ cand
                h_cand = smooth(r_cand)
                f_cand = h_cand + penalty(cand)
                if f_cand <= f + _ROUNDING * abs(f) or t < _MIN_STEP:
                    break
                if cand is not target:
                    t *= 0.5
                cand = d + t * (target - d)
                cand = np.where(cand * sign > 0.0, cand, 0.0)
        else:  # the exact minimizer along the ray d + t (target - d)
            ray = target - d
            t_ray = design.t_product(ray)
            t, r_cand = _ray_minimum(r, x @ ray, k, lam * float(d @ t_ray), lam * float(ray @ t_ray),
                                     pattern[0] if mu == 0.0 else None)
            cand = target if t == 1.0 else d + t * ray
            h_cand = smooth(r_cand)
            f_cand = h_cand + penalty(cand)
        if not (f_cand < f or not lasso and cand is target and mu == 0.0 and f_cand <= f + _ROUNDING * abs(f)):
            break  # no descent left; a full ridge step that ties goes on to the landing test
        d, r, h, f = cand, r_cand, h_cand, f_cand
        solved = pattern if cand is target and mu == 0.0 else None

    if not screened:
        grad = gradient(r)
    beta = center + d
    certificate, certified = _certificate(grad, d, beta, lam, config.gradient_map_tol, None if lasso else design)
    return FitResult(
        beta_hat=beta,
        iterations=iterations,
        converged=certified,
        objective=f,
        gradient_map_norm=certificate,
    )


def _certificate(grad: np.ndarray, d: np.ndarray, beta: np.ndarray, lam: float, tol: float,
                 ridge: Resolvent | None = None) -> tuple[float, bool]:
    """The norm of the least-norm subgradient of ``h + lam reg(d)`` for the
    smooth part's gradient ``grad`` at ``d = beta - beta0``, and whether it
    holds within ``tol (1 + ||beta||)``.  With no ``ridge`` the penalty is
    the lasso's (see :func:`fit_proximal`); else it is ``d' T d / 2`` for
    that Resolvent's ``T``, whose gradient ``g`` is held in the norms
    ``sqrt(g' T^-1 g)`` and ``sqrt(beta' T beta)``: on a white draw the
    design fit's ``||Sigma^1/2 g||`` and ``||beta||``."""
    if ridge is None:
        subgradient = np.where(d != 0.0, grad + lam * np.sign(d), np.maximum(np.abs(grad) - lam, 0.0))
        square, size = np.sum(subgradient * subgradient), np.sum(beta * beta)
    else:
        subgradient = grad + lam * ridge.t_product(d)
        square, size = np.sum(subgradient * ridge.t_solve(subgradient)), np.sum(beta * ridge.t_product(beta))
    norm = math.sqrt(square)
    return norm, norm <= tol * (1.0 + math.sqrt(size))


def _sides(r: np.ndarray, k: float) -> np.ndarray:
    """The residual pattern: 0 for an inlier (``|r| <= k``), else the sign."""
    return np.where(np.abs(r) <= k, 0.0, np.sign(r))


def _ray_minimum(r: np.ndarray, delta: np.ndarray, k: float, slope: float, curvature: float,
                 solved: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """The exact minimizer ``t* >= 0`` of
    ``phi(t) = mean(huber_k(r - t delta)) + slope t + curvature t^2 / 2``
    and the residual ``r - t* delta`` there; ``k = inf`` is squared loss.

    A ridge step from ``d`` towards ``d + D`` has ``delta = X D``,
    ``slope = lam d'T D`` and ``curvature = lam D'T D > 0``, and
    ``phi'(0) <= 0``.  ``phi'`` is nondecreasing and linear between the
    breakpoints where a residual crosses ``+-k``, so a safeguarded Newton
    iteration on it from ``t = 1`` ends exactly: each evaluation, O(n),
    reads the piece at ``t`` (the pattern of :func:`_sides`) and steps to
    the root of that piece's line, which is the root of ``phi'`` once it
    lands on the same piece.  A step that leaves the bracket
    ``phi'(lo) < 0 < phi'(hi)`` takes the bracket's secant instead.
    ``solved`` is the pattern at ``t = 0`` when ``t = 1`` is the root of its
    line (a full Newton step with no proximal term): a full step that lands
    on it is taken at the first evaluation.  After ``_RAY_EVALUATIONS``
    evaluations ``lo`` is returned, where ``phi`` is no higher than at 0.
    """
    n = r.size
    square = delta * delta
    lo, hi, g_lo, g_hi = 0.0, math.inf, None, None  # the bracket and phi' at its ends, once evaluated
    t, came_from = 1.0, solved  # came_from: the piece whose line has its root at t, if any
    for _ in range(_RAY_EVALUATIONS):
        z = r - t * delta
        piece = _sides(z, k)
        if came_from is not None and np.array_equal(piece, came_from):
            return t, z
        g = slope + curvature * t - float(np.clip(z, -k, k) @ delta) / n
        step = t - g / (curvature + float(square @ (piece == 0.0)) / n)
        if step == t:  # the root, to rounding
            return t, z
        if g < 0.0:
            lo, g_lo = t, g
        else:
            hi, g_hi = t, g
        t, came_from = step, piece
        if not lo < t < hi:  # hi is finite: a step from left of the root moves right
            if g_lo is None:
                g_lo = slope - float(np.clip(r, -k, k) @ delta) / n
                if g_lo >= 0.0:
                    return 0.0, r
            t, came_from = lo - g_lo * (hi - lo) / (g_hi - g_lo), None
            if not lo < t < hi:  # no float strictly inside the bracket
                break
    return lo, r - lo * delta


def _pattern_solve(design: Resolvent, y: np.ndarray, k: float, outlier: np.ndarray,
                   sign: np.ndarray | None, lam: float, anchor: np.ndarray, mu: float) -> np.ndarray:
    """Minimizer of one pattern's quadratic plus ``(mu/2) (b - anchor)' T (b - anchor)``.

    ``outlier`` is 0 for an inlier residual and its sign for an outlier;
    ``sign`` is None for the ridge, where every coordinate is free, and for
    the lasso each coordinate's sign, 0 for one held at zero.  On the free
    coordinates ``F`` the minimizer solves

        ``(X_IF' X_IF / n + s T) b_F = X_F' v / n - lam_1 sign_F + mu (T anchor)_F``

    with ``v`` the inlier responses and ``k`` times the outlier signs,
    ``s = lam_2 + mu`` and ``(lam_1, lam_2)`` equal to ``(lam, 0)`` for the
    lasso and ``(0, lam)`` for the ridge.  With ``o = n - m`` outliers and
    ``m`` inliers, the system is solved the cheapest exact way by the flop
    counts of :func:`_route_costs`:

    - ``outliers``, when every coordinate is free: through the design's
      Cholesky factor ``L`` of ``A = X'X/n + s T``
      (:meth:`Resolvent.cholesky`, two ``potrs`` solves) with a Woodbury
      correction for the outlier rows ``O``, whose capacitance is
      ``n I - X_O A^-1 X_O' = n I - Y_O Y_O'`` for the design's
      :meth:`Resolvent.factor` ``Y = X L^-T`` (``p o^2 + o^3/3``), and the
      correction is one more solve of a vector.  With ``s = 0`` (a lasso
      pattern with every coordinate free and no proximal term) it serves
      only a pattern with no outliers, whose system is ``X'X/n`` itself:
      one factor and no ``Y``, and a singular ``X'X/n`` raises
      ``numpy.linalg.LinAlgError`` as the ``cholesky`` route would.
    - ``inliers``, when ``s > 0``: a Woodbury correction of ``s I`` for the
      inlier rows of ``W = X B^-1`` (:attr:`Resolvent._root_x`), between
      banded solves with ``B`` (``m^2 q + m^3/3``); no inliers and
      ``mu = 0`` give ``b = k T^-1 X' sign / (lam n)``.
    - ``cholesky``: a Cholesky factor of ``X_IF' X_IF / n + s T``
      (``m q^2 + q^3/3``), whose failure raises
      ``numpy.linalg.LinAlgError``.
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
    c = x_f.T @ np.where(inlier, y, np.copysign(k, outlier)) / n + mu * design.t_product(anchor)[free]
    if sign is None:
        shift = lam + mu
    else:
        shift = mu
        c -= lam * sign[free]

    costs = _route_costs(design, m, q, shift)
    route = min(costs, key=costs.get)
    if route == "outliers":
        # (A - X_O'X_O/n)^-1 = A^-1 + A^-1 X_O' (n I - X_O A^-1 X_O')^-1 X_O A^-1,  A = X'X/n + s T
        b = design.solve(c, shift)
        if m < n:
            # X_O A^-1 X_O' = Y_O Y_O'; X_O b is (X b)[O] and X_O' u is X' u with u scattered onto O
            rows = np.flatnonzero(~inlier)
            u = np.zeros(n)
            u[rows] = _spd_solve(_capacitance(design.factor(shift), rows, n, -1.0), (x @ b)[rows])
            b += design.solve(x.T @ u, shift)
    elif route == "inliers":
        # (s I + W_I'W_I/n)^-1 = (I - W_I' (n s I + W_I W_I')^-1 W_I) / s between B^-T and B^-1; each
        # copy of the rows W_I lives only for its product with a vector, never beside the capacitance
        w = design._root_x if q == p else x_f  # a lasso's T is I
        c = design._b_solve(c, "T")
        if m:
            rows = np.flatnonzero(inlier)
            v = w[rows] @ c
            v = _spd_solve(_capacitance(w, rows, n * shift, 1.0), v)
            c = c - w[rows].T @ v
        b = design._b_solve(c, "N") / shift
    else:
        x_i = x_f[inlier]
        h = x_i.T @ x_i
        h /= n
        design._add_shift(h, shift)
        b = _spd_solve(h, c)
    out[free] = b
    return out


def _route_costs(design: Resolvent, m: int, q: int, shift: float) -> dict[str, float]:
    """Flops of each exact route :func:`_pattern_solve` may take for a
    pattern of ``m`` inliers, ``q`` free coordinates and shift ``s``, by
    name; a route missing from the table is not exact for that pattern.
    The outlier route's factors, the Cholesky factor of ``G + s T``
    (``p^3/3``) and ``Y`` (``n p^2``), are formed once per design and shift,
    so they are not charged.  With ``s = 0`` the route is open only to a
    pattern with no outliers, whose system is the factored ``X'X/n``
    itself; an outlier correction there would read ``Y = X L^-T`` of a Gram
    matrix that may be near singular, so such a pattern takes ``cholesky``."""
    n, p = design.x.shape
    o = n - m
    costs = {"cholesky": m * q * q + q ** 3 / 3.0}
    if q == p and (shift > 0.0 or o == 0):
        costs["outliers"] = p * o * o + o ** 3 / 3.0
    if shift > 0.0:
        costs["inliers"] = m * m * q + m ** 3 / 3.0
    return costs


def _capacitance(a: np.ndarray, rows: np.ndarray, diagonal: float, sign: float) -> np.ndarray:
    """``diagonal I + sign A_R A_R'`` for the rows ``R`` of ``a``, as
    :func:`_spd_solve` takes it: only the upper triangle is formed, all that
    Cholesky reads, by rank-k updates over column blocks of ``A_R``, so the
    rows are never copied whole."""
    k = len(rows)
    capacitance = np.zeros((k, k), order="F")
    capacitance.flat[::k + 1] = diagonal
    for j in range(0, a.shape[1], _GATHER_COLUMNS):
        capacitance = scipy.linalg.blas.dsyrk(sign, a[rows, j:j + _GATHER_COLUMNS].T, 1.0, capacitance,
                                              trans=1, lower=1, overwrite_c=1)
    return capacitance.T


def _spd_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a^-1 b`` for a symmetric positive definite ``a``, by :func:`_potrf`
    and LAPACK ``potrs``; ``a`` is overwritten by its factor."""
    return scipy.linalg.lapack.dpotrs(_potrf(a), b, lower=True)[0]


def _potrf(a: np.ndarray) -> np.ndarray:
    """The lower Cholesky factor ``L`` of a symmetric positive definite
    ``a``, by LAPACK ``potrf``, which reads only the upper triangle of ``a``
    (the lower one of ``a.T``).  It is formed in place, in the Fortran order
    LAPACK takes, and only its lower triangle holds ``L``.  Raises
    ``numpy.linalg.LinAlgError`` when ``a`` is not positive definite."""
    # a.T is a in the Fortran order LAPACK takes, so the factor is formed in place
    factor, info = scipy.linalg.lapack.dpotrf(a.T, lower=True, clean=False, overwrite_a=True)
    if info:
        raise np.linalg.LinAlgError(f"Cholesky factorization failed (LAPACK info {info})")
    return factor


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
